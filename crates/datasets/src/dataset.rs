use orco_tensor::Matrix;

/// Which synthetic corpus a [`Dataset`] was drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    /// 28×28 grayscale digit glyphs (MNIST stand-in).
    MnistLike,
    /// 32×32 RGB traffic signs (GTSRB stand-in).
    GtsrbLike,
}

impl DatasetKind {
    /// Channel count.
    #[must_use]
    pub fn channels(self) -> usize {
        match self {
            DatasetKind::MnistLike => 1,
            DatasetKind::GtsrbLike => 3,
        }
    }

    /// Spatial height.
    #[must_use]
    pub fn height(self) -> usize {
        match self {
            DatasetKind::MnistLike => 28,
            DatasetKind::GtsrbLike => 32,
        }
    }

    /// Spatial width.
    #[must_use]
    pub fn width(self) -> usize {
        self.height()
    }

    /// Number of label classes (10 digits / 43 sign classes).
    #[must_use]
    pub fn classes(self) -> usize {
        match self {
            DatasetKind::MnistLike => 10,
            DatasetKind::GtsrbLike => 43,
        }
    }

    /// Flattened sample length `C·H·W` (784 / 3072 — the paper's `N`).
    #[must_use]
    pub fn sample_len(self) -> usize {
        self.channels() * self.height() * self.width()
    }

    /// The latent dimension the paper uses for this task (M = 128 for
    /// MNIST, 512 for GTSRB).
    #[must_use]
    pub fn paper_latent_dim(self) -> usize {
        match self {
            DatasetKind::MnistLike => 128,
            DatasetKind::GtsrbLike => 512,
        }
    }
}

/// A labelled image dataset with one flattened sample per matrix row.
///
/// Pixel values are in `[0, 1]`.
#[derive(Debug, Clone)]
pub struct Dataset {
    kind: DatasetKind,
    x: Matrix,
    labels: Vec<usize>,
}

impl Dataset {
    /// Assembles a dataset.
    ///
    /// # Panics
    ///
    /// Panics if `x.rows() != labels.len()`, `x.cols()` does not match the
    /// kind's sample length, or any label is out of range.
    #[must_use]
    pub(crate) fn new(kind: DatasetKind, x: Matrix, labels: Vec<usize>) -> Self {
        assert_eq!(x.rows(), labels.len(), "Dataset: row/label count mismatch");
        assert_eq!(x.cols(), kind.sample_len(), "Dataset: sample length mismatch");
        assert!(
            labels.iter().all(|&l| l < kind.classes()),
            "Dataset: label out of range for {kind:?}"
        );
        Self { kind, x, labels }
    }

    /// The corpus this dataset came from.
    #[must_use]
    pub fn kind(&self) -> DatasetKind {
        self.kind
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.x.rows()
    }

    /// Whether the dataset is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.x.rows() == 0
    }

    /// The design matrix (one flattened sample per row, values in `[0, 1]`).
    #[must_use]
    pub fn x(&self) -> &Matrix {
        &self.x
    }

    /// Integer labels, parallel to the rows of [`Dataset::x`].
    #[must_use]
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// One flattened sample.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[must_use]
    pub fn sample(&self, i: usize) -> &[f32] {
        self.x.row(i)
    }

    /// Replaces the design matrix (drift, or a codec's reconstructions
    /// standing in for the samples), keeping labels.
    ///
    /// # Panics
    ///
    /// Panics if the new matrix's shape differs from the old one.
    #[must_use]
    pub fn with_x(&self, x: Matrix) -> Dataset {
        assert_eq!(x.shape(), self.x.shape(), "with_x: shape must be preserved");
        Dataset { kind: self.kind, x, labels: self.labels.clone() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_dimensions_match_paper() {
        assert_eq!(DatasetKind::MnistLike.sample_len(), 784);
        assert_eq!(DatasetKind::GtsrbLike.sample_len(), 3072);
        assert_eq!(DatasetKind::MnistLike.classes(), 10);
        assert_eq!(DatasetKind::GtsrbLike.classes(), 43);
        assert_eq!(DatasetKind::MnistLike.paper_latent_dim(), 128);
        assert_eq!(DatasetKind::GtsrbLike.paper_latent_dim(), 512);
    }

    #[test]
    fn construction_and_access() {
        let x = Matrix::zeros(3, 784);
        let ds = Dataset::new(DatasetKind::MnistLike, x, vec![0, 5, 9]);
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.labels()[1], 5);
        assert_eq!(ds.sample(0).len(), 784);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn rejects_bad_labels() {
        let _ = Dataset::new(DatasetKind::MnistLike, Matrix::zeros(1, 784), vec![10]);
    }

    #[test]
    #[should_panic(expected = "sample length")]
    fn rejects_bad_width() {
        let _ = Dataset::new(DatasetKind::MnistLike, Matrix::zeros(1, 100), vec![0]);
    }
}
