//! Classification metrics for the follow-up application experiments.

use orco_tensor::Matrix;

/// Fraction of rows whose argmax prediction matches the label.
///
/// # Panics
///
/// Panics if `labels.len() != logits.rows()` or the batch is empty.
#[must_use]
pub fn accuracy(logits: &Matrix, labels: &[usize]) -> f32 {
    assert_eq!(logits.rows(), labels.len(), "accuracy: batch size mismatch");
    assert!(!labels.is_empty(), "accuracy: empty batch");
    let preds = logits.argmax_rows();
    let correct = preds.iter().zip(labels).filter(|(p, l)| p == l).count();
    correct as f32 / labels.len() as f32
}

/// One-hot encodes labels into a `(batch, classes)` matrix.
///
/// # Panics
///
/// Panics if any label is `>= classes`.
#[must_use]
pub fn one_hot(labels: &[usize], classes: usize) -> Matrix {
    let mut m = Matrix::zeros(labels.len(), classes);
    for (r, &l) in labels.iter().enumerate() {
        assert!(l < classes, "one_hot: label {l} >= classes {classes}");
        m[(r, l)] = 1.0;
    }
    m
}

/// A `classes × classes` confusion matrix: `counts[actual][predicted]`.
#[derive(Debug, Clone)]
pub(crate) struct ConfusionMatrix {
    classes: usize,
    counts: Vec<u64>,
}

impl ConfusionMatrix {
    /// Creates an empty confusion matrix for `classes` classes.
    ///
    /// # Panics
    ///
    /// Panics if `classes == 0`.
    #[must_use]
    pub(crate) fn new(classes: usize) -> Self {
        assert!(classes > 0, "ConfusionMatrix: classes must be non-zero");
        Self { classes, counts: vec![0; classes * classes] }
    }

    /// Records one `(actual, predicted)` observation.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub(crate) fn record(&mut self, actual: usize, predicted: usize) {
        assert!(
            actual < self.classes && predicted < self.classes,
            "ConfusionMatrix: class out of range"
        );
        self.counts[actual * self.classes + predicted] += 1;
    }

    /// Records a whole batch from logits and labels.
    pub(crate) fn record_batch(&mut self, logits: &Matrix, labels: &[usize]) {
        for (pred, &actual) in logits.argmax_rows().iter().zip(labels) {
            self.record(actual, *pred);
        }
    }

    /// Count at `(actual, predicted)`.
    #[must_use]
    pub(crate) fn count(&self, actual: usize, predicted: usize) -> u64 {
        self.counts[actual * self.classes + predicted]
    }

    /// Total observations recorded.
    #[must_use]
    pub(crate) fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Overall accuracy (0 when empty).
    #[must_use]
    pub(crate) fn accuracy(&self) -> f32 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let diag: u64 = (0..self.classes).map(|i| self.count(i, i)).sum();
        diag as f32 / total as f32
    }

    /// Per-class recall: `diag / row-sum` (`None` when the class was never
    /// observed).
    #[must_use]
    pub(crate) fn recall(&self, class: usize) -> Option<f32> {
        let row: u64 = (0..self.classes).map(|p| self.count(class, p)).sum();
        if row == 0 {
            None
        } else {
            Some(self.count(class, class) as f32 / row as f32)
        }
    }

    /// Per-class precision: `diag / column-sum` (`None` when the class was
    /// never predicted).
    #[must_use]
    pub(crate) fn precision(&self, class: usize) -> Option<f32> {
        let col: u64 = (0..self.classes).map(|a| self.count(a, class)).sum();
        if col == 0 {
            None
        } else {
            Some(self.count(class, class) as f32 / col as f32)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_counts_argmax_matches() {
        let logits = Matrix::from_vec(3, 2, vec![0.9, 0.1, 0.2, 0.8, 0.6, 0.4]).unwrap();
        assert!((accuracy(&logits, &[0, 1, 1]) - 2.0 / 3.0).abs() < 1e-6);
        assert_eq!(accuracy(&logits, &[0, 1, 0]), 1.0);
    }

    #[test]
    fn one_hot_rows() {
        let m = one_hot(&[2, 0], 3);
        assert_eq!(m.row(0), &[0.0, 0.0, 1.0]);
        assert_eq!(m.row(1), &[1.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "one_hot")]
    fn one_hot_rejects_out_of_range() {
        let _ = one_hot(&[3], 3);
    }

    #[test]
    fn confusion_matrix_accuracy_and_recall() {
        let mut cm = ConfusionMatrix::new(2);
        cm.record(0, 0);
        cm.record(0, 0);
        cm.record(0, 1);
        cm.record(1, 1);
        assert_eq!(cm.total(), 4);
        assert!((cm.accuracy() - 0.75).abs() < 1e-6);
        assert!((cm.recall(0).unwrap() - 2.0 / 3.0).abs() < 1e-6);
        assert_eq!(cm.recall(1), Some(1.0));
        assert!((cm.precision(1).unwrap() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn confusion_batch_recording() {
        let logits = Matrix::from_vec(2, 2, vec![0.9, 0.1, 0.1, 0.9]).unwrap();
        let mut cm = ConfusionMatrix::new(2);
        cm.record_batch(&logits, &[0, 0]);
        assert_eq!(cm.count(0, 0), 1);
        assert_eq!(cm.count(0, 1), 1);
        assert_eq!(cm.recall(1), None);
    }
}
