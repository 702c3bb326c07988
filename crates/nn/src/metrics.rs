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
}
