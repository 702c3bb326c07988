use orco_tensor::Matrix;

/// A training loss over a batch of predictions and targets.
///
/// The paper's reconstruction error (eq. 4) is a **per-sample vector Huber
/// loss**: it switches between ½‖X − Xr‖₂² and δ‖X − Xr‖₁ − ½δ² depending on
/// whether the *whole residual vector's* L1 norm is within δ — this is
/// [`Loss::VectorHuber`]. The conventional element-wise Huber
/// ([`Loss::Huber`]) is the configuration's default, L2 trains DCSNet, and
/// softmax cross-entropy trains the follow-up classifier.
///
/// All losses report the **mean over samples** so values are comparable
/// across batch sizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Loss {
    /// Mean squared error, scaled by ½ per element so the gradient is the
    /// plain residual.
    L2,
    /// Element-wise Huber with threshold δ.
    Huber {
        /// Transition point between the quadratic and linear regimes.
        delta: f32,
    },
    /// The paper's per-sample vector-norm Huber (eq. 4) with threshold δ.
    VectorHuber {
        /// Transition point on the per-sample L1 residual norm.
        delta: f32,
    },
    /// Softmax cross-entropy; targets are one-hot rows.
    SoftmaxCrossEntropy,
}

impl Loss {
    /// Mean loss over the batch.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ or the batch is empty.
    #[must_use]
    pub fn value(&self, pred: &Matrix, target: &Matrix) -> f32 {
        assert_eq!(pred.shape(), target.shape(), "Loss::value: shape mismatch");
        assert!(pred.rows() > 0, "Loss::value: empty batch");
        let n = pred.rows() as f32;
        match *self {
            Loss::L2 => {
                let diff = pred - target;
                0.5 * diff.as_slice().iter().map(|v| v * v).sum::<f32>() / (n * pred.cols() as f32)
            }
            Loss::Huber { delta } => {
                assert!(delta > 0.0, "Huber: delta must be positive");
                let mut total = 0.0f32;
                for (p, t) in pred.as_slice().iter().zip(target.as_slice()) {
                    let d = (p - t).abs();
                    total += if d <= delta { 0.5 * d * d } else { delta * d - 0.5 * delta * delta };
                }
                total / (n * pred.cols() as f32)
            }
            Loss::VectorHuber { delta } => {
                assert!(delta > 0.0, "VectorHuber: delta must be positive");
                let mut total = 0.0f32;
                for (p, t) in pred.iter_rows().zip(target.iter_rows()) {
                    let l1: f32 = p.iter().zip(t).map(|(a, b)| (a - b).abs()).sum();
                    if l1 <= delta {
                        let l2sq: f32 = p.iter().zip(t).map(|(a, b)| (a - b).powi(2)).sum();
                        total += 0.5 * l2sq;
                    } else {
                        total += delta * l1 - 0.5 * delta * delta;
                    }
                }
                // Normalize by feature count too, keeping magnitudes
                // comparable with the other reconstruction losses.
                total / (n * pred.cols() as f32)
            }
            Loss::SoftmaxCrossEntropy => {
                let probs = softmax_rows(pred);
                let mut total = 0.0f32;
                for (p, t) in probs.iter_rows().zip(target.iter_rows()) {
                    for (pi, ti) in p.iter().zip(t) {
                        if *ti > 0.0 {
                            total -= ti * pi.max(1e-12).ln();
                        }
                    }
                }
                total / n
            }
        }
    }

    /// Gradient of the mean loss with respect to `pred`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ or the batch is empty.
    #[must_use]
    pub fn grad(&self, pred: &Matrix, target: &Matrix) -> Matrix {
        assert_eq!(pred.shape(), target.shape(), "Loss::grad: shape mismatch");
        assert!(pred.rows() > 0, "Loss::grad: empty batch");
        let scale = 1.0 / (pred.rows() as f32 * pred.cols() as f32);
        match *self {
            Loss::L2 => pred.zip_map(target, |p, t| p - t).scale(scale),
            Loss::Huber { delta } => {
                assert!(delta > 0.0, "Huber: delta must be positive");
                pred.zip_map(target, |p, t| {
                    let d = p - t;
                    if d.abs() <= delta {
                        d
                    } else {
                        delta * sign(d)
                    }
                })
                .scale(scale)
            }
            Loss::VectorHuber { delta } => {
                assert!(delta > 0.0, "VectorHuber: delta must be positive");
                let mut out = Matrix::zeros(pred.rows(), pred.cols());
                for r in 0..pred.rows() {
                    let p = pred.row(r);
                    let t = target.row(r);
                    let l1: f32 = p.iter().zip(t).map(|(a, b)| (a - b).abs()).sum();
                    let row = out.row_mut(r);
                    if l1 <= delta {
                        for (o, (a, b)) in row.iter_mut().zip(p.iter().zip(t)) {
                            *o = a - b;
                        }
                    } else {
                        for (o, (a, b)) in row.iter_mut().zip(p.iter().zip(t)) {
                            *o = delta * sign(a - b);
                        }
                    }
                }
                out.scale(scale)
            }
            Loss::SoftmaxCrossEntropy => {
                // d/dz of mean CE with softmax: (softmax(z) - target) / n
                let probs = softmax_rows(pred);
                (&probs - target).scale(1.0 / pred.rows() as f32)
            }
        }
    }

    /// Approximate FLOPs per sample to evaluate this loss on `features`
    /// features (feeds the simulated-compute model).
    #[must_use]
    pub fn flops(&self, features: usize) -> u64 {
        let f = features as u64;
        match self {
            Loss::L2 => 3 * f,
            Loss::Huber { .. } | Loss::VectorHuber { .. } => 5 * f,
            Loss::SoftmaxCrossEntropy => 8 * f,
        }
    }
}

fn sign(x: f32) -> f32 {
    if x > 0.0 {
        1.0
    } else if x < 0.0 {
        -1.0
    } else {
        0.0
    }
}

/// Row-wise numerically-stable softmax.
#[must_use]
pub(crate) fn softmax_rows(logits: &Matrix) -> Matrix {
    let mut out = logits.clone();
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        let max = row.iter().fold(f32::NEG_INFINITY, |m, &v| if v > m { v } else { m });
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fd_grad(loss: &Loss, pred: &Matrix, target: &Matrix) -> Matrix {
        let eps = 1e-3f32;
        let mut g = Matrix::zeros(pred.rows(), pred.cols());
        for r in 0..pred.rows() {
            for c in 0..pred.cols() {
                let mut plus = pred.clone();
                plus[(r, c)] += eps;
                let mut minus = pred.clone();
                minus[(r, c)] -= eps;
                g[(r, c)] = (loss.value(&plus, target) - loss.value(&minus, target)) / (2.0 * eps);
            }
        }
        g
    }

    #[test]
    fn l2_zero_at_perfect_prediction() {
        let m = Matrix::from_fn(2, 3, |r, c| (r + c) as f32);
        assert_eq!(Loss::L2.value(&m, &m), 0.0);
        assert_eq!(Loss::Huber { delta: 1.0 }.value(&m, &m), 0.0);
        assert_eq!(Loss::VectorHuber { delta: 1.0 }.value(&m, &m), 0.0);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let pred = Matrix::from_vec(2, 3, vec![0.3, -0.8, 1.2, 0.05, 0.4, -0.15]).unwrap();
        let target = Matrix::from_vec(2, 3, vec![0.1, 0.1, 1.0, 0.0, 0.5, 0.0]).unwrap();
        for loss in [Loss::L2, Loss::Huber { delta: 0.5 }, Loss::VectorHuber { delta: 0.7 }] {
            let analytic = loss.grad(&pred, &target);
            let numeric = fd_grad(&loss, &pred, &target);
            assert!(
                analytic.max_abs_diff(&numeric) <= 2e-2,
                "{loss:?}: analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn softmax_ce_gradient_matches_fd() {
        let pred = Matrix::from_vec(2, 4, vec![1.0, 2.0, -1.0, 0.5, 0.0, 0.1, 0.2, 0.3]).unwrap();
        let mut target = Matrix::zeros(2, 4);
        target[(0, 1)] = 1.0;
        target[(1, 3)] = 1.0;
        let loss = Loss::SoftmaxCrossEntropy;
        let analytic = loss.grad(&pred, &target);
        let numeric = fd_grad(&loss, &pred, &target);
        assert!(analytic.max_abs_diff(&numeric) <= 2e-2);
    }

    #[test]
    fn huber_between_l1_and_l2_regimes() {
        // Small residual → behaves quadratically; large → linearly.
        let target = Matrix::zeros(1, 1);
        let small = Matrix::from_vec(1, 1, vec![0.1]).unwrap();
        let large = Matrix::from_vec(1, 1, vec![10.0]).unwrap();
        let h = Loss::Huber { delta: 1.0 };
        assert!((h.value(&small, &target) - 0.005).abs() < 1e-6);
        assert!((h.value(&large, &target) - 9.5).abs() < 1e-4);
    }

    #[test]
    fn huber_is_continuous_at_delta() {
        let target = Matrix::zeros(1, 1);
        let delta = 0.37f32;
        let at = Matrix::from_vec(1, 1, vec![delta]).unwrap();
        let just_above = Matrix::from_vec(1, 1, vec![delta + 1e-5]).unwrap();
        let h = Loss::Huber { delta };
        assert!((h.value(&at, &target) - h.value(&just_above, &target)).abs() < 1e-4);
        let vh = Loss::VectorHuber { delta };
        assert!((vh.value(&at, &target) - vh.value(&just_above, &target)).abs() < 1e-4);
    }

    #[test]
    fn vector_huber_switches_on_row_norm() {
        // Each element is below delta but the row L1 norm is above it →
        // linear regime must engage (unlike element-wise Huber).
        let target = Matrix::zeros(1, 4);
        let pred = Matrix::from_vec(1, 4, vec![0.4, 0.4, 0.4, 0.4]).unwrap();
        let delta = 1.0f32;
        let vh = Loss::VectorHuber { delta }.value(&pred, &target);
        // linear branch: delta*1.6 - 0.5 = 1.1, /4 features = 0.275
        assert!((vh - 0.275).abs() < 1e-5, "got {vh}");
        let h = Loss::Huber { delta }.value(&pred, &target);
        // element-wise: each 0.5*0.16 = 0.08, mean = 0.08
        assert!((h - 0.08).abs() < 1e-5, "got {h}");
    }

    #[test]
    fn softmax_rows_is_a_distribution() {
        let logits = Matrix::from_vec(2, 3, vec![5.0, 1.0, -2.0, 100.0, 100.0, 100.0]).unwrap();
        let p = softmax_rows(&logits);
        for r in 0..2 {
            let s: f32 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
            assert!(p.row(r).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
        // Stability: equal large logits → uniform.
        assert!((p[(1, 0)] - 1.0 / 3.0).abs() < 1e-5);
    }

    #[test]
    fn ce_lower_for_correct_prediction() {
        let mut target = Matrix::zeros(1, 3);
        target[(0, 0)] = 1.0;
        let good = Matrix::from_vec(1, 3, vec![5.0, 0.0, 0.0]).unwrap();
        let bad = Matrix::from_vec(1, 3, vec![0.0, 5.0, 0.0]).unwrap();
        let ce = Loss::SoftmaxCrossEntropy;
        assert!(ce.value(&good, &target) < ce.value(&bad, &target));
    }
}
