//! Finite-difference gradient checking.
//!
//! The whole reproduction rests on hand-written backward passes; this module
//! verifies them numerically. Every layer's analytic parameter and input
//! gradients are compared against central differences of the loss. Used by
//! the test suites of `orco-nn`, `orcodcs`, and `orco-baselines`.

use orco_tensor::Matrix;

use crate::layer::Layer;
use crate::loss::Loss;

/// Result of a gradient check: worst relative error observed.
#[derive(Debug, Clone, Copy)]
pub struct GradCheckReport {
    /// Worst relative error over all checked parameter coordinates.
    pub(crate) max_param_rel_err: f32,
    /// Worst relative error over all checked input coordinates.
    pub max_input_rel_err: f32,
}

impl GradCheckReport {
    /// Whether all errors are below `tol`.
    #[must_use]
    pub fn passes(&self, tol: f32) -> bool {
        self.max_param_rel_err < tol && self.max_input_rel_err < tol
    }
}

fn rel_err(analytic: f32, numeric: f32) -> f32 {
    let denom = analytic.abs().max(numeric.abs()).max(1e-4);
    (analytic - numeric).abs() / denom
}

/// `loss.value(pred, target)` in `f64` from the `f32` predictions: the
/// difference of two probes' losses then carries no `f32` rounding of the
/// loss's own sum, which would otherwise floor every check near `1e-3`.
fn loss_f64(loss: &Loss, pred: &Matrix, target: &Matrix) -> f64 {
    let rows = pred.iter_rows().zip(target.iter_rows()).map(|(p, t)| {
        let d = p.iter().zip(t).map(|(&p, &t)| f64::from(p) - f64::from(t));
        match *loss {
            Loss::L2 => d.map(|d| 0.5 * d * d).sum(),
            Loss::Huber { delta } => {
                let delta = f64::from(delta);
                d.map(|d| {
                    let a = d.abs();
                    if a <= delta {
                        0.5 * a * a
                    } else {
                        delta * a - 0.5 * delta * delta
                    }
                })
                .sum()
            }
            Loss::VectorHuber { delta } => {
                let (delta, d): (f64, Vec<f64>) = (f64::from(delta), d.collect());
                let l1: f64 = d.iter().map(|d| d.abs()).sum();
                if l1 <= delta {
                    0.5 * d.iter().map(|d| d * d).sum::<f64>()
                } else {
                    delta * l1 - 0.5 * delta * delta
                }
            }
            Loss::SoftmaxCrossEntropy => {
                let max = p.iter().fold(f64::NEG_INFINITY, |m, &v| m.max(f64::from(v)));
                let log_sum = p.iter().map(|&v| (f64::from(v) - max).exp()).sum::<f64>().ln();
                let log_prob = |v: f32| (f64::from(v) - max - log_sum).max(1e-12f64.ln());
                p.iter()
                    .zip(t)
                    .filter(|(_, &t)| t > 0.0)
                    .map(|(&v, &t)| -f64::from(t) * log_prob(v))
                    .sum()
            }
        }
    });
    let total: f64 = rows.sum();
    match loss {
        Loss::SoftmaxCrossEntropy => total / pred.rows() as f64,
        _ => total / pred.len() as f64,
    }
}

/// The central difference of `probe`, the loss with one coordinate set to
/// a value, around `at`: over the two probe points as `f32` holds them.
fn central_difference(at: f32, eps: f32, mut probe: impl FnMut(f32) -> f64) -> f32 {
    let (up, down) = (at + eps, at - eps);
    ((probe(up) - probe(down)) / (f64::from(up) - f64::from(down))) as f32
}

/// Checks one layer's backward pass against central finite differences.
///
/// Evaluates `loss(layer(x), target)` — in `f64`, from the layer's `f32`
/// outputs — with one coordinate at a time set a step either side of its
/// value: every parameter coordinate (subsampled to at most `max_coords`
/// per tensor, deterministic stride) and a sample of input coordinates.
/// Each probed parameter is restored to the value it had, so the layer is
/// returned as it came.
///
/// # Panics
///
/// Panics if `target` width differs from the layer's output width.
pub fn check_layer(
    layer: &mut dyn Layer,
    input: &Matrix,
    target: &Matrix,
    loss: &Loss,
    max_coords: usize,
) -> GradCheckReport {
    let eps = 1e-2f32; // f32 arithmetic: large-ish eps, central differences

    // Analytic gradients.
    let out = layer.forward(input, true);
    assert_eq!(out.shape(), target.shape(), "gradcheck: target shape mismatch");
    let grad_out = loss.grad(&out, target);
    let grad_input = layer.backward(&grad_out);

    let analytic_params: Vec<Matrix> = layer.params().iter().map(|p| p.grad.clone()).collect();

    let mut max_param_rel_err = 0.0f32;

    for (pi, analytic) in analytic_params.iter().enumerate() {
        let len = analytic.len();
        let stride = (len / max_coords).max(1);
        for flat in (0..len).step_by(stride) {
            let set =
                |layer: &mut dyn Layer, v: f32| layer.params()[pi].value.as_mut_slice()[flat] = v;
            let saved = layer.params()[pi].value.as_slice()[flat];
            let numeric = central_difference(saved, eps, |v| {
                set(layer, v);
                loss_f64(loss, &layer.forward(input, false), target)
            });
            set(layer, saved);
            max_param_rel_err = max_param_rel_err.max(rel_err(analytic.as_slice()[flat], numeric));
        }
    }

    // Input gradient.
    let mut max_input_rel_err = 0.0f32;
    let len = input.len();
    let stride = (len / max_coords).max(1);
    let mut probed = input.clone();
    for flat in (0..len).step_by(stride) {
        let saved = input.as_slice()[flat];
        let numeric = central_difference(saved, eps, |v| {
            probed.as_mut_slice()[flat] = v;
            loss_f64(loss, &layer.forward(&probed, false), target)
        });
        probed.as_mut_slice()[flat] = saved;
        let analytic = grad_input.as_slice()[flat];
        max_input_rel_err = max_input_rel_err.max(rel_err(analytic, numeric));
    }

    GradCheckReport { max_param_rel_err, max_input_rel_err }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Activation, Conv2d, Dense, MaxPool2d};
    use orco_tensor::OrcoRng;

    #[test]
    fn dense_identity_gradients() {
        let mut rng = OrcoRng::from_label("gc-dense-id", 0);
        let mut layer = Dense::new(6, 4, Activation::Identity, &mut rng);
        let x = Matrix::from_fn(3, 6, |r, c| ((r * 13 + c * 7) as f32 * 0.1).sin());
        let t = Matrix::from_fn(3, 4, |r, c| ((r + c) as f32 * 0.2).cos());
        let report = check_layer(&mut layer, &x, &t, &Loss::L2, 50);
        assert!(report.passes(0.05), "{report:?}");
    }

    #[test]
    fn dense_sigmoid_gradients() {
        let mut rng = OrcoRng::from_label("gc-dense-sig", 0);
        let mut layer = Dense::new(5, 5, Activation::Sigmoid, &mut rng);
        let x = Matrix::from_fn(2, 5, |r, c| ((r * 3 + c) as f32 * 0.3).sin());
        let t = Matrix::from_fn(2, 5, |_, _| 0.5);
        let report = check_layer(&mut layer, &x, &t, &Loss::L2, 50);
        assert!(report.passes(0.05), "{report:?}");
    }

    #[test]
    fn dense_tanh_with_huber_gradients() {
        let mut rng = OrcoRng::from_label("gc-dense-tanh", 0);
        let mut layer = Dense::new(4, 3, Activation::Tanh, &mut rng);
        let x = Matrix::from_fn(2, 4, |r, c| ((r + 2 * c) as f32 * 0.25).cos());
        let t = Matrix::from_fn(2, 3, |r, c| ((r * c) as f32 * 0.1).sin());
        let report = check_layer(&mut layer, &x, &t, &Loss::Huber { delta: 0.4 }, 40);
        assert!(report.passes(0.08), "{report:?}");
    }

    #[test]
    fn conv_gradients() {
        let mut rng = OrcoRng::from_label("gc-conv", 0);
        let mut layer = Conv2d::new(1, 5, 5, 2, 3, 1, 1, Activation::Sigmoid, &mut rng);
        let x = Matrix::from_fn(2, 25, |r, c| ((r * 25 + c) as f32 * 0.07).sin());
        let t = Matrix::from_fn(2, 50, |_, _| 0.4);
        let report = check_layer(&mut layer, &x, &t, &Loss::L2, 40);
        assert!(report.passes(0.08), "{report:?}");
    }

    /// `(w + ε) − ε` is not `w` for ~3 % of `f32` weights, so a checker
    /// that undid each probe by subtracting its step would hand back a
    /// drifted layer (and probe later coordinates on it).
    #[test]
    fn check_layer_returns_the_layer_as_it_came() {
        let mut rng = OrcoRng::from_label("gc-restore", 0);
        let mut layer = Dense::new(40, 25, Activation::Sigmoid, &mut rng);
        let x = Matrix::from_fn(2, 40, |r, c| ((r * 40 + c) as f32 * 0.13).sin());
        let t = Matrix::from_fn(2, 25, |_, _| 0.5);
        let bits = |layer: &mut Dense| -> Vec<Vec<u32>> {
            layer
                .params()
                .iter()
                .map(|p| p.value.as_slice().iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        let before = bits(&mut layer);
        let _ = check_layer(&mut layer, &x, &t, &Loss::L2, 1000);
        assert_eq!(bits(&mut layer), before);
    }

    #[test]
    fn maxpool_input_gradients() {
        let mut layer = MaxPool2d::new(1, 4, 4, 2);
        // Distinct values so argmax is stable under ±eps perturbations.
        let x = Matrix::from_fn(1, 16, |_, c| c as f32 * 0.37 + ((c * 7 % 5) as f32) * 0.01);
        let t = Matrix::from_fn(1, 4, |_, _| 1.0);
        let report = check_layer(&mut layer, &x, &t, &Loss::L2, 30);
        assert!(report.max_input_rel_err < 0.05, "{report:?}");
    }
}
