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

/// Checks one layer's backward pass against central finite differences.
///
/// Evaluates `loss(layer(x), target)` while perturbing every parameter
/// coordinate (subsampled to at most `max_coords` per tensor, deterministic
/// stride) and a sample of input coordinates.
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
    layer.zero_grad();
    let out = layer.forward(input, true);
    assert_eq!(out.shape(), target.shape(), "gradcheck: target shape mismatch");
    let grad_out = loss.grad(&out, target);
    let grad_input = layer.backward(&grad_out);

    let analytic_params: Vec<Matrix> = layer.params().iter().map(|p| p.grad.clone()).collect();

    let mut max_param_rel_err = 0.0f32;

    let n_params = analytic_params.len();
    for pi in 0..n_params {
        let len = analytic_params[pi].len();
        let stride = (len / max_coords).max(1);
        for flat in (0..len).step_by(stride) {
            let numeric = {
                let perturb = |layer: &mut dyn Layer, delta: f32| -> f32 {
                    {
                        let mut params = layer.params();
                        params[pi].value.as_mut_slice()[flat] += delta;
                    }
                    let out = layer.forward(input, false);
                    let v = loss.value(&out, target);
                    {
                        let mut params = layer.params();
                        params[pi].value.as_mut_slice()[flat] -= delta;
                    }
                    v
                };
                let plus = perturb(layer, eps);
                let minus = perturb(layer, -eps);
                (plus - minus) / (2.0 * eps)
            };
            let analytic = analytic_params[pi].as_slice()[flat];
            max_param_rel_err = max_param_rel_err.max(rel_err(analytic, numeric));
        }
    }

    // Input gradient.
    let mut max_input_rel_err = 0.0f32;
    let len = input.len();
    let stride = (len / max_coords).max(1);
    for flat in (0..len).step_by(stride) {
        let mut plus = input.clone();
        plus.as_mut_slice()[flat] += eps;
        let mut minus = input.clone();
        minus.as_mut_slice()[flat] -= eps;
        let vp = loss.value(&layer.forward(&plus, false), target);
        let vm = loss.value(&layer.forward(&minus, false), target);
        let numeric = (vp - vm) / (2.0 * eps);
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
