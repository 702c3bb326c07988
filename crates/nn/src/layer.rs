//! The [`Layer`] abstraction shared by every trainable component.

use orco_tensor::{MatView, Matrix};

/// A mutable view over one parameter tensor and its accumulated gradient.
///
/// [`crate::Optimizer`]s receive the parameters of a model as a flat
/// `Vec<Param>` in a stable order (layer by layer), so per-parameter
/// optimizer state can be indexed positionally.
#[derive(Debug)]
pub struct Param<'a> {
    /// The parameter values, updated in place by the optimizer.
    pub value: &'a mut Matrix,
    /// The gradient accumulated by the latest backward pass.
    pub grad: &'a mut Matrix,
}

/// A differentiable, trainable network layer.
///
/// ### Contract
///
/// * [`forward`](Layer::forward) consumes a batch (one flattened sample per
///   row) and caches whatever the backward pass needs. `train` distinguishes
///   training from inference, for layers that behave differently in the
///   two (none of the shipped ones does).
/// * [`infer_into`](Layer::infer_into) is `forward(x, false)` into a reused
///   buffer; it need not leave anything behind for `backward`.
/// * [`backward`](Layer::backward) receives `∂L/∂output`, **accumulates**
///   `∂L/∂params` into the layer's gradient buffers, and returns
///   `∂L/∂input`. It must be called after a `forward` with matching batch
///   size.
/// * [`zero_grad`](Layer::zero_grad) clears accumulated gradients; called by
///   the model before each training step.
/// * [`flops_forward`](Layer::flops_forward) /
///   [`flops_backward`](Layer::flops_backward) report *per-sample* floating
///   point operation estimates. The WSN simulator multiplies these by batch
///   sizes and divides by device FLOPS rates to obtain the simulated
///   training times plotted in the paper's Figures 4 and 6–8.
pub trait Layer: std::fmt::Debug + Send {
    /// Runs the layer on a batch, caching state for backward.
    fn forward(&mut self, input: &Matrix, train: bool) -> Matrix;

    /// Inference-mode forward over a borrowed batch into a caller-owned
    /// buffer, bit-identical to `forward(x, false)`.
    ///
    /// The default copies `x` and moves `forward`'s result into `out`;
    /// layers on a serving path override it to reuse `out`'s allocation
    /// and cache nothing for a backward pass that will not come.
    fn infer_into(&mut self, x: MatView<'_>, out: &mut Matrix) {
        *out = self.forward(&x.to_matrix(), false);
    }

    /// Backpropagates `grad_output`, accumulating parameter gradients, and
    /// returns the gradient with respect to the layer's input.
    fn backward(&mut self, grad_output: &Matrix) -> Matrix;

    /// Mutable views of all parameters with their gradients (may be empty).
    fn params(&mut self) -> Vec<Param<'_>>;

    /// Clears the accumulated gradients.
    fn zero_grad(&mut self);

    /// Number of input features per sample.
    fn input_dim(&self) -> usize;

    /// Number of output features per sample.
    fn output_dim(&self) -> usize;

    /// Total number of scalar parameters.
    fn param_count(&self) -> usize {
        0
    }

    /// Estimated floating-point operations per sample for `forward`.
    fn flops_forward(&self) -> u64;

    /// Estimated floating-point operations per sample for `backward`.
    fn flops_backward(&self) -> u64 {
        2 * self.flops_forward()
    }

    /// Short human-readable layer name for summaries.
    fn name(&self) -> &'static str;

    /// Clones the layer into a fresh boxed trait object, including its
    /// parameters and any RNG/cache state — the hook that makes
    /// [`crate::Sequential`] cloneable even though its layers are
    /// type-erased (used to stage a model copy for hot-swap or rollback).
    fn clone_box(&self) -> Box<dyn Layer>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Activation, Dense};
    use orco_tensor::OrcoRng;

    #[test]
    fn layer_is_object_safe() {
        let mut rng = OrcoRng::from_label("layer-obj", 0);
        let boxed: Box<dyn Layer> = Box::new(Dense::new(3, 2, Activation::Identity, &mut rng));
        assert_eq!(boxed.input_dim(), 3);
        assert_eq!(boxed.output_dim(), 2);
    }

    #[test]
    fn default_backward_flops_double_forward() {
        let mut rng = OrcoRng::from_label("layer-flops", 0);
        let d = Dense::new(4, 4, Activation::Identity, &mut rng);
        assert!(d.flops_backward() >= d.flops_forward());
    }
}
