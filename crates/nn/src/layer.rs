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
/// * [`forward_into`](Layer::forward_into) is the layer's one forward body:
///   it consumes a batch (one flattened sample per row) and writes the
///   result into the caller's buffer. `train` means *keep what `backward`
///   needs*: a training-mode call replaces the layer's cache, an
///   inference-mode call (`train == false`) neither reads nor writes it —
///   so inference may run between a round's forward and its backward —
///   and produces the same values.
/// * [`forward`](Layer::forward) is `forward_into` into a fresh [`Matrix`].
/// * [`backward`](Layer::backward) receives `∂L/∂output`, **accumulates**
///   `∂L/∂params` into the layer's gradient buffers, and returns
///   `∂L/∂input`, differentiating the latest *training-mode* forward (a
///   layer that keeps a cache panics if there has been none, or on a
///   different batch size). It leaves the cache as it found it, so it may
///   be called repeatedly after one training forward.
/// * [`zero_grad`](Layer::zero_grad) clears accumulated gradients; called by
///   the model before each training step.
/// * [`flops_forward`](Layer::flops_forward) /
///   [`flops_backward`](Layer::flops_backward) report *per-sample* floating
///   point operation estimates. The WSN simulator multiplies these by batch
///   sizes and divides by device FLOPS rates to obtain the simulated
///   training times plotted in the paper's Figures 4 and 6–8.
pub trait Layer: std::fmt::Debug + Send {
    /// Runs the layer on a borrowed batch into a caller-owned buffer,
    /// which is reshaped and fully overwritten (its allocation reused when
    /// large enough). State for `backward` is kept only when `train`.
    fn forward_into(&mut self, x: MatView<'_>, out: &mut Matrix, train: bool);

    /// [`forward_into`](Layer::forward_into) into a fresh matrix.
    fn forward(&mut self, input: &Matrix, train: bool) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.forward_into(input.as_view(), &mut out, train);
        out
    }

    /// Backpropagates `grad_output` through the latest training-mode
    /// forward, accumulating parameter gradients, and returns the gradient
    /// with respect to the layer's input.
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
pub(crate) mod tests {
    use super::*;
    use crate::{Activation, Dense};
    use orco_tensor::OrcoRng;

    /// The edge serves reconstructions while a round's gradient is still on
    /// the uplink: an inference forward (of another batch size) between a
    /// training forward and its backward must not change one bit of the
    /// round's input and parameter gradients.
    pub(crate) fn assert_inference_leaves_the_round_alone(
        layer: &dyn Layer,
        x: &Matrix,
        served: &Matrix,
        grad: &Matrix,
    ) {
        assert_ne!(x.rows(), served.rows(), "the interleaved batch must differ in size");
        let (mut plain, mut interleaved) = (layer.clone_box(), layer.clone_box());
        let _ = plain.forward(x, true);
        let _ = interleaved.forward(x, true);
        let _ = interleaved.forward(served, false);
        assert_eq!(interleaved.backward(grad), plain.backward(grad), "{}: ∂L/∂input", layer.name());
        for (a, b) in interleaved.params().iter().zip(plain.params()) {
            assert_eq!(a.grad, b.grad, "{}: ∂L/∂params", layer.name());
        }
    }

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
