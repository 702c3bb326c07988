//! The [`Layer`] abstraction shared by every trainable component, and the
//! [`Workspace`] its inference body works in.

use std::any::Any;

use orco_tensor::{MatView, Matrix};

/// Scratch an inference body works in, owned by its caller: what lets a
/// layer, a model or a codec run on `&self` from several threads at once,
/// each caller with its own workspace.
///
/// A workspace starts empty and holds whatever its user makes in it on
/// first use ([`Workspace::scratch`]) — a [`crate::Conv2d`]'s lowered
/// sample, a [`crate::Sequential`]'s ping-pong buffers — sized on first
/// use and dirty afterwards: every use overwrites what it reads, so the
/// values never depend on which workspace a call was given, and a
/// steady-state call allocates nothing. A clone starts empty.
#[derive(Debug, Default)]
pub struct Workspace(Option<Box<dyn Any + Send + Sync>>);

impl Clone for Workspace {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl Workspace {
    /// The scratch of type `T` this workspace holds, made by `make` on
    /// first use — or when it last served a user of another type, so a
    /// workspace handed to the wrong model costs an allocation, never a
    /// wrong value.
    pub fn scratch<T: Any + Send + Sync>(&mut self, make: impl FnOnce() -> T) -> &mut T {
        if !self.0.as_ref().is_some_and(|held| held.is::<T>()) {
            self.0 = Some(Box::new(make()));
        }
        self.0
            .as_mut()
            .and_then(|held| held.downcast_mut())
            .expect("the workspace holds a T: checked or made just above")
    }
}

/// A mutable view over one parameter tensor and its gradient.
///
/// [`crate::Optimizer`]s visit the parameters of a model in a stable order
/// (layer by layer, [`Layer::for_each_param`]), so per-parameter optimizer
/// state can be indexed positionally.
#[derive(Debug)]
pub struct Param<'a> {
    /// The parameter values, updated in place by the optimizer.
    pub value: &'a mut Matrix,
    /// `∂L/∂value` for the batch of the latest backward pass.
    pub grad: &'a mut Matrix,
}

/// A differentiable, trainable network layer.
///
/// ### Contract
///
/// * [`infer_into`](Layer::infer_into) is the layer's one forward body:
///   it consumes a batch (one flattened sample per row) and writes the
///   result into the caller's buffer, on `&self` — the weights do not
///   change under it — with its intermediates in a [`Workspace`] the
///   caller owns. Layers are `Sync`, so threads may run it side by side on
///   one layer, each in its own workspace.
/// * [`forward_into`](Layer::forward_into) runs that body in the layer's
///   own workspace. `train` means *keep what the backward pass needs*: a
///   training-mode call then replaces the layer's cache; an
///   inference-mode call (`train == false`) neither reads nor writes it —
///   so inference may run between a round's forward and its backward —
///   and produces the same values.
/// * [`forward`](Layer::forward) is `forward_into` into a fresh [`Matrix`].
/// * [`backward_into`](Layer::backward_into) is the layer's one backward
///   body: it receives `∂L/∂output`, **sets** each parameter's gradient
///   to this batch's `∂L/∂params` (nothing is accumulated across calls, so
///   nothing is zeroed between them), and writes `∂L/∂input` into the
///   caller's buffer *if there is one* — the first layer of a model has no consumer
///   for it, and `None` skips the work of producing it (a whole `δ·W`
///   product for [`crate::Dense`]) without moving one bit of `∂L/∂params`.
///   It differentiates the latest *training-mode* forward (a layer that
///   keeps a cache panics if there has been none, or on a different batch
///   size) and leaves the cache as it found it, so a repeated call after
///   one training forward gives the same bits. Intermediates live in
///   workspaces the layer owns — sized on first use, dirty afterwards — so
///   a steady-state call allocates nothing.
/// * [`backward`](Layer::backward) is `backward_into` into a fresh
///   [`Matrix`].
/// * [`for_each_param`](Layer::for_each_param) visits every parameter with
///   its gradient in a stable order; [`params`](Layer::params) collects
///   the visit into a `Vec`.
/// * [`flops_forward`](Layer::flops_forward) /
///   [`flops_backward`](Layer::flops_backward) report *per-sample* floating
///   point operation estimates. The WSN simulator multiplies these by batch
///   sizes and divides by device FLOPS rates to obtain the simulated
///   training times plotted in the paper's Figures 4 and 6–8. They price
///   the full backward pass, `∂L/∂input` included, wherever the layer sits.
pub trait Layer: std::fmt::Debug + Send + Sync {
    /// Runs the layer on a borrowed batch into a caller-owned buffer,
    /// which is reshaped and fully overwritten (its allocation reused when
    /// large enough), with its scratch in `ws`. Keeps nothing.
    fn infer_into(&self, x: MatView<'_>, out: &mut Matrix, ws: &mut Workspace);

    /// [`infer_into`](Layer::infer_into) in the layer's own workspace.
    /// State for the backward pass is kept only when `train`.
    fn forward_into(&mut self, x: MatView<'_>, out: &mut Matrix, train: bool);

    /// [`forward_into`](Layer::forward_into) into a fresh matrix.
    fn forward(&mut self, input: &Matrix, train: bool) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.forward_into(input.as_view(), &mut out, train);
        out
    }

    /// Backpropagates `grad_out` through the latest training-mode forward,
    /// setting the parameter gradients. The gradient with respect to the
    /// layer's input is written into `grad_in` when one is given (reshaped
    /// and fully overwritten, its allocation reused when large enough) and
    /// not computed otherwise.
    fn backward_into(&mut self, grad_out: MatView<'_>, grad_in: Option<&mut Matrix>);

    /// [`backward_into`](Layer::backward_into) into a fresh matrix.
    fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let mut grad_in = Matrix::zeros(0, 0);
        self.backward_into(grad_output.as_view(), Some(&mut grad_in));
        grad_in
    }

    /// Calls `f` on every parameter with its gradient, in a stable order
    /// (a layer without parameters never calls it).
    fn for_each_param<'a>(&'a mut self, f: &mut dyn FnMut(Param<'a>));

    /// [`for_each_param`](Layer::for_each_param) collected into a `Vec`.
    fn params(&mut self) -> Vec<Param<'_>> {
        let mut params = Vec::new();
        self.for_each_param(&mut |p| params.push(p));
        params
    }

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

/// Shapes a workspace (or an output or gradient buffer about to be
/// overwritten whole) without zeroing it: a no-op once it has the shape,
/// which is every call after the first at a steady batch size.
pub(crate) fn size_workspace(workspace: &mut Matrix, rows: usize, cols: usize) {
    if workspace.shape() != (rows, cols) {
        workspace.reset(rows, cols);
    }
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

    /// The overwrite contract that lets a forward resize its `out`
    /// without zeroing it: `infer_into` and `forward_into` in both modes,
    /// into an `out` full of NaN — at the output's shape, which is kept,
    /// and at a larger one — leave the shape and bits a fresh `out` gets.
    pub(crate) fn assert_every_output_is_written(layer: &dyn Layer, x: &Matrix) {
        let name = layer.name();
        let fresh = layer.clone_box().forward(x, false);
        let want = (fresh.shape(), bits_of(&fresh));
        let (rows, cols) = fresh.shape();
        for (r, c) in [(rows, cols), (rows + 2, cols + 3)] {
            let dirty = || Matrix::from_fn(r, c, |_, _| f32::NAN);
            let mut out = dirty();
            layer.infer_into(x.as_view(), &mut out, &mut Workspace::default());
            assert_eq!((out.shape(), bits_of(&out)), want, "{name}: infer_into over {r}x{c}");
            for train in [false, true] {
                let mut out = dirty();
                layer.clone_box().forward_into(x.as_view(), &mut out, train);
                let got = (out.shape(), bits_of(&out));
                assert_eq!(got, want, "{name}: forward_into, train {train}, over {r}x{c}");
            }
        }
    }

    pub(crate) fn bits_of(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    fn param_grad_bits(layer: &mut dyn Layer) -> Vec<Vec<u32>> {
        layer.params().iter().map(|p| bits_of(p.grad)).collect()
    }

    /// The one backward body, held to its contract on a layer fresh from
    /// construction: without a `grad_in` it sets the parameter gradients
    /// exactly as with one; into a dirty, wrongly-shaped `grad_in` (and
    /// workspaces and gradients a smaller batch has left) it writes what
    /// `backward` returns; and either way a second call after the same
    /// training forward sets every parameter gradient to the bits the first
    /// did — it adds nothing to them.
    pub(crate) fn assert_backward_into_contract(layer: &dyn Layer, x: &Matrix, grad: &Matrix) {
        let name = layer.name();
        let (mut whole, mut skipped, mut dirty) =
            (layer.clone_box(), layer.clone_box(), layer.clone_box());
        let _ = dirty.forward(&x.slice_rows(0..1), true);
        let mut grad_in = Matrix::from_fn(2, 3, |_, _| f32::NAN);
        dirty.backward_into(grad.view_rows(0..1), Some(&mut grad_in));
        for l in [&mut whole, &mut skipped, &mut dirty] {
            let _ = l.forward(x, true);
        }
        let want = whole.backward(grad);
        skipped.backward_into(grad.as_view(), None);
        dirty.backward_into(grad.as_view(), Some(&mut grad_in));
        assert_eq!((grad_in.shape(), bits_of(&grad_in)), (want.shape(), bits_of(&want)), "{name}");
        let want = param_grad_bits(whole.as_mut());
        assert_eq!(param_grad_bits(skipped.as_mut()), want, "{name}: ∂L/∂params without grad_in");
        assert_eq!(param_grad_bits(dirty.as_mut()), want, "{name}: ∂L/∂params, dirty buffers");

        for (l, with_grad_in) in [(&mut skipped, false), (&mut dirty, true)] {
            l.backward_into(grad.as_view(), with_grad_in.then_some(&mut grad_in));
            assert_eq!(param_grad_bits(l.as_mut()), want, "{name}: again, grad_in {with_grad_in}");
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
