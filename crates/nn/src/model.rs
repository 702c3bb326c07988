use orco_tensor::{MatView, Matrix};

use crate::layer::{size_workspace, Layer, Param, Workspace};
use crate::loss::Loss;
use crate::optimizer::Optimizer;

/// An ordered stack of [`Layer`]s trained end-to-end.
///
/// `Sequential` is the model container used by every network in the
/// reproduction: the OrcoDCS encoder and decoder are each a `Sequential`
/// living on a different simulated machine, DCSNet is one `Sequential`, and
/// the follow-up classifier is another.
///
/// # Examples
///
/// ```
/// use orco_nn::{Activation, Dense, Sequential};
/// use orco_tensor::{Matrix, OrcoRng};
///
/// let mut rng = OrcoRng::from_label("seq-doc", 0);
/// let mut ae = Sequential::new();
/// ae.push(Dense::new(784, 128, Activation::Sigmoid, &mut rng));
/// ae.push(Dense::new(128, 784, Activation::Sigmoid, &mut rng));
/// assert_eq!(ae.input_dim(), Some(784));
/// assert_eq!(ae.output_dim(), Some(784));
/// let out = ae.forward(&Matrix::zeros(2, 784), false);
/// assert_eq!(out.shape(), (2, 784));
/// ```
#[derive(Debug)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    // What the layers between the first and the last hand each other —
    // activations on the way forward, gradients on the way back, which
    // have the same shapes: two ping-pong buffers, empty until first used,
    // then dirty (every use overwrites, nothing is read back across calls).
    between: [Matrix; 2],
}

impl Clone for Sequential {
    fn clone(&self) -> Self {
        Self { layers: self.layers.iter().map(|l| l.clone_box()).collect(), ..Self::new() }
    }
}

impl Default for Sequential {
    fn default() -> Self {
        Self::new()
    }
}

impl Sequential {
    /// Creates an empty model.
    #[must_use]
    pub fn new() -> Self {
        Self { layers: Vec::new(), between: [Matrix::zeros(0, 0), Matrix::zeros(0, 0)] }
    }

    /// Appends a layer.
    ///
    /// # Panics
    ///
    /// Panics if the layer's input width does not match the previous
    /// layer's output width.
    pub fn push(&mut self, layer: impl Layer + 'static) {
        if let Some(last) = self.layers.last() {
            assert_eq!(
                last.output_dim(),
                layer.input_dim(),
                "Sequential: layer `{}` expects {} inputs but previous layer `{}` outputs {}",
                layer.name(),
                layer.input_dim(),
                last.name(),
                last.output_dim()
            );
        }
        self.layers.push(Box::new(layer));
    }

    /// Number of layers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the model has no layers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Input width of the first layer, if any.
    #[must_use]
    pub fn input_dim(&self) -> Option<usize> {
        self.layers.first().map(|l| l.input_dim())
    }

    /// Output width of the last layer, if any.
    #[must_use]
    pub fn output_dim(&self) -> Option<usize> {
        self.layers.last().map(|l| l.output_dim())
    }

    /// Total scalar parameter count.
    #[must_use]
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Per-sample forward FLOPs, summed over layers.
    #[must_use]
    pub fn flops_forward(&self) -> u64 {
        self.layers.iter().map(|l| l.flops_forward()).sum()
    }

    /// Per-sample backward FLOPs, summed over layers.
    #[must_use]
    pub fn flops_backward(&self) -> u64 {
        self.layers.iter().map(|l| l.flops_backward()).sum()
    }

    /// Rows of one block of a non-training walk
    /// ([`infer_into`](Sequential::infer_into), and
    /// [`forward_into`](Sequential::forward_into) without `train`): as many
    /// as keep the stack's widest activation within 512 KiB
    /// (`BLOCK_BYTES`), at least one.
    #[must_use]
    pub fn block_rows(&self) -> usize {
        let widest = self.layers.iter().map(|l| l.output_dim()).max().unwrap_or(1);
        (BLOCK_BYTES / (widest * size_of::<f32>()).max(1)).max(1)
    }

    /// Runs a borrowed batch through every layer's inference body
    /// ([`Layer::infer_into`]) on `&self` into the caller's `out` (reshaped
    /// and fully overwritten), the layers handing each other activations
    /// through two buffers in `ws`, which also holds each layer's
    /// workspace. For the layers whose body allocates nothing, as
    /// [`crate::Dense`]'s and [`crate::Conv2d`]'s, nothing is allocated
    /// once `ws` and `out` have grown to size.
    ///
    /// The walk is depth-first: a batch taller than
    /// [`block_rows`](Sequential::block_rows) goes through the whole stack
    /// one block of rows at a time, so what one layer writes is still
    /// cached when the next reads it, and each block's last activation is
    /// copied into its rows of `out`. A batch of at most one block, and
    /// any batch through a one-layer stack, is walked whole, the last
    /// layer writing `out` itself. Every layer's output row depends only
    /// on its input row, so the bits are the same either way.
    ///
    /// # Panics
    ///
    /// Panics if the model is empty.
    pub fn infer_into(&self, x: MatView<'_>, out: &mut Matrix, ws: &mut Workspace) {
        let scratch = ws.scratch(|| ModelScratch {
            between: [Matrix::zeros(0, 0), Matrix::zeros(0, 0)],
            layers: Vec::new(),
        });
        scratch.layers.resize_with(self.layers.len(), Workspace::default);
        let ModelScratch { between, layers } = scratch;
        ping_pong(self.layers.len(), self.block_rows(), between, x, out, |i, src, dst| {
            self.layers[i].infer_into(src, dst, &mut layers[i]);
        });
    }

    /// [`infer_into`](Sequential::infer_into) through every layer's
    /// [`Layer::forward_into`] — each in its own workspace, the model's
    /// two buffers between them — handing each layer `train`: pass `true`
    /// when a [`Sequential::backward_into`] will follow. The values are the
    /// same either way; `false` touches no layer's cache.
    ///
    /// Without `train` the walk is blocked as `infer_into`'s. Under
    /// `train` it is whole-batch: each layer keeps the batch's input and
    /// output for the backward pass, and a block would leave only its own.
    ///
    /// # Panics
    ///
    /// Panics if the model is empty.
    pub fn forward_into(&mut self, x: MatView<'_>, out: &mut Matrix, train: bool) {
        let block = if train { usize::MAX } else { self.block_rows() };
        let layers = &mut self.layers;
        ping_pong(layers.len(), block, &mut self.between, x, out, |i, src, dst| {
            layers[i].forward_into(src, dst, train);
        });
    }

    /// [`forward_into`](Sequential::forward_into) into a fresh matrix.
    ///
    /// # Panics
    ///
    /// Panics if the model is empty.
    pub fn forward(&mut self, input: &Matrix, train: bool) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.forward_into(input.as_view(), &mut out, train);
        out
    }

    /// Backpropagates a gradient through every layer (reverse order),
    /// setting each parameter gradient, the layers handing each other
    /// `∂L/∂input` through the model's two ping-pong buffers. The first
    /// layer's goes into `grad_in` when the caller has a use for it and is
    /// not computed otherwise ([`Layer::backward_into`]).
    ///
    /// # Panics
    ///
    /// Panics if the model is empty.
    pub fn backward_into(&mut self, grad_out: MatView<'_>, grad_in: Option<&mut Matrix>) {
        let (first, rest) =
            self.layers.split_first_mut().expect("Sequential::backward_into on empty model");
        let Some((last, middle)) = rest.split_last_mut() else {
            return first.backward_into(grad_out, grad_in);
        };
        let [mut src, mut dst] = self.between.each_mut();
        last.backward_into(grad_out, Some(&mut *dst));
        for layer in middle.iter_mut().rev() {
            std::mem::swap(&mut src, &mut dst);
            layer.backward_into(src.as_view(), Some(&mut *dst));
        }
        first.backward_into(dst.as_view(), grad_in);
    }

    /// Visits every layer's parameters in a stable order
    /// ([`Layer::for_each_param`]).
    pub fn for_each_param<'a>(&'a mut self, f: &mut dyn FnMut(Param<'a>)) {
        for layer in &mut self.layers {
            layer.for_each_param(f);
        }
    }

    /// One optimization step on a batch; returns the batch loss before the
    /// update.
    pub fn train_batch(
        &mut self,
        input: &Matrix,
        target: &Matrix,
        loss: &Loss,
        optimizer: &mut Optimizer,
    ) -> f32 {
        let pred = self.forward(input, true);
        let value = loss.value(&pred, target);
        let grad = loss.grad(&pred, target);
        self.backward_into(grad.as_view(), None);
        optimizer.step(|f| self.for_each_param(f));
        value
    }
}

/// A model's inference scratch: the two buffers its layers hand each other
/// activations through, and each layer's workspace.
struct ModelScratch {
    between: [Matrix; 2],
    layers: Vec<Workspace>,
}

/// Bytes of the widest activation in one block of a non-training walk
/// ([`Sequential::block_rows`]): 512 KiB, so a block's input and output
/// of a layer stay in a 2 MiB L2 together with the layer's own workspace,
/// as the GEMM's `GEMM_SLAB_MIN_OUT_BYTES` keeps a slab. DCSNet's 16-channel
/// 32×32 maps are 64 KiB a row, so its decoder walks 8 rows at a time.
const BLOCK_BYTES: usize = 512 << 10;

/// Runs `x` through `steps` steps, step `i` reading what step `i - 1`
/// wrote, `block` rows of `x` at a time: the first step reads the block,
/// the ones after it ping-pong between the two buffers of `between`, and
/// the last one's rows land in `out`. A lone step writes `out` itself, and so
/// does the last step of a batch of at most `block` rows; otherwise each
/// block's last step writes the free buffer, which is copied into the
/// block's rows of `out`.
///
/// # Panics
///
/// Panics if there are no steps.
fn ping_pong(
    steps: usize,
    block: usize,
    between: &mut [Matrix; 2],
    x: MatView<'_>,
    out: &mut Matrix,
    mut step: impl FnMut(usize, MatView<'_>, &mut Matrix),
) {
    let last = steps.checked_sub(1).expect("Sequential::forward_into on empty model");
    if last == 0 {
        return step(0, x, out);
    }
    let [mut src, mut dst] = between.each_mut();
    let rows = x.rows();
    for start in (0..rows.max(1)).step_by(block) {
        step(0, x.rows_range(start..rows.min(start.saturating_add(block))), dst);
        for i in 1..last {
            std::mem::swap(&mut src, &mut dst);
            step(i, src.as_view(), dst);
        }
        if rows <= block {
            return step(last, dst.as_view(), out);
        }
        std::mem::swap(&mut src, &mut dst);
        step(last, src.as_view(), dst);
        if start == 0 {
            size_workspace(out, rows, dst.cols());
        }
        out.as_mut_slice()[start * dst.cols()..][..dst.len()].copy_from_slice(dst.as_slice());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::tests::bits_of;
    use crate::{Activation, Conv2d, Dense, MaxPool2d};
    use orco_tensor::OrcoRng;

    fn xor_data() -> (Matrix, Matrix) {
        (
            Matrix::from_vec(4, 2, vec![0., 0., 0., 1., 1., 0., 1., 1.]).unwrap(),
            Matrix::from_vec(4, 1, vec![0., 1., 1., 0.]).unwrap(),
        )
    }

    #[test]
    fn learns_xor() {
        let mut rng = OrcoRng::from_label("xor", 3);
        let mut model = Sequential::new();
        model.push(Dense::new(2, 8, Activation::Tanh, &mut rng));
        model.push(Dense::new(8, 1, Activation::Sigmoid, &mut rng));
        let (x, y) = xor_data();
        let mut opt = Optimizer::adam(0.05);
        for _ in 0..500 {
            model.train_batch(&x, &y, &Loss::L2, &mut opt);
        }
        let pred = model.forward(&x, false);
        for (p, t) in pred.as_slice().iter().zip(y.as_slice()) {
            assert!((p - t).abs() < 0.2, "xor not learned: pred {p} target {t}");
        }
    }

    #[test]
    #[should_panic(expected = "expects")]
    fn rejects_incompatible_layers() {
        let mut rng = OrcoRng::from_label("bad-stack", 0);
        let mut model = Sequential::new();
        model.push(Dense::new(4, 8, Activation::Relu, &mut rng));
        model.push(Dense::new(9, 2, Activation::Relu, &mut rng));
    }

    #[test]
    fn train_reduces_loss() {
        let mut rng = OrcoRng::from_label("reduce", 0);
        let mut model = Sequential::new();
        model.push(Dense::new(8, 4, Activation::Sigmoid, &mut rng));
        model.push(Dense::new(4, 8, Activation::Sigmoid, &mut rng));
        let x = Matrix::from_fn(16, 8, |r, c| if (r + c) % 3 == 0 { 0.9 } else { 0.1 });
        let mut opt = Optimizer::adam(0.01);
        let before = Loss::L2.value(&model.forward(&x, false), &x);
        for _ in 0..100 {
            model.train_batch(&x, &x, &Loss::L2, &mut opt);
        }
        let after = Loss::L2.value(&model.forward(&x, false), &x);
        assert!(after < before * 0.8, "loss {before} -> {after}");
    }

    #[test]
    fn flops_sum_over_layers() {
        let mut rng = OrcoRng::from_label("flops", 0);
        let a = Dense::new(10, 5, Activation::Identity, &mut rng);
        let fa = a.flops_forward();
        let b = Dense::new(5, 2, Activation::Identity, &mut rng);
        let fb = b.flops_forward();
        let mut model = Sequential::new();
        model.push(a);
        model.push(b);
        assert_eq!(model.flops_forward(), fa + fb);
    }

    #[test]
    fn inference_matches_the_training_forward_at_every_depth() {
        let mut rng = OrcoRng::from_label("seq-infer", 0);
        let x = Matrix::from_fn(9, 6, |r, c| ((r * 13 + c) as f32 * 0.21).sin());
        let widths = [6usize, 11, 3, 8, 5];
        // A caller's workspace, left by the model one layer shallower.
        let mut ws = Workspace::default();
        for depth in 1..widths.len() {
            // Every layer kind of this crate sits in the stack (a 3-tap
            // padded convolution over the 1x11 map, then 1x1 pooling
            // windows), so each one's inference-mode body is held to the
            // values of its training-mode forward.
            let mut model = Sequential::new();
            model.push(Dense::new(widths[0], widths[1], Activation::Tanh, &mut rng));
            model.push(Conv2d::new(1, 1, widths[1], 1, 3, 1, 1, Activation::Sigmoid, &mut rng));
            model.push(MaxPool2d::new(widths[1], 1, 1, 1));
            for w in widths[1..].windows(2).take(depth - 1) {
                model.push(Dense::new(w[0], w[1], Activation::Tanh, &mut rng));
            }
            let reference = model.forward(&x, true);
            // A dirty, wrongly-shaped reused buffer.
            let mut out = Matrix::from_fn(1, 1, |_, _| f32::NAN);
            for _ in 0..2 {
                model.forward_into(x.as_view(), &mut out, false);
                assert_eq!(out, reference, "depth {depth}");
                out.reset(1, 1);
                model.infer_into(x.as_view(), &mut out, &mut ws);
                assert_eq!(out, reference, "depth {depth}, the caller's workspace");
            }
        }
    }

    #[test]
    fn inference_between_forward_and_backward_leaves_the_round_alone() {
        let mut rng = OrcoRng::from_label("seq-interleave", 0);
        let mut plain = Sequential::new();
        plain.push(Dense::new(6, 16, Activation::Tanh, &mut rng));
        plain.push(Conv2d::new(1, 4, 4, 2, 3, 1, 1, Activation::Relu, &mut rng));
        plain.push(MaxPool2d::new(2, 4, 4, 2));
        plain.push(Dense::new(8, 3, Activation::Sigmoid, &mut rng));
        let mut interleaved = plain.clone();
        let x = Matrix::from_fn(8, 6, |r, c| ((r * 6 + c) as f32 * 0.19).sin());
        let served = Matrix::from_fn(3, 6, |r, c| ((r + 4 * c) as f32 * 0.23).cos());
        let grad = Matrix::from_fn(8, 3, |r, c| ((r * 3 + c) as f32 * 0.07).cos());
        let _ = plain.forward(&x, true);
        let _ = interleaved.forward(&x, true);
        // Both inference entry points, on a batch of another size.
        let mut out = Matrix::zeros(0, 0);
        interleaved.forward_into(served.as_view(), &mut out, false);
        assert_eq!(interleaved.forward(&served, false), out);
        let (mut got, mut want) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        interleaved.backward_into(grad.as_view(), Some(&mut got));
        plain.backward_into(grad.as_view(), Some(&mut want));
        assert_eq!(got, want);
        assert_eq!(param_grad_bits(&mut interleaved), param_grad_bits(&mut plain));
    }

    /// A conv / max-pool / dense stack whose 16-channel 32×32 map is the
    /// widest activation, so a block is a few rows: at a batch of 1, B − 1,
    /// B, B + 1 and 2B + 3 rows both non-training walks write the bits of
    /// the whole-batch training walk, into one dirty `out` and workspace
    /// reused across the sizes.
    #[test]
    fn the_blocked_walk_matches_the_whole_batch_walk() {
        let mut rng = OrcoRng::from_label("seq-blocked", 0);
        let mut model = Sequential::new();
        model.push(Dense::new(6, 1024, Activation::Tanh, &mut rng));
        model.push(Conv2d::new(1, 32, 32, 16, 3, 1, 1, Activation::Relu, &mut rng));
        model.push(MaxPool2d::new(16, 32, 32, 2));
        model.push(Conv2d::new(16, 16, 16, 1, 3, 1, 1, Activation::Sigmoid, &mut rng));
        model.push(Dense::new(256, 5, Activation::Sigmoid, &mut rng));
        let block = model.block_rows();
        assert_eq!(block, BLOCK_BYTES / (16 * 32 * 32 * size_of::<f32>()));
        assert!(block > 1);
        let (mut ws, mut out) = (Workspace::default(), Matrix::from_fn(3, 3, |_, _| f32::NAN));
        for rows in [1, block - 1, block, block + 1, 2 * block + 3] {
            let x = Matrix::from_fn(rows, 6, |r, c| ((r * 6 + c) as f32 * 0.37).sin());
            let want = model.forward(&x, true);
            model.forward_into(x.as_view(), &mut out, false);
            assert_eq!((out.shape(), bits_of(&out)), (want.shape(), bits_of(&want)), "{rows} rows");
            model.infer_into(x.as_view(), &mut out, &mut ws);
            assert_eq!((out.shape(), bits_of(&out)), (want.shape(), bits_of(&want)), "{rows} rows");
        }
    }

    /// A one-layer stack hands nothing between layers: at a batch taller
    /// than its block, its layer writes `out` itself in one walk, and the
    /// model's two buffers stay empty.
    #[test]
    fn a_one_layer_stack_writes_out_itself() {
        let mut rng = OrcoRng::from_label("seq-one-layer", 0);
        let mut model = Sequential::new();
        model.push(Dense::new(3, 300, Activation::Identity, &mut rng));
        let rows = model.block_rows() + 5;
        let x = Matrix::from_fn(rows, 3, |r, c| ((r * 3 + c) as f32 * 0.37).sin());
        let want = model.forward(&x, true);
        let mut out = Matrix::from_fn(3, 3, |_, _| f32::NAN);
        model.forward_into(x.as_view(), &mut out, false);
        assert_eq!((out.shape(), bits_of(&out)), (want.shape(), bits_of(&want)));
        assert!(model.between.iter().all(|m| m.as_slice().is_empty()));
    }

    /// Every parameter gradient of the model, bit for bit, in visiting order.
    fn param_grad_bits(model: &mut Sequential) -> Vec<Vec<u32>> {
        let mut bits = Vec::new();
        model.for_each_param(&mut |p| bits.push(bits_of(p.grad)));
        bits
    }

    /// A stack of every layer kind of this crate, and a batch of `rows`
    /// inputs with the gradient to push back through it.
    fn mixed_stack(rows: usize) -> (Sequential, Matrix, Matrix) {
        let mut rng = OrcoRng::from_label("seq-backward-into", 0);
        let mut model = Sequential::new();
        model.push(Dense::new(6, 16, Activation::Tanh, &mut rng));
        model.push(Conv2d::new(1, 4, 4, 2, 3, 1, 1, Activation::Relu, &mut rng));
        model.push(MaxPool2d::new(2, 4, 4, 2));
        model.push(Dense::new(8, 3, Activation::Sigmoid, &mut rng));
        let x = Matrix::from_fn(rows, 6, |r, c| ((r * 6 + c) as f32 * 0.19).sin());
        let grad = Matrix::from_fn(rows, 3, |r, c| ((r * 3 + c) as f32 * 0.07).cos());
        (model, x, grad)
    }

    #[test]
    fn skipping_the_input_gradient_moves_no_parameter_gradient() {
        let (mut whole, x, grad) = mixed_stack(5);
        let mut skipped = whole.clone();
        // Buffers a smaller batch has used, and a dirty, wrongly-shaped `grad_in`.
        let (_, small_x, small_grad) = mixed_stack(2);
        let _ = whole.forward(&small_x, true);
        let mut grad_in = Matrix::from_fn(2, 3, |_, _| f32::NAN);
        whole.backward_into(small_grad.as_view(), Some(&mut grad_in));

        let _ = whole.forward(&x, true);
        let _ = skipped.forward(&x, true);
        whole.backward_into(grad.as_view(), Some(&mut grad_in));
        skipped.backward_into(grad.as_view(), None);
        assert_eq!(param_grad_bits(&mut skipped), param_grad_bits(&mut whole));

        // Layer by layer through the allocating wrapper, for `grad_in`.
        let (mut by_layer, ..) = mixed_stack(5);
        let _ = by_layer.forward(&x, true);
        let want = by_layer.layers.iter_mut().rev().fold(grad, |g, layer| layer.backward(&g));
        assert_eq!(bits_of(&grad_in), bits_of(&want));
        assert_eq!(param_grad_bits(&mut by_layer), param_grad_bits(&mut whole));
    }

    #[test]
    fn a_second_backward_sets_the_gradients_the_first_did() {
        let (mut model, x, grad) = mixed_stack(5);
        let _ = model.forward(&x, true);
        let mut once = model.clone();
        once.backward_into(grad.as_view(), None);
        let want = param_grad_bits(&mut once);
        for with_grad_in in [false, true] {
            let (mut twice, mut grad_in) = (model.clone(), Matrix::zeros(0, 0));
            for _ in 0..2 {
                twice.backward_into(grad.as_view(), with_grad_in.then_some(&mut grad_in));
            }
            assert_eq!(param_grad_bits(&mut twice), want, "grad_in: {with_grad_in}");
        }
    }

    #[test]
    #[should_panic(expected = "empty model")]
    fn forward_on_empty_model_panics() {
        let mut m = Sequential::new();
        let _ = m.forward(&Matrix::zeros(1, 1), false);
    }

    #[test]
    #[should_panic(expected = "empty model")]
    fn backward_on_empty_model_panics() {
        let mut m = Sequential::new();
        m.backward_into(Matrix::zeros(1, 1).as_view(), None);
    }
}
