use orco_tensor::{
    col2im_into, im2col_into, init::Init, Conv2dGeom, MatView, MatViewMut, Matrix, OrcoRng,
};

use crate::activation::Activation;
use crate::layer::{size_workspace, Layer, Param, Workspace};

/// A 2-D convolutional layer: a direct convolution forward, a backward
/// lowered to GEMM via im2col.
///
/// Inputs and outputs are [`Matrix`] batches with one flattened
/// `(C, H, W)` sample per row; the layer carries its own geometry so it can
/// be composed inside a [`crate::Sequential`] next to dense layers. DCSNet's
/// 4-convolutional-layer decoder and the follow-up 2-layer CNN classifier
/// are built from this type.
///
/// Kernels are stored as a `(out_c, in_c·k·k)` matrix, so the forward pass
/// on one sample is the product `kernels × im2col(sample)`, written
/// straight into that sample's output row — which *is* the `(out_c,
/// positions)` product, row-major. The forward builds no patch matrix:
/// [`MatView::conv_into`] copies the sample, zero-bordered, into a
/// one-sample workspace and reads each tap's pixels from there, with the
/// bits of the lowered product. The workspace is the layer's own, or one in
/// the caller's [`Workspace`] for [`Layer::infer_into`]; it keeps the
/// lowered sample's `(patch_len, positions)` size, is sized on first use
/// and overwritten by every sample after it, so a forward allocates nothing
/// once the workspace and the caller's `out` have grown.
///
/// Under `train` the layer keeps the **input batch and the output** (in
/// buffers reused from round to round; σ′ is read from the output), not
/// patches: `backward` lowers each sample with [`im2col_into`] into the
/// layer's workspace, which costs a twentieth of the products it feeds and
/// leaves the workspaces holding nothing between calls — an inference
/// forward cannot disturb a round in flight, and `backward` can be
/// repeated.
///
/// # Examples
///
/// ```
/// use orco_nn::{Activation, Conv2d, Layer};
/// use orco_tensor::{Matrix, OrcoRng};
///
/// let mut rng = OrcoRng::from_label("conv-doc", 0);
/// // 1×28×28 input, 8 filters of 3×3, stride 1, pad 1 → 8×28×28 output.
/// let mut conv = Conv2d::new(1, 28, 28, 8, 3, 1, 1, Activation::Relu, &mut rng);
/// let x = Matrix::zeros(2, 784);
/// let y = conv.forward(&x, true);
/// assert_eq!(y.shape(), (2, 8 * 28 * 28));
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    geom: Conv2dGeom,
    out_c: usize,
    kernels: Matrix, // (out_c, in_c*k*k)
    bias: Matrix,    // (1, out_c)
    grad_kernels: Matrix,
    grad_bias: Matrix,
    activation: Activation,
    // Input and output of the latest training-mode forward (`None` until
    // there is one): backward reads σ′ from the output, so it calls no
    // `exp`. The buffers are reused from round to round.
    cache: Option<(Matrix, Matrix)>,
    // One-sample workspaces: empty until first used, then dirty — each use
    // overwrites every element, nothing is read back across calls.
    // `patches` holds backward's lowered sample and, in its front, the
    // forward's bordered image (grown past `(patch_len, positions)` only
    // for a 1×1 kernel or a stride past the kernel).
    patches: Matrix,             // (patch_len, positions): a lowered sample
    delta: Matrix,               // (out_c, positions): backward's δ
    sample_grad_kernels: Matrix, // (out_c, patch_len): one sample's ∂L/∂K
    grad_patches: Matrix,        // (patch_len, positions): ∂L/∂patches
}

impl Conv2d {
    /// Creates a convolutional layer.
    ///
    /// `in_c`, `in_h`, `in_w` describe the incoming feature map; `out_c`
    /// filters of size `kernel`×`kernel` are applied with the given `stride`
    /// and zero `pad`.
    ///
    /// # Panics
    ///
    /// Panics if `out_c == 0` or the geometry is invalid (see
    /// [`Conv2dGeom::new`]).
    #[expect(
        clippy::too_many_arguments,
        reason = "the conv geometry is seven numbers, the activation and the rng"
    )]
    #[must_use]
    pub fn new(
        in_c: usize,
        in_h: usize,
        in_w: usize,
        out_c: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        activation: Activation,
        rng: &mut OrcoRng,
    ) -> Self {
        assert!(out_c > 0, "Conv2d: out_c must be non-zero");
        let geom = Conv2dGeom::new(in_c, in_h, in_w, kernel, stride, pad);
        let fan_in = geom.patch_len();
        let fan_out = out_c * kernel * kernel;
        let init = match activation {
            Activation::Relu => Init::HeNormal,
            _ => Init::XavierUniform,
        };
        Self {
            kernels: init.matrix_with_fans(out_c, geom.patch_len(), fan_in, fan_out, rng),
            bias: Matrix::zeros(1, out_c),
            grad_kernels: Matrix::zeros(out_c, geom.patch_len()),
            grad_bias: Matrix::zeros(1, out_c),
            geom,
            out_c,
            activation,
            cache: None,
            patches: Matrix::zeros(0, 0),
            delta: Matrix::zeros(0, 0),
            sample_grad_kernels: Matrix::zeros(0, 0),
            grad_patches: Matrix::zeros(0, 0),
        }
    }
}

impl Conv2d {
    /// The forward body. Per sample: `kernels ⊛ sample`
    /// ([`MatView::conv_into`], with the sample's bordered copy in the
    /// front of `patches`) into the sample's output row, and the
    /// per-channel bias and then the activation onto it, in place.
    /// `patches` keeps the lowered sample's `(patch_len, positions)`
    /// shape, grown only where the bordered image outsizes it (a 1×1 kernel,
    /// or a stride past the kernel): how the heap is laid out moves
    /// training's speed (ROADMAP item 18). Allocates nothing once `out` and
    /// `patches` have grown to size.
    fn forward_in(&self, x: MatView<'_>, out: &mut Matrix, patches: &mut Matrix) {
        assert_eq!(
            x.cols(),
            self.geom.input_len(),
            "Conv2d::forward_into: input features {} != expected {}",
            x.cols(),
            self.geom.input_len()
        );
        let (patch_len, positions) = (self.geom.patch_len(), self.geom.out_positions());
        out.reset(x.rows(), self.out_c * positions);
        let image_cols = self.geom.image_len().div_ceil(patch_len);
        size_workspace(patches, patch_len, positions.max(image_cols));
        for (i, sample) in x.iter_rows().enumerate() {
            let product = MatViewMut::new(self.out_c, positions, out.row_mut(i))
                .expect("an output row is out_c * positions long");
            self.kernels.as_view().conv_into(sample, &self.geom, patches.as_mut_slice(), product);
            let row = out.row_mut(i);
            for (channel, &b) in row.chunks_exact_mut(positions).zip(self.bias.row(0)) {
                for v in channel {
                    *v += b;
                }
            }
            // While the sample's output is still cached: a pass over the
            // whole batch afterwards (16 MiB for DCSNet at batch 256) reads
            // it back from memory. Element-wise, so the same bits.
            self.activation.apply_inplace(row);
        }
    }
}

impl Layer for Conv2d {
    /// The forward body with its bordered sample in `ws`.
    fn infer_into(&self, x: MatView<'_>, out: &mut Matrix, ws: &mut Workspace) {
        self.forward_in(x, out, ws.scratch(|| Matrix::zeros(0, 0)));
    }

    /// The forward body with the layer's own workspace, which backward
    /// lowers into. Allocates nothing once `out`, the workspace and
    /// (under `train`) the cache have grown to size.
    fn forward_into(&mut self, x: MatView<'_>, out: &mut Matrix, train: bool) {
        let mut patches = std::mem::replace(&mut self.patches, Matrix::zeros(0, 0));
        self.forward_in(x, out, &mut patches);
        self.patches = patches;
        if train {
            let (input, output) =
                self.cache.get_or_insert_with(|| (Matrix::zeros(0, 0), Matrix::zeros(0, 0)));
            input.copy_from(x);
            output.copy_from(out.as_view());
        }
    }

    /// From `∂L/∂K = 0` and `∂L/∂b = 0`, per sample: `δ`, the sample
    /// lowered ([`im2col_into`]), `∂L/∂K += δ·patchesᵀ` ([`MatView::matmul_t_into`])
    /// and `∂L/∂b +=` the per-channel sums of `δ`; and — only for a caller
    /// that reads `∂L/∂input` —
    /// `∂L/∂patches = Kᵀ·δ` ([`MatView::t_matmul_into`]) scattered back by
    /// [`col2im_into`]. Allocates nothing once the workspaces and the
    /// caller's `grad_in` have grown to size.
    fn backward_into(&mut self, grad_out: MatView<'_>, mut grad_in: Option<&mut Matrix>) {
        let (input, output) =
            self.cache.as_ref().expect("Conv2d::backward: no training-mode forward");
        assert_eq!(grad_out.shape(), output.shape(), "Conv2d::backward: grad shape mismatch");
        let (patch_len, positions) = (self.geom.patch_len(), self.geom.out_positions());
        size_workspace(&mut self.patches, patch_len, positions);
        size_workspace(&mut self.delta, self.out_c, positions);
        size_workspace(&mut self.sample_grad_kernels, self.out_c, patch_len);
        if let Some(grad_in) = grad_in.as_deref_mut() {
            size_workspace(&mut self.grad_patches, patch_len, positions);
            size_workspace(grad_in, input.rows(), self.geom.input_len());
        }
        self.grad_kernels.as_mut_slice().fill(0.0);
        self.grad_bias.as_mut_slice().fill(0.0);

        for i in 0..input.rows() {
            // δ = grad_out ⊙ σ' for this sample, as (out_c, positions)
            let delta = self.delta.as_mut_slice();
            for ((d, &g), &y) in delta.iter_mut().zip(grad_out.row(i)).zip(output.row(i)) {
                *d = g * self.activation.derivative_from_output(y);
            }
            im2col_into(input.row(i), &self.geom, self.patches.as_mut_slice());
            // ∂L/∂K = δ · patchesᵀ   (out_c, patch_len)
            self.delta
                .as_view()
                .matmul_t_into(self.patches.as_view(), self.sample_grad_kernels.as_view_mut());
            self.grad_kernels += &self.sample_grad_kernels;
            // ∂L/∂b = per-channel sums of δ
            let channels = self.delta.as_slice().chunks_exact(positions);
            for (gb, channel) in self.grad_bias.as_mut_slice().iter_mut().zip(channels) {
                *gb += channel.iter().sum::<f32>();
            }
            if let Some(grad_in) = grad_in.as_deref_mut() {
                // ∂L/∂patches = Kᵀ · δ  (patch_len, positions), then scatter.
                self.kernels
                    .as_view()
                    .t_matmul_into(self.delta.as_view(), self.grad_patches.as_view_mut());
                col2im_into(self.grad_patches.as_slice(), &self.geom, grad_in.row_mut(i));
            }
        }
    }

    fn for_each_param<'a>(&'a mut self, f: &mut dyn FnMut(Param<'a>)) {
        f(Param { value: &mut self.kernels, grad: &mut self.grad_kernels });
        f(Param { value: &mut self.bias, grad: &mut self.grad_bias });
    }

    fn input_dim(&self) -> usize {
        self.geom.input_len()
    }

    fn output_dim(&self) -> usize {
        self.out_c * self.geom.out_positions()
    }

    fn param_count(&self) -> usize {
        self.kernels.len() + self.bias.len()
    }

    fn flops_forward(&self) -> u64 {
        // GEMM: out_c × patch_len × positions MACs, ×2 flops each.
        let gemm = 2 * (self.out_c * self.geom.patch_len() * self.geom.out_positions()) as u64;
        let act = self.activation.flops() * self.output_dim() as u64;
        gemm + act
    }

    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::tests::{
        assert_backward_into_contract, assert_inference_leaves_the_round_alone, bits_of,
    };

    #[test]
    fn forward_shape_and_padding() {
        let mut rng = OrcoRng::from_label("conv-shape", 0);
        let mut conv = Conv2d::new(3, 8, 8, 4, 3, 1, 1, Activation::Identity, &mut rng);
        let x = Matrix::zeros(2, 3 * 8 * 8);
        let y = conv.forward(&x, true);
        assert_eq!(y.shape(), (2, 4 * 8 * 8));
    }

    #[test]
    fn stride_halves_resolution() {
        let mut rng = OrcoRng::from_label("conv-stride", 0);
        let conv = Conv2d::new(1, 8, 8, 2, 2, 2, 0, Activation::Relu, &mut rng);
        assert_eq!(conv.output_dim(), 32);
    }

    #[test]
    fn known_convolution_values() {
        let mut rng = OrcoRng::from_label("conv-known", 0);
        let mut conv = Conv2d::new(1, 3, 3, 1, 2, 1, 0, Activation::Identity, &mut rng);
        // Overwrite kernel with an averaging filter via params().
        {
            let mut params = conv.params();
            *params[0].value = Matrix::from_vec(1, 4, vec![0.25; 4]).unwrap();
            *params[1].value = Matrix::zeros(1, 1);
        }
        let x = Matrix::from_vec(1, 9, (1..=9).map(|v| v as f32).collect()).unwrap();
        let y = conv.forward(&x, true);
        // 2x2 means over the four quadrants of the 3x3 image.
        assert!(y.max_abs_diff(&Matrix::from_vec(1, 4, vec![3.0, 4.0, 6.0, 7.0]).unwrap()) <= 1e-5);
    }

    #[test]
    fn backward_shapes_and_a_second_backward_sets_what_the_first_did() {
        let mut rng = OrcoRng::from_label("conv-back", 0);
        let mut conv = Conv2d::new(2, 5, 5, 3, 3, 1, 1, Activation::Sigmoid, &mut rng);
        let x = Matrix::from_fn(2, 2 * 25, |r, c| ((r * 7 + c) as f32 * 0.01).sin());
        let y = conv.forward(&x, true);
        let gi = conv.backward(&Matrix::from_fn(2, y.cols(), |_, _| 1.0));
        assert_eq!(gi.shape(), x.shape());
        let (gk, gb) = (conv.grad_kernels.clone(), conv.grad_bias.clone());
        let _ = conv.backward(&Matrix::from_fn(2, y.cols(), |_, _| 1.0));
        assert_eq!((&conv.grad_kernels, &conv.grad_bias), (&gk, &gb));
    }

    #[test]
    fn inference_between_forward_and_backward_leaves_the_round_alone() {
        let mut rng = OrcoRng::from_label("conv-interleave", 0);
        let mut conv = Conv2d::new(2, 5, 5, 3, 3, 1, 1, Activation::Sigmoid, &mut rng);
        let x = Matrix::from_fn(4, 50, |r, c| ((r * 7 + c) as f32 * 0.01).sin());
        let served = Matrix::from_fn(2, 50, |r, c| ((r * 3 + c) as f32 * 0.02).cos());
        let grad = Matrix::from_fn(4, 75, |r, c| ((r + c) as f32 * 0.05).cos());
        assert_inference_leaves_the_round_alone(&conv, &x, &served, &grad);
        let _ = conv.forward(&served, false);
        assert!(conv.cache.is_none(), "an inference forward keeps nothing");
        let _ = conv.forward(&x, true);
        let kept = conv.cache.clone();
        let _ = conv.forward(&served, false);
        assert_eq!(conv.cache, kept, "an inference forward touched the kept input");
        assert_eq!(kept.expect("a training forward keeps its input").0, x);
    }

    /// A strided, padded layer after one training forward of `batch` rows,
    /// and the gradient to push back through it.
    fn trained_once(batch: usize) -> (Conv2d, Matrix) {
        let mut rng = OrcoRng::from_label("conv-repeat", 0);
        let mut conv = Conv2d::new(2, 5, 5, 3, 3, 2, 1, Activation::Tanh, &mut rng);
        let x = Matrix::from_fn(batch, 50, |r, c| ((r * 7 + c) as f32 * 0.01).sin());
        let grad = Matrix::from_fn(batch, conv.output_dim(), |r, c| ((r + c) as f32 * 0.05).cos());
        let _ = conv.forward(&x, true);
        (conv, grad)
    }

    #[test]
    fn backward_twice_after_one_training_forward_repeats_itself() {
        for batch in [1, 3] {
            let (mut conv, grad) = trained_once(batch);
            let first = conv.backward(&grad);
            let (gk, gb) = (bits_of(&conv.grad_kernels), bits_of(&conv.grad_bias));
            assert_eq!(conv.backward(&grad), first, "batch {batch}");
            let again = (bits_of(&conv.grad_kernels), bits_of(&conv.grad_bias));
            assert_eq!(again, (gk, gb), "batch {batch}");
        }
    }

    #[test]
    fn backward_into_meets_the_layer_contract() {
        let mut rng = OrcoRng::from_label("conv-backward-into", 0);
        // Strided and padded, then overlapping taps at stride 1.
        for (stride, pad) in [(2, 1), (1, 0)] {
            let conv = Conv2d::new(2, 5, 5, 3, 3, stride, pad, Activation::Tanh, &mut rng);
            let x = Matrix::from_fn(3, 50, |r, c| ((r * 7 + c) as f32 * 0.01).sin());
            let grad = Matrix::from_fn(3, conv.output_dim(), |r, c| ((r + c) as f32 * 0.05).cos());
            assert_backward_into_contract(&conv, &x, &grad);
        }
    }

    #[test]
    #[should_panic(expected = "Conv2d::backward: grad shape mismatch")]
    fn backward_on_another_batch_size_than_the_kept_forward_panics() {
        let mut rng = OrcoRng::from_label("conv-stale", 0);
        let mut conv = Conv2d::new(1, 3, 3, 1, 2, 1, 0, Activation::Identity, &mut rng);
        let _ = conv.forward(&Matrix::from_fn(2, 9, |_, _| 1.0), true);
        let _ = conv.backward(&Matrix::from_fn(3, 4, |_, _| 1.0));
    }

    #[test]
    fn a_reused_workspace_leaks_nothing_into_the_next_batch() {
        let mut rng = OrcoRng::from_label("conv-reuse", 0);
        let fresh = Conv2d::new(2, 6, 5, 3, 3, 2, 1, Activation::Sigmoid, &mut rng);
        let mut used = fresh.clone();
        let small = Matrix::from_fn(2, 60, |r, c| ((r * 11 + c) as f32 * 0.03).cos());
        let large = Matrix::from_fn(5, 60, |r, c| ((r * 7 + c) as f32 * 0.02).sin());
        let grad = Matrix::from_fn(5, fresh.output_dim(), |r, c| ((r + 3 * c) as f32 * 0.04).sin());
        let _ = used.forward(&small, true);
        let _ = used.backward(&Matrix::from_fn(2, fresh.output_dim(), |_, _| 1.0));
        let mut fresh = fresh;
        assert_eq!(used.forward(&large, true), fresh.forward(&large, true));
        assert_eq!(used.backward(&grad), fresh.backward(&grad));
        assert_eq!(used.grad_kernels, fresh.grad_kernels);
        assert_eq!(used.grad_bias, fresh.grad_bias);
    }

    /// The forward as it was lowered: per sample `im2col_into`, `kernels ×
    /// patches` ([`MatView::matmul_into`]) and the bias, then the
    /// activation — the oracle of the direct forward.
    fn lowered_forward(conv: &Conv2d, x: &Matrix) -> Matrix {
        let positions = conv.geom.out_positions();
        let mut patches = Matrix::zeros(conv.geom.patch_len(), positions);
        let mut out = Matrix::zeros(x.rows(), conv.output_dim());
        for i in 0..x.rows() {
            im2col_into(x.row(i), &conv.geom, patches.as_mut_slice());
            let product = MatViewMut::new(conv.out_c, positions, out.row_mut(i)).unwrap();
            conv.kernels.as_view().matmul_into(patches.as_view(), product);
            for (channel, &b) in out.row_mut(i).chunks_exact_mut(positions).zip(conv.bias.row(0)) {
                channel.iter_mut().for_each(|v| *v += b);
            }
        }
        conv.activation.apply_inplace(out.as_mut_slice());
        out
    }

    /// A forward after a backward on the same layer, whose workspace then
    /// holds backward's patches, and an inference in a workspace another
    /// geometry's layer left dirty, against [`lowered_forward`] bit for
    /// bit: 3×3 at pad 1 and 2 (the image fits in the patch workspace),
    /// and a 1×1 kernel and a stride past the kernel (the workspace grows
    /// to hold it), at thread budgets 1 and 2.
    #[test]
    fn a_forward_in_a_dirty_workspace_matches_the_lowered_forward() {
        let mut rng = OrcoRng::from_label("conv-direct-dirty", 0);
        let mut ws = Workspace::default();
        for (in_c, kernel, stride, pad) in [(3, 3, 1, 1), (16, 3, 2, 2), (2, 1, 1, 0), (2, 2, 3, 1)]
        {
            let mut conv =
                Conv2d::new(in_c, 7, 9, 9, kernel, stride, pad, Activation::Tanh, &mut rng);
            conv.bias = Matrix::from_fn(1, 9, |_, c| c as f32 * 0.1 - 0.4);
            let (inputs, outputs) = (conv.input_dim(), conv.output_dim());
            let x = Matrix::from_fn(3, inputs, |r, c| ((r * 7 + c) as f32 * 0.01).sin());
            let served = Matrix::from_fn(2, inputs, |r, c| ((r * 3 + c) as f32 * 0.02).cos());
            let grad = Matrix::from_fn(3, outputs, |r, c| ((r + c) as f32 * 0.05).cos());
            let want = bits_of(&lowered_forward(&conv, &served));
            for threads in [1, 2] {
                orco_tensor::parallel::with_thread_budget(threads, || {
                    let _ = conv.forward(&x, true);
                    let _ = conv.backward(&grad);
                    assert_eq!(bits_of(&conv.forward(&served, false)), want, "{:?}", conv.geom);
                    let mut out = Matrix::zeros(0, 0);
                    conv.infer_into(served.as_view(), &mut out, &mut ws);
                    assert_eq!(bits_of(&out), want, "{:?} in a shared workspace", conv.geom);
                });
            }
        }
    }

    #[test]
    #[should_panic(expected = "Conv2d::backward: no training-mode forward")]
    fn backward_after_only_an_inference_forward_panics() {
        let mut rng = OrcoRng::from_label("conv-no-train", 0);
        let mut conv = Conv2d::new(1, 3, 3, 1, 2, 1, 0, Activation::Identity, &mut rng);
        let _ = conv.forward(&Matrix::from_fn(2, 9, |_, _| 1.0), false);
        let _ = conv.backward(&Matrix::from_fn(2, 4, |_, _| 1.0));
    }

    /// Training's speed moved with the heap state a fresh model leaves
    /// (ROADMAP item 18: 8 more bytes of `Dense` read 0.79× on DCSNet's
    /// rounds, and a forward whose workspace was sized to the bordered
    /// image alone 0.73×): a new field is paid for by a field that
    /// shrinks.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn the_layer_keeps_its_size() {
        assert_eq!(std::mem::size_of::<Conv2d>(), 464);
    }

    #[test]
    fn param_count() {
        let mut rng = OrcoRng::from_label("conv-count", 0);
        let conv = Conv2d::new(3, 32, 32, 16, 5, 1, 2, Activation::Relu, &mut rng);
        assert_eq!(conv.param_count(), 16 * 75 + 16);
    }
}
