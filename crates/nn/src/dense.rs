use std::sync::OnceLock;

use orco_tensor::{init::Init, MatView, MatViewMut, Matrix, OrcoRng, Panels};

use crate::activation::Activation;
use crate::layer::{size_workspace, Layer, Param, Workspace};

/// A fully-connected layer computing `σ(x·Wᵀ + b)` over a batch.
///
/// This is the building block of the OrcoDCS asymmetric autoencoder: the
/// paper's encoder (eq. 1) is a single `Dense(N, M, Sigmoid)` and the
/// decoder (eq. 3) is one or more `Dense(M, N, Sigmoid)` layers.
///
/// Weights are stored as `(out, in)`, so row `j` holds the weights of output
/// unit `j` — which is also the layout the OrcoDCS encoder distribution
/// (§III-C of the paper) slices into per-device columns.
///
/// Inference ([`Layer::infer_into`], and [`Layer::forward_into`] without
/// `train`) reads the weight as [`Panels`], `Wᵀ` packed once for the GEMM:
/// built by the first inference after the weight last changed — one copy
/// however many threads race to build it — and dropped by the only two
/// `&mut` ways to change the weight, [`Layer::for_each_param`] (so an
/// optimizer step) and [`Dense::set_parts`]. A served layer's weight never
/// changes, so its `x·Wᵀ` gathers nothing per call: at one row, the
/// gather was most of the product. A training forward keeps
/// [`MatView::matmul_t_into`], which packs per call: its weight changes
/// every round, so panels kept for it would be re-packed every round
/// anyway, and training allocates nothing for them. Both products give
/// the same bits.
///
/// # Examples
///
/// ```
/// use orco_nn::{Activation, Dense, Layer};
/// use orco_tensor::{Matrix, OrcoRng};
///
/// let mut rng = OrcoRng::from_label("dense-doc", 0);
/// let mut layer = Dense::new(784, 128, Activation::Sigmoid, &mut rng);
/// let batch = Matrix::zeros(16, 784);
/// let latent = layer.forward(&batch, true);
/// assert_eq!(latent.shape(), (16, 128));
/// ```
#[derive(Debug, Clone)]
pub struct Dense {
    weight: Matrix, // (out, in)
    bias: Matrix,   // (1, out)
    grad_weight: Matrix,
    grad_bias: Matrix,
    activation: Activation,
    // Input and output of the latest training-mode forward (`None` until
    // there is one): backward reads σ′ from the output, so it calls no
    // `exp`. The buffers are reused from round to round.
    cache: Option<(Matrix, Matrix)>,
    // Backward's workspaces: empty until first used, then dirty — each use
    // overwrites every element, nothing is read back across calls.
    delta: Matrix,             // (batch, out): grad_out ⊙ σ'
    batch_grad_bias: Vec<f32>, // (out): this call's column sums of δ
    // The sums could go into `grad_bias` directly, but this small buffer,
    // allocated by the first backward, decides where a fresh model's
    // buffers land: without it, the heap under `train_online`'s one-round
    // DCSNet trials was returned to the system after every trial, and the
    // next trial faulted ~30 MB back in (0.73–0.78× its rounds/s, nproc 2).
    // `Wᵀ` packed for inference, built on first use and dropped whenever
    // the weight may change.
    panels: OnceLock<Box<Panels>>,
    // Unused: the bytes of the `Matrix` backward no longer needs (its `δᵀ·x`
    // goes straight into `grad_weight`), kept so the layer keeps its size.
    // A field that grew it moved the training rounds' heap state, and with
    // it their speed; the size goes when that placement is decided in code.
    _padding: [u64; 5],
}

impl Dense {
    /// Creates a dense layer with the default initialization for its
    /// activation (Xavier for sigmoid/tanh/identity, He for ReLU family).
    ///
    /// # Panics
    ///
    /// Panics if `input_dim` or `output_dim` is zero.
    #[must_use]
    pub fn new(
        input_dim: usize,
        output_dim: usize,
        activation: Activation,
        rng: &mut OrcoRng,
    ) -> Self {
        let init = match activation {
            Activation::Relu => Init::HeNormal,
            _ => Init::XavierUniform,
        };
        Self::with_init(input_dim, output_dim, activation, init, rng)
    }

    /// Creates a dense layer with an explicit weight initializer.
    ///
    /// # Panics
    ///
    /// Panics if `input_dim` or `output_dim` is zero.
    #[must_use]
    pub(crate) fn with_init(
        input_dim: usize,
        output_dim: usize,
        activation: Activation,
        init: Init,
        rng: &mut OrcoRng,
    ) -> Self {
        assert!(input_dim > 0, "Dense: input_dim must be non-zero");
        assert!(output_dim > 0, "Dense: output_dim must be non-zero");
        Self {
            weight: init.matrix(output_dim, input_dim, rng),
            bias: Matrix::zeros(1, output_dim),
            grad_weight: Matrix::zeros(output_dim, input_dim),
            grad_bias: Matrix::zeros(1, output_dim),
            activation,
            cache: None,
            delta: Matrix::zeros(0, 0),
            batch_grad_bias: Vec::new(),
            panels: OnceLock::new(),
            _padding: [0; 5],
        }
    }

    /// The weight matrix, shaped `(output_dim, input_dim)`.
    #[must_use]
    pub fn weight(&self) -> &Matrix {
        &self.weight
    }

    /// The bias row vector, shaped `(1, output_dim)`.
    #[must_use]
    pub fn bias(&self) -> &Matrix {
        &self.bias
    }

    /// Overwrites weights and bias (e.g. when applying a model update
    /// received over the network).
    ///
    /// # Panics
    ///
    /// Panics if shapes do not match the layer's dimensions.
    pub fn set_parts(&mut self, weight: Matrix, bias: Matrix) {
        assert_eq!(weight.shape(), self.weight.shape(), "Dense::set_parts: weight shape mismatch");
        assert_eq!(bias.shape(), self.bias.shape(), "Dense::set_parts: bias shape mismatch");
        self.weight = weight;
        self.bias = bias;
        self.panels.take();
    }

    /// `Wᵀ`'s panels, packed on first use.
    fn panels(&self) -> &Panels {
        self.panels.get_or_init(|| Box::new(Panels::new(self.weight.as_view())))
    }

    /// `out = σ(x·Wᵀ + b)`, `x·Wᵀ` computed by `product` into `out`. Both
    /// products store every element, so `out` is resized, not zeroed.
    fn affine_into(
        &self,
        x: MatView<'_>,
        out: &mut Matrix,
        product: impl FnOnce(MatView<'_>, MatViewMut<'_>),
    ) {
        assert_eq!(
            x.cols(),
            self.weight.cols(),
            "Dense::forward_into: input features {} != layer input_dim {}",
            x.cols(),
            self.weight.cols()
        );
        size_workspace(out, x.rows(), self.weight.rows());
        product(x, out.as_view_mut());
        let bias = self.bias.row(0);
        for r in 0..out.rows() {
            for (v, &b) in out.row_mut(r).iter_mut().zip(bias) {
                *v += b;
            }
        }
        self.activation.apply_inplace(out.as_mut_slice());
    }
}

impl Layer for Dense {
    /// `out = σ(x·Wᵀ + b)` as one GEMM over the weight's panels
    /// ([`MatView::matmul_panels_into`], which writes every element of
    /// `out`), a bias broadcast and an in-place activation; needs no
    /// scratch, and allocates nothing once `out` has grown to size and the
    /// panels are built.
    fn infer_into(&self, x: MatView<'_>, out: &mut Matrix, _: &mut Workspace) {
        self.affine_into(x, out, |x, out| x.matmul_panels_into(self.panels(), out));
    }

    /// Under `train`, the same values with `x·Wᵀ` packed per call
    /// ([`MatView::matmul_t_into`]), the panels left unbuilt. Allocates
    /// nothing once `out` (and, under `train`, the cache) has grown to
    /// size.
    fn forward_into(&mut self, x: MatView<'_>, out: &mut Matrix, train: bool) {
        if train {
            let weight = self.weight.as_view();
            self.affine_into(x, out, |x, out| x.matmul_t_into(weight, out));
            let (input, output) =
                self.cache.get_or_insert_with(|| (Matrix::zeros(0, 0), Matrix::zeros(0, 0)));
            input.copy_from(x);
            output.copy_from(out.as_view());
        } else {
            self.infer_into(x, out, &mut Workspace::default());
        }
    }

    /// `δ = grad_out ⊙ σ'` (σ′ read from the kept output), then
    /// `∂L/∂W = δᵀ·x` ([`MatView::t_matmul_into`], written straight into
    /// the gradient), `∂L/∂b =` the column sums of `δ` (each from `+0.0`,
    /// in a workspace, then copied), and — only for a caller that reads
    /// it — `∂L/∂x = δ·W` ([`MatView::matmul_into`]).
    fn backward_into(&mut self, grad_out: MatView<'_>, grad_in: Option<&mut Matrix>) {
        let (input, output) =
            self.cache.as_ref().expect("Dense::backward: no training-mode forward");
        let (batch, out_dim) = output.shape();
        assert_eq!(
            grad_out.shape(),
            (batch, out_dim),
            "Dense::backward: grad_output shape mismatch"
        );
        size_workspace(&mut self.delta, batch, out_dim);
        self.batch_grad_bias.clear();
        self.batch_grad_bias.resize(out_dim, 0.0);

        let sums = &mut self.batch_grad_bias;
        for (r, g_row) in grad_out.iter_rows().enumerate() {
            let cells = self.delta.row_mut(r).iter_mut().zip(g_row).zip(output.row(r));
            for (((d, &g), &y), sum) in cells.zip(sums.iter_mut()) {
                *d = g * self.activation.derivative_from_output(y);
                *sum += *d;
            }
        }
        self.grad_bias.as_mut_slice().copy_from_slice(sums);
        self.delta.as_view().t_matmul_into(input.as_view(), self.grad_weight.as_view_mut());
        if let Some(grad_in) = grad_in {
            size_workspace(grad_in, batch, input.cols());
            self.delta.as_view().matmul_into(self.weight.as_view(), grad_in.as_view_mut());
        }
    }

    /// Drops the panels: the visitor may change the weight.
    fn for_each_param<'a>(&'a mut self, f: &mut dyn FnMut(Param<'a>)) {
        self.panels.take();
        f(Param { value: &mut self.weight, grad: &mut self.grad_weight });
        f(Param { value: &mut self.bias, grad: &mut self.grad_bias });
    }

    fn input_dim(&self) -> usize {
        self.weight.cols()
    }

    fn output_dim(&self) -> usize {
        self.weight.rows()
    }

    fn param_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    fn flops_forward(&self) -> u64 {
        let mac = 2 * self.weight.len() as u64; // multiply-accumulate
        let act = self.activation.flops() * self.weight.rows() as u64;
        mac + act
    }

    fn name(&self) -> &'static str {
        "dense"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::tests::{
        assert_backward_into_contract, assert_every_output_is_written,
        assert_inference_leaves_the_round_alone, bits_of,
    };

    /// Inference over the panels and the training forward's gathered
    /// `matmul_t`, each a row-tile remainder and a ragged panel wide.
    #[test]
    fn every_output_element_is_written() {
        let mut rng = OrcoRng::from_label("dense-overwrite", 0);
        let layer = Dense::new(37, 21, Activation::Sigmoid, &mut rng);
        let x = Matrix::from_fn(7, 37, |r, c| ((r * 37 + c) as f32 * 0.13).sin());
        assert_every_output_is_written(&layer, &x);
    }

    #[test]
    fn forward_known_values() {
        let w = Matrix::from_vec(2, 3, vec![1.0, 0.0, -1.0, 0.5, 0.5, 0.5]).unwrap();
        let b = Matrix::from_vec(1, 2, vec![0.1, -0.1]).unwrap();
        let mut rng = OrcoRng::from_label("dense-known", 0);
        let mut layer = Dense::new(3, 2, Activation::Identity, &mut rng);
        {
            let mut params = layer.params();
            *params[0].value = w;
            *params[1].value = b;
        }
        let x = Matrix::from_vec(1, 3, vec![2.0, 4.0, 6.0]).unwrap();
        let y = layer.forward(&x, true);
        // [2-6+0.1, 1+2+3-0.1] = [-3.9, 5.9]
        assert!(y.max_abs_diff(&Matrix::from_vec(1, 2, vec![-3.9, 5.9]).unwrap()) <= 1e-5);
    }

    #[test]
    fn backward_shapes() {
        let mut rng = OrcoRng::from_label("dense-shapes", 0);
        let mut layer = Dense::new(5, 3, Activation::Sigmoid, &mut rng);
        let x = Matrix::from_fn(4, 5, |r, c| (r + c) as f32 * 0.1);
        let _ = layer.forward(&x, true);
        let grad_in = layer.backward(&Matrix::from_fn(4, 3, |_, _| 1.0));
        assert_eq!(grad_in.shape(), (4, 5));
        let params = layer.params();
        assert_eq!(params[0].grad.shape(), (3, 5));
        assert_eq!(params[1].grad.shape(), (1, 3));
    }

    #[test]
    fn a_second_backward_sets_the_gradients_the_first_did() {
        let mut rng = OrcoRng::from_label("dense-acc", 0);
        let mut layer = Dense::new(3, 2, Activation::Sigmoid, &mut rng);
        let x = Matrix::from_fn(4, 3, |r, c| ((r * 3 + c) as f32 * 0.3).sin());
        let g = Matrix::from_fn(4, 2, |r, c| ((r * 2 + c) as f32 * 0.7).cos());
        let _ = layer.forward(&x, true);
        let _ = layer.backward(&g);
        let once = (bits_of(&layer.grad_weight), bits_of(&layer.grad_bias));
        let _ = layer.backward(&g);
        assert_eq!((bits_of(&layer.grad_weight), bits_of(&layer.grad_bias)), once);
    }

    #[test]
    fn param_count_and_flops() {
        let mut rng = OrcoRng::from_label("dense-count", 0);
        let layer = Dense::new(784, 128, Activation::Sigmoid, &mut rng);
        assert_eq!(layer.param_count(), 784 * 128 + 128);
        assert!(layer.flops_forward() >= 2 * 784 * 128);
    }

    #[test]
    fn a_batch_equals_its_rows_taken_one_at_a_time() {
        let mut rng = OrcoRng::from_label("dense-into", 0);
        for activation in [Activation::Sigmoid, Activation::Relu, Activation::Identity] {
            let mut layer = Dense::new(7, 4, activation, &mut rng);
            let x = Matrix::from_fn(9, 7, |r, c| ((r * 11 + c) as f32 * 0.13).sin());
            let reference = layer.forward(&x, false);
            let mut out = Matrix::from_fn(1, 1, |_, _| f32::NAN); // dirty reused buffer
            for r in 0..x.rows() {
                layer.forward_into(MatView::from_row(x.row(r)), &mut out, false);
                assert_eq!(out.row(0), reference.row(r), "{activation:?} row {r}");
            }
            // Training: a batch of 32 rows fills a panel and has fewer rows
            // than the layer has outputs, so its `x·Wᵀ` gathers the batch's
            // rows; one row gathers `Wᵀ`. Two panels deep and one more.
            let mut layer = Dense::new(513, 40, activation, &mut rng);
            let x = Matrix::from_fn(32, 513, |r, c| ((r * 13 + c) as f32 * 0.07).cos());
            let reference = layer.forward(&x, true);
            for r in 0..x.rows() {
                layer.forward_into(MatView::from_row(x.row(r)), &mut out, true);
                let row = |m: &Matrix, r| bits_of(&m.slice_rows(r..r + 1));
                assert_eq!(row(&out, 0), row(&reference, r), "{activation:?} training row {r}");
            }
        }
    }

    #[test]
    fn inference_between_forward_and_backward_leaves_the_round_alone() {
        let mut rng = OrcoRng::from_label("dense-interleave", 0);
        let mut layer = Dense::new(5, 3, Activation::Sigmoid, &mut rng);
        let x = Matrix::from_fn(8, 5, |r, c| ((r * 5 + c) as f32 * 0.17).sin());
        let served = Matrix::from_fn(3, 5, |r, c| ((r + 2 * c) as f32 * 0.29).cos());
        let grad = Matrix::from_fn(8, 3, |r, c| ((r * 3 + c) as f32 * 0.11).cos());
        assert_inference_leaves_the_round_alone(&layer, &x, &served, &grad);
        let _ = layer.forward(&served, false);
        assert!(layer.cache.is_none());
    }

    #[test]
    fn backward_into_meets_the_layer_contract() {
        let mut rng = OrcoRng::from_label("dense-backward-into", 0);
        for activation in [Activation::Sigmoid, Activation::Relu, Activation::Identity] {
            let layer = Dense::new(7, 4, activation, &mut rng);
            let x = Matrix::from_fn(9, 7, |r, c| ((r * 11 + c) as f32 * 0.13).sin());
            let grad = Matrix::from_fn(9, 4, |r, c| ((r * 4 + c) as f32 * 0.11).cos());
            assert_backward_into_contract(&layer, &x, &grad);
        }
    }

    #[test]
    #[should_panic(expected = "Dense::backward: no training-mode forward")]
    fn backward_after_only_an_inference_forward_panics() {
        let mut rng = OrcoRng::from_label("dense-no-train", 0);
        let mut layer = Dense::new(4, 2, Activation::Identity, &mut rng);
        let _ = layer.forward(&Matrix::from_fn(3, 4, |_, _| 1.0), false);
        let _ = layer.backward(&Matrix::from_fn(3, 2, |_, _| 1.0));
    }

    #[test]
    #[should_panic(expected = "input features")]
    fn forward_rejects_wrong_width() {
        let mut rng = OrcoRng::from_label("dense-bad", 0);
        let mut layer = Dense::new(4, 2, Activation::Identity, &mut rng);
        let _ = layer.forward(&Matrix::zeros(1, 5), true);
    }

    /// `infer_into`'s product over the panels against a training
    /// forward's, which packs the weight per call: bit for bit.
    fn assert_inference_matches_training(layer: &mut Dense, x: &Matrix, what: &str) {
        let mut served = Matrix::zeros(0, 0);
        layer.infer_into(x.as_view(), &mut served, &mut Workspace::default());
        let trained = layer.forward(x, true);
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&served), bits(&trained), "{what}");
    }

    #[test]
    fn inference_reads_the_weight_as_it_is_after_every_change() {
        let mut rng = OrcoRng::from_label("dense-panels", 0);
        let mut layer = Dense::new(37, 21, Activation::Sigmoid, &mut rng);
        let x = Matrix::from_fn(5, 37, |r, c| ((r * 37 + c) as f32 * 0.07).sin());
        assert_inference_matches_training(&mut layer, &x, "fresh");

        // An optimizer step, on panels an inference has just built.
        let mut opt = crate::Optimizer::adam(0.05);
        let _ = layer.backward(&Matrix::from_fn(5, 21, |_, _| 1.0));
        opt.step(|f| layer.for_each_param(f));
        assert_inference_matches_training(&mut layer, &x, "after a step");

        // A direct edit through `params()`.
        layer.params()[0].value.map_inplace(|w| -w);
        assert_inference_matches_training(&mut layer, &x, "after a params() edit");

        // `set_parts`.
        let w = Matrix::from_fn(21, 37, |r, c| ((r + 3 * c) as f32 * 0.11).cos());
        layer.set_parts(w, Matrix::from_fn(1, 21, |_, _| 0.25));
        assert_inference_matches_training(&mut layer, &x, "after set_parts");
    }

    #[test]
    fn racing_first_inferences_share_one_copy_of_the_panels() {
        fn sync<T: Sync>(_: &T) {}
        let mut rng = OrcoRng::from_label("dense-race", 0);
        let layer = Dense::new(64, 16, Activation::Sigmoid, &mut rng);
        sync(&layer);
        let x = Matrix::from_fn(3, 64, |r, c| ((r * 64 + c) as f32 * 0.05).cos());
        let start = std::sync::Barrier::new(2);
        let first_use = || {
            start.wait();
            let mut out = Matrix::zeros(0, 0);
            layer.infer_into(x.as_view(), &mut out, &mut Workspace::default());
            (layer.panels(), out)
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(first_use);
            let b = s.spawn(first_use);
            (a.join().unwrap(), b.join().unwrap())
        });
        assert!(std::ptr::eq(a.0, b.0), "two threads built two copies");
        assert_eq!(a.1, b.1);
    }

    /// Training's speed moved with this struct's size through the heap
    /// state a fresh model leaves (8 more bytes read 0.79× on DCSNet's
    /// rounds): a new field is paid for by a field that shrinks. The 40
    /// bytes of `_padding` hold the size where backward's deleted `δᵀ·x`
    /// workspace held it.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn the_layer_keeps_its_size() {
        assert_eq!(std::mem::size_of::<Dense>(), 368);
    }

    #[test]
    fn set_parts_replaces_weights() {
        let mut rng = OrcoRng::from_label("dense-set", 0);
        let mut layer = Dense::new(2, 2, Activation::Identity, &mut rng);
        let w = Matrix::from_fn(2, 2, |r, c| if r == c { 1.0 } else { 0.0 });
        let b = Matrix::zeros(1, 2);
        layer.set_parts(w.clone(), b);
        let x = Matrix::from_vec(1, 2, vec![3.0, -4.0]).unwrap();
        let y = layer.forward(&x, false);
        assert_eq!(y.as_slice(), x.as_slice());
    }
}
