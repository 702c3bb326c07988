use orco_tensor::{init::Init, MatView, Matrix, OrcoRng};

use crate::activation::Activation;
use crate::layer::{size_workspace, Layer, Param};

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
    batch_grad_weight: Matrix, // (out, in): this call's δᵀ·x
    batch_grad_bias: Matrix,   // (1, out): this call's column sums of δ
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
            batch_grad_weight: Matrix::zeros(0, 0),
            batch_grad_bias: Matrix::zeros(0, 0),
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
    }
}

impl Layer for Dense {
    /// `out = σ(x·Wᵀ + b)` as one GEMM ([`MatView::matmul_t_into`], which
    /// writes every element of `out`), a bias broadcast and an in-place
    /// activation; allocates nothing once `out` (and, under `train`, the
    /// cache) has grown to size.
    fn forward_into(&mut self, x: MatView<'_>, out: &mut Matrix, train: bool) {
        assert_eq!(
            x.cols(),
            self.weight.cols(),
            "Dense::forward_into: input features {} != layer input_dim {}",
            x.cols(),
            self.weight.cols()
        );
        out.reset(x.rows(), self.weight.rows());
        x.matmul_t_into(self.weight.as_view(), out.as_view_mut());
        let bias = self.bias.row(0);
        for r in 0..out.rows() {
            for (v, &b) in out.row_mut(r).iter_mut().zip(bias) {
                *v += b;
            }
        }
        self.activation.apply_inplace(out);
        if train {
            let (input, output) =
                self.cache.get_or_insert_with(|| (Matrix::zeros(0, 0), Matrix::zeros(0, 0)));
            input.copy_from(x);
            output.copy_from(out.as_view());
        }
    }

    /// `δ = grad_out ⊙ σ'` (σ′ read from the kept output), then
    /// `∂L/∂W += δᵀ·x` ([`MatView::t_matmul_into`]), `∂L/∂b +=` the column
    /// sums of `δ`, and — only for a caller that reads it — `∂L/∂x = δ·W`
    /// ([`MatView::matmul_into`]). Each call's `δᵀ·x` and column sums are
    /// formed from zero in a workspace and then added, so a second call
    /// adds exactly what the first did.
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
        size_workspace(&mut self.batch_grad_weight, out_dim, input.cols());
        self.batch_grad_bias.reset(1, out_dim);

        let sums = self.batch_grad_bias.as_mut_slice();
        for (r, g_row) in grad_out.iter_rows().enumerate() {
            let cells = self.delta.row_mut(r).iter_mut().zip(g_row).zip(output.row(r));
            for (((d, &g), &y), sum) in cells.zip(sums.iter_mut()) {
                *d = g * self.activation.derivative_from_output(y);
                *sum += *d;
            }
        }
        self.delta.as_view().t_matmul_into(input.as_view(), self.batch_grad_weight.as_view_mut());
        self.grad_weight += &self.batch_grad_weight;
        self.grad_bias += &self.batch_grad_bias;
        if let Some(grad_in) = grad_in {
            size_workspace(grad_in, batch, input.cols());
            self.delta.as_view().matmul_into(self.weight.as_view(), grad_in.as_view_mut());
        }
    }

    fn for_each_param<'a>(&'a mut self, f: &mut dyn FnMut(Param<'a>)) {
        f(Param { value: &mut self.weight, grad: &mut self.grad_weight });
        f(Param { value: &mut self.bias, grad: &mut self.grad_bias });
    }

    fn zero_grad(&mut self) {
        self.grad_weight.map_inplace(|_| 0.0);
        self.grad_bias.map_inplace(|_| 0.0);
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
        assert_backward_into_contract, assert_inference_leaves_the_round_alone,
    };

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
        assert!(y.approx_eq(&Matrix::from_vec(1, 2, vec![-3.9, 5.9]).unwrap(), 1e-5));
    }

    #[test]
    fn backward_shapes() {
        let mut rng = OrcoRng::from_label("dense-shapes", 0);
        let mut layer = Dense::new(5, 3, Activation::Sigmoid, &mut rng);
        let x = Matrix::from_fn(4, 5, |r, c| (r + c) as f32 * 0.1);
        let _ = layer.forward(&x, true);
        let grad_in = layer.backward(&Matrix::ones(4, 3));
        assert_eq!(grad_in.shape(), (4, 5));
        let params = layer.params();
        assert_eq!(params[0].grad.shape(), (3, 5));
        assert_eq!(params[1].grad.shape(), (1, 3));
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut rng = OrcoRng::from_label("dense-acc", 0);
        let mut layer = Dense::new(2, 2, Activation::Identity, &mut rng);
        let x = Matrix::ones(1, 2);
        let g = Matrix::ones(1, 2);
        let _ = layer.forward(&x, true);
        let _ = layer.backward(&g);
        let after_one = layer.grad_weight.clone();
        let _ = layer.forward(&x, true);
        let _ = layer.backward(&g);
        assert!(layer.grad_weight.approx_eq(&after_one.scale(2.0), 1e-5));
        layer.zero_grad();
        assert_eq!(layer.grad_weight.sum(), 0.0);
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
            let mut out = Matrix::filled(1, 1, f32::NAN); // dirty reused buffer
            for r in 0..x.rows() {
                layer.forward_into(MatView::from_row(x.row(r)), &mut out, false);
                assert_eq!(out.row(0), reference.row(r), "{activation:?} row {r}");
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
        let _ = layer.forward(&Matrix::ones(3, 4), false);
        let _ = layer.backward(&Matrix::ones(3, 2));
    }

    #[test]
    #[should_panic(expected = "input features")]
    fn forward_rejects_wrong_width() {
        let mut rng = OrcoRng::from_label("dense-bad", 0);
        let mut layer = Dense::new(4, 2, Activation::Identity, &mut rng);
        let _ = layer.forward(&Matrix::zeros(1, 5), true);
    }

    #[test]
    fn set_parts_replaces_weights() {
        let mut rng = OrcoRng::from_label("dense-set", 0);
        let mut layer = Dense::new(2, 2, Activation::Identity, &mut rng);
        let w = Matrix::identity(2);
        let b = Matrix::zeros(1, 2);
        layer.set_parts(w.clone(), b);
        let x = Matrix::from_vec(1, 2, vec![3.0, -4.0]).unwrap();
        let y = layer.forward(&x, false);
        assert_eq!(y.as_slice(), x.as_slice());
    }
}
