use orco_tensor::{col2im, im2col, init::Init, Conv2dGeom, MatView, Matrix, OrcoRng};

use crate::activation::Activation;
use crate::layer::{Layer, Param};

/// A 2-D convolutional layer lowered to GEMM via im2col.
///
/// Inputs and outputs are [`Matrix`] batches with one flattened
/// `(C, H, W)` sample per row; the layer carries its own geometry so it can
/// be composed inside a [`crate::Sequential`] next to dense layers. DCSNet's
/// 4-convolutional-layer decoder and the follow-up 2-layer CNN classifier
/// are built from this type.
///
/// Kernels are stored as a `(out_c, in_c·k·k)` matrix so the forward pass on
/// one sample is a single `kernels × patches` product.
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
    // im2col patches (one matrix per sample) and pre-activation
    // (batch, out_c*out_h*out_w) of the latest training-mode forward.
    cached_patches: Vec<Matrix>,
    cached_pre: Option<Matrix>,
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
    #[allow(clippy::too_many_arguments)]
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
            Activation::Relu | Activation::LeakyRelu(_) => Init::HeNormal,
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
            cached_patches: Vec::new(),
            cached_pre: None,
        }
    }

    /// The convolution geometry.
    #[must_use]
    pub fn geom(&self) -> &Conv2dGeom {
        &self.geom
    }

    /// Output spatial shape `(out_c, out_h, out_w)`.
    #[must_use]
    pub fn output_shape(&self) -> (usize, usize, usize) {
        (self.out_c, self.geom.out_h(), self.geom.out_w())
    }
}

impl Layer for Conv2d {
    fn forward_into(&mut self, x: MatView<'_>, out: &mut Matrix, train: bool) {
        assert_eq!(
            x.cols(),
            self.geom.input_len(),
            "Conv2d::forward_into: input features {} != expected {}",
            x.cols(),
            self.geom.input_len()
        );
        let positions = self.geom.out_positions();
        out.reset(x.rows(), self.out_c * positions);
        if train {
            self.cached_patches.clear();
        }
        for (i, sample) in x.iter_rows().enumerate() {
            let patches = im2col(sample, &self.geom); // (patch_len, positions)
            let conv = self.kernels.matmul(&patches); // (out_c, positions)
            let row = out.row_mut(i);
            for c in 0..self.out_c {
                let b = self.bias.row(0)[c];
                for (p, &v) in conv.row(c).iter().enumerate() {
                    row[c * positions + p] = v + b;
                }
            }
            if train {
                self.cached_patches.push(patches);
            }
        }
        if train {
            self.cached_pre.get_or_insert_with(|| Matrix::zeros(0, 0)).copy_from(out.as_view());
        }
        self.activation.apply_inplace(out);
    }

    fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let pre = self.cached_pre.as_ref().expect("Conv2d::backward: no training-mode forward");
        assert_eq!(grad_output.shape(), pre.shape(), "Conv2d::backward: grad shape mismatch");
        let positions = self.geom.out_positions();
        let batch = grad_output.rows();
        assert_eq!(self.cached_patches.len(), batch, "Conv2d::backward: stale forward cache");

        let delta_all = grad_output.hadamard(&self.activation.derivative_matrix(pre));
        let mut grad_input = Matrix::zeros(batch, self.geom.input_len());

        for i in 0..batch {
            // δ for this sample as (out_c, positions)
            let delta = Matrix::from_vec(self.out_c, positions, delta_all.row(i).to_vec())
                .expect("delta reshape is consistent");
            let patches = &self.cached_patches[i];
            // ∂L/∂K = δ · patchesᵀ   (out_c, patch_len)
            self.grad_kernels += &delta.matmul_t(patches);
            // ∂L/∂b = per-channel sums of δ
            let bias_grad = Matrix::row_vector(&delta.row_sums());
            self.grad_bias += &bias_grad;
            // ∂L/∂patches = Kᵀ · δ  (patch_len, positions), then scatter.
            let grad_patches = self.kernels.t_matmul(&delta);
            let img = col2im(&grad_patches, &self.geom);
            grad_input.row_mut(i).copy_from_slice(&img);
        }
        grad_input
    }

    fn params(&mut self) -> Vec<Param<'_>> {
        vec![
            Param { value: &mut self.kernels, grad: &mut self.grad_kernels },
            Param { value: &mut self.bias, grad: &mut self.grad_bias },
        ]
    }

    fn zero_grad(&mut self) {
        self.grad_kernels.map_inplace(|_| 0.0);
        self.grad_bias.map_inplace(|_| 0.0);
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
    use crate::layer::tests::assert_inference_leaves_the_round_alone;

    #[test]
    fn forward_shape_and_padding() {
        let mut rng = OrcoRng::from_label("conv-shape", 0);
        let mut conv = Conv2d::new(3, 8, 8, 4, 3, 1, 1, Activation::Identity, &mut rng);
        let x = Matrix::zeros(2, 3 * 8 * 8);
        let y = conv.forward(&x, true);
        assert_eq!(y.shape(), (2, 4 * 8 * 8));
        assert_eq!(conv.output_shape(), (4, 8, 8));
    }

    #[test]
    fn stride_halves_resolution() {
        let mut rng = OrcoRng::from_label("conv-stride", 0);
        let conv = Conv2d::new(1, 8, 8, 2, 2, 2, 0, Activation::Relu, &mut rng);
        assert_eq!(conv.output_shape(), (2, 4, 4));
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
        assert!(y.approx_eq(&Matrix::from_vec(1, 4, vec![3.0, 4.0, 6.0, 7.0]).unwrap(), 1e-5));
    }

    #[test]
    fn backward_shapes_and_accumulation() {
        let mut rng = OrcoRng::from_label("conv-back", 0);
        let mut conv = Conv2d::new(2, 5, 5, 3, 3, 1, 1, Activation::Sigmoid, &mut rng);
        let x = Matrix::from_fn(2, 2 * 25, |r, c| ((r * 7 + c) as f32 * 0.01).sin());
        let y = conv.forward(&x, true);
        let gi = conv.backward(&Matrix::ones(2, y.cols()));
        assert_eq!(gi.shape(), x.shape());
        let g1 = conv.grad_kernels.clone();
        let _ = conv.forward(&x, true);
        let _ = conv.backward(&Matrix::ones(2, y.cols()));
        assert!(conv.grad_kernels.approx_eq(&g1.scale(2.0), 1e-4));
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
        assert!(conv.cached_patches.is_empty() && conv.cached_pre.is_none());
    }

    #[test]
    #[should_panic(expected = "Conv2d::backward: no training-mode forward")]
    fn backward_after_only_an_inference_forward_panics() {
        let mut rng = OrcoRng::from_label("conv-no-train", 0);
        let mut conv = Conv2d::new(1, 3, 3, 1, 2, 1, 0, Activation::Identity, &mut rng);
        let _ = conv.forward(&Matrix::ones(2, 9), false);
        let _ = conv.backward(&Matrix::ones(2, 4));
    }

    #[test]
    fn param_count() {
        let mut rng = OrcoRng::from_label("conv-count", 0);
        let conv = Conv2d::new(3, 32, 32, 16, 5, 1, 2, Activation::Relu, &mut rng);
        assert_eq!(conv.param_count(), 16 * 75 + 16);
    }
}
