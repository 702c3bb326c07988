//! Centre-crop layer.
//!
//! DCSNet's 1024-element latent reshapes to a 1×32×32 feature map; after
//! the convolutional stack the output is 32×32, but MNIST frames are 28×28.
//! `Crop2d` takes the centre window (identity when sizes match, as for
//! 32×32 GTSRB), and its backward pass zero-pads gradients back out.

use orco_nn::{Layer, Param, Workspace};
use orco_tensor::{MatView, Matrix};

/// Centre-crops `(C, in, in)` feature maps to `(C, out, out)`.
#[derive(Debug, Clone)]
pub(crate) struct Crop2d {
    channels: usize,
    in_side: usize,
    out_side: usize,
}

impl Crop2d {
    /// Creates a crop layer.
    ///
    /// # Panics
    ///
    /// Panics if `out_side > in_side` or either is zero.
    #[must_use]
    pub(crate) fn new(channels: usize, in_side: usize, out_side: usize) -> Self {
        assert!(channels > 0 && in_side > 0 && out_side > 0, "Crop2d: zero dimension");
        assert!(out_side <= in_side, "Crop2d: cannot crop {in_side} up to {out_side}");
        Self { channels, in_side, out_side }
    }

    /// The window, one row of `out_side` cells at a time: where the row
    /// starts in a cropped sample and where in an uncropped one.
    fn window_rows(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let m = (self.in_side - self.out_side) / 2;
        (0..self.channels * self.out_side).map(move |cy| {
            let (c, y) = (cy / self.out_side, cy % self.out_side);
            (cy * self.out_side, (c * self.in_side + y + m) * self.in_side + m)
        })
    }
}

impl Layer for Crop2d {
    /// Needs no scratch.
    fn infer_into(&self, x: MatView<'_>, out: &mut Matrix, _: &mut Workspace) {
        assert_eq!(x.cols(), self.input_dim(), "Crop2d::forward_into: width mismatch");
        out.reset(x.rows(), self.output_dim());
        for (r, sample) in x.iter_rows().enumerate() {
            let dst = out.row_mut(r);
            for (i, o) in self.window_rows() {
                dst[i..i + self.out_side].copy_from_slice(&sample[o..o + self.out_side]);
            }
        }
    }

    // The backward pass needs only the geometry, so neither mode keeps anything.
    fn forward_into(&mut self, x: MatView<'_>, out: &mut Matrix, _: bool) {
        self.infer_into(x, out, &mut Workspace::default());
    }

    /// Zero-pads the gradient back out to the uncropped map. There are no
    /// parameters, so without a `grad_in` only the check remains.
    fn backward_into(&mut self, grad_out: MatView<'_>, grad_in: Option<&mut Matrix>) {
        assert_eq!(grad_out.cols(), self.output_dim(), "Crop2d::backward: width mismatch");
        let Some(grad_in) = grad_in else { return };
        grad_in.reset(grad_out.rows(), self.input_dim());
        for (r, g) in grad_out.iter_rows().enumerate() {
            let dst = grad_in.row_mut(r);
            for (i, o) in self.window_rows() {
                dst[o..o + self.out_side].copy_from_slice(&g[i..i + self.out_side]);
            }
        }
    }

    fn for_each_param<'a>(&'a mut self, _: &mut dyn FnMut(Param<'a>)) {}

    fn input_dim(&self) -> usize {
        self.channels * self.in_side * self.in_side
    }

    fn output_dim(&self) -> usize {
        self.channels * self.out_side * self.out_side
    }

    fn flops_forward(&self) -> u64 {
        self.output_dim() as u64
    }

    fn name(&self) -> &'static str {
        "crop2d"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_crop_is_noop() {
        let mut crop = Crop2d::new(2, 3, 3);
        let x = Matrix::from_fn(2, 18, |r, c| (r * 18 + c) as f32);
        assert_eq!(crop.forward(&x, true), x);
        assert_eq!(crop.backward(&x), x);
    }

    #[test]
    fn crop_then_pad_is_projection() {
        let mut crop = Crop2d::new(1, 6, 4);
        let x = Matrix::from_fn(1, 36, |_, c| c as f32 + 1.0);
        let y = crop.forward(&x, false);
        assert_eq!(y.cols(), 16);
        let back = crop.backward(&y);
        assert_eq!(back.cols(), 36);
        // Padding ring is zero; interior matches.
        assert_eq!(back.as_slice()[0], 0.0);
        let again = crop.forward(&back, false);
        assert_eq!(again, y);
    }

    #[test]
    fn adjoint_identity_holds() {
        // ⟨crop(x), g⟩ == ⟨x, crop_backward(g)⟩
        let mut crop = Crop2d::new(1, 5, 3);
        let x = Matrix::from_fn(1, 25, |_, c| ((c * 13 % 7) as f32) - 3.0);
        let g = Matrix::from_fn(1, 9, |_, c| ((c * 5 % 11) as f32) - 5.0);
        let dot = |a: &Matrix, b: &Matrix| -> f32 {
            a.as_slice().iter().zip(b.as_slice()).map(|(p, q)| p * q).sum()
        };
        let lhs = dot(&crop.forward(&x, false), &g);
        let rhs = dot(&x, &crop.backward(&g));
        assert!((lhs - rhs).abs() < 1e-4);
    }

    #[test]
    fn backward_into_overwrites_a_dirty_buffer_and_skips_without_one() {
        let mut crop = Crop2d::new(2, 5, 3);
        let g = Matrix::from_fn(3, 18, |r, c| ((r * 18 + c) as f32 * 0.3).sin());
        let want = crop.backward(&g);
        let mut grad_in = Matrix::from_fn(2, 3, |_, _| f32::NAN);
        for _ in 0..2 {
            crop.backward_into(g.as_view(), Some(&mut grad_in));
            assert_eq!(grad_in, want);
        }
        // No parameters and no consumer: nothing to do, nothing to panic on.
        crop.backward_into(g.as_view(), None);
        assert!(crop.params().is_empty());
    }

    #[test]
    #[should_panic(expected = "cannot crop")]
    fn rejects_upcrop() {
        let _ = Crop2d::new(1, 3, 5);
    }

    #[test]
    fn mnist_geometry() {
        let crop = Crop2d::new(1, 32, 28);
        assert_eq!(crop.input_dim(), 1024);
        assert_eq!(crop.output_dim(), 784);
    }
}
