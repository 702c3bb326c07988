//! Lowering of 2-D convolutions to matrix products.
//!
//! [`im2col`] unrolls every receptive field of an input image into one
//! column of a patch matrix, so a convolution becomes a single GEMM with the
//! kernel matrix; [`col2im_into`] is its adjoint, scattering column
//! gradients back onto the image. Both directions share a [`Conv2dGeom`]
//! describing kernel size, stride, and zero padding, and each has one body
//! — [`im2col_into`] / [`col2im_into`], over caller-owned slices a layer
//! reuses from sample to sample; [`im2col`] is a fresh buffer around its
//! body.
//!
//! The pair satisfies the adjoint identity
//! `⟨im2col(x), p⟩ = ⟨x, col2im(p)⟩`, which the property tests in this
//! module exercise — that identity is exactly what makes the convolution
//! backward pass correct.

use crate::matrix::Matrix;

/// Geometry of a 2-D convolution: input extent, kernel, stride and padding.
///
/// # Examples
///
/// ```
/// use orco_tensor::Conv2dGeom;
///
/// let g = Conv2dGeom::new(1, 28, 28, 3, 1, 1);
/// assert_eq!(g.out_h(), 28);
/// assert_eq!(g.out_w(), 28);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dGeom {
    /// Input channels.
    pub in_c: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Square kernel side length.
    pub kernel: usize,
    /// Stride in both spatial directions.
    pub stride: usize,
    /// Zero padding on every side.
    pub pad: usize,
}

impl Conv2dGeom {
    /// Creates a geometry descriptor.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero, or if the padded input is
    /// smaller than the kernel.
    #[must_use]
    pub fn new(
        in_c: usize,
        in_h: usize,
        in_w: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
    ) -> Self {
        assert!(kernel > 0, "kernel must be non-zero");
        assert!(stride > 0, "stride must be non-zero");
        assert!(
            in_h + 2 * pad >= kernel && in_w + 2 * pad >= kernel,
            "padded input {}x{} smaller than kernel {}",
            in_h + 2 * pad,
            in_w + 2 * pad,
            kernel
        );
        Self { in_c, in_h, in_w, kernel, stride, pad }
    }

    /// Output height after convolving.
    #[must_use]
    pub fn out_h(&self) -> usize {
        (self.in_h + 2 * self.pad - self.kernel) / self.stride + 1
    }

    /// Output width after convolving.
    #[must_use]
    pub fn out_w(&self) -> usize {
        (self.in_w + 2 * self.pad - self.kernel) / self.stride + 1
    }

    /// Number of spatial output positions (`out_h * out_w`).
    #[must_use]
    pub fn out_positions(&self) -> usize {
        self.out_h() * self.out_w()
    }

    /// Length of one unrolled patch (`in_c * kernel * kernel`).
    #[must_use]
    pub fn patch_len(&self) -> usize {
        self.in_c * self.kernel * self.kernel
    }

    /// Elements in one input sample (`in_c * in_h * in_w`).
    #[must_use]
    pub fn input_len(&self) -> usize {
        self.in_c * self.in_h * self.in_w
    }

    /// The outputs `o` along one axis whose tap `k_off` reads a real
    /// pixel — `0 <= o·stride + k_off − pad < in_extent` — as `(first,
    /// end)`; `first == end` when the tap only ever sees padding.
    fn valid_outputs(&self, k_off: usize, in_extent: usize, out_extent: usize) -> (usize, usize) {
        let end = (in_extent + self.pad).saturating_sub(k_off).div_ceil(self.stride);
        let end = end.min(out_extent);
        (self.pad.saturating_sub(k_off).div_ceil(self.stride).min(end), end)
    }
}

/// Unrolls one flattened `(C, H, W)` sample into a patch matrix.
///
/// The result has [`Conv2dGeom::patch_len`] rows and
/// [`Conv2dGeom::out_positions`] columns: column `p` holds the receptive
/// field feeding output position `p` (row-major over output space), with
/// zeros where the field overlaps the padding.
///
/// # Panics
///
/// Panics if `input.len() != geom.input_len()`.
#[must_use]
pub fn im2col(input: &[f32], geom: &Conv2dGeom) -> Matrix {
    let mut out = Matrix::zeros(geom.patch_len(), geom.out_positions());
    im2col_into(input, geom, out.as_mut_slice());
    out
}

/// [`im2col`] into a caller-owned row-major `(patch_len, out_positions)`
/// buffer. Every element is written — padding as `0.0` — so the buffer
/// may be dirty.
///
/// Patch row `(c, kh, kw)` is channel `c` shifted by `(kh, kw)`: the
/// output rows and columns that read a real pixel are found once per patch
/// row and each image row moves as one slice.
///
/// # Panics
///
/// Panics if `input.len() != geom.input_len()` or
/// `out.len() != geom.patch_len() * geom.out_positions()`.
pub fn im2col_into(input: &[f32], geom: &Conv2dGeom, out: &mut [f32]) {
    assert_eq!(input.len(), geom.input_len(), "im2col: input length mismatch");
    let (oh, ow, k, stride) = (geom.out_h(), geom.out_w(), geom.kernel, geom.stride);
    assert_eq!(out.len(), geom.patch_len() * oh * ow, "im2col: patch buffer length mismatch");
    for (patch_row, dst) in out.chunks_exact_mut(oh * ow).enumerate() {
        let (c, kh, kw) = (patch_row / (k * k), patch_row / k % k, patch_row % k);
        let (oy0, oy1) = geom.valid_outputs(kh, geom.in_h, oh);
        let (ox0, ox1) = geom.valid_outputs(kw, geom.in_w, ow);
        if oy0 == oy1 || ox0 == ox1 {
            dst.fill(0.0);
            continue;
        }
        let ix0 = ox0 * stride + kw - geom.pad;
        dst[..oy0 * ow].fill(0.0);
        dst[oy1 * ow..].fill(0.0);
        for (oy, dst) in dst.chunks_exact_mut(ow).enumerate().take(oy1).skip(oy0) {
            let iy = oy * stride + kh - geom.pad;
            let src = &input[(c * geom.in_h + iy) * geom.in_w..][..geom.in_w];
            dst[..ox0].fill(0.0);
            dst[ox1..].fill(0.0);
            let dst = &mut dst[ox0..ox1];
            if stride == 1 {
                dst.copy_from_slice(&src[ix0..ix0 + dst.len()]);
            } else {
                for (d, &v) in dst.iter_mut().zip(src[ix0..].iter().step_by(stride)) {
                    *d = v;
                }
            }
        }
    }
}

/// Scatters a row-major `(patch_len, out_positions)` patch slice back onto
/// a caller-owned flattened `(C, H, W)` image, accumulating overlapping
/// contributions — the adjoint of [`im2col`]. The image is zeroed first,
/// so it may be dirty.
///
/// A pixel takes at most one term from each patch row, and patch rows are
/// walked in ascending `(c, kh, kw)`: every pixel is one accumulator from
/// `+0.0` over its taps in ascending `(kh, kw)`.
///
/// # Panics
///
/// Panics if `patches.len() != geom.patch_len() * geom.out_positions()` or
/// `img.len() != geom.input_len()`.
pub fn col2im_into(patches: &[f32], geom: &Conv2dGeom, img: &mut [f32]) {
    let (oh, ow, k, stride) = (geom.out_h(), geom.out_w(), geom.kernel, geom.stride);
    assert_eq!(patches.len(), geom.patch_len() * oh * ow, "col2im: patch buffer length mismatch");
    assert_eq!(img.len(), geom.input_len(), "col2im: image length mismatch");
    img.fill(0.0);
    for (patch_row, src) in patches.chunks_exact(oh * ow).enumerate() {
        let (c, kh, kw) = (patch_row / (k * k), patch_row / k % k, patch_row % k);
        let (oy0, oy1) = geom.valid_outputs(kh, geom.in_h, oh);
        let (ox0, ox1) = geom.valid_outputs(kw, geom.in_w, ow);
        if oy0 == oy1 || ox0 == ox1 {
            continue;
        }
        let ix0 = ox0 * stride + kw - geom.pad;
        for (oy, src) in src.chunks_exact(ow).enumerate().take(oy1).skip(oy0) {
            let iy = oy * stride + kh - geom.pad;
            let dst = &mut img[(c * geom.in_h + iy) * geom.in_w..][..geom.in_w];
            let src = &src[ox0..ox1];
            if stride == 1 {
                for (d, &v) in dst[ix0..ix0 + src.len()].iter_mut().zip(src) {
                    *d += v;
                }
            } else {
                for (d, &v) in dst[ix0..].iter_mut().step_by(stride).zip(src) {
                    *d += v;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_basics() {
        let g = Conv2dGeom::new(3, 32, 32, 5, 1, 2);
        assert_eq!(g.out_h(), 32);
        assert_eq!(g.out_w(), 32);
        assert_eq!(g.patch_len(), 75);
        let s = Conv2dGeom::new(1, 28, 28, 3, 2, 0);
        assert_eq!(s.out_h(), 13);
    }

    #[test]
    #[should_panic(expected = "kernel")]
    fn zero_kernel_rejected() {
        let _ = Conv2dGeom::new(1, 4, 4, 0, 1, 0);
    }

    #[test]
    fn im2col_identity_kernel_1x1() {
        // 1x1 kernel, stride 1, no pad: patch matrix == input as a row.
        let g = Conv2dGeom::new(1, 2, 3, 1, 1, 0);
        let input: Vec<f32> = (1..=6).map(|v| v as f32).collect();
        let p = im2col(&input, &g);
        assert_eq!(p.shape(), (1, 6));
        assert_eq!(p.row(0), &input[..]);
    }

    #[test]
    fn im2col_known_3x3() {
        // 3x3 input, 2x2 kernel, stride 1, no pad → 4 patches.
        let g = Conv2dGeom::new(1, 3, 3, 2, 1, 0);
        let input: Vec<f32> = (1..=9).map(|v| v as f32).collect();
        let p = im2col(&input, &g);
        assert_eq!(p.shape(), (4, 4));
        // First output position's receptive field = [1,2,4,5] down the column.
        assert_eq!(p.col(0), vec![1.0, 2.0, 4.0, 5.0]);
        // Last output position = [5,6,8,9].
        assert_eq!(p.col(3), vec![5.0, 6.0, 8.0, 9.0]);
    }

    #[test]
    fn im2col_padding_inserts_zeros() {
        let g = Conv2dGeom::new(1, 2, 2, 3, 1, 1);
        let input = vec![1.0, 2.0, 3.0, 4.0];
        let p = im2col(&input, &g);
        assert_eq!(p.shape(), (9, 4));
        // The top-left patch's first row is entirely padding.
        assert_eq!(p.col(0)[0], 0.0);
        // Centre of the top-left 3x3 patch is input (0,0) = 1.0.
        assert_eq!(p.col(0)[4], 1.0);
    }

    #[test]
    fn conv_via_gemm_matches_direct() {
        // Convolve a 1x4x4 image with one 3x3 kernel (stride 1, pad 1) two ways.
        let g = Conv2dGeom::new(1, 4, 4, 3, 1, 1);
        let input: Vec<f32> = (0..16).map(|v| v as f32).collect();
        let kernel: Vec<f32> = vec![0.0, 1.0, 0.0, 1.0, -4.0, 1.0, 0.0, 1.0, 0.0]; // laplacian
        let patches = im2col(&input, &g);
        let k = Matrix::row_vector(&kernel);
        let out = k.matmul(&patches);
        assert_eq!(out.shape(), (1, 16));

        // direct convolution
        let mut direct = [0.0f32; 16];
        for oy in 0..4i32 {
            for ox in 0..4i32 {
                let mut acc = 0.0;
                for kh in 0..3i32 {
                    for kw in 0..3i32 {
                        let iy = oy + kh - 1;
                        let ix = ox + kw - 1;
                        if (0..4).contains(&iy) && (0..4).contains(&ix) {
                            acc += kernel[(kh * 3 + kw) as usize] * input[(iy * 4 + ix) as usize];
                        }
                    }
                }
                direct[(oy * 4 + ox) as usize] = acc;
            }
        }
        assert_eq!(out.as_slice(), &direct[..]);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // ⟨im2col(x), p⟩ == ⟨x, col2im(p)⟩ for arbitrary x, p.
        let g = Conv2dGeom::new(2, 5, 4, 3, 2, 1);
        let x: Vec<f32> = (0..g.input_len()).map(|v| (v as f32).sin()).collect();
        let p = Matrix::from_fn(g.patch_len(), g.out_positions(), |r, c| {
            ((r * 31 + c * 17) as f32).cos()
        });
        let ix = im2col(&x, &g);
        let lhs = ix.dot(&p);
        let mut scattered = vec![f32::NAN; g.input_len()];
        col2im_into(p.as_slice(), &g, &mut scattered);
        let rhs: f32 = x.iter().zip(&scattered).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-3, "adjoint identity violated: {lhs} vs {rhs}");
    }
}
