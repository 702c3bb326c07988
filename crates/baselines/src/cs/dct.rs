//! 2-D discrete cosine transform (the sparsifying basis Ψ).

use orco_tensor::Matrix;

/// An orthonormal 2-D DCT over `side`×`side` single-channel images.
///
/// Natural images are approximately sparse in this basis, which is what
/// classical CS reconstruction exploits.
#[derive(Debug, Clone)]
pub(crate) struct Dct2 {
    side: usize,
    basis: Matrix, // orthonormal 1-D DCT-II matrix, (side, side)
}

impl Dct2 {
    /// Builds the transform for `side`×`side` images.
    ///
    /// # Panics
    ///
    /// Panics if `side == 0`.
    #[must_use]
    pub(crate) fn new(side: usize) -> Self {
        assert!(side > 0, "Dct2: side must be non-zero");
        let n = side as f32;
        let basis = Matrix::from_fn(side, side, |k, i| {
            let scale = if k == 0 { (1.0 / n).sqrt() } else { (2.0 / n).sqrt() };
            scale * (std::f32::consts::PI * (i as f32 + 0.5) * k as f32 / n).cos()
        });
        Self { side, basis }
    }

    /// Inverse 2-D DCT: coefficients → image.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != side²`.
    #[must_use]
    pub(crate) fn inverse(&self, coeffs: &[f32]) -> Vec<f32> {
        let c = Matrix::from_vec(self.side, self.side, coeffs.to_vec())
            .expect("Dct2::inverse: coefficient length must be side²");
        // X = Bᵀ · C · B
        self.basis.t_matmul(&c).matmul(&self.basis).into_vec()
    }

    /// The full `side²`×`side²` synthesis matrix `Ψ` such that
    /// `image = Ψ · coeffs` (materialized for solver use).
    ///
    /// Column `k` of `Ψ` is the image of the `k`-th canonical coefficient.
    #[must_use]
    pub(crate) fn synthesis_matrix(&self) -> Matrix {
        let n = self.side * self.side;
        let mut psi = Matrix::zeros(n, n);
        let mut unit = vec![0.0f32; n];
        for k in 0..n {
            unit[k] = 1.0;
            let img = self.inverse(&unit);
            for (r, &v) in img.iter().enumerate() {
                psi.set(r, k, v);
            }
            unit[k] = 0.0;
        }
        psi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Image → coefficients through `Ψᵀ` (Ψ is orthonormal, so its
    /// transpose is the analysis transform).
    fn analyse(dct: &Dct2, img: &[f32]) -> Vec<f32> {
        let mut coeffs = vec![0.0; img.len()];
        dct.synthesis_matrix().t_matvec_into(img, &mut coeffs);
        coeffs
    }

    #[test]
    fn basis_is_orthonormal() {
        let dct = Dct2::new(8);
        let eye = dct.basis.matmul(&dct.basis.transpose());
        let identity = Matrix::from_fn(8, 8, |r, c| if r == c { 1.0 } else { 0.0 });
        assert!(eye.max_abs_diff(&identity) <= 1e-5);
    }

    #[test]
    fn roundtrip_is_exact() {
        let dct = Dct2::new(16);
        let img: Vec<f32> = (0..256).map(|i| ((i * 7 % 13) as f32) / 13.0).collect();
        let back = dct.inverse(&analyse(&dct, &img));
        for (a, b) in img.iter().zip(&back) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn constant_image_concentrates_in_dc() {
        let dct = Dct2::new(8);
        let img = vec![1.0f32; 64];
        let coeffs = analyse(&dct, &img);
        // All energy at (0,0); everything else ~0.
        assert!(coeffs[0].abs() > 7.9);
        assert!(coeffs[1..].iter().all(|c| c.abs() < 1e-4));
    }

    #[test]
    fn smooth_images_are_sparse() {
        // A smooth gradient should compact most energy into few coefficients.
        let dct = Dct2::new(16);
        let img: Vec<f32> = (0..256).map(|i| (i / 16) as f32 / 16.0).collect();
        let coeffs = analyse(&dct, &img);
        let total: f32 = coeffs.iter().map(|c| c * c).sum();
        let mut sorted: Vec<f32> = coeffs.iter().map(|c| c * c).collect();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let top8: f32 = sorted.iter().take(8).sum();
        assert!(top8 / total > 0.99, "top-8 energy fraction {}", top8 / total);
    }

    #[test]
    fn synthesis_matrix_matches_inverse() {
        let dct = Dct2::new(4);
        let psi = dct.synthesis_matrix();
        let coeffs: Vec<f32> = (0..16).map(|i| (i as f32 * 0.3).cos()).collect();
        let mut via_matrix = vec![0.0; 16];
        psi.matvec_into(&coeffs, &mut via_matrix);
        let via_inverse = dct.inverse(&coeffs);
        for (a, b) in via_matrix.iter().zip(&via_inverse) {
            assert!((a - b).abs() < 1e-4);
        }
    }
}
