//! Gaussian latent-noise injection (paper eq. 2).
//!
//! `Ŷ = Y + N(0, σ²)` — zero-mean so the latent vectors stay unbiased. The
//! orchestrator applies this on the data aggregator before the latent batch
//! is uplinked, so the decoder never sees clean latents during training and
//! learns a wider, more robust mapping (the paper's Fig. 7 sensitivity).

use orco_tensor::{Matrix, OrcoRng};

/// Adds zero-mean Gaussian noise of the given **variance** to a latent
/// batch, returning a new matrix.
///
/// A variance of 0 returns the input unchanged.
///
/// # Panics
///
/// Panics if `variance` is negative or not finite.
#[must_use]
pub(crate) fn add_gaussian(latent: &Matrix, variance: f32, rng: &mut OrcoRng) -> Matrix {
    assert!(variance.is_finite() && variance >= 0.0, "noise variance must be ≥ 0");
    if variance == 0.0 {
        return latent.clone();
    }
    let std = variance.sqrt();
    let mut out = latent.clone();
    for v in out.as_mut_slice() {
        *v += rng.normal(0.0, std);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_variance_is_identity() {
        let mut rng = OrcoRng::from_label("noise-core", 0);
        let y = Matrix::from_fn(4, 8, |r, c| (r + c) as f32);
        assert_eq!(add_gaussian(&y, 0.0, &mut rng), y);
    }

    #[test]
    fn noise_is_zero_mean_with_requested_variance() {
        let mut rng = OrcoRng::from_label("noise-core", 1);
        let y = Matrix::zeros(50, 200);
        let noisy = add_gaussian(&y, 0.36, &mut rng);
        let mean = noisy.mean();
        let var =
            noisy.as_slice().iter().map(|v| (v - mean).powi(2)).sum::<f32>() / noisy.len() as f32;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 0.36).abs() < 0.03, "var {var}");
    }

    #[test]
    fn input_is_not_mutated() {
        let mut rng = OrcoRng::from_label("noise-core", 2);
        let y = Matrix::ones(2, 4);
        let _ = add_gaussian(&y, 0.5, &mut rng);
        assert_eq!(y, Matrix::ones(2, 4));
    }

    #[test]
    #[should_panic(expected = "variance")]
    fn rejects_negative_variance() {
        let mut rng = OrcoRng::from_label("noise-core", 3);
        let _ = add_gaussian(&Matrix::zeros(1, 1), -1.0, &mut rng);
    }
}
