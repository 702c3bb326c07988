//! Gaussian latent-noise injection (paper eq. 2).
//!
//! `Ŷ = Y + N(0, σ²)` — zero-mean so the latent vectors stay unbiased. The
//! orchestrator applies this on the data aggregator before the latent batch
//! is uplinked, so the decoder never sees clean latents during training and
//! learns a wider, more robust mapping (the paper's Fig. 7 sensitivity).

use orco_tensor::{Matrix, OrcoRng};

/// Adds zero-mean Gaussian noise of the given **variance** to a latent
/// batch in place, one draw per element in row-major order.
///
/// A variance of 0 leaves the batch as it is and draws nothing.
///
/// # Panics
///
/// Panics if `variance` is negative or not finite.
pub(crate) fn add_gaussian(latent: &mut Matrix, variance: f32, rng: &mut OrcoRng) {
    assert!(variance.is_finite() && variance >= 0.0, "noise variance must be ≥ 0");
    if variance == 0.0 {
        return;
    }
    rng.add_normal(latent.as_mut_slice(), 0.0, variance.sqrt());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_variance_is_identity_and_draws_nothing() {
        let mut rng = OrcoRng::from_label("noise-core", 0);
        let y = Matrix::from_fn(4, 8, |r, c| (r + c) as f32);
        let mut same = y.clone();
        add_gaussian(&mut same, 0.0, &mut rng);
        assert_eq!(same, y);
        assert_eq!(rng.normal(0.0, 1.0), OrcoRng::from_label("noise-core", 0).normal(0.0, 1.0));
    }

    #[test]
    fn noise_is_zero_mean_with_requested_variance() {
        let mut rng = OrcoRng::from_label("noise-core", 1);
        let mut noisy = Matrix::zeros(50, 200);
        add_gaussian(&mut noisy, 0.36, &mut rng);
        let mean = noisy.mean();
        let var =
            noisy.as_slice().iter().map(|v| (v - mean).powi(2)).sum::<f32>() / noisy.len() as f32;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 0.36).abs() < 0.03, "var {var}");
    }

    #[test]
    fn each_element_takes_the_next_draw_in_row_major_order() {
        let mut rng = OrcoRng::from_label("noise-core", 2);
        let mut draws = rng.clone();
        let y = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f32);
        let mut noisy = y.clone();
        add_gaussian(&mut noisy, 0.25, &mut rng);
        for (n, v) in noisy.as_slice().iter().zip(y.as_slice()) {
            assert_eq!(*n, v + draws.normal(0.0, 0.5));
        }
    }

    #[test]
    #[should_panic(expected = "variance")]
    fn rejects_negative_variance() {
        let mut rng = OrcoRng::from_label("noise-core", 3);
        add_gaussian(&mut Matrix::zeros(1, 1), -1.0, &mut rng);
    }
}
