//! Descriptive statistics and image-quality metrics.
//!
//! The figure harnesses report reconstruction quality via [`psnr`] and a
//! luminance-only structural-similarity proxy [`ssim_global`].

use crate::matrix::Matrix;

/// Mean of a slice (0 for empty input).
#[must_use]
pub fn mean(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f32>() / xs.len() as f32
    }
}

/// Population variance of a slice (0 for empty input).
#[must_use]
pub(crate) fn variance(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|v| (v - m).powi(2)).sum::<f32>() / xs.len() as f32
}

/// Population covariance of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[must_use]
pub(crate) fn covariance(xs: &[f32], ys: &[f32]) -> f32 {
    assert_eq!(xs.len(), ys.len(), "covariance: length mismatch");
    if xs.is_empty() {
        return 0.0;
    }
    let mx = mean(xs);
    let my = mean(ys);
    xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum::<f32>() / xs.len() as f32
}

/// Mean squared error between two equal-length slices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[must_use]
pub fn mse(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "mse: length mismatch");
    if a.is_empty() {
        return 0.0;
    }
    a.iter().zip(b).map(|(x, y)| (x - y).powi(2)).sum::<f32>() / a.len() as f32
}

/// Peak signal-to-noise ratio in dB for signals on the given peak scale.
///
/// Returns `f32::INFINITY` for identical inputs.
///
/// # Panics
///
/// Panics if the slices have different lengths or `peak <= 0`.
#[must_use]
pub fn psnr(original: &[f32], reconstructed: &[f32], peak: f32) -> f32 {
    assert!(peak > 0.0, "psnr: peak must be positive");
    let e = mse(original, reconstructed);
    if e == 0.0 {
        f32::INFINITY
    } else {
        10.0 * (peak * peak / e).log10()
    }
}

/// Global (single-window) SSIM between two images on the given peak scale.
///
/// This is the standard SSIM formula evaluated over the whole image rather
/// than a sliding window — a cheap proxy adequate for ranking reconstruction
/// quality in the figure harnesses.
///
/// # Panics
///
/// Panics if the slices have different lengths or `peak <= 0`.
#[must_use]
pub fn ssim_global(a: &[f32], b: &[f32], peak: f32) -> f32 {
    assert_eq!(a.len(), b.len(), "ssim_global: length mismatch");
    assert!(peak > 0.0, "ssim_global: peak must be positive");
    let c1 = (0.01 * peak).powi(2);
    let c2 = (0.03 * peak).powi(2);
    let ma = mean(a);
    let mb = mean(b);
    let va = variance(a);
    let vb = variance(b);
    let cov = covariance(a, b);
    ((2.0 * ma * mb + c1) * (2.0 * cov + c2)) / ((ma * ma + mb * mb + c1) * (va + vb + c2))
}

/// Per-row PSNR of two matrices holding one sample per row.
///
/// # Panics
///
/// Panics if shapes differ.
#[must_use]
pub fn psnr_rows(original: &Matrix, reconstructed: &Matrix, peak: f32) -> Vec<f32> {
    assert_eq!(original.shape(), reconstructed.shape(), "psnr_rows: shape mismatch");
    original.iter_rows().zip(reconstructed.iter_rows()).map(|(a, b)| psnr(a, b, peak)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_known() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), 5.0);
        assert_eq!(variance(&xs), 4.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn covariance_of_identical_is_variance() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((covariance(&xs, &xs) - variance(&xs)).abs() < 1e-6);
    }

    #[test]
    fn psnr_identical_is_infinite() {
        let xs = [0.1, 0.5, 0.9];
        assert!(psnr(&xs, &xs, 1.0).is_infinite());
    }

    #[test]
    fn psnr_known_value() {
        // MSE = 0.01, peak 1 → PSNR = 20 dB.
        let a = [0.0, 0.0];
        let b = [0.1, 0.1];
        assert!((psnr(&a, &b, 1.0) - 20.0).abs() < 1e-4);
    }

    #[test]
    fn psnr_decreases_with_noise() {
        let orig = vec![0.5; 100];
        let slightly: Vec<f32> = orig.iter().map(|v| v + 0.01).collect();
        let very: Vec<f32> = orig.iter().map(|v| v + 0.2).collect();
        assert!(psnr(&orig, &slightly, 1.0) > psnr(&orig, &very, 1.0));
    }

    #[test]
    fn ssim_bounds() {
        let a: Vec<f32> = (0..64).map(|v| (v as f32) / 64.0).collect();
        assert!((ssim_global(&a, &a, 1.0) - 1.0).abs() < 1e-6);
        let b: Vec<f32> = a.iter().map(|v| 1.0 - v).collect();
        let s = ssim_global(&a, &b, 1.0);
        assert!(s < 0.5, "anticorrelated images should score low, got {s}");
    }

    #[test]
    fn psnr_rows_shape() {
        let a = Matrix::from_fn(3, 4, |_, _| 1.0);
        let b = a.map(|v| v * 0.9);
        let p = psnr_rows(&a, &b, 1.0);
        assert_eq!(p.len(), 3);
        assert!((p[0] - p[2]).abs() < 1e-6);
    }
}
