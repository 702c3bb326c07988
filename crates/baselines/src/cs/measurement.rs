//! Random Gaussian measurement matrices (the classical CS encoder Φ).

use orco_tensor::{Matrix, OrcoRng};

/// An `m × n` random Gaussian measurement operator with `N(0, 1/m)` entries
/// (the normalization that makes `Φ` approximately norm-preserving, i.e.
/// satisfy the restricted isometry property with high probability).
#[derive(Debug, Clone)]
pub(crate) struct GaussianMeasurement {
    phi: Matrix,
}

impl GaussianMeasurement {
    /// Samples a measurement matrix.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`, `n == 0`, or `m > n` (measurements must
    /// compress).
    #[must_use]
    pub(crate) fn new(m: usize, n: usize, rng: &mut OrcoRng) -> Self {
        assert!(m > 0 && n > 0, "GaussianMeasurement: zero dimension");
        assert!(m <= n, "GaussianMeasurement: m={m} must be ≤ n={n}");
        let std = (1.0 / m as f32).sqrt();
        let phi = Matrix::from_fn(m, n, |_, _| rng.normal(0.0, std));
        Self { phi }
    }

    /// Number of measurements `m`.
    #[must_use]
    pub(crate) fn measurements(&self) -> usize {
        self.phi.rows()
    }

    /// The matrix Φ.
    #[must_use]
    pub(crate) fn phi(&self) -> &Matrix {
        &self.phi
    }

    /// The effective sensing matrix `A = Φ·Ψ` for a synthesis basis Ψ.
    ///
    /// # Panics
    ///
    /// Panics if `psi.rows() != n`.
    #[must_use]
    pub(crate) fn sensing_matrix(&self, psi: &Matrix) -> Matrix {
        self.phi.matmul(psi)
    }

    /// Measures a signal: `y = Φx` — the reference the codec's batched
    /// encode is checked against.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n`.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn measure(&self, x: &[f32]) -> Vec<f32> {
        let mut y = vec![0.0; self.phi.rows()];
        self.phi.matvec_into(x, &mut y);
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norm_preservation_on_average() {
        let mut rng = OrcoRng::from_label("meas", 0);
        // E‖Φx‖² = ‖x‖² under the 1/m scaling. A single 128×256 draw can
        // deviate by > 20%, so check the mean ratio over several draws.
        let x: Vec<f32> = (0..256).map(|i| ((i * 31 % 17) as f32 / 17.0) - 0.5).collect();
        let nx: f32 = x.iter().map(|v| v * v).sum();
        let trials = 8;
        let mean_ratio: f32 = (0..trials)
            .map(|_| {
                let gm = GaussianMeasurement::new(128, 256, &mut rng);
                let ny: f32 = gm.measure(&x).iter().map(|v| v * v).sum();
                ny / nx
            })
            .sum::<f32>()
            / trials as f32;
        assert!((mean_ratio - 1.0).abs() < 0.2, "mean ratio {mean_ratio}");
    }

    #[test]
    fn deterministic_given_rng() {
        let mut a = OrcoRng::from_label("meas-det", 0);
        let mut b = OrcoRng::from_label("meas-det", 0);
        assert_eq!(
            GaussianMeasurement::new(4, 16, &mut a).phi(),
            GaussianMeasurement::new(4, 16, &mut b).phi()
        );
    }

    #[test]
    #[should_panic(expected = "must be ≤")]
    fn rejects_expanding_measurement() {
        let mut rng = OrcoRng::from_label("meas-bad", 0);
        let _ = GaussianMeasurement::new(20, 10, &mut rng);
    }
}
