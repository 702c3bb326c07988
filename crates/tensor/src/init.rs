//! Weight initialization schemes for neural-network layers.
//!
//! The OrcoDCS encoder/decoder and the baselines all initialize their weight
//! matrices through this module so experiments are reproducible: every
//! scheme takes an explicit [`OrcoRng`].

use crate::matrix::Matrix;
use crate::rng::OrcoRng;

/// Weight initialization scheme.
///
/// # Examples
///
/// ```
/// use orco_tensor::{init::Init, OrcoRng};
///
/// let mut rng = OrcoRng::from_label("doc", 0);
/// let w = Init::XavierUniform.matrix(64, 128, &mut rng);
/// assert_eq!(w.shape(), (64, 128));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Init {
    /// Uniform in `[-limit, limit]` with `limit = sqrt(6 / (fan_in + fan_out))`
    /// (Glorot & Bengio 2010). Suits sigmoid/tanh layers — the paper's
    /// encoder/decoder use sigmoid activations.
    XavierUniform,
    /// Normal with `std = sqrt(2 / fan_in)` (He et al. 2015). Suits ReLU
    /// layers — used in the conv stacks of DCSNet and the classifier.
    HeNormal,
}

impl Init {
    /// Materializes a `rows`×`cols` weight matrix, with `cols` as fan-in
    /// and `rows` as fan-out, matching the `output = W · input` convention
    /// used by the dense layers in `orco-nn`.
    #[must_use]
    pub fn matrix(self, rows: usize, cols: usize, rng: &mut OrcoRng) -> Matrix {
        self.matrix_with_fans(rows, cols, cols, rows, rng)
    }

    /// Materializes weights with explicit fan-in/fan-out, for layers whose
    /// matrix shape does not equal `(fan_out, fan_in)` — e.g. convolution
    /// kernels stored as `(out_c, in_c*k*k)` where fan-in is `in_c*k*k`.
    #[must_use]
    pub fn matrix_with_fans(
        self,
        rows: usize,
        cols: usize,
        fan_in: usize,
        fan_out: usize,
        rng: &mut OrcoRng,
    ) -> Matrix {
        match self {
            Init::XavierUniform => {
                let limit = (6.0 / (fan_in.max(1) + fan_out.max(1)) as f32).sqrt();
                Matrix::from_fn(rows, cols, |_, _| rng.uniform(-limit, limit))
            }
            Init::HeNormal => {
                let std = (2.0 / fan_in.max(1) as f32).sqrt();
                Matrix::from_fn(rows, cols, |_, _| rng.normal(0.0, std))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xavier_respects_limit() {
        let mut rng = OrcoRng::from_label("init", 1);
        let w = Init::XavierUniform.matrix(100, 200, &mut rng);
        let limit = (6.0f32 / 300.0).sqrt();
        assert!(w.as_slice().iter().all(|v| v.abs() <= limit + 1e-6));
        // Not degenerate: should use most of the range.
        assert!(w.max() > limit * 0.8);
        assert!(w.min() < -limit * 0.8);
    }

    #[test]
    fn he_normal_std_plausible() {
        let mut rng = OrcoRng::from_label("init", 2);
        let w = Init::HeNormal.matrix(200, 100, &mut rng);
        let mean = w.mean();
        let var = w.as_slice().iter().map(|v| (v - mean).powi(2)).sum::<f32>() / w.len() as f32;
        let expected = 2.0 / 100.0;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - expected).abs() < expected * 0.15, "var {var} vs {expected}");
    }

    #[test]
    fn deterministic_given_same_rng() {
        let mut a = OrcoRng::from_label("init-det", 0);
        let mut b = OrcoRng::from_label("init-det", 0);
        let wa = Init::HeNormal.matrix(5, 5, &mut a);
        let wb = Init::HeNormal.matrix(5, 5, &mut b);
        assert_eq!(wa, wb);
    }

    #[test]
    fn matrix_with_fans_uses_given_fans() {
        let mut rng = OrcoRng::from_label("init-fans", 0);
        // out_c=8 kernels of size in_c*k*k=27: fan_in 27.
        let w = Init::HeNormal.matrix_with_fans(8, 27, 27, 8, &mut rng);
        assert_eq!(w.shape(), (8, 27));
        let std = (2.0f32 / 27.0).sqrt();
        assert!(w.as_slice().iter().all(|v| v.abs() < 6.0 * std));
    }
}
