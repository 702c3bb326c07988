//! Encoder distribution and in-network encoding (paper §III-C).
//!
//! After training, compressed aggregation needs the encoder *at the
//! devices*: device `i` holds raw reading `xᵢ` and must contribute to the
//! latent vector `y = σ(Wₑ·X + b)`. Since `(Wₑ·X)ⱼ = Σᵢ Wₑ[j,i]·xᵢ`, device
//! `i` only needs **column `i` of `Wₑ`** (`M` values). The aggregator keeps
//! the bias and applies the activation after the partial sums arrive.
//!
//! [`EncoderColumns`] slices a trained encoder into per-device shares,
//! computes per-device contributions and folds partial sums along the
//! chain. The `environmental_monitoring` example runs it on a trained
//! encoder and checks the folded latent against the codec's own encode.

use orco_nn::Activation;
use orco_tensor::Matrix;

use crate::error::OrcoError;

/// A trained encoder split into per-device column shares.
///
/// # Examples
///
/// ```
/// use orcodcs::EncoderColumns;
/// use orco_tensor::Matrix;
///
/// // M=2 latent, N=3 devices.
/// let w = Matrix::from_vec(2, 3, vec![1.0, 0.0, 2.0, 0.5, 1.5, -1.0])?;
/// let b = Matrix::from_vec(1, 2, vec![0.1, -0.2])?;
/// let columns = EncoderColumns::split(&w, &b);
/// assert_eq!(columns.num_devices(), 3);
/// // The chain visits device 2, then 0, then 1: W·x arrives at the aggregator.
/// let partial = columns.chain_partial_sum(&[1.0, 2.0, 3.0], &[2, 0, 1])?;
/// assert_eq!(partial, vec![7.0, 0.5]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EncoderColumns {
    latent_dim: usize,
    columns: Vec<Vec<f32>>, // columns[i] = We[:, i], length M
    bias: Vec<f32>,         // length M, stays at the aggregator
}

impl EncoderColumns {
    /// Splits an `(M, N)` encoder weight and `(1, M)` bias into `N` device
    /// shares.
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not a row vector of length `weight.rows()`.
    #[must_use]
    pub fn split(weight: &Matrix, bias: &Matrix) -> Self {
        assert_eq!(bias.rows(), 1, "bias must be a row vector");
        assert_eq!(bias.cols(), weight.rows(), "bias length must equal latent dim");
        let m = weight.rows();
        let n = weight.cols();
        let columns = (0..n).map(|i| weight.col(i)).collect();
        Self { latent_dim: m, columns, bias: bias.row(0).to_vec() }
    }

    /// Number of device shares `N`.
    #[must_use]
    pub fn num_devices(&self) -> usize {
        self.columns.len()
    }

    /// Bytes one device share occupies on the wire (f32 elements).
    #[must_use]
    pub fn column_bytes(&self) -> u64 {
        (self.latent_dim * 4) as u64
    }

    /// Device `i`'s contribution `Wₑ[:,i]·xᵢ` to the pre-activation latent.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub(crate) fn contribution(&self, i: usize, reading: f32) -> Vec<f32> {
        self.columns[i].iter().map(|w| w * reading).collect()
    }

    /// Folds device contributions for one frame of readings in the given
    /// chain order, returning the pre-activation partial-sum vector that
    /// arrives at the aggregator.
    ///
    /// # Errors
    ///
    /// Returns [`OrcoError::Config`] if `readings.len()` differs from the
    /// number of devices, or if `order` does not visit every device exactly
    /// once (it repeats one, omits one or names one out of range).
    pub fn chain_partial_sum(
        &self,
        readings: &[f32],
        order: &[usize],
    ) -> Result<Vec<f32>, OrcoError> {
        let n = self.num_devices();
        if readings.len() != n {
            return Err(OrcoError::Config {
                detail: format!("expected {n} readings, got {}", readings.len()),
            });
        }
        if order.len() != n {
            return Err(OrcoError::Config {
                detail: format!(
                    "chain order visits {} devices, expected each of {n} once",
                    order.len()
                ),
            });
        }
        let mut visited = vec![false; n];
        let mut acc = vec![0.0f32; self.latent_dim];
        for &i in order {
            if i >= n {
                return Err(OrcoError::Config { detail: format!("device index {i} out of range") });
            }
            if std::mem::replace(&mut visited[i], true) {
                return Err(OrcoError::Config {
                    detail: format!("chain order visits device {i} twice"),
                });
            }
            for (a, c) in acc.iter_mut().zip(self.contribution(i, readings[i])) {
                *a += c;
            }
        }
        Ok(acc)
    }

    /// Finishes encoding at the aggregator: adds the bias and applies the
    /// sigmoid (the σ of eq. 6).
    #[must_use]
    pub fn finish_at_aggregator(&self, partial_sum: &[f32]) -> Vec<f32> {
        assert_eq!(partial_sum.len(), self.latent_dim, "partial sum length mismatch");
        partial_sum.iter().zip(&self.bias).map(|(s, b)| Activation::Sigmoid.apply(s + b)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_encoder() -> (Matrix, Matrix) {
        let w = Matrix::from_fn(4, 6, |r, c| ((r * 6 + c) as f32 * 0.1).sin());
        let b = Matrix::from_fn(1, 4, |_, c| c as f32 * 0.05);
        (w, b)
    }

    #[test]
    fn distributed_encoding_matches_centralized() {
        let (w, b) = sample_encoder();
        let cols = EncoderColumns::split(&w, &b);
        let readings: Vec<f32> = (0..6).map(|i| (i as f32 * 0.3).cos()).collect();
        // Any chain order must give the same result (up to f32 rounding).
        for order in [vec![0, 1, 2, 3, 4, 5], vec![5, 3, 1, 0, 2, 4]] {
            let partial = cols.chain_partial_sum(&readings, &order).unwrap();
            let latent = cols.finish_at_aggregator(&partial);
            // Centralized: σ(W·x + b).
            let mut wx = vec![0.0; 4];
            w.matvec_into(&readings, &mut wx);
            let central: Vec<f32> =
                wx.iter().zip(b.row(0)).map(|(s, bb)| Activation::Sigmoid.apply(s + bb)).collect();
            for (d, c) in latent.iter().zip(&central) {
                assert!((d - c).abs() < 1e-5, "distributed {d} vs centralized {c}");
            }
        }
    }

    #[test]
    fn contribution_is_column_scaled() {
        let (w, b) = sample_encoder();
        let cols = EncoderColumns::split(&w, &b);
        let c = cols.contribution(2, 2.0);
        for (j, v) in c.iter().enumerate() {
            assert!((v - 2.0 * w[(j, 2)]).abs() < 1e-7);
        }
    }

    #[test]
    fn wrong_reading_count_is_error() {
        let (w, b) = sample_encoder();
        let cols = EncoderColumns::split(&w, &b);
        assert!(cols.chain_partial_sum(&[1.0, 2.0], &[0, 1]).is_err());
        assert!(cols.chain_partial_sum(&[0.0; 6], &[0, 1, 2, 3, 4, 99]).is_err());
    }

    #[test]
    fn column_bytes() {
        let (w, b) = sample_encoder();
        let cols = EncoderColumns::split(&w, &b);
        assert_eq!(cols.column_bytes(), 16);
    }
}
