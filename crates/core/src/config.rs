use orco_datasets::DatasetKind;
use orco_nn::Loss;

use crate::compression::GradCompression;
use crate::error::OrcoError;

/// Complete configuration of one OrcoDCS deployment + training run.
///
/// The defaults reproduce the paper's settings for each dataset: latent
/// dimension `M` = 128 (MNIST) / 512 (GTSRB), a one-layer encoder, a
/// one-layer decoder (deeper via [`OrcoConfig::with_decoder_layers`]),
/// Gaussian latent noise, and a Huber reconstruction loss.
///
/// # Examples
///
/// ```
/// use orcodcs::OrcoConfig;
/// use orco_datasets::DatasetKind;
///
/// let cfg = OrcoConfig::for_dataset(DatasetKind::MnistLike);
/// assert_eq!(cfg.latent_dim, 128);
/// assert_eq!(cfg.input_dim, 784);
/// let deeper = cfg.with_decoder_layers(3).with_noise_variance(0.2);
/// assert_eq!(deeper.decoder_layers, 3);
/// ```
#[derive(Debug, Clone)]
pub struct OrcoConfig {
    /// Flattened sample length `N` (the number of IoT readings per frame).
    pub input_dim: usize,
    /// Latent dimension `M` — the paper's task-tunable compression knob.
    pub latent_dim: usize,
    /// Number of dense layers in the edge-side decoder (paper Fig. 8 sweeps
    /// 1/3/5).
    pub decoder_layers: usize,
    /// Variance σ² of the Gaussian latent noise (paper eq. 2, Fig. 7).
    pub noise_variance: f32,
    /// Huber threshold δ (paper eq. 4).
    pub huber_delta: f32,
    /// Whether to use the paper's per-sample vector Huber (true) or
    /// element-wise Huber (false, ablation).
    pub vector_huber: bool,
    /// Learning rate for both encoder and decoder.
    pub learning_rate: f32,
    /// Mini-batch size per training round.
    pub batch_size: usize,
    /// Number of passes over the aggregated training data.
    pub epochs: usize,
    /// Compression policy for the reconstruction-gradient uplink.
    pub grad_compression: GradCompression,
    /// RNG seed for weights, noise and batching.
    pub seed: u64,
}

impl OrcoConfig {
    /// The paper's configuration for a dataset kind.
    #[must_use]
    pub fn for_dataset(kind: DatasetKind) -> Self {
        Self {
            input_dim: kind.sample_len(),
            latent_dim: kind.paper_latent_dim(),
            decoder_layers: 1,
            noise_variance: 0.1,
            // Element-wise Huber with δ = 0.5: quadratic over the clean
            // pixel-residual range (fast, L2-like convergence), linear for
            // outlier residuals (robustness under drift) — the practical
            // reading of the paper's eq. 4. The literal per-sample
            // vector-norm form is available via `with_vector_huber` for
            // ablation; its sign gradients converge markedly slower.
            huber_delta: 0.5,
            vector_huber: false,
            // Calibrated for the small-corpus regime this reproduction
            // trains in (hundreds of samples, tens of epochs).
            learning_rate: match kind {
                DatasetKind::MnistLike => 1e-2,
                DatasetKind::GtsrbLike => 5e-3,
            },
            batch_size: 32,
            epochs: 10,
            grad_compression: GradCompression::default(),
            seed: 0,
        }
    }

    /// Sets the latent dimension `M`.
    #[must_use]
    pub fn with_latent_dim(mut self, m: usize) -> Self {
        self.latent_dim = m;
        self
    }

    /// Sets the decoder depth.
    #[must_use]
    pub fn with_decoder_layers(mut self, layers: usize) -> Self {
        self.decoder_layers = layers;
        self
    }

    /// Sets the Gaussian latent-noise variance σ².
    #[must_use]
    pub fn with_noise_variance(mut self, variance: f32) -> Self {
        self.noise_variance = variance;
        self
    }

    /// Sets the number of training epochs.
    #[must_use]
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Sets the mini-batch size.
    #[must_use]
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects the paper's literal per-sample vector-norm Huber (eq. 4).
    ///
    /// δ is rescaled to the per-sample L1-norm scale (`0.05 · N`) so the
    /// quadratic regime is reachable.
    #[must_use]
    pub fn with_vector_huber(mut self) -> Self {
        self.vector_huber = true;
        self.huber_delta = 0.05 * self.input_dim as f32;
        self
    }

    /// The reconstruction loss this configuration trains with.
    #[must_use]
    pub fn loss(&self) -> Loss {
        if self.vector_huber {
            Loss::VectorHuber { delta: self.huber_delta }
        } else {
            Loss::Huber { delta: self.huber_delta }
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`OrcoError::Config`] describing the first violated
    /// constraint.
    pub(crate) fn validate(&self) -> Result<(), OrcoError> {
        let check = |ok: bool, detail: &str| -> Result<(), OrcoError> {
            if ok {
                Ok(())
            } else {
                Err(OrcoError::Config { detail: detail.to_string() })
            }
        };
        check(self.input_dim > 0, "input_dim must be non-zero")?;
        check(self.latent_dim > 0, "latent_dim must be non-zero")?;
        check(self.decoder_layers > 0, "decoder_layers must be non-zero")?;
        check(
            self.noise_variance.is_finite() && self.noise_variance >= 0.0,
            "noise_variance must be ≥ 0",
        )?;
        check(self.huber_delta > 0.0, "huber_delta must be positive")?;
        check(
            self.learning_rate > 0.0 && self.learning_rate.is_finite(),
            "learning_rate must be positive",
        )?;
        check(self.batch_size > 0, "batch_size must be non-zero")?;
        check(self.epochs > 0, "epochs must be non-zero")?;
        Ok(())
    }

    /// Compression ratio `N / M`.
    #[must_use]
    pub fn compression_ratio(&self) -> f32 {
        self.input_dim as f32 / self.latent_dim as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let m = OrcoConfig::for_dataset(DatasetKind::MnistLike);
        assert_eq!((m.input_dim, m.latent_dim), (784, 128));
        let g = OrcoConfig::for_dataset(DatasetKind::GtsrbLike);
        assert_eq!((g.input_dim, g.latent_dim), (3072, 512));
        assert!(m.validate().is_ok());
        assert!(g.validate().is_ok());
    }

    #[test]
    fn builder_chain() {
        let cfg = OrcoConfig::for_dataset(DatasetKind::MnistLike)
            .with_latent_dim(256)
            .with_decoder_layers(5)
            .with_noise_variance(0.3)
            .with_epochs(3)
            .with_batch_size(16)
            .with_seed(9);
        assert_eq!(cfg.latent_dim, 256);
        assert_eq!(cfg.decoder_layers, 5);
        assert_eq!(cfg.seed, 9);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validation_catches_violations() {
        let base = OrcoConfig::for_dataset(DatasetKind::MnistLike);
        assert!(base.clone().with_latent_dim(0).validate().is_err());
        // The paper's Fig. 6 sweeps M up to 1024 > N on MNIST: expansion is
        // allowed (it just compresses nothing).
        assert!(base.clone().with_latent_dim(1024).validate().is_ok());
        assert!(base.clone().with_decoder_layers(0).validate().is_err());
        assert!(base.clone().with_noise_variance(-0.1).validate().is_err());
        assert!(base.clone().with_epochs(0).validate().is_err());
    }

    #[test]
    fn loss_selection() {
        let cfg = OrcoConfig::for_dataset(DatasetKind::MnistLike);
        assert!(matches!(cfg.loss(), Loss::Huber { .. }));
        assert!(matches!(cfg.clone().with_vector_huber().loss(), Loss::VectorHuber { .. }));
        let vh = cfg.with_vector_huber();
        assert!((vh.huber_delta - 0.05 * 784.0).abs() < 1e-3);
    }

    #[test]
    fn compression_ratio_is_n_over_m() {
        let cfg = OrcoConfig::for_dataset(DatasetKind::MnistLike);
        assert!((cfg.compression_ratio() - 6.125).abs() < 1e-6);
    }
}
