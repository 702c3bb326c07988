//! The asymmetric autoencoder (paper §III-B).
//!
//! *Asymmetric* is the load split, not just the shape: the encoder is a
//! single dense layer (eq. 1) sized for a gateway-class data aggregator,
//! while the decoder (eq. 3) can be arbitrarily deep because it runs on the
//! edge server. [`AsymmetricAutoencoder`] is [`SplitHalves`] — the two
//! halves with separate optimizers, and every split-training step the
//! [`crate::Orchestrator`] drives over the network — plus what OrcoDCS
//! adds: eq. 2's latent noise, its one override of the
//! [`SplitModel`] steps, and the configured reconstruction loss. Local
//! joint training ([`SplitModel::train_batch_local`]) runs the *same*
//! steps, so distributed and centralized training are bit-identical given
//! the same random streams.

use orco_nn::{Activation, Dense, Layer, Loss, Workspace};

use orco_tensor::{MatView, Matrix, OrcoRng};

use crate::checkpoint::EncoderCheckpoint;
use crate::codec::{fraction_rows, shuffled_batch_train, Codec, TrainSpec};
use crate::config::OrcoConfig;
use crate::decoder::build_decoder;
use crate::error::OrcoError;
use crate::history::TrainingHistory;
use crate::noise;
use crate::split::{SplitHalves, SplitModel};

/// The OrcoDCS asymmetric autoencoder: [`SplitHalves`] (a one-dense-layer
/// encoder and a configurable-depth decoder, each with its own optimizer)
/// plus eq. 2's latent noise and the configured loss.
///
/// # Examples
///
/// ```
/// use orcodcs::{AsymmetricAutoencoder, Codec, OrcoConfig};
/// use orco_datasets::DatasetKind;
/// use orco_tensor::Matrix;
///
/// let cfg = OrcoConfig::for_dataset(DatasetKind::MnistLike).with_latent_dim(16);
/// let mut ae = AsymmetricAutoencoder::new(&cfg)?;
/// let x = Matrix::zeros(4, 784);
/// let mut latent = Matrix::zeros(0, 0);
/// ae.encode_batch(x.as_view(), &mut latent)?;
/// assert_eq!(latent.shape(), (4, 16));
/// # Ok::<(), orcodcs::OrcoError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AsymmetricAutoencoder {
    halves: SplitHalves,
    noise_variance: f32,
    noise_rng: OrcoRng,
    // The halves carry both widths; these copies keep the struct at the
    // size its training speed was measured at.
    latent_dim: usize,
    input_dim: usize,
    loss: Loss,
}

impl AsymmetricAutoencoder {
    /// Builds the autoencoder described by `config`.
    ///
    /// # Errors
    ///
    /// Returns [`OrcoError::Config`] if the configuration is invalid.
    pub fn new(config: &OrcoConfig) -> Result<Self, OrcoError> {
        config.validate()?;
        let mut rng = OrcoRng::from_label("orcodcs-autoencoder", config.seed);
        let encoder =
            Dense::new(config.input_dim, config.latent_dim, Activation::Sigmoid, &mut rng);
        let decoder =
            build_decoder(config.latent_dim, config.input_dim, config.decoder_layers, &mut rng);
        let noise_rng = rng.derive("latent-noise");
        Ok(Self {
            halves: SplitHalves::new(encoder, decoder, config.learning_rate),
            noise_variance: config.noise_variance,
            noise_rng,
            latent_dim: config.latent_dim,
            input_dim: config.input_dim,
            loss: config.loss(),
        })
    }
}

impl SplitModel for AsymmetricAutoencoder {
    fn halves(&self) -> &SplitHalves {
        &self.halves
    }

    fn halves_mut(&mut self) -> &mut SplitHalves {
        &mut self.halves
    }

    /// Encodes in training mode and adds the Gaussian latent noise
    /// (eqs. 1–2). Returns the noisy latent `Ŷ`, the one matrix the step
    /// allocates.
    fn aggregator_encode_train(&mut self, x: &Matrix) -> Matrix {
        let mut latent = self.halves.encoder.forward(x, true);
        noise::add_gaussian(&mut latent, self.noise_variance, &mut self.noise_rng);
        latent
    }
}

impl Codec for AsymmetricAutoencoder {
    fn name(&self) -> &'static str {
        "OrcoDCS"
    }

    fn input_dim(&self) -> usize {
        self.input_dim
    }

    fn bytes_per_frame(&self) -> u64 {
        (self.latent_dim * 4) as u64
    }

    fn train(&mut self, x: &Matrix, spec: &TrainSpec) -> Result<TrainingHistory, OrcoError> {
        spec.validate()?;
        if x.rows() == 0 {
            return Err(OrcoError::Config { detail: "training set is empty".into() });
        }
        let x_frac;
        let x = if spec.data_fraction < 1.0 {
            let mut frng = OrcoRng::from_label("orcodcs-codec-fraction", spec.seed);
            x_frac = fraction_rows(x, spec.data_fraction, &mut frng);
            &x_frac
        } else {
            x
        };
        let loss = self.loss;
        // The batching label predates this trait (the figure harness's
        // local trainer); it is kept so seeded runs reproduce earlier
        // releases bit-for-bit.
        let mut rng = OrcoRng::from_label("bench-local-batching", spec.seed);
        shuffled_batch_train(x, spec.epochs, spec.batch_size, &mut rng, |xb| {
            self.train_batch_local(xb, &loss)
        })
    }

    fn encode_batch_with(
        &self,
        ws: &mut Workspace,
        frames: MatView<'_>,
        out: &mut Matrix,
    ) -> Result<(), OrcoError> {
        self.halves.encode_batch_with(self.name(), ws, frames, out)
    }

    fn decode_batch_with(
        &self,
        ws: &mut Workspace,
        codes: MatView<'_>,
        out: &mut Matrix,
    ) -> Result<(), OrcoError> {
        self.halves.decode_batch_with(self.name(), ws, codes, out)
    }

    fn encode_batch(&mut self, frames: MatView<'_>, out: &mut Matrix) -> Result<(), OrcoError> {
        self.halves.encode_batch(self.name(), frames, out)
    }

    fn decode_batch(&mut self, codes: MatView<'_>, out: &mut Matrix) -> Result<(), OrcoError> {
        self.halves.decode_batch(self.name(), codes, out)
    }

    fn loss(&self) -> Loss {
        self.loss
    }

    fn split_model(&mut self) -> Option<&mut dyn SplitModel> {
        Some(self)
    }

    fn checkpoint(&self) -> Option<EncoderCheckpoint> {
        Some(EncoderCheckpoint::capture(&self.halves, self.name()))
    }

    fn with_encoder(&self, checkpoint: &EncoderCheckpoint) -> Result<Box<dyn Codec>, OrcoError> {
        let mut next = self.clone();
        checkpoint.restore(&mut next.halves)?;
        Ok(Box::new(next))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orco_datasets::DatasetKind;

    fn tiny_config() -> OrcoConfig {
        let cfg = OrcoConfig::for_dataset(DatasetKind::MnistLike).with_latent_dim(16);
        OrcoConfig { learning_rate: 0.1, ..cfg }
    }

    /// The inference encode, through the `Codec` data plane.
    fn encode(ae: &mut AsymmetricAutoencoder, x: &Matrix) -> Matrix {
        let mut latent = Matrix::zeros(0, 0);
        ae.encode_batch(x.as_view(), &mut latent).expect("frames fit the codec");
        latent
    }

    #[test]
    fn shapes_are_consistent() {
        let mut ae = AsymmetricAutoencoder::new(&tiny_config()).unwrap();
        let x = Matrix::from_fn(3, 784, |r, c| ((r * 7 + c) as f32 * 0.01).sin().abs());
        let y = encode(&mut ae, &x);
        assert_eq!(y.shape(), (3, 16));
        let mut xr = Matrix::zeros(0, 0);
        ae.decode_batch(y.as_view(), &mut xr).expect("codes fit the codec");
        assert_eq!(xr.shape(), (3, 784));
        assert_eq!(ae.reconstruct_inference(&x).shape(), (3, 784));
    }

    #[test]
    fn training_reduces_loss() {
        let mut ae = AsymmetricAutoencoder::new(&tiny_config()).unwrap();
        let ds = orco_datasets::mnist_like::generate(32, 0);
        let loss = Loss::VectorHuber { delta: 1.0 };
        let before = loss.value(&ae.reconstruct_inference(ds.x()), ds.x());
        for _ in 0..30 {
            let _ = ae.train_batch_local(ds.x(), &loss);
        }
        let after = loss.value(&ae.reconstruct_inference(ds.x()), ds.x());
        assert!(after < before, "loss {before} -> {after}");
    }

    #[test]
    fn sigmoid_outputs_stay_in_unit_range() {
        let mut ae = AsymmetricAutoencoder::new(&tiny_config()).unwrap();
        let x = Matrix::from_fn(2, 784, |_, c| (c % 7) as f32 / 7.0);
        let xr = ae.reconstruct_inference(&x);
        assert!(xr.min() >= 0.0 && xr.max() <= 1.0);
    }

    #[test]
    fn noise_applied_only_in_training_path() {
        let cfg = tiny_config().with_noise_variance(0.5);
        let mut ae = AsymmetricAutoencoder::new(&cfg).unwrap();
        let x = Matrix::from_fn(2, 784, |_, c| (c % 5) as f32 / 5.0);
        let clean = encode(&mut ae, &x);
        let noisy = ae.aggregator_encode_train(&x);
        assert!(clean.max_abs_diff(&noisy) > 0.01, "training path must add noise");
        // Inference path is deterministic.
        assert_eq!(encode(&mut ae, &x), clean);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = AsymmetricAutoencoder::new(&tiny_config()).unwrap();
        let mut b = AsymmetricAutoencoder::new(&tiny_config()).unwrap();
        let ds = orco_datasets::mnist_like::generate(8, 1);
        let loss = Loss::L2;
        for _ in 0..3 {
            let la = a.train_batch_local(ds.x(), &loss);
            let lb = b.train_batch_local(ds.x(), &loss);
            assert_eq!(la, lb);
        }
        assert_eq!(a.halves.encoder.weight(), b.halves.encoder.weight());
    }

    #[test]
    fn flops_reflect_asymmetry() {
        let cfg = tiny_config().with_decoder_layers(3);
        let ae = AsymmetricAutoencoder::new(&cfg).unwrap();
        assert!(ae.decoder_flops_forward() > ae.encoder_flops_forward());
    }

    /// Training's speed moves with the models' sizes through the heap
    /// state a fresh model leaves: dropping the width copies the halves
    /// make redundant, here (1144 B) and in DCSNet (568 B), read 0.864× on
    /// the benchmark's DCSNet training rounds (0 of 10 pairs faster). A
    /// field goes only with a measurement.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn the_model_keeps_its_size() {
        assert_eq!(std::mem::size_of::<AsymmetricAutoencoder>(), 1160);
    }

    #[test]
    fn encoder_weight_shape_matches_distribution_needs() {
        let ae = AsymmetricAutoencoder::new(&tiny_config()).unwrap();
        assert_eq!(ae.halves.encoder.weight().shape(), (16, 784));
        assert_eq!(ae.halves.encoder.bias().shape(), (1, 16));
    }
}
