//! The asymmetric autoencoder (paper §III-B).
//!
//! *Asymmetric* is the load split, not just the shape: the encoder is a
//! single dense layer (eq. 1) sized for a gateway-class data aggregator,
//! while the decoder (eq. 3) can be arbitrarily deep because it runs on the
//! edge server. [`AsymmetricAutoencoder`] keeps the two halves as separate
//! models with separate optimizers, exposing exactly the split-training
//! primitives the [`crate::Orchestrator`] drives over the network — and a
//! local joint-training path built from the *same* primitives, so
//! distributed and centralized training are bit-identical given the same
//! random streams.
//!
//! The inference methods run the layers with `train = false`
//! ([`orco_nn::Layer::forward_into`]), which keeps nothing for a backward
//! pass, so the edge may decode for consumers between a round's
//! [`AsymmetricAutoencoder::edge_decode_train`] and its
//! [`AsymmetricAutoencoder::edge_decoder_update`].

use orco_nn::{Activation, Dense, Layer, Loss, Optimizer, Sequential};

use orco_tensor::{MatView, Matrix, OrcoRng};

use crate::config::OrcoConfig;
use crate::decoder::build_decoder;
use crate::error::OrcoError;
use crate::noise;

/// The OrcoDCS asymmetric autoencoder: one-dense-layer encoder +
/// configurable-depth decoder, each with its own optimizer.
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
    encoder: Dense,
    decoder: Sequential,
    encoder_opt: Optimizer,
    decoder_opt: Optimizer,
    noise_variance: f32,
    noise_rng: OrcoRng,
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
            encoder,
            decoder,
            encoder_opt: Optimizer::adam(config.learning_rate).with_grad_clip(10.0),
            decoder_opt: Optimizer::adam(config.learning_rate).with_grad_clip(10.0),
            noise_variance: config.noise_variance,
            noise_rng,
            latent_dim: config.latent_dim,
            input_dim: config.input_dim,
            loss: config.loss(),
        })
    }

    /// Latent dimension `M`.
    #[must_use]
    pub(crate) fn latent_dim(&self) -> usize {
        self.latent_dim
    }

    /// Input dimension `N`.
    #[must_use]
    pub(crate) fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// The reconstruction loss this model was configured to train with
    /// ([`OrcoConfig::loss`] at construction time).
    #[must_use]
    pub(crate) fn training_loss(&self) -> Loss {
        self.loss
    }

    /// The encoder's weight matrix, shaped `(M, N)` — the object distributed
    /// column-wise to IoT devices (§III-C).
    ///
    #[must_use]
    pub fn encoder_weight(&self) -> &Matrix {
        self.encoder.weight()
    }

    /// The encoder's bias row vector, shaped `(1, M)`.
    #[must_use]
    pub fn encoder_bias(&self) -> &Matrix {
        self.encoder.bias()
    }

    /// Overwrites the encoder's parameters (applying a reassembled or
    /// remotely updated encoder).
    ///
    /// # Panics
    ///
    /// Panics if shapes do not match `(M, N)` / `(1, M)`.
    pub fn set_encoder_parts(&mut self, weight: Matrix, bias: Matrix) {
        self.encoder.set_parts(weight, bias);
    }

    /// Per-sample forward FLOPs of the encoder (aggregator-side cost).
    #[must_use]
    pub(crate) fn encoder_flops_forward(&self) -> u64 {
        Layer::flops_forward(&self.encoder)
    }

    /// Per-sample backward FLOPs of the encoder.
    #[must_use]
    pub(crate) fn encoder_flops_backward(&self) -> u64 {
        Layer::flops_backward(&self.encoder)
    }

    /// Per-sample forward FLOPs of the decoder (edge-side cost).
    #[must_use]
    pub(crate) fn decoder_flops_forward(&self) -> u64 {
        self.decoder.flops_forward()
    }

    /// Per-sample backward FLOPs of the decoder.
    #[must_use]
    pub(crate) fn decoder_flops_backward(&self) -> u64 {
        self.decoder.flops_backward()
    }

    // ------------------------------------------------------------------
    // Inference
    // ------------------------------------------------------------------

    /// Full reconstruction without noise (inference).
    pub(crate) fn reconstruct(&mut self, x: &Matrix) -> Matrix {
        let latent = self.encoder.forward(x, false);
        self.decoder.forward(&latent, false)
    }

    /// Inference encode into a caller-owned buffer — the body of
    /// `Codec::encode_batch` (eq. 1): one packed-panel GEMM against the
    /// encoder weight, a bias broadcast, and the sigmoid in place.
    pub(crate) fn encode_batch_into(&mut self, frames: MatView<'_>, out: &mut Matrix) {
        self.encoder.forward_into(frames, out, false);
    }

    /// Inference decode into a caller-owned buffer — the body of
    /// `Codec::decode_batch` (eq. 3): the decoder stack's
    /// [`Sequential::forward_into`] with `train = false` over the whole
    /// batch, allocation-free once `out` has grown to size.
    pub(crate) fn decode_batch_into(&mut self, codes: MatView<'_>, out: &mut Matrix) {
        self.decoder.forward_into(codes, out, false);
    }

    // ------------------------------------------------------------------
    // Split-training primitives (driven by the orchestrator)
    // ------------------------------------------------------------------

    /// **Aggregator step 1**: encode a batch in training mode and add the
    /// Gaussian latent noise (eqs. 1–2). Returns the noisy latent `Ŷ`, the
    /// one matrix the step allocates.
    pub(crate) fn aggregator_encode_train(&mut self, x: &Matrix) -> Matrix {
        let mut latent = self.encoder.forward(x, true);
        noise::add_gaussian(&mut latent, self.noise_variance, &mut self.noise_rng);
        latent
    }

    /// **Edge step**: decode the noisy latent in training mode (eq. 3).
    /// The returned reconstruction is the one matrix the step allocates,
    /// whatever the decoder's depth.
    pub(crate) fn edge_decode_train(&mut self, noisy_latent: &Matrix) -> Matrix {
        self.decoder.forward(noisy_latent, true)
    }

    /// **Aggregator step 2**: compute the reconstruction loss and its
    /// gradient (eq. 4) against the original batch.
    #[must_use]
    pub(crate) fn reconstruction_grad(x: &Matrix, xr: &Matrix, loss: &Loss) -> (f32, Matrix) {
        (loss.value(xr, x), loss.grad(xr, x))
    }

    /// **Edge step**: backpropagate the reconstruction gradient through the
    /// decoder, apply the decoder optimizer, and return `∂L/∂Ŷ` (the latent
    /// gradient sent back down to the aggregator) — the one matrix the step
    /// allocates.
    pub(crate) fn edge_decoder_update(&mut self, grad_reconstruction: &Matrix) -> Matrix {
        self.decoder.zero_grad();
        let mut grad_latent = Matrix::zeros(0, 0);
        self.decoder.backward_into(grad_reconstruction.as_view(), Some(&mut grad_latent));
        self.decoder_opt.step(|f| self.decoder.for_each_param(f));
        grad_latent
    }

    /// **Aggregator step 3**: backpropagate the latent gradient through the
    /// encoder and apply the encoder optimizer. (Additive noise has unit
    /// Jacobian, so `∂L/∂Y = ∂L/∂Ŷ`.) Nobody reads `∂L/∂x` of the first
    /// layer, so it is not computed, and the step allocates nothing.
    pub(crate) fn aggregator_encoder_update(&mut self, grad_latent: &Matrix) {
        self.encoder.zero_grad();
        self.encoder.backward_into(grad_latent.as_view(), None);
        self.encoder_opt.step(|f| self.encoder.for_each_param(f));
    }

    // ------------------------------------------------------------------
    // Snapshots (rollback support for the fine-tuning monitor)
    // ------------------------------------------------------------------

    /// One complete training round executed locally (no network): the same
    /// primitives the orchestrator calls, in the same order. Returns the
    /// batch loss before the update.
    pub fn train_batch_local(&mut self, x: &Matrix, loss: &Loss) -> f32 {
        let noisy_latent = self.aggregator_encode_train(x);
        let xr = self.edge_decode_train(&noisy_latent);
        let (value, grad) = Self::reconstruction_grad(x, &xr, loss);
        let grad_latent = self.edge_decoder_update(&grad);
        self.aggregator_encoder_update(&grad_latent);
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Codec;
    use orco_datasets::DatasetKind;

    fn tiny_config() -> OrcoConfig {
        OrcoConfig::for_dataset(DatasetKind::MnistLike).with_latent_dim(16).with_learning_rate(0.1)
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
        assert_eq!(ae.reconstruct(&x).shape(), (3, 784));
    }

    #[test]
    fn training_reduces_loss() {
        let mut ae = AsymmetricAutoencoder::new(&tiny_config()).unwrap();
        let ds = orco_datasets::mnist_like::generate(32, 0);
        let loss = Loss::VectorHuber { delta: 1.0 };
        let before = loss.value(&ae.reconstruct(ds.x()), ds.x());
        for _ in 0..30 {
            let _ = ae.train_batch_local(ds.x(), &loss);
        }
        let after = loss.value(&ae.reconstruct(ds.x()), ds.x());
        assert!(after < before, "loss {before} -> {after}");
    }

    #[test]
    fn sigmoid_outputs_stay_in_unit_range() {
        let mut ae = AsymmetricAutoencoder::new(&tiny_config()).unwrap();
        let x = Matrix::from_fn(2, 784, |_, c| (c % 7) as f32 / 7.0);
        let xr = ae.reconstruct(&x);
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
        assert_eq!(a.encoder_weight(), b.encoder_weight());
    }

    #[test]
    fn flops_reflect_asymmetry() {
        let cfg = tiny_config().with_decoder_layers(3);
        let ae = AsymmetricAutoencoder::new(&cfg).unwrap();
        assert!(ae.decoder_flops_forward() > ae.encoder_flops_forward());
    }

    #[test]
    fn encoder_weight_shape_matches_distribution_needs() {
        let ae = AsymmetricAutoencoder::new(&tiny_config()).unwrap();
        assert_eq!(ae.encoder_weight().shape(), (16, 784));
        assert_eq!(ae.encoder_bias().shape(), (1, 16));
    }
}
