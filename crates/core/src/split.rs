//! The split-model abstraction the orchestrated protocol trains.
//!
//! The paper compares OrcoDCS against DCSNet *run through the same online
//! training setting* ("we carry out online training of DCSNet, with the
//! same model structure but only 50% of the training data"). To make that
//! comparison apples-to-apples, the [`crate::Orchestrator`] is generic over
//! [`SplitModel`]: any autoencoder that can split its forward/backward pass
//! between the data aggregator (encoder side) and the edge server (decoder
//! side).
//!
//! A `SplitModel` is its [`SplitHalves`] — a dense encoder, a decoder
//! stack and an optimizer for each — plus the aggregator's latent hook,
//! [`SplitModel::aggregator_encode_train`]. Every protocol step is written
//! once, here, over the halves; a model overrides only the hook.
//! [`crate::AsymmetricAutoencoder`] overrides it to add eq. 2's noise; the
//! DCSNet baseline in `orco-baselines` keeps the plain encode.

use orco_nn::{Dense, Layer, Loss, Optimizer, Sequential, Workspace};
use orco_tensor::{MatView, Matrix};

use crate::codec::FrameDims;
use crate::error::OrcoError;

/// The two halves of a split autoencoder, each with its own optimizer:
/// the encoder the data aggregator runs (eq. 1) and the decoder the edge
/// server runs (eq. 3).
///
/// Besides the training steps [`SplitModel`] runs over it, it holds a
/// codec's four data-plane bodies, so a backend's [`crate::Codec`]
/// implementation forwards to them. None of them touches a layer's
/// training cache, so the edge may decode for consumers between a round's
/// [`SplitModel::edge_decode_train`] and its
/// [`SplitModel::edge_decoder_update`].
#[derive(Debug, Clone)]
pub struct SplitHalves {
    /// The one-dense-layer encoder, `N → M`.
    pub(crate) encoder: Dense,
    /// The decoder stack, `M → N`.
    pub(crate) decoder: Sequential,
    /// The encoder's optimizer.
    pub(crate) encoder_opt: Optimizer,
    /// The decoder's optimizer.
    pub(crate) decoder_opt: Optimizer,
}

impl SplitHalves {
    /// Pairs an encoder with a decoder, giving each an Adam optimizer at
    /// `learning_rate` with the global gradient norm clipped at 10.
    ///
    /// # Panics
    ///
    /// Panics if `learning_rate` is not positive and finite.
    #[must_use]
    pub fn new(encoder: Dense, decoder: Sequential, learning_rate: f32) -> Self {
        Self {
            encoder,
            decoder,
            encoder_opt: Optimizer::adam(learning_rate).with_grad_clip(10.0),
            decoder_opt: Optimizer::adam(learning_rate).with_grad_clip(10.0),
        }
    }

    /// The encoder, to read.
    #[must_use]
    pub fn encoder(&self) -> &Dense {
        &self.encoder
    }

    /// The decoder stack, to read.
    #[must_use]
    pub fn decoder(&self) -> &Sequential {
        &self.decoder
    }

    /// The frame and code widths: the encoder's input and output.
    fn frame_dims(&self) -> FrameDims {
        FrameDims { input: self.encoder.input_dim(), code: self.encoder.output_dim() }
    }

    /// The body of `Codec::encode_batch_with` (eq. 1): one packed-panel
    /// GEMM against the encoder weight, a bias broadcast and the sigmoid
    /// in place, into the caller's buffer.
    ///
    /// # Errors
    ///
    /// Returns [`OrcoError::Shape`], naming `codec`, when `frames` is not
    /// the encoder's input wide.
    pub fn encode_batch_with(
        &self,
        codec: &'static str,
        ws: &mut Workspace,
        frames: MatView<'_>,
        out: &mut Matrix,
    ) -> Result<(), OrcoError> {
        self.frame_dims().check_frames(codec, frames)?;
        self.encoder.infer_into(frames, out, ws);
        Ok(())
    }

    /// The body of `Codec::decode_batch_with` (eq. 3): the decoder stack's
    /// [`Sequential::infer_into`] over the batch — a block of rows at a
    /// time through a stack of more than one layer — allocation-free once
    /// `ws` and `out` have grown to size.
    ///
    /// # Errors
    ///
    /// Returns [`OrcoError::Shape`], naming `codec`, when `codes` is not
    /// the encoder's output wide.
    pub fn decode_batch_with(
        &self,
        codec: &'static str,
        ws: &mut Workspace,
        codes: MatView<'_>,
        out: &mut Matrix,
    ) -> Result<(), OrcoError> {
        self.frame_dims().check_codes(codec, codes)?;
        self.decoder.infer_into(codes, out, ws);
        Ok(())
    }

    /// [`Self::encode_batch_with`] in the encoder's own scratch (a dense
    /// layer keeps none) — the body of `Codec::encode_batch`.
    ///
    /// # Errors
    ///
    /// As [`Self::encode_batch_with`].
    pub fn encode_batch(
        &mut self,
        codec: &'static str,
        frames: MatView<'_>,
        out: &mut Matrix,
    ) -> Result<(), OrcoError> {
        self.frame_dims().check_frames(codec, frames)?;
        self.encoder.forward_into(frames, out, false);
        Ok(())
    }

    /// [`Self::decode_batch_with`] in the decoder's own scratch — its two
    /// buffers and each layer's own workspace — the body of
    /// `Codec::decode_batch`.
    ///
    /// # Errors
    ///
    /// As [`Self::decode_batch_with`].
    pub fn decode_batch(
        &mut self,
        codec: &'static str,
        codes: MatView<'_>,
        out: &mut Matrix,
    ) -> Result<(), OrcoError> {
        self.frame_dims().check_codes(codec, codes)?;
        self.decoder.forward_into(codes, out, false);
        Ok(())
    }
}

/// An autoencoder trainable by the IoT-Edge orchestrated protocol.
///
/// A model supplies its [`SplitHalves`]; every method is a provided body
/// over them. The four steps correspond to the protocol steps of paper
/// §III-B; FLOP accessors feed the simulated-time model.
pub trait SplitModel: std::fmt::Debug + Send {
    /// The model's encoder, decoder and their optimizers.
    fn halves(&self) -> &SplitHalves;

    /// [`SplitModel::halves`], mutably.
    fn halves_mut(&mut self) -> &mut SplitHalves;

    /// Input (reconstruction) dimension `N`.
    fn input_dim(&self) -> usize {
        self.halves().encoder.input_dim()
    }

    /// Latent dimension `M` — determines per-round uplink bytes.
    fn latent_dim(&self) -> usize {
        self.halves().encoder.output_dim()
    }

    /// **Aggregator step 1**: encode a batch in training mode (eq. 1).
    /// Returns the latent, the one matrix the step allocates. The model's
    /// latent hook: a model that perturbs its latent overrides this.
    fn aggregator_encode_train(&mut self, x: &Matrix) -> Matrix {
        self.halves_mut().encoder.forward(x, true)
    }

    /// **Edge step**: decode the latent batch in training mode (eq. 3).
    /// The returned reconstruction is the one matrix the step allocates,
    /// whatever the decoder's depth.
    fn edge_decode_train(&mut self, latent: &Matrix) -> Matrix {
        self.halves_mut().decoder.forward(latent, true)
    }

    /// **Edge step**: backpropagate the reconstruction gradient through the
    /// decoder, apply the decoder optimizer, and return `∂L/∂Ŷ` (the latent
    /// gradient sent back down to the aggregator) — the one matrix the step
    /// allocates.
    fn edge_decoder_update(&mut self, grad_reconstruction: &Matrix) -> Matrix {
        let SplitHalves { decoder, decoder_opt, .. } = self.halves_mut();
        let mut grad_latent = Matrix::zeros(0, 0);
        decoder.backward_into(grad_reconstruction.as_view(), Some(&mut grad_latent));
        decoder_opt.step(|f| decoder.for_each_param(f));
        grad_latent
    }

    /// **Aggregator step 3**: backpropagate the latent gradient through the
    /// encoder and apply the encoder optimizer. (Additive noise has unit
    /// Jacobian, so `∂L/∂Y = ∂L/∂Ŷ`.) Nobody reads `∂L/∂x` of the first
    /// layer, so it is not computed, and the step allocates nothing.
    fn aggregator_encoder_update(&mut self, grad_latent: &Matrix) {
        let SplitHalves { encoder, encoder_opt, .. } = self.halves_mut();
        encoder.backward_into(grad_latent.as_view(), None);
        encoder_opt.step(|f| encoder.for_each_param(f));
    }

    /// One complete training round executed locally (no network): the same
    /// steps the orchestrator calls, in the same order, with the loss and
    /// its gradient (eq. 4) taken against `x` in between. Returns the
    /// batch loss before the update.
    fn train_batch_local(&mut self, x: &Matrix, loss: &Loss) -> f32 {
        let latent = self.aggregator_encode_train(x);
        let xr = self.edge_decode_train(&latent);
        let value = loss.value(&xr, x);
        let grad = loss.grad(&xr, x);
        let grad_latent = self.edge_decoder_update(&grad);
        self.aggregator_encoder_update(&grad_latent);
        value
    }

    /// Full clean reconstruction (inference mode, no latent hook).
    fn reconstruct_inference(&mut self, x: &Matrix) -> Matrix {
        let SplitHalves { encoder, decoder, .. } = self.halves_mut();
        let latent = encoder.forward(x, false);
        decoder.forward(&latent, false)
    }

    /// Per-sample forward FLOPs on the aggregator side.
    fn encoder_flops_forward(&self) -> u64 {
        self.halves().encoder.flops_forward()
    }

    /// Per-sample backward FLOPs on the aggregator side.
    fn encoder_flops_backward(&self) -> u64 {
        self.halves().encoder.flops_backward()
    }

    /// Per-sample forward FLOPs on the edge side.
    fn decoder_flops_forward(&self) -> u64 {
        self.halves().decoder.flops_forward()
    }

    /// Per-sample backward FLOPs on the edge side.
    fn decoder_flops_backward(&self) -> u64 {
        self.halves().decoder.flops_backward()
    }
}

/// Mutable references forward to the underlying model, so an
/// [`crate::Orchestrator`] can drive a *borrowed* model — the
/// [`crate::pipeline::Experiment`] trains a [`crate::Codec`]'s split half in
/// place without taking ownership of the codec. The latent hook is
/// forwarded too: without it a borrowed OrcoDCS model would train with no
/// latent noise.
impl<T: SplitModel + ?Sized> SplitModel for &mut T {
    fn halves(&self) -> &SplitHalves {
        (**self).halves()
    }

    fn halves_mut(&mut self) -> &mut SplitHalves {
        (**self).halves_mut()
    }

    fn aggregator_encode_train(&mut self, x: &Matrix) -> Matrix {
        (**self).aggregator_encode_train(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autoencoder::AsymmetricAutoencoder;
    use crate::config::OrcoConfig;
    use orco_datasets::DatasetKind;

    #[test]
    fn autoencoder_implements_split_model() {
        let cfg = OrcoConfig::for_dataset(DatasetKind::MnistLike).with_latent_dim(16);
        let ae = AsymmetricAutoencoder::new(&cfg).unwrap();
        let boxed: Box<dyn SplitModel> = Box::new(ae);
        assert_eq!(boxed.input_dim(), 784);
        assert_eq!(boxed.latent_dim(), 16);
        assert!(boxed.decoder_flops_forward() > 0);
    }
}
