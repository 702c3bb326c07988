//! DCSNet — the deep-CDA baseline (ref \[3\] of the paper).
//!
//! The paper pins DCSNet down by two fixed choices the evaluation leans on:
//! a **predefined latent dimension of 1024** (task-independent, unlike
//! OrcoDCS's tunable `M`) and a **decoder of 4 convolutional layers**. The
//! 1024-element latent reshapes to a 1×32×32 feature map; the conv stack
//! refines it and a centre crop adapts 32×32 to the 28×28 MNIST frame
//! (identity for 32×32 GTSRB).
//!
//! [`Dcsnet`] is [`SplitHalves`] — the same split body as OrcoDCS — plus
//! what DCSNet brings: the conv decoder stack and plain L2. It takes every
//! [`SplitModel`] step as provided, the latent hook included (DCSNet adds
//! no latent noise, one of the deltas the paper's Figures 5 and 7
//! attribute OrcoDCS's robustness to). So it can be trained (a) offline
//! and centrally (`ExperimentBuilder` in `TrainingMode::Local`, on the
//! paper's 30/50/70% data fractions), the scheme DCSNet was designed for,
//! or (b) through the same IoT-Edge orchestrated protocol as OrcoDCS —
//! which is how the paper obtains its time-to-loss comparison.

use orco_nn::{Activation, Conv2d, Dense, Loss, Sequential, Workspace};
use orco_tensor::{MatView, Matrix, OrcoRng};

use orco_datasets::DatasetKind;
use orcodcs::{
    Codec, EncoderCheckpoint, OrcoError, SplitHalves, SplitModel, TrainSpec, TrainingHistory,
};

use crate::crop::Crop2d;

/// DCSNet's fixed latent dimension (paper §IV-A).
pub const DCSNET_LATENT_DIM: usize = 1024;

/// Side of the square feature map the latent reshapes to (`32·32 = 1024`).
const LATENT_SIDE: usize = 32;

/// The DCSNet baseline model: [`SplitHalves`] with a dense 1024-wide
/// encoder and a 4-conv-layer decoder, trained with L2.
///
/// # Examples
///
/// ```
/// use orco_baselines::Dcsnet;
/// use orco_datasets::DatasetKind;
/// use orco_tensor::Matrix;
/// use orcodcs::SplitModel;
///
/// let mut net = Dcsnet::new(DatasetKind::MnistLike, 0);
/// assert_eq!(net.latent_dim(), 1024);
/// let x = Matrix::zeros(2, 784);
/// let xr = net.reconstruct_inference(&x);
/// assert_eq!(xr.shape(), (2, 784));
/// ```
#[derive(Debug)]
pub struct Dcsnet {
    halves: SplitHalves,
    // The halves carry this width; the copy keeps the struct at the size
    // its training speed was measured at.
    input_dim: usize,
}

impl Dcsnet {
    /// Builds DCSNet for a dataset kind with the paper's fixed structure.
    #[must_use]
    pub fn new(kind: DatasetKind, seed: u64) -> Self {
        let mut rng = OrcoRng::from_label("dcsnet", seed);
        let input_dim = kind.sample_len();
        let out_c = kind.channels();
        let out_side = kind.height();

        let encoder = Dense::new(input_dim, DCSNET_LATENT_DIM, Activation::Sigmoid, &mut rng);

        // 4 convolutional layers over the 1x32x32 latent map, then a crop to
        // the dataset's frame. Channels: 1 -> 16 -> 16 -> 8 -> out_c.
        let mut decoder = Sequential::new();
        decoder.push(Conv2d::new(
            1,
            LATENT_SIDE,
            LATENT_SIDE,
            16,
            3,
            1,
            1,
            Activation::Relu,
            &mut rng,
        ));
        decoder.push(Conv2d::new(
            16,
            LATENT_SIDE,
            LATENT_SIDE,
            16,
            3,
            1,
            1,
            Activation::Relu,
            &mut rng,
        ));
        decoder.push(Conv2d::new(
            16,
            LATENT_SIDE,
            LATENT_SIDE,
            8,
            3,
            1,
            1,
            Activation::Relu,
            &mut rng,
        ));
        decoder.push(Conv2d::new(
            8,
            LATENT_SIDE,
            LATENT_SIDE,
            out_c,
            3,
            1,
            1,
            Activation::Sigmoid,
            &mut rng,
        ));
        decoder.push(Crop2d::new(out_c, LATENT_SIDE, out_side));

        // DCSNet trains with Adam in its reference implementation; keep the
        // same rate scale as OrcoDCS for a fair time-to-loss axis.
        Self { halves: SplitHalves::new(encoder, decoder, 1e-3), input_dim }
    }

    /// The loss DCSNet trains with (plain L2, per its design).
    #[must_use]
    pub(crate) fn loss() -> Loss {
        Loss::L2
    }
}

/// DCSNet as an experiment backend. Its native [`Codec::train`] is the
/// offline cloud-style scheme DCSNet was designed for: only
/// `data_fraction` of the corpus is accessible (the paper evaluates
/// 30/50/70%) and training is centralized with no per-round network cost.
/// Because DCSNet also implements [`SplitModel`], the pipeline can instead
/// run it through the orchestrated online protocol — the paper's
/// apples-to-apples setting for the time-to-loss comparison.
impl Codec for Dcsnet {
    fn name(&self) -> &'static str {
        "DCSNet"
    }

    fn input_dim(&self) -> usize {
        self.input_dim
    }

    fn bytes_per_frame(&self) -> u64 {
        (DCSNET_LATENT_DIM * 4) as u64
    }

    fn train(&mut self, x: &Matrix, spec: &TrainSpec) -> Result<TrainingHistory, OrcoError> {
        spec.validate()?;
        if x.rows() == 0 {
            return Err(OrcoError::Config { detail: "training set is empty".into() });
        }
        // One RNG drives both the data subset and the epoch shuffles, like
        // the original offline trainer — seeded runs stay reproducible.
        let mut rng = OrcoRng::from_label("dcsnet-offline", spec.seed);
        let accessible = orcodcs::codec::fraction_rows(x, spec.data_fraction, &mut rng);
        let loss = Dcsnet::loss();
        orcodcs::codec::shuffled_batch_train(
            &accessible,
            spec.epochs,
            spec.batch_size,
            &mut rng,
            |xb| self.train_batch_local(xb, &loss),
        )
    }

    fn encode_batch_with(
        &self,
        ws: &mut Workspace,
        frames: MatView<'_>,
        out: &mut Matrix,
    ) -> Result<(), OrcoError> {
        self.halves.encode_batch_with(self.name(), ws, frames, out)
    }

    /// The 4-conv-layer decoder stack, depth-first: a block of rows
    /// ([`Sequential::block_rows`], 8) goes through every layer before the
    /// next block starts, the layers ping-ponging between two buffers `ws`
    /// holds, and the crop's rows are copied into `out` (a batch of one
    /// block is cropped into `out` directly). Nothing is retained. Each
    /// convolution copies a sample into its own workspace in `ws` and
    /// multiplies straight into the sample's output row, so once `ws` and
    /// `out` have grown a decode allocates nothing.
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
        Dcsnet::loss()
    }

    fn split_model(&mut self) -> Option<&mut dyn SplitModel> {
        Some(self)
    }

    fn checkpoint(&self) -> Option<EncoderCheckpoint> {
        Some(EncoderCheckpoint::capture(&self.halves, self.name()))
    }
}

impl SplitModel for Dcsnet {
    fn halves(&self) -> &SplitHalves {
        &self.halves
    }

    fn halves_mut(&mut self) -> &mut SplitHalves {
        &mut self.halves
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orco_datasets::mnist_like;

    #[test]
    fn structure_matches_paper() {
        let net = Dcsnet::new(DatasetKind::MnistLike, 0);
        assert_eq!(net.latent_dim(), 1024);
        assert_eq!(SplitModel::input_dim(&net), 784);
    }

    #[test]
    fn gtsrb_shape_roundtrip() {
        let mut net = Dcsnet::new(DatasetKind::GtsrbLike, 0);
        let x = Matrix::zeros(1, 3072);
        let xr = net.reconstruct_inference(&x);
        assert_eq!(xr.shape(), (1, 3072));
    }

    #[test]
    fn central_training_reduces_loss() {
        let mut net = Dcsnet::new(DatasetKind::MnistLike, 1);
        let ds = mnist_like::generate(8, 0);
        let loss = Dcsnet::loss();
        let before = loss.value(&net.reconstruct_inference(ds.x()), ds.x());
        for _ in 0..5 {
            let _ = net.train_batch_local(ds.x(), &loss);
        }
        let after = loss.value(&net.reconstruct_inference(ds.x()), ds.x());
        assert!(after < before, "loss {before} -> {after}");
    }

    #[test]
    fn split_and_central_agree() {
        // The SplitModel path runs the same math as the central path.
        let mut a = Dcsnet::new(DatasetKind::MnistLike, 7);
        let mut b = Dcsnet::new(DatasetKind::MnistLike, 7);
        let ds = mnist_like::generate(4, 1);
        let loss = Dcsnet::loss();
        let central = a.train_batch_local(ds.x(), &loss);
        let latent = b.aggregator_encode_train(ds.x());
        let xr = b.edge_decode_train(&latent);
        let split_loss = loss.value(&xr, ds.x());
        let grad = loss.grad(&xr, ds.x());
        let gl = b.edge_decoder_update(&grad);
        b.aggregator_encoder_update(&gl);
        assert_eq!(central, split_loss);
    }

    #[test]
    fn batch_decode_matches_the_training_forward() {
        // Cropping (28x28) and identity (32x32) geometry: the inference
        // path, `forward_into(.., false)`, walked in blocks of rows with a
        // short last one, against the whole-batch `forward(.., true)`.
        for kind in [DatasetKind::MnistLike, DatasetKind::GtsrbLike] {
            let mut net = Dcsnet::new(kind, 3);
            let rows = 2 * net.halves().decoder().block_rows() + 3;
            let codes =
                Matrix::from_fn(rows, DCSNET_LATENT_DIM, |r, c| ((r * 31 + c) as f32).sin());
            let reference = net.edge_decode_train(&codes);
            let mut out = Matrix::from_fn(1, 1, |_, _| f32::NAN); // dirty reused buffer
            net.decode_batch(codes.as_view(), &mut out).unwrap();
            assert_eq!(out, reference, "{kind:?}");
        }
    }

    /// Training's speed moves with the models' sizes through the heap
    /// state a fresh model leaves: dropping the width copies the halves
    /// make redundant, here (568 B) and in OrcoDCS (1144 B), read 0.864× on
    /// the benchmark's DCSNet training rounds (0 of 10 pairs faster). A
    /// field goes only with a measurement.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn the_model_keeps_its_size() {
        assert_eq!(std::mem::size_of::<Dcsnet>(), 576);
    }

    #[test]
    fn heavier_than_orcodcs() {
        // The fixed 1024-dim latent + conv decoder must cost more FLOPs than
        // OrcoDCS's 128-dim dense autoencoder — the source of Fig. 4's gap.
        let dcs = Dcsnet::new(DatasetKind::MnistLike, 0);
        let cfg = orcodcs::OrcoConfig::for_dataset(DatasetKind::MnistLike);
        let orco = orcodcs::AsymmetricAutoencoder::new(&cfg).unwrap();
        assert!(SplitModel::encoder_flops_forward(&dcs) > orco.encoder_flops_forward());
        assert!(SplitModel::decoder_flops_forward(&dcs) > orco.decoder_flops_forward());
    }
}
