//! The backend-neutral compression interface every experiment runs
//! against.
//!
//! The paper's evaluation is comparative: OrcoDCS versus DCSNet versus
//! classical compressed sensing, across datasets, cluster scales, and
//! noise regimes. [`Codec`] is the one object-safe interface all of those
//! backends implement, so a figure, bench, or test can be written once and
//! pointed at any of them through the
//! [`ExperimentBuilder`](crate::pipeline::ExperimentBuilder):
//!
//! * [`crate::AsymmetricAutoencoder`] — the OrcoDCS path (implemented
//!   here);
//! * `Dcsnet` and the `Dct2` + `GaussianMeasurement` + ISTA/OMP stacks —
//!   the baselines (implemented in `orco-baselines`).
//!
//! The core methods mirror a codec's deployment lifecycle: [`train`] on
//! aggregated data, [`encode_batch`] on the sensing side,
//! [`decode_batch`] on the edge, [`bytes_per_frame`] for the data-plane
//! cost model, and [`name`] for reporting. The defaulted hooks let the
//! pipeline exploit what a backend *can* do — train over the orchestrated
//! protocol ([`split_model`]), persist its distributable half
//! ([`checkpoint`]) — without the caller special-casing backends.
//!
//! # The batched data plane
//!
//! A round of `N` frames moves as **one call over borrowed memory**:
//!
//! * [`encode_batch`] / [`decode_batch`] take an
//!   [`orco_tensor::MatView`] of frames and write into a caller-owned
//!   [`Matrix`] that is recycled across rounds (`out` is
//!   [`Matrix::reset`] internally, reusing its allocation). Shapes are
//!   validated **once per batch** against [`frame_dims`], returning typed
//!   [`OrcoError::Shape`] errors instead of panicking mid-experiment.
//! * The batch methods are every backend's only encode and decode
//!   bodies. `encode_frame`/`decode_frame` are provided: a frame is a
//!   one-row batch, so the per-frame output is the batch's row bit for
//!   bit (property-tested for all three backends).
//! * Buffer-reuse idiom: hold one `codes`/`recon` `Matrix` per loop (or
//!   experiment) and pass `&mut` per round — allocation happens on the
//!   first round only.
//!
//! ```
//! use orcodcs::{AsymmetricAutoencoder, Codec, OrcoConfig};
//! use orco_datasets::DatasetKind;
//! use orco_tensor::Matrix;
//!
//! let cfg = OrcoConfig::for_dataset(DatasetKind::MnistLike).with_latent_dim(16);
//! let mut codec = AsymmetricAutoencoder::new(&cfg)?;
//! let frames = Matrix::zeros(64, 784);
//! let mut codes = Matrix::zeros(0, 0); // reused across rounds
//! codec.encode_batch(frames.as_view(), &mut codes)?;
//! assert_eq!(codes.shape(), (64, 16));
//! # Ok::<(), orcodcs::OrcoError>(())
//! ```
//!
//! [`train`]: Codec::train
//! [`encode_batch`]: Codec::encode_batch
//! [`decode_batch`]: Codec::decode_batch
//! [`frame_dims`]: Codec::frame_dims
//! [`bytes_per_frame`]: Codec::bytes_per_frame
//! [`name`]: Codec::name
//! [`split_model`]: Codec::split_model
//! [`checkpoint`]: Codec::checkpoint

use orco_nn::Loss;
use orco_tensor::{MatView, Matrix, OrcoRng};

use crate::autoencoder::AsymmetricAutoencoder;
use crate::checkpoint::EncoderCheckpoint;
use crate::error::OrcoError;
use crate::history::{RoundStats, TrainingHistory};
use crate::split::SplitModel;

/// Hyperparameters for one native (local/offline) training run of a
/// [`Codec`]. The codec supplies its own loss and model structure; the
/// spec controls only how the data is streamed through it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainSpec {
    /// Passes over the training data.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Seed for batch shuffling (and data subsetting, if any).
    pub seed: u64,
    /// Fraction of the data the codec may see, in `(0, 1]` — the paper's
    /// DCSNet-30/50/70% settings.
    pub data_fraction: f32,
}

impl TrainSpec {
    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`OrcoError::Config`] describing the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), OrcoError> {
        if self.batch_size == 0 {
            return Err(OrcoError::Config {
                detail: "TrainSpec: batch_size must be non-zero".into(),
            });
        }
        if !(self.data_fraction > 0.0 && self.data_fraction <= 1.0) {
            return Err(OrcoError::Config {
                detail: "TrainSpec: data_fraction must be in (0, 1]".into(),
            });
        }
        Ok(())
    }
}

impl Default for TrainSpec {
    fn default() -> Self {
        Self { epochs: 10, batch_size: 32, seed: 0, data_fraction: 1.0 }
    }
}

/// Selects a random `fraction` of a design matrix's rows — the matrix-level
/// twin of `orco_datasets::split::fraction`, drawing the same index sample
/// from the given RNG. At least one row is always kept, so tiny datasets
/// with small fractions degrade to a 1-sample subset instead of panicking
/// mid-experiment.
///
/// # Panics
///
/// Panics if `fraction` is not in `(0, 1]` or `x` has no rows.
#[must_use]
pub fn fraction_rows(x: &Matrix, fraction: f32, rng: &mut OrcoRng) -> Matrix {
    assert!(fraction > 0.0 && fraction <= 1.0, "fraction must be in (0, 1]");
    assert!(x.rows() > 0, "fraction_rows: empty input");
    if fraction >= 1.0 {
        return x.clone();
    }
    let k = ((x.rows() as f32) * fraction).round() as usize;
    let idx = rng.sample_indices(x.rows(), k.clamp(1, x.rows()));
    x.select_rows(&idx)
}

/// The shared native-training loop of batch-trained codecs: `epochs`
/// shuffled passes over `x` in `batch_size` chunks, one `step` call per
/// mini-batch returning that batch's loss. Produces the same per-round
/// records as orchestrated training, with the simulated-deployment fields
/// zeroed (no network is involved).
///
/// Codecs keep their own fraction-subsetting and RNG-label policies and
/// delegate the loop here, so divergence checks and round bookkeeping
/// cannot drift between backends.
///
/// # Errors
///
/// Returns [`OrcoError::Config`] on an empty `x` and
/// [`OrcoError::Diverged`] when a step reports a non-finite loss.
pub fn shuffled_batch_train(
    x: &Matrix,
    epochs: usize,
    batch_size: usize,
    rng: &mut OrcoRng,
    mut step: impl FnMut(&Matrix) -> f32,
) -> Result<TrainingHistory, OrcoError> {
    if x.rows() == 0 {
        return Err(OrcoError::Config { detail: "training set is empty".into() });
    }
    let n = x.rows();
    let bs = batch_size.min(n);
    let mut order: Vec<usize> = (0..n).collect();
    let mut history = TrainingHistory::default();
    let mut round = 0usize;
    for epoch in 0..epochs {
        rng.shuffle(&mut order);
        for chunk in order.chunks(bs) {
            let xb = x.select_rows(chunk);
            let value = step(&xb);
            if !value.is_finite() {
                return Err(OrcoError::Diverged { round });
            }
            history.rounds.push(RoundStats {
                round,
                epoch,
                loss: value,
                sim_time_s: 0.0,
                uplink_bytes: 0,
                energy_j: 0.0,
                link: orco_wsn::LinkStats::default(),
            });
            round += 1;
        }
    }
    Ok(history)
}

/// The two per-frame widths of a codec's data plane, used to validate a
/// whole batch once with typed errors instead of per-frame panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameDims {
    /// Flattened sensing-frame length `N` (one reading per IoT device).
    pub input: usize,
    /// Encoded code length `M` in f32 elements.
    pub code: usize,
}

impl FrameDims {
    /// Checks that a batch of raw frames is `input` wide.
    ///
    /// # Errors
    ///
    /// Returns [`OrcoError::Shape`] naming the offending codec.
    pub fn check_frames(&self, codec: &'static str, frames: MatView<'_>) -> Result<(), OrcoError> {
        if frames.cols() != self.input {
            return Err(OrcoError::Shape {
                codec,
                what: "frame",
                expected: self.input,
                actual: frames.cols(),
            });
        }
        Ok(())
    }

    /// Checks that a batch of encoded codes is `code` wide.
    ///
    /// # Errors
    ///
    /// Returns [`OrcoError::Shape`] naming the offending codec.
    pub fn check_codes(&self, codec: &'static str, codes: MatView<'_>) -> Result<(), OrcoError> {
        if codes.cols() != self.code {
            return Err(OrcoError::Shape {
                codec,
                what: "code",
                expected: self.code,
                actual: codes.cols(),
            });
        }
        Ok(())
    }
}

/// A compression backend runnable by the experiment pipeline.
///
/// Object-safe: experiments, figures, and tests hold `Box<dyn Codec>` and
/// never know which backend they drive. The batch methods are the data
/// plane, and the per-frame methods run a one-row batch through them
/// (see the [module docs](self)).
pub trait Codec: std::fmt::Debug + Send {
    /// Short backend label for reports and tables (e.g. `"OrcoDCS"`).
    fn name(&self) -> &'static str;

    /// Flattened frame length `N` (one reading per IoT device).
    fn input_dim(&self) -> usize;

    /// Bytes of one encoded frame on the wire — the steady-state
    /// data-plane cost per frame, and the basis of the paper's Figure 3.
    fn bytes_per_frame(&self) -> u64;

    /// Number of f32 elements in one encoded frame.
    fn code_len(&self) -> usize {
        (self.bytes_per_frame() / 4) as usize
    }

    /// Both data-plane widths as one value, so batch entry points
    /// validate a whole round in one check.
    fn frame_dims(&self) -> FrameDims {
        FrameDims { input: self.input_dim(), code: self.code_len() }
    }

    /// Trains the codec natively (locally / offline) on a design matrix.
    /// Training-free codecs (classical CS) return an empty history.
    ///
    /// # Errors
    ///
    /// Returns [`OrcoError::Config`] on an invalid spec and
    /// [`OrcoError::Diverged`] on non-finite losses.
    fn train(&mut self, x: &Matrix, spec: &TrainSpec) -> Result<TrainingHistory, OrcoError>;

    /// Encodes a round of frames (one per row) into `out`, which is
    /// reshaped to `frames.rows() × code_len()` reusing its allocation.
    /// Shape validation happens once here, not per frame.
    ///
    /// # Errors
    ///
    /// Returns [`OrcoError::Shape`] when `frames` is not `input_dim()`
    /// wide.
    fn encode_batch(&mut self, frames: MatView<'_>, out: &mut Matrix) -> Result<(), OrcoError>;

    /// Decodes a round of codes (one per row) into `out`, which is
    /// reshaped to `codes.rows() × input_dim()` reusing its allocation.
    ///
    /// # Errors
    ///
    /// Returns [`OrcoError::Shape`] when `codes` is not `code_len()`
    /// wide.
    fn decode_batch(&mut self, codes: MatView<'_>, out: &mut Matrix) -> Result<(), OrcoError>;

    /// Encodes one frame of readings into its on-air code (`code_len()`
    /// values): [`Codec::encode_batch`] of a one-row batch.
    ///
    /// # Errors
    ///
    /// Returns [`OrcoError::Shape`] when the frame is not `input_dim()`
    /// long.
    fn encode_frame(&mut self, frame: &[f32]) -> Result<Vec<f32>, OrcoError> {
        let mut code = Matrix::zeros(0, 0);
        self.encode_batch(MatView::from_row(frame), &mut code)?;
        Ok(code.into_vec())
    }

    /// Decodes one code back into a frame reconstruction (`input_dim()`
    /// values): [`Codec::decode_batch`] of a one-row batch.
    ///
    /// # Errors
    ///
    /// Returns [`OrcoError::Shape`] when the code is not `code_len()`
    /// long.
    fn decode_frame(&mut self, code: &[f32]) -> Result<Vec<f32>, OrcoError> {
        let mut frame = Matrix::zeros(0, 0);
        self.decode_batch(MatView::from_row(code), &mut frame)?;
        Ok(frame.into_vec())
    }

    /// The codec's native reconstruction loss (used for reporting and the
    /// fine-tuning monitor; also the loss the orchestrated protocol trains
    /// with when [`Codec::split_model`] is available).
    fn loss(&self) -> Loss {
        Loss::L2
    }

    /// Batch reconstruction: one [`Codec::encode_batch`] +
    /// [`Codec::decode_batch`] round trip over every row. Callers that
    /// reconstruct repeatedly should drive the batch methods directly
    /// with their own reused buffers.
    ///
    /// # Errors
    ///
    /// Propagates batch-boundary shape errors.
    fn reconstruct(&mut self, x: &Matrix) -> Result<Matrix, OrcoError> {
        let mut codes = Matrix::zeros(0, 0);
        self.encode_batch(x.as_view(), &mut codes)?;
        let mut out = Matrix::zeros(0, 0);
        self.decode_batch(codes.as_view(), &mut out)?;
        Ok(out)
    }

    /// The codec's split (aggregator/edge) training half, when it can be
    /// trained through the IoT-Edge orchestrated protocol of §III-B.
    /// `None` for training-free or cloud-only backends.
    fn split_model(&mut self) -> Option<&mut dyn SplitModel> {
        None
    }

    /// A persistable snapshot of the codec's distributable (device-side)
    /// parameters, when it has any.
    fn checkpoint(&self) -> Option<EncoderCheckpoint> {
        None
    }

    /// Builds a new codec instance that is this codec with `checkpoint`'s
    /// encoder installed — the staging hook of a live rollout: the serving
    /// layer derives the next model version from the active one without
    /// knowing the backend's construction recipe, and the decoder (and any
    /// other state) carries over exactly so the two versions differ only
    /// in the distributed encoder.
    ///
    /// # Errors
    ///
    /// The default refuses ([`OrcoError::Config`]) — training-free or
    /// cloud-only backends have no swappable encoder. Backends that
    /// support hot swap return [`OrcoError::Config`] on a geometry
    /// mismatch between the checkpoint and this codec.
    fn with_encoder(&self, checkpoint: &EncoderCheckpoint) -> Result<Box<dyn Codec>, OrcoError> {
        let _ = checkpoint;
        Err(OrcoError::Config {
            detail: format!("codec {} does not support encoder hot-swap", self.name()),
        })
    }
}

impl Codec for AsymmetricAutoencoder {
    fn name(&self) -> &'static str {
        "OrcoDCS"
    }

    fn input_dim(&self) -> usize {
        AsymmetricAutoencoder::input_dim(self)
    }

    fn bytes_per_frame(&self) -> u64 {
        (self.latent_dim() * 4) as u64
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
        let loss = self.training_loss();
        // The batching label predates this trait (the figure harness's
        // local trainer); it is kept so seeded runs reproduce earlier
        // releases bit-for-bit.
        let mut rng = OrcoRng::from_label("bench-local-batching", spec.seed);
        shuffled_batch_train(x, spec.epochs, spec.batch_size, &mut rng, |xb| {
            self.train_batch_local(xb, &loss)
        })
    }

    fn encode_batch(&mut self, frames: MatView<'_>, out: &mut Matrix) -> Result<(), OrcoError> {
        Codec::frame_dims(self).check_frames(Codec::name(self), frames)?;
        self.encode_batch_into(frames, out);
        Ok(())
    }

    fn decode_batch(&mut self, codes: MatView<'_>, out: &mut Matrix) -> Result<(), OrcoError> {
        Codec::frame_dims(self).check_codes(Codec::name(self), codes)?;
        self.decode_batch_into(codes, out);
        Ok(())
    }

    fn loss(&self) -> Loss {
        self.training_loss()
    }

    fn split_model(&mut self) -> Option<&mut dyn SplitModel> {
        Some(self)
    }

    fn checkpoint(&self) -> Option<EncoderCheckpoint> {
        Some(EncoderCheckpoint::capture(self, Codec::name(self)))
    }

    fn with_encoder(&self, checkpoint: &EncoderCheckpoint) -> Result<Box<dyn Codec>, OrcoError> {
        let mut next = self.clone();
        checkpoint.restore(&mut next)?;
        Ok(Box::new(next))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OrcoConfig;
    use orco_datasets::{mnist_like, DatasetKind};

    fn tiny_codec() -> AsymmetricAutoencoder {
        let cfg = OrcoConfig::for_dataset(DatasetKind::MnistLike)
            .with_latent_dim(16)
            .with_learning_rate(0.1);
        AsymmetricAutoencoder::new(&cfg).unwrap()
    }

    #[test]
    fn codec_is_object_safe_and_roundtrips_shapes() {
        let mut boxed: Box<dyn Codec> = Box::new(tiny_codec());
        assert_eq!(boxed.name(), "OrcoDCS");
        assert_eq!(boxed.input_dim(), 784);
        assert_eq!(boxed.code_len(), 16);
        assert_eq!(boxed.bytes_per_frame(), 64);
        assert_eq!(boxed.frame_dims(), FrameDims { input: 784, code: 16 });
        let frame = vec![0.5f32; 784];
        let code = boxed.encode_frame(&frame).expect("frame width is valid");
        assert_eq!(code.len(), 16);
        let recon = boxed.decode_frame(&code).expect("code width is valid");
        assert_eq!(recon.len(), 784);
    }

    #[test]
    fn native_training_learns_and_records_rounds() {
        let mut codec = tiny_codec();
        let ds = mnist_like::generate(32, 0);
        let spec = TrainSpec { epochs: 4, batch_size: 16, seed: 0, data_fraction: 1.0 };
        let history = codec.train(ds.x(), &spec).unwrap();
        assert_eq!(history.rounds.len(), 8);
        assert_eq!(history.rounds.last().map(|r| r.epoch), Some(3), "four epochs ran");
        let first = history.rounds.first().unwrap().loss;
        let last = history.final_loss().unwrap();
        assert!(last < first, "loss {first} -> {last}");
    }

    #[test]
    fn data_fraction_limits_training_rounds() {
        let mut codec = tiny_codec();
        let ds = mnist_like::generate(32, 1);
        let spec = TrainSpec { epochs: 1, batch_size: 8, seed: 0, data_fraction: 0.5 };
        let history = codec.train(ds.x(), &spec).unwrap();
        assert_eq!(history.rounds.len(), 2, "16 samples in 8-batches");
    }

    #[test]
    fn invalid_spec_rejected() {
        let mut codec = tiny_codec();
        let ds = mnist_like::generate(4, 2);
        let bad = TrainSpec { batch_size: 0, ..TrainSpec::default() };
        assert!(codec.train(ds.x(), &bad).is_err());
        let bad = TrainSpec { data_fraction: 0.0, ..TrainSpec::default() };
        assert!(codec.train(ds.x(), &bad).is_err());
    }

    #[test]
    fn fraction_rows_matches_dataset_split() {
        // Same RNG stream → fraction_rows picks the same rows as
        // orco_datasets::split::fraction.
        let ds = mnist_like::generate(20, 3);
        let mut a = OrcoRng::from_label("frac-eq", 0);
        let mut b = OrcoRng::from_label("frac-eq", 0);
        let via_matrix = fraction_rows(ds.x(), 0.4, &mut a);
        let via_dataset = orco_datasets::split::fraction(&ds, 0.4, &mut b);
        assert_eq!(&via_matrix, via_dataset.x());
    }

    #[test]
    fn checkpoint_hook_captures_encoder() {
        let codec = tiny_codec();
        let ckpt = Codec::checkpoint(&codec).expect("AE has a distributable encoder");
        assert_eq!(ckpt.weight.shape(), (16, 784));
        assert_eq!(ckpt.label, "OrcoDCS");
    }

    #[test]
    fn with_encoder_stages_a_hot_swap_copy() {
        let ds = mnist_like::generate(4, 7);
        // Train a source codec, checkpoint it, and stage its encoder onto
        // an untrained copy of the same geometry.
        let mut trained = tiny_codec();
        let spec = TrainSpec { epochs: 2, batch_size: 4, seed: 0, data_fraction: 1.0 };
        let ds_train = mnist_like::generate(16, 8);
        trained.train(ds_train.x(), &spec).unwrap();
        let ckpt = Codec::checkpoint(&trained).unwrap();

        let mut base: Box<dyn Codec> = Box::new(tiny_codec());
        let mut staged = base.with_encoder(&ckpt).unwrap();
        // The staged codec encodes with the trained encoder...
        let mut codes_staged = Matrix::zeros(0, 0);
        staged.encode_batch(ds.x().as_view(), &mut codes_staged).unwrap();
        let mut codes_trained = Matrix::zeros(0, 0);
        trained.encode_batch(ds.x().as_view(), &mut codes_trained).unwrap();
        assert_eq!(codes_staged, codes_trained);
        // ...while the base codec is untouched (encodes differently).
        let mut codes_base = Matrix::zeros(0, 0);
        base.encode_batch(ds.x().as_view(), &mut codes_base).unwrap();
        assert_ne!(codes_base, codes_staged);
        // Decoder state carries over: same codes decode identically.
        let mut dec_staged = Matrix::zeros(0, 0);
        staged.decode_batch(codes_staged.as_view(), &mut dec_staged).unwrap();
        let mut dec_base = Matrix::zeros(0, 0);
        base.decode_batch(codes_staged.as_view(), &mut dec_base).unwrap();
        assert_eq!(dec_staged, dec_base, "decoder must carry over bit-identically");
    }

    #[test]
    fn with_encoder_rejects_geometry_mismatch() {
        let cfg = OrcoConfig::for_dataset(DatasetKind::MnistLike).with_latent_dim(8);
        let other = AsymmetricAutoencoder::new(&cfg).unwrap();
        let ckpt = Codec::checkpoint(&other).unwrap(); // latent 8
        let base = tiny_codec(); // latent 16
        assert!(matches!(base.with_encoder(&ckpt), Err(OrcoError::Config { .. })));
    }
}
