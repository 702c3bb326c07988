//! The batched data plane's bit-identity contract, pinned at the
//! workspace level:
//!
//! * for **all three backends** (OrcoDCS autoencoder, DCSNet, classical
//!   DCT+ISTA/OMP), `encode_batch`/`decode_batch` output is bit-identical
//!   to the per-frame `encode_frame`/`decode_frame` loop across random
//!   shapes, batch sizes, and seeds (property tests);
//! * `Experiment::run()` reports are unchanged by the batched path — a
//!   codec stripped down to the per-frame compatibility layer (batch
//!   defaults) produces a bit-equal `Report` to the natively batched one
//!   (regression).

use orcodcs_repro::baselines::cs::{ClassicalCodec, CsSolver, IstaConfig};
use orcodcs_repro::baselines::Dcsnet;
use orcodcs_repro::core::{
    AsymmetricAutoencoder, Codec, ExperimentBuilder, OrcoConfig, OrcoError, SplitModel, TrainSpec,
    TrainingHistory, TrainingMode,
};
use orcodcs_repro::datasets::{mnist_like, DatasetKind};
use orcodcs_repro::tensor::Matrix;
use proptest::prelude::*;

/// Encodes + decodes `frames` through the batch API (into dirty reused
/// buffers) and through the per-frame loop, asserting bitwise equality of
/// both stages.
fn assert_batch_matches_per_frame(codec: &mut dyn Codec, frames: &Matrix) {
    let mut codes = Matrix::filled(1, 1, f32::NAN);
    codec.encode_batch(frames.as_view(), &mut codes).expect("frames fit the codec");
    assert_eq!(codes.shape(), (frames.rows(), codec.code_len()));
    for r in 0..frames.rows() {
        let code = codec.encode_frame(frames.row(r)).expect("frame width is valid");
        assert_eq!(codes.row(r), &code[..], "{}: encode row {r} diverged", codec.name());
    }
    let mut recon = Matrix::filled(2, 2, -9.0);
    codec.decode_batch(codes.as_view(), &mut recon).expect("codes fit the codec");
    assert_eq!(recon.shape(), (frames.rows(), codec.input_dim()));
    for r in 0..frames.rows() {
        let frame = codec.decode_frame(codes.row(r)).expect("code width is valid");
        assert_eq!(recon.row(r), &frame[..], "{}: decode row {r} diverged", codec.name());
    }
    // The same `out` again, now dirty with the full batch and too tall for
    // its first half: decode must resize and fully overwrite it.
    let full = recon.clone();
    let head = 0..frames.rows().div_ceil(2);
    codec.decode_batch(codes.view_rows(head.clone()), &mut recon).expect("codes fit the codec");
    assert_eq!(recon, full.slice_rows(head), "{}: decode into a reused out diverged", codec.name());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// OrcoDCS autoencoder: random latent dims, batch sizes, seeds,
    /// decoder depths 1 and 3 (the decode ping-pong ends in `out` after an
    /// odd walk either way, through zero or one pair of swaps), and a
    /// little training in between (the batch path must track the live
    /// weights, not a stale cache).
    #[test]
    fn autoencoder_batch_bit_identical(
        latent in 4usize..32,
        batch in 1usize..12,
        seed in 0u64..500,
        train_steps in 0usize..3,
        decoder_layers in prop_oneof![Just(1usize), Just(3usize)],
    ) {
        let cfg = OrcoConfig::for_dataset(DatasetKind::MnistLike)
            .with_latent_dim(latent)
            .with_decoder_layers(decoder_layers)
            .with_seed(seed);
        let mut codec = AsymmetricAutoencoder::new(&cfg).unwrap();
        let ds = mnist_like::generate(batch, seed);
        if train_steps > 0 {
            let spec = TrainSpec { epochs: train_steps, batch_size: 8, seed, data_fraction: 1.0 };
            codec.train(ds.x(), &spec).unwrap();
        }
        assert_batch_matches_per_frame(&mut codec, ds.x());
    }

    /// DCSNet: fixed 1024-dim latent, conv decoder.
    #[test]
    fn dcsnet_batch_bit_identical(batch in 1usize..4, seed in 0u64..500) {
        let mut codec = Dcsnet::new(DatasetKind::MnistLike, seed);
        let ds = mnist_like::generate(batch, seed);
        assert_batch_matches_per_frame(&mut codec, ds.x());
    }

    /// Classical CS, both solvers: the batched encode GEMM against the
    /// cached Φᵀ and the workspace-reusing solves must reproduce the
    /// per-frame loop exactly.
    #[test]
    fn classical_batch_bit_identical(
        m in 8usize..48,
        batch in 1usize..5,
        seed in 0u64..500,
        use_omp in any::<bool>(),
    ) {
        let solver = if use_omp {
            CsSolver::Omp { sparsity: (m / 4).max(2) }
        } else {
            CsSolver::Ista(IstaConfig { lambda: 0.01, max_iters: 40, tol: 1e-5 })
        };
        let mut codec = ClassicalCodec::new(DatasetKind::MnistLike, m, solver, seed);
        let ds = mnist_like::generate(batch, seed);
        assert_batch_matches_per_frame(&mut codec, ds.x());
    }
}

/// A codec that forwards only the per-frame compatibility layer (plus the
/// training hooks), so every batch entry point runs its default
/// per-frame-loop body.
#[derive(Debug)]
struct PerFrameOnly(AsymmetricAutoencoder);

impl Codec for PerFrameOnly {
    fn name(&self) -> &'static str {
        Codec::name(&self.0)
    }
    fn input_dim(&self) -> usize {
        Codec::input_dim(&self.0)
    }
    fn bytes_per_frame(&self) -> u64 {
        Codec::bytes_per_frame(&self.0)
    }
    fn train(&mut self, x: &Matrix, spec: &TrainSpec) -> Result<TrainingHistory, OrcoError> {
        self.0.train(x, spec)
    }
    fn encode_frame(&mut self, frame: &[f32]) -> Result<Vec<f32>, OrcoError> {
        self.0.encode_frame(frame)
    }
    fn decode_frame(&mut self, code: &[f32]) -> Result<Vec<f32>, OrcoError> {
        self.0.decode_frame(code)
    }
    fn loss(&self) -> orcodcs_repro::nn::Loss {
        Codec::loss(&self.0)
    }
    fn split_model(&mut self) -> Option<&mut dyn SplitModel> {
        self.0.split_model()
    }
    fn checkpoint(&self) -> Option<orcodcs_repro::core::EncoderCheckpoint> {
        Codec::checkpoint(&self.0)
    }
}

fn small_cfg() -> OrcoConfig {
    OrcoConfig::for_dataset(DatasetKind::MnistLike)
        .with_latent_dim(16)
        .with_epochs(2)
        .with_batch_size(8)
}

/// Regression: the full pipeline — probes, final loss/PSNR, and the
/// data-plane measurement that now batch-encodes real frames — reports
/// **bit-equal** results whether the codec runs its native batched paths
/// or the per-frame default bodies.
#[test]
fn experiment_reports_unchanged_by_batched_path() {
    for mode in [TrainingMode::Orchestrated, TrainingMode::Local] {
        let dataset = mnist_like::generate(24, 9);
        let run = |codec: Box<dyn Codec>| {
            let mut exp = ExperimentBuilder::new()
                .dataset(&dataset)
                .codec_boxed(codec)
                .training(mode)
                .epochs(2)
                .batch_size(8)
                .seed(9)
                .build()
                .expect("consistent experiment");
            exp.run().expect("pipeline runs")
        };
        let native = run(Box::new(AsymmetricAutoencoder::new(&small_cfg()).unwrap()));
        let per_frame =
            run(Box::new(PerFrameOnly(AsymmetricAutoencoder::new(&small_cfg()).unwrap())));
        assert_eq!(
            native, per_frame,
            "{mode:?} report diverged between batched and per-frame paths"
        );
    }
}
