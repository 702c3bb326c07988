//! The data plane's contracts, pinned at the workspace level for **all
//! three backends** (OrcoDCS autoencoder, DCSNet, classical
//! DCT+ISTA/OMP):
//!
//! * `encode_batch`/`decode_batch` output is bit-identical to the
//!   per-frame `encode_frame`/`decode_frame` loop — each frame a one-row
//!   batch — across random shapes, batch sizes, and seeds (property
//!   tests);
//! * every data-plane method refuses a wrong width with one typed
//!   `OrcoError::Shape` naming the codec, the width checked, and both
//!   widths;
//! * the `&self` bodies, run on one shared codec from two threads at once,
//!   each in its own `Workspace` (one of them left by another backend),
//!   write what the `&mut self` methods write in the codec's own;
//! * DCSNet's decoder, walked a block of rows at a time, writes the bits
//!   of the per-frame loop at every block edge, and the benchmark's
//!   autoencoder decoders, one layer each, are never blocked.

use orcodcs_repro::baselines::cs::{ClassicalCodec, CsSolver, IstaConfig};
use orcodcs_repro::baselines::Dcsnet;
use orcodcs_repro::core::{
    AsymmetricAutoencoder, Codec, OrcoConfig, OrcoError, SplitModel, TrainSpec, Workspace,
};
use orcodcs_repro::datasets::{gtsrb_like, mnist_like, DatasetKind};
use orcodcs_repro::tensor::Matrix;
use proptest::prelude::*;

/// Encodes + decodes `frames` through the batch API (into dirty reused
/// buffers) and through the per-frame loop, asserting bitwise equality of
/// both stages.
fn assert_batch_matches_per_frame(codec: &mut dyn Codec, frames: &Matrix) {
    let mut codes = Matrix::from_fn(1, 1, |_, _| f32::NAN);
    codec.encode_batch(frames.as_view(), &mut codes).expect("frames fit the codec");
    assert_eq!(codes.shape(), (frames.rows(), codec.code_len()));
    for r in 0..frames.rows() {
        let code = codec.encode_frame(frames.row(r)).expect("frame width is valid");
        assert_eq!(codes.row(r), &code[..], "{}: encode row {r} diverged", codec.name());
    }
    let mut recon = Matrix::from_fn(2, 2, |_, _| -9.0);
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

    /// Classical CS, both solvers, grey and colour frames: the batched
    /// encode GEMM against the cached Φᵀ (zero-copy for one channel,
    /// gathered per channel for three) and the workspace-reusing solves
    /// must reproduce the per-frame loop exactly.
    #[test]
    fn classical_batch_bit_identical(
        m in 8usize..48,
        batch in 1usize..5,
        seed in 0u64..500,
        use_omp in any::<bool>(),
        colour in any::<bool>(),
    ) {
        let solver = if use_omp {
            CsSolver::Omp { sparsity: (m / 4).max(2) }
        } else {
            CsSolver::Ista(IstaConfig { lambda: 0.01, max_iters: 40, tol: 1e-5 })
        };
        let (kind, ds) = if colour {
            (DatasetKind::GtsrbLike, gtsrb_like::generate(batch, seed))
        } else {
            (DatasetKind::MnistLike, mnist_like::generate(batch, seed))
        };
        let mut codec = ClassicalCodec::new(kind, m, solver, seed);
        assert_batch_matches_per_frame(&mut codec, ds.x());
    }
}

/// A width no backend accepts, for frames or for codes.
const WRONG: usize = 5;

/// Every backend and every data-plane method, on a row `WRONG` wide: the
/// batch methods' one check, which the per-frame methods reach through
/// their one-row batch.
#[test]
fn every_backend_refuses_a_wrong_width_with_a_typed_shape_error() {
    let ae_cfg = OrcoConfig::for_dataset(DatasetKind::MnistLike).with_latent_dim(16);
    let omp = CsSolver::Omp { sparsity: 8 };
    // Each backend with its name and its (frame, code) widths.
    let backends: [(Box<dyn Codec>, &str, usize, usize); 3] = [
        (Box::new(AsymmetricAutoencoder::new(&ae_cfg).unwrap()), "OrcoDCS", 784, 16),
        (Box::new(Dcsnet::new(DatasetKind::MnistLike, 0)), "DCSNet", 784, 1024),
        (Box::new(ClassicalCodec::new(DatasetKind::MnistLike, 64, omp, 0)), "DCT+OMP", 784, 64),
    ];
    let bad = Matrix::zeros(3, WRONG);
    let mut out = Matrix::zeros(0, 0);
    for (mut codec, name, input, code) in backends {
        let calls = [
            ("encode_batch", "frame", input, codec.encode_batch(bad.as_view(), &mut out)),
            ("decode_batch", "code", code, codec.decode_batch(bad.as_view(), &mut out)),
            ("encode_frame", "frame", input, codec.encode_frame(bad.row(0)).map(drop)),
            ("decode_frame", "code", code, codec.decode_frame(bad.row(0)).map(drop)),
        ];
        for (method, what, expected, result) in calls {
            match result {
                Err(OrcoError::Shape { codec, what: w, expected: e, actual }) => assert_eq!(
                    (codec, w, e, actual),
                    (name, what, expected, WRONG),
                    "{name}::{method}"
                ),
                other => panic!("{name}::{method}: want a shape error, got {other:?}"),
            }
        }
    }
}

/// Encodes and decodes `frames` in `ws` through the `&self` bodies.
fn round_trip_with(codec: &dyn Codec, ws: &mut Workspace, frames: &Matrix) -> (Matrix, Matrix) {
    let (mut codes, mut recon) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
    codec.encode_batch_with(ws, frames.as_view(), &mut codes).expect("frames fit the codec");
    codec.decode_batch_with(ws, codes.as_view(), &mut recon).expect("codes fit the codec");
    (codes, recon)
}

/// Each backend in turn, the reused workspace carrying over what the
/// backend before it left in it.
#[test]
fn shared_bodies_in_callers_workspaces_match_the_codecs_own() {
    let ae_cfg = OrcoConfig::for_dataset(DatasetKind::MnistLike).with_decoder_layers(3);
    let ista = CsSolver::Ista(IstaConfig { lambda: 0.01, max_iters: 40, tol: 1e-5 });
    let backends: [Box<dyn Codec>; 3] = [
        Box::new(AsymmetricAutoencoder::new(&ae_cfg).unwrap()),
        Box::new(Dcsnet::new(DatasetKind::MnistLike, 0)),
        Box::new(ClassicalCodec::new(DatasetKind::MnistLike, 32, ista, 0)),
    ];
    let frames = mnist_like::generate(3, 7);
    let mut left_over = Workspace::default();
    for mut codec in backends {
        let (mut codes, mut recon) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        codec.encode_batch(frames.x().as_view(), &mut codes).expect("frames fit the codec");
        codec.decode_batch(codes.as_view(), &mut recon).expect("codes fit the codec");
        let shared: &dyn Codec = codec.as_ref();
        let [fresh, reused] = std::thread::scope(|scope| {
            let fresh =
                scope.spawn(|| round_trip_with(shared, &mut Workspace::default(), frames.x()));
            let reused = scope.spawn(|| round_trip_with(shared, &mut left_over, frames.x()));
            [fresh.join().expect("no panic"), reused.join().expect("no panic")]
        });
        for (codes_with, recon_with) in [fresh, reused] {
            assert_eq!(codes_with, codes, "{}: encode", codec.name());
            assert_eq!(recon_with, recon, "{}: decode", codec.name());
        }
    }
}

/// DCSNet's decoder walks a batch taller than its block (`B` rows) one
/// block at a time: at 1, B − 1, B, B + 1 and 2B + 3 rows, `decode_batch`
/// (the decoder's own buffers) and `decode_batch_with` (a caller's
/// workspace, reused across the sizes) write what the per-frame loop does.
#[test]
fn dcsnet_blocked_decode_matches_per_frame_at_every_block_edge() {
    let mut codec = Dcsnet::new(DatasetKind::MnistLike, 11);
    let block = codec.halves().decoder().block_rows();
    assert!(block > 1 && 2 * block + 3 < 256, "DCSNet's block is {block} rows");
    let frames = mnist_like::generate(2 * block + 3, 11);
    let mut ws = Workspace::default();
    for rows in [1, block - 1, block, block + 1, 2 * block + 3] {
        let frames = frames.x().slice_rows(0..rows);
        assert_batch_matches_per_frame(&mut codec, &frames);
        let (codes, recon) = round_trip_with(&codec, &mut ws, &frames);
        for r in 0..rows {
            let frame = codec.decode_frame(codes.row(r)).expect("code width is valid");
            assert_eq!(recon.row(r), &frame[..], "{rows} rows: decode_batch_with row {r}");
        }
    }
}

/// Every autoencoder decoder the benchmark runs (the paper's latent width
/// on both datasets) is one layer, so its decode writes `out` itself in
/// one walk whatever the batch: the blocked walk never reaches it.
#[test]
fn every_benchmark_autoencoder_decoder_is_one_layer() {
    for kind in [DatasetKind::MnistLike, DatasetKind::GtsrbLike] {
        let cfg = OrcoConfig::for_dataset(kind).with_latent_dim(kind.paper_latent_dim());
        let codec = AsymmetricAutoencoder::new(&cfg).unwrap();
        assert_eq!(codec.halves().decoder().len(), 1, "{kind:?}");
    }
}
