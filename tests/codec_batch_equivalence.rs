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
//!   widths.

use orcodcs_repro::baselines::cs::{ClassicalCodec, CsSolver, IstaConfig};
use orcodcs_repro::baselines::Dcsnet;
use orcodcs_repro::core::{AsymmetricAutoencoder, Codec, OrcoConfig, OrcoError, TrainSpec};
use orcodcs_repro::datasets::{gtsrb_like, mnist_like, DatasetKind};
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
