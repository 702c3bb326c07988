//! Golden values of the convolution stack: DCSNet's batched round trip,
//! three split-protocol training rounds and a decode after them, and
//! `Conv2d` forward / backward / parameter gradients on five odd
//! geometries, as literal `fnv1a64` digests over the little-endian
//! `f32::to_bits` bytes, row-major.
//!
//! Every other DCSNet or `Conv2d` test compares two paths of the same
//! build (batch against per-frame, one thread against many), so a change
//! that moved every value would stay green; this one fails. The constants
//! were measured on the per-sample `im2col` → `Matrix` → product → copy-out
//! convolution, before the lowering moved onto a layer-owned workspace — a
//! change to the conv stack may edit this file's imports and calls, never
//! its constants. They were re-pinned once, in one commit with every other
//! absolute pin, when the GEMM micro-kernel's step became one fused
//! multiply-add; `shadow_ledger.rs` holds their distance from an `f64`
//! shadow. They are the `x86-64-v3` build's values, so a build without FMA
//! ignores these tests.

use orcodcs_repro::baselines::Dcsnet;
use orcodcs_repro::core::{Codec, SplitModel};
use orcodcs_repro::datasets::{gtsrb_like, mnist_like, Dataset, DatasetKind};
use orcodcs_repro::nn::{Activation, Conv2d, Layer, Loss};
use orcodcs_repro::tensor::{fnv1a64, Matrix, OrcoRng};

/// `fnv1a64` over the matrix's elements as little-endian `f32` bit
/// patterns, row-major.
fn digest(m: &Matrix) -> u64 {
    let bytes: Vec<u8> = m.as_slice().iter().flat_map(|v| v.to_bits().to_le_bytes()).collect();
    fnv1a64(&bytes)
}

struct DcsnetPins {
    kind: DatasetKind,
    dataset: fn(usize, u64) -> Dataset,
    /// `encode_batch` → `decode_batch` on the untrained model.
    round_trip: u64,
    /// `Loss::L2` value of each of three split-protocol rounds, as bits.
    loss_bits: [u32; 3],
    /// The `grad_latent` each round's `edge_decoder_update` returned.
    grad_latent: [u64; 3],
    /// The first round trip's codes decoded again after the three rounds.
    decoded_after: u64,
}

const DCSNET: [DcsnetPins; 2] = [
    DcsnetPins {
        kind: DatasetKind::MnistLike,
        dataset: mnist_like::generate,
        round_trip: 0xe549_345e_9825_fb97,
        loss_bits: [0x3dbb_7a3c, 0x3dae_63ff, 0x3d9f_a794],
        grad_latent: [0x74fb_50a0_c767_798f, 0xfa67_ddf8_d18f_b912, 0xbdc7_15c6_883f_6aa4],
        decoded_after: 0xbcfa_67df_2c7d_158f,
    },
    DcsnetPins {
        kind: DatasetKind::GtsrbLike,
        dataset: gtsrb_like::generate,
        round_trip: 0x3242_5498_a7cc_4ca7,
        loss_bits: [0x3d86_bffb, 0x3d6b_6dd5, 0x3d66_8ba2],
        grad_latent: [0x8186_61fb_d883_701c, 0x9343_b8d9_40f7_7266, 0xca16_9318_2d07_ab6d],
        decoded_after: 0x7084_3890_e85d_d4fd,
    },
];

#[test]
#[cfg_attr(
    not(target_feature = "fma"),
    ignore = "absolute values of the x86-64-v3 build, whose GEMM step is one fused multiply-add"
)]
fn dcsnet_round_trip_and_three_split_rounds_match_their_golden_values() {
    for pins in &DCSNET {
        let kind = pins.kind;
        let mut net = Dcsnet::new(kind, 11);
        let dataset = (pins.dataset)(6, 5);
        let x = dataset.x();

        let (mut codes, mut decoded) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
        net.encode_batch(x.as_view(), &mut codes).expect("frames fit");
        net.decode_batch(codes.as_view(), &mut decoded).expect("codes fit");
        assert_eq!(digest(&decoded), pins.round_trip, "{kind:?}: round trip");

        for round in 0..3 {
            let latent = net.aggregator_encode_train(x);
            let reconstruction = net.edge_decode_train(&latent);
            let loss = Loss::L2.value(&reconstruction, x);
            let grad_latent = net.edge_decoder_update(&Loss::L2.grad(&reconstruction, x));
            net.aggregator_encoder_update(&grad_latent);
            assert_eq!(loss.to_bits(), pins.loss_bits[round], "{kind:?}: round {round} loss");
            assert_eq!(
                digest(&grad_latent),
                pins.grad_latent[round],
                "{kind:?}: round {round} grad_latent"
            );
        }

        net.decode_batch(codes.as_view(), &mut decoded).expect("codes fit");
        assert_eq!(digest(&decoded), pins.decoded_after, "{kind:?}: decode after training");
    }
}

struct ConvPins {
    /// `(in_c, h, w, out_c, kernel, stride, pad)`.
    geometry: (usize, usize, usize, usize, usize, usize, usize),
    forward: u64,
    grad_input: u64,
    grad_kernels: u64,
    grad_bias: u64,
}

/// Strided, over-padded, kernel-sized and unpadded shapes; the last
/// strides as far as its kernel is wide, with padding on every edge.
const CONV: [ConvPins; 5] = [
    ConvPins {
        geometry: (3, 9, 7, 4, 3, 2, 1),
        forward: 0x2614_671f_1b8f_74de,
        grad_input: 0xb9d1_a311_9153_95fd,
        grad_kernels: 0xdc4c_42fa_58c4_2509,
        grad_bias: 0x90e0_8a95_242c_b970,
    },
    ConvPins {
        geometry: (2, 8, 8, 5, 5, 1, 2),
        forward: 0xab4e_fb2b_0806_776f,
        grad_input: 0xcee5_994c_3e50_2f22,
        grad_kernels: 0x41cd_edbe_d733_7257,
        grad_bias: 0x75f1_9011_423b_cf68,
    },
    ConvPins {
        geometry: (1, 6, 6, 2, 2, 2, 0),
        forward: 0xd160_07bf_ec99_ce15,
        grad_input: 0xa609_0c95_f6ea_85f9,
        grad_kernels: 0x7930_e42a_1ebb_580a,
        grad_bias: 0xa58f_7a96_85b1_6a11,
    },
    ConvPins {
        geometry: (2, 5, 5, 3, 3, 1, 0),
        forward: 0x8021_ddfa_39ff_9c59,
        grad_input: 0xcfbd_c99e_8294_5809,
        grad_kernels: 0x6ac9_d63d_1285_c2b6,
        grad_bias: 0x336f_7978_3916_9bc5,
    },
    ConvPins {
        geometry: (1, 4, 4, 2, 3, 3, 2),
        forward: 0x5d19_dd84_d5b1_1525,
        grad_input: 0x0105_bad6_42b5_b539,
        grad_kernels: 0x15ca_9266_c781_70bc,
        grad_bias: 0xd23f_6d0d_30bc_6f5f,
    },
];

#[test]
#[cfg_attr(
    not(target_feature = "fma"),
    ignore = "absolute values of the x86-64-v3 build, whose GEMM step is one fused multiply-add"
)]
fn conv2d_on_odd_geometries_matches_its_golden_values() {
    for (i, pins) in CONV.iter().enumerate() {
        let (in_c, h, w, out_c, kernel, stride, pad) = pins.geometry;
        let mut rng = OrcoRng::from_label("pin", i as u64);
        let mut conv =
            Conv2d::new(in_c, h, w, out_c, kernel, stride, pad, Activation::Tanh, &mut rng);
        let x = Matrix::from_fn(3, conv.input_dim(), |r, c| ((13 * r + c) as f32 * 0.37).sin());
        let g = Matrix::from_fn(3, conv.output_dim(), |r, c| ((7 * r + c) as f32 * 0.11).cos());

        let y = conv.forward(&x, true);
        let grad_input = conv.backward(&g);
        let params = conv.params();
        let got = [digest(&y), digest(&grad_input), digest(params[0].grad), digest(params[1].grad)];
        let want = [pins.forward, pins.grad_input, pins.grad_kernels, pins.grad_bias];
        assert_eq!(
            got.map(|d| format!("{d:016x}")),
            want.map(|d| format!("{d:016x}")),
            "geometry {:?}: forward, grad_input, grad_kernels, grad_bias",
            pins.geometry
        );
    }
}
