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
//! its constants.

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
        round_trip: 0x49b1_bd75_089b_4ef0,
        loss_bits: [0x3dbb_7a3b, 0x3dae_63ff, 0x3d9f_a793],
        grad_latent: [0x39da_234a_6ee4_ce41, 0xaaa5_bbe9_d4ee_bb28, 0xe3e3_9b8f_cad3_ea20],
        decoded_after: 0xf122_eb01_448a_f0f5,
    },
    DcsnetPins {
        kind: DatasetKind::GtsrbLike,
        dataset: gtsrb_like::generate,
        round_trip: 0x4c9f_3dc0_e113_9441,
        loss_bits: [0x3d86_bffb, 0x3d6b_6dd5, 0x3d66_8ba0],
        grad_latent: [0x9086_6d85_e126_6372, 0xd53f_6964_9af9_6704, 0xfa8f_13dd_d4cd_931b],
        decoded_after: 0x0ba6_d2e7_6cc9_a42d,
    },
];

#[test]
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
        forward: 0xcc1f_d3b8_7710_44fe,
        grad_input: 0x9c21_8317_3dbc_9ef7,
        grad_kernels: 0x0e66_630c_752f_ece4,
        grad_bias: 0xf055_2f09_ed5c_d234,
    },
    ConvPins {
        geometry: (2, 8, 8, 5, 5, 1, 2),
        forward: 0x9399_525c_5069_a4f5,
        grad_input: 0x2fc7_a721_9f35_69ae,
        grad_kernels: 0x569b_cc6b_66f0_4579,
        grad_bias: 0xe3c6_bed7_2308_3029,
    },
    ConvPins {
        geometry: (1, 6, 6, 2, 2, 2, 0),
        forward: 0x9810_7556_b906_6f94,
        grad_input: 0x7eb6_e664_5c7f_c9e2,
        grad_kernels: 0x32b9_b5ce_e048_71ba,
        grad_bias: 0x92f0_707d_afa4_ee7c,
    },
    ConvPins {
        geometry: (2, 5, 5, 3, 3, 1, 0),
        forward: 0x7cb7_47b9_b63d_8515,
        grad_input: 0x75cc_5ab3_8665_afc9,
        grad_kernels: 0xd83f_c096_8053_9737,
        grad_bias: 0xfe4a_4b90_9ecd_5efa,
    },
    ConvPins {
        geometry: (1, 4, 4, 2, 3, 3, 2),
        forward: 0xc703_9e3b_0489_5816,
        grad_input: 0x22d2_9129_2465_582c,
        grad_kernels: 0x443b_1c63_da52_76ee,
        grad_bias: 0xdfd8_0cfc_1dc4_d425,
    },
];

#[test]
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
