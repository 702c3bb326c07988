//! The error ledger of the absolute pins, and the shadow's own checks.
//!
//! **Which pins are which.** A *relational* pin compares two paths of one
//! build, so it holds whatever rounding the kernels do, and must never be
//! edited: batch ≡ per-frame (`codec_batch_equivalence`), gateway ≡ direct
//! codec (the gauntlet's transparency check, `gateway_loopback`), replay ≡
//! tape (`gauntlet`), any thread budget ≡ one thread
//! (`thread_determinism`), panels ≡ per-call pack (`orco_tensor`'s
//! oracles), orchestrated ≡ local training (`distributed_equivalence`),
//! and the `StatsReply`, wire golden, tape and trace-export bytes, which
//! no kernel value reaches. An *absolute* pin holds literal values of
//! kernel arithmetic, so a kernel that rounds differently moves it:
//!
//! | pin | its row here |
//! |---|---|
//! | `conv_golden::dcsnet_round_trip_and_three_split_rounds_match_their_golden_values` | `dcsnet.mnist`, `dcsnet.gtsrb` |
//! | `conv_golden::conv2d_on_odd_geometries_matches_its_golden_values` | `conv.odd_geometries` |
//! | `gauntlet_golden::every_scenario_matches_its_golden_values` (`decoded_fnv` only) | `gauntlet.decoded` |
//! | `streaming_loopback::a_fixed_streamed_schedule_matches_its_golden_values` | `streamed.schedule` |
//! | `pipeline_api::builder_chain_matches_legacy_run_orcodcs_bit_for_bit` | `pipeline.rounds` |
//!
//! The `des_equivalence` and `distributed_equivalence` literals are
//! simulated times, byte counts and energies, which no kernel value
//! reaches; they hold as they are.
//!
//! **The rows.** Each row is the distance of the values its pin digests
//! from their `f64` shadow (`shadow/mod.rs`), each protocol step computed
//! from the same `f32` weights and inputs the `f32` step read: the max and
//! the mean, in `f32` ulps of each compared tensor's largest value. The
//! rows were measured on the unfused multiply-add step and committed
//! before the micro-kernel fused it, then measured again on the fused
//! step ([`LEDGER`] says how they compare); from here on a kernel change
//! may move an absolute pin only if no row of its build gets worse, which
//! `every_absolute_pin_is_no_further_from_f64_than_its_row` holds. Where a
//! pin's values come through the gateway, gateway ≡ direct codec makes its
//! row the direct codec's on the same frames.
//!
//! The absolute pins' values belong to the build `.cargo/config.toml`
//! makes (`x86-64-v3`, with FMA) and are `ignore`d without FMA; the ledger
//! holds each build to its own column.

mod shadow;

use orcodcs_repro::baselines::Dcsnet;
use orcodcs_repro::core::{AsymmetricAutoencoder, Codec, OrcoConfig, SplitModel};
use orcodcs_repro::datasets::{gtsrb_like, mnist_like, Dataset, DatasetKind};
use orcodcs_repro::nn::{Activation, Conv2d, Layer, Loss, Workspace};
use orcodcs_repro::serve::scenarios::{codec_config, uniform_frames};
use orcodcs_repro::tensor::{Conv2dGeom, Matrix, OrcoRng};
use proptest::prelude::*;
use shadow::{check_product, loss, Adam64, Errors, Kind, Net64, M64};

/// One absolute pin's distance from the shadow, `(max, mean)` ulps, in
/// each build: `unfused` measured on the step `acc + a * b` and committed
/// with the shadow, before the micro-kernel changed; `fused` measured on
/// `a.mul_add(b, acc)`. Both rounded up in the fourth digit.
struct Row {
    pin: &'static str,
    unfused: (f64, f64),
    fused: (f64, f64),
}

/// Fusing the step brought five of six means and three of six maxima
/// closer to `f64`, and both sums (`fusing_the_step_is_no_further_from_f64_in_aggregate`).
/// Three maxima moved out: `dcsnet.gtsrb` by 0.05 % and `pipeline.rounds`
/// by 2.5 % — both a loss scalar, whose error is `Loss::value`'s own
/// serial `f32` sum, untouched by the kernel — and `streamed.schedule` by
/// 3.7 %, one decoded value. `pipeline.rounds`' mean moved out 0.5 %; from
/// its second round on, each build measures its own training trajectory.
const LEDGER: [Row; 6] = [
    Row { pin: "dcsnet.mnist", unfused: (16.28, 0.4266), fused: (15.28, 0.4135) },
    Row { pin: "dcsnet.gtsrb", unfused: (39.29, 0.4924), fused: (39.31, 0.4852) },
    Row { pin: "conv.odd_geometries", unfused: (7.623, 0.4925), fused: (6.894, 0.4546) },
    Row { pin: "gauntlet.decoded", unfused: (1.920, 0.3147), fused: (1.714, 0.3122) },
    Row { pin: "streamed.schedule", unfused: (1.437, 0.3195), fused: (1.491, 0.3138) },
    Row { pin: "pipeline.rounds", unfused: (38.19, 1.630), fused: (39.15, 1.638) },
];

/// A split model's encoder in `f64`.
fn encoder64<M: SplitModel + ?Sized>(model: &M) -> Net64 {
    let e = model.halves().encoder();
    Net64::new(vec![Kind::Dense(Activation::Sigmoid)], &[e.weight().clone(), e.bias().clone()])
}

/// A split model's decoder, `kinds` its layers, in `f64`.
fn decoder64<M: SplitModel + ?Sized>(model: &M, kinds: Vec<Kind>) -> Net64 {
    let mut decoder = model.halves().decoder().clone();
    let mut params = Vec::new();
    decoder.for_each_param(&mut |p| params.push(p.value.clone()));
    Net64::new(kinds, &params)
}

/// The parameters of a split model's decoder and their gradients.
fn decoder_state<M: SplitModel + ?Sized>(model: &M) -> (Vec<Matrix>, Vec<Matrix>) {
    let mut decoder = model.halves().decoder().clone();
    let (mut values, mut grads) = (Vec::new(), Vec::new());
    decoder.for_each_param(&mut |p| {
        values.push(p.value.clone());
        grads.push(p.grad.clone());
    });
    (values, grads)
}

/// DCSNet's decoder: four 3×3 convolutions over the 32×32 latent map, then
/// the crop to the frame.
fn dcsnet_kinds(kind: DatasetKind) -> Vec<Kind> {
    let conv =
        |in_c, out_c, act| Kind::Conv { geom: Conv2dGeom::new(in_c, 32, 32, 3, 1, 1), out_c, act };
    vec![
        conv(1, 16, Activation::Relu),
        conv(16, 16, Activation::Relu),
        conv(16, 8, Activation::Relu),
        conv(8, kind.channels(), Activation::Sigmoid),
        Kind::Crop { channels: kind.channels(), side: 32, out: kind.height() },
    ]
}

/// An autoencoder's dense sigmoid decoder.
fn ae_kinds<M: SplitModel + ?Sized>(model: &M) -> Vec<Kind> {
    let (values, _) = decoder_state(model);
    vec![Kind::Dense(Activation::Sigmoid); values.len() / 2]
}

fn last(mut outs: Vec<M64>) -> M64 {
    outs.pop().expect("a stack has a layer")
}

/// One split round of `model` on `x`, every digested value against its
/// shadow: the loss and the latent gradient from the edge step
/// (the `f32` latent in, the `f32` reconstruction gradient back through
/// the decoder as it was before the update).
fn split_round<M: SplitModel + ?Sized>(
    model: &mut M,
    kinds: &[Kind],
    x: &Matrix,
    l: Loss,
    e: &mut Errors,
) {
    let decoder = decoder64(model, kinds.to_vec());
    let latent = model.aggregator_encode_train(x);
    let reconstruction = model.edge_decode_train(&latent);
    let value = l.value(&reconstruction, x);
    let grad = l.grad(&reconstruction, x);
    let grad_latent = model.edge_decoder_update(&grad);
    model.aggregator_encoder_update(&grad_latent);

    let latent64 = M64::of(&latent);
    let outs = decoder.forward(&latent64);
    let (value64, _) = loss(l, outs.last().expect("a layer"), x);
    e.tensor(&[value], &[value64]);
    let (_, grad_latent64) = decoder.backward(&latent64, &outs, &M64::of(&grad));
    e.matrix(&grad_latent, &grad_latent64);
}

/// `encode_batch` then `decode_batch` of `frames`, each step against its
/// shadow from the step's `f32` input.
fn round_trip<M: Codec + SplitModel>(model: &M, kinds: Vec<Kind>, frames: &Matrix, e: &mut Errors) {
    let (mut codes, mut decoded) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
    let mut ws = Workspace::default();
    model.encode_batch_with(&mut ws, frames.as_view(), &mut codes).expect("frames fit");
    model.decode_batch_with(&mut ws, codes.as_view(), &mut decoded).expect("codes fit");
    e.matrix(&codes, &last(encoder64(model).forward(&M64::of(frames))));
    e.matrix(&decoded, &last(decoder64(model, kinds).forward(&M64::of(&codes))));
}

/// `conv_golden`'s DCSNet test, step by step.
fn dcsnet(kind: DatasetKind, dataset: fn(usize, u64) -> Dataset) -> Errors {
    let mut e = Errors::default();
    let mut net = Dcsnet::new(kind, 11);
    let dataset = dataset(6, 5);
    let x = dataset.x();
    round_trip(&net, dcsnet_kinds(kind), x, &mut e);
    let mut codes = Matrix::zeros(0, 0);
    net.encode_batch(x.as_view(), &mut codes).expect("frames fit");
    for _ in 0..3 {
        split_round(&mut net, &dcsnet_kinds(kind), x, Loss::L2, &mut e);
    }
    let mut decoded = Matrix::zeros(0, 0);
    net.decode_batch(codes.as_view(), &mut decoded).expect("codes fit");
    e.matrix(&decoded, &last(decoder64(&net, dcsnet_kinds(kind)).forward(&M64::of(&codes))));
    e
}

/// `conv_golden`'s odd geometries: forward, `∂x`, `∂K`, `∂b`.
fn odd_geometries() -> Errors {
    const GEOMETRIES: [(usize, usize, usize, usize, usize, usize, usize); 5] = [
        (3, 9, 7, 4, 3, 2, 1),
        (2, 8, 8, 5, 5, 1, 2),
        (1, 6, 6, 2, 2, 2, 0),
        (2, 5, 5, 3, 3, 1, 0),
        (1, 4, 4, 2, 3, 3, 2),
    ];
    let mut e = Errors::default();
    for (i, (in_c, h, w, out_c, kernel, stride, pad)) in GEOMETRIES.into_iter().enumerate() {
        let mut rng = OrcoRng::from_label("pin", i as u64);
        let mut conv =
            Conv2d::new(in_c, h, w, out_c, kernel, stride, pad, Activation::Tanh, &mut rng);
        let x = Matrix::from_fn(3, conv.input_dim(), |r, c| ((13 * r + c) as f32 * 0.37).sin());
        let g = Matrix::from_fn(3, conv.output_dim(), |r, c| ((7 * r + c) as f32 * 0.11).cos());
        let kind = Kind::Conv {
            geom: Conv2dGeom::new(in_c, h, w, kernel, stride, pad),
            out_c,
            act: Activation::Tanh,
        };
        let shadow = Net64::new(
            vec![kind],
            &conv.params().iter().map(|p| p.value.clone()).collect::<Vec<_>>(),
        );

        let y = conv.forward(&x, true);
        let grad_input = conv.backward(&g);
        let x64 = M64::of(&x);
        let outs = shadow.forward(&x64);
        e.matrix(&y, &outs[0]);
        // Backward from the `f32` forward's output, the step's input.
        let (grads, grad_input64) = shadow.backward(&x64, &[M64::of(&y)], &M64::of(&g));
        e.matrix(&grad_input, &grad_input64);
        for (p, g64) in conv.params().iter().zip(&grads) {
            e.matrix(p.grad, g64);
        }
    }
    e
}

/// The gauntlet's decoded rows: the direct codec (version 0, and the
/// rollout's version 1 graft) on every client's frame stream at the golden
/// seed — the serve rows' streams, and the fleet rows'. The rollout row's
/// drifted tails are represented by the same streams undrifted.
fn gauntlet() -> Errors {
    const SEED: u64 = 0xC4A05;
    // (stream base, clients, frames per client, both versions)
    const STREAMS: [(u64, usize, usize, bool); 6] = [
        (0xACE0, 6, 18, false),
        (0xACE0, 4, 12, false),
        (0xACE0, 4, 10, false),
        (0xFEE7, 6, 9, false),
        (0xFEE7, 6, 24, true),
        (0xFEE7, 6, 24, false),
    ];
    let mut e = Errors::default();
    let v0 = AsymmetricAutoencoder::new(&codec_config(11)).expect("valid config");
    let donor = AsymmetricAutoencoder::new(&codec_config(99)).expect("valid config");
    let v1 = v1_model(&v0, &donor);
    for (base, clients, frames, both) in STREAMS {
        for i in 0..clients {
            let frames = uniform_frames(SEED ^ (base + i as u64), frames, 32);
            round_trip(&v0, ae_kinds(&v0), &frames, &mut e);
            if both {
                round_trip(&v1, ae_kinds(&v1), &frames, &mut e);
            }
        }
    }
    e
}

/// `v0` with `donor`'s encoder: what `Codec::with_encoder` stages.
fn v1_model(v0: &AsymmetricAutoencoder, donor: &AsymmetricAutoencoder) -> AsymmetricAutoencoder {
    let mut v1 = v0.clone();
    v1.set_encoder_parts(donor.encoder_weight().clone(), donor.encoder_bias().clone());
    v1
}

/// The streamed schedule's frames, in push order, through the version
/// each was pushed under: 36 rows of version 0, then 24 of version 1.
fn streamed() -> Errors {
    const V0: [usize; 12] = [6, 1, 3, 2, 7, 2, 6, 1, 2, 2, 1, 3];
    const V1: [usize; 7] = [6, 6, 1, 2, 6, 1, 2];
    let mut e = Errors::default();
    let v0 = AsymmetricAutoencoder::new(&codec_config(11)).expect("valid config");
    let donor = AsymmetricAutoencoder::new(&codec_config(99)).expect("valid config");
    let v1 = v1_model(&v0, &donor);
    let mut rng = OrcoRng::from_seed_u64(0x57EA);
    let mut frames = |rows: usize| Matrix::from_fn(rows, 32, |_, _| rng.uniform(0.0, 1.0));
    for (model, pushes) in [(&v0, &V0[..]), (&v1, &V1[..])] {
        for &rows in pushes {
            round_trip(model, ae_kinds(model), &frames(rows), &mut e);
        }
    }
    e
}

/// `pipeline_api`'s per-round losses, on its local-training twin
/// (orchestrated ≡ local is a relational pin): the same model, data and
/// batch size, three epochs of in-order batches.
fn pipeline() -> Errors {
    let cfg = OrcoConfig::for_dataset(DatasetKind::MnistLike)
        .with_latent_dim(32)
        .with_epochs(3)
        .with_batch_size(16);
    let dataset = mnist_like::generate(40, 11);
    let mut model = AsymmetricAutoencoder::new(&cfg).expect("valid config");
    let kinds = ae_kinds(&model);
    let mut e = Errors::default();
    for _ in 0..cfg.epochs {
        for start in (0..dataset.len()).step_by(cfg.batch_size) {
            let end = dataset.len().min(start + cfg.batch_size);
            let x = dataset.x().slice_rows(start..end);
            split_round(&mut model, &kinds, &x, cfg.loss(), &mut e);
        }
    }
    e
}

fn measure(pin: &str) -> Errors {
    match pin {
        "dcsnet.mnist" => dcsnet(DatasetKind::MnistLike, mnist_like::generate),
        "dcsnet.gtsrb" => dcsnet(DatasetKind::GtsrbLike, gtsrb_like::generate),
        "conv.odd_geometries" => odd_geometries(),
        "gauntlet.decoded" => gauntlet(),
        "streamed.schedule" => streamed(),
        "pipeline.rounds" => pipeline(),
        other => panic!("no ledger row measures {other}"),
    }
}

/// Each build's values are no further from `f64` than its column of the
/// ledger: a kernel change that moves an absolute pin must not move a row
/// out.
#[test]
fn every_absolute_pin_is_no_further_from_f64_than_its_row() {
    let mut worse = Vec::new();
    for Row { pin, unfused, fused } in LEDGER {
        let (max, mean) = if cfg!(target_feature = "fma") { fused } else { unfused };
        let (got_max, got_mean) = measure(pin).row();
        println!("{pin}: max {got_max:.6} mean {got_mean:.6} ulps (row {max} / {mean})");
        if got_max > max || got_mean > mean {
            worse.push(format!("{pin}: max {got_max:.6} mean {got_mean:.6} > row {max} / {mean}"));
        }
    }
    assert!(worse.is_empty(), "rows got worse:\n{}", worse.join("\n"));
}

/// Summed over the pins, the fused step's maxima and means are no further
/// from `f64` than the unfused step's.
#[test]
fn fusing_the_step_is_no_further_from_f64_in_aggregate() {
    let sum = |column: fn(&Row) -> f64| LEDGER.iter().map(column).sum::<f64>();
    assert!(sum(|r| r.fused.0) <= sum(|r| r.unfused.0), "summed maxima");
    assert!(sum(|r| r.fused.1) <= sum(|r| r.unfused.1), "summed means");
}

/// Every output of each product (`matmul`, `t_matmul`, `matmul_t` and its
/// pre-packed twin) against the two bounds of [`check_product`]: the worst
/// ratio of the four products to each, `(γ_k, running)`.
fn worst_product_ratios(a: &Matrix, b: &Matrix, at: &Matrix, bt: &Matrix) -> (f64, f64) {
    let k = a.cols();
    let panels = orcodcs_repro::tensor::Panels::new(bt.as_view());
    let mut packed = Matrix::zeros(a.rows(), bt.rows());
    a.as_view().matmul_panels_into(&panels, packed.as_view_mut());
    [
        check_product(&a.matmul(b), k, |i, j| (0..k).map(move |kk| (a[(i, kk)], b[(kk, j)]))),
        check_product(&at.t_matmul(b), k, |i, j| (0..k).map(move |kk| (at[(kk, i)], b[(kk, j)]))),
        check_product(&a.matmul_t(bt), k, |i, j| (0..k).map(move |kk| (a[(i, kk)], bt[(j, kk)]))),
        check_product(&packed, k, |i, j| (0..k).map(move |kk| (a[(i, kk)], bt[(j, kk)]))),
    ]
    .into_iter()
    .fold((0.0, 0.0), |(g, r), (g2, r2)| (f64::max(g, g2), f64::max(r, r2)))
}

fn random(rows: usize, cols: usize, rng: &mut OrcoRng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.uniform(-1.0, 1.0))
}

/// `(a, b, aᵀ, bᵀ)`: the same terms through every product.
fn operands(a: Matrix, b: Matrix) -> (Matrix, Matrix, Matrix, Matrix) {
    let (at, bt) = (a.transpose(), b.transpose());
    (a, b, at, bt)
}

/// The codecs' products: the AE's encode and decode, DCSNet's conv forward
/// (its last layer's one row included) and backward (its last layer's
/// `k = 1` one too), at batch 64.
#[test]
fn every_codec_product_meets_both_error_bounds() {
    let mut rng = OrcoRng::from_label("shadow-gamma", 0);
    for (m, k, n) in [
        (64, 784, 128),
        (64, 128, 784),
        (16, 144, 1024),
        (1, 72, 1024),
        (144, 16, 1024),
        (72, 1, 1024),
    ] {
        let (a, b, at, bt) = operands(random(m, k, &mut rng), random(k, n, &mut rng));
        let (gamma, running) = worst_product_ratios(&a, &b, &at, &bt);
        assert!(gamma <= 1.0, "{m}x{k}x{n}: an output is {gamma:.3} of its γ_k bound from f64");
        assert!(running <= 1.0, "{m}x{k}x{n}: an output is {running:.3} of its running bound");
    }
}

/// Terms of alternating sign and nearly equal size: in ascending `k` the
/// partial sums stay small, so the running bound is tight, and a sum
/// taken in another order — the even and the odd terms in two
/// accumulators, say — grows partial sums of ~k/2 and leaves it.
#[test]
fn alternating_terms_meet_the_running_bound_of_ascending_k() {
    let mut rng = OrcoRng::from_label("shadow-alternating", 0);
    let (m, k, n) = (8, 784, 24);
    let a = Matrix::from_fn(m, k, |_, kk| {
        let sign = if kk % 2 == 0 { 1.0 } else { -1.0 };
        sign * rng.uniform(1.0, 1.001)
    });
    let b = Matrix::from_fn(k, n, |_, _| rng.uniform(1.0, 1.001));
    let (a, b, at, bt) = operands(a, b);
    let (gamma, running) = worst_product_ratios(&a, &b, &at, &bt);
    assert!(gamma <= 1.0 && running <= 1.0, "γ_k {gamma:.3}, running {running:.3}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_shape_meets_both_error_bounds(
        (m, k, n, seed) in (1usize..=20, 1usize..=600, 1usize..=40, 0u64..1 << 20)
    ) {
        let mut rng = OrcoRng::from_seed_u64(seed);
        let (a, b, at, bt) =
            (random(m, k, &mut rng), random(k, n, &mut rng), random(k, m, &mut rng), random(n, k, &mut rng));
        let (gamma, running) = worst_product_ratios(&a, &b, &at, &bt);
        prop_assert!(gamma <= 1.0 && running <= 1.0, "{}x{}x{}: γ_k {:.3}, running {:.3}", m, k, n, gamma, running);
    }
}

/// One OrcoDCS training round, step by step from the `f32` step's inputs:
/// the decoder's parameter gradients against the shadow's backward, and
/// its parameters after Adam (with the clip) against the shadow's step
/// from the `f32` parameters and gradients. Adam's moments are carried in
/// `f64` across the rounds, so each distance stays a rounding error, in
/// ulps of the tensor's largest value: 8 for a gradient (3.0 measured), 32
/// for a step (19.6 measured). The step's is the larger because `f32`'s
/// `1 − β₂ᵗ` cancels: `β₂ᵗ` is rounded at ~6·10⁻⁸ and `1 − β₂²` is
/// ~2·10⁻³, so `v̂` carries up to ~3·10⁻⁵ relative error, and the bias,
/// a few updates of `lr` each, moves by as much in every element.
#[test]
fn a_split_rounds_backward_and_adam_steps_track_their_shadow() {
    let cfg =
        OrcoConfig::for_dataset(DatasetKind::MnistLike).with_latent_dim(32).with_batch_size(16);
    let dataset = mnist_like::generate(16, 3);
    let x = dataset.x();
    let mut model = AsymmetricAutoencoder::new(&cfg).expect("valid config");
    let kinds = ae_kinds(&model);
    let mut adam = Adam64::new(cfg.learning_rate, 10.0);
    for round in 0..4 {
        let decoder = decoder64(&model, kinds.clone());
        let latent = model.aggregator_encode_train(x);
        let reconstruction = model.edge_decode_train(&latent);
        let grad = cfg.loss().grad(&reconstruction, x);
        let grad_latent = model.edge_decoder_update(&grad);
        model.aggregator_encoder_update(&grad_latent);
        let (after, grads) = decoder_state(&model);

        let latent64 = M64::of(&latent);
        let outs = decoder.forward(&latent64);
        let (grads64, _) = decoder.backward(&latent64, &outs, &M64::of(&grad));
        let stepped = adam.step(decoder.params(), &grads.iter().map(M64::of).collect::<Vec<_>>());
        for (i, ((g, g64), (w, w64))) in
            grads.iter().zip(&grads64).zip(after.iter().zip(&stepped)).enumerate()
        {
            let (mut eg, mut ew) = (Errors::default(), Errors::default());
            eg.matrix(g, g64);
            ew.matrix(w, w64);
            assert!(
                eg.row().0 <= 8.0,
                "round {round}, parameter {i}: gradient {:?} ulps",
                eg.row()
            );
            assert!(
                ew.row().0 <= 32.0,
                "round {round}, parameter {i}: Adam step {:?} ulps",
                ew.row()
            );
        }
    }
}
