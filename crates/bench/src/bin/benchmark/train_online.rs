//! `train_online`: the paper's §III-B loop — `Orchestrator::train_round`
//! over the simulated WSN (16 devices, batch 32) — for OrcoDCS on
//! MNIST-like frames, for the DCSNet baseline run through the same
//! protocol, and for OrcoDCS on the wide GTSRB-like frames. Forward,
//! backward, optimizer and WSN accounting: the write side of the kernels
//! the serve workloads only read.
//!
//! Every trial starts from a fresh orchestrator built from the seed, so a
//! trial is the same work on every commit however many trials fit the
//! run, and any two trials must agree bit for bit.

use orco_baselines::dcsnet::DCSNET_LATENT_DIM;
use orco_baselines::Dcsnet;
use orco_datasets::{gtsrb_like, mnist_like, DatasetKind};
use orco_nn::{Activation, Conv2d, Dense, Layer, Loss};
use orco_tensor::{Matrix, OrcoRng};
use orco_wsn::{Network, NetworkConfig, PacketKind};
use orcodcs::{AsymmetricAutoencoder, Orchestrator, OrcoConfig, OrcoError, SplitModel};

use crate::report::{
    median_call_s, paired, raw_median, rounds, timed_setups, trials, Ctx, Report, RESIDUAL_LIMIT,
};
use crate::serve::err;
use crate::trace::Tracer;

/// Rows of a training batch (the paper's, and `OrcoConfig`'s default).
const BATCH: usize = 32;
/// Distinct batches a subject cycles through.
const BATCHES: usize = 8;

/// One `train_round` on an orchestrator the closure owns.
type Round = Box<dyn FnMut(&Matrix) -> Result<(f32, f64), OrcoError>>;

/// The three trained models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Model {
    OrcoMnist,
    OrcoGtsrb,
    Dcsnet,
}

/// Loss bits and simulated-time bits after a trial's last round.
type Outcome = (u32, u64);

struct Subject {
    key: &'static str,
    model: Model,
    seed: u64,
    batches: Vec<Matrix>,
    rounds_per_trial: usize,
    /// What the warm-up trial ended on; every later trial must match.
    pinned: Outcome,
}

fn network(seed: u64) -> NetworkConfig {
    NetworkConfig { num_devices: 16, seed, ..NetworkConfig::default() }
}

/// DCSNet has no `OrcoConfig` of its own; this is the protocol
/// configuration the repo's `train_round` bench trains it under.
fn dcsnet_config(seed: u64) -> OrcoConfig {
    OrcoConfig {
        latent_dim: DCSNET_LATENT_DIM,
        decoder_layers: 4,
        noise_variance: 0.0,
        learning_rate: 1e-3,
        epochs: 1,
        seed,
        ..OrcoConfig::for_dataset(DatasetKind::MnistLike)
    }
}

impl Model {
    fn config(self, seed: u64) -> OrcoConfig {
        match self {
            Model::OrcoMnist => OrcoConfig::for_dataset(DatasetKind::MnistLike).with_seed(seed),
            Model::OrcoGtsrb => OrcoConfig::for_dataset(DatasetKind::GtsrbLike).with_seed(seed),
            Model::Dcsnet => dcsnet_config(seed),
        }
    }

    /// A fresh orchestrator from the seed, as a round function.
    fn fresh(self, seed: u64) -> Result<Round, String> {
        let cfg = self.config(seed);
        Ok(match self {
            Model::OrcoMnist | Model::OrcoGtsrb => {
                let mut o = Orchestrator::new(cfg, network(seed)).map_err(err)?;
                Box::new(move |b| o.train_round(b))
            }
            Model::Dcsnet => {
                let model = Dcsnet::new(DatasetKind::MnistLike, seed);
                let mut o = Orchestrator::with_model(model, cfg, network(seed));
                Box::new(move |b| o.train_round(b))
            }
        })
    }
}

impl Subject {
    fn new(
        key: &'static str,
        model: Model,
        seed: u64,
        x: &Matrix,
        rounds_per_trial: usize,
    ) -> Result<Self, String> {
        let batches = (0..BATCHES).map(|b| x.slice_rows(b * BATCH..(b + 1) * BATCH)).collect();
        let mut s = Self { key, model, seed, batches, rounds_per_trial, pinned: (0, 0) };
        s.pinned = s.trial()?.1;
        Ok(s)
    }

    /// One trial: a fresh orchestrator (untimed), then `rounds_per_trial`
    /// rounds. Returns seconds per round and what the trial ended on.
    fn trial(&self) -> Result<(f64, Outcome), String> {
        let mut round = self.model.fresh(self.seed)?;
        let (mut loss, mut sim_s) = (0.0f32, 0.0f64);
        let start = std::time::Instant::now();
        for r in 0..self.rounds_per_trial {
            let (l, dt) = round(&self.batches[r % BATCHES]).map_err(err)?;
            loss = l;
            sim_s += dt;
        }
        let took = start.elapsed().as_secs_f64();
        if !loss.is_finite() {
            return Err(format!("{}: loss {loss} is not finite", self.key));
        }
        Ok((took / self.rounds_per_trial as f64, (loss.to_bits(), sim_s.to_bits())))
    }

    /// A trial that must end exactly where the warm-up trial did.
    fn gated_trial(&self) -> Result<f64, String> {
        let (per_round_s, outcome) = self.trial()?;
        if outcome != self.pinned {
            return Err(format!(
                "{}: two orchestrators on seed {} ended on different loss or simulated time",
                self.key, self.seed
            ));
        }
        Ok(per_round_s)
    }
}

fn setup(seed: u64, smoke: bool) -> Result<[Subject; 3], String> {
    let mnist = mnist_like::generate(BATCH * BATCHES, seed);
    let gtsrb = gtsrb_like::generate(BATCH * BATCHES, seed);
    let rounds = |full: usize| if smoke { 1 } else { full };
    Ok([
        Subject::new("orcodcs", Model::OrcoMnist, seed, mnist.x(), rounds(32))?,
        Subject::new("dcsnet", Model::Dcsnet, seed, mnist.x(), rounds(1))?,
        Subject::new("orcodcs_gtsrb", Model::OrcoGtsrb, seed, gtsrb.x(), rounds(2))?,
    ])
}

/// Runs the workload.
///
/// # Errors
///
/// Any correctness-gate failure or error from the program under test.
pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let (seed, smoke) = (ctx.seed, ctx.smoke);
    let setups = ctx.setups();
    let (subjects, setup_s) = timed_setups(setups, &mut ctx.cal, || setup(seed, smoke))?;
    if ctx.traced {
        return traced(ctx, &subjects);
    }

    let mut per_round_s = Vec::new();
    for s in &subjects {
        let v = trials(0.3 * ctx.seconds, 3, &mut ctx.cal, || s.gated_trial())?;
        ctx.report.ops(s.key, (v.len() * s.rounds_per_trial) as u64, 0);
        per_round_s.push(v);
    }
    let r = &mut ctx.report;
    r.set_rate("primary_per_s", &per_round_s[0], "OrcoDCS MNIST-like training rounds/s, batch 32");
    r.set_rate(
        "contrast_per_s",
        &per_round_s[1],
        "DCSNet training rounds/s through the same protocol",
    );
    r.set_time(
        "latency_p50_ms",
        1e3,
        &per_round_s[2],
        "OrcoDCS GTSRB-like 3072->512, ms per training round",
    );
    r.set_setup(&setup_s, "datasets + a warm-up trial of each model");
    Ok(())
}

/// `Orchestrator::train_round`'s six steps, made from outside through
/// the same public calls, with a span around each. Returns the loss.
#[allow(clippy::too_many_arguments)]
fn replayed_round<M: SplitModel>(
    model: &mut M,
    net: &mut Network,
    loss: Loss,
    cfg: &OrcoConfig,
    batch: &Matrix,
    t: &mut Tracer,
    request: u64,
) -> Result<f32, String> {
    let root = t.enter("orchestrator.round", request);
    let (agg, edge, b) = (net.aggregator(), net.edge(), batch.rows() as u64);
    let compute = |t: &mut Tracer, net: &mut Network, at, flops: u64| {
        t.span("wsn.compute", request, || net.compute(at, flops)).map_err(err)
    };
    let transmit = |t: &mut Tracer, net: &mut Network, from, to, bytes, kind| {
        t.span("wsn.transmit", request, || net.transmit(from, to, bytes, kind)).map_err(err)
    };

    compute(t, net, agg, model.encoder_flops_forward() * b)?;
    let latent = t.span("split.encode_train", request, || model.aggregator_encode_train(batch));
    let latent_bytes = (latent.len() * 4) as u64;
    transmit(t, net, agg, edge, latent_bytes, PacketKind::LatentVector)?;

    compute(t, net, edge, model.decoder_flops_forward() * b)?;
    let recon = t.span("split.decode_train", request, || model.edge_decode_train(&latent));
    transmit(t, net, edge, agg, (recon.len() * 4) as u64, PacketKind::Reconstruction)?;

    compute(t, net, agg, loss.flops(batch.cols()) * b)?;
    let (value, grad) = t
        .span("loss.value_grad", request, || (loss.value(&recon, batch), loss.grad(&recon, batch)));
    let (grad_rx, grad_bytes) = cfg.grad_compression.apply(&grad);
    transmit(t, net, agg, edge, grad_bytes, PacketKind::ModelUpdate)?;

    compute(t, net, edge, model.decoder_flops_backward() * b)?;
    let grad_latent =
        t.span("split.decoder_update", request, || model.edge_decoder_update(&grad_rx));
    transmit(t, net, edge, agg, latent_bytes, PacketKind::ModelUpdate)?;

    compute(t, net, agg, model.encoder_flops_backward() * b)?;
    t.span("split.encoder_update", request, || model.aggregator_encoder_update(&grad_latent));
    t.exit(root);
    Ok(value)
}

/// Replays one trial of `subject` — fresh model, fresh network, the
/// subject's rounds — and checks it ends on the loss the orchestrator's
/// trials end on: the replay is the same computation, only spanned.
fn replay(subject: &Subject, t: &mut Tracer) -> Result<(), String> {
    fn rounds<M: SplitModel>(mut model: M, s: &Subject, t: &mut Tracer) -> Result<f32, String> {
        let cfg = s.model.config(s.seed);
        let mut net = Network::new(network(s.seed));
        let mut last = 0.0;
        for r in 0..s.rounds_per_trial {
            let batch = &s.batches[r % BATCHES];
            last = replayed_round(&mut model, &mut net, cfg.loss(), &cfg, batch, t, r as u64)?;
        }
        Ok(last)
    }
    let last = match subject.model {
        Model::Dcsnet => rounds(Dcsnet::new(DatasetKind::MnistLike, subject.seed), subject, t)?,
        _ => {
            let cfg = subject.model.config(subject.seed);
            rounds(AsymmetricAutoencoder::new(&cfg).map_err(err)?, subject, t)?
        }
    };
    if last.to_bits() != subject.pinned.0 {
        return Err(format!("{}: the replayed rounds ended on a different loss", subject.key));
    }
    Ok(())
}

/// The spanned steps of a round, and the groups the budget puts them in.
const STEPS: [&str; 4] = ["encode_train", "decode_train", "decoder_update", "encoder_update"];

fn traced(ctx: &mut Ctx, subjects: &[Subject; 3]) -> Result<(), String> {
    let mut ops = 0;
    for subject in &subjects[..2] {
        let rounds_per_trial = subject.rounds_per_trial as f64;
        let mut spans = Tracer::new(ctx.tracer.epoch());
        // Per replayed trial: seconds per round inside the spanned steps
        // (split.*, loss.*, wsn.*), from a tracer of its own.
        let mut step_s: Vec<[f64; 6]> = Vec::new();
        let mut plain = || subject.gated_trial();
        let mut replayed = || {
            let mut t = Tracer::new(spans.epoch());
            replay(subject, &mut t)?;
            let layers = t.by_layer();
            let per_round =
                |name: &str| layers.get(name).map_or(0.0, |l| l.total_s) / rounds_per_trial;
            let mut row = [0.0; 6];
            for (slot, step) in row.iter_mut().zip(STEPS) {
                *slot = per_round(&format!("split.{step}"));
            }
            row[4] = per_round("loss.value_grad");
            row[5] = per_round("wsn.transmit") + per_round("wsn.compute");
            step_s.push(row);
            spans.absorb(t);
            Ok(per_round("orchestrator.round"))
        };
        // Each round: a plain `train_round` trial, then a replayed one.
        let timed = rounds(0.4 * ctx.seconds, 2, &mut ctx.cal, &mut [&mut plain, &mut replayed])?;
        ops += 2 * timed[0].len() * subject.rounds_per_trial;

        // Step j's share of the plain round, per round of the run, in
        // normalised time; then medians.
        let share = |j: usize| -> f64 {
            let v: Vec<f64> = timed[0]
                .iter()
                .zip(&timed[1])
                .zip(&step_s)
                .map(|(((plain, hp), (_, hr)), steps)| (steps[j] / hr) / (plain / hp))
                .collect();
            crate::stats::median(&v)
        };
        let shares: Vec<f64> = (0..6).map(share).collect();
        let round_ms = raw_median(&timed[0]) * 1e3;
        let residual = 1.0 - shares.iter().sum::<f64>();
        let key = subject.key;
        let r = &mut ctx.report;
        for (step, share) in STEPS.iter().zip(&shares) {
            r.set(&format!("split.{key}.{step}_ms"), share * round_ms, "per round, from outside");
        }
        r.set(
            &format!("loss.{key}.value_grad_ms"),
            shares[4] * round_ms,
            "Loss::value + Loss::grad per round",
        );
        r.set(
            &format!("orchestrator.{key}.self_ms"),
            residual * round_ms,
            "train_round - the steps above",
        );
        if subject.model == Model::OrcoMnist {
            r.set(
                "wsn.transmit_us",
                spans.median_s("wsn.transmit") * 1e6,
                "median DeploymentBackend::transmit",
            );
            r.set(
                "wsn.compute_us",
                spans.median_s("wsn.compute") * 1e6,
                "median DeploymentBackend::compute",
            );
            r.set("trace.untraced_per_s", 1e3 / round_ms, "OrcoDCS rounds/s, train_round (raw)");
            r.set(
                "trace.overhead_share",
                paired(&timed[0], &timed[1], |plain, replayed| 1.0 - plain / replayed),
                "rounds/s lost replaying with spans, median over rounds",
            );
            // Where an OrcoDCS round's time went, as shares of the plain
            // `train_round`; shares and residual sum to 1.
            r.set(
                "budget.encode_share",
                shares[0] + shares[3],
                "aggregator side: encode + encoder update",
            );
            r.set(
                "budget.decode_share",
                shares[1] + shares[2],
                "edge side: decode + decoder update",
            );
            r.set("budget.loss_share", shares[4], "loss value + gradient");
            r.set("budget.wsn_share", shares[5], "simulated transmit + compute accounting");
            r.set(
                "budget.residual_share",
                residual,
                "train_round time the steps do not account for",
            );
            if !ctx.smoke && residual.abs() > RESIDUAL_LIMIT {
                return Err(format!(
                    "budget.residual_share {residual:.3} is beyond {RESIDUAL_LIMIT}"
                ));
            }
        }
        ctx.tracer.absorb(spans);
    }
    ctx.report.ops("train_round + replayed rounds, OrcoDCS and DCSNet", ops as u64, 0);
    let calls = ctx.scale(10, 2);
    backward_probes(&mut ctx.report, ctx.seed, calls);
    ctx.report.set("trace.spans", ctx.tracer.len() as f64, "spans recorded");
    ctx.report.set(
        "host.factor",
        ctx.cal.median_factor(),
        "median host factor over the run's trials",
    );
    Ok(())
}

/// The training-side tensor and nn probes, at the models' shapes.
fn backward_probes(r: &mut Report, seed: u64, calls: usize) {
    let mut rng = OrcoRng::from_label("backward-probes", seed);
    let mut rand = |rows, cols| Matrix::from_fn(rows, cols, |_, _| rng.uniform(-1.0, 1.0));

    // x . W^T at batch 32: the product `Dense::forward` trains through.
    let (x, w, mut out) = (rand(BATCH, 784), rand(128, 784), Matrix::zeros(BATCH, 128));
    let s = median_call_s(20 * calls, || x.as_view().matmul_t_into(w.as_view(), out.as_view_mut()));
    r.set(
        "tensor.matmul_t_gflops.bwd_b32",
        2.0 * (BATCH * 784 * 128) as f64 / s / 1e9,
        "matmul_t_into 32x784 . (128x784)^T",
    );

    let mut dense =
        Dense::new(784, 128, Activation::Sigmoid, &mut OrcoRng::from_label("probe-dense", seed));
    let grad = rand(BATCH, 128);
    dense.forward(&x, true);
    let s = median_call_s(20 * calls, || {
        std::hint::black_box(dense.backward(&grad));
    });
    r.set("nn.dense_bwd_us", s * 1e6, "Dense 784->128 backward, 32 rows");

    let mut conv = Conv2d::new(
        16,
        32,
        32,
        16,
        3,
        1,
        1,
        Activation::Relu,
        &mut OrcoRng::from_label("probe-conv", seed),
    );
    let (x, grad) = (rand(8, 16 * 32 * 32), rand(8, 16 * 32 * 32));
    conv.forward(&x, true);
    let s = median_call_s(calls, || {
        std::hint::black_box(conv.backward(&grad));
    });
    r.set("nn.conv_bwd_us", s * 1e6, "Conv2d 16->16 3x3 on 32x32 backward, 8 rows");
}
