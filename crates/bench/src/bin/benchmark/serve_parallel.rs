//! `serve_parallel`: the `serve_loopback` gateway and frames, driven by
//! `min(nproc, 2)` threads, each with its own `Loopback` connection and
//! one cluster on a shard of its own. Every trial first runs a one-thread
//! reference of the same shape, so the scaling is a same-trial ratio.

use std::sync::{Arc, Barrier};
use std::time::Instant;

use orco_serve::{Client, Gateway, Loopback, LoopbackConnection};
use orco_tensor::{Matrix, OrcoRng};
use orcodcs::{AsymmetricAutoencoder, Codec, OrcoConfig};

use crate::report::{paired, rounds, timed_setups, trials, Ctx};
use crate::serve::{
    ae_config, build_pool, closed_loop, closed_loop_parallel, err, loopback_gateway, pick_clusters,
    report_gateway_counters, Lane, Pool, CHUNK,
};
use crate::stats::median;
use crate::trace::Tracer;

struct State {
    cfg: OrcoConfig,
    pool: Pool,
    gateway: Arc<Gateway>,
    /// One connection per driving thread.
    clients: Vec<Client<LoopbackConnection>>,
    /// One cluster per client, each on a shard of its own.
    lanes: Vec<Lane>,
}

/// What one trial measured, in seconds per frame.
struct Trial {
    reference_s: f64,
    aggregate_s: f64,
    /// Mean `pull(.., 64)` of the parallel part. A pull first sweeps
    /// every shard, so it waits out the other thread's pull or runs
    /// alone, and which of the two the *median* pull is flips with how
    /// the threads happen to fall into step; the mean does not.
    pull_s: f64,
}

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from).min(2)
}

fn setup(seed: u64, warm_frames: usize) -> Result<State, String> {
    let cfg = ae_config(seed);
    let pool = build_pool(seed, &cfg)?;
    let gateway = loopback_gateway(&cfg)?;
    let mut rng = OrcoRng::from_label("serve-parallel-clusters", seed);
    // One cluster per shard; thread i drives the cluster on shard i.
    let clusters = pick_clusters(&gateway, &mut rng, 1);
    let (mut clients, mut lanes) = (Vec::new(), Vec::new());
    for (i, &cluster) in clusters.iter().take(threads()).enumerate() {
        let mut client = Client::connect(&Loopback::new(Arc::clone(&gateway))).map_err(err)?;
        client.hello(i as u64 + 1).map_err(err)?;
        clients.push(client);
        lanes.push(Lane::new(cluster, &mut rng));
    }
    let mut state = State { cfg, pool, gateway, clients, lanes };
    trial(&mut state, warm_frames, None)?;
    Ok(state)
}

/// One trial: `frames` frames on the first client alone, then `frames`
/// frames on every client at once. With `spans`, each client call of the
/// parallel part is recorded.
fn trial(state: &mut State, frames: usize, spans: Option<&mut Tracer>) -> Result<Trial, String> {
    let State { pool, clients, lanes, .. } = state;
    let took = closed_loop(&mut clients[0], pool, &mut lanes[..1], 1, frames, &mut Vec::new())?;
    let reference_s = took / frames as f64;
    let mut pull_s = Vec::new();
    let took = closed_loop_parallel(clients, pool, lanes, 1, frames, &mut pull_s, spans)?;
    let aggregate_s = took / (clients.len() * frames) as f64;
    Ok(Trial { reference_s, aggregate_s, pull_s: pull_s.iter().sum::<f64>() / pull_s.len() as f64 })
}

/// Frames/s of `threads` bare codecs, one per thread, each running
/// `rounds` rounds of `encode_batch` + `decode_batch` on 64 rows — what
/// the host gives two threads of pure kernel work, the ceiling for the
/// gateway's scaling.
fn bare_codec_fps(
    pool: &Pool,
    cfg: &OrcoConfig,
    threads: usize,
    rounds: usize,
) -> Result<f64, String> {
    let mut codecs = Vec::new();
    for _ in 0..threads {
        codecs.push(AsymmetricAutoencoder::new(cfg).map_err(err)?);
    }
    let start_line = Barrier::new(threads + 1);
    let took = std::thread::scope(|scope| {
        let handles: Vec<_> = codecs
            .iter_mut()
            .map(|codec| {
                let start_line = &start_line;
                scope.spawn(move || {
                    let view = pool.frames.view_rows(0..CHUNK);
                    let (mut codes, mut out) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
                    start_line.wait();
                    for _ in 0..rounds {
                        codec.encode_batch(view, &mut codes).expect("pool fits codec");
                        codec.decode_batch(codes.as_view(), &mut out).expect("codes fit codec");
                    }
                    std::hint::black_box(&out);
                })
            })
            .collect();
        start_line.wait();
        let start = Instant::now();
        for h in handles {
            h.join().expect("codec thread panicked");
        }
        start.elapsed().as_secs_f64()
    });
    Ok((threads * rounds * CHUNK) as f64 / took)
}

/// Runs the workload.
///
/// # Errors
///
/// Any correctness-gate failure or error from the program under test.
pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let seed = ctx.seed;
    let trial_frames = ctx.scale(2048, 512);
    let setups = ctx.setups();
    let (mut state, setup_s) =
        timed_setups(setups, &mut ctx.cal, || setup(seed, trial_frames.min(1024)))?;
    let n_threads = state.clients.len();
    let per_trial = ((1 + n_threads) * trial_frames) as u64;
    if ctx.traced {
        return traced(ctx, state, trial_frames);
    }

    let ts = trials(0.9 * ctx.seconds, 3, &mut ctx.cal, || trial(&mut state, trial_frames, None))?;
    ctx.report.ops("1-thread reference + parallel", ts.len() as u64 * per_trial, 0);

    let pick =
        |f: fn(&Trial) -> f64| -> Vec<(f64, f64)> { ts.iter().map(|(t, h)| (f(t), *h)).collect() };
    let r = &mut ctx.report;
    r.set_rate(
        "primary_per_s",
        &pick(|t| t.aggregate_s),
        &format!("aggregate frames/s, {n_threads} threads x 1 connection"),
    );
    r.set_rate(
        "contrast_per_s",
        &pick(|t| t.reference_s),
        "frames/s of the same-trial 1-thread reference",
    );
    r.set_time(
        "latency_p50_ms",
        1e3,
        &pick(|t| t.pull_s),
        &format!("mean pull(.., 64) call of a trial, {n_threads} threads"),
    );
    r.set_setup(&setup_s, "inputs + gateway + references + warm-up");
    Ok(())
}

fn traced(ctx: &mut Ctx, state: State, trial_frames: usize) -> Result<(), String> {
    let n_threads = state.clients.len();
    let before = state.gateway.stats();
    let state = std::cell::RefCell::new(state);
    // Each round: a plain trial, then one with a span around each client
    // call of the parallel part.
    let mut untraced = Vec::new();
    let mut plain = || {
        let t = trial(&mut state.borrow_mut(), trial_frames, None)?;
        let aggregate_s = t.aggregate_s;
        untraced.push(t);
        Ok(aggregate_s)
    };
    let tracer = &mut ctx.tracer;
    let mut spanned =
        || Ok(trial(&mut state.borrow_mut(), trial_frames, Some(&mut *tracer))?.aggregate_s);
    let timed = rounds(0.8 * ctx.seconds, 2, &mut ctx.cal, &mut [&mut plain, &mut spanned])?;
    let state = state.into_inner();
    let after = state.gateway.stats();
    let ops = 2 * timed[0].len() * (1 + n_threads) * trial_frames;
    ctx.report.ops("1-thread reference + parallel, plain and spanned", ops as u64, 0);

    let codec_rounds = ctx.scale(400, 40);
    let raw_one = bare_codec_fps(&state.pool, &state.cfg, 1, codec_rounds)?;
    let raw_all = bare_codec_fps(&state.pool, &state.cfg, n_threads, codec_rounds)?;

    let fps = |f: fn(&Trial) -> f64| -> Vec<f64> { untraced.iter().map(|t| 1.0 / f(t)).collect() };
    let aggregate = median(&fps(|t| t.aggregate_s));
    let scaling: Vec<f64> = untraced.iter().map(|t| t.reference_s / t.aggregate_s).collect();
    let tracer = &ctx.tracer;
    let r = &mut ctx.report;
    r.set("trace.untraced_per_s", aggregate, "aggregate frames/s, no spans (raw)");
    r.set(
        "trace.overhead_share",
        paired(&timed[0], &timed[1], |plain, spanned| 1.0 - plain / spanned),
        "throughput lost to client spans, median over rounds",
    );
    r.set("trace.spans", tracer.len() as f64, "spans recorded");
    r.set("host.factor", ctx.cal.median_factor(), "median host factor over the run's trials");
    r.set_trials("parallel.scaling_x", &scaling, "aggregate / same-trial 1-thread reference");
    r.set_trials(
        "parallel.ref_frames_per_s",
        &fps(|t| t.reference_s),
        "1 thread, 1 connection, 1 cluster (raw)",
    );
    r.set("parallel.per_thread_frames_per_s", aggregate / n_threads as f64, "aggregate / threads");
    r.set(
        "parallel.raw_codec_scaling_x",
        raw_all / raw_one,
        &format!("{n_threads} bare codecs on {n_threads} threads / 1 on 1"),
    );
    r.set(
        "client.push_us",
        tracer.median_s("client.push") * 1e6,
        "median Client::push under contention",
    );
    r.set(
        "client.pull_us",
        tracer.median_s("client.pull") * 1e6,
        "median Client::pull under contention",
    );
    report_gateway_counters(r, &before, &after);
    Ok(())
}
