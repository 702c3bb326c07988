//! `serve_loopback`: closed loop, one thread, one `Loopback` connection.
//!
//! The ROADMAP's headline number. Four clusters (two per shard) are
//! pushed round-robin and drained with 64-row pulls every 1024 frames.
//! The traced run replays the loopback transport layer by layer and
//! replays the codec at the batch shapes the gateway saw, which gives the
//! budget of a served frame.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use orco_serve::{Client, Gateway, Loopback, LoopbackConnection};
use orco_tensor::{Matrix, OrcoRng};
use orcodcs::{AsymmetricAutoencoder, Codec, OrcoConfig};

use crate::report::{paired, raw_median, rounds, timed_setups, trials, Ctx, RESIDUAL_LIMIT};
use crate::serve::{
    ae_config, bare_codec_s, build_pool, closed_loop, err, loopback_gateway, pick_clusters,
    report_gateway_counters, Lane, Layered, Pool, Spanned, CHUNK,
};
use crate::stats::median;
use crate::trace::Tracer;

struct State {
    cfg: OrcoConfig,
    pool: Pool,
    gateway: Arc<Gateway>,
    client: Client<LoopbackConnection>,
    lanes: Vec<Lane>,
}

/// Inputs from the seed, the gateway, one connection, and a warm-up
/// trial of each push shape (which also runs the delivery gate once).
fn setup(seed: u64, warm_frames: usize) -> Result<State, String> {
    let cfg = ae_config(seed);
    let pool = build_pool(seed, &cfg)?;
    let gateway = loopback_gateway(&cfg)?;
    let mut client = Client::connect(&Loopback::new(Arc::clone(&gateway))).map_err(err)?;
    client.hello(1).map_err(err)?;
    let mut rng = OrcoRng::from_label("serve-loopback-clusters", seed);
    let mut lanes: Vec<Lane> =
        pick_clusters(&gateway, &mut rng, 2).into_iter().map(|c| Lane::new(c, &mut rng)).collect();
    for rows_per_push in [1, CHUNK] {
        closed_loop(&mut client, &pool, &mut lanes, rows_per_push, warm_frames, &mut Vec::new())?;
    }
    Ok(State { cfg, pool, gateway, client, lanes })
}

/// Runs the workload.
///
/// # Errors
///
/// Any correctness-gate failure or error from the program under test.
pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let seed = ctx.seed;
    let trial_frames = ctx.scale(4096, 1024);
    let setups = ctx.setups();
    let (state, setup_s) =
        timed_setups(setups, &mut ctx.cal, || setup(seed, trial_frames.min(2048)))?;
    if ctx.traced {
        return traced(ctx, state, trial_frames);
    }
    let State { pool, mut client, mut lanes, .. } = state;

    // Each trial: seconds per frame, and the median pull of the trial.
    let mut one_trial = |rows_per_push: usize| -> Result<(f64, f64), String> {
        let mut pull_s = Vec::new();
        let took =
            closed_loop(&mut client, &pool, &mut lanes, rows_per_push, trial_frames, &mut pull_s)?;
        Ok((took / trial_frames as f64, median(&pull_s)))
    };
    let primary = trials(0.55 * ctx.seconds, 3, &mut ctx.cal, || one_trial(1))?;
    ctx.report.ops("closed loop, 1 frame per push", (primary.len() * trial_frames) as u64, 0);
    let contrast = trials(0.35 * ctx.seconds, 3, &mut ctx.cal, || one_trial(CHUNK))?;
    ctx.report.ops("closed loop, 64 frames per push", (contrast.len() * trial_frames) as u64, 0);

    let frame_s = |v: &[((f64, f64), f64)]| -> Vec<(f64, f64)> {
        v.iter().map(|((f, _), h)| (*f, *h)).collect()
    };
    let pull_s: Vec<(f64, f64)> = primary.iter().map(|((_, p), h)| (*p, *h)).collect();
    let r = &mut ctx.report;
    r.set_rate(
        "primary_per_s",
        &frame_s(&primary),
        "frames/s pushed -> pulled decoded, 1 frame per push",
    );
    r.set_rate(
        "contrast_per_s",
        &frame_s(&contrast),
        "frames/s pushed -> pulled decoded, 64 frames per push",
    );
    r.set_time("latency_p50_ms", 1e3, &pull_s, "median pull(.., 64) call of a trial");
    r.set_setup(&setup_s, "inputs + gateway + references + warm-up");
    Ok(())
}

fn traced(ctx: &mut Ctx, state: State, trial_frames: usize) -> Result<(), String> {
    let State { cfg, pool, gateway, client, lanes } = state;
    // The three variants share the connection and the lanes, one at a time.
    let shared = std::cell::RefCell::new((client, lanes, Vec::new()));
    let before = gateway.stats();
    let mut client_spans = Tracer::new(ctx.tracer.epoch());
    let mut layered = Layered::new(&gateway, &mut ctx.tracer);
    let per_frame = |took: f64| took / trial_frames as f64;

    // Each round: the loop `run` times, the same loop with a span around
    // each client call, and the same loop with the transport replayed
    // layer by layer — back to back, so all three see the same host.
    let mut plain = || {
        let (client, lanes, sink) = &mut *shared.borrow_mut();
        closed_loop(client, &pool, lanes, 1, trial_frames, sink).map(per_frame)
    };
    let mut spanned = || {
        let (client, lanes, sink) = &mut *shared.borrow_mut();
        let mut ep = Spanned { inner: client, tracer: &mut client_spans, request: 0 };
        closed_loop(&mut ep, &pool, lanes, 1, trial_frames, sink).map(per_frame)
    };
    // What the gateway ran the codec at during the last replay: batches,
    // their mean rows, and the non-empty pulls by rows.
    let shapes = std::cell::RefCell::new((0u64, CHUNK, BTreeMap::new()));
    let mut replayed = || {
        let (_, lanes, sink) = &mut *shared.borrow_mut();
        let batches_before = gateway.stats().batches;
        let took = closed_loop(&mut layered, &pool, lanes, 1, trial_frames, sink)?;
        let batches = gateway.stats().batches - batches_before;
        let mean_rows = (trial_frames as f64 / batches as f64).round() as usize;
        *shapes.borrow_mut() =
            (batches, mean_rows.clamp(1, CHUNK), std::mem::take(&mut layered.pulls_by_rows));
        Ok(per_frame(took))
    };
    // The codec alone, at exactly those shapes. Returns seconds per frame
    // and notes the share of it that was encode.
    let mut codec = AsymmetricAutoencoder::new(&cfg).map_err(err)?;
    let (mut codes, mut out) = (Matrix::zeros(0, 0), Matrix::zeros(0, 0));
    let mut encode_frac = Vec::new();
    let mut bare = || {
        let (batches, mean_rows, pulls) = &*shapes.borrow();
        let start = Instant::now();
        for _ in 0..*batches {
            codec.encode_batch(pool.frames.view_rows(0..*mean_rows), &mut codes).map_err(err)?;
        }
        let encode_s = start.elapsed().as_secs_f64();
        let mut decode_s = 0.0;
        for (&rows, &count) in pulls {
            codec.encode_batch(pool.frames.view_rows(0..rows), &mut codes).map_err(err)?;
            let start = Instant::now();
            for _ in 0..count {
                codec.decode_batch(codes.as_view(), &mut out).map_err(err)?;
            }
            decode_s += start.elapsed().as_secs_f64();
        }
        encode_frac.push(encode_s / (encode_s + decode_s));
        Ok(per_frame(encode_s + decode_s))
    };
    let timed = rounds(
        0.8 * ctx.seconds,
        2,
        &mut ctx.cal,
        &mut [&mut plain, &mut spanned, &mut replayed, &mut bare],
    )?;
    let wire_bytes = layered.wire_bytes;
    let after = gateway.stats();
    let n = timed[0].len();
    let frames = (n * trial_frames) as f64;
    ctx.report.ops("closed loop: plain, spanned, replayed", 3 * frames as u64, 0);
    let (enc64_s, dec64_s) = bare_codec_s(&pool, &cfg, CHUNK)?;

    // Span totals as fractions of the replay's own elapsed time: same
    // instants, so the host cancels.
    let layers = ctx.tracer.by_layer();
    let total = |prefix: &str| -> f64 {
        layers.iter().filter(|(n, _)| n.starts_with(prefix)).map(|(_, t)| t.total_s).sum()
    };
    let replay_raw_s: f64 = timed[2].iter().map(|(s, _)| s * trial_frames as f64).sum();
    let (protocol_frac, gateway_frac) =
        (total("protocol.") / replay_raw_s, total("gateway.") / replay_raw_s);
    let pushes = layers["client.push"].count as f64;
    let push_path_s = total("protocol.push_") + total("protocol.ack_") + total("gateway.push");
    let client_layers = client_spans.by_layer();
    let client_push_s =
        client_layers["client.push"].total_s / client_layers["client.push"].count as f64;

    // Against the plain loop of the same round, in normalised time: what
    // the replay took, and what the bare codec took.
    let replay_share = paired(&timed[0], &timed[2], |plain, replayed| replayed / plain);
    let codec_share = paired(&timed[0], &timed[3], |plain, bare| bare / plain);
    let encode_share = codec_share * median(&encode_frac);
    let decode_share = codec_share - encode_share;
    let gateway_share = gateway_frac * replay_share - codec_share;
    let plain_frame_us = median(&timed[0].iter().map(|(s, h)| s / h * 1e6).collect::<Vec<_>>());

    let r = &mut ctx.report;
    r.set("trace.untraced_per_s", 1.0 / raw_median(&timed[0]), "frames/s, no spans (raw)");
    r.set(
        "trace.overhead_share",
        paired(&timed[0], &timed[1], |plain, spanned| 1.0 - plain / spanned),
        "throughput lost to client spans, median over rounds",
    );
    r.set(
        "client.push_us",
        client_spans.median_s("client.push") * 1e6,
        "median Client::push, 1 frame",
    );
    r.set(
        "client.pull_us",
        client_spans.median_s("client.pull") * 1e6,
        "median Client::pull, 64 rows",
    );
    r.set(
        "transport.loopback_overhead_us",
        (client_push_s - push_path_s / pushes) * 1e6,
        "mean Client::push - its protocol and handle calls",
    );
    for (metric, span) in [
        ("protocol.push_encode_us", "protocol.push_encode"),
        ("protocol.push_decode_us", "protocol.push_decode"),
        ("protocol.decoded_encode_us", "protocol.decoded_encode"),
        ("protocol.decoded_decode_us", "protocol.decoded_decode"),
        ("gateway.push_p50_us", "gateway.push"),
    ] {
        r.set(metric, ctx.tracer.median_s(span) * 1e6, "median call");
    }
    r.set("protocol.bytes_per_frame", wire_bytes as f64 / frames, "wire bytes, requests + replies");
    r.set(
        "gateway.push_flush_ms",
        ctx.tracer.median_s("gateway.push_flush") * 1e3,
        "median push that flushed",
    );
    r.set(
        "gateway.pull_ms",
        ctx.tracer.median_s("gateway.pull") * 1e3,
        "median handle(PullDecoded), 64 rows",
    );
    r.set(
        "gateway.self_us_per_frame",
        gateway_share * plain_frame_us,
        "handle time - the codec alone at the same shapes (normalised)",
    );
    report_gateway_counters(r, &before, &after);
    r.set(
        "codec.ae_mnist.encode_us_per_frame.b64",
        enc64_s / CHUNK as f64 * 1e6,
        "bare encode_batch",
    );
    r.set(
        "codec.ae_mnist.decode_us_per_frame.b64",
        dec64_s / CHUNK as f64 * 1e6,
        "bare decode_batch",
    );

    // Where a served frame's time went, as shares of the plain loop's
    // time. Shares and residual sum to 1 by construction; the residual is
    // what the replay does not explain.
    let residual = 1.0 - replay_share;
    r.set(
        "budget.client_share",
        (1.0 - protocol_frac - gateway_frac) * replay_share,
        "message build, loop, digest gate",
    );
    r.set(
        "budget.protocol_share",
        protocol_frac * replay_share,
        "wire encode + decode, both directions",
    );
    r.set("budget.gateway_share", gateway_share, "dispatch, batching, store");
    r.set("budget.encode_share", encode_share, "encode_batch");
    r.set("budget.decode_share", decode_share, "decode_batch");
    r.set(
        "budget.residual_share",
        residual,
        "plain-loop time the layers do not account for, median over rounds",
    );
    ctx.tracer.absorb(client_spans);
    r.set("trace.spans", ctx.tracer.len() as f64, "spans recorded");
    r.set("host.factor", ctx.cal.median_factor(), "median host factor over the run's trials");
    if !ctx.smoke && residual.abs() > RESIDUAL_LIMIT {
        return Err(format!("budget.residual_share {residual:.3} is beyond {RESIDUAL_LIMIT}"));
    }
    Ok(())
}
