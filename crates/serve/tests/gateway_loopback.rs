//! End-to-end loopback gateway tests: the full wire path (encode →
//! header validation → dispatch → micro-batch → codec → reply encode)
//! exercised deterministically in-process.
//!
//! The two contracts pinned here are the serving layer's equivalents of
//! the codec batch/per-frame bit-identity contract:
//!
//! 1. **Transparency** — N clients × M frames through the sharded
//!    micro-batcher decode to output bit-identical to one direct
//!    `encode_batch` + `decode_batch` call on the same codec.
//! 2. **Determinism** — the same message schedule (same seeds, same
//!    virtual clock) produces a byte-identical `Stats` reply and
//!    byte-identical decoded frames whether the tensor kernels run on 1
//!    thread or many (`ORCO_THREADS` must not leak into served bytes).

use std::num::{NonZeroU64, NonZeroUsize};
use std::sync::Arc;
use std::time::Duration;

use orco_datasets::DatasetKind;
use orco_serve::{
    Client, Clock, DriftGuard, ErrorCode, Gateway, GatewayConfig, Loopback, Message, PushOutcome,
    WireError,
};
use orco_tensor::{parallel, Matrix, OrcoRng};
use orcodcs::{AsymmetricAutoencoder, Codec, OrcoConfig, OrcoError};

fn ae_config() -> OrcoConfig {
    OrcoConfig::for_dataset(DatasetKind::MnistLike).with_latent_dim(16).with_seed(11)
}

fn make_codec() -> Box<dyn Codec> {
    Box::new(AsymmetricAutoencoder::new(&ae_config()).expect("valid config"))
}

fn gateway(cfg: GatewayConfig) -> Arc<Gateway> {
    Arc::new(
        Gateway::new(cfg, Clock::manual(Duration::from_micros(100)), |_| make_codec())
            .expect("valid gateway"),
    )
}

/// The config gate: every rule `GatewayConfig::validate` checks, and
/// `Gateway::new`'s shard-geometry check, refuses with a typed
/// `OrcoError::Config` naming the rule. A drift guard's values are checked
/// before any shard builds its `FineTuneMonitor`, whose constructor panics
/// on them.
#[test]
fn every_config_rule_refuses_with_a_typed_error() {
    let build = |cfg: GatewayConfig, codec: &dyn Fn(usize) -> Box<dyn Codec>| {
        Gateway::new(cfg, Clock::manual(Duration::ZERO), codec)
    };
    let base = GatewayConfig::default();
    let guard = DriftGuard {
        sample_every: NonZeroU64::MIN,
        threshold: 0.5,
        window: NonZeroUsize::new(4).unwrap(),
        rollback_above: Some(0.5),
    };
    let drift = |g: DriftGuard| GatewayConfig { drift: Some(g), ..base };
    let (nan, inf) = (f32::NAN, f32::INFINITY);
    let cases = [
        ("shards must be > 0", GatewayConfig { shards: 0, ..base }),
        ("shards must be <= 1024", GatewayConfig { shards: 1025, ..base }),
        ("batch_max_frames must be > 0", GatewayConfig { batch_max_frames: 0, ..base }),
        (
            "queue_capacity must be >= batch_max_frames",
            GatewayConfig { batch_max_frames: 64, queue_capacity: 63, ..base },
        ),
        ("drift.threshold must be finite and > 0", drift(DriftGuard { threshold: 0.0, ..guard })),
        ("drift.threshold must be finite and > 0", drift(DriftGuard { threshold: -1.0, ..guard })),
        ("drift.threshold must be finite and > 0", drift(DriftGuard { threshold: nan, ..guard })),
        ("drift.threshold must be finite and > 0", drift(DriftGuard { threshold: inf, ..guard })),
        ("drift.rollback_above", drift(DriftGuard { rollback_above: Some(0.0), ..guard })),
        ("drift.rollback_above", drift(DriftGuard { rollback_above: Some(-1.0), ..guard })),
        ("drift.rollback_above", drift(DriftGuard { rollback_above: Some(nan), ..guard })),
        ("drift.rollback_above", drift(DriftGuard { rollback_above: Some(inf), ..guard })),
    ];
    for (rule, cfg) in cases {
        match build(cfg, &|_| make_codec()) {
            Err(OrcoError::Config { detail }) => {
                assert!(detail.contains(rule), "{rule}: refused as {detail:?}");
            }
            other => panic!("{rule}: want a Config error, got {other:?}"),
        }
    }
    assert!(build(drift(guard), &|_| make_codec()).is_ok());
    assert!(build(drift(DriftGuard { rollback_above: None, ..guard }), &|_| make_codec()).is_ok());

    let narrower = ae_config().with_latent_dim(8);
    let mixed = |shard: usize| -> Box<dyn Codec> {
        if shard == 0 {
            make_codec()
        } else {
            Box::new(AsymmetricAutoencoder::new(&narrower).expect("valid config"))
        }
    };
    match build(base, &mixed) {
        Err(OrcoError::Config { detail }) => {
            assert!(detail.contains("shard 1 codec geometry"), "refused as {detail:?}");
        }
        other => panic!("mixed geometry: want a Config error, got {other:?}"),
    }
}

/// Random frames for one cluster, deterministic in `seed`.
fn cluster_frames(rows: usize, seed: u64) -> Matrix {
    let mut rng = OrcoRng::from_seed_u64(seed);
    Matrix::from_fn(rows, 784, |_, _| rng.uniform(0.0, 1.0))
}

/// Drives a fixed interleaved schedule — 3 clients, 5 clusters, pushes
/// of varying size — and returns the decoded frames per cluster plus the
/// final encoded stats reply.
fn run_schedule(cfg: GatewayConfig) -> (Vec<(u64, Matrix)>, Vec<u8>) {
    let gw = gateway(cfg);
    let transport = Loopback::new(Arc::clone(&gw));
    let mut clients: Vec<_> = (0..3)
        .map(|i| {
            let mut c = Client::connect(&transport).expect("loopback connects");
            c.hello(i).expect("hello");
            c
        })
        .collect();

    let clusters: [u64; 5] = [3, 19, 42, 77, 1001];
    // Interleave pushes: client (k mod 3) pushes a slice of cluster
    // (k mod 5)'s stream, sizes cycling 1..=4.
    let mut offsets = [0usize; 5];
    let frames: Vec<Matrix> = (0..5).map(|i| cluster_frames(30, 0xF00D + clusters[i])).collect();
    let mut k = 0usize;
    while offsets.iter().any(|&o| o < 30) {
        let ci = k % 5;
        let rows = 1 + k % 4;
        if offsets[ci] < 30 {
            let hi = (offsets[ci] + rows).min(30);
            let outcome = clients[k % 3]
                .push(clusters[ci], frames[ci].view_rows(offsets[ci]..hi))
                .expect("push accepted");
            assert_eq!(outcome, PushOutcome::Accepted((hi - offsets[ci]) as u32));
            offsets[ci] = hi;
        }
        k += 1;
    }

    // Drain every cluster in chunks, preserving order.
    let mut decoded = Vec::new();
    for (i, &cluster) in clusters.iter().enumerate() {
        let mut got = Matrix::zeros(0, 784);
        loop {
            let chunk = clients[i % 3].pull(cluster, 7).expect("pull");
            if chunk.rows() == 0 {
                break;
            }
            let mut stacked = Matrix::zeros(got.rows() + chunk.rows(), 784);
            for r in 0..got.rows() {
                stacked.row_mut(r).copy_from_slice(got.row(r));
            }
            for r in 0..chunk.rows() {
                stacked.row_mut(got.rows() + r).copy_from_slice(chunk.row(r));
            }
            got = stacked;
        }
        decoded.push((cluster, got));
    }

    // The stats reply as raw bytes — the determinism contract is on the
    // wire image, not just the struct.
    let stats_frame = {
        let gw_stats = gw.stats();
        Message::StatsReply(gw_stats).encode()
    };
    (decoded, stats_frame)
}

/// Contract 1: the sharded, micro-batched gateway is *transparent* — its
/// decoded output is bit-identical to direct batch calls on the codec.
#[test]
fn gateway_output_bit_identical_to_direct_batch_calls() {
    let cfg = GatewayConfig {
        shards: 2,
        batch_max_frames: 7, // odd on purpose: flushes straddle pushes
        batch_deadline: Duration::from_secs(3600),
        queue_capacity: 4096,
        auth_secret: None,
        trace_capacity: 4096,
        ..GatewayConfig::default()
    };
    let (decoded, _) = run_schedule(cfg);

    for (cluster, via_gateway) in decoded {
        let frames = cluster_frames(30, 0xF00D + cluster);
        let mut reference = make_codec();
        let mut codes = Matrix::zeros(0, 0);
        let mut recon = Matrix::zeros(0, 0);
        reference.encode_batch(frames.as_view(), &mut codes).expect("shapes fit");
        reference.decode_batch(codes.as_view(), &mut recon).expect("shapes fit");
        assert_eq!(
            via_gateway, recon,
            "cluster {cluster}: gateway output diverged from direct encode/decode"
        );
    }
}

/// Contract 2: same schedule ⇒ byte-identical stats reply and decoded
/// frames at any tensor-kernel thread budget.
#[test]
fn gateway_is_deterministic_across_thread_budgets() {
    let cfg = GatewayConfig {
        shards: 2,
        batch_max_frames: 8,
        batch_deadline: Duration::from_millis(2),
        queue_capacity: 4096,
        auth_secret: None,
        trace_capacity: 4096,
        ..GatewayConfig::default()
    };
    let (decoded_1, stats_1) = parallel::with_thread_budget(1, || run_schedule(cfg));
    let (decoded_4, stats_4) = parallel::with_thread_budget(4, || run_schedule(cfg));
    assert_eq!(stats_1, stats_4, "Stats reply bytes must not depend on ORCO_THREADS");
    assert_eq!(decoded_1, decoded_4, "decoded frames must not depend on ORCO_THREADS");
    // And the schedule actually flushed more than once per cluster.
    let reply = Message::decode(&stats_1).expect("stats frame decodes");
    let Message::StatsReply(snap) = reply else { panic!("not a stats reply") };
    assert!(snap.batches >= 5, "schedule too small to exercise batching: {snap:?}");
    assert_eq!(snap.frames_in, 150);
    assert_eq!(snap.frames_out, 150);
    assert_eq!(snap.queue_depth, 0);
    assert_eq!(snap.stored_codes, 0);
}

/// Backpressure: a full shard answers `Busy` without buffering; draining
/// frees the budget and the push succeeds.
#[test]
fn busy_backpressure_and_drain() {
    let cfg = GatewayConfig {
        shards: 1,
        batch_max_frames: 4,
        batch_deadline: Duration::from_secs(3600),
        queue_capacity: 8,
        auth_secret: None,
        trace_capacity: 4096,
        ..GatewayConfig::default()
    };
    let gw = gateway(cfg);
    let mut client = Client::connect(&Loopback::new(Arc::clone(&gw))).expect("connects");
    let frames = cluster_frames(6, 1);

    assert_eq!(client.push(5, frames.as_view()).unwrap(), PushOutcome::Accepted(6));
    match client.push(5, frames.as_view()).unwrap() {
        PushOutcome::Busy { queued, capacity } => {
            assert_eq!(capacity, 8);
            assert_eq!(queued, 6);
        }
        other => panic!("expected Busy, got {other:?}"),
    }
    assert_eq!(gw.stats().busy_rejections, 1);

    // Drain, then the same push is accepted.
    assert_eq!(client.pull(5, 32).unwrap().rows(), 6);
    assert_eq!(client.push(5, frames.as_view()).unwrap(), PushOutcome::Accepted(6));
}

/// A push wider or narrower than the codec's frame draws a typed
/// rejection, not a panic or a dropped connection.
#[test]
fn wrong_frame_width_rejected() {
    let gw = gateway(GatewayConfig::default());
    let mut client = Client::connect(&Loopback::new(gw)).expect("connects");
    let bad = Matrix::zeros(3, 42);
    let err = client.push(9, bad.as_view()).unwrap_err();
    let text = err.to_string();
    assert!(text.contains("784") && text.contains("42"), "unhelpful error: {text}");
}

/// A `PushFrames` frame as raw bytes: the header, then `payload`.
fn push_frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = b"ORCO".to_vec();
    frame.extend_from_slice(&5u16.to_le_bytes()); // protocol version
    frame.extend_from_slice(&3u16.to_le_bytes()); // PushFrames
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// A `PushFrames` payload: cluster, trace, a `rows × cols` header and
/// `values` f32s.
fn push_payload(rows: u32, cols: u32, values: usize) -> Vec<u8> {
    let mut payload = Vec::new();
    payload.extend_from_slice(&7u64.to_le_bytes());
    payload.extend_from_slice(&0u64.to_le_bytes());
    payload.extend_from_slice(&rows.to_le_bytes());
    payload.extend_from_slice(&cols.to_le_bytes());
    for v in 0..values {
        payload.extend_from_slice(&(v as f32).to_le_bytes());
    }
    payload
}

/// Every malformed push draws the `ErrorReply` it drew when the gateway
/// decoded a push into a `Message` first: the errors below were measured
/// on that decoder, and the reply bytes are its encoding of them. The
/// well-formed pushes beside them draw the gateway's own verdicts.
#[test]
fn a_malformed_push_draws_the_same_error_reply_through_handle_frame() {
    let gw = gateway(GatewayConfig { shards: 1, ..GatewayConfig::default() });
    let bad_request = |e: WireError| {
        Message::ErrorReply { code: ErrorCode::BadRequest, detail: e.to_string() }.encode()
    };
    let mut truncated = push_frame(&push_payload(2, 784, 784));
    truncated.pop();
    let mut trailing = push_frame(&push_payload(1, 4, 5));
    let mut bad_magic = push_frame(&push_payload(1, 784, 784));
    bad_magic[0] = b'X';
    let mut oversized = push_frame(&[]);
    oversized[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    let cases: Vec<(&str, Vec<u8>, Vec<u8>)> = vec![
        (
            "rows × cols × 4 overflows",
            push_frame(&push_payload(u32::MAX, u32::MAX, 0)),
            bad_request(WireError::Corrupt { detail: "matrix dimensions overflow" }),
        ),
        (
            "fewer values than rows × cols",
            push_frame(&push_payload(2, 784, 784)),
            bad_request(WireError::Truncated { needed: 6272, got: 3136 }),
        ),
        (
            "a byte short of the declared length",
            truncated,
            bad_request(WireError::LengthMismatch { declared: 3160, actual: 3159 }),
        ),
        (
            "a value past rows × cols",
            trailing.clone(),
            bad_request(WireError::Corrupt { detail: "payload has trailing bytes" }),
        ),
        (
            "no room for the trace",
            push_frame(&7u64.to_le_bytes()[..]),
            bad_request(WireError::Truncated { needed: 8, got: 0 }),
        ),
        (
            "a cut matrix header",
            push_frame(&push_payload(1, 784, 0)[..22]),
            bad_request(WireError::Truncated { needed: 4, got: 2 }),
        ),
        ("bad magic", bad_magic, bad_request(WireError::BadMagic { found: 0x4f43_5258 })),
        (
            "a length past the bound",
            oversized,
            bad_request(WireError::Oversized { declared: u32::MAX as usize }),
        ),
        (
            "well formed, four wide",
            {
                trailing.truncate(trailing.len() - 4);
                trailing[8..12].copy_from_slice(&40u32.to_le_bytes());
                trailing
            },
            Message::ErrorReply {
                code: ErrorCode::Shape,
                detail: "frame width mismatch: expected 784 f32 elements, got 4".into(),
            }
            .encode(),
        ),
        (
            "well formed, no rows",
            push_frame(&push_payload(0, 784, 0)),
            Message::PushAck { accepted: 0 }.encode(),
        ),
    ];
    let mut reply = Vec::new();
    for (what, frame, want) in cases {
        orco_serve::Service::handle_frame(&*gw, &frame, &mut reply, None);
        assert_eq!(reply, want, "{what}: {:?}", Message::decode(&reply));
    }
    assert_eq!(gw.stats().frames_in, 0, "nothing was enqueued");
}

/// The batch deadline flushes a lingering small batch (virtual clock;
/// the next dispatch to the shard performs the overdue flush).
#[test]
fn deadline_flushes_small_batches() {
    let cfg = GatewayConfig {
        shards: 1,
        batch_max_frames: 1000,
        batch_deadline: Duration::from_millis(5),
        queue_capacity: 4096,
        auth_secret: None,
        trace_capacity: 4096,
        ..GatewayConfig::default()
    };
    let gw = gateway(cfg);
    let mut client = Client::connect(&Loopback::new(Arc::clone(&gw))).expect("connects");
    let frames = cluster_frames(3, 2);
    assert_eq!(client.push(1, frames.as_view()).unwrap(), PushOutcome::Accepted(3));
    assert_eq!(gw.stats().batches, 0, "nothing due yet");

    // Let the virtual clock pass the deadline, then touch the shard.
    gw.clock().advance(Duration::from_millis(10));
    assert_eq!(client.push(1, frames.view_rows(0..1)).unwrap(), PushOutcome::Accepted(1));
    let snap = gw.stats();
    assert_eq!(snap.deadline_flushes, 1, "overdue batch must flush before the new push joins");
    assert_eq!(snap.max_batch_rows, 3);
}

/// Regression (deadline starvation): a pending batch on shard A must
/// deadline-flush when traffic dispatches to shard B — the sweep covers
/// ALL shards, not just the one the request lands on. Before the fix, an
/// idle shard's batch waited for the next request that happened to hash
/// onto it, which under a virtual clock may never come.
#[test]
fn deadline_flush_reaches_idle_shards() {
    let cfg = GatewayConfig {
        shards: 2,
        batch_max_frames: 1000,
        batch_deadline: Duration::from_millis(5),
        queue_capacity: 4096,
        auth_secret: None,
        trace_capacity: 4096,
        ..GatewayConfig::default()
    };
    let gw = gateway(cfg);
    // Two clusters pinned to different shards.
    let a = (0..).find(|&c| gw.shard_of(c) == 0).expect("some cluster on shard 0");
    let b = (0..).find(|&c| gw.shard_of(c) == 1).expect("some cluster on shard 1");

    let mut client = Client::connect(&Loopback::new(Arc::clone(&gw))).expect("connects");
    let frames = cluster_frames(3, 4);
    assert_eq!(client.push(a, frames.as_view()).unwrap(), PushOutcome::Accepted(3));
    assert_eq!(gw.stats().batches, 0, "nothing due yet");

    gw.clock().advance(Duration::from_millis(10));
    // Traffic for the OTHER shard must still flush shard 0's overdue batch.
    assert_eq!(client.push(b, frames.view_rows(0..1)).unwrap(), PushOutcome::Accepted(1));
    let snap = gw.stats();
    assert_eq!(snap.deadline_flushes, 1, "idle shard's batch starved past its deadline");
    assert_eq!(snap.max_batch_rows, 3);
}

/// `advance_clock` flushes overdue batches with no traffic at all — the
/// hook an external scheduler (the DES transport) drives time with.
#[test]
fn advance_clock_sweeps_deadlines_without_traffic() {
    let cfg = GatewayConfig {
        shards: 2,
        batch_max_frames: 1000,
        batch_deadline: Duration::from_millis(5),
        queue_capacity: 4096,
        auth_secret: None,
        trace_capacity: 4096,
        ..GatewayConfig::default()
    };
    let gw = gateway(cfg);
    let mut client = Client::connect(&Loopback::new(Arc::clone(&gw))).expect("connects");
    let frames = cluster_frames(2, 5);
    assert_eq!(client.push(77, frames.as_view()).unwrap(), PushOutcome::Accepted(2));
    assert_eq!(gw.stats().batches, 0);

    gw.advance_clock(Duration::from_millis(6));
    let snap = gw.stats();
    assert_eq!(snap.batches, 1, "advance_clock must flush the overdue batch by itself");
    assert_eq!(snap.deadline_flushes, 1);
    assert_eq!(snap.queue_depth, 0);
}

/// Flush reasons are accounted separately on the wire: the shutdown
/// drain must not masquerade as a size flush (it used to), and a
/// read-your-writes pull flush is its own bucket.
#[test]
fn flush_reasons_are_distinguished() {
    let cfg = GatewayConfig {
        shards: 1,
        batch_max_frames: 4,
        batch_deadline: Duration::from_secs(3600),
        queue_capacity: 4096,
        auth_secret: None,
        trace_capacity: 4096,
        ..GatewayConfig::default()
    };
    let gw = gateway(cfg);
    let mut client = Client::connect(&Loopback::new(Arc::clone(&gw))).expect("connects");
    let frames = cluster_frames(7, 6);

    // 3 rows stay below the size threshold; the pull flushes them
    // (read-your-writes).
    assert_eq!(client.push(9, frames.view_rows(0..3)).unwrap(), PushOutcome::Accepted(3));
    assert_eq!(client.pull(9, 32).unwrap().rows(), 3);
    // 4 rows hit batch_max_frames -> size flush on the pushing thread.
    assert_eq!(client.push(9, frames.view_rows(0..4)).unwrap(), PushOutcome::Accepted(4));
    // 2 pending rows, drained by shutdown.
    assert_eq!(client.push(9, frames.view_rows(0..2)).unwrap(), PushOutcome::Accepted(2));
    client.shutdown().expect("shutdown acked");

    let snap = gw.stats();
    assert_eq!(
        (snap.size_flushes, snap.deadline_flushes, snap.pull_flushes, snap.drain_flushes),
        (1, 0, 1, 1),
        "flush reasons misattributed: {snap:?}"
    );
    assert_eq!(snap.batches, 3);
}

/// Shutdown flushes pending work, rejects new pushes, and still serves
/// pulls of already-encoded data.
#[test]
fn shutdown_drains_and_rejects() {
    let cfg = GatewayConfig {
        shards: 2,
        batch_max_frames: 100,
        batch_deadline: Duration::from_secs(3600),
        queue_capacity: 4096,
        auth_secret: None,
        trace_capacity: 4096,
        ..GatewayConfig::default()
    };
    let gw = gateway(cfg);
    let mut client = Client::connect(&Loopback::new(Arc::clone(&gw))).expect("connects");
    let frames = cluster_frames(5, 3);
    assert_eq!(client.push(2, frames.as_view()).unwrap(), PushOutcome::Accepted(5));
    client.shutdown().expect("shutdown acked");
    assert!(gw.is_shutting_down());
    assert_eq!(gw.stats().batches, 1, "shutdown must flush pending frames");

    let err = client.push(2, frames.as_view()).unwrap_err();
    assert!(err.to_string().contains("shutting down"), "got: {err}");
    assert_eq!(client.pull(2, 32).unwrap().rows(), 5, "stored codes stay pullable");
}

/// Per-shard metrics expose real skew: a hot cluster's shard carries the
/// rows while the others stay at zero, in both the stats snapshot and
/// the text exposition.
#[test]
fn per_shard_metrics_expose_hot_shard_skew() {
    let cfg = GatewayConfig {
        shards: 4,
        batch_max_frames: 8,
        batch_deadline: Duration::from_secs(3600),
        queue_capacity: 4096,
        auth_secret: None,
        trace_capacity: 4096,
        ..GatewayConfig::default()
    };
    let gw = gateway(cfg);
    let hot = 7u64;
    let hot_shard = gw.shard_of(hot);
    let mut client = Client::connect(&Loopback::new(Arc::clone(&gw))).expect("connects");
    let frames = cluster_frames(24, 0xBEEF);
    for lo in (0..24).step_by(8) {
        let outcome = client.push(hot, frames.view_rows(lo..lo + 8)).expect("push");
        assert_eq!(outcome, PushOutcome::Accepted(8));
    }
    let flush_lock_entries = |text: &str| -> u64 {
        let key = "orco_codec_lock_wait_ns_count ";
        let line = text.lines().find_map(|l| l.strip_prefix(key)).expect("series present");
        line.trim().parse().expect("integer value")
    };
    let before_pull = flush_lock_entries(&gw.metrics_text());
    assert_eq!(client.pull(hot, 64).expect("pull").rows(), 24);

    let snap = gw.stats();
    assert_eq!(snap.per_shard.len(), 4);
    assert_eq!(snap.per_shard[hot_shard].frames_in, 24);
    assert_eq!(snap.per_shard[hot_shard].frames_out, 24);
    assert!(snap.per_shard[hot_shard].batches >= 3, "3 size flushes expected: {snap:?}");
    for (i, row) in snap.per_shard.iter().enumerate() {
        if i != hot_shard {
            assert_eq!(
                (row.frames_in, row.frames_out, row.batches),
                (0, 0, 0),
                "idle shard {i} claims traffic"
            );
        }
    }

    // The text exposition carries the same skew, one labeled series per
    // shard.
    let text = gw.metrics_text();
    assert!(
        text.contains(&format!("orco_shard_frames_in_total{{shard=\"{hot_shard}\"}} 24")),
        "hot shard series missing:\n{text}"
    );
    for i in 0..4 {
        if i != hot_shard {
            assert!(
                text.contains(&format!("orco_shard_frames_in_total{{shard=\"{i}\"}} 0")),
                "idle shard {i} series missing:\n{text}"
            );
        }
    }
    // The flush-latency distribution is exposed in full, not just as
    // percentiles.
    assert!(text.contains("orco_flush_latency_ns_count 3"), "histogram missing:\n{text}");
    // So are the waits for a shard's two locks: a sample per entry, each 0
    // under the manual clock (only dispatches move it).
    let waits = |key: &str| -> u64 {
        let line = text.lines().find_map(|l| l.strip_prefix(key)).expect("series present");
        line.trim().parse().expect("integer value")
    };
    assert!(waits("orco_shard_lock_wait_ns_count ") >= 4, "a push or a pull enters its shard");
    assert_eq!(waits("orco_shard_lock_wait_ns_sum_ns "), 0);
    // `orco_codec_lock_wait_ns` times the flush lock: the three size
    // flushes enter it, and the pull does not — it finds none of its rows
    // pending or mid-encode, and decodes with no lock held.
    assert_eq!(before_pull, 3, "three size flushes enter the flush lock");
    assert_eq!(
        flush_lock_entries(&text),
        before_pull,
        "a pull with nothing of its own pending or mid-encode adds no sample"
    );
    assert_eq!(waits("orco_codec_lock_wait_ns_sum_ns "), 0);
}

/// The trace pillar's determinism contract on the loopback path: the
/// same schedule run twice exports byte-identical traces, and every
/// delivered frame closes exactly one complete push → enqueue → flush →
/// store → pull chain.
#[test]
fn trace_export_is_deterministic_and_chains_are_complete() {
    let run = || {
        let cfg = GatewayConfig {
            shards: 2,
            batch_max_frames: 4,
            batch_deadline: Duration::from_secs(3600),
            queue_capacity: 4096,
            auth_secret: None,
            trace_capacity: 4096,
            ..GatewayConfig::default()
        };
        let gw = gateway(cfg);
        let mut client = Client::connect(&Loopback::new(Arc::clone(&gw))).expect("connects");
        client.hello(9).expect("hello");
        let frames = cluster_frames(12, 0xAB);
        for lo in (0..12).step_by(3) {
            let cluster = 40 + (lo as u64 / 3) % 2;
            let outcome = client.push(cluster, frames.view_rows(lo..lo + 3)).expect("push");
            assert_eq!(outcome, PushOutcome::Accepted(3));
        }
        let mut got = 0;
        while got < 12 {
            let chunk = client.pull(40, 32).expect("pull").rows()
                + client.pull(41, 32).expect("pull").rows();
            assert!(chunk > 0, "pulls stalled at {got}/12 rows");
            got += chunk;
        }

        let summary = orco_obs::verify_chains(gw.tracer().spans().as_slice())
            .expect("span chains conserve rows");
        assert_eq!(summary.pushed_rows, 12, "every accepted row opens a chain");
        assert_eq!(summary.delivered_rows, 12, "every delivered row closes its chain");
        assert_eq!(gw.tracer().dropped(), 0, "ring sized for the schedule");
        gw.trace_export()
    };
    let a = run();
    let b = run();
    assert!(a.starts_with("orco-trace v1"), "unexpected export header: {a}");
    assert!(a.contains("push") && a.contains("store") && a.contains("pull"), "spans missing: {a}");
    assert_eq!(a, b, "trace exports diverged across identical runs");
}
