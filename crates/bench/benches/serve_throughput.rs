//! Serving-throughput bench: frames/s end to end through the loopback
//! gateway — full wire protocol, sharded micro-batcher, ONE
//! `encode_batch` per flush, decoded pulls — across worker (shard)
//! counts, micro-batch sizes, and batch deadlines, on one connection and
//! (the `-2conn` row) on two connections driving one shard each.
//!
//! This is the perf stake of the serving subsystem: on one core a
//! batched gateway configuration (`batch_max_frames = 64`) must serve at
//! least 2× the frames/s of a batch-size-1 gateway (every push flushed
//! and every pull decoded one frame at a time) — the batched-data-plane
//! win of `BENCH_frame_throughput.json` surviving the protocol layer.
//! Results land in `BENCH_serve_throughput.json` (override with
//! `ORCO_SERVE_BENCH_JSON`); CI runs quick mode and uploads the JSON.
//!
//! Run with: `cargo bench -p orco_bench --bench serve_throughput`
//! (`ORCO_SCALE=quick` shrinks the measurement for CI.)

#![expect(
    clippy::disallowed_methods,
    reason = "benches time real work; wall-clock reads are the point"
)]
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use orco_serve::{
    Client, Clock, Gateway, GatewayConfig, Loopback, LoopbackConnection, ModelVersion, PushOutcome,
};
use orco_tensor::{Matrix, OrcoRng};
use orcodcs::{AsymmetricAutoencoder, Codec, OrcoConfig};

/// Clusters a lone connection drives round-robin (spreads load across
/// shards).
const CLUSTERS: [u64; 4] = [3, 19, 42, 77];
/// Virtual-clock advance per dispatched message; with the deadline knob
/// this decides how many frames a lingering batch accumulates.
const QUANTUM: Duration = Duration::from_micros(100);

struct Config {
    label: &'static str,
    shards: usize,
    batch_max: usize,
    deadline_ms: u64,
    /// Driving threads, each with a connection of its own. One drives
    /// [`CLUSTERS`]; several drive one cluster each, thread `i`'s on
    /// shard `i`, and split the frames between them.
    conns: usize,
    /// Gateway-side span recording on (a live `Tracer` ring) or off
    /// (capacity 0, every record a no-op). The wire carries trace ids
    /// either way, so this isolates the recording cost.
    traced: bool,
    /// Propose + activate a codec hot swap at the run's halfway point,
    /// timing the stall the cutover adds to the serving path.
    swap: bool,
}

struct Row {
    label: &'static str,
    shards: usize,
    conns: usize,
    batch_max: usize,
    deadline_ms: u64,
    traced: bool,
    frames_per_s: f64,
    /// Wall-clock cost of propose + activate, for the swap row.
    swap_stall_ms: Option<f64>,
}

/// Serves `total` frames end to end over `cfg.conns` connections and
/// returns the wall-clock aggregate frames/s plus the swap stall (when
/// the config hot-swaps mid-run).
fn run(cfg: &Config, total: usize) -> (f64, Option<f64>) {
    let ae_cfg = OrcoConfig::for_dataset(orco_datasets_kind()).with_latent_dim(paper_latent());
    let gateway = Arc::new(
        Gateway::new(
            GatewayConfig {
                shards: cfg.shards,
                batch_max_frames: cfg.batch_max,
                batch_deadline: Duration::from_millis(cfg.deadline_ms),
                queue_capacity: 4096,
                auth_secret: None,
                trace_capacity: if cfg.traced { 1 << 16 } else { 0 },
                ..GatewayConfig::default()
            },
            Clock::manual(QUANTUM),
            |_| {
                Box::new(AsymmetricAutoencoder::new(&ae_cfg).expect("valid config"))
                    as Box<dyn Codec>
            },
        )
        .expect("valid gateway"),
    );
    let lanes: Vec<Vec<u64>> = if cfg.conns == 1 {
        vec![CLUSTERS.to_vec()]
    } else {
        assert!(cfg.conns <= cfg.shards, "one shard per connection");
        (0..cfg.conns)
            .map(|shard| vec![(1..).find(|&c| gateway.shard_of(c) == shard).expect("reachable")])
            .collect()
    };
    let mut clients: Vec<_> = (0..cfg.conns)
        .map(|i| {
            let mut client =
                Client::connect(&Loopback::new(Arc::clone(&gateway))).expect("loopback connects");
            client.hello(i as u64).expect("hello");
            client
        })
        .collect();

    let mut rng = OrcoRng::from_seed_u64(7);
    let frames = Matrix::from_fn(256, gateway.frame_dims().input, |_, _| rng.uniform(0.0, 1.0));
    let per_conn = total / cfg.conns;

    let start = Instant::now();
    let swap_stall_ms = std::thread::scope(|scope| {
        let drivers: Vec<_> = clients
            .iter_mut()
            .zip(&lanes)
            .map(|(client, clusters)| {
                let (ae_cfg, frames) = (&ae_cfg, &frames);
                scope.spawn(move || drive(cfg, ae_cfg, client, clusters, frames, per_conn))
            })
            .collect();
        drivers.into_iter().filter_map(|d| d.join().expect("driving thread")).reduce(f64::max)
    });
    let elapsed = start.elapsed().as_secs_f64();
    ((per_conn * cfg.conns) as f64 / elapsed, swap_stall_ms)
}

/// One connection's share of a run: pushes `total` frames round-robin
/// over `clusters`, one per message, and pulls them back decoded in
/// `batch_max`-sized chunks. Returns the swap stall when the config
/// hot-swaps mid-run.
fn drive(
    cfg: &Config,
    ae_cfg: &OrcoConfig,
    client: &mut Client<LoopbackConnection>,
    clusters: &[u64],
    frames: &Matrix,
    total: usize,
) -> Option<f64> {
    let pull_chunk = cfg.batch_max as u32;
    let mut served = 0usize;
    let mut pushed_since_drain = 0usize;
    let mut swap_stall_ms = None;
    for i in 0..total {
        if cfg.swap && i == total / 2 {
            // Hot-swap to a fresh encoder mid-stream. The stall a client
            // sees is the propose + activate round trips (activation
            // flushes each shard's pending batch under the old codec);
            // the zero-drop contract is re-checked by the served == total
            // assert below.
            let donor = AsymmetricAutoencoder::new(ae_cfg).expect("valid config");
            let version = ModelVersion {
                id: 1,
                label: "bench-swap".into(),
                frame_dim: ae_cfg.input_dim as u32,
                code_dim: ae_cfg.latent_dim as u32,
            };
            let swap_start = Instant::now();
            let ckpt = donor.checkpoint().expect("autoencoder codecs checkpoint");
            client.propose_rollout(version, &ckpt).expect("propose");
            client.activate_version(1).expect("activate");
            let stall = swap_start.elapsed();
            let bound = Duration::from_millis(cfg.deadline_ms) * 2;
            assert!(
                stall <= bound,
                "hot swap stalled the serving path for {stall:?}, over two flush \
                 deadlines ({bound:?})"
            );
            swap_stall_ms = Some(stall.as_secs_f64() * 1e3);
        }
        let cluster = clusters[i % clusters.len()];
        let row = i % frames.rows();
        match client.push(cluster, frames.view_rows(row..row + 1)).expect("push") {
            PushOutcome::Accepted(_) => pushed_since_drain += 1,
            PushOutcome::Busy { .. } => unreachable!("drain policy keeps the budget free"),
            PushOutcome::Redirected { .. } => unreachable!("no fleet view installed"),
        }
        // Periodically drain so the in-flight budget never fills; the
        // pull chunk matches the config's batch size, so the batch-1
        // configuration also decodes one frame per call.
        if pushed_since_drain >= 1024 {
            served += drain(client, clusters, pull_chunk);
            pushed_since_drain = 0;
        }
    }
    loop {
        let got = drain(client, clusters, pull_chunk);
        if got == 0 {
            break;
        }
        served += got;
    }
    assert_eq!(served, total, "every pushed frame must come back decoded");
    swap_stall_ms
}

fn drain(client: &mut Client<LoopbackConnection>, clusters: &[u64], pull_chunk: u32) -> usize {
    let mut got = 0;
    for &cluster in clusters {
        loop {
            let chunk = client.pull(cluster, pull_chunk).expect("pull").rows();
            if chunk == 0 {
                break;
            }
            got += chunk;
        }
    }
    got
}

fn orco_datasets_kind() -> orco_datasets::DatasetKind {
    orco_datasets::DatasetKind::MnistLike
}

fn paper_latent() -> usize {
    orco_datasets_kind().paper_latent_dim()
}

fn main() {
    // The acceptance claim is per-core: pin the kernels to one thread.
    orco_tensor::parallel::set_threads(1);
    let quick = std::env::var("ORCO_SCALE").as_deref() == Ok("quick");
    let total = if quick { 1024 } else { 8192 };
    let host_cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let base = Config {
        label: "batch-64",
        shards: 1,
        batch_max: 64,
        deadline_ms: 50,
        conns: 1,
        traced: false,
        swap: false,
    };
    let configs = [
        Config { label: "batch-1", batch_max: 1, ..base },
        Config { label: "batch-16", batch_max: 16, ..base },
        Config { ..base },
        Config { label: "batch-64-traced", traced: true, ..base },
        Config { label: "batch-64-2shard", shards: 2, ..base },
        Config { label: "batch-64-2shard-2conn", shards: 2, conns: 2, ..base },
        Config { label: "batch-64-4shard", shards: 4, ..base },
        Config { label: "batch-64-1ms", deadline_ms: 1, ..base },
        Config { label: "batch-64-during-swap", swap: true, ..base },
    ];

    // Interleaved rounds with a per-config best: compared configs (the
    // 2x stake, the tracing stake — its pair runs back to back) are
    // measured close together in time each round, so ambient load drift
    // hits both sides of a ratio instead of biasing it.
    let mut best = vec![0.0f64; configs.len()];
    let mut stalls: Vec<Option<f64>> = vec![None; configs.len()];
    for round in 0..3 {
        for (i, cfg) in configs.iter().enumerate() {
            if round == 0 {
                // Warm-up run grows every workspace to size.
                let _ = run(cfg, total.min(256));
            }
            let (fps, stall) = run(cfg, total);
            best[i] = best[i].max(fps);
            // Keep the worst observed stall: the bar is a ceiling.
            stalls[i] = match (stalls[i], stall) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            };
        }
    }
    let rows: Vec<Row> = configs
        .iter()
        .zip(best.iter().zip(&stalls))
        .map(|(cfg, (&frames_per_s, &swap_stall_ms))| Row {
            label: cfg.label,
            shards: cfg.shards,
            conns: cfg.conns,
            batch_max: cfg.batch_max,
            deadline_ms: cfg.deadline_ms,
            traced: cfg.traced,
            frames_per_s,
            swap_stall_ms,
        })
        .collect();

    println!(
        "serve_throughput (loopback, 1 kernel thread per driving thread, {} frames, {} scale)",
        total,
        if quick { "quick" } else { "default" }
    );
    println!(
        "{:<22} {:>6} {:>6} {:>10} {:>12} {:>14}",
        "config", "shards", "conns", "batch_max", "deadline_ms", "frames/s"
    );
    for r in &rows {
        println!(
            "{:<22} {:>6} {:>6} {:>10} {:>12} {:>14.1}",
            r.label, r.shards, r.conns, r.batch_max, r.deadline_ms, r.frames_per_s
        );
    }

    let fps =
        |label: &str| rows.iter().find(|r| r.label == label).expect("config exists").frames_per_s;
    let speedup = fps("batch-64") / fps("batch-1");
    println!("\nbatched (64) vs batch-size-1 gateway on one core: {speedup:.2}x");
    let tracing_overhead = 1.0 - fps("batch-64-traced") / fps("batch-64");
    println!("tracing overhead at batch 64: {:.2}%", tracing_overhead * 100.0);
    let scaling_2conn = fps("batch-64-2shard-2conn") / fps("batch-64-2shard");
    println!(
        "scaling_2conn (2 shards: 2 connections vs 1): {scaling_2conn:.2}x on {host_cores} cores"
    );
    let swap_stall = rows
        .iter()
        .find_map(|r| r.swap_stall_ms)
        .expect("the during-swap config records its stall");
    println!(
        "codec hot-swap stall at batch 64: {swap_stall:.3} ms (bar: 2 flush deadlines = {} ms)",
        2 * base.deadline_ms
    );

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"serve_throughput\",");
    let _ = writeln!(json, "  \"scale\": \"{}\",", if quick { "quick" } else { "default" });
    let _ = writeln!(json, "  \"threads\": 1,");
    let _ = writeln!(json, "  \"host_cores\": {host_cores},");
    let _ = writeln!(
        json,
        "  \"note\": \"kernel threads pinned to 1 per driving thread. One connection has one \
         request in flight, so the shard-count sweep (batch-64 vs -2shard vs -4shard) is flat by \
         construction: it measures sharding overhead. Scaling is the -2conn row: two driving \
         threads, one cluster per shard, a request locking only its own shard; scaling_2conn is \
         its aggregate over batch-64-2shard, bounded by host_cores\","
    );
    let _ = writeln!(json, "  \"frames\": {total},");
    let _ = writeln!(json, "  \"batched64_vs_batch1_speedup\": {speedup:.4},");
    let _ = writeln!(json, "  \"tracing_overhead_batch64\": {tracing_overhead:.4},");
    let _ = writeln!(json, "  \"scaling_2conn\": {scaling_2conn:.4},");
    let _ = writeln!(json, "  \"swap_stall_ms_batch64\": {swap_stall:.4},");
    let _ = writeln!(json, "  \"results\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let stall = r.swap_stall_ms.map_or(String::from("null"), |s| format!("{s:.4}"));
        let _ = writeln!(
            json,
            "    {{\"config\": \"{}\", \"shards\": {}, \"conns\": {}, \"batch_max\": {}, \"deadline_ms\": {}, \"traced\": {}, \"frames_per_s\": {:.2}, \"swap_stall_ms\": {stall}}}{comma}",
            r.label, r.shards, r.conns, r.batch_max, r.deadline_ms, r.traced, r.frames_per_s
        );
    }
    let _ = writeln!(json, "  ]");
    json.push_str("}\n");
    let path = std::env::var("ORCO_SERVE_BENCH_JSON").unwrap_or_else(|_| {
        format!("{}/../../BENCH_serve_throughput.json", env!("CARGO_MANIFEST_DIR"))
    });
    std::fs::write(&path, &json).expect("bench JSON is writable");
    println!("wrote {path}");

    // The documented acceptance bar: batched serving must hold >= 2x the
    // batch-size-1 gateway on one core (measured ~4.3x; fail loudly well
    // before the README's claim goes stale).
    assert!(
        speedup >= 2.0,
        "batched gateway fell below the 2x acceptance bar vs batch-size-1 ({speedup:.2}x)"
    );
    // The observability stake: recording spans into the bounded ring must
    // cost at most 5% of batch-64 throughput.
    assert!(
        tracing_overhead <= 0.05,
        "tracing cost {:.2}% of batch-64 throughput (bar: 5%)",
        tracing_overhead * 100.0
    );
}
