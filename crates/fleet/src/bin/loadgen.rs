//! TCP load generator for an `orco-serve` gateway — or a whole
//! `orco-fleet` of them.
//!
//! Spawns N client threads, each owning one cluster: every client pushes
//! M synthetic frames (`--rows-per-push` per message), then drains its
//! decoded reconstructions in `--pull-chunk` chunks, honoring `Busy`
//! backpressure with a capped-exponential, deterministically-jittered
//! backoff (per-client seed from `--seed`, so N clients never retry in
//! lockstep). At the end one control connection prints the gateway's
//! stats snapshot and (with `--shutdown`) asks the gateway to exit.
//!
//! With `--fleet <directory_addr>` the generator bootstraps from the
//! fleet directory instead of dialing one gateway: each client fetches
//! the epoch'd assignment table, routes every push to the owner it
//! computes locally, **chases redirects** when its table goes stale, and
//! the final report breaks throughput down **per gateway** — plus the
//! directory's aggregated fleet ledger (heartbeat-piggybacked stats,
//! eviction and epoch counters). Keyed fleets take `--auth-secret`.
//!
//! `--drift <frame-idx>` injects the datasets crate's `Bias` field
//! drift into every frame from that index on — the exact transform the
//! rollout gauntlet uses — so a drift-monitoring gateway
//! (`drift: Some(DriftGuard { .. })`) visibly trips its monitor mid-run and a
//! live `orco-rollout` cutover can be rehearsed end to end.
//!
//! `--metrics` skips the load entirely and one-shots the metrics text
//! exposition (every gateway in fleet mode). `--json <path>` writes a
//! machine-readable run report: throughput, Busy rate, redirects, the
//! client-observed push-latency histogram, and the scraped gateway
//! stats.
//!
//! Pair it with the `edge_gateway` or `fleet_gateway` examples:
//!
//! ```sh
//! cargo run --release --example edge_gateway &
//! cargo run --release -p orco-fleet --bin loadgen -- --clients 2 --frames 64 --shutdown
//!
//! cargo run --release --example fleet_gateway &
//! cargo run --release -p orco-fleet --bin loadgen -- \
//!     --fleet 127.0.0.1:7300 --clients 4 --frames 64 --shutdown
//! ```

#![expect(
    clippy::disallowed_methods,
    reason = "a load generator times real sockets; wall-clock reads are its job"
)]

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use orco_datasets::drift::{self, Drift};
use orco_fleet::FleetClient;
use orco_obs::{Histogram, HistogramSnapshot};
use orco_serve::{Backoff, Client, GatewayStats, PushOutcome, StatsSnapshot, Tcp, TcpConnection};
use orco_tensor::{Matrix, OrcoRng};
use orcodcs::OrcoError;

struct Args {
    addr: String,
    /// `Some(directory_addr)` switches to fleet mode.
    fleet: Option<String>,
    auth_secret: Option<u64>,
    clients: usize,
    frames: usize,
    rows_per_push: usize,
    pull_chunk: u32,
    shutdown: bool,
    connect_timeout: Duration,
    seed: u64,
    /// Bias-shift every frame from this index on (drift injection).
    drift: Option<usize>,
    /// Write a machine-readable run report here.
    json: Option<PathBuf>,
    /// One-shot: scrape and print the metrics exposition, run no load.
    metrics_only: bool,
}

impl Args {
    fn parse() -> Args {
        let mut args = Args {
            addr: "127.0.0.1:7117".into(),
            fleet: None,
            auth_secret: None,
            clients: 2,
            frames: 64,
            rows_per_push: 1,
            pull_chunk: 64,
            shutdown: false,
            connect_timeout: Duration::from_secs(10),
            seed: 0xC0FFEE,
            drift: None,
            json: None,
            metrics_only: false,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value =
                |name: &str| it.next().unwrap_or_else(|| panic!("{name} requires a value"));
            match flag.as_str() {
                "--addr" => args.addr = value("--addr"),
                "--fleet" => args.fleet = Some(value("--fleet")),
                "--auth-secret" => {
                    let v = value("--auth-secret");
                    let parsed = v
                        .strip_prefix("0x")
                        .map_or_else(|| v.parse(), |hex| u64::from_str_radix(hex, 16));
                    args.auth_secret = Some(parsed.expect("u64 (decimal or 0x-hex)"));
                }
                "--clients" => args.clients = value("--clients").parse().expect("usize"),
                "--frames" => args.frames = value("--frames").parse().expect("usize"),
                "--rows-per-push" => {
                    args.rows_per_push = value("--rows-per-push").parse().expect("usize");
                }
                "--pull-chunk" => args.pull_chunk = value("--pull-chunk").parse().expect("u32"),
                "--connect-timeout-s" => {
                    args.connect_timeout =
                        Duration::from_secs(value("--connect-timeout-s").parse().expect("u64"));
                }
                "--shutdown" => args.shutdown = true,
                "--seed" => args.seed = value("--seed").parse().expect("u64"),
                "--drift" => args.drift = Some(value("--drift").parse().expect("usize")),
                "--json" => args.json = Some(PathBuf::from(value("--json"))),
                "--metrics" => args.metrics_only = true,
                other => {
                    eprintln!(
                        "unknown flag {other}\nusage: loadgen [--addr HOST:PORT | --fleet \
                         HOST:PORT] [--auth-secret N] [--clients N] [--frames M] \
                         [--rows-per-push R] [--pull-chunk K] [--connect-timeout-s S] \
                         [--seed N] [--drift FRAME_IDX] [--json PATH] [--metrics] [--shutdown]"
                    );
                    std::process::exit(2);
                }
            }
        }
        assert!(args.clients > 0 && args.frames > 0 && args.rows_per_push > 0);
        assert!(args.pull_chunk > 0);
        args
    }
}

/// Dials until the gateway answers or the timeout elapses — the gateway
/// may still be starting when loadgen launches (CI runs them in
/// parallel).
fn connect_with_retry(
    transport: &Tcp,
    timeout: Duration,
) -> Result<Client<TcpConnection>, OrcoError> {
    let start = Instant::now();
    loop {
        match Client::connect(transport) {
            Ok(client) => return Ok(client),
            Err(_) if start.elapsed() < timeout => {
                std::thread::sleep(Duration::from_millis(100));
            }
            Err(e) => return Err(e),
        }
    }
}

/// Fleet bootstrap with the same patience: the directory may still be
/// starting, and the gateways may not have registered yet (an empty
/// fleet is a retryable condition here).
fn fleet_connect_with_retry(
    directory_addr: &str,
    client_id: u64,
    auth_secret: Option<u64>,
    timeout: Duration,
) -> Result<FleetClient, OrcoError> {
    let start = Instant::now();
    loop {
        match FleetClient::connect(directory_addr, client_id, auth_secret) {
            Ok(fleet) => return Ok(fleet),
            Err(_) if start.elapsed() < timeout => {
                std::thread::sleep(Duration::from_millis(100));
            }
            Err(e) => return Err(e),
        }
    }
}

/// What one client thread reports back (fleet-only fields zero/empty in
/// single mode).
struct ClientReport {
    pushed: usize,
    pulled: usize,
    /// `Busy` rejections honored with a backoff-and-retry.
    busy: u64,
    /// Client-observed push round-trip latency, log2-ns buckets.
    latency: HistogramSnapshot,
    redirects: u64,
    by_gateway: Vec<(String, u64)>,
}

/// Bias-shifts every frame from `idx` on — the same deterministic
/// transform `orco-rollout`'s storm scenario injects, so the gateway's
/// drift monitor sees the identical distribution shift.
fn inject_drift(frames: &mut Matrix, idx: usize, seed: u64) {
    let rows = frames.rows();
    if idx >= rows {
        return;
    }
    let mut tail = frames.view_rows(idx..rows).to_matrix();
    let mut rng = OrcoRng::from_seed_u64(seed ^ 0xD21F7);
    drift::apply_matrix(&mut tail, Drift::Bias, 1.0, &mut rng);
    for r in 0..tail.rows() {
        for c in 0..frames.cols() {
            frames.set(idx + r, c, tail.get(r, c).expect("in-bounds copy"));
        }
    }
}

fn run_client(args: &Args, id: usize) -> Result<ClientReport, OrcoError> {
    let transport = Tcp::new(args.addr.clone());
    let mut client = connect_with_retry(&transport, args.connect_timeout)?;
    client.set_auth_secret(args.auth_secret);
    let info = client.hello(id as u64)?;
    let cluster = 1000 + id as u64;
    let mut rng = OrcoRng::from_seed_u64(args.seed ^ id as u64);
    let mut frames =
        Matrix::from_fn(args.frames, info.frame_dim as usize, |_, _| rng.uniform(0.0, 1.0));
    if let Some(idx) = args.drift {
        inject_drift(&mut frames, idx, args.seed ^ id as u64);
    }
    // Per-client seed: N clients hitting the same saturated shard back
    // off on decorrelated schedules instead of retrying in lockstep.
    let mut backoff =
        Backoff::new(Duration::from_millis(1), Duration::from_millis(64), args.seed ^ id as u64);
    let latency = Histogram::new();

    let mut pushed = 0usize;
    let mut pulled = 0usize;
    let mut busy = 0u64;
    while pushed < args.frames {
        let hi = (pushed + args.rows_per_push).min(args.frames);
        let sent = Instant::now();
        let outcome = client.push(cluster, frames.view_rows(pushed..hi))?;
        latency.record_ns(u64::try_from(sent.elapsed().as_nanos()).unwrap_or(u64::MAX));
        match outcome {
            PushOutcome::Accepted(n) => {
                pushed += n as usize;
                backoff.reset();
            }
            PushOutcome::Busy { .. } => {
                // Backpressure: drain some decoded output, then retry
                // after a jittered, exponentially growing wait.
                busy += 1;
                pulled += client.pull(cluster, args.pull_chunk)?.rows();
                std::thread::sleep(backoff.next_delay());
            }
            PushOutcome::Redirected { epoch, addr } => {
                return Err(OrcoError::Config {
                    detail: format!(
                        "gateway redirected cluster {cluster} to {addr} (epoch {epoch}); \
                         this gateway is part of a fleet — use --fleet <directory_addr>"
                    ),
                });
            }
        }
    }
    while pulled < args.frames {
        let got = client.pull(cluster, args.pull_chunk)?.rows();
        if got == 0 {
            std::thread::sleep(backoff.next_delay());
            continue;
        }
        pulled += got;
        backoff.reset();
    }
    Ok(ClientReport {
        pushed,
        pulled,
        busy,
        latency: latency.snapshot(),
        redirects: 0,
        by_gateway: Vec::new(),
    })
}

/// One fleet client's run: push windows to directory-computed owners
/// (redirects chased inside [`FleetClient::push`]), drain each window
/// from the gateway that accepted it before offering the next.
fn run_fleet_client(
    args: &Args,
    directory_addr: &str,
    id: usize,
) -> Result<ClientReport, OrcoError> {
    let mut fleet = fleet_connect_with_retry(
        directory_addr,
        id as u64,
        args.auth_secret,
        args.connect_timeout,
    )?;
    let cluster = 1000 + id as u64;
    let mut rng = OrcoRng::from_seed_u64(args.seed ^ id as u64);
    let owner = fleet.owner_addr(cluster)?;
    let frame_dim = fleet.info_of(&owner)?.frame_dim as usize;
    let mut frames = Matrix::from_fn(args.frames, frame_dim, |_, _| rng.uniform(0.0, 1.0));
    if let Some(idx) = args.drift {
        inject_drift(&mut frames, idx, args.seed ^ id as u64);
    }
    let mut backoff =
        Backoff::new(Duration::from_millis(1), Duration::from_millis(64), args.seed ^ id as u64);
    let latency = Histogram::new();

    let mut pushed = 0usize;
    let mut pulled = 0usize;
    let mut busy = 0u64;
    while pushed < args.frames {
        let hi = (pushed + args.rows_per_push).min(args.frames);
        let sent = Instant::now();
        let (outcome, addr) = fleet.push(cluster, frames.view_rows(pushed..hi))?;
        latency.record_ns(u64::try_from(sent.elapsed().as_nanos()).unwrap_or(u64::MAX));
        match outcome {
            PushOutcome::Accepted(n) => {
                pushed += n as usize;
                backoff.reset();
                // Drain this window where it landed before the next push:
                // a later rebalance must never strand undrained rows.
                while pulled < pushed {
                    let got = fleet.pull_from(&addr, cluster, args.pull_chunk)?.rows();
                    if got == 0 {
                        std::thread::sleep(backoff.next_delay());
                        continue;
                    }
                    pulled += got;
                    backoff.reset();
                }
            }
            PushOutcome::Busy { .. } => {
                busy += 1;
                pulled += fleet.pull_from(&addr, cluster, args.pull_chunk)?.rows();
                std::thread::sleep(backoff.next_delay());
            }
            PushOutcome::Redirected { .. } => {
                unreachable!("FleetClient::push consumes redirects")
            }
        }
    }
    Ok(ClientReport {
        pushed,
        pulled,
        busy,
        latency: latency.snapshot(),
        redirects: fleet.redirects_chased(),
        by_gateway: fleet.pushed_rows_by_gateway(),
    })
}

fn main() {
    let args = Args::parse();
    if args.metrics_only {
        metrics_main(&args);
        return;
    }
    match args.fleet.clone() {
        Some(directory_addr) => fleet_main(&args, &directory_addr),
        None => single_main(&args),
    }
}

/// `--metrics`: scrape and print the text exposition, run no load.
fn metrics_main(args: &Args) {
    if let Some(directory_addr) = &args.fleet {
        let mut control = fleet_connect_with_retry(
            directory_addr,
            u64::MAX,
            args.auth_secret,
            args.connect_timeout,
        )
        .expect("control conn");
        let members: Vec<_> = control.members().to_vec();
        for m in &members {
            match control.metrics_of(&m.addr) {
                Ok(text) => {
                    println!("# gateway {} ({})", m.id, m.addr);
                    print!("{text}");
                }
                Err(e) => eprintln!("metrics request failed for {}: {e}", m.addr),
            }
        }
        match control.fleet_stats() {
            Ok((epoch, evictions, gateways)) => print_fleet_ledger(epoch, evictions, &gateways),
            Err(e) => eprintln!("fleet stats query failed: {e}"),
        }
    } else {
        let transport = Tcp::new(args.addr.clone());
        let mut control =
            connect_with_retry(&transport, args.connect_timeout).expect("control conn");
        print!("{}", control.metrics().expect("metrics reply"));
    }
}

fn single_main(args: &Args) {
    println!(
        "loadgen: {} client(s) x {} frames -> {} (rows/push {}, pull chunk {})",
        args.clients, args.frames, args.addr, args.rows_per_push, args.pull_chunk
    );

    let start = Instant::now();
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> =
            (0..args.clients).map(|id| scope.spawn(move || run_client(args, id))).collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let elapsed = start.elapsed().as_secs_f64();

    let mut total = 0usize;
    let mut busy = 0u64;
    let mut latency = empty_histogram();
    for (id, r) in results.iter().enumerate() {
        match r {
            Ok(rep) => {
                println!(
                    "  client {id}: pushed {}, pulled {}, busy retries {}",
                    rep.pushed, rep.pulled, rep.busy
                );
                total += rep.pulled;
                busy += rep.busy;
                merge_histogram(&mut latency, &rep.latency);
            }
            Err(e) => {
                eprintln!("  client {id} failed: {e}");
                std::process::exit(1);
            }
        }
    }
    println!(
        "loadgen: {total} frames served end-to-end in {elapsed:.3}s ({:.0} frames/s), \
         busy rate {:.4}",
        total as f64 / elapsed,
        busy_rate(busy, latency.count)
    );

    let transport = Tcp::new(args.addr.clone());
    let mut control = connect_with_retry(&transport, args.connect_timeout).expect("control conn");
    let stats = control.stats();
    print_stats(&args.addr, &stats);
    if let Some(path) = &args.json {
        let metrics_text = control.metrics().expect("metrics reply");
        let mut gateways = String::new();
        if let Ok(s) = &stats {
            gateways = stats_json(&args.addr, s);
        }
        let report = run_report_json(args, "single", total, elapsed, busy, 0, &latency)
            + &format!(
                ",\n  \"gateways\": [{gateways}],\n  \"metrics_text\": \"{}\"\n}}\n",
                json_escape(&metrics_text)
            );
        write_json_report(path, &report);
    }
    if args.shutdown {
        control.shutdown().expect("shutdown accepted");
        println!("loadgen: gateway shutdown requested");
    }
}

fn fleet_main(args: &Args, directory_addr: &str) {
    println!(
        "loadgen: {} client(s) x {} frames -> fleet at {} (rows/push {}, pull chunk {})",
        args.clients, args.frames, directory_addr, args.rows_per_push, args.pull_chunk
    );

    let start = Instant::now();
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args.clients)
            .map(|id| scope.spawn(move || run_fleet_client(args, directory_addr, id)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let elapsed = start.elapsed().as_secs_f64();

    let mut total = 0usize;
    let mut busy = 0u64;
    let mut redirects = 0u64;
    let mut latency = empty_histogram();
    let mut per_gateway: BTreeMap<String, u64> = BTreeMap::new();
    for (id, r) in results.iter().enumerate() {
        match r {
            Ok(rep) => {
                println!(
                    "  client {id}: pushed {}, pulled {}, redirects {}, busy retries {}",
                    rep.pushed, rep.pulled, rep.redirects, rep.busy
                );
                total += rep.pulled;
                busy += rep.busy;
                redirects += rep.redirects;
                merge_histogram(&mut latency, &rep.latency);
                for (addr, rows) in &rep.by_gateway {
                    *per_gateway.entry(addr.clone()).or_insert(0) += rows;
                }
            }
            Err(e) => {
                eprintln!("  client {id} failed: {e}");
                std::process::exit(1);
            }
        }
    }
    println!(
        "loadgen: {total} frames served end-to-end in {elapsed:.3}s ({:.0} frames/s), \
         {redirects} redirect(s) chased, busy rate {:.4}",
        total as f64 / elapsed,
        busy_rate(busy, latency.count)
    );
    println!("per-gateway throughput:");
    for (addr, rows) in &per_gateway {
        println!("  {addr}: {rows} rows ({:.0} rows/s)", *rows as f64 / elapsed);
    }

    // Control pass: stats from every registered gateway, the directory's
    // aggregated fleet ledger, then (with --shutdown) take the whole
    // fleet down, directory last.
    let mut control =
        fleet_connect_with_retry(directory_addr, u64::MAX, args.auth_secret, args.connect_timeout)
            .expect("control conn");
    let members: Vec<_> = control.members().to_vec();
    let mut gateways_json = Vec::new();
    for m in &members {
        let stats = control.stats_of(&m.addr);
        print_stats(&m.addr, &stats);
        if let Ok(s) = &stats {
            gateways_json.push(stats_json(&m.addr, s));
        }
    }
    let ledger = control.fleet_stats();
    match &ledger {
        Ok((epoch, evictions, gateways)) => print_fleet_ledger(*epoch, *evictions, gateways),
        Err(e) => eprintln!("fleet stats query failed: {e}"),
    }
    if let Some(path) = &args.json {
        let mut report = run_report_json(args, "fleet", total, elapsed, busy, redirects, &latency);
        report.push_str(&format!(",\n  \"gateways\": [{}]", gateways_json.join(", ")));
        if let Ok((epoch, evictions, gateways)) = &ledger {
            report.push_str(&format!(
                ",\n  \"fleet\": {{\"epoch\": {epoch}, \"evictions\": {evictions}, \
                 \"gateways\": [{}]}}",
                gateways.iter().map(ledger_entry_json).collect::<Vec<_>>().join(", ")
            ));
        }
        report.push_str("\n}\n");
        write_json_report(path, &report);
    }
    if args.shutdown {
        for m in &members {
            control.shutdown_gateway(&m.addr).expect("gateway shutdown accepted");
        }
        control.shutdown_directory().expect("directory shutdown accepted");
        println!("loadgen: fleet shutdown requested ({} gateways + directory)", members.len());
    }
}

fn print_stats(addr: &str, stats: &Result<StatsSnapshot, OrcoError>) {
    match stats {
        Ok(s) => println!(
            "gateway {addr} stats: frames_in={} frames_out={} batches={} (max batch {}) \
             flushes size/deadline/pull/drain={}/{}/{}/{} busy={} redirects={} \
             version={} drift={}(trips {}) p50={:.6}s p99={:.6}s",
            s.frames_in,
            s.frames_out,
            s.batches,
            s.max_batch_rows,
            s.size_flushes,
            s.deadline_flushes,
            s.pull_flushes,
            s.drain_flushes,
            s.busy_rejections,
            s.redirects,
            s.active_version,
            s.drift,
            s.drift_trips,
            s.batch_latency_p50_s,
            s.batch_latency_p99_s
        ),
        Err(e) => eprintln!("stats request failed for {addr}: {e}"),
    }
}

/// Renders the directory's aggregated fleet view: one line per gateway
/// (frozen entries are evicted gateways' last reports) plus an
/// alive-only rollup.
fn print_fleet_ledger(epoch: u64, evictions: u64, gateways: &[GatewayStats]) {
    println!("fleet ledger (directory view): epoch {epoch}, {evictions} eviction(s)");
    let mut rollup = (0u64, 0u64, 0u64, 0u64);
    for g in gateways {
        println!(
            "  gateway {} [{}]: frames_in={} frames_out={} batches={} busy={} redirects={} \
             queue_depth={}",
            g.id,
            if g.alive { "alive" } else { "frozen" },
            g.snapshot.frames_in,
            g.snapshot.frames_out,
            g.snapshot.batches,
            g.snapshot.busy_rejections,
            g.snapshot.redirects,
            g.snapshot.queue_depth
        );
        if g.alive {
            rollup.0 += g.snapshot.frames_in;
            rollup.1 += g.snapshot.frames_out;
            rollup.2 += g.snapshot.busy_rejections;
            rollup.3 += g.snapshot.redirects;
        }
    }
    println!(
        "  rollup (alive): frames_in={} frames_out={} busy={} redirects={}",
        rollup.0, rollup.1, rollup.2, rollup.3
    );
}

// ---- JSON report ------------------------------------------------------

fn empty_histogram() -> HistogramSnapshot {
    Histogram::new().snapshot()
}

fn merge_histogram(into: &mut HistogramSnapshot, from: &HistogramSnapshot) {
    for (a, b) in into.buckets.iter_mut().zip(from.buckets.iter()) {
        *a += b;
    }
    into.count += from.count;
    into.sum_ns += from.sum_ns;
}

/// Busy rejections per push round trip (both count one wire exchange).
fn busy_rate(busy: u64, push_round_trips: u64) -> f64 {
    if push_round_trips == 0 {
        0.0
    } else {
        busy as f64 / push_round_trips as f64
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// JSON has no NaN/∞; non-finite floats become null.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn histogram_json(h: &HistogramSnapshot) -> String {
    let last = h.buckets.iter().rposition(|&c| c != 0).map_or(0, |i| i + 1);
    let buckets: Vec<String> = (0..last)
        .map(|i| {
            format!(
                "{{\"le_ns\": {}, \"count\": {}}}",
                HistogramSnapshot::upper_bound_ns(i),
                h.buckets[i]
            )
        })
        .collect();
    format!(
        "{{\"count\": {}, \"sum_ns\": {}, \"buckets\": [{}]}}",
        h.count,
        h.sum_ns,
        buckets.join(", ")
    )
}

fn stats_json(addr: &str, s: &StatsSnapshot) -> String {
    format!(
        "{{\"addr\": \"{}\", \"frames_in\": {}, \"frames_out\": {}, \"batches\": {}, \
         \"busy_rejections\": {}, \"redirects\": {}, \"queue_depth\": {}, \
         \"batch_latency_p50_s\": {}, \"batch_latency_p99_s\": {}}}",
        json_escape(addr),
        s.frames_in,
        s.frames_out,
        s.batches,
        s.busy_rejections,
        s.redirects,
        s.queue_depth,
        json_f64(s.batch_latency_p50_s),
        json_f64(s.batch_latency_p99_s)
    )
}

fn ledger_entry_json(g: &GatewayStats) -> String {
    format!(
        "{{\"id\": {}, \"alive\": {}, \"frames_in\": {}, \"frames_out\": {}, \
         \"busy_rejections\": {}, \"redirects\": {}}}",
        g.id,
        g.alive,
        g.snapshot.frames_in,
        g.snapshot.frames_out,
        g.snapshot.busy_rejections,
        g.snapshot.redirects
    )
}

/// The report's common prefix — the caller appends mode-specific fields
/// and the closing brace.
fn run_report_json(
    args: &Args,
    mode: &str,
    total: usize,
    elapsed: f64,
    busy: u64,
    redirects: u64,
    latency: &HistogramSnapshot,
) -> String {
    format!(
        "{{\n  \"mode\": \"{mode}\",\n  \"clients\": {},\n  \"frames_per_client\": {},\n  \
         \"rows_per_push\": {},\n  \"total_rows\": {total},\n  \"elapsed_s\": {},\n  \
         \"rows_per_s\": {},\n  \"busy_retries\": {busy},\n  \"busy_rate\": {},\n  \
         \"redirects\": {redirects},\n  \"push_latency\": {}",
        args.clients,
        args.frames,
        args.rows_per_push,
        json_f64(elapsed),
        json_f64(total as f64 / elapsed),
        json_f64(busy_rate(busy, latency.count)),
        histogram_json(latency)
    )
}

fn write_json_report(path: &PathBuf, report: &str) {
    match std::fs::write(path, report) {
        Ok(()) => println!("loadgen: JSON report written to {}", path.display()),
        Err(e) => {
            eprintln!("loadgen: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}
