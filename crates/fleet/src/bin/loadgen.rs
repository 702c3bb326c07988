//! TCP load generator for an `orco-serve` gateway — or a whole
//! `orco-fleet` of them.
//!
//! Spawns N client threads, each owning one cluster: every client pushes
//! M synthetic frames (`--rows-per-push` per message) to the cluster's
//! owner, then drains its decoded reconstructions in `--pull-chunk`
//! chunks from every gateway that accepted some, honoring `Busy`
//! backpressure with a capped-exponential, deterministically-jittered
//! backoff (per-client seed from `--seed`, so N clients never retry in
//! lockstep). At the end one control connection reports every gateway's
//! throughput and stats snapshot and (with `--shutdown`) asks each to
//! exit.
//!
//! A lone `--addr` gateway is a fleet of one. With `--fleet
//! <directory_addr>` the generator bootstraps from the fleet directory
//! instead: each client fetches the epoch'd assignment table, routes
//! every push to the owner it computes locally and **chases redirects**
//! when its table goes stale; the report adds the directory's aggregated
//! fleet ledger (heartbeat-piggybacked stats, eviction and epoch
//! counters), and `--shutdown` takes the directory down last. Without
//! `--fleet`, a redirect fails the client: the gateway is part of a
//! fleet. Keyed gateways take `--auth-secret`.
//!
//! `--drift <frame-idx>` injects the datasets crate's `Bias` field
//! drift into every frame from that index on — the exact transform the
//! rollout gauntlet uses — so a drift-monitoring gateway
//! (`drift: Some(DriftGuard { .. })`) visibly trips its monitor mid-run and a
//! live `orco-rollout` cutover can be rehearsed end to end.
//!
//! `--metrics` skips the load entirely and one-shots every gateway's
//! metrics text exposition. `--json <path>` writes a machine-readable run
//! report: throughput, Busy rate, redirects, the client-observed
//! push-latency histogram, each gateway's stats and metrics text, and
//! (with `--fleet`) the directory's ledger.
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
use orco_serve::{
    Backoff, Client, GatewayInfo, GatewayStats, PushOutcome, StatsSnapshot, Tcp, TcpConnection,
};
use orco_tensor::{MatView, Matrix, OrcoRng};
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

impl Default for Args {
    fn default() -> Self {
        Self {
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
        }
    }
}

impl Args {
    fn parse() -> Args {
        let mut args = Args::default();
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

/// Retries `dial` until it succeeds or `timeout` elapses — the gateway
/// or directory may still be starting when loadgen launches (CI runs
/// them in parallel), and a fleet's gateways may not have registered yet
/// (an empty fleet is a retryable condition here).
fn with_retry<T>(
    timeout: Duration,
    mut dial: impl FnMut() -> Result<T, OrcoError>,
) -> Result<T, OrcoError> {
    let start = Instant::now();
    loop {
        match dial() {
            Ok(t) => return Ok(t),
            Err(_) if start.elapsed() < timeout => {
                std::thread::sleep(Duration::from_millis(100));
            }
            Err(e) => return Err(e),
        }
    }
}

/// Where a connection's requests go: one gateway dialed directly, or a
/// fleet whose owners a [`FleetClient`] computes from the directory.
enum Route {
    Gateway { addr: String, client: Client<TcpConnection>, info: GatewayInfo },
    Fleet(FleetClient),
}

impl Route {
    /// Dials `--addr` (and greets it) or bootstraps from `--fleet`,
    /// retrying until `--connect-timeout-s`.
    fn connect(args: &Args, client_id: u64) -> Result<Route, OrcoError> {
        let patience = args.connect_timeout;
        if let Some(directory_addr) = &args.fleet {
            let fleet = with_retry(patience, || {
                FleetClient::connect(directory_addr, client_id, args.auth_secret)
            })?;
            return Ok(Route::Fleet(fleet));
        }
        let mut client = with_retry(patience, || Client::connect(&Tcp::new(args.addr.clone())))?;
        client.set_auth_secret(args.auth_secret);
        let info = client.hello(client_id)?;
        Ok(Route::Gateway { addr: args.addr.clone(), client, info })
    }

    /// Pushes to the cluster's owner and returns the outcome (`Accepted`
    /// or `Busy`) with the address that answered. A fleet chases
    /// redirects; a lone gateway that redirects belongs to a fleet.
    fn push(
        &mut self,
        cluster: u64,
        frames: MatView<'_>,
    ) -> Result<(PushOutcome, String), OrcoError> {
        match self {
            Route::Fleet(fleet) => fleet.push(cluster, frames),
            Route::Gateway { addr, client, .. } => match client.push(cluster, frames)? {
                PushOutcome::Redirected { epoch, addr: owner } => Err(OrcoError::Config {
                    detail: format!(
                        "gateway redirected cluster {cluster} to {owner} (epoch {epoch}); \
                         this gateway is part of a fleet — use --fleet <directory_addr>"
                    ),
                }),
                outcome => Ok((outcome, addr.clone())),
            },
        }
    }

    /// The data connection to the gateway at `addr` (a lone gateway's
    /// own, whatever the address).
    fn gateway(&mut self, addr: &str) -> Result<&mut Client<TcpConnection>, OrcoError> {
        match self {
            Route::Gateway { client, .. } => Ok(client),
            Route::Fleet(fleet) => fleet.gateway(addr),
        }
    }

    /// Every member's address.
    fn addrs(&self) -> Vec<String> {
        match self {
            Route::Gateway { addr, .. } => vec![addr.clone()],
            Route::Fleet(fleet) => fleet.members().iter().map(|m| m.addr.clone()).collect(),
        }
    }

    /// The frame width the owner of `cluster` serves.
    fn frame_dim(&mut self, cluster: u64) -> Result<usize, OrcoError> {
        let info = match self {
            Route::Gateway { info, .. } => *info,
            Route::Fleet(fleet) => {
                let owner = fleet.owner_addr(cluster)?;
                fleet.info_of(&owner)?
            }
        };
        Ok(info.frame_dim as usize)
    }

    fn redirects(&self) -> u64 {
        match self {
            Route::Gateway { .. } => 0,
            Route::Fleet(fleet) => fleet.redirects_chased(),
        }
    }
}

/// What one client thread reports back, or the sum over all of them.
#[derive(Default)]
struct ClientReport {
    pushed: usize,
    pulled: usize,
    /// `Busy` rejections honored with a backoff-and-retry.
    busy: u64,
    redirects: u64,
    /// Rows accepted per gateway address.
    by_gateway: BTreeMap<String, usize>,
}

impl ClientReport {
    fn add(&mut self, other: &ClientReport) {
        self.pushed += other.pushed;
        self.pulled += other.pulled;
        self.busy += other.busy;
        self.redirects += other.redirects;
        for (addr, rows) in &other.by_gateway {
            *self.by_gateway.entry(addr.clone()).or_default() += rows;
        }
    }
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

/// One client's run: push every window to the cluster's owner, then
/// drain each gateway that accepted rows until it has returned them all.
/// Pulls go where the rows landed, so a rebalance mid-run strands none.
/// Every push's round trip is recorded in `latency`.
fn run_client(args: &Args, id: usize, latency: &Histogram) -> Result<ClientReport, OrcoError> {
    let mut route = Route::connect(args, id as u64)?;
    let cluster = 1000 + id as u64;
    let mut rng = OrcoRng::from_seed_u64(args.seed ^ id as u64);
    let frame_dim = route.frame_dim(cluster)?;
    let mut frames = Matrix::from_fn(args.frames, frame_dim, |_, _| rng.uniform(0.0, 1.0));
    if let Some(idx) = args.drift {
        inject_drift(&mut frames, idx, args.seed ^ id as u64);
    }
    // Per-client seed: N clients hitting the same saturated shard back
    // off on decorrelated schedules instead of retrying in lockstep.
    let mut backoff =
        Backoff::new(Duration::from_millis(1), Duration::from_millis(64), args.seed ^ id as u64);

    let mut pushed = 0usize;
    let mut busy = 0u64;
    let mut landed: BTreeMap<String, usize> = BTreeMap::new();
    let mut pulled: BTreeMap<String, usize> = BTreeMap::new();
    while pushed < args.frames {
        let hi = (pushed + args.rows_per_push).min(args.frames);
        let sent = Instant::now();
        let (outcome, addr) = route.push(cluster, frames.view_rows(pushed..hi))?;
        latency.record_ns(u64::try_from(sent.elapsed().as_nanos()).unwrap_or(u64::MAX));
        match outcome {
            PushOutcome::Accepted(n) => {
                pushed += n as usize;
                *landed.entry(addr).or_default() += n as usize;
                backoff.reset();
            }
            PushOutcome::Busy { .. } => {
                // Backpressure: drain some decoded output, then retry
                // after a jittered, exponentially growing wait.
                busy += 1;
                let got = route.gateway(&addr)?.pull(cluster, args.pull_chunk)?.rows();
                *pulled.entry(addr).or_default() += got;
                std::thread::sleep(backoff.next_delay());
            }
            PushOutcome::Redirected { .. } => unreachable!("Route::push consumes redirects"),
        }
    }
    for (addr, &rows) in &landed {
        let got = pulled.entry(addr.clone()).or_default();
        while *got < rows {
            let chunk = route.gateway(addr)?.pull(cluster, args.pull_chunk)?.rows();
            if chunk == 0 {
                std::thread::sleep(backoff.next_delay());
                continue;
            }
            *got += chunk;
            backoff.reset();
        }
    }
    Ok(ClientReport {
        pushed,
        pulled: pulled.values().sum(),
        busy,
        redirects: route.redirects(),
        by_gateway: landed,
    })
}

/// A finished run: every client's report and their sum, the
/// client-observed push round-trip latency (log2-ns buckets), and the
/// wall-clock seconds the slowest client took.
struct Summary {
    clients: Vec<ClientReport>,
    total: ClientReport,
    latency: HistogramSnapshot,
    elapsed_s: f64,
}

/// Runs every client on its own thread; the first failure fails the run.
fn run_clients(args: &Args) -> Result<Summary, OrcoError> {
    let latency = Histogram::new();
    let start = Instant::now();
    let results: Vec<_> = std::thread::scope(|scope| {
        let latency = &latency;
        let handles: Vec<_> = (0..args.clients)
            .map(|id| scope.spawn(move || run_client(args, id, latency)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    let mut total = ClientReport::default();
    let mut clients = Vec::with_capacity(results.len());
    for (id, r) in results.into_iter().enumerate() {
        let rep =
            r.map_err(|e| OrcoError::Config { detail: format!("client {id} failed: {e}") })?;
        total.add(&rep);
        clients.push(rep);
    }
    Ok(Summary { clients, total, latency: latency.snapshot(), elapsed_s })
}

fn main() {
    let args = Args::parse();
    let run = if args.metrics_only { metrics_main(&args) } else { load_main(&args) };
    if let Err(e) = run {
        eprintln!("loadgen: {e}");
        std::process::exit(1);
    }
}

/// `--metrics`: scrape and print every gateway's text exposition (and
/// the fleet ledger), run no load.
fn metrics_main(args: &Args) -> Result<(), OrcoError> {
    let mut control = Route::connect(args, u64::MAX)?;
    for addr in control.addrs() {
        match control.gateway(&addr).and_then(Client::metrics) {
            Ok(text) => {
                println!("# gateway {addr}");
                print!("{text}");
            }
            Err(e) => eprintln!("metrics request failed for {addr}: {e}"),
        }
    }
    fleet_ledger(&mut control);
    Ok(())
}

fn load_main(args: &Args) -> Result<(), OrcoError> {
    let target = args.fleet.as_ref().map_or_else(|| args.addr.clone(), |d| format!("fleet at {d}"));
    println!(
        "loadgen: {} client(s) x {} frames -> {target} (rows/push {}, pull chunk {})",
        args.clients, args.frames, args.rows_per_push, args.pull_chunk
    );
    let sum = run_clients(args)?;
    for (id, rep) in sum.clients.iter().enumerate() {
        println!(
            "  client {id}: pushed {}, pulled {}, redirects {}, busy retries {}",
            rep.pushed, rep.pulled, rep.redirects, rep.busy
        );
    }
    let (total, elapsed_s) = (&sum.total, sum.elapsed_s);
    println!(
        "loadgen: {} frames served end-to-end in {elapsed_s:.3}s ({:.0} frames/s), \
         {} redirect(s) chased, busy rate {:.4}",
        total.pulled,
        total.pulled as f64 / elapsed_s,
        total.redirects,
        busy_rate(total.busy, sum.latency.count)
    );
    println!("per-gateway throughput:");
    for (addr, rows) in &total.by_gateway {
        println!("  {addr}: {rows} rows ({:.0} rows/s)", *rows as f64 / elapsed_s);
    }
    control_pass(args, &sum)
}

/// Stats (and, for `--json`, metrics) from every gateway, the fleet
/// ledger, the report, then with `--shutdown` every gateway and the
/// directory last.
fn control_pass(args: &Args, sum: &Summary) -> Result<(), OrcoError> {
    let mut control = Route::connect(args, u64::MAX)?;
    let addrs = control.addrs();
    let mut gateways_json = Vec::new();
    for addr in &addrs {
        let stats = control.gateway(addr).and_then(Client::stats);
        print_stats(addr, &stats);
        let (Some(_), Ok(s)) = (&args.json, &stats) else { continue };
        match control.gateway(addr).and_then(Client::metrics) {
            Ok(text) => gateways_json.push(gateway_json(addr, s, &text)),
            Err(e) => eprintln!("metrics request failed for {addr}: {e}"),
        }
    }
    let ledger = fleet_ledger(&mut control);
    if let Some(path) = &args.json {
        let report = report_json(args, sum, &gateways_json, ledger.as_deref());
        std::fs::write(path, report).map_err(|e| {
            std::io::Error::new(e.kind(), format!("cannot write {}: {e}", path.display()))
        })?;
        println!("loadgen: JSON report written to {}", path.display());
    }
    if args.shutdown {
        for addr in &addrs {
            control.gateway(addr)?.shutdown()?;
        }
        let mut directory = "";
        if let Route::Fleet(fleet) = &mut control {
            fleet.shutdown_directory()?;
            directory = " + directory";
        }
        println!("loadgen: shutdown requested ({} gateway(s){directory})", addrs.len());
    }
    Ok(())
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

/// With `--fleet`, prints the directory's aggregated fleet view — one
/// line per gateway (frozen entries are evicted gateways' last reports)
/// plus an alive-only rollup — and returns it as a JSON object.
fn fleet_ledger(control: &mut Route) -> Option<String> {
    let Route::Fleet(fleet) = control else { return None };
    let (epoch, evictions, gateways) = match fleet.fleet_stats() {
        Ok(ledger) => ledger,
        Err(e) => {
            eprintln!("fleet stats query failed: {e}");
            return None;
        }
    };
    println!("fleet ledger (directory view): epoch {epoch}, {evictions} eviction(s)");
    let mut rollup = (0u64, 0u64, 0u64, 0u64);
    for g in &gateways {
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
    Some(format!(
        "{{\"epoch\": {epoch}, \"evictions\": {evictions}, \"gateways\": [{}]}}",
        gateways.iter().map(ledger_entry_json).collect::<Vec<_>>().join(", ")
    ))
}

// ---- JSON report ------------------------------------------------------

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

fn gateway_json(addr: &str, s: &StatsSnapshot, metrics_text: &str) -> String {
    format!(
        "{{\"addr\": \"{}\", \"frames_in\": {}, \"frames_out\": {}, \"batches\": {}, \
         \"busy_rejections\": {}, \"redirects\": {}, \"queue_depth\": {}, \
         \"batch_latency_p50_s\": {}, \"batch_latency_p99_s\": {}, \"metrics_text\": \"{}\"}}",
        json_escape(addr),
        s.frames_in,
        s.frames_out,
        s.batches,
        s.busy_rejections,
        s.redirects,
        s.queue_depth,
        json_f64(s.batch_latency_p50_s),
        json_f64(s.batch_latency_p99_s),
        json_escape(metrics_text)
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

/// The whole run report; `fleet` is the directory's ledger object.
fn report_json(args: &Args, sum: &Summary, gateways: &[String], fleet: Option<&str>) -> String {
    let mode = if args.fleet.is_some() { "fleet" } else { "single" };
    let total = &sum.total;
    let fleet = fleet.map_or_else(String::new, |ledger| format!(",\n  \"fleet\": {ledger}"));
    format!(
        "{{\n  \"mode\": \"{mode}\",\n  \"clients\": {},\n  \"frames_per_client\": {},\n  \
         \"rows_per_push\": {},\n  \"total_rows\": {},\n  \"elapsed_s\": {},\n  \
         \"rows_per_s\": {},\n  \"busy_retries\": {},\n  \"busy_rate\": {},\n  \
         \"redirects\": {},\n  \"push_latency\": {},\n  \"gateways\": [{}]{fleet}\n}}\n",
        args.clients,
        args.frames,
        args.rows_per_push,
        total.pulled,
        json_f64(sum.elapsed_s),
        json_f64(total.pulled as f64 / sum.elapsed_s),
        total.busy,
        json_f64(busy_rate(total.busy, sum.latency.count)),
        total.redirects,
        histogram_json(&sum.latency),
        gateways.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use orco_fleet::{AgentConfig, Directory, DirectoryConfig, GatewayAgent};
    use orco_serve::{Clock, FleetView, Gateway, GatewayConfig, GatewayEntry, TcpServer};
    use orcodcs::{AsymmetricAutoencoder, OrcoConfig};

    use super::*;

    fn gateway() -> Arc<Gateway> {
        let cfg = OrcoConfig::for_dataset(orco_datasets::DatasetKind::MnistLike)
            .with_latent_dim(16)
            .with_seed(11);
        let codec = move |_| Box::new(AsymmetricAutoencoder::new(&cfg).expect("valid config")) as _;
        Arc::new(Gateway::new(GatewayConfig::default(), Clock::real(), codec).expect("gateway"))
    }

    fn serve(gw: &Arc<Gateway>) -> TcpServer {
        TcpServer::spawn(Arc::clone(gw), "127.0.0.1:0").expect("gateway binds")
    }

    fn report_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("loadgen-{name}-{}.json", std::process::id()))
    }

    /// Runs the clients, checks every one got its rows back, then runs the
    /// control pass (JSON report, `--shutdown`) and returns the run and
    /// the report.
    fn run_to_report(args: &Args) -> (Summary, String) {
        let sum = run_clients(args).expect("every client succeeds");
        for (id, rep) in sum.clients.iter().enumerate() {
            assert_eq!((rep.pushed, rep.pulled), (args.frames, args.frames), "client {id}");
            assert_eq!(rep.by_gateway.values().sum::<usize>(), args.frames, "client {id}");
        }
        let by_gateway = &sum.total.by_gateway;
        assert_eq!(by_gateway.values().sum::<usize>(), args.clients * args.frames);
        control_pass(args, &sum).expect("control pass");
        let path = args.json.as_ref().expect("json path");
        let report = std::fs::read_to_string(path).expect("report written");
        std::fs::remove_file(path).expect("report removed");
        (sum, report)
    }

    #[test]
    fn a_lone_gateway_is_a_fleet_of_one() {
        let gw = gateway();
        let server = serve(&gw);
        let addr = server.local_addr().to_string();
        let args = Args {
            addr: addr.clone(),
            frames: 24,
            rows_per_push: 4,
            shutdown: true,
            json: Some(report_path("single")),
            ..Args::default()
        };
        let (sum, report) = run_to_report(&args);
        server.join();
        assert_eq!(sum.total.by_gateway.keys().collect::<Vec<_>>(), [&addr]);
        assert!(report.contains("\"mode\": \"single\""), "{report}");
        assert_eq!(report.matches("\"metrics_text\"").count(), 1, "{report}");
        assert!(!report.contains("\"fleet\""), "{report}");
        assert_eq!(gw.stats().frames_out, 48);
    }

    #[test]
    fn a_fleet_returns_every_row_from_where_it_landed() {
        let directory = Arc::new(
            Directory::new(
                DirectoryConfig { heartbeat_timeout: Duration::from_secs(30), auth_secret: None },
                Clock::real(),
            )
            .expect("directory"),
        );
        let dir_server =
            TcpServer::spawn_service(directory as Arc<dyn orco_serve::Service>, "127.0.0.1:0")
                .expect("directory binds");
        let directory_addr = dir_server.local_addr().to_string();
        let mut running = Vec::new();
        for id in 1..=2 {
            let gw = gateway();
            let server = serve(&gw);
            let agent = GatewayAgent::spawn(
                gw,
                AgentConfig {
                    gateway_id: id,
                    advertise_addr: server.local_addr().to_string(),
                    directory_addr: directory_addr.clone(),
                    auth_secret: None,
                    heartbeat_interval: Duration::from_millis(50),
                },
            )
            .expect("agent registers");
            running.push((server, agent));
        }
        let args = Args {
            fleet: Some(directory_addr),
            clients: 3,
            frames: 24,
            rows_per_push: 4,
            shutdown: true,
            json: Some(report_path("fleet")),
            ..Args::default()
        };
        let (_, report) = run_to_report(&args);
        for (server, agent) in running {
            server.join();
            agent.join();
        }
        dir_server.join();
        assert!(report.contains("\"mode\": \"fleet\""), "{report}");
        assert_eq!(report.matches("\"metrics_text\"").count(), 2, "{report}");
        assert!(report.contains("\"fleet\": {\"epoch\": 2"), "{report}");
    }

    #[test]
    fn a_fleet_member_dialed_without_fleet_names_the_flag() {
        let gw = gateway();
        let elsewhere = GatewayEntry { id: 2, addr: "127.0.0.1:1".into() };
        gw.set_fleet_view(Some(FleetView::new(Some(1), 1, vec![elsewhere])));
        let server = serve(&gw);
        let args = Args { addr: server.local_addr().to_string(), clients: 1, ..Args::default() };
        let err = run_clients(&args).err().expect("a redirect fails the client");
        assert!(err.to_string().contains("use --fleet <directory_addr>"), "{err}");
        let mut control = Client::connect(&Tcp::new(args.addr.clone())).expect("connects");
        control.shutdown().expect("shutdown accepted");
        server.join();
    }
}
