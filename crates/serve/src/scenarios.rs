//! The chaos gauntlet: scripted adversarial runs of the serving layer
//! over the [`DesNet`] impaired-link transport, with a
//! record→replay layer that reproduces any failing run bit-identically
//! from its log — and the **harness** every layer's scenarios run on.
//!
//! ## The harness
//!
//! A scenario is a *cast*, its *triggers*, and its *contracts*:
//!
//! * the **cast** is the set of simulated actors behind the run's
//!   connections. It implements [`Cast`], and [`play`] drives it: the one
//!   event loop (reply / ARQ give-up / timer routing, the event cap, the
//!   drained-queue liveness error). [`Roles`] is the dense
//!   connection → role table a cast routes with, reconnects included;
//! * the **triggers** are what the scenario does to the run — an
//!   impairment script on the links, a kill at a progress mark;
//! * the **contracts** are checked once the cast is done, against one
//!   shared vocabulary: [`reference_decode`] (a direct `encode_batch` +
//!   `decode_batch` the pulled bytes must equal), [`exactly_once`],
//!   [`check_drained`], [`stats_frame`], [`row_digest`].
//!
//! A body returns `Result<Outcome, String>`; [`Run::on`] runs it on a
//! net armed for the run (live, or replaying its tape) and stamps the
//! run's identity, sizing and tape onto either arm, so a failed contract
//! is one `return Err(format!(..))`.
//!
//! ## The registry
//!
//! A [`Scenario`] row is a name and the body that runs it. Each layer
//! exports only its rows: [`SCENARIOS`] here, the five on the serve cast;
//! `orco_fleet::scenarios::SCENARIOS`, `fleet_kill` on the fleet cast that
//! `rollout_storm` shares. `orco_rollout::SCENARIOS` is the seven-row
//! gauntlet, and `orco_rollout` is the one place a name is looked up.
//!
//! The serve cast's client (push the whole stream, drain on `Busy`, then
//! pull it all back) stays separate from the fleet cast's window-by-window
//! `ClientActor`. Every `net.submit` draws one verdict onto the tape, so an
//! actor's send order *is* what its tapes record: one actor for both casts
//! would re-pin the five serve tapes, which `tests/gauntlet_golden.rs`
//! forbids.
//!
//! ## The serve scenarios
//!
//! Each scenario in [`SCENARIOS`] passes only if the serving layer's
//! liveness and exactly-once contracts hold under fire:
//!
//! * every `PushAck`'d frame is eventually pulled back **exactly once**
//!   (no loss to deadline starvation, no duplication from ARQ
//!   retransmits);
//! * the decoded bytes are **bit-identical** to a direct
//!   `encode_batch`/`decode_batch` on the same codec — impairments must
//!   not perturb the data plane;
//! * the run terminates (no event-queue deadlock, no unbounded retry
//!   storm) and the gateway ends drained: zero queue depth, zero stored
//!   codes;
//! * flush latency stays bounded: p99 within the batch deadline plus the
//!   ARQ's RTO ceiling.
//!
//! | scenario | impairment | classic bug it flushes out |
//! |---|---|---|
//! | `flash_crowd` | tiny queue capacity, every client pushes at once | retry storms; lockstep `Busy` retries that never drain |
//! | `rolling_partition` | each client's links cut in staggered windows | requests stranded by a partition the ARQ should outlast |
//! | `lossy_links` | 15% loss + jitter on every link | duplicate execution of retransmitted pushes; reorder bugs |
//! | `straggler_shard` | slow windows on every client of one shard | deadline starvation on idle shards; head-of-line blocking |
//! | `mass_reconnect` | long partition + small attempt cap | frames lost (or doubled) across connection death |
//!
//! ## Record → replay
//!
//! Every run logs its seed and the full per-send impairment schedule
//! ([`RunLog`]); [`Run::replay`] re-runs the scenario consuming the
//! recorded verdicts instead of drawing randomness, reproducing the run —
//! the whole [`Outcome`] — bit for bit. A failing run in CI uploads its
//! log; `chaos --replay <file>` resurrects it locally.

use std::sync::Arc;
use std::time::Duration;

use orco_sim::{NetScenario, SendRecord, SendVerdict};
use orco_tensor::{fnv1a64, Matrix, OrcoRng};
use orcodcs::{AsymmetricAutoencoder, Codec, GradCompression, OrcoConfig};

use crate::backoff::Backoff;
use crate::clock::Clock;
use crate::des_transport::{DesConfig, DesNet, NetEvent};
use crate::gateway::{Gateway, GatewayConfig};
use crate::protocol::Message;
use crate::stats::StatsSnapshot;

/// One named scenario of the gauntlet.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// The name a run, a tape and the `chaos` CLI know it by.
    pub name: &'static str,
    /// Runs it: live or from a tape, as the [`Run`] says.
    pub run: fn(&Run) -> Result<Outcome, ScenarioError>,
}

/// This layer's rows of the gauntlet, in gauntlet order.
pub const SCENARIOS: [Scenario; 5] = [
    Scenario { name: "flash_crowd", run: |run| run_crowd(run, flash_crowd) },
    Scenario { name: "rolling_partition", run: |run| run_crowd(run, rolling_partition) },
    Scenario { name: "lossy_links", run: |run| run_crowd(run, lossy_links) },
    Scenario { name: "straggler_shard", run: |run| run_crowd(run, straggler_shard) },
    Scenario { name: "mass_reconnect", run: |run| run_crowd(run, mass_reconnect) },
];

/// What a completed scenario run measured — one shape for every layer's
/// scenarios. A counter a scenario's cast has no notion of stays 0.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// Scenario name.
    pub name: String,
    /// Seed the impairment randomness was drawn from.
    pub seed: u64,
    /// Whether the run used quick sizing.
    pub quick: bool,
    /// Client actors driven.
    pub clients: usize,
    /// Frames each client pushed (and pulled back).
    pub frames_per_client: usize,
    /// Rows the gateway `PushAck`'d across all clients (serve cast; a
    /// fleet client rewinds its ack count when its owner dies, so the
    /// fleet casts report `delivered_rows` alone).
    pub acked_rows: usize,
    /// Decoded rows delivered back across all clients (must equal
    /// `clients * frames_per_client`: exactly once).
    pub delivered_rows: usize,
    /// `Busy` replies honored with a backed-off drain-and-retry.
    pub busy_retries: usize,
    /// Requests whose ARQ exhausted its attempts.
    pub gave_ups: usize,
    /// Data connections re-opened (same-endpoint resume or failover).
    pub reconnects: usize,
    /// `Redirect` replies chased by clients.
    pub redirects: usize,
    /// The directory's epoch when the run settled.
    pub final_epoch: u64,
    /// Delivered rows encoded by the boot model (version 0), where the
    /// scenario rolls a model out.
    pub v0_rows: usize,
    /// Delivered rows encoded by the rolled-out model (version 1).
    pub v1_rows: usize,
    /// Drift-monitor trips summed over the surviving gateways.
    pub drift_trips: u64,
    /// Encoded `StatsReply` of every *surviving* gateway, ascending id —
    /// the determinism contract is on the wire image.
    pub stats_frames: Vec<Vec<u8>>,
    /// FNV-1a over every delivered row's little-endian bytes (and, where
    /// the scenario rolls a model out, its producing version), client
    /// order — one u64 that pins the entire decoded output.
    pub decoded_fnv: u64,
    /// The gateways' trace-ring text exports at the end of the run
    /// (several gateways: ascending id, each section prefixed
    /// `gateway <id>`) — byte-identical between a live run and its replay.
    pub trace_export: String,
    /// The impairment schedule the run drew (replay tape).
    pub trace: Vec<SendRecord>,
}

impl Outcome {
    /// The run's replayable record.
    #[must_use]
    pub fn tape(&self) -> RunLog {
        RunLog {
            name: self.name.clone(),
            seed: self.seed,
            quick: self.quick,
            trace: self.trace.clone(),
        }
    }
}

/// A scenario run that violated a liveness or exactly-once contract. The
/// embedded [`RunLog`] replays it deterministically.
#[derive(Debug, Clone)]
pub struct ScenarioError {
    /// What went wrong.
    pub detail: String,
    /// Seed + impairment schedule: everything needed to reproduce.
    pub log: RunLog,
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "scenario {} (seed {}): {}", self.log.name, self.log.seed, self.detail)
    }
}

impl std::error::Error for ScenarioError {}

/// The replayable record of one scenario run: its identity plus the full
/// per-send impairment schedule. Serializes to a line-oriented text
/// format (f64 delays as IEEE-754 bit patterns, so the round trip is
/// exact).
#[derive(Debug, Clone, PartialEq)]
pub struct RunLog {
    /// Scenario name.
    pub name: String,
    /// Seed of the run.
    pub seed: u64,
    /// Whether the run used quick sizing.
    pub quick: bool,
    /// The impairment verdict of every send, in send order.
    pub trace: Vec<SendRecord>,
}

impl RunLog {
    /// Serializes the log; [`RunLog::from_text`] inverts exactly.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("orco-chaos-run v1\n");
        out.push_str(&format!("name {}\n", self.name));
        out.push_str(&format!("seed {}\n", self.seed));
        out.push_str(&format!("quick {}\n", self.quick));
        out.push_str(&format!("sends {}\n", self.trace.len()));
        for rec in &self.trace {
            match rec.verdict {
                SendVerdict::Delivered { delay_s } => {
                    out.push_str(&format!("{} delivered {:016x}\n", rec.link, delay_s.to_bits()));
                }
                SendVerdict::Lost => out.push_str(&format!("{} lost\n", rec.link)),
                SendVerdict::Partitioned => out.push_str(&format!("{} partitioned\n", rec.link)),
            }
        }
        out
    }

    /// Parses a log serialized by [`RunLog::to_text`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn from_text(text: &str) -> Result<RunLog, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty log")?;
        if header != "orco-chaos-run v1" {
            return Err(format!("unknown log header {header:?}"));
        }
        let mut field = |key: &str| -> Result<String, String> {
            let line = lines.next().ok_or_else(|| format!("missing field {key}"))?;
            line.strip_prefix(key)
                .and_then(|rest| rest.strip_prefix(' '))
                .map(str::to_owned)
                .ok_or_else(|| format!("expected `{key} ...`, got {line:?}"))
        };
        let name = field("name")?;
        let seed = field("seed")?.parse::<u64>().map_err(|e| format!("bad seed: {e}"))?;
        let quick = field("quick")?.parse::<bool>().map_err(|e| format!("bad quick: {e}"))?;
        let sends = field("sends")?.parse::<usize>().map_err(|e| format!("bad sends: {e}"))?;
        let mut trace = Vec::with_capacity(sends);
        for line in lines {
            let mut parts = line.split(' ');
            let link = parts
                .next()
                .and_then(|s| s.parse::<u32>().ok())
                .ok_or_else(|| format!("bad trace line {line:?}"))?;
            let verdict = match (parts.next(), parts.next()) {
                (Some("delivered"), Some(bits)) => {
                    let bits = u64::from_str_radix(bits, 16)
                        .map_err(|e| format!("bad delay bits in {line:?}: {e}"))?;
                    SendVerdict::Delivered { delay_s: f64::from_bits(bits) }
                }
                (Some("lost"), None) => SendVerdict::Lost,
                (Some("partitioned"), None) => SendVerdict::Partitioned,
                _ => return Err(format!("bad trace line {line:?}")),
            };
            trace.push(SendRecord { link, verdict });
        }
        if trace.len() != sends {
            return Err(format!("log promises {sends} sends, carries {}", trace.len()));
        }
        Ok(RunLog { name, seed, quick, trace })
    }
}

/// One run's identity and, on replay, the tape it consumes — what every
/// [`Scenario`] body takes.
#[derive(Debug, Clone)]
pub struct Run {
    /// Scenario name.
    pub name: String,
    /// Seed of the run.
    pub seed: u64,
    /// Whether the run uses quick sizing.
    pub quick: bool,
    tape: Option<Vec<SendRecord>>,
}

impl Run {
    /// A live run: impairments are drawn from `seed`.
    #[must_use]
    pub fn live(name: &str, seed: u64, quick: bool) -> Run {
        Run { name: name.to_string(), seed, quick, tape: None }
    }

    /// A replay of `log`: every send consumes its recorded verdict.
    #[must_use]
    pub fn replay(log: &RunLog) -> Run {
        Run { tape: Some(log.trace.clone()), ..Run::live(&log.name, log.seed, log.quick) }
    }

    /// The error of a run that broke a contract after drawing `trace`.
    #[must_use]
    pub fn fail(&self, detail: String, trace: Vec<SendRecord>) -> ScenarioError {
        let log = RunLog { name: self.name.clone(), seed: self.seed, quick: self.quick, trace };
        ScenarioError { detail, log }
    }

    /// Runs a scenario body on `net` — switched into replay mode first when
    /// this run carries a tape — and stamps this run's identity, its sizing
    /// and the tape `net` recorded onto the body's verdict.
    ///
    /// # Errors
    ///
    /// The body's `Err(detail)`, as a [`ScenarioError`] carrying the tape.
    pub fn on(
        &self,
        net: DesNet,
        body: impl FnOnce(&DesNet) -> Result<Outcome, String>,
    ) -> Result<Outcome, ScenarioError> {
        if let Some(tape) = &self.tape {
            net.begin_replay(tape.clone());
        }
        match body(&net) {
            Ok(o) => {
                let (name, seed, quick) = (self.name.clone(), self.seed, self.quick);
                Ok(Outcome { name, seed, quick, trace: net.trace(), ..o })
            }
            Err(detail) => Err(self.fail(detail, net.trace())),
        }
    }
}

// ---- The harness: loop, routing, shared contracts --------------------

/// Rows per `PushFrames` window.
pub const ROWS_PER_PUSH: usize = 3;
/// `max_frames` of every `PullDecoded`.
pub(crate) const PULL_CHUNK: u32 = 8;

/// Dense `connection id → role` routing. [`DesNet`] hands out connection
/// ids in order, so the table is a `Vec` and every new connection —
/// first dial, same-endpoint resume, failover — must be bound as it is
/// opened.
#[derive(Debug, Default)]
pub struct Roles<R>(Vec<R>);

impl<R: Copy> Roles<R> {
    /// An empty table, for a fresh [`DesNet`].
    #[must_use]
    pub fn new() -> Self {
        Roles(Vec::new())
    }

    /// Routes the just-opened `conn` to `role`.
    ///
    /// # Panics
    ///
    /// Panics if some earlier connection was never bound.
    pub fn bind(&mut self, conn: usize, role: R) {
        assert_eq!(conn, self.0.len(), "connection ids must stay dense");
        self.0.push(role);
    }

    /// The role `conn` was bound to.
    #[must_use]
    pub fn of(&self, conn: usize) -> R {
        self.0[conn]
    }

    /// Resumes `conn`'s session on fresh links to the same endpoint
    /// (`DesNet::reconnect`: an outstanding request rides over and is
    /// re-offered), the replacement inheriting the role. Returns the new
    /// connection id.
    pub fn reconnect(&mut self, net: &DesNet, conn: usize) -> usize {
        let new = net.reconnect(conn);
        self.bind(new, self.of(conn));
        new
    }
}

/// The actors of one scenario, as [`play`] sees them.
pub trait Cast {
    /// Whether every actor has finished its script.
    fn done(&self) -> bool;
    /// Who has not, for the liveness diagnostics (e.g. `clients [1, 4]`).
    fn unfinished(&self) -> String;
    /// The reply to request `seq` arrived on `conn`.
    ///
    /// # Errors
    ///
    /// A contract violation, as its description.
    fn on_reply(
        &mut self,
        net: &DesNet,
        conn: usize,
        seq: u64,
        reply: Message,
    ) -> Result<(), String>;
    /// The request in flight on `conn` exhausted its ARQ attempts.
    fn on_gave_up(&mut self, net: &DesNet, conn: usize);
    /// A timer scheduled with [`DesNet::schedule_wakeup`] fired.
    fn on_wakeup(&mut self, net: &DesNet, token: u64);
}

/// Runs the simulation until `cast` is done, routing every client-visible
/// event to it.
///
/// # Errors
///
/// The cast's first contract violation, or a liveness failure: the event
/// cap reached (a retry storm), or the event queue drained with actors
/// unfinished (a lost request or timer).
pub fn play(net: &DesNet, cast: &mut impl Cast) -> Result<(), String> {
    const EVENT_CAP: u64 = 5_000_000;
    let mut events = 0u64;
    while !cast.done() {
        events += 1;
        if events > EVENT_CAP {
            return Err(format!(
                "no convergence after {EVENT_CAP} events: {} unfinished (retry storm or livelock)",
                cast.unfinished()
            ));
        }
        match net.poll() {
            NetEvent::Reply { conn, seq } => {
                let reply = net.take_reply(conn, seq).expect("announced reply present");
                cast.on_reply(net, conn, seq, reply)?;
            }
            NetEvent::GaveUp { conn, seq: _ } => cast.on_gave_up(net, conn),
            NetEvent::Wakeup { token } => cast.on_wakeup(net, token),
            NetEvent::Idle => {
                return Err(format!(
                    "event queue drained with {} unfinished — a request or timer was lost \
                     (liveness violation)",
                    cast.unfinished()
                ));
            }
        }
    }
    Ok(())
}

/// A small, fast codec geometry — the gauntlet stresses the serving
/// layer, membership and the version lifecycle, not the autoencoder.
#[must_use]
pub fn codec_config(seed: u64) -> OrcoConfig {
    OrcoConfig {
        input_dim: 32,
        latent_dim: 8,
        decoder_layers: 1,
        noise_variance: 0.1,
        huber_delta: 0.5,
        vector_huber: false,
        learning_rate: 1e-2,
        batch_size: 32,
        epochs: 1,
        grad_compression: GradCompression::default(),
        seed,
    }
}

/// The gauntlet gateway's sizing; scenarios override what they stress.
#[must_use]
pub fn gateway_config() -> GatewayConfig {
    GatewayConfig {
        shards: 2,
        batch_max_frames: 8,
        batch_deadline: Duration::from_millis(5),
        // Large enough that no gauntlet run evicts a span: the trace
        // contracts demand the ring saw everything.
        trace_capacity: 1 << 16,
        ..GatewayConfig::default()
    }
}

/// A gateway on a virtual clock whose every shard runs the autoencoder
/// `codec` describes — every gauntlet gateway builds the same codec from
/// the same config, which is what makes failover bit-transparent.
///
/// # Panics
///
/// Panics on an invalid `cfg` or `codec`.
#[must_use]
pub fn gateway(cfg: GatewayConfig, codec: &OrcoConfig) -> Arc<Gateway> {
    let gateway = Gateway::new(cfg, Clock::manual(Duration::ZERO), |_| {
        Box::new(AsymmetricAutoencoder::new(codec).expect("valid codec config")) as Box<dyn Codec>
    });
    Arc::new(gateway.expect("valid gateway config"))
}

/// Client `i`'s jittered retry backoff, seeded from the run.
#[must_use]
pub fn client_backoff(seed: u64, i: usize) -> Backoff {
    Backoff::new(
        Duration::from_millis(2),
        Duration::from_millis(64),
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i as u64,
    )
}

/// A `rows × dim` stream of uniform `[0, 1)` frames drawn from `seed`.
#[must_use]
pub fn uniform_frames(seed: u64, rows: usize, dim: usize) -> Matrix {
    let mut rng = OrcoRng::from_seed_u64(seed);
    Matrix::from_fn(rows, dim, |_, _| rng.uniform(0.0, 1.0))
}

/// The push of `frames[lo..hi]` for `cluster`. One trace id per window,
/// stable across `Busy` retries and failover re-pushes (a refused push
/// emits no spans, so a retry cannot double-count the trace); clusters
/// are small, so the id stays unique and nonzero across clients.
#[must_use]
pub fn push_window(cluster: u64, frames: &Matrix, lo: usize, hi: usize) -> Message {
    Message::PushFrames {
        cluster_id: cluster,
        trace: (cluster << 20) | (lo as u64 + 1),
        frames: frames.view_rows(lo..hi).to_matrix(),
    }
}

/// The pull of `cluster`'s next `PULL_CHUNK` reconstructions.
#[must_use]
pub fn pull_chunk(cluster: u64) -> Message {
    Message::PullDecoded { cluster_id: cluster, max_frames: PULL_CHUNK, trace: 0 }
}

/// One direct `encode_batch` + `decode_batch` of `frames` on `codec` —
/// what a client's pulled rows must equal bit for bit (the batch ≡
/// per-frame contract makes the reference independent of how the
/// gateways batched them, or which gateway served which window).
///
/// # Panics
///
/// Panics if `frames` does not fit the codec's geometry.
#[must_use]
pub fn reference_decode(codec: &mut dyn Codec, frames: &Matrix) -> Matrix {
    let mut codes = Matrix::zeros(0, 0);
    let mut recon = Matrix::zeros(0, 0);
    codec.encode_batch(frames.as_view(), &mut codes).expect("geometry fits");
    codec.decode_batch(codes.as_view(), &mut recon).expect("geometry fits");
    recon
}

/// The exactly-once contract: `delivered` rows came back for `expected`
/// `what` (e.g. `acked`, `pushed across the kill`).
///
/// # Errors
///
/// Names the direction of the mismatch: frames lost, or duplicated.
pub fn exactly_once(delivered: usize, expected: usize, what: &str) -> Result<(), String> {
    if delivered == expected {
        return Ok(());
    }
    Err(format!(
        "delivered {delivered} rows for {expected} {what} — {} (exactly-once violated)",
        if delivered < expected { "frames lost" } else { "frames duplicated" }
    ))
}

/// The drained contract: `who` ends with zero queue depth and zero
/// stored codes.
///
/// # Errors
///
/// Reports the leftover depth and codes.
pub fn check_drained(who: &str, snap: &StatsSnapshot) -> Result<(), String> {
    if snap.queue_depth == 0 && snap.stored_codes == 0 {
        return Ok(());
    }
    Err(format!(
        "{who} not drained: queue_depth {} stored_codes {}",
        snap.queue_depth, snap.stored_codes
    ))
}

/// `snap` as an encoded `StatsReply` — the determinism contract is on the
/// wire image.
#[must_use]
pub fn stats_frame(snap: StatsSnapshot) -> Vec<u8> {
    let mut frame = Vec::new();
    Message::StatsReply(snap).encode_into(&mut frame);
    frame
}

/// FNV-1a over delivered rows' little-endian bytes, one `(rows, versions)`
/// stream per client in client order. With a version tape, each
/// `row_len`-value row is prefixed by its producing version, so the digest
/// pins the decoded output and the tape together.
#[must_use]
pub fn row_digest<'a>(
    streams: impl Iterator<Item = (&'a [f32], Option<&'a [u64]>)>,
    row_len: usize,
) -> u64 {
    let mut bytes = Vec::new();
    for (rows, versions) in streams {
        for (r, row) in rows.chunks(row_len).enumerate() {
            if let Some(versions) = versions {
                bytes.extend_from_slice(&versions[r].to_le_bytes());
            }
            for v in row {
                bytes.extend_from_slice(&v.to_le_bytes());
            }
        }
    }
    fnv1a64(&bytes)
}

// ---- The serve scenarios ----------------------------------------------

/// Per-scenario knobs; everything else is shared.
struct Spec {
    clients: usize,
    frames_per_client: usize,
    queue_capacity: usize,
    des: DesConfig,
    /// Builds the impairment script once links exist. Receives the net
    /// (for link ids), the gateway (for shard ids) and the actors' conns +
    /// clusters.
    script: fn(&DesNet, &Gateway, &[(usize, u64)]) -> NetScenario,
}

/// Runs one serve scenario: `spec` at the run's sizing (`quick` shrinks
/// the population; the impairment windows are the same either way), the
/// crowd cast against one gateway.
fn run_crowd(run: &Run, spec: fn(usize, DesConfig) -> Spec) -> Result<Outcome, ScenarioError> {
    let scale = if run.quick { 1 } else { 4 };
    let base = DesConfig {
        rto: Duration::from_millis(10),
        rto_cap: Duration::from_millis(160),
        max_attempts: 8,
        ..DesConfig::default()
    };
    let spec = spec(scale, base);
    let codec = codec_config(11);
    let gateway =
        gateway(GatewayConfig { queue_capacity: spec.queue_capacity, ..gateway_config() }, &codec);
    let net = DesNet::new(Arc::clone(&gateway), spec.des, run.seed);
    run.on(net, |net| crowd(run.seed, &spec, &codec, &gateway, net))
}

/// Every client pushes into a deliberately tiny budget: Busy storms that
/// must drain via backed-off pulls, not spin.
fn flash_crowd(scale: usize, base: DesConfig) -> Spec {
    Spec {
        clients: 6,
        frames_per_client: 18 * scale,
        queue_capacity: 16,
        des: DesConfig {
            link: orco_sim::LinkParams { delay_s: 0.0005, jitter_s: 0.0, loss_prob: 0.0 },
            ..base
        },
        script: |_, _, _| NetScenario::new(),
    }
}

/// Staggered cuts: client i loses both directions for 200 ms, windows
/// marching across the population. The ARQ must outlast each window
/// (8 attempts of doubled-and-capped RTOs ~ 900 ms of patience).
fn rolling_partition(scale: usize, base: DesConfig) -> Spec {
    Spec {
        clients: 4,
        frames_per_client: 12 * scale,
        queue_capacity: 4096,
        des: DesConfig {
            link: orco_sim::LinkParams { delay_s: 0.005, jitter_s: 0.0, loss_prob: 0.0 },
            rto: Duration::from_millis(20),
            ..base
        },
        script: |net, _, actors| {
            let mut s = NetScenario::new();
            for (i, &(conn, _)) in actors.iter().enumerate() {
                let w = 0.01 + 0.02 * i as f64..0.21 + 0.02 * i as f64;
                s = s.partition(net.uplink(conn), w.clone()).partition(net.downlink(conn), w);
            }
            s
        },
    }
}

/// Steady 15% loss with jitter wide enough to reorder: the dedup layer
/// must absorb retransmit duplicates and stragglers.
fn lossy_links(scale: usize, base: DesConfig) -> Spec {
    Spec {
        clients: 4,
        frames_per_client: 12 * scale,
        queue_capacity: 4096,
        des: DesConfig {
            link: orco_sim::LinkParams { delay_s: 0.002, jitter_s: 0.004, loss_prob: 0.15 },
            ..base
        },
        script: |_, _, _| NetScenario::new(),
    }
}

/// Every client of shard 0 goes slow for 400 ms: the other shard's
/// traffic must still sweep shard 0's deadline flushes (the starvation
/// bugfix), and nothing head-of-line blocks.
fn straggler_shard(scale: usize, base: DesConfig) -> Spec {
    Spec {
        clients: 4,
        frames_per_client: 12 * scale,
        queue_capacity: 4096,
        des: DesConfig {
            link: orco_sim::LinkParams { delay_s: 0.001, jitter_s: 0.0, loss_prob: 0.0 },
            ..base
        },
        script: |net, gateway, actors| {
            // Straggle the shard that serves the first client, so at
            // least one shard always plays the role.
            let straggler = gateway.shard_of(actors[0].1);
            let mut s = NetScenario::new();
            for &(conn, cluster) in actors {
                if gateway.shard_of(cluster) == straggler {
                    s = s.slow(net.uplink(conn), 0.005..0.35, 0.060, 0.0).slow(
                        net.downlink(conn),
                        0.005..0.35,
                        0.060,
                        0.0,
                    );
                }
            }
            s
        },
    }
}

/// A partition longer than a 3-attempt ARQ can outlast: every in-flight
/// request gives up, every client reconnects, and the resumed sessions
/// must still deliver exactly once.
fn mass_reconnect(scale: usize, base: DesConfig) -> Spec {
    Spec {
        clients: 4,
        frames_per_client: 10 * scale,
        queue_capacity: 4096,
        des: DesConfig {
            link: orco_sim::LinkParams { delay_s: 0.002, jitter_s: 0.0, loss_prob: 0.0 },
            max_attempts: 3,
            ..base
        },
        script: |net, _, actors| {
            let mut s = NetScenario::new();
            for &(conn, _) in actors {
                s = s
                    .partition(net.uplink(conn), 0.01..0.5)
                    .partition(net.downlink(conn), 0.01..0.5);
            }
            s
        },
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Waiting for `HelloAck`.
    Greet,
    /// Pushing frames (drain-and-retry on `Busy`).
    Stream,
    /// Pulling until every acked row is back.
    Drain,
    Done,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pending {
    Hello,
    Push {
        lo: usize,
        hi: usize,
    },
    /// `retry_push` resumes a `Busy` push after the drain completes.
    Pull {
        retry_push: bool,
    },
}

/// The serve cast's client: greet, push the whole stream (draining a
/// chunk whenever the gateway says `Busy`), then pull everything back.
/// Why it is not the fleet cast's client: see the module doc.
struct Actor {
    conn: usize,
    cluster: u64,
    frames: Matrix,
    /// Next frame row to offer.
    offset: usize,
    acked: usize,
    pulled: Vec<f32>,
    pulled_rows: usize,
    phase: Phase,
    /// The in-flight request (stop-and-wait: at most one).
    pending: Option<(u64, Pending)>,
    /// A push deferred behind a backoff wakeup.
    deferred_push: Option<(usize, usize)>,
    backoff: Backoff,
    busy_retries: usize,
    gave_ups: usize,
    reconnects: usize,
}

impl Actor {
    fn push(&mut self, net: &DesNet, lo: usize, hi: usize) {
        let seq = net.submit(self.conn, &push_window(self.cluster, &self.frames, lo, hi));
        self.pending = Some((seq, Pending::Push { lo, hi }));
    }

    fn push_next_window(&mut self, net: &DesNet) {
        self.push(net, self.offset, (self.offset + ROWS_PER_PUSH).min(self.frames.rows()));
    }

    fn pull(&mut self, net: &DesNet, retry_push: bool) {
        let seq = net.submit(self.conn, &pull_chunk(self.cluster));
        self.pending = Some((seq, Pending::Pull { retry_push }));
    }

    /// Advances the state machine on a reply. Returns a contract
    /// violation as `Err(detail)`.
    fn on_reply(
        &mut self,
        net: &DesNet,
        ai: usize,
        kind: Pending,
        reply: Message,
    ) -> Result<(), String> {
        match (kind, reply) {
            (Pending::Hello, Message::HelloAck { .. }) => {
                self.phase = Phase::Stream;
                self.push_next_window(net);
                Ok(())
            }
            (Pending::Push { lo, hi }, Message::PushAck { accepted }) => {
                if accepted as usize != hi - lo {
                    return Err(format!(
                        "actor {ai}: partial ack {accepted} for a {}-row push",
                        hi - lo
                    ));
                }
                self.offset = hi;
                self.acked += accepted as usize;
                self.backoff.reset();
                if self.offset < self.frames.rows() {
                    self.push_next_window(net);
                } else {
                    self.phase = Phase::Drain;
                    self.pull(net, false);
                }
                Ok(())
            }
            (Pending::Push { lo, hi }, Message::Busy { .. }) => {
                // Backpressure: drain a chunk first (pulls are what free the
                // budget), then retry the same push after a backed-off wait.
                self.busy_retries += 1;
                self.deferred_push = Some((lo, hi));
                self.pull(net, true);
                Ok(())
            }
            (Pending::Pull { retry_push }, Message::Decoded { cluster_id, frames, .. }) => {
                if cluster_id != self.cluster {
                    return Err(format!(
                        "actor {ai}: pulled cluster {} got cluster {cluster_id}",
                        self.cluster
                    ));
                }
                self.pulled.extend_from_slice(frames.as_slice());
                self.pulled_rows += frames.rows();
                if self.pulled_rows > self.frames.rows() {
                    return Err(format!(
                        "actor {ai}: pulled {} rows for a {}-frame stream (duplication)",
                        self.pulled_rows,
                        self.frames.rows()
                    ));
                }
                if retry_push {
                    // Resume the Busy push after a jittered backoff.
                    net.schedule_wakeup(self.backoff.next_delay(), ai as u64);
                } else if self.phase == Phase::Drain {
                    if self.pulled_rows == self.acked && self.offset == self.frames.rows() {
                        self.phase = Phase::Done;
                    } else if frames.rows() > 0 {
                        self.backoff.reset();
                        self.pull(net, false);
                    } else {
                        // Nothing stored yet (batch still pending a deadline
                        // flush): poll again after a backoff.
                        net.schedule_wakeup(self.backoff.next_delay(), ai as u64);
                    }
                }
                Ok(())
            }
            (kind, Message::ErrorReply { code, detail }) => {
                Err(format!("actor {ai}: {kind:?} drew {code:?}: {detail}"))
            }
            (kind, other) => Err(format!("actor {ai}: {kind:?} drew unexpected {}", other.kind())),
        }
    }
}

/// The serve cast: one [`Actor`] per client, routed by actor index.
struct Crowd {
    actors: Vec<Actor>,
    roles: Roles<usize>,
}

impl Cast for Crowd {
    fn done(&self) -> bool {
        self.actors.iter().all(|a| a.phase == Phase::Done)
    }

    fn unfinished(&self) -> String {
        let stuck: Vec<usize> =
            (0..self.actors.len()).filter(|&i| self.actors[i].phase != Phase::Done).collect();
        format!("actors {stuck:?}")
    }

    fn on_reply(
        &mut self,
        net: &DesNet,
        conn: usize,
        seq: u64,
        reply: Message,
    ) -> Result<(), String> {
        let ai = self.roles.of(conn);
        let a = &mut self.actors[ai];
        let Some((want, kind)) = a.pending.take() else {
            return Err(format!("actor {ai} got reply seq {seq} with nothing pending"));
        };
        if want != seq {
            return Err(format!("actor {ai} expected reply seq {want}, got {seq}"));
        }
        a.on_reply(net, ai, kind, reply)
    }

    fn on_gave_up(&mut self, net: &DesNet, conn: usize) {
        let a = &mut self.actors[self.roles.of(conn)];
        a.gave_ups += 1;
        a.reconnects += 1;
        // Session resumption: the outstanding request rides over to the
        // fresh links automatically.
        a.conn = self.roles.reconnect(net, conn);
    }

    fn on_wakeup(&mut self, net: &DesNet, token: u64) {
        let a = &mut self.actors[token as usize];
        if let Some((lo, hi)) = a.deferred_push.take() {
            a.push(net, lo, hi);
        } else if a.phase == Phase::Drain && a.pending.is_none() {
            a.pull(net, false);
        }
    }
}

/// The body of every serve scenario: cast the crowd, script the links,
/// play, check the contracts.
fn crowd(
    seed: u64,
    spec: &Spec,
    codec: &OrcoConfig,
    gateway: &Gateway,
    net: &DesNet,
) -> Result<Outcome, String> {
    // Deterministic per-actor frame streams and backoff seeds.
    let dims = gateway.frame_dims();
    let mut roles = Roles::new();
    let actors: Vec<Actor> = (0..spec.clients)
        .map(|i| {
            let conn = net.connect();
            roles.bind(conn, i);
            Actor {
                conn,
                cluster: 100 + i as u64,
                frames: uniform_frames(
                    seed ^ (0xACE0 + i as u64),
                    spec.frames_per_client,
                    dims.input,
                ),
                offset: 0,
                acked: 0,
                pulled: Vec::new(),
                pulled_rows: 0,
                phase: Phase::Greet,
                pending: None,
                deferred_push: None,
                backoff: client_backoff(seed, i),
                busy_retries: 0,
                gave_ups: 0,
                reconnects: 0,
            }
        })
        .collect();
    let mut cast = Crowd { actors, roles };

    let actors: Vec<_> = cast.actors.iter().map(|a| (a.conn, a.cluster)).collect();
    let script = (spec.script)(net, gateway, &actors);
    net.script(&script);

    // Kick off: every actor greets (unkeyed — the gauntlet gateway runs
    // without an auth secret).
    for a in &mut cast.actors {
        let seq = net.submit(a.conn, &Message::Hello { client_id: a.cluster, nonce: 0, mac: 0 });
        a.pending = Some((seq, Pending::Hello));
    }
    play(net, &mut cast)?;
    let actors = cast.actors;

    // ---- Contracts ----------------------------------------------------
    let total = spec.clients * spec.frames_per_client;
    let acked_rows: usize = actors.iter().map(|a| a.acked).sum();
    let delivered_rows: usize = actors.iter().map(|a| a.pulled_rows).sum();
    if acked_rows != total {
        return Err(format!("acked {acked_rows} rows, expected {total} (pushes went missing)"));
    }
    exactly_once(delivered_rows, acked_rows, "acked")?;

    // Data-plane transparency: impairments must not perturb the bytes.
    let mut reference = AsymmetricAutoencoder::new(codec).expect("valid codec config");
    for (i, a) in actors.iter().enumerate() {
        if a.pulled != reference_decode(&mut reference, &a.frames).as_slice() {
            return Err(format!("actor {i}: decoded bytes diverge from the direct codec path"));
        }
    }

    let snap = gateway.stats();
    check_drained("gateway", &snap)?;
    let latency_bound = 0.005 + spec.des.rto_cap.as_secs_f64() + 0.1; // deadline + RTO ceiling + slack
    if snap.batch_latency_p99_s > latency_bound {
        return Err(format!(
            "p99 flush latency {:.4}s exceeds the {latency_bound:.4}s bound \
             (deadline flushes are starving)",
            snap.batch_latency_p99_s
        ));
    }

    // Trace-level contracts: the ring saw every span, every trace's
    // chain conserves rows, and — since the run drained fully — every
    // pushed row was delivered under its own trace.
    if gateway.tracer().dropped() != 0 {
        return Err(format!(
            "trace ring evicted {} spans; raise trace_capacity so chains stay whole",
            gateway.tracer().dropped()
        ));
    }
    let chains = orco_obs::verify_chains(&gateway.tracer().spans())
        .map_err(|detail| format!("trace chain broken: {detail}"))?;
    if chains.pushed_rows != total as u64 || chains.delivered_rows != total as u64 {
        return Err(format!(
            "trace chains account for {} pushed / {} delivered rows, expected {total} of each",
            chains.pushed_rows, chains.delivered_rows
        ));
    }

    Ok(Outcome {
        clients: spec.clients,
        frames_per_client: spec.frames_per_client,
        acked_rows,
        delivered_rows,
        busy_retries: actors.iter().map(|a| a.busy_retries).sum(),
        gave_ups: actors.iter().map(|a| a.gave_ups).sum(),
        reconnects: actors.iter().map(|a| a.reconnects).sum(),
        stats_frames: vec![stats_frame(snap)],
        decoded_fnv: row_digest(actors.iter().map(|a| (a.pulled.as_slice(), None)), dims.input),
        trace_export: gateway.trace_export(),
        ..Outcome::default()
    })
}
