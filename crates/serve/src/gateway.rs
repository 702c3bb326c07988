//! The sharded ingestion gateway: request dispatch, micro-batch flush
//! policy, and backpressure.
//!
//! A [`Gateway`] owns `shards` independent shard cores (micro-batcher +
//! encoded store, serving the active model version's codec); a cluster is
//! pinned to a shard by an FNV-1a hash of its id, so one cluster's frames
//! always meet the same shard and stay in push order. Dispatch is
//! transport-agnostic: the TCP server and the in-process loopback both
//! funnel decoded requests into [`Gateway::handle`] (raw frames go
//! through its [`crate::Service`] impl), which makes the loopback tests
//! exercise exactly the production path.
//!
//! Flush policy — the adaptive micro-batcher:
//!
//! * **size**: a push that brings the pending batch to
//!   [`GatewayConfig::batch_max_frames`] flushes inline, on the pushing
//!   thread;
//! * **deadline**: a pending batch older than
//!   [`GatewayConfig::batch_deadline`] is flushed by the deadline sweep
//!   ([`Gateway::sweep_deadlines`]) that every dispatch and every
//!   [`Gateway::advance_clock`] runs across **all** shards — a batch on an
//!   idle shard is flushed as soon as time passes its deadline, not when
//!   the next request happens to land on that shard. Under a real clock
//!   (TCP mode) one timer thread flushes each batch when it falls due, so
//!   deadlines are kept with no traffic at all. The sweep and the timer
//!   ask each shard through a lock-free gate (an atomic load or two) and
//!   take a shard's lock only to flush a batch that is due;
//! * **hold**: the deadline is what a batch waits when nobody is waiting
//!   for it. A pending batch is *wanted* from the enqueue time of its
//!   first row for a cluster with a subscriber (or from the `Subscribe`
//!   that finds such rows pending), and the timer flushes a wanted batch
//!   — as a deadline flush — once it has been wanted for the shard's
//!   **hold**: the time the timer's own previous flush of that shard
//!   took, encode and delivery, starting at 0 and capped at the deadline.
//!   At low load a streamed row leaves about one flush-cost after it
//!   arrives and the timer spends at most half a shard's time on early
//!   flushes; as load grows, batches, their cost and the hold grow
//!   together until size flushes and the configured deadline take over
//!   again. Pull-only clusters never make a batch wanted, and under a
//!   virtual clock there is no timer: the sweep alone keeps the deadline,
//!   so a manual-clock schedule cannot observe the hold;
//! * **pull**: a `PullDecoded` flushes the shard's pending batch first,
//!   so clients always read their own writes.
//!
//! Backpressure is explicit: a shard's pending, mid-encode and stored
//! rows never exceed [`GatewayConfig::queue_capacity`]; a push over
//! budget is answered with [`Message::Busy`] and **nothing is
//! buffered** — gateway memory is bounded by configuration, not by
//! client behavior.
//!
//! Everything about a cluster lives in its shard — pending frames,
//! stored rows, streaming subscriptions — so a flush delivers what it
//! stored to each subscriber of the cluster before the shard's core lock
//! is released, and a cluster's rows reach every subscriber in push order
//! by construction.
//!
//! Dispatch is shard-local: a request for a cluster on shard *i* takes
//! shard *i*'s locks and no other, unless another shard has a batch
//! overdue (the sweep flushes it). Two connections on two shards run
//! their codecs side by side. Within a shard, a push takes the core lock
//! alone unless it fills the batch, and a flush encodes under the shard's
//! flush lock with the core free, so two connections on one shard push
//! past each other's encodes. A pull takes the flush lock only to read
//! its own pending or mid-encode rows, and decodes with no lock held, in
//! a workspace from the shard's pool, so pulls and flushes on one shard
//! run side by side (see [`crate::shard`]). Lock order: `rollout` → a
//! shard's flush lock → its core → an [`Outbox`] or the shard's pool of
//! decode workspaces (leaves).
//!
//! Every lock here is taken at one door (see [`crate::shard`]), which
//! keeps each shard's gate, wakes the deadline timer, and fails the
//! gateway whole on a panic under any lock.
//!
//! A model version is one codec, shared by every shard as an
//! `Arc<dyn Codec>`: a proposal derives it once from the active codec
//! ([`Codec::with_encoder`]: a new encoder on the same decoder), an
//! activation installs it on every shard, and a rollback installs the
//! replaced version's codec again.

use std::num::{NonZeroU64, NonZeroUsize};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use orco_obs::{Registry, Span, SpanKind, Tracer};
use orco_tensor::Matrix;
use orcodcs::{Codec, EncoderCheckpoint, FrameDims, OrcoError};

use crate::auth;
use crate::clock::Clock;
use crate::fleet_view::FleetView;
use crate::outbox::Outbox;
use crate::protocol::{
    ErrorCode, FrameRows, Message, ModelVersion, Push, Request, MAX_LABEL, PROTOCOL_VERSION,
};
use crate::shard::{due_at, Door, DriftProbe, Failed, FlushSide, GateTimes, Shard, ShardCore};
use crate::stats::{FlushReason, ServeStats, MAX_SHARDS};

/// A reply, or the door's word that the gateway has failed.
type Reply = Result<Message, Failed>;

/// What a flush did: stored a batch (`true`) or found none to take
/// (`false`); a codec error, after which the batch is pending again; or
/// the door's word that the gateway has failed.
type Flushed = Result<Result<bool, OrcoError>, Failed>;

/// Sizing and flush policy of a [`Gateway`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GatewayConfig {
    /// Worker shards; each serves `hash(cluster) % shards` with the
    /// active version's codec.
    pub shards: usize,
    /// Pending rows that trigger an immediate (size) flush.
    pub batch_max_frames: usize,
    /// Maximum age of a pending batch before a deadline flush.
    pub batch_deadline: Duration,
    /// Per-shard in-flight row budget (pending + mid-encode + stored);
    /// pushes beyond it draw `Busy`.
    pub queue_capacity: usize,
    /// Shared secret for `Hello` authentication ([`crate::auth`]). When
    /// set, a `Hello` whose MAC does not verify draws
    /// [`ErrorCode::Unauthorized`]; when `None`, `Hello` MACs are
    /// ignored (trusted-network mode, the pre-fleet behavior).
    pub auth_secret: Option<u64>,
    /// Span capacity of the gateway's trace ring
    /// ([`orco_obs::Tracer`]); 0 disables tracing entirely (record
    /// becomes a no-op that never takes the ring lock).
    pub trace_capacity: usize,
    /// The drift monitor every shard samples its flushed rows through;
    /// `None` disables drift detection.
    pub drift: Option<DriftGuard>,
}

/// The gateway's drift monitor (paper §III-D): every shard decodes back a
/// sample of its flushed rows and scores each against its raw frame
/// through a [`orcodcs::FineTuneMonitor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftGuard {
    /// Sample every N-th flushed row. The schedule is a pure function of
    /// the row sequence, so drift trips are deterministic under a manual
    /// clock.
    pub sample_every: NonZeroU64,
    /// Windowed reconstruction error above which the monitor trips
    /// (raises `drift_trips`/`drift` in the stats); finite and > 0.
    pub threshold: f32,
    /// Sliding-window length of the monitor, in samples.
    pub window: NonZeroUsize,
    /// Post-swap safety rail: if, after a codec hot-swap, any shard's
    /// windowed sample error exceeds this bound (finite and > 0) before
    /// the first full window passes clean, the gateway reverts to the
    /// prior version. `None` disables the rail.
    pub rollback_above: Option<f32>,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        Self {
            shards: 2,
            batch_max_frames: 64,
            batch_deadline: Duration::from_millis(5),
            queue_capacity: 4096,
            auth_secret: None,
            trace_capacity: 4096,
            drift: None,
        }
    }
}

impl GatewayConfig {
    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`OrcoError::Config`] naming the first violated
    /// constraint.
    pub(crate) fn validate(&self) -> Result<(), OrcoError> {
        let fail = |bad: bool, detail: &str| {
            let detail = format!("GatewayConfig: {detail}");
            bad.then_some(OrcoError::Config { detail }).map_or(Ok(()), Err)
        };
        fail(self.shards == 0, "shards must be > 0")?;
        fail(self.shards > MAX_SHARDS, &format!("shards must be <= {MAX_SHARDS}"))?;
        fail(self.batch_max_frames == 0, "batch_max_frames must be > 0")?;
        fail(
            self.queue_capacity < self.batch_max_frames,
            "queue_capacity must be >= batch_max_frames",
        )?;
        let Some(g) = self.drift else { return Ok(()) };
        let positive = |x: f32| x.is_finite() && x > 0.0;
        fail(!positive(g.threshold), "drift.threshold must be finite and > 0")?;
        fail(
            g.rollback_above.is_some_and(|b| !positive(b)),
            "drift.rollback_above must be finite and > 0",
        )
    }
}

/// The sharded ingestion gateway. Shared across connection threads as an
/// `Arc<Gateway>`; all entry points take `&self`.
pub struct Gateway {
    cfg: GatewayConfig,
    clock: Clock,
    dims: FrameDims,
    stats: ServeStats,
    tracer: Tracer,
    shards: Vec<Shard>,
    /// Where every lock below is taken; closed on shutdown or failure.
    door: Door,
    /// The fleet assignment this gateway enforces, or `None` for a
    /// standalone gateway (pre-fleet behavior: serve every cluster).
    fleet: Mutex<Option<FleetView>>,
    /// The rollout control plane: active/staged/prior model versions.
    ///
    /// Lock order: this lock may be held while taking a shard's locks
    /// (activation walks every shard), so no path may take it while
    /// holding one of them.
    rollout: Mutex<RolloutState>,
}

/// A model version and its codec: the one instance every shard serves
/// while the version is active.
type Served = (ModelVersion, Arc<dyn Codec>);

/// The gateway's model-version bookkeeping (behind `Gateway::rollout`).
struct RolloutState {
    /// The version currently encoding new flushes on every shard; at
    /// boot, version 0 with shard 0's codec.
    active: Served,
    /// A proposed version staged for activation, its codec already
    /// derived from the active one.
    staged: Option<Served>,
    /// The version the last activation replaced: the rollback target
    /// while the post-swap guard window is still open, `None` once the
    /// guard passes (or after a rollback).
    prior: Option<Served>,
}

impl std::fmt::Debug for Gateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gateway")
            .field("cfg", &self.cfg)
            .field("dims", &self.dims)
            .field("shutting_down", &self.is_shutting_down())
            .finish_non_exhaustive()
    }
}

impl Gateway {
    /// Builds a gateway, asking `codec_for_shard` for each shard's boot
    /// codec. Every shard serves one model: build them from the same
    /// deterministic config/seed, so they produce bit-identical codes.
    /// Shard 0's codec is version 0 for rollouts — the one a proposal
    /// derives from and a rollback to version 0 installs on every shard.
    ///
    /// # Errors
    ///
    /// Returns [`OrcoError::Config`] on an invalid config or when shard
    /// codecs disagree on [`FrameDims`].
    pub fn new(
        cfg: GatewayConfig,
        clock: Clock,
        mut codec_for_shard: impl FnMut(usize) -> Box<dyn Codec>,
    ) -> Result<Self, OrcoError> {
        cfg.validate()?;
        let mut shards = Vec::with_capacity(cfg.shards);
        let boot: Arc<dyn Codec> = Arc::from(codec_for_shard(0));
        let dims = boot.frame_dims();
        for i in 0..cfg.shards {
            let drift = cfg.drift.map(|g| DriftProbe::new(g.sample_every, g.threshold, g.window));
            let codec = if i == 0 { Arc::clone(&boot) } else { Arc::from(codec_for_shard(i)) };
            if codec.frame_dims() != dims {
                return Err(OrcoError::Config {
                    detail: format!(
                        "Gateway: shard {i} codec geometry {:?} differs from shard 0 ({dims:?})",
                        codec.frame_dims()
                    ),
                });
            }
            shards.push(Shard::new(i, codec, drift));
        }
        let version_0 = ModelVersion {
            id: 0,
            label: "boot".into(),
            frame_dim: dims.input as u32,
            code_dim: dims.code as u32,
        };
        Ok(Self {
            cfg,
            clock,
            dims,
            stats: ServeStats::new(cfg.shards as u16),
            tracer: Tracer::new(cfg.trace_capacity),
            shards,
            door: Door::default(),
            fleet: Mutex::new(None),
            rollout: Mutex::new(RolloutState {
                active: (version_0, boot),
                staged: None,
                prior: None,
            }),
        })
    }

    /// Installs (or clears) the fleet assignment this gateway enforces.
    /// With a view installed, a push for a cluster this gateway does not
    /// own draws [`Message::Redirect`] naming the current owner; pulls
    /// are always served locally so clients can drain rows stored here
    /// before a rebalance moved the cluster away. A failed gateway keeps
    /// the view it had.
    pub fn set_fleet_view(&self, view: Option<FleetView>) {
        let _ = self.door.enter(&self.fleet, |fleet| *fleet = view);
    }

    /// The currently installed fleet view, if any (`None` once the
    /// gateway has failed).
    #[must_use]
    pub fn fleet_view(&self) -> Option<FleetView> {
        self.door.enter(&self.fleet, |fleet| fleet.clone()).ok()?
    }

    /// The gateway's flush/backpressure configuration.
    #[must_use]
    pub fn config(&self) -> &GatewayConfig {
        &self.cfg
    }

    /// The gateway's clock.
    #[must_use]
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// The served data-plane geometry.
    #[must_use]
    pub fn frame_dims(&self) -> FrameDims {
        self.dims
    }

    /// A snapshot of the serving statistics (also served over the wire
    /// via [`Message::StatsRequest`]).
    #[must_use]
    pub fn stats(&self) -> crate::stats::StatsSnapshot {
        self.stats.snapshot()
    }

    /// The gateway's trace ring (capacity set by
    /// [`GatewayConfig::trace_capacity`]).
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The deterministic text export of the trace ring — identical bytes
    /// for a live run and its replay under the same virtual clock.
    #[must_use]
    pub fn trace_export(&self) -> String {
        self.tracer.export_text()
    }

    /// The metrics text exposition (also served over the wire via
    /// [`Message::MetricsRequest`]). Byte-stable under a manual clock:
    /// series render in a fixed order with integer values except the two
    /// latency percentiles.
    #[must_use]
    pub fn metrics_text(&self) -> String {
        let mut reg = Registry::new();
        self.stats.fill_registry(&mut reg);
        reg.render()
    }

    /// Whether [`Message::Shutdown`] has been received, or the gateway
    /// has failed: a thread panicked holding one of its locks.
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.door.is_closed()
    }

    /// The shard serving a cluster: FNV-1a over the id's little-endian
    /// bytes ([`orco_tensor::fnv1a64`], the workspace's one stable
    /// dependency-free hash), reduced modulo the shard count.
    /// Deterministic across runs, platforms, and thread counts (unlike
    /// `DefaultHasher`).
    #[must_use]
    pub fn shard_of(&self, cluster_id: u64) -> usize {
        (orco_tensor::fnv1a64(&cluster_id.to_le_bytes()) % self.shards.len() as u64) as usize
    }

    /// Test hook: per shard, `[mirror, truth]`, each as `[armed, wanted]`
    /// — when the shard's lock-free gate says the pending batch was armed
    /// and since when it is wanted, beside what its locked core holds.
    /// The two must be equal whenever the shard's lock is free; each pair
    /// is read under it. A shard whose lock is poisoned is left out.
    #[doc(hidden)]
    #[must_use]
    pub fn gate_check(&self) -> Vec<[[Option<f64>; 2]; 2]> {
        (0..self.shards.len())
            .filter_map(|idx| {
                self.shard(idx, |core| [self.shards[idx].gate.times(), core.gate_truth()]).ok()
            })
            .collect()
    }

    /// Handles one decoded request and produces its reply. Never panics
    /// on hostile input; failures become [`Message::ErrorReply`]. There
    /// is no streaming outbox behind this call, so `Subscribe` draws a
    /// typed error.
    pub fn handle(&self, msg: Message) -> Message {
        self.dispatch(Request::Other(msg), None)
    }

    /// Runs `f` on shard `idx`'s core, at the door, timing the wait for
    /// its lock.
    fn shard<R>(&self, idx: usize, f: impl FnOnce(&mut ShardCore) -> R) -> Result<R, Failed> {
        self.shards[idx].enter(&self.door, &self.clock, self.stats.shard_lock_wait(), f)
    }

    /// Runs `f` on shard `idx`'s flush lock, at the door, timing the wait
    /// for it. `f` may enter the core; nothing that holds the core may
    /// call this.
    fn flushing<R>(&self, idx: usize, f: impl FnOnce(&mut FlushSide) -> R) -> Result<R, Failed> {
        self.shards[idx].enter_flush(&self.door, &self.clock, self.stats.flush_lock_wait(), f)
    }

    /// Flushes shard `idx`'s pending batch, if `take_if` says so of its
    /// core, with the shard's flush lock `side` held throughout: under the
    /// core it takes the batch and the codec, with the core free it
    /// encodes the batch, and under the core again it stores and delivers
    /// it — or, on a codec error, puts it back at the head of the pending
    /// batch (see [`crate::shard`]). Pushes that land meanwhile join the
    /// next batch.
    fn flush(
        &self,
        idx: usize,
        side: &mut FlushSide,
        now: f64,
        reason: FlushReason,
        take_if: impl FnOnce(&ShardCore) -> bool,
    ) -> Flushed {
        let taken =
            self.shard(idx, |core| if take_if(core) { core.take_batch(side) } else { None })?;
        let Some((taken, codec)) = taken else {
            return Ok(Ok(false));
        };
        let encoded = side.encode(&*codec, &self.stats);
        self.shard(idx, |core| match encoded {
            Ok(()) => {
                core.store(side, taken, now, reason, &self.stats, &self.tracer);
                Ok(true)
            }
            Err(e) => {
                core.put_back(side, taken);
                Err(e)
            }
        })
    }

    /// Handles one request — a push whose rows are still the bytes of
    /// its frame, or a decoded message — on a connection whose
    /// server-push channel is `outbox` (when the transport has one).
    /// `Subscribe` registers the outbox for the cluster's decoded
    /// batches; on outbox-less transports it draws
    /// [`ErrorCode::BadRequest`].
    pub(crate) fn dispatch(&self, request: Request<'_>, outbox: Option<&Arc<Outbox>>) -> Message {
        self.clock.tick();
        // Sweep *every* shard for overdue batches before dispatching
        // (lock-free unless one is due). Without this, a pending batch on
        // shard A would wait for the next request that happens to hash
        // onto shard A — under a virtual clock that request may never
        // come, and the batch starves (the deadline-starvation regression
        // in `tests/gateway_loopback.rs` pins the fix).
        self.sweep_deadlines();
        let now = self.clock.now_s();
        let reply = match request {
            Request::Push(Push { cluster_id, trace, frames }) => {
                self.push(cluster_id, trace, frames, now)
            }
            Request::Other(msg) => self.handle_message(msg, now, outbox),
        }
        // The post-swap guard runs after dispatch so it sees the drift
        // samples any flush above just recorded.
        .and_then(|reply| self.maybe_rollback(now).map(|()| reply));
        reply.unwrap_or_else(|Failed| Message::ErrorReply {
            code: ErrorCode::Internal,
            detail: "the gateway has failed: a thread panicked holding one of its locks".into(),
        })
    }

    fn handle_message(&self, msg: Message, now: f64, outbox: Option<&Arc<Outbox>>) -> Reply {
        Ok(match msg {
            Message::Hello { client_id, nonce, mac } => match self.cfg.auth_secret {
                // Recompute over the wire fields; a garbled or unkeyed
                // Hello fails closed before any connection state exists.
                Some(secret) if auth::hello_mac(secret, client_id, nonce) != mac => {
                    Message::ErrorReply {
                        code: ErrorCode::Unauthorized,
                        detail: "Hello MAC does not verify against the shared secret".into(),
                    }
                }
                _ => Message::HelloAck {
                    version: PROTOCOL_VERSION,
                    shards: self.shards.len() as u16,
                    frame_dim: self.dims.input as u32,
                    code_dim: self.dims.code as u32,
                    active_version: self.door.enter(&self.rollout, |state| state.active.0.id)?,
                },
            },
            Message::PushFrames { cluster_id, trace, frames } => {
                self.push(cluster_id, trace, frames.as_view(), now)?
            }
            Message::PullDecoded { cluster_id, max_frames, trace: _ } => {
                // The request's trace id rides the wire for client-side
                // correlation; delivery spans carry the *originating*
                // push traces so the chain stays causal.
                self.pull(cluster_id, max_frames as usize, now)?
            }
            Message::Subscribe { cluster_id, trace } => match outbox {
                Some(outbox) => self.subscribe(cluster_id, trace, now, outbox)?,
                None => Message::ErrorReply {
                    code: ErrorCode::BadRequest,
                    detail: "this transport does not support streaming subscriptions".into(),
                },
            },
            Message::Unsubscribe { cluster_id } => {
                // Acked with a zero-backlog `SubscribeAck`.
                if let Some(outbox) = outbox {
                    let shard = self.shard_of(cluster_id);
                    self.shard(shard, |core| core.unsubscribe(cluster_id, outbox))?;
                }
                Message::SubscribeAck { cluster_id, backlog: 0 }
            }
            Message::StatsRequest => Message::StatsReply(self.stats.snapshot()),
            Message::MetricsRequest => Message::MetricsReply { text: self.metrics_text() },
            Message::RolloutPropose { version, weight, bias, nonce, mac } => {
                self.propose(version, weight, bias, nonce, mac)?
            }
            Message::ActivateVersion { version_id, nonce, mac } => {
                self.activate(version_id, nonce, mac, now)?
            }
            Message::VersionQuery => self.door.enter(&self.rollout, |state| {
                let stats = self.stats.snapshot();
                Message::VersionReply {
                    active: state.active.0.clone(),
                    staged: state.staged.as_ref().map(|(v, _)| v.clone()),
                    prior: state.prior.as_ref().map(|(v, _)| v.clone()),
                    rollbacks: stats.rollbacks,
                    drift: stats.drift,
                }
            })?,
            Message::FleetStatsQuery => Message::ErrorReply {
                code: ErrorCode::BadRequest,
                detail: "fleet stats are aggregated by the directory, not a gateway".into(),
            },
            Message::Shutdown => {
                self.begin_shutdown(now);
                Message::ShutdownAck
            }
            other => Message::ErrorReply {
                code: ErrorCode::BadRequest,
                detail: format!("{} is a reply, not a request", other.kind()),
            },
        })
    }

    /// One push, wherever its rows are: a typed message's matrix, or the
    /// bytes of the frame that carried it. It takes its shard's core lock
    /// alone — never waiting out an encode or a decode on the shard —
    /// unless its rows fill the batch: then it also makes the size flush,
    /// under the shard's flush lock, and acks once the batch is stored.
    fn push(&self, cluster_id: u64, trace: u64, frames: impl FrameRows, now: f64) -> Reply {
        // Ownership first: a fleet gateway never accepts (or silently
        // misroutes) a push for a cluster assigned elsewhere — the
        // client is bounced to the owner with the epoch that named it.
        let redirect = self.door.enter(&self.fleet, |fleet| {
            let view = fleet.as_ref().filter(|view| !view.owns(cluster_id))?;
            let owner = view.owner_of(cluster_id)?;
            self.stats.record_redirect();
            Some(Message::Redirect { cluster_id, epoch: view.epoch, addr: owner.addr.clone() })
        })?;
        if let Some(redirect) = redirect {
            return Ok(redirect);
        }
        if frames.cols() != self.dims.input {
            return Ok(Message::ErrorReply {
                code: ErrorCode::Shape,
                detail: format!(
                    "frame width mismatch: expected {} f32 elements, got {}",
                    self.dims.input,
                    frames.cols()
                ),
            });
        }
        let rows = frames.rows();
        if rows == 0 {
            return Ok(Message::PushAck { accepted: 0 });
        }
        if rows > self.cfg.queue_capacity {
            return Ok(Message::ErrorReply {
                code: ErrorCode::BadRequest,
                detail: format!(
                    "push of {rows} rows exceeds the shard capacity of {}; split the push",
                    self.cfg.queue_capacity
                ),
            });
        }
        let shard_idx = self.shard_of(cluster_id);
        let max = self.cfg.batch_max_frames;
        let mut filled = false;
        let reply = self.shard(shard_idx, |core| {
            // The shutdown check must happen under the core lock: either
            // this push wins the lock and its frames are flushed by
            // `begin_shutdown`'s subsequent per-shard flush, or shutdown
            // wins and the push is rejected here — a PushAck'd frame can
            // never be stranded in a batcher nothing will sweep again.
            if self.is_shutting_down() {
                return Message::ErrorReply {
                    code: ErrorCode::ShuttingDown,
                    detail: "gateway is shutting down".into(),
                };
            }
            if !core.try_enqueue(cluster_id, trace, frames, now, self.cfg.queue_capacity) {
                self.stats.record_busy();
                // No spans for a refused push: the client will retry, and
                // a retry must not double-count the trace's pushed rows.
                return Message::Busy {
                    queued: core.in_flight() as u32,
                    capacity: self.cfg.queue_capacity as u32,
                };
            }
            self.stats.record_push(shard_idx, rows as u64, (rows * self.dims.input * 4) as u64);
            if trace != 0 && self.tracer.enabled() {
                let base = Span {
                    trace_id: trace,
                    kind: SpanKind::Push,
                    cluster_id,
                    shard: shard_idx as u16,
                    rows: rows as u32,
                    at_s: now,
                    detail: "",
                };
                self.tracer.record(base);
                self.tracer.record(Span { kind: SpanKind::Enqueue, ..base });
            }
            filled = core.pending_rows() >= max;
            Message::PushAck { accepted: rows as u32 }
        })?;
        if filled {
            // A size flush, if the batch is still full: a flush that ran
            // between the two locks may have taken it.
            let full = |core: &ShardCore| core.pending_rows() >= max;
            let flushed = self.flushing(shard_idx, |side| {
                self.flush(shard_idx, side, now, FlushReason::Size, full)
            })??;
            if let Err(e) = flushed {
                return Ok(internal(&e));
            }
        }
        Ok(reply)
    }

    /// Up to `max` of the cluster's oldest decoded rows, of one model
    /// version. Under the shard's core lock, the run of codes and the
    /// codec to decode it with; then the decode, with no lock held, in a
    /// workspace from the shard's pool. A pull whose cluster has rows
    /// pending or mid-encode takes the flush lock first — to flush them,
    /// or to wait out the flush that has them — so it reads its own
    /// writes; it never waits out another cluster's encode.
    fn pull(&self, cluster_id: u64, max: usize, now: f64) -> Reply {
        let idx = self.shard_of(cluster_id);
        let shard = &self.shards[idx];
        let mut decoding = shard.decoding(&self.door)?;
        let mut take = |core: &mut ShardCore| {
            let run = core.take_run(&mut decoding, cluster_id, max, now, &self.tracer, false);
            (run, core.version(), Arc::clone(core.codec()))
        };
        // Overdue batches were already swept at dispatch. A flush for the
        // puller's own pending rows leaves the rest pending — a polling
        // consumer must not collapse other clusters' half-built batches
        // to size-1 flushes.
        let taken = match self.shard(idx, |core| (!core.owes(cluster_id)).then(|| take(core)))? {
            Some(taken) => taken,
            None => {
                let mine = |core: &ShardCore| core.has_pending_for(cluster_id);
                let flushed = self
                    .flushing(idx, |side| self.flush(idx, side, now, FlushReason::Pull, mine))??;
                if let Err(e) = flushed {
                    return Ok(internal(&e));
                }
                self.shard(idx, take)?
            }
        };
        let (run, serving, codec) = taken;
        let Some((version, rows)) = run else {
            shard.give_back(&self.door, decoding)?;
            let frames = Matrix::zeros(0, self.dims.input);
            return Ok(Message::Decoded { cluster_id, version: serving, frames });
        };
        let decoded = shard.unlocked(&self.door, || decoding.decode(&*codec));
        shard.give_back(&self.door, decoding)?;
        Ok(match decoded {
            Ok(frames) => {
                let bytes = (rows * self.dims.input * 4) as u64;
                self.stats.record_pull(idx, rows as u64, bytes);
                Message::Decoded { cluster_id, version, frames }
            }
            Err(e) => internal(&e),
        })
    }

    /// Stages `version` (checkpoint weights ride the proposal) without
    /// touching what serves: its codec is the active codec with the
    /// proposed encoder ([`Codec::with_encoder`]), derived here once for
    /// every shard. Rejections are [`Message::RolloutAck`] with
    /// `accepted: false`, so a controller can distinguish a policy
    /// refusal from a transport error.
    fn propose(
        &self,
        version: ModelVersion,
        weight: Matrix,
        bias: Matrix,
        nonce: u64,
        mac: u64,
    ) -> Reply {
        if let Some(secret) = self.cfg.auth_secret {
            if auth::rollout_mac(secret, version.id, nonce) != mac {
                return Ok(Message::ErrorReply {
                    code: ErrorCode::Unauthorized,
                    detail: "RolloutPropose MAC does not verify against the shared secret".into(),
                });
            }
        }
        let version_id = version.id;
        let reject =
            |detail: String| Ok(Message::RolloutAck { version_id, accepted: false, detail });
        if version.label.len() > MAX_LABEL {
            return reject(format!("version label exceeds {MAX_LABEL} bytes"));
        }
        if (version.frame_dim as usize, version.code_dim as usize)
            != (self.dims.input, self.dims.code)
        {
            return reject(format!(
                "proposed geometry {}x{} does not match the served {}x{}",
                version.frame_dim, version.code_dim, self.dims.input, self.dims.code
            ));
        }
        if weight.shape() != (self.dims.code, self.dims.input) {
            return reject(format!(
                "encoder weight is {}x{}, expected {}x{}",
                weight.rows(),
                weight.cols(),
                self.dims.code,
                self.dims.input
            ));
        }
        if bias.shape() != (1, self.dims.code) {
            return reject(format!(
                "encoder bias is {}x{}, expected 1x{}",
                bias.rows(),
                bias.cols(),
                self.dims.code
            ));
        }
        let checkpoint = EncoderCheckpoint { weight, bias, label: version.label.clone() };
        self.door.enter(&self.rollout, |state| {
            if version.id <= state.active.0.id {
                return reject(format!(
                    "version id {} is not newer than the active {}",
                    version.id, state.active.0.id
                ));
            }
            let codec = match state.active.1.with_encoder(&checkpoint) {
                Ok(codec) => Arc::from(codec),
                Err(e) => {
                    return reject(format!("checkpoint does not stage onto the active codec: {e}"))
                }
            };
            // Restaging replaces any earlier staged version — last writer
            // wins, mirroring how a controller retries a revised candidate.
            state.staged = Some((version, codec));
            Ok(Message::RolloutAck { version_id, accepted: true, detail: String::new() })
        })?
    }

    /// Cuts the staged version over to active on every shard (see
    /// [`Self::cut_over`]); the version it replaces becomes the rollback
    /// target.
    fn activate(&self, version_id: u64, nonce: u64, mac: u64, now: f64) -> Reply {
        if let Some(secret) = self.cfg.auth_secret {
            if auth::rollout_mac(secret, version_id, nonce) != mac {
                return Ok(Message::ErrorReply {
                    code: ErrorCode::Unauthorized,
                    detail: "ActivateVersion MAC does not verify against the shared secret".into(),
                });
            }
        }
        let reject =
            |detail: String| Ok(Message::RolloutAck { version_id, accepted: false, detail });
        self.door.enter(&self.rollout, |state| {
            let Some(staged) = state.staged.take_if(|(v, _)| v.id == version_id) else {
                return reject(match &state.staged {
                    Some((v, _)) => format!("staged version is {}, not {version_id}", v.id),
                    None => "no version is staged".into(),
                });
            };
            state.prior = Some(self.cut_over(state, staged, now)?);
            self.stats.record_swap();
            Ok(Message::RolloutAck { version_id, accepted: true, detail: String::new() })
        })?
    }

    /// The post-swap safety rail. While the guard is armed and a prior
    /// version is the rollback target, each dispatch checks every shard's
    /// windowed sample error: one shard over the bound cuts the whole
    /// gateway over to the prior version's codec (see
    /// [`Self::cut_over`]); a full window under the bound on every shard
    /// commits the swap and releases the prior. A NaN windowed error — a
    /// codec decoding NaN — is over the bound.
    fn maybe_rollback(&self, now: f64) -> Result<(), Failed> {
        let Some(bound) = self.cfg.drift.and_then(|g| g.rollback_above) else {
            return Ok(());
        };
        self.door.enter(&self.rollout, |state| {
            let Some(prior) = state.prior.take() else {
                return Ok(());
            };
            let mut tripped = false;
            let mut all_windows_full = true;
            for idx in 0..self.shards.len() {
                match self.flushing(idx, |side| side.drift_windowed_error())? {
                    Some(err) if err.is_nan() || err > bound => tripped = true,
                    Some(_) => {}
                    None => all_windows_full = false,
                }
            }
            if tripped {
                // The demoted version is no rollback target: it is dropped.
                let (demoted, _) = self.cut_over(state, prior, now)?;
                self.stats.record_rollback();
                eprintln!(
                    "orco-serve: post-swap guard tripped; rolled back from version {} to {}",
                    demoted.id, state.active.0.id
                );
            } else if !all_windows_full {
                // The window is still open: the prior stays the target.
                // Once every shard has completed a clean window on the new
                // model, the swap is committed and the prior is released.
                state.prior = Some(prior);
            }
            Ok(())
        })?
    }

    /// Makes `next` active, installing its one codec on every shard, and
    /// returns the version it replaces. Each shard cuts over at a flush
    /// boundary: its pending batch flushes under the old codec first —
    /// zero drops, no mixed-version flush.
    fn cut_over(&self, state: &mut RolloutState, next: Served, now: f64) -> Result<Served, Failed> {
        let (version, codec) = &next;
        for idx in 0..self.shards.len() {
            self.flushing(idx, |side| {
                // A failed flush — a codec shape error, which the width
                // check at push rules out — leaves its rows pending, to
                // encode under the new version: no shard is left behind.
                if let Err(e) = self.flush(idx, side, now, FlushReason::Swap, |_| true)? {
                    eprintln!("orco-serve: shard {idx} swap flush failed: {e}");
                }
                side.restart_drift();
                self.shard(idx, |core| core.cut_over(version.id, Arc::clone(codec)))
            })??;
        }
        self.stats.set_active_version(version.id);
        self.stats.set_drift(false);
        Ok(std::mem::replace(&mut state.active, next))
    }

    /// Subscribes `outbox` to `cluster_id`'s decoded batches. The reply
    /// reports the stored backlog, which is streamed out ahead of it.
    /// Rows of the cluster still pending are wanted as of now.
    fn subscribe(&self, cluster_id: u64, trace: u64, now: f64, outbox: &Arc<Outbox>) -> Reply {
        let shard_idx = self.shard_of(cluster_id);
        // The backlog is decoded as it streams, under the core.
        self.shard(shard_idx, |core| {
            let backlog = core.stored_rows_for(cluster_id);
            if trace != 0 && self.tracer.enabled() {
                self.tracer.record(Span {
                    trace_id: trace,
                    kind: SpanKind::Subscribe,
                    cluster_id,
                    shard: shard_idx as u16,
                    rows: backlog as u32,
                    at_s: now,
                    detail: "",
                });
            }
            core.subscribe(cluster_id, outbox, now, &self.stats, &self.tracer);
            Message::SubscribeAck { cluster_id, backlog: backlog as u32 }
        })
    }

    /// Closes the door — no push is accepted from here on — then drains
    /// every shard a panic has not failed.
    fn begin_shutdown(&self, now: f64) {
        self.door.close();
        for idx in 0..self.shards.len() {
            let _ = self.flushing(idx, |side| {
                if let Ok(Err(e)) = self.flush(idx, side, now, FlushReason::Drain, |_| true) {
                    eprintln!("orco-serve: flush during shutdown failed: {e}");
                }
            });
        }
        // Every shard's drained rows are in the outboxes: end every
        // subscription (a connection can hold one on several shards, so
        // not before the last flush).
        for idx in 0..self.shards.len() {
            let _ = self.shard(idx, |core| core.end_subscriptions());
        }
    }

    /// The sweep's and the timer's one flush-if-due body: asks shard
    /// `idx`'s gate whether `due(times, now)`, and only then takes the
    /// shard's flush lock, asks the core the same, and makes a deadline
    /// flush. Returns what the flush took, encode and delivery. A shard
    /// whose lock is poisoned is passed over. The core lock is free while
    /// the batch encodes, so pushes to the shard go on meanwhile.
    fn flush_if_due(&self, idx: usize, due: impl Fn(GateTimes, f64) -> bool) -> Option<f64> {
        if !due(self.shards[idx].gate.times(), self.clock.now_s()) {
            return None;
        }
        self.flushing(idx, |side| {
            let now = self.clock.now_s();
            let is_due = |core: &ShardCore| due(core.gate_truth(), now);
            match self.flush(idx, side, now, FlushReason::Deadline, is_due) {
                Ok(Ok(true)) => {}
                Ok(Ok(false)) | Err(Failed) => return None,
                Ok(Err(e)) => eprintln!("orco-serve: shard {idx} deadline flush failed: {e}"),
            }
            Some(self.clock.now_s() - now)
        })
        .ok()?
    }

    /// Flushes every shard whose pending micro-batch has outlived
    /// [`GatewayConfig::batch_deadline`]. Runs on every dispatch, and
    /// external schedulers (the DES transport, tests advancing a manual
    /// clock) should call it after moving virtual time so idle shards'
    /// batches are flushed without waiting for traffic. When nothing is
    /// due it costs one atomic load per shard and takes no lock, so a
    /// dispatch never waits out another shard's encode or decode.
    pub(crate) fn sweep_deadlines(&self) {
        let deadline_s = self.cfg.batch_deadline.as_secs_f64();
        for idx in 0..self.shards.len() {
            // The configured deadline alone, in the form every virtual-
            // clock schedule and tape pins.
            self.flush_if_due(idx, |[armed, _], now| {
                armed.is_some_and(|armed| now - armed >= deadline_s)
            });
        }
    }

    /// Advances a virtual clock by `dt` and immediately sweeps deadlines —
    /// the one call an external scheduler needs per time step. No-op on a
    /// real clock (beyond the sweep, which is harmless).
    pub fn advance_clock(&self, dt: Duration) {
        self.clock.advance(dt);
        self.sweep_deadlines();
    }

    /// One turn of the deadline timer: flushes every shard whose pending
    /// batch is due — [`GatewayConfig::batch_deadline`] after it was
    /// armed, or the shard's hold after it became wanted, whichever comes
    /// first — and returns how long the timer may sleep before the next
    /// batch falls due. `hold_s` is the timer's own state, one entry a
    /// shard, all 0 at first: after each flush here it holds what that
    /// flush took on the gateway clock, capped at the deadline.
    #[doc(hidden)]
    pub fn timer_step(&self, hold_s: &mut [f64]) -> Duration {
        /// The sleep when nothing is armed: how soon shutdown is noticed
        /// should its wake-up be missed.
        const IDLE_S: f64 = 0.05;
        let deadline_s = self.cfg.batch_deadline.as_secs_f64();
        let mut next_due = f64::INFINITY;
        for ((idx, shard), hold) in self.shards.iter().enumerate().zip(hold_s) {
            let held = *hold;
            let due = |times, now| due_at(times, deadline_s, held).is_some_and(|at| now >= at);
            if let Some(took) = self.flush_if_due(idx, due) {
                *hold = took.min(deadline_s);
            }
            // Whatever is pending now — left to wait, or pushed meanwhile.
            if let Some(at) = due_at(shard.gate.times(), deadline_s, *hold) {
                next_due = next_due.min(at);
            }
        }
        Duration::from_secs_f64((next_due - self.clock.now_s()).clamp(0.0, IDLE_S))
    }

    /// Runs the deadline timer until shutdown: [`Self::timer_step`], then
    /// sleep until the earliest due-time it found. Spawned once by the
    /// TCP server, whatever the shard count; under a virtual clock nothing
    /// sleeps and the dispatch-time sweep keeps the deadlines alone.
    ///
    /// No wake-up is lost. A shard's due-time moves earlier for two
    /// reasons — a push arms its batch, or a push or a `Subscribe` makes
    /// the armed batch wanted — and the release of the shard's lock that
    /// ends either, after this loop read that shard's gate, unparks the
    /// thread once the gate is written; an unpark that lands before the
    /// park makes the park return at once. (A hold that shrinks moves a
    /// due-time earlier too, but only this thread writes holds, before it
    /// computes the sleep. Only a push that lands before the first line
    /// below has run finds no thread to wake, and the sleep's cap bounds
    /// that wait.) A closed door — shutdown, or a failed gateway — ends
    /// the loop; closing it wakes the thread.
    pub(crate) fn run_deadline_timer(&self) {
        self.door.register_timer();
        let mut hold_s = vec![0.0; self.shards.len()];
        while !self.is_shutting_down() {
            std::thread::park_timeout(self.timer_step(&mut hold_s));
        }
    }
}

fn internal(e: &OrcoError) -> Message {
    Message::ErrorReply { code: ErrorCode::Internal, detail: e.to_string() }
}
