//! One shard of the gateway: the codec it serves with, its
//! micro-batcher, and the encoded store for the clusters hashed onto it.
//!
//! A shard is the unit of both parallelism and memory accounting. It
//! holds:
//!
//! * **the codec it serves with** — an `Arc` of immutable weights, the
//!   active model version's one codec, shared by every shard; its encode
//!   and decode bodies run on `&self` in a workspace their caller owns,
//!   so a pull decodes with no lock held;
//! * **the pending micro-batch** — raw frames accumulated across pushes
//!   (possibly from several clusters; rows are independent, so one flush
//!   serves them all) and flushed as **one** `encode_batch_with` call;
//! * **reusable workspaces** — the encode output and each decode's input
//!   are `Matrix::reset` per call, a pull's decode workspace comes from a
//!   per-shard pool and goes back to it, a flush trades the pending
//!   batch's buffers for the emptied ones of the batch before, and a
//!   push's rows are appended to the pending batch straight from whatever
//!   holds them — the bytes of the frame that carried them, on the wire
//!   path — so the steady-state ingest path performs no allocation from
//!   client to shard: the client's encode, the gateway's parse, the
//!   enqueue, the flush and its encode, and the ack
//!   (`tests/codec_no_alloc.rs` at the workspace root counts zero). A
//!   pull's decoded rows are written into a fresh matrix the reply owns,
//!   costing one allocation per pull and no copy (the same file counts
//!   one);
//! * **one record per cluster** (`ClusterState`) — the encoded rows
//!   awaiting delivery, oldest first in push order, each with the trace
//!   id and model version it was flushed under, and the outboxes of the
//!   connections subscribed to the cluster. Rows and subscribers sit
//!   under the same lock, so delivery happens where rows appear: every
//!   flush ends by streaming what it stored to the live subscribers of
//!   the clusters it touched, and a `Subscribe` streams the backlog as it
//!   registers;
//! * **its gate** ([`ShardGate`]) — a lock-free mirror of "when was the
//!   pending batch armed, and since when has a subscriber been waiting
//!   on it", so the gateway's per-dispatch deadline sweep and its
//!   deadline timer can pass over this shard without taking its locks.
//!
//! The in-flight budget (`pending + mid-encode + stored rows ≤
//! capacity`) is enforced at enqueue time: a shard's memory is bounded no
//! matter how fast clients push or how rarely they pull.
//!
//! # Two locks
//!
//! A shard's state is split in two, each half under its own lock, always
//! taken **flush lock, then core** — a core's holder never waits for a
//! flush:
//!
//! * [`FlushSide`], the *flush lock* — the batch being flushed, the encode
//!   workspace and the drift probe;
//! * [`ShardCore`] — the codec the shard serves with and its version, the
//!   pending batch and the rows mid-encode, the per-cluster store and its
//!   subscribers, and the truth the gate mirrors.
//!
//! A push takes the core alone, unless it fills its batch. A flush (size,
//! deadline, pull, drain or swap) holds the flush lock throughout, in
//! three steps: under the core, it takes the pending batch and the codec
//! and disarms the gate ([`ShardCore::take_batch`]; the rows stay in
//! flight, mid-encode); with the core free, it encodes the batch and
//! samples it for drift ([`FlushSide::encode`]); under the core again, it
//! files the codes under the active version and delivers them
//! ([`ShardCore::store`]) — or, if the encode failed, puts the rows back
//! at the head of the pending batch ([`ShardCore::put_back`]). Pushes that
//! land during the encode join the next batch. A cut-over swaps the codec
//! under both locks ([`ShardCore::cut_over`]), at a flush boundary.
//!
//! A pull takes the flush lock only when its cluster has rows pending or
//! mid-encode ([`ShardCore::owes`]): to flush them, or to wait out the
//! flush that has them, so it reads its own writes. Then, under the core,
//! it takes its run of codes into a workspace from the shard's pool
//! ([`ShardCore::take_run`]) and a clone of the codec's `Arc`, and decodes
//! with no lock held ([`Decoding::decode`]) — beside the shard's flushes
//! and its other pulls. A `Subscribe` takes the core alone. Streamed
//! delivery decodes under the core, in the core's own workspace.
//!
//! Flushes on one shard are serialised by its flush lock, so rows are
//! stored in push order, and only a flush's last step stores rows — with
//! the core held until it has delivered them. So *whenever the core's
//! lock is free, a cluster with a live subscriber stores nothing*, and its
//! rows reach each outbox in push order because nothing else can run in
//! between.
//!
//! # The door
//!
//! Every lock the gateway takes is taken by [`Door::enter`] around a
//! closure — a shard's two by [`Door::enter_timed`], which records how
//! long each took to take — and a core's by [`Shard::enter`]: the one
//! writer of the gate (so mirror ≡ truth whenever the core's lock is
//! free) and the one waker of the deadline timer (for a batch left
//! pending with its times moved; a flush empties the gate and wakes
//! nobody). The door decides the poison policy once — **the gateway
//! fails whole**: a panic out of a closure, on any thread, closes it (the
//! shutdown flag, without the drain), and so does a lock found poisoned,
//! whose request fails (`ErrorReply { code: Internal }`); a shard whose
//! flush lock is poisoned — a panic mid-encode holds no core lock — has
//! failed whole too, and so has one whose lock-free decode panicked
//! ([`Shard::unlocked`] closes the door as it unwinds). Pushes then draw
//! `ShuttingDown`, the timer and the TCP acceptor exit, and healthy
//! shards' stored rows stay pullable.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::num::{NonZeroU64, NonZeroUsize};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::thread::Thread;

use orco_obs::{Histogram, Span, SpanKind, Tracer};
use orco_tensor::{MatView, Matrix};
use orcodcs::{Codec, FineTuneMonitor, FrameDims, OrcoError, Workspace};

use crate::clock::Clock;
use crate::outbox::Outbox;
use crate::protocol::{FrameRows, Message};
use crate::stats::{FlushReason, ServeStats};

/// Deterministic sampling of decoded reconstructions through a
/// [`FineTuneMonitor`]: every `every`-th flushed row is decoded back and
/// scored against its raw frame, so the gateway notices a drifting field
/// distribution from the data it is already serving. The sample schedule
/// is a pure function of the row sequence — no wall clock, no RNG — so
/// drift trips replay bit-identically under the DES harness.
pub(crate) struct DriftProbe {
    monitor: FineTuneMonitor,
    /// Sample every `every`-th flushed row.
    every: NonZeroU64,
    /// Rows seen since the probe was created or reset.
    seen: u64,
    /// The monitor's windowed error as of the latest sample; survives
    /// the trip acknowledgement so the rollback guard reads a stable
    /// value.
    last_windowed: Option<f32>,
}

impl DriftProbe {
    pub(crate) fn new(every: NonZeroU64, threshold: f32, window: NonZeroUsize) -> Self {
        Self {
            monitor: FineTuneMonitor::new(threshold, window.get()),
            every,
            seen: 0,
            last_windowed: None,
        }
    }
}

/// The two times a shard's pending batch falls due from, as
/// `[armed, wanted]`: the enqueue time of its oldest row, and of its
/// first row a subscriber is waiting for. Both `None` when nothing is
/// pending; `wanted` is `None` while no subscribed cluster has a row in
/// the batch, and never earlier than `armed`.
pub(crate) type GateTimes = [Option<f64>; 2];

/// When a batch with these gate times is due: `deadline_s` after it was
/// armed, or `hold_s` after it became wanted, whichever is earlier.
/// `None` when nothing is pending.
pub(crate) fn due_at([armed, wanted]: GateTimes, deadline_s: f64, hold_s: f64) -> Option<f64> {
    let due = armed? + deadline_s;
    Some(wanted.map_or(due, |wanted| due.min(wanted + hold_s)))
}

/// A lock-free mirror of the facts other threads ask a shard on every
/// dispatch and every turn of the deadline timer — "is a batch overdue?",
/// "is someone waiting on it?" — written only by [`Shard::enter`]. A
/// reader that acts on the mirror still takes the lock and re-checks the
/// truth, so a stale read costs a skipped or a wasted look, never a wrong
/// flush.
pub(crate) struct ShardGate {
    /// f64 bits of the pending batch's `oldest_enqueue_s`, or
    /// [`Self::NEVER`].
    armed: AtomicU64,
    /// f64 bits of the pending batch's `wanted_since_s`, or
    /// [`Self::NEVER`].
    wanted: AtomicU64,
}

impl ShardGate {
    /// What a slot holds while it has no time to tell. As f64 bits this
    /// is a NaN, which no clock reading is.
    const NEVER: u64 = u64::MAX;

    /// Both mirrored times. Two loads, not one snapshot: a reader that
    /// straddles a push or a flush may pair times of two batches, which
    /// costs it a wasted look or a short sleep — a push that moves either
    /// time earlier wakes the timer after storing it.
    pub(crate) fn times(&self) -> GateTimes {
        [Self::load(&self.armed), Self::load(&self.wanted)]
    }

    fn load(slot: &AtomicU64) -> Option<f64> {
        // Acquire: pairs with the Release stores in `set` — a sweeper
        // that sees the batch armed (or wanted) and then takes the lock
        // finds those rows pending.
        let bits = slot.load(Ordering::Acquire);
        (bits != Self::NEVER).then(|| f64::from_bits(bits))
    }

    /// The gate's one writer; the caller holds the core's lock.
    fn set(&self, times: GateTimes) {
        for (slot, at) in [&self.armed, &self.wanted].into_iter().zip(times) {
            // Release: publishes the time (or the clear) to the Acquire
            // load in `load`.
            slot.store(at.map_or(Self::NEVER, f64::to_bits), Ordering::Release);
        }
    }
}

/// A lock found poisoned at the [`Door`]: the gateway has failed.
pub(crate) struct Failed;

/// The one door to a gateway's state (see the module doc). Closed, it is
/// the gateway's shutdown flag: raised by `Shutdown` or by a failure at
/// the door, never lowered.
#[derive(Default)]
pub(crate) struct Door {
    closed: AtomicBool,
    /// The deadline timer's thread once it runs (TCP mode); never set
    /// under a virtual clock.
    timer: OnceLock<Thread>,
}

impl Door {
    pub(crate) fn is_closed(&self) -> bool {
        // SeqCst: pairs with the store in `close` — after a client
        // observes the flag, every pre-shutdown flush must also be
        // visible to it.
        self.closed.load(Ordering::SeqCst)
    }

    /// Closes the door and wakes the deadline timer to see it.
    pub(crate) fn close(&self) {
        // SeqCst: globally ordered before a shutdown's drain flushes, so
        // no worker accepts work after the flag rises.
        self.closed.store(true, Ordering::SeqCst);
        self.wake_timer();
    }

    /// Registers the calling thread as the deadline timer; a second one
    /// would stay unregistered and merely look once per idle sleep.
    pub(crate) fn register_timer(&self) {
        let _ = self.timer.set(std::thread::current());
    }

    fn wake_timer(&self) {
        if let Some(timer) = self.timer.get() {
            timer.unpark();
        }
    }

    /// Runs `f` on what `lock` guards, or closes the door and fails if
    /// the lock is poisoned. A panic out of `f` closes the door before
    /// the lock is released (and poisoned).
    pub(crate) fn enter<T, R>(
        &self,
        lock: &Mutex<T>,
        f: impl FnOnce(&mut T) -> R,
    ) -> Result<R, Failed> {
        let Ok(mut guard) = lock.lock() else {
            self.close();
            return Err(Failed);
        };
        let _on_unwind = CloseOnUnwind(self, None);
        Ok(f(&mut guard))
    }

    /// [`Self::enter`], recording into `waits` how long the lock took to
    /// take on `clock` (0 under a manual clock, which only dispatches
    /// move).
    pub(crate) fn enter_timed<T, R>(
        &self,
        lock: &Mutex<T>,
        clock: &Clock,
        waits: &Histogram,
        f: impl FnOnce(&mut T) -> R,
    ) -> Result<R, Failed> {
        let asked = clock.now_s();
        self.enter(lock, |guarded| {
            waits.record_secs(clock.now_s() - asked);
            f(guarded)
        })
    }
}

/// Closes its door if dropped by a panic — and, for a decode run with no
/// lock held, fails its shard.
struct CloseOnUnwind<'a>(&'a Door, Option<&'a AtomicBool>);

impl Drop for CloseOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            if let Some(failed) = self.1 {
                // SeqCst: ordered before the door's close below, so a
                // request that sees the door closed sees the shard failed.
                failed.store(true, Ordering::SeqCst);
            }
            self.0.close();
        }
    }
}

/// A shard: its flush lock and its core, each under its own lock (flush
/// first, then core), the core's gate beside them, and the pool of
/// workspaces its pulls decode in.
pub(crate) struct Shard {
    flush: Mutex<FlushSide>,
    core: Mutex<ShardCore>,
    /// One workspace per pull decoding at once, made on demand and reused:
    /// a leaf lock, held to pop one or push one back.
    pulls: Mutex<Vec<Decoding>>,
    /// Raised by a panic in a decode run with no lock held: the shard has
    /// then failed as if the panic had poisoned its flush lock.
    failed: AtomicBool,
    pub(crate) gate: ShardGate,
}

impl Shard {
    pub(crate) fn new(index: usize, codec: Arc<dyn Codec>, drift: Option<DriftProbe>) -> Self {
        let dims = codec.frame_dims();
        let never = || AtomicU64::new(ShardGate::NEVER);
        Self {
            flush: Mutex::new(FlushSide::new(dims, drift)),
            core: Mutex::new(ShardCore::new(index, dims, codec)),
            pulls: Mutex::new(Vec::new()),
            failed: AtomicBool::new(false),
            gate: ShardGate { armed: never(), wanted: never() },
        }
    }

    /// Fails the shard's caller if a panic has failed the shard: one that
    /// poisoned its flush lock (a panic mid-encode holds no core lock to
    /// poison), or one in a decode that held no lock at all.
    fn check(&self, door: &Door) -> Result<(), Failed> {
        // SeqCst: pairs with the store in `CloseOnUnwind::drop`.
        if self.flush.is_poisoned() || self.failed.load(Ordering::SeqCst) {
            door.close();
            return Err(Failed);
        }
        Ok(())
    }

    /// [`Door::enter_timed`] on the core, mirroring it into the gate
    /// after `f`.
    pub(crate) fn enter<R>(
        &self,
        door: &Door,
        clock: &Clock,
        waits: &Histogram,
        f: impl FnOnce(&mut ShardCore) -> R,
    ) -> Result<R, Failed> {
        self.check(door)?;
        door.enter_timed(&self.core, clock, waits, |core| {
            let done = f(core);
            let truth = core.gate_truth();
            if self.gate.times() != truth {
                self.gate.set(truth);
                // Still pending, so a push armed the batch or made it
                // wanted, a `Subscribe` made it wanted, or a failed
                // encode put its rows back: its due-time moved earlier.
                if truth[0].is_some() {
                    door.wake_timer();
                }
            }
            done
        })
    }

    /// [`Door::enter_timed`] on the flush lock. Whoever holds it may enter
    /// the core; a core's holder never waits for it.
    pub(crate) fn enter_flush<R>(
        &self,
        door: &Door,
        clock: &Clock,
        waits: &Histogram,
        f: impl FnOnce(&mut FlushSide) -> R,
    ) -> Result<R, Failed> {
        self.check(door)?;
        door.enter_timed(&self.flush, clock, waits, f)
    }

    /// A decode workspace from the pool, or a new one when every pooled
    /// one is in use.
    pub(crate) fn decoding(&self, door: &Door) -> Result<Decoding, Failed> {
        Ok(door.enter(&self.pulls, Vec::pop)?.unwrap_or_else(Decoding::new))
    }

    /// Returns a decode workspace to the pool.
    pub(crate) fn give_back(&self, door: &Door, decoding: Decoding) -> Result<(), Failed> {
        door.enter(&self.pulls, |pool| pool.push(decoding))
    }

    /// Runs `f` with none of the shard's locks held. A panic out of it
    /// fails the shard and closes the door, as a panic under the flush
    /// lock would.
    pub(crate) fn unlocked<R>(&self, door: &Door, f: impl FnOnce() -> R) -> R {
        let _on_unwind = CloseOnUnwind(door, Some(&self.failed));
        f()
    }
}

/// When the batch a flush took was armed, and since when it was wanted:
/// what its stats are measured from, or what it is put back with.
#[derive(Clone, Copy)]
pub(crate) struct Taken {
    armed: f64,
    wanted: Option<f64>,
}

/// What a decode works in: the run of codes it decodes, and the codec's
/// workspace.
pub(crate) struct Decoding {
    codes: Matrix,
    ws: Workspace,
}

impl Decoding {
    fn new() -> Self {
        Self { codes: Matrix::zeros(0, 0), ws: Workspace::default() }
    }

    /// Decodes the run [`ShardCore::take_run`] left here in ONE
    /// `decode_batch_with` call, into a fresh matrix the reply owns.
    /// Whichever version encoded the run, its decoder is `codec`'s.
    ///
    /// # Errors
    ///
    /// Propagates codec shape errors.
    pub(crate) fn decode(&mut self, codec: &dyn Codec) -> Result<Matrix, OrcoError> {
        let mut frames = Matrix::zeros(0, 0);
        codec.decode_batch_with(&mut self.ws, self.codes.as_view(), &mut frames)?;
        Ok(frames)
    }
}

/// The flush half of a shard: the batch a flush is encoding, and what the
/// encode and its drift sampling work in.
pub(crate) struct FlushSide {
    /// Decoded-sample drift monitor (None = drift detection disabled).
    drift: Option<DriftProbe>,
    /// Reused 1-row workspaces for drift sampling.
    drift_in_ws: Matrix,
    drift_out_ws: Matrix,
    dims: FrameDims,
    /// The raw rows of the batch being flushed, taken from the core's
    /// pending batch in exchange for this buffer, emptied: between
    /// flushes it is empty, and the two buffers trade places every flush
    /// without allocating.
    batch_data: Vec<f32>,
    /// Reused `encode_batch_with` output.
    codes_ws: Matrix,
    /// The codec's workspace for the encode and the drift decodes.
    ws: Workspace,
}

impl FlushSide {
    fn new(dims: FrameDims, drift: Option<DriftProbe>) -> Self {
        Self {
            drift,
            drift_in_ws: Matrix::zeros(0, 0),
            drift_out_ws: Matrix::zeros(0, 0),
            dims,
            batch_data: Vec::new(),
            codes_ws: Matrix::zeros(0, 0),
            ws: Workspace::default(),
        }
    }

    /// The drift monitor's current windowed error (None while the
    /// window is refilling or drift detection is disabled). The
    /// rollback guard compares this against its threshold.
    pub(crate) fn drift_windowed_error(&self) -> Option<f32> {
        self.drift.as_ref().and_then(|p| p.last_windowed)
    }

    /// Starts the drift history over, so the guard judges only the
    /// encoder a cut-over installs.
    pub(crate) fn restart_drift(&mut self) {
        if let Some(probe) = &mut self.drift {
            probe.monitor.acknowledge();
            probe.last_windowed = None;
        }
    }

    /// Encodes the taken batch with `codec` in ONE `encode_batch_with`
    /// call, then samples it for drift: a flush's middle step, which runs
    /// with the core's lock free.
    ///
    /// # Errors
    ///
    /// Propagates codec shape errors (impossible for frames admitted by
    /// the gateway's width check, but surfaced rather than unwrapped).
    pub(crate) fn encode(
        &mut self,
        codec: &dyn Codec,
        stats: &ServeStats,
    ) -> Result<(), OrcoError> {
        let rows = self.batch_data.len() / self.dims.input;
        let view = MatView::new(rows, self.dims.input, &self.batch_data)?;
        codec.encode_batch_with(&mut self.ws, view, &mut self.codes_ws)?;
        self.sample_drift(codec, rows, stats)
    }

    /// Feeds every `every`-th row of the just-encoded batch through a
    /// decode and scores the reconstruction against the raw frame,
    /// recording the error into the drift monitor. Both the raw row
    /// (`batch_data`) and its code (`codes_ws`) are live until the batch
    /// is stored. Trips surface as `drift_trips`/`drift` in
    /// [`ServeStats`].
    fn sample_drift(
        &mut self,
        codec: &dyn Codec,
        rows: usize,
        stats: &ServeStats,
    ) -> Result<(), OrcoError> {
        let Some(probe) = &mut self.drift else {
            return Ok(());
        };
        for r in 0..rows {
            probe.seen += 1;
            if !probe.seen.is_multiple_of(probe.every.get()) {
                continue;
            }
            self.drift_in_ws.reset(1, self.dims.code);
            self.drift_in_ws.as_view_mut().as_mut_slice().copy_from_slice(self.codes_ws.row(r));
            codec.decode_batch_with(
                &mut self.ws,
                self.drift_in_ws.as_view(),
                &mut self.drift_out_ws,
            )?;
            let raw = &self.batch_data[r * self.dims.input..(r + 1) * self.dims.input];
            let recon = self.drift_out_ws.row(0);
            let mse = raw
                .iter()
                .zip(recon)
                .map(|(a, b)| {
                    let d = a - b;
                    d * d
                })
                .sum::<f32>()
                / self.dims.input as f32;
            probe.monitor.record(mse);
            probe.last_windowed = probe.monitor.windowed_error();
            if probe.monitor.should_retrain() {
                stats.record_drift_trip();
                probe.monitor.acknowledge();
            }
        }
        Ok(())
    }
}

/// Everything the shard holds for one cluster. A record exists while it
/// has stored rows or a live subscriber.
#[derive(Default)]
struct ClusterState {
    /// Encoded rows awaiting delivery, flat (`dims.code` per row),
    /// oldest first.
    codes: VecDeque<f32>,
    /// `(trace id, producing model version)` of each stored row — the
    /// trace closes the causal chain at delivery (0 = untraced), the
    /// version tags the delivery that carries the row.
    rows: VecDeque<(u64, u64)>,
    /// Outboxes of the connections subscribed to this cluster. `Weak`,
    /// so a vanished connection unsubscribes itself.
    subscribers: Vec<Weak<Outbox>>,
}

impl ClusterState {
    /// Forgets subscribers whose connection is gone; `false` once
    /// nothing is left to keep the record for.
    fn is_live(&mut self) -> bool {
        self.subscribers.retain(|w| w.strong_count() > 0);
        !(self.rows.is_empty() && self.subscribers.is_empty())
    }
}

/// The core half of a shard: the codec it serves with, and what a push
/// needs — the pending batch, the stored rows and their subscribers, the
/// in-flight rows and the truth the gate mirrors. Model versions differ
/// only in the encoder: every version's codec carries the same decoder,
/// so the codec decodes the stored rows of every version the shard has
/// served.
pub(crate) struct ShardCore {
    /// This shard's index in the gateway (labels stats and trace spans).
    index: usize,
    dims: FrameDims,
    /// The codec the shard serves with: immutable, so a flush encodes and
    /// a pull decodes through a clone of the `Arc` with the core free.
    codec: Arc<dyn Codec>,
    /// Id of the model version whose encoder the codec carries.
    version: u64,
    /// Where streamed delivery decodes, under the core.
    streaming: Decoding,
    /// Pending raw frames, row-major, `dims.input` wide.
    pending_data: Vec<f32>,
    /// `(cluster, trace id)` of each pending row: the cluster routes the
    /// row's code after the flush, the trace (0 = untraced) rides along.
    pending: Vec<(u64, u64)>,
    /// Enqueue time of the oldest pending row; meaningful only while
    /// `pending` is non-empty.
    oldest_enqueue_s: f64,
    /// Since when a subscriber has been waiting on the pending batch:
    /// the enqueue time of its first row for a cluster with a
    /// subscriber, or the time a `Subscribe` found such rows pending.
    /// `None` while nobody waits (and while nothing is pending).
    wanted_since_s: Option<f64>,
    /// `(cluster, trace id)` of each row a flush has taken and not yet
    /// stored, in the pending batch's order; empty between flushes, when
    /// it holds the buffer the next flush takes the pending list into.
    encoding: Vec<(u64, u64)>,
    /// Stored rows and subscribers, per cluster.
    clusters: BTreeMap<u64, ClusterState>,
    /// Total stored rows across `clusters`.
    stored_rows: usize,
}

impl ShardCore {
    fn new(index: usize, dims: FrameDims, codec: Arc<dyn Codec>) -> Self {
        Self {
            index,
            dims,
            codec,
            version: 0,
            streaming: Decoding::new(),
            pending_data: Vec::new(),
            pending: Vec::new(),
            oldest_enqueue_s: 0.0,
            wanted_since_s: None,
            encoding: Vec::new(),
            clusters: BTreeMap::new(),
            stored_rows: 0,
        }
    }

    /// The codec the shard serves with — the active version's, shared by
    /// every shard — and what a pull decodes with.
    pub(crate) fn codec(&self) -> &Arc<dyn Codec> {
        &self.codec
    }

    /// Id of the model version whose encoder the codec carries.
    pub(crate) fn version(&self) -> u64 {
        self.version
    }

    /// Makes `codec`, version `id`'s one codec shared by every shard, the
    /// one that serves, and drops the shard's hold on the old one: its
    /// stored rows decode through the same decoder. The caller holds the
    /// flush lock and has flushed under the old codec first, so no flush
    /// ever mixes model versions and no frame is dropped.
    pub(crate) fn cut_over(&mut self, id: u64, codec: Arc<dyn Codec>) {
        self.codec = codec;
        self.version = id;
    }

    /// What the gate should say: when the pending batch was armed, and
    /// since when it is wanted.
    pub(crate) fn gate_truth(&self) -> GateTimes {
        [(!self.pending.is_empty()).then_some(self.oldest_enqueue_s), self.wanted_since_s]
    }

    pub(crate) fn pending_rows(&self) -> usize {
        self.pending.len()
    }

    /// Rows currently charged against the shard's capacity budget:
    /// pending, mid-encode and stored.
    pub(crate) fn in_flight(&self) -> usize {
        self.pending_rows() + self.encoding.len() + self.stored_rows
    }

    /// Whether the pending micro-batch holds rows for `cluster`. Scans at
    /// most `batch_max_frames` entries — cheap, and it lets a pull flush
    /// only when the puller would otherwise miss its own frames, instead
    /// of collapsing *other* clusters' half-built batches.
    pub(crate) fn has_pending_for(&self, cluster: u64) -> bool {
        self.pending.iter().any(|&(c, _)| c == cluster)
    }

    /// Whether rows of `cluster` are pending or mid-encode: what a pull
    /// must flush, or wait for a flush to store, to read its own writes.
    pub(crate) fn owes(&self, cluster: u64) -> bool {
        self.has_pending_for(cluster) || self.encoding.iter().any(|&(c, _)| c == cluster)
    }

    /// Encoded rows currently stored for `cluster` (awaiting pull or
    /// streaming delivery).
    pub(crate) fn stored_rows_for(&self, cluster: u64) -> usize {
        self.clusters.get(&cluster).map_or(0, |state| state.rows.len())
    }

    /// Appends a push to the pending micro-batch — straight from the
    /// frame's bytes when it came off the wire — or refuses it when the
    /// in-flight budget would be exceeded (the caller replies `Busy`).
    pub(crate) fn try_enqueue(
        &mut self,
        cluster: u64,
        trace: u64,
        frames: impl FrameRows,
        now_s: f64,
        capacity: usize,
    ) -> bool {
        let rows = frames.rows();
        if self.in_flight() + rows > capacity {
            return false;
        }
        if self.pending.is_empty() {
            self.oldest_enqueue_s = now_s;
        }
        // The list as the last delivery pruned it: a connection that
        // vanished without `Unsubscribe` makes one more batch wanted,
        // whose flush forgets it.
        if self.wanted_since_s.is_none()
            && self.clusters.get(&cluster).is_some_and(|state| !state.subscribers.is_empty())
        {
            self.wanted_since_s = Some(now_s);
        }
        frames.append_to(&mut self.pending_data);
        self.pending.extend(std::iter::repeat_n((cluster, trace), rows));
        true
    }

    /// A flush's first step: hands the pending batch's rows to `side` in
    /// exchange for its emptied buffer, moves their `(cluster, trace)`
    /// list to the rows mid-encode, so nothing allocates, and disarms the
    /// gate; returns the codec to encode with. The rows stay in flight
    /// until [`Self::store`] files them or [`Self::put_back`] returns
    /// them. `None` when nothing is pending.
    pub(crate) fn take_batch(&mut self, side: &mut FlushSide) -> Option<(Taken, Arc<dyn Codec>)> {
        if self.pending.is_empty() {
            return None;
        }
        let taken = Taken { armed: self.oldest_enqueue_s, wanted: self.wanted_since_s.take() };
        std::mem::swap(&mut self.pending_data, &mut side.batch_data);
        std::mem::swap(&mut self.pending, &mut self.encoding);
        Some((taken, Arc::clone(&self.codec)))
    }

    /// A flush's last step, after `side` encoded the batch it took: files
    /// the code rows into their clusters' records under the active
    /// version, and streams them on to the clusters' live subscribers.
    /// The batch's emptied buffers stay for the next flush.
    pub(crate) fn store(
        &mut self,
        side: &mut FlushSide,
        taken: Taken,
        now_s: f64,
        reason: FlushReason,
        stats: &ServeStats,
        tracer: &Tracer,
    ) {
        let rows = self.encoding.len();
        for (r, &(cluster, trace)) in self.encoding.iter().enumerate() {
            let state = self.clusters.entry(cluster).or_default();
            state.codes.extend(side.codes_ws.row(r).iter().copied());
            state.rows.push_back((trace, self.version));
        }
        self.stored_rows += rows;
        stats.record_flush(self.index, rows as u64, now_s - taken.armed, reason);
        if tracer.enabled() {
            // One Flush + Store span per contiguous (cluster, trace) run.
            // Pushes append rows contiguously, so runs are push-granular.
            for run in self.encoding.chunk_by(|a, b| a == b).filter(|run| run[0].1 != 0) {
                let base = Span {
                    trace_id: run[0].1,
                    kind: SpanKind::Flush,
                    cluster_id: run[0].0,
                    shard: self.index as u16,
                    rows: run.len() as u32,
                    at_s: now_s,
                    detail: reason.as_str(),
                };
                tracer.record(base);
                tracer.record(Span { kind: SpanKind::Store, detail: "", ..base });
            }
        }
        side.batch_data.clear();
        // The batch is stored: deliver to each flushed cluster (once — a
        // repeat visit finds nothing stored) from the list whose buffer
        // goes back to the next batch.
        let mut flushed = std::mem::take(&mut self.encoding);
        flushed.dedup_by_key(|&mut (cluster, _)| cluster);
        for &(cluster, _) in &flushed {
            self.deliver(cluster, now_s, stats, tracer);
        }
        flushed.clear();
        self.encoding = flushed;
    }

    /// Undoes [`Self::take_batch`] after a failed encode: the taken rows
    /// go back to the head of the pending batch, ahead of any pushed
    /// since, as if the flush had never started.
    pub(crate) fn put_back(&mut self, side: &mut FlushSide, taken: Taken) {
        side.batch_data.extend_from_slice(&self.pending_data);
        self.encoding.extend_from_slice(&self.pending);
        self.pending_data.clear();
        self.pending.clear();
        std::mem::swap(&mut self.pending_data, &mut side.batch_data);
        std::mem::swap(&mut self.pending, &mut self.encoding);
        self.oldest_enqueue_s = taken.armed;
        self.wanted_since_s = match (taken.wanted, self.wanted_since_s) {
            (Some(then), Some(since)) => Some(then.min(since)),
            (then, since) => then.or(since),
        };
    }

    /// Streams everything stored for `cluster` to its live subscribers,
    /// if it has any: one `StreamFrames` per single-version run (mid-swap
    /// a backlog can span model versions, and every delivery stays
    /// version-pure), encoded once and pushed to each outbox (copied for
    /// all but the last). Decodes in the core's own workspace.
    fn deliver(&mut self, cluster: u64, now_s: f64, stats: &ServeStats, tracer: &Tracer) {
        let Some(state) = self.clusters.get_mut(&cluster) else {
            return;
        };
        // Upgrade once, forgetting the connections that are gone.
        let mut live: Vec<Arc<Outbox>> = Vec::new();
        state.subscribers.retain(|w| w.upgrade().map(|outbox| live.push(outbox)).is_some());
        let Some(last) = live.pop() else {
            return;
        };
        let mut decoding = std::mem::replace(&mut self.streaming, Decoding::new());
        while let Some((version, rows)) =
            self.take_run(&mut decoding, cluster, usize::MAX, now_s, tracer, true)
        {
            match decoding.decode(&*self.codec) {
                Ok(frames) => {
                    let bytes = (rows * self.dims.input * 4) as u64;
                    stats.record_streamed(self.index, rows as u64, bytes);
                    let frame =
                        Message::StreamFrames { cluster_id: cluster, version, frames }.encode();
                    for outbox in &live {
                        outbox.push_frame(frame.clone());
                    }
                    last.push_frame(frame);
                }
                Err(e) => {
                    eprintln!("orco-serve: streaming pull for cluster {cluster} failed: {e}");
                    break;
                }
            }
        }
        self.streaming = decoding;
    }

    /// Subscribes `outbox` to `cluster` (once, however often it asks) and
    /// streams the cluster's stored backlog to its subscribers. Rows of
    /// the cluster still pending are waited on from now.
    pub(crate) fn subscribe(
        &mut self,
        cluster: u64,
        outbox: &Arc<Outbox>,
        now_s: f64,
        stats: &ServeStats,
        tracer: &Tracer,
    ) {
        // The one place records are made without rows: sweep out those
        // whose subscribers all vanished, so the map is bounded by live
        // state however many clusters were once subscribed to.
        self.clusters.retain(|_, state| state.is_live());
        let subscribers = &mut self.clusters.entry(cluster).or_default().subscribers;
        if !subscribers.iter().any(|w| std::ptr::eq(w.as_ptr(), Arc::as_ptr(outbox))) {
            subscribers.push(Arc::downgrade(outbox));
        }
        self.deliver(cluster, now_s, stats, tracer);
        if self.wanted_since_s.is_none() && self.has_pending_for(cluster) {
            self.wanted_since_s = Some(now_s);
        }
    }

    /// Removes `outbox`'s subscription to `cluster`, if it has one.
    pub(crate) fn unsubscribe(&mut self, cluster: u64, outbox: &Arc<Outbox>) {
        if let Some(state) = self.clusters.get_mut(&cluster) {
            state.subscribers.retain(|w| !std::ptr::eq(w.as_ptr(), Arc::as_ptr(outbox)));
            if !state.is_live() {
                self.clusters.remove(&cluster);
            }
        }
    }

    /// Ends every subscription on this shard: closing the outboxes wakes
    /// blocked writers and shows streaming clients end-of-stream.
    pub(crate) fn end_subscriptions(&self) {
        for outbox in self.clusters.values().flat_map(|s| &s.subscribers).filter_map(Weak::upgrade)
        {
            outbox.close();
        }
    }

    /// Takes up to `max` of the cluster's oldest stored codes into
    /// `decoding`, for [`Decoding::decode`], and returns `(producing
    /// version, rows)`; `None` when the cluster has nothing stored. A run
    /// never mixes model versions: it is capped at the oldest contiguous
    /// same-version run. `streamed` picks the span kind (client pull vs
    /// streaming fan-out).
    pub(crate) fn take_run(
        &mut self,
        decoding: &mut Decoding,
        cluster: u64,
        max: usize,
        now_s: f64,
        tracer: &Tracer,
        streamed: bool,
    ) -> Option<(u64, usize)> {
        // The oldest run of one model version, capped at `max` rows.
        let state = self.clusters.get_mut(&cluster)?;
        let &(_, version) = state.rows.front()?;
        let k = state.rows.iter().take_while(|(_, v)| *v == version).count().min(max);
        if k == 0 {
            return None;
        }
        decoding.codes.reset(k, self.dims.code);
        let mut dst = decoding.codes.as_view_mut();
        for (slot, v) in dst.as_mut_slice().iter_mut().zip(state.codes.drain(..k * self.dims.code))
        {
            *slot = v;
        }
        if tracer.enabled() {
            // One delivery span per contiguous run of the same trace id,
            // mirroring the push-granular grouping on the ingest side.
            // Nothing records a span between here and the decode.
            let kind = if streamed { SpanKind::Stream } else { SpanKind::Pull };
            let rows = &state.rows.make_contiguous()[..k];
            for run in rows.chunk_by(|a, b| a.0 == b.0).filter(|run| run[0].0 != 0) {
                tracer.record(Span {
                    trace_id: run[0].0,
                    kind,
                    cluster_id: cluster,
                    shard: self.index as u16,
                    rows: run.len() as u32,
                    at_s: now_s,
                    detail: "",
                });
            }
        }
        state.rows.drain(..k);
        if !state.is_live() {
            self.clusters.remove(&cluster);
        }
        self.stored_rows -= k;
        Some((version, k))
    }
}
