//! One shard of the gateway: a codec, its micro-batcher, and the encoded
//! store for the clusters hashed onto it.
//!
//! A shard is the unit of both parallelism and memory accounting. It owns:
//!
//! * **its codec** — no cross-shard sharing, so encode/decode never
//!   contends on model state;
//! * **the pending micro-batch** — raw frames accumulated across pushes
//!   (possibly from several clusters; rows are independent, so one flush
//!   serves them all) and flushed as **one** `encode_batch` call;
//! * **reusable workspaces** — the encode output and decode input
//!   matrices are `Matrix::reset` per call, a flush trades the pending
//!   batch's buffers for the emptied ones of the batch before, and a
//!   push's rows are appended to the pending batch straight from whatever
//!   holds them — the bytes of the frame that carried them, on the wire
//!   path — so the steady-state ingest path performs no allocation from
//!   client to shard: the client's encode, the gateway's parse, the
//!   enqueue, the flush and its encode, and the ack
//!   (`tests/codec_no_alloc.rs` at the workspace root counts zero). A
//!   pull's decoded rows are *moved* into the reply (the reply must own
//!   its payload), costing one allocation per pull and zero extra copies
//!   (the same file counts one);
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
//! taken **codec side, then core** — a core's holder never waits for a
//! codec:
//!
//! * [`CodecSide`] — the codec, the drift probe, and the encode/decode
//!   workspaces;
//! * [`ShardCore`] — the pending batch, the per-cluster store and its
//!   subscribers, the in-flight count, and the truth the gate mirrors.
//!
//! A push takes the core alone, unless it fills its batch. Whatever uses
//! a codec takes the codec side first: a flush (size, deadline, pull,
//! drain or swap), a `Subscribe`, a pull, and the rollout's stage, cut
//! over and rollback. A flush holds the codec side throughout, in three
//! steps: under the core, it takes the pending batch and disarms the gate
//! ([`ShardCore::take_batch`]; the rows stay in flight); with the core
//! free, it encodes the batch and samples it for drift
//! ([`CodecSide::encode`]); under the core again, it files the codes under
//! the active version and delivers them ([`ShardCore::store`]) — or, if
//! the encode failed, puts the rows back at the head of the pending
//! batch ([`ShardCore::put_back`]). Pushes that land during the encode
//! join the next batch. A pull flushes its own pending rows the same way,
//! takes its run of codes under the core ([`ShardCore::take_run`]) and
//! decodes it with the core free ([`CodecSide::decode_run`]). Streamed
//! delivery decodes under the core.
//!
//! Flushes on one shard are serialised by its codec side, so rows are
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
//! codec side is poisoned — a panic mid-encode holds no core lock — has
//! failed whole too. Pushes then draw `ShuttingDown`, the timer and the
//! TCP acceptor exit, and healthy shards' stored rows stay pullable.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::num::{NonZeroU64, NonZeroUsize};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::thread::Thread;

use orco_obs::{Histogram, Span, SpanKind, Tracer};
use orco_tensor::{MatView, Matrix};
use orcodcs::{Codec, FineTuneMonitor, FrameDims, OrcoError};

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
        let _on_unwind = CloseOnUnwind(self);
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

/// Closes its door if dropped by a panic.
struct CloseOnUnwind<'a>(&'a Door);

impl Drop for CloseOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.close();
        }
    }
}

/// A shard: its codec side and its core, each under its own lock (codec
/// first, then core), and the core's gate beside them.
pub(crate) struct Shard {
    codec: Mutex<CodecSide>,
    core: Mutex<ShardCore>,
    pub(crate) gate: ShardGate,
}

impl Shard {
    pub(crate) fn new(index: usize, codec: Box<dyn Codec>, drift: Option<DriftProbe>) -> Self {
        let dims = codec.frame_dims();
        let never = || AtomicU64::new(ShardGate::NEVER);
        Self {
            codec: Mutex::new(CodecSide::new(codec, drift)),
            core: Mutex::new(ShardCore::new(index, dims)),
            gate: ShardGate { armed: never(), wanted: never() },
        }
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
        // A panic mid-encode holds no core lock to poison, only the
        // codec side's: either one poisoned fails the whole shard.
        if self.codec.is_poisoned() {
            door.close();
            return Err(Failed);
        }
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

    /// [`Door::enter_timed`] on the codec side. Whoever holds it may enter
    /// the core; a core's holder never waits for it.
    pub(crate) fn enter_codec<R>(
        &self,
        door: &Door,
        clock: &Clock,
        waits: &Histogram,
        f: impl FnOnce(&mut CodecSide) -> R,
    ) -> Result<R, Failed> {
        door.enter_timed(&self.codec, clock, waits, f)
    }
}

/// When the batch a flush took was armed, and since when it was wanted:
/// what its stats are measured from, or what it is put back with.
#[derive(Clone, Copy)]
pub(crate) struct Taken {
    armed: f64,
    wanted: Option<f64>,
}

/// The codec half of a shard: the one codec it serves with, and the
/// buffers it works in. A model version is an encoder: a cut-over grafts a
/// new one onto the same decoder, so this codec decodes the stored rows of
/// every version the shard has served.
pub(crate) struct CodecSide {
    codec: Box<dyn Codec>,
    /// Id of the model version whose encoder the codec carries.
    version: u64,
    /// Decoded-sample drift monitor (None = drift detection disabled).
    drift: Option<DriftProbe>,
    /// Reused 1-row workspaces for drift sampling.
    drift_in_ws: Matrix,
    drift_out_ws: Matrix,
    dims: FrameDims,
    /// The batch being flushed — its raw rows, and the `(cluster, trace)`
    /// of each — taken from the core's pending batch in exchange for
    /// these buffers, emptied: between flushes both are empty, and the
    /// two pairs of buffers trade places every flush without allocating.
    batch_data: Vec<f32>,
    batch: Vec<(u64, u64)>,
    /// Reused `encode_batch` output.
    codes_ws: Matrix,
    /// Reused `decode_batch` input / output.
    decode_in_ws: Matrix,
    decode_out_ws: Matrix,
}

impl CodecSide {
    fn new(codec: Box<dyn Codec>, drift: Option<DriftProbe>) -> Self {
        let dims = codec.frame_dims();
        Self {
            codec,
            version: 0,
            drift,
            drift_in_ws: Matrix::zeros(0, 0),
            drift_out_ws: Matrix::zeros(0, 0),
            dims,
            batch_data: Vec::new(),
            batch: Vec::new(),
            codes_ws: Matrix::zeros(0, 0),
            decode_in_ws: Matrix::zeros(0, 0),
            decode_out_ws: Matrix::zeros(0, 0),
        }
    }

    /// Id of the model version whose encoder the codec carries.
    pub(crate) fn version(&self) -> u64 {
        self.version
    }

    /// The codec: what a rollout stages the next version from
    /// ([`Codec::with_encoder`]) and captures the rollback target of
    /// ([`Codec::checkpoint`]).
    pub(crate) fn codec(&self) -> &dyn Codec {
        &*self.codec
    }

    /// The drift monitor's current windowed error (None while the
    /// window is refilling or drift detection is disabled). The
    /// rollback guard compares this against its threshold.
    pub(crate) fn drift_windowed_error(&self) -> Option<f32> {
        self.drift.as_ref().and_then(|p| p.last_windowed)
    }

    /// Makes `codec` — this codec with another encoder grafted on — the
    /// one that serves, as version `id`, and drops the old one: its
    /// stored rows decode through the same decoder. The drift history
    /// starts over, so the guard judges only the new encoder. The caller
    /// has flushed under the old codec first, so no flush ever mixes
    /// model versions and no frame is dropped.
    pub(crate) fn cut_over(&mut self, id: u64, codec: Box<dyn Codec>) {
        self.codec = codec;
        self.version = id;
        if let Some(probe) = &mut self.drift {
            probe.monitor.acknowledge();
            probe.last_windowed = None;
        }
    }

    /// Encodes the taken batch in ONE `encode_batch` call, then samples
    /// it for drift: a flush's middle step, which runs with the core's
    /// lock free.
    ///
    /// # Errors
    ///
    /// Propagates codec shape errors (impossible for frames admitted by
    /// the gateway's width check, but surfaced rather than unwrapped).
    pub(crate) fn encode(&mut self, stats: &ServeStats) -> Result<(), OrcoError> {
        let rows = self.batch.len();
        let view = MatView::new(rows, self.dims.input, &self.batch_data)?;
        self.codec.encode_batch(view, &mut self.codes_ws)?;
        self.sample_drift(rows, stats)
    }

    /// Feeds every `every`-th row of the just-encoded batch through a
    /// decode and scores the reconstruction against the raw frame,
    /// recording the error into the drift monitor. Both the raw row
    /// (`batch_data`) and its code (`codes_ws`) are live until the batch
    /// is stored. Trips surface as `drift_trips`/`drift` in
    /// [`ServeStats`].
    fn sample_drift(&mut self, rows: usize, stats: &ServeStats) -> Result<(), OrcoError> {
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
            self.codec.decode_batch(self.drift_in_ws.as_view(), &mut self.drift_out_ws)?;
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

    /// Decodes the run [`ShardCore::take_run`] left in the decode
    /// workspace in ONE `decode_batch` call. Whichever version encoded
    /// the run, its decoder is this codec's.
    ///
    /// # Errors
    ///
    /// Propagates codec shape errors.
    pub(crate) fn decode_run(&mut self) -> Result<Matrix, OrcoError> {
        self.codec.decode_batch(self.decode_in_ws.as_view(), &mut self.decode_out_ws)?;
        // Move the decoded rows into the reply instead of cloning them;
        // the reply owns the buffer and the next decode_batch regrows the
        // workspace. One allocation either way, but no second memcpy.
        Ok(std::mem::replace(&mut self.decode_out_ws, Matrix::zeros(0, 0)))
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

/// The core half of a shard: what a push needs — the pending batch, the
/// stored rows and their subscribers, the in-flight count and the truth
/// the gate mirrors.
pub(crate) struct ShardCore {
    /// This shard's index in the gateway (labels stats and trace spans).
    index: usize,
    dims: FrameDims,
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
    /// Rows a flush has taken and not yet stored.
    encoding_rows: usize,
    /// Stored rows and subscribers, per cluster.
    clusters: BTreeMap<u64, ClusterState>,
    /// Total stored rows across `clusters`.
    stored_rows: usize,
}

impl ShardCore {
    fn new(index: usize, dims: FrameDims) -> Self {
        Self {
            index,
            dims,
            pending_data: Vec::new(),
            pending: Vec::new(),
            oldest_enqueue_s: 0.0,
            wanted_since_s: None,
            encoding_rows: 0,
            clusters: BTreeMap::new(),
            stored_rows: 0,
        }
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
        self.pending_rows() + self.encoding_rows + self.stored_rows
    }

    /// Whether the pending micro-batch holds rows for `cluster`. Scans at
    /// most `batch_max_frames` entries — cheap, and it lets a pull flush
    /// only when the puller would otherwise miss its own frames, instead
    /// of collapsing *other* clusters' half-built batches.
    pub(crate) fn has_pending_for(&self, cluster: u64) -> bool {
        self.pending.iter().any(|&(c, _)| c == cluster)
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

    /// A flush's first step: hands the whole pending batch to `side` in
    /// exchange for its emptied buffers, so nothing allocates, and
    /// disarms the gate. The rows stay in flight until
    /// [`Self::store`] files them or [`Self::put_back`] returns them.
    /// `None` when nothing is pending.
    pub(crate) fn take_batch(&mut self, side: &mut CodecSide) -> Option<Taken> {
        if self.pending.is_empty() {
            return None;
        }
        let taken = Taken { armed: self.oldest_enqueue_s, wanted: self.wanted_since_s.take() };
        std::mem::swap(&mut self.pending_data, &mut side.batch_data);
        std::mem::swap(&mut self.pending, &mut side.batch);
        self.encoding_rows = side.batch.len();
        Some(taken)
    }

    /// A flush's last step, after `side` encoded the batch it took: files
    /// the code rows into their clusters' records under the active
    /// version, and streams them on to the clusters' live subscribers.
    /// The batch's emptied buffers stay with `side` for the next flush.
    pub(crate) fn store(
        &mut self,
        side: &mut CodecSide,
        taken: Taken,
        now_s: f64,
        reason: FlushReason,
        stats: &ServeStats,
        tracer: &Tracer,
    ) {
        let rows = side.batch.len();
        for (r, &(cluster, trace)) in side.batch.iter().enumerate() {
            let state = self.clusters.entry(cluster).or_default();
            state.codes.extend(side.codes_ws.row(r).iter().copied());
            state.rows.push_back((trace, side.version));
        }
        self.encoding_rows = 0;
        self.stored_rows += rows;
        stats.record_flush(self.index, rows as u64, now_s - taken.armed, reason);
        if tracer.enabled() {
            // One Flush + Store span per contiguous (cluster, trace) run.
            // Pushes append rows contiguously, so runs are push-granular.
            for run in side.batch.chunk_by(|a, b| a == b).filter(|run| run[0].1 != 0) {
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
        let mut flushed = std::mem::take(&mut side.batch);
        flushed.dedup_by_key(|&mut (cluster, _)| cluster);
        for &(cluster, _) in &flushed {
            self.deliver(side, cluster, now_s, stats, tracer);
        }
        flushed.clear();
        side.batch = flushed;
    }

    /// Undoes [`Self::take_batch`] after a failed encode: the taken rows
    /// go back to the head of the pending batch, ahead of any pushed
    /// since, as if the flush had never started.
    pub(crate) fn put_back(&mut self, side: &mut CodecSide, taken: Taken) {
        side.batch_data.extend_from_slice(&self.pending_data);
        side.batch.extend_from_slice(&self.pending);
        self.pending_data.clear();
        self.pending.clear();
        std::mem::swap(&mut self.pending_data, &mut side.batch_data);
        std::mem::swap(&mut self.pending, &mut side.batch);
        self.encoding_rows = 0;
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
    /// all but the last).
    fn deliver(
        &mut self,
        side: &mut CodecSide,
        cluster: u64,
        now_s: f64,
        stats: &ServeStats,
        tracer: &Tracer,
    ) {
        let Some(state) = self.clusters.get_mut(&cluster) else {
            return;
        };
        // Upgrade once, forgetting the connections that are gone.
        let mut live: Vec<Arc<Outbox>> = Vec::new();
        state.subscribers.retain(|w| w.upgrade().map(|outbox| live.push(outbox)).is_some());
        let Some(last) = live.pop() else {
            return;
        };
        while let Some((version, rows)) =
            self.take_run(side, cluster, usize::MAX, now_s, tracer, true)
        {
            match side.decode_run() {
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
                    return;
                }
            }
        }
    }

    /// Subscribes `outbox` to `cluster` (once, however often it asks) and
    /// streams the cluster's stored backlog to its subscribers. Rows of
    /// the cluster still pending are waited on from now.
    pub(crate) fn subscribe(
        &mut self,
        side: &mut CodecSide,
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
        self.deliver(side, cluster, now_s, stats, tracer);
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
    /// `side`'s decode workspace, for [`CodecSide::decode_run`], and
    /// returns `(producing version, rows)`; `None` when the cluster has
    /// nothing stored. A run never mixes model versions: it is capped at
    /// the oldest contiguous same-version run. `streamed` picks the span
    /// kind (client pull vs streaming fan-out).
    pub(crate) fn take_run(
        &mut self,
        side: &mut CodecSide,
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
        side.decode_in_ws.reset(k, self.dims.code);
        let mut dst = side.decode_in_ws.as_view_mut();
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
