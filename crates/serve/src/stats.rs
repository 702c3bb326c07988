//! The serving-statistics registry and its wire snapshot.
//!
//! Every shard and connection thread records into one shared
//! `ServeStats`, built on the typed primitives of [`orco_obs`]:
//! lock-free [`Counter`]s for the hot-path tallies, [`Gauge`]s that
//! clamp at zero instead of wrapping (a pull racing a flush recording
//! can momentarily read low, never ~`u64::MAX`), a log2-bucketed
//! [`Histogram`] carrying the full flush-latency distribution (the
//! snapshot's p50/p99 are read off it, as bucket upper bounds), and a
//! per-shard counter row so hot-shard skew is visible. Nothing here
//! takes a lock.
//!
//! A [`StatsSnapshot`] is the registry frozen at one instant; it travels
//! in [`crate::protocol::Message::StatsReply`] (and piggybacked on
//! `Heartbeat`) with the same fixed little-endian encoding as every
//! other payload. Under a [`crate::Clock::manual`] clock the snapshot is
//! a pure function of the message schedule — byte-identical across runs
//! and thread counts.

use orco_obs::{Counter, Gauge, Histogram, HistogramSnapshot, Registry};

use crate::protocol::ShardRow;

/// Upper bound on the shard count a [`StatsSnapshot`] may carry on the
/// wire (bounds the per-shard rows before any allocation, like
/// `MAX_MEMBERS` bounds membership lists).
pub(crate) const MAX_SHARDS: usize = 1024;

/// Why a micro-batch was flushed. Each reason has its own counter in
/// [`StatsSnapshot`], so `deadline_flushes` means *deadline* flushes —
/// shutdown drains and read-your-writes pulls no longer masquerade as
/// size flushes (they did before this enum existed, inflating the
/// size-flush count).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FlushReason {
    /// The pending batch reached `batch_max_frames`.
    Size,
    /// The pending batch outlived `batch_deadline`.
    Deadline,
    /// A `PullDecoded` flushed the puller's own pending frames
    /// (read-your-writes).
    Pull,
    /// Shutdown drained the batcher.
    Drain,
    /// A codec hot-swap flushed the batch so no flush straddles two
    /// model versions (the zero-drop cutover boundary).
    Swap,
}

/// Number of [`FlushReason`] variants (the length of the per-reason
/// counter array the reason indexes).
const FLUSH_REASONS: usize = 5;

impl FlushReason {
    /// Stable lowercase name used in trace spans and metric labels.
    #[must_use]
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            FlushReason::Size => "size",
            FlushReason::Deadline => "deadline",
            FlushReason::Pull => "pull",
            FlushReason::Drain => "drain",
            FlushReason::Swap => "swap",
        }
    }
}

/// Per-shard counter row: enough to see skew, small enough to ship on
/// every heartbeat.
#[derive(Debug, Default)]
struct ShardCounters {
    frames_in: Counter,
    frames_out: Counter,
    batches: Counter,
}

/// Shared, thread-safe registry of serving counters.
///
/// Counter updates are `Relaxed` atomics; a snapshot taken while pushes
/// are in flight is internally consistent per counter but not
/// transactional across counters (totals may straddle an in-progress
/// push). Under the deterministic loopback transport there is no
/// concurrency and snapshots are exact.
#[derive(Debug, Default)]
pub(crate) struct ServeStats {
    shards: u16,
    frames_in: Counter,
    frames_out: Counter,
    bytes_in: Counter,
    bytes_out: Counter,
    pushes: Counter,
    pulls: Counter,
    busy_rejections: Counter,
    batches: Counter,
    /// One counter per [`FlushReason`], indexed by the reason.
    flushes: [Counter; FLUSH_REASONS],
    max_batch_rows: Gauge,
    queue_depth: Gauge,
    stored_codes: Gauge,
    streamed_rows: Counter,
    redirects: Counter,
    active_version: Gauge,
    drift_trips: Counter,
    swaps: Counter,
    rollbacks: Counter,
    drift: Gauge,
    per_shard: Vec<ShardCounters>,
    flush_latency: Histogram,
    /// How long the gateway waited to take a shard's core lock, and its
    /// flush lock, on the gateway clock (every wait reads 0 under a
    /// manual clock). Exposition only: [`StatsSnapshot`]'s bytes are
    /// pinned. The flush lock's series keeps the name it had when the
    /// lock also serialised every decode, `orco_codec_lock_wait_ns`; a
    /// pull enters it only when its cluster has rows pending or
    /// mid-encode.
    shard_lock_wait: Histogram,
    flush_lock_wait: Histogram,
}

impl ServeStats {
    /// Creates an empty registry for a gateway with `shards` shards.
    #[must_use]
    pub(crate) fn new(shards: u16) -> Self {
        Self {
            shards,
            per_shard: (0..shards).map(|_| ShardCounters::default()).collect(),
            ..Self::default()
        }
    }

    fn shard(&self, shard: usize) -> &ShardCounters {
        &self.per_shard[shard]
    }

    fn flushes_for(&self, reason: FlushReason) -> &Counter {
        &self.flushes[reason as usize]
    }

    /// Records an accepted push of `rows` frames carrying `bytes` of
    /// frame payload into `shard`.
    pub(crate) fn record_push(&self, shard: usize, rows: u64, bytes: u64) {
        self.pushes.inc();
        self.frames_in.add(rows);
        self.bytes_in.add(bytes);
        self.queue_depth.add(rows);
        self.shard(shard).frames_in.add(rows);
    }

    /// Records a push rejected with `Busy`.
    pub(crate) fn record_busy(&self) {
        self.busy_rejections.inc();
    }

    /// Records one micro-batch flush of `rows` frames on `shard`,
    /// `latency_s` after its oldest frame was enqueued, for the given
    /// [`FlushReason`].
    pub(crate) fn record_flush(
        &self,
        shard: usize,
        rows: u64,
        latency_s: f64,
        reason: FlushReason,
    ) {
        self.batches.inc();
        self.flushes_for(reason).inc();
        self.max_batch_rows.max_assign(rows);
        self.queue_depth.sub(rows);
        self.stored_codes.add(rows);
        self.shard(shard).batches.inc();
        self.flush_latency.record_secs(latency_s);
    }

    /// Records a pull from `shard` that returned `rows` decoded frames
    /// carrying `bytes` of frame payload.
    pub(crate) fn record_pull(&self, shard: usize, rows: u64, bytes: u64) {
        self.pulls.inc();
        self.frames_out.add(rows);
        self.bytes_out.add(bytes);
        // Clamped: a pull racing a flush recording reads low, never wraps.
        self.stored_codes.sub(rows);
        self.shard(shard).frames_out.add(rows);
    }

    /// Records `rows` decoded frames pushed from `shard` to streaming
    /// subscribers (carrying `bytes` of frame payload).
    pub(crate) fn record_streamed(&self, shard: usize, rows: u64, bytes: u64) {
        self.streamed_rows.add(rows);
        self.frames_out.add(rows);
        self.bytes_out.add(bytes);
        self.stored_codes.sub(rows);
        self.shard(shard).frames_out.add(rows);
    }

    /// Records a push bounced with a `Redirect` to the current owner.
    pub(crate) fn record_redirect(&self) {
        self.redirects.inc();
    }

    /// Publishes the id of the model version currently encoding flushes.
    pub(crate) fn set_active_version(&self, id: u64) {
        self.active_version.set(id);
    }

    /// Records the drift monitor tripping on the active model, and
    /// raises the drift flag until [`Self::set_drift`] clears it.
    pub(crate) fn record_drift_trip(&self) {
        self.drift_trips.inc();
        self.drift.set(1);
    }

    /// Sets or clears the drift flag (cleared when a swap installs a
    /// fresh model or the monitor is acknowledged).
    pub(crate) fn set_drift(&self, drifting: bool) {
        self.drift.set(u64::from(drifting));
    }

    /// Records a completed codec hot-swap (cutover to a new version).
    pub(crate) fn record_swap(&self) {
        self.swaps.inc();
    }

    /// Records a guard-triggered rollback to the prior model version.
    pub(crate) fn record_rollback(&self) {
        self.rollbacks.inc();
    }

    /// The full flush-latency distribution (the p50/p99 snapshot fields
    /// are two quantiles of it).
    #[must_use]
    pub(crate) fn flush_latency_histogram(&self) -> HistogramSnapshot {
        self.flush_latency.snapshot()
    }

    /// Where the waits for a shard's core lock are recorded.
    pub(crate) fn shard_lock_wait(&self) -> &Histogram {
        &self.shard_lock_wait
    }

    /// Where the waits for a shard's flush lock are recorded.
    pub(crate) fn flush_lock_wait(&self) -> &Histogram {
        &self.flush_lock_wait
    }
}

/// Generates everything that must list the snapshot's `u64` cells in the
/// same order — the [`StatsSnapshot`] struct, its wire codec (and so its
/// worst-case size), [`ServeStats::snapshot`] and the exposition — from
/// one row per cell: `field: "exposition key" = the cell to read`, in
/// wire order, with `$stats` naming the `&ServeStats` the cell column
/// reads from. The irregular fields (the shard count up front; the drift
/// flag, the two percentiles and the per-shard rows behind) are written
/// once each in this template.
///
/// The codec is generated as a macro, `snapshot_codec!`, which
/// `protocol::wire` expands: its decoder then falls under that module's
/// panic-free lints, which clippy applies where a macro is invoked. Clippy
/// does not lint `unwrap` or `expect` inside a local macro's expansion,
/// though: what guards the decoder's body is `tests/protocol_roundtrip.rs`'s
/// `every_payload_cut_is_truncated_under_a_restamped_header`, not clippy.
macro_rules! snapshot_table {
    (|$stats:ident| $( $(#[$meta:meta])* $name:ident : $key:literal = $cell:expr ),+ $(,)?) => {
        /// The registry frozen at one instant; the payload of
        /// [`crate::protocol::Message::StatsReply`].
        #[derive(Debug, Default, Clone, PartialEq)]
        pub struct StatsSnapshot {
            /// Number of worker shards (also the length of `per_shard`).
            pub shards: u16,
            $( $(#[$meta])* pub $name: u64, )+
            /// Whether the drift monitor currently flags the active model.
            pub drift: bool,
            /// Median flush latency, seconds (0 when nothing flushed): the
            /// upper bound of the median's log2 histogram bucket, so at
            /// most 2× the exact value and never below it.
            pub batch_latency_p50_s: f64,
            /// 99th-percentile flush latency, seconds (0 when nothing
            /// flushed), bucket-bounded like the median.
            pub batch_latency_p99_s: f64,
            /// Per-shard counter rows, one per shard in shard order.
            pub per_shard: Vec<ShardRow>,
        }

        /// [`StatsSnapshot`]'s codec, for `protocol::wire` to expand: the
        /// shard count, the `u64` cells, the drift flag, the two
        /// percentiles, then `shards` per-shard rows (the count up front
        /// is the rows' length prefix).
        macro_rules! snapshot_codec {
            () => {
                impl Wire for StatsSnapshot {
                    const CAP: usize = u16::CAP
                        + [$( stringify!($name) ),+].len() * u64::CAP
                        + bool::CAP
                        + 2 * f64::CAP
                        + MAX_SHARDS * ShardRow::CAP;

                    fn put(v: &Self, out: &mut Vec<u8>) {
                        assert!(
                            v.per_shard.len() == usize::from(v.shards)
                                && v.per_shard.len() <= MAX_SHARDS,
                            "snapshot per-shard rows must match the shard count (≤ MAX_SHARDS)"
                        );
                        u16::put(&v.shards, out);
                        $( u64::put(&v.$name, out); )+
                        bool::put(&v.drift, out);
                        f64::put(&v.batch_latency_p50_s, out);
                        f64::put(&v.batch_latency_p99_s, out);
                        for row in &v.per_shard {
                            ShardRow::put(row, out);
                        }
                    }

                    fn take(cur: &mut Cursor<'_>) -> Result<Self, WireError> {
                        let shards = u16::take(cur)?;
                        if usize::from(shards) > MAX_SHARDS {
                            return Err(WireError::Corrupt {
                                detail: "snapshot shard count exceeds MAX_SHARDS",
                            });
                        }
                        let mut snap = Self {
                            shards,
                            $( $name: u64::take(cur)?, )+
                            drift: bool::take(cur)?,
                            batch_latency_p50_s: f64::take(cur)?,
                            batch_latency_p99_s: f64::take(cur)?,
                            per_shard: Vec::with_capacity(usize::from(shards)),
                        };
                        for _ in 0..shards {
                            snap.per_shard.push(ShardRow::take(cur)?);
                        }
                        Ok(snap)
                    }
                }
            };
        }
        pub(crate) use snapshot_codec;

        impl ServeStats {
            /// Freezes the registry into a snapshot.
            #[must_use]
            pub(crate) fn snapshot(&self) -> StatsSnapshot {
                let $stats = self;
                let latency = self.flush_latency.snapshot();
                StatsSnapshot {
                    shards: self.shards,
                    $( $name: $cell.get(), )+
                    drift: self.drift.get() != 0,
                    batch_latency_p50_s: latency.quantile_ns(0.5) as f64 / 1e9,
                    batch_latency_p99_s: latency.quantile_ns(0.99) as f64 / 1e9,
                    per_shard: self
                        .per_shard
                        .iter()
                        .map(|s| ShardRow {
                            frames_in: s.frames_in.get(),
                            frames_out: s.frames_out.get(),
                            batches: s.batches.get(),
                        })
                        .collect(),
                }
            }

            /// Fills `reg` with every series this registry tracks, in a fixed
            /// order, so the rendered exposition is byte-stable for a given
            /// counter state.
            pub(crate) fn fill_registry(&self, reg: &mut Registry) {
                let snap = self.snapshot();
                reg.set_int("orco_shards", u64::from(snap.shards));
                $( reg.set_int($key, snap.$name); )+
                reg.set_int("orco_drift_flag", u64::from(snap.drift));
                reg.set_float("orco_batch_latency_p50_s", snap.batch_latency_p50_s);
                reg.set_float("orco_batch_latency_p99_s", snap.batch_latency_p99_s);
                for (i, row) in snap.per_shard.iter().enumerate() {
                    let shard = i.to_string();
                    let labels: &[(&str, &str)] = &[("shard", &shard)];
                    reg.set_int(
                        Registry::label("orco_shard_frames_in_total", labels),
                        row.frames_in,
                    );
                    reg.set_int(
                        Registry::label("orco_shard_frames_out_total", labels),
                        row.frames_out,
                    );
                    reg.set_int(Registry::label("orco_shard_batches_total", labels), row.batches);
                }
                reg.set_histogram("orco_flush_latency_ns", &self.flush_latency_histogram());
                reg.set_histogram("orco_shard_lock_wait_ns", &self.shard_lock_wait.snapshot());
                reg.set_histogram("orco_codec_lock_wait_ns", &self.flush_lock_wait.snapshot());
            }
        }
    };
}

snapshot_table! { |stats|
    /// Raw frames accepted into micro-batchers.
    frames_in: "orco_frames_in_total" = stats.frames_in,
    /// Decoded frames returned to clients.
    frames_out: "orco_frames_out_total" = stats.frames_out,
    /// Frame-payload bytes accepted (rows × frame width × 4).
    bytes_in: "orco_bytes_in_total" = stats.bytes_in,
    /// Frame-payload bytes returned.
    bytes_out: "orco_bytes_out_total" = stats.bytes_out,
    /// `PushFrames` requests accepted.
    pushes: "orco_pushes_total" = stats.pushes,
    /// `PullDecoded` requests served.
    pulls: "orco_pulls_total" = stats.pulls,
    /// Pushes rejected with `Busy` (backpressure events).
    busy_rejections: "orco_busy_rejections_total" = stats.busy_rejections,
    /// Micro-batches flushed (each is ONE `encode_batch` call).
    batches: "orco_batches_total" = stats.batches,
    /// Flushes triggered by the batch reaching `batch_max_frames`.
    size_flushes: "orco_flushes_total{reason=\"size\"}" = stats.flushes_for(FlushReason::Size),
    /// Flushes forced by the batch deadline.
    deadline_flushes: "orco_flushes_total{reason=\"deadline\"}" = stats.flushes_for(FlushReason::Deadline),
    /// Read-your-writes flushes triggered by a puller's own pending rows.
    pull_flushes: "orco_flushes_total{reason=\"pull\"}" = stats.flushes_for(FlushReason::Pull),
    /// Flushes performed while draining for shutdown.
    drain_flushes: "orco_flushes_total{reason=\"drain\"}" = stats.flushes_for(FlushReason::Drain),
    /// Flushes forced by a codec hot-swap cutover boundary.
    swap_flushes: "orco_flushes_total{reason=\"swap\"}" = stats.flushes_for(FlushReason::Swap),
    /// Rows of the largest single flush — evidence of micro-batching.
    max_batch_rows: "orco_max_batch_rows" = stats.max_batch_rows,
    /// Rows currently pending in micro-batchers (gauge).
    queue_depth: "orco_queue_depth" = stats.queue_depth,
    /// Encoded rows stored awaiting a pull (gauge).
    stored_codes: "orco_stored_codes" = stats.stored_codes,
    /// Decoded rows delivered via streaming subscriptions.
    streamed_rows: "orco_streamed_rows_total" = stats.streamed_rows,
    /// Pushes bounced with a `Redirect` to the cluster's current owner.
    redirects: "orco_redirects_total" = stats.redirects,
    /// Id of the model version currently encoding flushes (gauge).
    active_version: "orco_active_model_version" = stats.active_version,
    /// Times the drift monitor tripped on decoded-sample error.
    drift_trips: "orco_drift_trips_total" = stats.drift_trips,
    /// Codec hot-swaps completed (activations that took effect).
    swaps: "orco_model_swaps_total" = stats.swaps,
    /// Guard-triggered rollbacks to the prior model version.
    rollbacks: "orco_model_rollbacks_total" = stats.rollbacks,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_track_lifecycle() {
        let s = ServeStats::new(2);
        s.record_push(0, 4, 4 * 784 * 4);
        s.record_push(1, 2, 2 * 784 * 4);
        s.record_busy();
        let snap = s.snapshot();
        assert_eq!(snap.frames_in, 6);
        assert_eq!(snap.queue_depth, 6);
        assert_eq!(snap.busy_rejections, 1);
        assert_eq!(snap.batches, 0);

        s.record_flush(0, 6, 0.010, FlushReason::Size);
        s.record_pull(0, 6, 6 * 784 * 4);
        let snap = s.snapshot();
        assert_eq!(snap.queue_depth, 0);
        assert_eq!(snap.stored_codes, 0);
        assert_eq!(snap.frames_out, 6);
        assert_eq!(snap.max_batch_rows, 6);
        assert_eq!(snap.batch_latency_p50_s, 0.016_777_215, "the 10 ms sample's bucket bound");
    }

    #[test]
    fn per_shard_rows_split_the_rollup() {
        let s = ServeStats::new(2);
        s.record_push(0, 5, 100);
        s.record_push(1, 1, 20);
        s.record_flush(0, 5, 0.001, FlushReason::Size);
        s.record_pull(0, 5, 100);
        s.record_streamed(1, 1, 20);
        let snap = s.snapshot();
        assert_eq!(snap.per_shard.len(), 2);
        assert_eq!(snap.per_shard[0], ShardRow { frames_in: 5, frames_out: 5, batches: 1 });
        assert_eq!(snap.per_shard[1], ShardRow { frames_in: 1, frames_out: 1, batches: 0 });
        // The global rollup is exactly the per-shard sum.
        assert_eq!(snap.frames_in, snap.per_shard.iter().map(|r| r.frames_in).sum::<u64>());
        assert_eq!(snap.frames_out, snap.per_shard.iter().map(|r| r.frames_out).sum::<u64>());
    }

    #[test]
    fn racing_gauge_decrements_clamp_instead_of_wrapping() {
        // The drill for the historical underflow: a pull recorded before
        // the flush that stored its rows used to wrap stored_codes to
        // ~u64::MAX. The clamped gauge reads 0 instead, and the snapshot
        // never reports a wrapped gauge.
        let s = ServeStats::new(1);
        s.record_push(0, 4, 64);
        s.record_pull(0, 4, 64); // races ahead of record_flush
        let snap = s.snapshot();
        assert_eq!(snap.stored_codes, 0, "wrapped gauge leaked into the snapshot");
        s.record_flush(0, 4, 0.001, FlushReason::Pull);
        assert_eq!(s.snapshot().stored_codes, 4, "late flush recording still lands");
        // Same hazard on queue_depth: a flush recorded before its push.
        let s = ServeStats::new(1);
        s.record_flush(0, 3, 0.001, FlushReason::Size);
        assert_eq!(s.snapshot().queue_depth, 0);
        assert!(s.snapshot().queue_depth < u64::MAX / 2, "gauge must never wrap");
    }

    #[test]
    fn flush_reasons_count_separately() {
        let s = ServeStats::new(1);
        s.record_flush(0, 4, 0.001, FlushReason::Size);
        s.record_flush(0, 2, 0.006, FlushReason::Deadline);
        s.record_flush(0, 1, 0.002, FlushReason::Pull);
        s.record_flush(0, 3, 0.001, FlushReason::Drain);
        s.record_flush(0, 2, 0.001, FlushReason::Swap);
        let snap = s.snapshot();
        assert_eq!(snap.batches, 5);
        assert_eq!(snap.size_flushes, 1);
        assert_eq!(snap.deadline_flushes, 1);
        assert_eq!(snap.pull_flushes, 1);
        assert_eq!(snap.drain_flushes, 1);
        assert_eq!(snap.swap_flushes, 1);
        assert_eq!(
            snap.size_flushes
                + snap.deadline_flushes
                + snap.pull_flushes
                + snap.drain_flushes
                + snap.swap_flushes,
            snap.batches,
            "every flush has exactly one reason"
        );
    }

    #[test]
    fn rollout_telemetry_tracks_lifecycle() {
        let s = ServeStats::new(1);
        s.set_active_version(3);
        assert_eq!(s.snapshot().active_version, 3);
        assert!(!s.snapshot().drift);
        s.record_drift_trip();
        let snap = s.snapshot();
        assert_eq!(snap.drift_trips, 1);
        assert!(snap.drift, "a trip raises the drift flag");
        s.record_swap();
        s.set_active_version(4);
        s.set_drift(false);
        s.record_rollback();
        let snap = s.snapshot();
        assert_eq!((snap.swaps, snap.rollbacks, snap.active_version), (1, 1, 4));
        assert!(!snap.drift, "swap clears the drift flag");
        let mut reg = Registry::new();
        s.fill_registry(&mut reg);
        let text = reg.render();
        assert!(text.contains("orco_active_model_version 4"), "scrape:\n{text}");
        assert!(text.contains("orco_drift_trips_total 1"), "scrape:\n{text}");
        assert!(text.contains("orco_model_rollbacks_total 1"), "scrape:\n{text}");
    }

    /// `exact ≤ got < 2 · exact`: what a log2 bucket's upper bound
    /// promises about the order statistic it stands in for.
    fn assert_bucket_bounds(got_s: f64, exact_s: f64, what: &str) {
        assert!(exact_s <= got_s && got_s < 2.0 * exact_s, "{what}: {got_s} vs exact {exact_s}");
    }

    #[test]
    fn latency_percentiles_survive_a_long_run_undecimated() {
        let s = ServeStats::new(1);
        let flushes = 4096 * 6;
        for i in 0..flushes {
            s.record_flush(0, 1, (i % 1000) as f64 * 0.001, FlushReason::Size);
        }
        // The (uniform 0..1 s) distribution's p50 and p99 are 0.5 s and
        // 0.99 s; both fall in the [2^29, 2^30) ns bucket.
        let snap = s.snapshot();
        assert_bucket_bounds(snap.batch_latency_p50_s, 0.5, "p50");
        assert_bucket_bounds(snap.batch_latency_p99_s, 0.99, "p99");
        assert_eq!(snap.batch_latency_p99_s, 1.073_741_823);
        // The histogram is a fixed 64-bucket array that keeps every
        // sample: full count, however long the gateway runs.
        assert_eq!(s.flush_latency_histogram().count, flushes);
    }

    #[test]
    fn latency_percentiles_bound_the_wsn_convention_order_statistics() {
        let s = ServeStats::new(1);
        let samples: Vec<f64> = (1..=100).map(|i| f64::from(i) * 0.001).collect();
        for (i, &latency_s) in samples.iter().enumerate() {
            let reason = if (i + 1) % 10 == 0 { FlushReason::Deadline } else { FlushReason::Size };
            s.record_flush(0, 1, latency_s, reason);
        }
        let snap = s.snapshot();
        assert_eq!(snap.deadline_flushes, 10);
        // The exact order statistics the WSN simulator's ledgers report
        // (51 ms and 99 ms) are the reference the buckets must bound.
        let exact = |q| orco_wsn::accounting::percentile_of_sorted(&samples, q);
        assert_bucket_bounds(snap.batch_latency_p50_s, exact(0.5), "p50");
        assert_bucket_bounds(snap.batch_latency_p99_s, exact(0.99), "p99");
    }

    #[test]
    fn exposition_is_byte_stable_and_carries_shard_labels() {
        let s = ServeStats::new(2);
        s.record_push(1, 3, 60);
        s.record_flush(1, 3, 0.004, FlushReason::Size);
        let mut reg = Registry::new();
        s.fill_registry(&mut reg);
        let text = reg.render();
        assert!(text.contains("orco_shard_frames_in_total{shard=\"1\"} 3"), "scrape:\n{text}");
        assert!(text.contains("orco_shard_frames_in_total{shard=\"0\"} 0"), "scrape:\n{text}");
        assert!(text.contains("orco_flushes_total{reason=\"size\"} 1"), "scrape:\n{text}");
        assert!(text.contains("orco_flush_latency_ns_count 1"), "scrape:\n{text}");
        let mut again = Registry::new();
        s.fill_registry(&mut again);
        assert_eq!(text, again.render(), "same state must scrape to identical bytes");
    }
}
