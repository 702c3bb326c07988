//! Ring-buffered structured trace spans with a bit-stable export.
//!
//! A [`Span`] is a single-timestamp event on one frame batch's journey
//! through the gateway, keyed by the client-minted 64-bit trace id it
//! carried on the wire. The [`Tracer`] stores spans in a bounded ring
//! (oldest dropped first, drops counted) so tracing can stay on in
//! production paths without unbounded growth — the same discipline as
//! the latency ledger. [`Tracer::export_text`] prints timestamps as raw
//! IEEE-754 bits, so a live run and its replay under the same virtual
//! clock export **identical bytes**, and [`verify_chains`] checks the
//! conservation law across the chain: rows may never appear at a stage
//! their predecessor did not emit.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::Mutex;

/// Which stage of a frame's journey a span marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanKind {
    /// The gateway accepted a client push.
    Push,
    /// The accepted rows entered a shard's pending batch.
    Enqueue,
    /// A shard batch containing the rows was encoded (one span per
    /// trace in the batch; `detail` names the flush reason).
    Flush,
    /// Decodable codes for the rows were filed into the cluster store.
    Store,
    /// Rows were delivered to a streaming subscriber.
    Stream,
    /// Rows were delivered to an explicit pull.
    Pull,
    /// A subscriber attached (not part of any row chain).
    Subscribe,
}

impl SpanKind {
    /// Stable lowercase name used in the text export.
    #[must_use]
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Self::Push => "push",
            Self::Enqueue => "enqueue",
            Self::Flush => "flush",
            Self::Store => "store",
            Self::Stream => "stream",
            Self::Pull => "pull",
            Self::Subscribe => "subscribe",
        }
    }
}

/// One structured trace event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// The client-minted trace id this event belongs to (never 0; a
    /// zero trace id on the wire means "untraced" and emits no spans).
    pub trace_id: u64,
    /// The stage this span marks.
    pub kind: SpanKind,
    /// Cluster the rows belong to.
    pub cluster_id: u64,
    /// Shard that processed the rows.
    pub shard: u16,
    /// Rows involved at this stage.
    pub rows: u32,
    /// Event time, seconds on the host's clock (virtual under a manual
    /// clock, so replays stamp identical times).
    pub at_s: f64,
    /// Stage-specific annotation (e.g. the flush reason); `""` if none.
    pub detail: &'static str,
}

#[derive(Debug, Default)]
struct Ring {
    spans: VecDeque<Span>,
    dropped: u64,
}

/// A bounded, thread-safe span ring. Capacity 0 disables tracing
/// entirely: [`Tracer::record`] becomes a no-op that never locks.
#[derive(Debug)]
pub struct Tracer {
    capacity: usize,
    ring: Mutex<Ring>,
}

impl Tracer {
    /// A tracer holding at most `capacity` spans (0 = disabled).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self { capacity, ring: Mutex::new(Ring::default()) }
    }

    /// Whether spans are being recorded at all.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Records one span, evicting the oldest when the ring is full.
    pub fn record(&self, span: Span) {
        if self.capacity == 0 {
            return;
        }
        let mut ring = self.ring.lock().expect("tracer lock");
        if ring.spans.len() == self.capacity {
            ring.spans.pop_front();
            ring.dropped += 1;
        }
        ring.spans.push_back(span);
    }

    /// Spans evicted so far (0 means the ring saw everything).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.ring.lock().expect("tracer lock").dropped
    }

    /// Spans currently held, oldest first.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.ring.lock().expect("tracer lock").spans.iter().copied().collect()
    }

    /// The deterministic text export: one line per span, in recording
    /// order, timestamps as raw IEEE-754 bits so no formatting ever
    /// perturbs a byte.
    #[must_use]
    pub fn export_text(&self) -> String {
        let ring = self.ring.lock().expect("tracer lock");
        let mut out = String::with_capacity(24 + ring.spans.len() * 80);
        let _ = writeln!(out, "orco-trace v1 spans={} dropped={}", ring.spans.len(), ring.dropped);
        for s in &ring.spans {
            let detail = if s.detail.is_empty() { "-" } else { s.detail };
            let _ = writeln!(
                out,
                "{} trace={:016x} cluster={} shard={} rows={} at={:016x} detail={}",
                s.kind.as_str(),
                s.trace_id,
                s.cluster_id,
                s.shard,
                s.rows,
                s.at_s.to_bits(),
                detail,
            );
        }
        out
    }
}

/// What [`verify_chains`] tallied across all traces.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ChainSummary {
    /// Rows accepted across all traces.
    pub pushed_rows: u64,
    /// Rows delivered (pull + stream) across all traces.
    pub delivered_rows: u64,
}

#[derive(Debug, Default)]
struct Tally {
    pushed: u64,
    enqueued: u64,
    flushed: u64,
    stored: u64,
    delivered: u64,
}

/// Checks the causal conservation law over a span set: per trace id,
/// `enqueued == pushed`, `flushed <= pushed`, `stored == flushed`, and
/// `delivered <= stored` — every delivered row has exactly one complete
/// chain behind it. [`SpanKind::Subscribe`] spans are annotations, not
/// chain stages. A fully drained system additionally satisfies
/// `delivered_rows == pushed_rows` on the returned [`ChainSummary`];
/// that stronger claim is the caller's to assert.
///
/// # Errors
///
/// A human-readable description of the first trace whose chain breaks
/// conservation.
pub fn verify_chains(spans: &[Span]) -> Result<ChainSummary, String> {
    let mut tallies: BTreeMap<u64, Tally> = BTreeMap::new();
    for s in spans {
        if s.kind == SpanKind::Subscribe {
            continue;
        }
        let t = tallies.entry(s.trace_id).or_default();
        let rows = u64::from(s.rows);
        match s.kind {
            SpanKind::Push => t.pushed += rows,
            SpanKind::Enqueue => t.enqueued += rows,
            SpanKind::Flush => t.flushed += rows,
            SpanKind::Store => t.stored += rows,
            SpanKind::Pull | SpanKind::Stream => t.delivered += rows,
            SpanKind::Subscribe => unreachable!("filtered above"),
        }
    }
    let mut summary = ChainSummary::default();
    for (id, t) in &tallies {
        if t.pushed == 0 {
            return Err(format!("trace {id:016x}: rows appear mid-chain but were never pushed"));
        }
        if t.enqueued != t.pushed {
            return Err(format!(
                "trace {id:016x}: pushed {} rows but enqueued {}",
                t.pushed, t.enqueued
            ));
        }
        if t.flushed > t.pushed {
            return Err(format!(
                "trace {id:016x}: flushed {} rows but only {} were pushed",
                t.flushed, t.pushed
            ));
        }
        if t.stored != t.flushed {
            return Err(format!(
                "trace {id:016x}: flushed {} rows but stored {}",
                t.flushed, t.stored
            ));
        }
        if t.delivered > t.stored {
            return Err(format!(
                "trace {id:016x}: delivered {} rows but only {} were stored",
                t.delivered, t.stored
            ));
        }
        summary.pushed_rows += t.pushed;
        summary.delivered_rows += t.delivered;
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace_id: u64, kind: SpanKind, rows: u32) -> Span {
        Span { trace_id, kind, cluster_id: 1, shard: 0, rows, at_s: 0.25, detail: "" }
    }

    #[test]
    fn ring_bounds_and_counts_drops() {
        let t = Tracer::new(2);
        assert!(t.enabled());
        for i in 0..5 {
            t.record(span(i + 1, SpanKind::Push, 1));
        }
        assert_eq!(t.dropped(), 3);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].trace_id, 4, "oldest spans evicted first");
    }

    #[test]
    fn zero_capacity_disables_recording() {
        let t = Tracer::new(0);
        assert!(!t.enabled());
        t.record(span(1, SpanKind::Push, 1));
        assert!(t.spans().is_empty());
        assert_eq!(t.dropped(), 0);
        assert_eq!(t.export_text(), "orco-trace v1 spans=0 dropped=0\n");
    }

    #[test]
    fn export_is_deterministic_and_bit_exact() {
        let t = Tracer::new(8);
        t.record(Span {
            trace_id: 0xDEAD,
            kind: SpanKind::Flush,
            cluster_id: 3,
            shard: 1,
            rows: 8,
            at_s: 0.1, // 0.1 is not exactly representable; bits must survive
            detail: "deadline",
        });
        let text = t.export_text();
        assert_eq!(
            text,
            format!(
                "orco-trace v1 spans=1 dropped=0\nflush trace=000000000000dead cluster=3 \
                 shard=1 rows=8 at={:016x} detail=deadline\n",
                0.1f64.to_bits()
            )
        );
        assert_eq!(text, t.export_text());
    }

    #[test]
    fn complete_chain_verifies() {
        let spans = [
            span(7, SpanKind::Push, 3),
            span(7, SpanKind::Enqueue, 3),
            span(7, SpanKind::Flush, 3),
            span(7, SpanKind::Store, 3),
            span(7, SpanKind::Pull, 2),
            span(7, SpanKind::Stream, 1),
            span(9, SpanKind::Subscribe, 4), // annotation, not a chain
        ];
        let s = verify_chains(&spans).expect("conserved");
        assert_eq!(s, ChainSummary { pushed_rows: 3, delivered_rows: 3 });
    }

    #[test]
    fn pending_rows_are_legal_but_overdelivery_is_not() {
        // Pushed and enqueued, not yet flushed: a legal mid-flight state.
        let pending = [span(1, SpanKind::Push, 2), span(1, SpanKind::Enqueue, 2)];
        assert_eq!(verify_chains(&pending).expect("legal").delivered_rows, 0);
        // Delivering rows that were never stored breaks conservation.
        let phantom =
            [span(2, SpanKind::Push, 1), span(2, SpanKind::Enqueue, 1), span(2, SpanKind::Pull, 1)];
        let err = verify_chains(&phantom).expect_err("phantom delivery");
        assert!(err.contains("delivered"), "unexpected error: {err}");
        // Rows appearing mid-chain with no push at all.
        let orphan = [span(3, SpanKind::Store, 1)];
        assert!(verify_chains(&orphan).is_err());
    }
}
