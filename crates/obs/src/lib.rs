//! # orco-obs — deterministic, allocation-bounded observability
//!
//! The observability layer of the OrcoDCS reproduction: typed
//! `metrics` (counters, clamped gauges, log2-bucketed histograms, and
//! a byte-stable text exposition) and ring-buffered structured
//! `trace` spans whose export is **bit-identical** between a live run
//! and its replay when both are stamped from the same virtual clock.
//!
//! Everything here is `std`-only and bounded: a [`Tracer`] holds
//! at most its configured capacity of spans (dropping the oldest and
//! counting the drops), a [`Histogram`] is a fixed 64-bucket
//! array, and nothing allocates on the hot path beyond the ring itself.
//! Timestamps are plain `f64` seconds supplied by the caller — under a
//! manual clock they are exact event times, so two runs with the same
//! schedule export the same bytes.
//!
//! ## Quickstart: trace one frame's journey
//!
//! A span chain follows one client push through the gateway: push →
//! enqueue → flush → store → pull. [`verify_chains`] checks the
//! conservation law (no stage may see rows the previous stage did not).
//!
//! ```
//! use orco_obs::{verify_chains, Span, SpanKind, Tracer};
//!
//! let tracer = Tracer::new(64);
//! let span = |kind, detail| Span {
//!     trace_id: 0xA11CE,
//!     kind,
//!     cluster_id: 7,
//!     shard: 0,
//!     rows: 3,
//!     at_s: 0.005,
//!     detail,
//! };
//! tracer.record(span(SpanKind::Push, ""));
//! tracer.record(span(SpanKind::Enqueue, ""));
//! tracer.record(span(SpanKind::Flush, "size"));
//! tracer.record(span(SpanKind::Store, ""));
//! tracer.record(span(SpanKind::Pull, ""));
//!
//! let spans = tracer.spans();
//! let summary = verify_chains(&spans).expect("one complete chain");
//! assert_eq!((summary.pushed_rows, summary.delivered_rows), (3, 3));
//! assert_eq!(tracer.dropped(), 0);
//! // The export is deterministic: same spans, same bytes.
//! assert_eq!(tracer.export_text(), tracer.export_text());
//! ```
//!
//! ## Quickstart: metrics exposition
//!
//! ```
//! use orco_obs::{Counter, Histogram, Registry};
//!
//! let pushes = Counter::default();
//! pushes.add(3);
//! let lat = Histogram::new();
//! lat.record_secs(0.004);
//!
//! let mut reg = Registry::new();
//! reg.set_int("orco_pushes_total", pushes.get());
//! reg.set_int(Registry::label("orco_shard_frames_in_total", &[("shard", "0")]), 3);
//! reg.set_histogram("orco_flush_latency_ns", &lat.snapshot());
//! let text = reg.render();
//! assert!(text.contains("orco_pushes_total 3"));
//! assert!(text.contains("orco_shard_frames_in_total{shard=\"0\"} 3"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod metrics;
mod trace;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Registry};
pub use trace::{verify_chains, ChainSummary, Span, SpanKind, Tracer};
