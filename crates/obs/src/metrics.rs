//! Typed metric primitives and a deterministic text exposition.
//!
//! [`Counter`] and [`Gauge`] are thin wrappers over relaxed atomics —
//! the same discipline the serving layer's `ServeStats` always used —
//! with one sharpened edge: [`Gauge::sub`] clamps at zero with a
//! compare-exchange loop instead of wrapping to `u64::MAX`, so a gauge
//! snapshot taken mid-race can read low, never absurd. [`Histogram`]
//! buckets by `floor(log2(nanoseconds))` into a fixed 64-slot array, so
//! recording is branch-light and the exposition needs no float
//! formatting to stay byte-stable. [`Registry`] is a scrape-time
//! builder: callers insert fully-resolved lines in a fixed order and
//! [`Registry::render`] emits exactly those bytes.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        // Relaxed: a monotonic tally with no ordering relationship to
        // any other memory; scrapes tolerate momentary skew.
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        // Relaxed: scrape-time read; cross-counter skew is acceptable.
        self.v.load(Ordering::Relaxed)
    }
}

/// A gauge that can rise and fall but never wraps below zero.
#[derive(Debug, Default)]
pub struct Gauge {
    v: AtomicU64,
}

impl Gauge {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        // Relaxed: pure tally, no ordering dependency (see Counter::add).
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`, clamping at zero. A bare `fetch_sub` would wrap
    /// to ~`u64::MAX` when a decrement races the increment it pairs
    /// with; the compare-exchange loop makes the worst outcome a
    /// momentarily-low reading instead of an absurd one.
    pub fn sub(&self, n: u64) {
        // Relaxed: a stale read just means one extra CAS retry.
        let mut cur = self.v.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(n);
            // Relaxed CAS both ways: only the value's own atomicity
            // matters; no other memory is ordered around the gauge.
            match self.v.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Overwrites the value.
    pub fn set(&self, n: u64) {
        // Relaxed: last-writer-wins is the gauge's semantics anyway.
        self.v.store(n, Ordering::Relaxed);
    }

    /// Raises the value to `n` if `n` is larger (atomic max — a
    /// high-water mark that cannot lose a racing update).
    pub fn max_assign(&self, n: u64) {
        // Relaxed: fetch_max is atomic on the value; no other memory
        // needs to be ordered around the high-water mark.
        self.v.fetch_max(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        // Relaxed: scrape-time read; momentary skew is acceptable.
        self.v.load(Ordering::Relaxed)
    }
}

/// Number of log2 buckets: one per possible `floor(log2(ns))` of a u64.
const BUCKETS: usize = 64;

/// A fixed-size histogram over nanosecond durations, bucketed by
/// `floor(log2(ns))` (zero lands in bucket 0). Unlike a reservoir of
/// samples it never decimates, so the full distribution survives; the
/// serving layer's p50/p99 are read off it with
/// [`HistogramSnapshot::quantile_ns`].
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }

    /// Records a duration in nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        let idx = if ns == 0 { 0 } else { ns.ilog2() as usize };
        // Relaxed on all three: each is an independent monotonic tally,
        // and a scrape racing a record may see bucket/count/sum off by
        // one relative to each other — accepted, documented in snapshot.
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Records a duration in seconds; non-finite or negative values
    /// clamp to zero (observability must not panic on a bad clock).
    pub fn record_secs(&self, s: f64) {
        let ns = if s.is_finite() && s > 0.0 { (s * 1e9) as u64 } else { 0 };
        self.record_ns(ns);
    }

    /// A point-in-time copy of the distribution.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            // Relaxed loads: the snapshot is not a linearizable cut — a
            // racing record_ns may land in `buckets` but not yet `count`
            // (or vice versa). Scrapes accept that off-by-one in
            // exchange for never stalling recorders.
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// `buckets[i]` counts samples with `floor(log2(ns)) == i`
    /// (`ns == 0` counts in bucket 0).
    pub buckets: [u64; BUCKETS],
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all recorded durations, nanoseconds.
    pub sum_ns: u64,
}

impl HistogramSnapshot {
    /// The inclusive upper bound (ns) of bucket `i`: `2^(i+1) - 1`.
    #[must_use]
    pub fn upper_bound_ns(i: usize) -> u64 {
        if i >= BUCKETS - 1 {
            u64::MAX
        } else {
            (2u64 << i) - 1
        }
    }

    /// The `q`-quantile (`q` clamped to `[0, 1]`), resolved to a bucket:
    /// the inclusive upper bound of the bucket holding the sample of
    /// 0-based rank `round((n - 1) · q)` — the nearest-rank convention
    /// of `orco_wsn::accounting::percentile_of_sorted`. 0 when empty.
    /// A bucket spans `[2^i, 2^(i+1) - 1]`, so the result over-estimates
    /// the exact order statistic by less than 2×, and never
    /// under-estimates it.
    #[must_use]
    pub fn quantile_ns(&self, q: f64) -> u64 {
        // Ranked over the bucket sum, not `count`: a snapshot racing a
        // record may see the two differ by one.
        let n: u64 = self.buckets.iter().sum();
        if n == 0 {
            return 0;
        }
        let rank = ((n - 1) as f64 * q.clamp(0.0, 1.0)).round() as u64;
        let mut below = 0u64;
        let bucket = self.buckets.iter().position(|&c| {
            below += c;
            below > rank
        });
        Self::upper_bound_ns(bucket.unwrap_or(BUCKETS - 1))
    }
}

/// A scrape-time builder for the text exposition. Lines render in
/// insertion order, so a caller that inserts in a fixed order gets a
/// byte-stable scrape; integer values avoid float formatting entirely.
#[derive(Debug, Default)]
pub struct Registry {
    lines: Vec<(String, String)>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Formats `name{k="v",...}` for a labeled series.
    #[must_use]
    pub fn label(name: &str, labels: &[(&str, &str)]) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(name.len() + 16);
        out.push_str(name);
        out.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{k}=\"{v}\"");
        }
        out.push('}');
        out
    }

    /// Inserts an integer-valued series.
    pub fn set_int(&mut self, key: impl Into<String>, value: u64) {
        self.lines.push((key.into(), value.to_string()));
    }

    /// Inserts a float-valued series (IEEE-754 bits in hex alongside a
    /// human decimal would be overkill here; `f64`'s shortest-roundtrip
    /// `Display` is already deterministic).
    pub fn set_float(&mut self, key: impl Into<String>, value: f64) {
        self.lines.push((key.into(), value.to_string()));
    }

    /// Expands a histogram into cumulative `_bucket{le_ns="..."}` lines
    /// (up to the last non-empty bucket) plus `_count` and `_sum_ns`.
    pub fn set_histogram(&mut self, name: &str, snap: &HistogramSnapshot) {
        let last = snap.buckets.iter().rposition(|&c| c > 0);
        let mut cum = 0u64;
        if let Some(last) = last {
            for (i, &c) in snap.buckets.iter().enumerate().take(last + 1) {
                cum += c;
                let le = HistogramSnapshot::upper_bound_ns(i).to_string();
                self.lines.push((
                    Self::label(&format!("{name}_bucket"), &[("le_ns", &le)]),
                    cum.to_string(),
                ));
            }
        }
        self.set_int(format!("{name}_count"), snap.count);
        self.set_int(format!("{name}_sum_ns"), snap.sum_ns);
    }

    /// Renders the exposition: one `key value` line per insertion.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.lines {
            out.push_str(k);
            out.push(' ');
            out.push_str(v);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn gauge_sub_clamps_instead_of_wrapping() {
        let g = Gauge::default();
        g.add(3);
        g.sub(10); // would wrap to u64::MAX - 6 under fetch_sub
        assert_eq!(g.get(), 0, "a racing decrement must clamp, not wrap");
        g.add(2);
        g.sub(1);
        assert_eq!(g.get(), 1);
        g.set(7);
        assert_eq!(g.get(), 7);
        g.max_assign(3);
        assert_eq!(g.get(), 7, "max_assign never lowers");
        g.max_assign(11);
        assert_eq!(g.get(), 11);
    }

    #[test]
    fn histogram_buckets_by_log2_ns() {
        let h = Histogram::new();
        h.record_ns(0); // bucket 0
        h.record_ns(1); // bucket 0 (floor(log2(1)) == 0)
        h.record_ns(3); // bucket 1
        h.record_ns(1024); // bucket 10
        h.record_secs(1e-6); // 1000 ns -> bucket 9
        h.record_secs(f64::NAN); // clamps to 0 -> bucket 0
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.buckets[0], 3);
        assert_eq!(s.buckets[1], 1);
        assert_eq!(s.buckets[9], 1);
        assert_eq!(s.buckets[10], 1);
        assert_eq!(s.sum_ns, 1 + 3 + 1024 + 1000);
    }

    #[test]
    fn histogram_bounds_are_powers_of_two_minus_one() {
        assert_eq!(HistogramSnapshot::upper_bound_ns(0), 1);
        assert_eq!(HistogramSnapshot::upper_bound_ns(1), 3);
        assert_eq!(HistogramSnapshot::upper_bound_ns(10), 2047);
        assert_eq!(HistogramSnapshot::upper_bound_ns(63), u64::MAX);
    }

    #[test]
    fn quantile_is_the_nearest_rank_buckets_upper_bound() {
        assert_eq!(Histogram::new().snapshot().quantile_ns(0.5), 0, "empty reads 0");
        let h = Histogram::new();
        for ns in [5, 6, 7, 100, 1000] {
            h.record_ns(ns); // buckets 2, 2, 2, 6, 9
        }
        let s = h.snapshot();
        assert_eq!(s.quantile_ns(0.0), 7);
        assert_eq!(s.quantile_ns(0.5), 7, "rank 2 of 0..=4 is the third sample");
        assert_eq!(s.quantile_ns(0.75), 127, "rank 3 is the 100 ns sample: [64, 127]");
        assert_eq!(s.quantile_ns(1.0), 1023);
        assert_eq!(s.quantile_ns(7.0), 1023, "q clamps, never panics");
        // Never below the exact order statistic, and less than twice it.
        for (q, exact) in [(0.0, 5u64), (0.5, 7), (0.75, 100), (1.0, 1000)] {
            let got = s.quantile_ns(q);
            assert!(exact <= got && got < 2 * exact, "q {q}: {got} vs {exact}");
        }
    }

    #[test]
    fn registry_renders_in_insertion_order_and_is_stable() {
        let h = Histogram::new();
        h.record_ns(5);
        let mut r = Registry::new();
        r.set_int("b_total", 2);
        r.set_int(Registry::label("a_total", &[("shard", "1")]), 9);
        r.set_histogram("lat_ns", &h.snapshot());
        r.set_float("ratio", 0.5);
        let text = r.render();
        assert_eq!(
            text,
            "b_total 2\na_total{shard=\"1\"} 9\nlat_ns_bucket{le_ns=\"1\"} 0\n\
             lat_ns_bucket{le_ns=\"3\"} 0\nlat_ns_bucket{le_ns=\"7\"} 1\nlat_ns_count 1\n\
             lat_ns_sum_ns 5\nratio 0.5\n"
        );
        // Byte-stable: rendering twice yields identical bytes.
        assert_eq!(text, r.render());
    }
}
