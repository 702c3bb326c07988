//! The gateway's notion of time.
//!
//! Micro-batch deadlines and latency percentiles need a clock, but a
//! wall clock would make the loopback gateway nondeterministic — the same
//! message schedule would measure different latencies on every run. The
//! gateway therefore reads time through [`Clock`]:
//!
//! * [`Clock::real`] — monotonic wall time ([`Instant`]-based). Used by
//!   the TCP server, where deadlines must track actual elapsed time.
//! * [`Clock::manual`] — a virtual clock that advances by a fixed
//!   quantum every dispatched message and never consults the OS. Under
//!   it, the same message schedule produces **byte-identical** stats and
//!   flush decisions on every run, at any thread count — the loopback
//!   determinism regression in `tests/gateway_loopback.rs` pins this.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A monotonic clock: real wall time or a deterministic virtual one.
#[derive(Debug)]
pub enum Clock {
    /// Monotonic wall time measured from construction.
    Real {
        /// Construction instant; `now_s` is seconds elapsed since it.
        epoch: Instant,
    },
    /// Deterministic virtual time: advances by `quantum_ns` per
    /// dispatched message, never by the OS clock.
    Virtual {
        /// Current virtual time in nanoseconds.
        nanos: AtomicU64,
        /// Nanoseconds added per dispatched message.
        quantum_ns: u64,
    },
}

impl Clock {
    /// A monotonic wall clock starting at zero now.
    #[must_use]
    pub fn real() -> Self {
        #[expect(
            clippy::disallowed_methods,
            reason = "the one OS-clock read in library code: every other consumer goes through a `Clock` value"
        )]
        Clock::Real { epoch: Instant::now() }
    }

    /// A deterministic virtual clock advancing `quantum` per dispatched
    /// message.
    #[must_use]
    pub fn manual(quantum: Duration) -> Self {
        Clock::Virtual { nanos: AtomicU64::new(0), quantum_ns: quantum.as_nanos() as u64 }
    }

    /// Seconds since the clock's epoch.
    #[must_use]
    pub fn now_s(&self) -> f64 {
        match self {
            Clock::Real { epoch } => epoch.elapsed().as_secs_f64(),
            // SeqCst: virtual time is the DES's global order; a reader
            // must never see time move backwards relative to any tick
            // it already observed through another thread.
            Clock::Virtual { nanos, .. } => nanos.load(Ordering::SeqCst) as f64 * 1e-9,
        }
    }

    /// Whether this is the wall clock (the TCP server requires it; its
    /// deadline timer sleeps in real time).
    #[must_use]
    pub(crate) fn is_real(&self) -> bool {
        matches!(self, Clock::Real { .. })
    }

    /// Advances a virtual clock by one message quantum; no-op on a real
    /// clock (wall time advances itself).
    pub(crate) fn tick(&self) {
        if let Clock::Virtual { nanos, quantum_ns } = self {
            // SeqCst: ticks participate in the same total order the
            // now_s readers rely on (see now_s).
            nanos.fetch_add(*quantum_ns, Ordering::SeqCst);
        }
    }

    /// Advances a virtual clock by `dt` (no-op on a real clock). Lets
    /// tests and benchmarks force a batch deadline to expire without
    /// sleeping.
    pub fn advance(&self, dt: Duration) {
        if let Clock::Virtual { nanos, .. } = self {
            // SeqCst: same total order as tick/now_s.
            nanos.fetch_add(dt.as_nanos() as u64, Ordering::SeqCst);
        }
    }

    /// Advances a virtual clock to absolute time `t` since its epoch
    /// (no-op on a real clock, and never moves a virtual clock
    /// backwards). This is how an external discrete-event scheduler — the
    /// DES transport — slaves the gateway's clock to simulated time.
    pub(crate) fn advance_to(&self, t: Duration) {
        if let Clock::Virtual { nanos, .. } = self {
            // SeqCst: the DES scheduler's advances join the same total
            // order as tick/now_s, and fetch_max keeps time monotone.
            nanos.fetch_max(t.as_nanos() as u64, Ordering::SeqCst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_ticks_deterministically() {
        let c = Clock::manual(Duration::from_millis(2));
        assert_eq!(c.now_s(), 0.0);
        c.tick();
        c.tick();
        assert!((c.now_s() - 0.004).abs() < 1e-12);
        c.advance(Duration::from_millis(10));
        assert!((c.now_s() - 0.014).abs() < 1e-12);
        assert!(!c.is_real());
    }

    #[test]
    fn advance_to_is_monotone() {
        let c = Clock::manual(Duration::ZERO);
        c.advance_to(Duration::from_millis(5));
        assert!((c.now_s() - 0.005).abs() < 1e-12);
        c.advance_to(Duration::from_millis(3)); // never backwards
        assert!((c.now_s() - 0.005).abs() < 1e-12);
        c.advance_to(Duration::from_millis(8));
        assert!((c.now_s() - 0.008).abs() < 1e-12);
    }

    #[test]
    fn real_clock_is_monotone() {
        let c = Clock::real();
        assert!(c.is_real());
        let a = c.now_s();
        c.tick(); // no-op
        let b = c.now_s();
        assert!(b >= a);
    }
}
