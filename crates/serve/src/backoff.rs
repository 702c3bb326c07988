//! Capped exponential backoff with deterministic jitter.
//!
//! Retrying a [`crate::protocol::Message::Busy`] reply on a fixed short
//! interval is the worst of both worlds: under genuine overload every
//! client re-offers its frames in lockstep (a retry storm that keeps the
//! shard saturated), and under a brief stall it still waits the full
//! interval. [`Backoff`] doubles the delay on every consecutive failure
//! up to a cap, and jitters each delay uniformly into `[delay/2, delay]`
//! so synchronized clients decorrelate.
//!
//! The jitter is drawn from the workspace's own [`OrcoRng`], seeded
//! explicitly — two `Backoff`s built with the same parameters and seed
//! produce the identical delay sequence, which keeps the chaos gauntlet's
//! retry schedules bit-reproducible.

use std::time::Duration;

use orco_tensor::OrcoRng;

/// Capped exponential backoff with deterministic half-range jitter.
#[derive(Debug)]
pub struct Backoff {
    rng: OrcoRng,
    base: Duration,
    cap: Duration,
    attempt: u32,
}

impl Backoff {
    /// A backoff starting at `base`, doubling per failure, capped at
    /// `cap`, jittered by an [`OrcoRng`] seeded with `seed`.
    #[must_use]
    pub fn new(base: Duration, cap: Duration, seed: u64) -> Self {
        Self { rng: OrcoRng::from_seed_u64(seed), base, cap, attempt: 0 }
    }

    /// The next delay: `min(cap, base * 2^attempt)` jittered uniformly
    /// into `[delay/2, delay]`. Increments the attempt counter.
    pub fn next_delay(&mut self) -> Duration {
        let exp = self.attempt.min(32);
        self.attempt = self.attempt.saturating_add(1);
        let raw = self
            .base
            .saturating_mul(1_u32.checked_shl(exp).unwrap_or(u32::MAX))
            .min(self.cap)
            .max(self.base);
        // Uniform in [0.5, 1.0] of the raw delay: enough spread to
        // decorrelate a thundering herd, never less than half the
        // intended wait.
        let frac = 0.5 + 0.5 * self.rng.next_f64();
        Duration::from_secs_f64(raw.as_secs_f64() * frac)
    }

    /// Clears the failure streak after progress; the next delay starts
    /// from `base` again.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_grow_and_cap() {
        let base = Duration::from_millis(1);
        let cap = Duration::from_millis(50);
        let mut b = Backoff::new(base, cap, 7);
        let mut prev_raw_bound = Duration::ZERO;
        for i in 0..12 {
            let d = b.next_delay();
            let raw = base.saturating_mul(1 << i.min(10)).min(cap);
            assert!(d <= raw, "delay {d:?} exceeds raw bound {raw:?}");
            assert!(d >= raw / 2, "delay {d:?} below half the raw bound {raw:?}");
            assert!(raw >= prev_raw_bound);
            prev_raw_bound = raw;
        }
        // Saturated: every further delay lands in [cap/2, cap].
        let d = b.next_delay();
        assert!(d <= cap && d >= cap / 2);
    }

    #[test]
    fn same_seed_same_schedule() {
        let mk = || Backoff::new(Duration::from_millis(2), Duration::from_millis(100), 42);
        let (mut a, mut b) = (mk(), mk());
        for _ in 0..20 {
            assert_eq!(a.next_delay(), b.next_delay());
        }
    }

    #[test]
    fn reset_restarts_from_base() {
        let base = Duration::from_millis(4);
        let mut b = Backoff::new(base, Duration::from_secs(1), 3);
        for _ in 0..6 {
            b.next_delay();
        }
        b.reset();
        let d = b.next_delay();
        assert!(d >= base / 2 && d <= base);
    }
}
