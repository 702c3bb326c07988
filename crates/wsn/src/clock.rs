//! The simulated clock.
//!
//! The paper's time axes ("Time (s)" in Figure 4) are *simulated* seconds:
//! deterministic functions of bytes moved and FLOPs executed, independent of
//! the host machine. `SimClock` is a monotone accumulator those costs are
//! added to.
//!
//! Every clock in the workspace — the analytic `SimClock`, the per-node
//! clocks of the `orco-sim` discrete-event backend — shares one
//! monotonicity contract, checked by [`assert_monotone_dt`]: time is
//! measured in **seconds as `f64`**, steps are finite and non-negative, and
//! absolute synchronization (`SimClock::advance_to`) never rewinds.

/// Asserts the shared monotonicity contract for a simulated time step.
///
/// All simulated time in this workspace is **seconds, stored as `f64`**.
/// A valid step is finite and non-negative; anything else is a programming
/// error in a cost model, so this panics rather than returning an error.
/// Both the analytic `SimClock` and the event-driven per-node clocks of
/// `orco-sim` funnel their advances through this one check.
///
/// # Panics
///
/// Panics if `dt_s` is negative, NaN, or infinite.
#[inline]
pub fn assert_monotone_dt(dt_s: f64) {
    assert!(
        dt_s.is_finite() && dt_s >= 0.0,
        "simulated clock: dt must be a finite number of seconds ≥ 0, got {dt_s}"
    );
}

/// A monotone simulated clock measured in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct SimClock {
    now_s: f64,
}

impl SimClock {
    /// Creates a clock at time zero.
    #[must_use]
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Current simulated time in seconds.
    #[must_use]
    pub(crate) fn now_s(&self) -> f64 {
        self.now_s
    }

    /// Advances the clock by `dt` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `dt` violates [`assert_monotone_dt`] (time never goes
    /// backwards).
    pub(crate) fn advance(&mut self, dt_s: f64) {
        assert_monotone_dt(dt_s);
        self.now_s += dt_s;
    }

    /// Advances to an absolute time, if later than now (e.g. synchronizing
    /// with a parallel actor's completion). Earlier times (including
    /// `-∞`) are ignored — the clock never rewinds.
    ///
    /// # Panics
    ///
    /// Panics if `t_s` is NaN or `+∞`: a non-finite target means a cost
    /// model upstream produced garbage, and the shared monotonicity
    /// checkpoint is where that must surface.
    pub(crate) fn advance_to(&mut self, t_s: f64) {
        assert!(!t_s.is_nan(), "simulated clock: advance_to target must not be NaN");
        if t_s > self.now_s {
            assert_monotone_dt(t_s - self.now_s);
            self.now_s = t_s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_accumulates() {
        let mut c = SimClock::new();
        assert_eq!(c.now_s(), 0.0);
        c.advance(2.0);
        c.advance(3.0);
        assert_eq!(c.now_s(), 5.0);
    }

    #[test]
    fn advance_to_never_rewinds() {
        let mut c = SimClock::new();
        c.advance(10.0);
        c.advance_to(5.0);
        assert_eq!(c.now_s(), 10.0);
        c.advance_to(12.0);
        assert_eq!(c.now_s(), 12.0);
    }

    #[test]
    #[should_panic(expected = "dt must be")]
    fn negative_advance_panics() {
        SimClock::new().advance(-1.0);
    }

    #[test]
    #[should_panic(expected = "dt must be")]
    fn infinite_advance_to_panics() {
        SimClock::new().advance_to(f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "must not be NaN")]
    fn nan_advance_to_panics() {
        SimClock::new().advance_to(f64::NAN);
    }

    #[test]
    fn helper_accepts_zero_and_finite_steps() {
        assert_monotone_dt(0.0);
        assert_monotone_dt(1e-12);
        assert_monotone_dt(3600.0);
    }
}
