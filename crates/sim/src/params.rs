//! Simulation parameters: medium-access mode, duty cycling.

/// How the shared intra-cluster radio medium is arbitrated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MacMode {
    /// **Contention-free, analytic-order schedule** — the equivalence mode.
    /// Every round's transmissions and computations execute one at a time
    /// in exactly the order the analytic [`orco_wsn::Network`] iterates
    /// them, and the medium is held for the full transmission time
    /// (latency included). With zero loss this reproduces the analytic
    /// byte, energy, *and* clock totals exactly.
    Sequential,
    /// Work-conserving FIFO medium: transmissions are granted in request
    /// order, concurrency across nodes is real (computes overlap, link
    /// latency pipelines behind the next sender's airtime), but nobody
    /// backs off and nothing collides.
    Fifo,
    /// TDMA: the cluster shares a slotted schedule (devices + aggregator,
    /// one slot each, round-robin by node id). A transmission may start
    /// only at a slot boundary its sender owns; bursts hold the medium to
    /// completion.
    Tdma {
        /// Slot duration, seconds.
        slot_s: f64,
    },
    /// CSMA-style contention: senders sniff the medium and defer with a
    /// random backoff while it is busy; two senders starting within the
    /// clear-channel-assessment window collide and both bursts are lost
    /// (then retried through the normal ARQ path).
    Csma {
        /// Clear-channel-assessment window, seconds: grants closer
        /// together than this collide.
        cca_s: f64,
        /// Maximum random backoff after sensing a busy medium, seconds.
        max_backoff_s: f64,
    },
}

/// Periodic radio duty cycle: a device's radio is awake for the first
/// `on_fraction` of every `period_s` window and asleep otherwise.
/// Transmissions wait for a window in which both endpoints are awake (the
/// aggregator and edge are mains-powered and always on).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DutyCycle {
    /// Cycle period, seconds.
    pub(crate) period_s: f64,
    /// Fraction of the period the radio is awake, in `(0, 1]`.
    pub(crate) on_fraction: f64,
}

impl DutyCycle {
    /// Creates a duty cycle.
    ///
    /// # Panics
    ///
    /// Panics if `period_s` is not positive or `on_fraction` is outside
    /// `(0, 1]`.
    #[must_use]
    pub fn new(period_s: f64, on_fraction: f64) -> Self {
        assert!(period_s > 0.0, "DutyCycle: period must be positive");
        assert!(
            on_fraction > 0.0 && on_fraction <= 1.0,
            "DutyCycle: on_fraction must be in (0, 1]"
        );
        Self { period_s, on_fraction }
    }

    /// The earliest time ≥ `t_s` at which the radio is awake.
    #[must_use]
    pub(crate) fn next_active_s(&self, t_s: f64) -> f64 {
        if self.on_fraction >= 1.0 {
            return t_s;
        }
        let cycle = (t_s / self.period_s).floor();
        let phase = t_s - cycle * self.period_s;
        if phase < self.on_fraction * self.period_s {
            t_s
        } else {
            (cycle + 1.0) * self.period_s
        }
    }
}

/// Event-driven backend configuration.
///
/// The default is [`SimParams::ideal`]: the contention-free schedule whose
/// totals are regression-tested to match the analytic backend exactly.
/// Concurrency, contention, and duty cycling are opt-in knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimParams {
    /// Medium-access mode for the shared intra-cluster radio.
    pub mac: MacMode,
    /// Radio duty cycle of the IoT devices (`None` = always on).
    pub duty_cycle: Option<DutyCycle>,
    /// Extra seed folded into the simulator's private RNG stream (backoff,
    /// per-frame loss draws), independent of the deployment seed.
    pub seed: u64,
}

impl SimParams {
    /// The equivalence mode: [`MacMode::Sequential`] and always-on radios.
    /// With zero-loss links this reproduces the analytic backend's byte,
    /// energy, and clock totals exactly.
    #[must_use]
    pub fn ideal() -> Self {
        Self { mac: MacMode::Sequential, duty_cycle: None, seed: 0 }
    }
}

impl Default for SimParams {
    fn default() -> Self {
        Self::ideal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duty_cycle_next_active() {
        let d = DutyCycle::new(1.0, 0.25);
        assert_eq!(d.next_active_s(0.0), 0.0);
        assert_eq!(d.next_active_s(0.2), 0.2);
        assert_eq!(d.next_active_s(0.25), 1.0);
        assert_eq!(d.next_active_s(0.9), 1.0);
        assert_eq!(d.next_active_s(1.1), 1.1);
        let always = DutyCycle::new(1.0, 1.0);
        assert_eq!(always.next_active_s(0.7), 0.7);
    }

    #[test]
    #[should_panic(expected = "on_fraction")]
    fn duty_cycle_rejects_zero_on_fraction() {
        let _ = DutyCycle::new(1.0, 0.0);
    }

    #[test]
    fn default_is_ideal() {
        assert_eq!(SimParams::default(), SimParams::ideal());
        assert_eq!(SimParams::ideal().mac, MacMode::Sequential);
    }
}
