//! Simulation parameters: the medium-access mode and the simulator's seed.

/// How the shared intra-cluster radio medium is arbitrated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MacMode {
    /// **Contention-free, analytic-order schedule** — the equivalence mode.
    /// Every round runs the one body the analytic [`orco_wsn::Network`]
    /// runs (`orco_wsn::raw_round` and its siblings), one transmission or
    /// computation at a time, and the medium is held for the full
    /// transmission time (latency included). With zero loss this
    /// reproduces the analytic byte, energy, *and* clock totals exactly.
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
}

/// Event-driven backend configuration.
///
/// The default is [`SimParams::ideal`]: the contention-free schedule whose
/// totals are regression-tested to match the analytic backend exactly.
/// Concurrency ([`MacMode::Fifo`]) and slotting ([`MacMode::Tdma`]) are
/// opt-in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimParams {
    /// Medium-access mode for the shared intra-cluster radio.
    pub mac: MacMode,
    /// Extra seed folded into the simulator's private RNG stream (the
    /// per-frame loss draws), independent of the deployment seed.
    pub seed: u64,
}

impl SimParams {
    /// The equivalence mode: [`MacMode::Sequential`]. With zero-loss links
    /// this reproduces the analytic backend's byte, energy, and clock
    /// totals exactly.
    #[must_use]
    pub fn ideal() -> Self {
        Self { mac: MacMode::Sequential, seed: 0 }
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
    fn default_is_ideal() {
        assert_eq!(SimParams::default(), SimParams::ideal());
        assert_eq!(SimParams::ideal().mac, MacMode::Sequential);
    }
}
