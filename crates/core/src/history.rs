//! Training history bookkeeping: what one orchestrated round cost and the
//! loss/time trajectory of a run (§III-B).

use orco_wsn::LinkStats;

/// Statistics for one orchestrated training round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundStats {
    /// Round index within the run.
    pub round: usize,
    /// Epoch the round belongs to.
    pub epoch: usize,
    /// Batch loss before the update.
    pub loss: f32,
    /// Simulated time at round completion, seconds (cumulative).
    pub sim_time_s: f64,
    /// Cumulative latent-vector uplink bytes at round completion.
    pub uplink_bytes: u64,
    /// Cumulative radio energy (tx + rx) at round completion, joules.
    /// Zero for rounds trained without a simulated deployment.
    pub energy_j: f64,
    /// Cumulative delivery statistics at round completion: packet
    /// outcomes, retransmitted frames, airtime, and delivery-latency
    /// percentiles (p50/p99). All-zero for rounds trained without a
    /// simulated deployment.
    pub link: LinkStats,
}

/// The loss/time trajectory of a training run — the paper's Figures 4 and
/// 6–8 plot exactly this.
#[derive(Debug, Clone, Default)]
pub struct TrainingHistory {
    /// One entry per round, in execution order.
    pub rounds: Vec<RoundStats>,
}

impl TrainingHistory {
    /// The final round's loss, if any rounds ran.
    #[must_use]
    pub fn final_loss(&self) -> Option<f32> {
        self.rounds.last().map(|r| r.loss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn final_loss_is_the_last_rounds() {
        let round = |i: usize, loss: f32| RoundStats {
            round: i,
            epoch: i / 2,
            loss,
            sim_time_s: (i + 1) as f64,
            uplink_bytes: (i as u64 + 1) * 100,
            energy_j: 0.0,
            link: LinkStats::default(),
        };
        assert_eq!(TrainingHistory::default().final_loss(), None);
        let h = TrainingHistory { rounds: vec![round(0, 1.0), round(1, 0.35)] };
        assert_eq!(h.final_loss(), Some(0.35));
    }
}
