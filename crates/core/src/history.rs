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

    fn history_from(losses: &[f32]) -> TrainingHistory {
        TrainingHistory {
            rounds: losses
                .iter()
                .enumerate()
                .map(|(i, &loss)| RoundStats {
                    round: i,
                    epoch: i / 2,
                    loss,
                    sim_time_s: (i + 1) as f64,
                    uplink_bytes: (i as u64 + 1) * 100,
                    energy_j: 0.0,
                    link: LinkStats::default(),
                })
                .collect(),
        }
    }

    #[test]
    fn epoch_losses_average_rounds() {
        let h = history_from(&[1.0, 0.8, 0.6, 0.4]);
        let e = h.epoch_losses();
        assert_eq!(e.len(), 2);
        assert!((e[0].1 - 0.9).abs() < 1e-6);
        assert!((e[1].1 - 0.5).abs() < 1e-6);
    }

    #[test]
    fn time_to_loss_finds_first_crossing() {
        let h = history_from(&[1.0, 0.5, 0.3, 0.35]);
        assert_eq!(h.time_to_loss(0.5), Some(2.0));
        assert_eq!(h.time_to_loss(0.1), None);
        assert_eq!(h.final_loss(), Some(0.35));
    }

    #[test]
    fn extend_appends() {
        let mut a = history_from(&[1.0]);
        a.extend(history_from(&[0.5, 0.25]));
        assert_eq!(a.rounds.len(), 3);
        assert_eq!(a.final_loss(), Some(0.25));
    }
}
