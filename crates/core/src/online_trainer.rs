//! Training history bookkeeping and the continual online-operation loop
//! (§III-B training + §III-D monitoring glued together).

use orco_tensor::Matrix;
use orco_wsn::LinkStats;

use crate::error::OrcoError;
use crate::monitor::FineTuneMonitor;
use crate::orchestrator::Orchestrator;

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

    /// Mean loss per epoch: `(epoch, mean_loss)` in epoch order.
    #[must_use]
    pub fn epoch_losses(&self) -> Vec<(usize, f32)> {
        let mut out: Vec<(usize, f32)> = Vec::new();
        let mut current_epoch = None;
        let mut sum = 0.0f64;
        let mut count = 0usize;
        for r in &self.rounds {
            if current_epoch != Some(r.epoch) {
                if let Some(e) = current_epoch {
                    out.push((e, (sum / count as f64) as f32));
                }
                current_epoch = Some(r.epoch);
                sum = 0.0;
                count = 0;
            }
            sum += f64::from(r.loss);
            count += 1;
        }
        if let Some(e) = current_epoch {
            out.push((e, (sum / count as f64) as f32));
        }
        out
    }

    /// First simulated time at which the loss dropped to `target` or below
    /// (the paper's time-to-loss metric). `None` if never reached.
    #[must_use]
    pub fn time_to_loss(&self, target: f32) -> Option<f64> {
        self.rounds.iter().find(|r| r.loss <= target).map(|r| r.sim_time_s)
    }

    /// Appends another history (used when the monitor relaunches training).
    pub fn extend(&mut self, other: TrainingHistory) {
        self.rounds.extend(other.rounds);
    }
}

/// Outcome of feeding one batch of fresh sensing data to the online loop.
#[derive(Debug)]
pub struct OnlineStepOutcome {
    /// Reconstruction loss measured on the fresh batch.
    pub reconstruction_loss: f32,
    /// Training history of the relaunched run, if the monitor triggered.
    pub retraining: Option<TrainingHistory>,
}

/// Continual operation: reconstruct fresh data, watch the error, relaunch
/// training when the environment drifts (paper §III-D).
///
/// # Examples
///
/// ```
/// use orcodcs::{OnlineTrainer, OrcoConfig, Orchestrator};
/// use orco_datasets::{mnist_like, DatasetKind};
/// use orco_wsn::NetworkConfig;
///
/// let cfg = OrcoConfig::for_dataset(DatasetKind::MnistLike)
///     .with_latent_dim(16).with_epochs(1).with_batch_size(8)
///     .with_finetune_threshold(0.02);
/// let orch = Orchestrator::new(cfg, NetworkConfig { num_devices: 8, ..Default::default() }).unwrap();
/// let mut online = OnlineTrainer::new(orch);
/// let data = mnist_like::generate(16, 0);
/// let _history = online.initial_training(data.x()).unwrap();
/// let outcome = online.process_batch(data.x()).unwrap();
/// assert!(outcome.reconstruction_loss.is_finite());
/// ```
#[derive(Debug)]
pub struct OnlineTrainer {
    orchestrator: Orchestrator,
    monitor: FineTuneMonitor,
    retrain_count: usize,
}

impl OnlineTrainer {
    /// Wraps an orchestrator; the monitor threshold comes from the
    /// orchestrator's [`crate::OrcoConfig::finetune_threshold`].
    #[must_use]
    pub fn new(orchestrator: Orchestrator) -> Self {
        let monitor = FineTuneMonitor::new(orchestrator.config().finetune_threshold, 4);
        Self { orchestrator, monitor, retrain_count: 0 }
    }

    /// The wrapped orchestrator.
    #[must_use]
    pub fn orchestrator(&self) -> &Orchestrator {
        &self.orchestrator
    }

    /// Number of times the monitor relaunched training.
    #[must_use]
    pub fn retrain_count(&self) -> usize {
        self.retrain_count
    }

    /// Initial online training on aggregated data.
    ///
    /// # Errors
    ///
    /// Propagates orchestration errors.
    pub fn initial_training(&mut self, x: &Matrix) -> Result<TrainingHistory, OrcoError> {
        self.orchestrator.train(x)
    }

    /// Feeds one batch of fresh sensing data: measures reconstruction
    /// error on the edge, records it with the monitor, and — if the
    /// threshold is breached — relaunches the §III-B training procedure on
    /// that batch ("the training procedure is relaunched").
    ///
    /// # Errors
    ///
    /// Propagates orchestration errors from relaunched training.
    pub fn process_batch(&mut self, x: &Matrix) -> Result<OnlineStepOutcome, OrcoError> {
        let loss = self.orchestrator.config().loss();
        let err = self.orchestrator.model_mut().evaluate(x, &loss);
        self.monitor.record(err);
        let retraining = if self.monitor.should_retrain() {
            self.monitor.acknowledge();
            self.retrain_count += 1;
            Some(self.orchestrator.train(x)?)
        } else {
            None
        };
        Ok(OnlineStepOutcome { reconstruction_loss: err, retraining })
    }

    /// Like [`OnlineTrainer::process_batch`], but snapshots the model
    /// before any relaunched training and **rolls back** if the adaptation
    /// made the reconstruction error on `x` worse — a retrain on a
    /// pathological batch (e.g. a transient noise burst) must never leave
    /// the deployment worse off than doing nothing.
    ///
    /// Returns the outcome plus whether a rollback happened.
    ///
    /// # Errors
    ///
    /// Propagates orchestration errors from relaunched training.
    pub fn process_batch_with_rollback(
        &mut self,
        x: &Matrix,
    ) -> Result<(OnlineStepOutcome, bool), OrcoError> {
        let loss = self.orchestrator.config().loss();
        let err = self.orchestrator.model_mut().evaluate(x, &loss);
        self.monitor.record(err);
        if !self.monitor.should_retrain() {
            return Ok((OnlineStepOutcome { reconstruction_loss: err, retraining: None }, false));
        }
        self.monitor.acknowledge();
        self.retrain_count += 1;
        let snapshot = self.orchestrator.model_mut().snapshot();
        let history = self.orchestrator.train(x)?;
        let after = self.orchestrator.model_mut().evaluate(x, &loss);
        let rolled_back = if after > err {
            self.orchestrator.model_mut().restore_snapshot(&snapshot);
            true
        } else {
            false
        };
        Ok((OnlineStepOutcome { reconstruction_loss: err, retraining: Some(history) }, rolled_back))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OrcoConfig;
    use orco_datasets::{drift, mnist_like, DatasetKind};
    use orco_tensor::OrcoRng;
    use orco_wsn::NetworkConfig;

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
    fn monitor_triggers_retraining_on_drift() {
        let cfg = OrcoConfig::for_dataset(DatasetKind::MnistLike)
            .with_latent_dim(16)
            .with_epochs(2)
            .with_batch_size(16)
            .with_learning_rate(0.1)
            .with_finetune_threshold(0.012);
        let orch =
            Orchestrator::new(cfg, NetworkConfig { num_devices: 8, seed: 2, ..Default::default() })
                .unwrap();
        let mut online = OnlineTrainer::new(orch);
        let ds = mnist_like::generate(32, 5);
        let _ = online.initial_training(ds.x()).unwrap();

        // In-distribution batches: error should settle under control.
        for _ in 0..4 {
            let _ = online.process_batch(ds.x()).unwrap();
        }
        let before = online.retrain_count();

        // Severe drift: brightness inversion-like bias shift.
        let mut rng = OrcoRng::from_label("online-drift", 0);
        let drifted = drift::apply(&ds, drift::Drift::Bias, 0.9, &mut rng);
        let mut triggered = false;
        for _ in 0..6 {
            let outcome = online.process_batch(drifted.x()).unwrap();
            if outcome.retraining.is_some() {
                triggered = true;
                break;
            }
        }
        assert!(triggered, "drift must trigger the fine-tuning monitor");
        assert!(online.retrain_count() > before);
    }

    #[test]
    fn rollback_restores_model_when_retrain_hurts() {
        // Retraining genuinely helps on bias drift, so to exercise the
        // rollback branch we retrain with a destructively high learning
        // rate: the adaptation diverges and must be rolled back.
        let cfg = OrcoConfig::for_dataset(DatasetKind::MnistLike)
            .with_latent_dim(16)
            .with_epochs(1)
            .with_batch_size(32)
            .with_learning_rate(0.9) // destructive
            .with_finetune_threshold(0.0001);
        let orch =
            Orchestrator::new(cfg, NetworkConfig { num_devices: 8, seed: 4, ..Default::default() })
                .unwrap();
        let mut online = OnlineTrainer::new(orch);
        let ds = mnist_like::generate(32, 9);
        // Fill the monitor window so the first processed batch triggers.
        for _ in 0..4 {
            let _ = online.process_batch(ds.x()).unwrap();
        }
        let mut saw_rollback = false;
        for _ in 0..4 {
            let (outcome, rolled_back) = online.process_batch_with_rollback(ds.x()).unwrap();
            if outcome.retraining.is_some() && rolled_back {
                saw_rollback = true;
                break;
            }
        }
        assert!(saw_rollback, "destructive retrain must be rolled back");
    }

    #[test]
    fn extend_appends() {
        let mut a = history_from(&[1.0]);
        a.extend(history_from(&[0.5, 0.25]));
        assert_eq!(a.rounds.len(), 3);
        assert_eq!(a.final_loss(), Some(0.25));
    }
}
