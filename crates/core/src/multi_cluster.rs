//! Multi-cluster (IoT-Edge-Cloud) orchestration — the paper's stated
//! future work.
//!
//! > "A potential avenue for future work is the optimization of training
//! > overhead on edge servers when a large number of data aggregators need
//! > to perform training procedures of OrcoDCS."
//!
//! This module scales OrcoDCS to many clusters sharing **one** edge server:
//! each cluster has its own aggregator, deployment and task-specific
//! autoencoder, but decoder training contends for the edge's serial compute
//! capacity. The coordinator interleaves cluster rounds under a pluggable
//! [`EdgeSchedule`]; clusters whose turn has not come *wait*, and the wait
//! shows up on their simulated clock — exactly the overhead the paper says
//! needs optimizing.
//!
//! Three schedules are provided: FIFO (clusters queue in id order each
//! sweep), round-robin (one round each, rotating the start), and
//! loss-priority (the cluster with the worst recent loss trains first —
//! a simple "help the laggard" policy that improves worst-cluster loss at
//! equal edge budget).

use orco_datasets::Dataset;
use orco_wsn::NetworkConfig;

use crate::config::OrcoConfig;
use crate::error::OrcoError;
use crate::orchestrator::Orchestrator;
use crate::split::SplitModel;

/// How the shared edge serves competing clusters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeSchedule {
    /// Clusters are served in id order within every sweep.
    Fifo,
    /// Rotating order: sweep `s` starts at cluster `s mod K`.
    RoundRobin,
    /// The cluster with the highest last-seen loss is served first.
    LossPriority,
}

/// Per-cluster summary after a coordinated run.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Cluster index.
    pub cluster: usize,
    /// Rounds executed.
    pub rounds: usize,
    /// Final training loss.
    pub final_loss: f32,
    /// The cluster's simulated completion time, seconds.
    pub sim_time_s: f64,
    /// Of which: time spent waiting for the busy edge, seconds.
    pub edge_wait_s: f64,
}

/// Outcome of a coordinated multi-cluster run.
#[derive(Debug, Clone)]
pub struct MultiClusterOutcome {
    /// One report per cluster.
    pub reports: Vec<ClusterReport>,
    /// Time at which the last cluster finished (the makespan).
    pub makespan_s: f64,
    /// Total edge busy time, seconds.
    pub edge_busy_s: f64,
}

impl MultiClusterOutcome {
    /// Worst final loss across clusters (the fairness metric
    /// loss-priority scheduling optimizes).
    #[must_use]
    pub fn worst_loss(&self) -> f32 {
        let losses = self.reports.iter().map(|r| r.final_loss);
        losses.fold(f32::NEG_INFINITY, |m, v| if v > m { v } else { m })
    }

    /// Mean edge-wait across clusters, seconds.
    #[must_use]
    pub fn mean_wait_s(&self) -> f64 {
        if self.reports.is_empty() {
            return 0.0;
        }
        self.reports.iter().map(|r| r.edge_wait_s).sum::<f64>() / self.reports.len() as f64
    }
}

/// Coordinates K independent OrcoDCS clusters sharing one edge server.
#[derive(Debug)]
pub struct MultiClusterCoordinator {
    clusters: Vec<Orchestrator>,
    schedule: EdgeSchedule,
    edge_free_at_s: f64,
    edge_busy_s: f64,
    waits_s: Vec<f64>,
    last_loss: Vec<f32>,
}

impl MultiClusterCoordinator {
    /// Builds K clusters from per-cluster configurations. Every cluster
    /// gets its own deployment (`net_config` re-seeded per cluster).
    ///
    /// # Errors
    ///
    /// Propagates configuration errors.
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty.
    pub fn new(
        configs: &[OrcoConfig],
        net_config: &NetworkConfig,
        schedule: EdgeSchedule,
    ) -> Result<Self, OrcoError> {
        assert!(!configs.is_empty(), "MultiClusterCoordinator: need at least one cluster");
        let mut clusters = Vec::with_capacity(configs.len());
        for (i, cfg) in configs.iter().enumerate() {
            let mut net = net_config.clone();
            net.seed = net_config.seed.wrapping_add(i as u64);
            clusters.push(Orchestrator::new(cfg.clone().with_seed(cfg.seed + i as u64), net)?);
        }
        let k = clusters.len();
        Ok(Self {
            clusters,
            schedule,
            edge_free_at_s: 0.0,
            edge_busy_s: 0.0,
            waits_s: vec![0.0; k],
            last_loss: vec![f32::MAX; k],
        })
    }

    /// The edge-side seconds one round of cluster `i` occupies (decoder
    /// forward + backward for one batch, at the edge rate every `Network`
    /// computes with).
    fn edge_time_per_round(&self, i: usize, batch: usize) -> f64 {
        let model = self.clusters[i].model();
        let flops = (model.decoder_flops_forward() + model.decoder_flops_backward()) * batch as u64;
        orco_wsn::ComputeModel::default().time_for_flops(orco_wsn::DeviceClass::EdgeServer, flops)
    }

    fn sweep_order(&self, sweep: usize) -> Vec<usize> {
        let k = self.clusters.len();
        match self.schedule {
            EdgeSchedule::Fifo => (0..k).collect(),
            EdgeSchedule::RoundRobin => (0..k).map(|i| (i + sweep) % k).collect(),
            EdgeSchedule::LossPriority => {
                let mut order: Vec<usize> = (0..k).collect();
                order.sort_by(|&a, &b| {
                    self.last_loss[b]
                        .partial_cmp(&self.last_loss[a])
                        .expect("losses are ordered")
                        .then(a.cmp(&b))
                });
                order
            }
        }
    }

    /// Runs `sweeps` scheduling sweeps; in each sweep every cluster gets one
    /// training round on its own batch (here: the full per-cluster dataset,
    /// which keeps the contention model in focus).
    ///
    /// Within a sweep the expensive per-cluster training rounds execute
    /// **concurrently** on scoped threads: the edge-contention bookkeeping
    /// (who waits how long for the busy edge) depends only on each
    /// cluster's pre-round clock and its decoder's FLOP count, both known
    /// before any training starts, so the waits are resolved serially in
    /// schedule order first and the rounds themselves — whose mathematics
    /// never reads the shared edge state — then run in parallel. Results
    /// are bit-identical to fully serial execution at any thread count.
    ///
    /// # Errors
    ///
    /// Propagates per-round errors. Coordinator bookkeeping (edge
    /// accounting, per-cluster losses, waits, round counts) is committed in
    /// schedule order only up to the first failing cluster, exactly as
    /// serial execution would leave it. Because the sweep's rounds run
    /// concurrently, clusters scheduled *after* a failure may already have
    /// advanced their own clocks and models even though nothing about them
    /// is recorded — after an error the coordinator should be inspected or
    /// discarded, not trained further.
    ///
    /// # Panics
    ///
    /// Panics if `datasets.len()` differs from the cluster count.
    pub fn train(
        &mut self,
        datasets: &[Dataset],
        sweeps: usize,
    ) -> Result<MultiClusterOutcome, OrcoError> {
        assert_eq!(datasets.len(), self.clusters.len(), "one dataset per cluster");
        let mut rounds = vec![0usize; self.clusters.len()];

        for sweep in 0..sweeps {
            let order = self.sweep_order(sweep);

            // Phase 1 (serial, cheap): resolve edge contention in schedule
            // order. The edge serves one decoder round at a time; a round
            // occupies it from the moment its cluster reaches it. Nothing
            // is committed to coordinator state yet.
            let mut waits = vec![0.0f64; self.clusters.len()];
            let mut edge_times = vec![0.0f64; self.clusters.len()];
            let mut edge_free_after = vec![0.0f64; self.clusters.len()];
            let mut edge_free = self.edge_free_at_s;
            for &i in &order {
                edge_times[i] = self.edge_time_per_round(i, datasets[i].x().rows());
                let cluster_now = self.clusters[i].network().now_s();
                waits[i] = (edge_free - cluster_now).max(0.0);
                let start = (cluster_now + waits[i]).max(edge_free);
                edge_free = start + edge_times[i];
                edge_free_after[i] = edge_free;
            }

            // Phase 2 (parallel): every cluster waits out its contention
            // delay and trains independently on its own deployment.
            let mut results = run_cluster_rounds(&mut self.clusters, datasets, &waits);

            // Phase 3 (serial commit): record outcomes in schedule order,
            // stopping at the first failure so recorded state matches what
            // a serial run would have recorded when it hit that error.
            for &i in &order {
                let (loss, _dt) = results[i].take().expect("each cluster trains once per sweep")?;
                self.edge_free_at_s = edge_free_after[i];
                self.edge_busy_s += edge_times[i];
                self.waits_s[i] += waits[i];
                self.last_loss[i] = loss;
                rounds[i] += 1;
            }
        }

        let reports: Vec<ClusterReport> = (0..self.clusters.len())
            .map(|i| ClusterReport {
                cluster: i,
                rounds: rounds[i],
                final_loss: self.last_loss[i],
                sim_time_s: self.clusters[i].network().now_s(),
                edge_wait_s: self.waits_s[i],
            })
            .collect();
        let makespan_s = reports.iter().map(|r| r.sim_time_s).fold(0.0f64, f64::max);
        Ok(MultiClusterOutcome { reports, makespan_s, edge_busy_s: self.edge_busy_s })
    }
}

/// Runs one training round per cluster concurrently on scoped threads,
/// after advancing each cluster's clock by its edge-contention wait.
///
/// Each thread owns a disjoint `&mut Orchestrator`, and a cluster's round
/// reads nothing outside its own state, so execution order across threads
/// cannot influence any result; the returned vector is indexed by cluster.
/// The thread budget follows [`orco_tensor::parallel::threads`], and each
/// worker runs under [`orco_tensor::parallel::with_thread_budget`] with its
/// fair slice of that budget so the GEMMs inside `train_round` cannot
/// multiply worker counts into `budget × budget` threads.
fn run_cluster_rounds(
    clusters: &mut [Orchestrator],
    datasets: &[Dataset],
    waits: &[f64],
) -> Vec<Option<Result<(f32, f64), OrcoError>>> {
    let total_budget = orco_tensor::parallel::threads();
    let budget = total_budget.min(clusters.len()).max(1);
    let run_one = |i: usize, cluster: &mut Orchestrator| {
        if waits[i] > 0.0 {
            cluster.network_mut().wait(waits[i]);
        }
        Some(cluster.train_round(datasets[i].x()))
    };
    if budget == 1 {
        return clusters.iter_mut().enumerate().map(|(i, c)| run_one(i, c)).collect();
    }
    let inner_budget = (total_budget / budget).max(1);
    let chunk = clusters.len().div_ceil(budget);
    let mut results: Vec<Option<Result<(f32, f64), OrcoError>>> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(budget);
        for (block_idx, block) in clusters.chunks_mut(chunk).enumerate() {
            let run_one = &run_one;
            handles.push(scope.spawn(move || {
                orco_tensor::parallel::with_thread_budget(inner_budget, || {
                    block
                        .iter_mut()
                        .enumerate()
                        .map(|(off, c)| run_one(block_idx * chunk + off, c))
                        .collect::<Vec<_>>()
                })
            }));
        }
        for handle in handles {
            results.extend(handle.join().expect("cluster round thread panicked"));
        }
    });
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use orco_datasets::{mnist_like, DatasetKind};

    fn configs(k: usize) -> Vec<OrcoConfig> {
        (0..k)
            .map(|_| {
                OrcoConfig::for_dataset(DatasetKind::MnistLike)
                    .with_latent_dim(16)
                    .with_epochs(1)
                    .with_batch_size(8)
            })
            .collect()
    }

    fn datasets(k: usize) -> Vec<Dataset> {
        (0..k).map(|i| mnist_like::generate(8, i as u64)).collect()
    }

    fn net() -> NetworkConfig {
        NetworkConfig { num_devices: 8, seed: 0, ..Default::default() }
    }

    #[test]
    fn all_clusters_train_and_losses_drop() {
        let mut coord =
            MultiClusterCoordinator::new(&configs(3), &net(), EdgeSchedule::Fifo).unwrap();
        let ds = datasets(3);
        let first = coord.train(&ds, 1).unwrap();
        let later = coord.train(&ds, 6).unwrap();
        assert_eq!(later.reports.len(), 3);
        for (a, b) in first.reports.iter().zip(&later.reports) {
            assert!(b.final_loss < a.final_loss, "cluster {} did not improve", a.cluster);
            assert_eq!(b.rounds, 6);
        }
        assert!(later.makespan_s > 0.0);
        assert!(later.edge_busy_s > 0.0);
    }

    #[test]
    fn contention_grows_with_cluster_count() {
        let ds2 = datasets(2);
        let ds8 = datasets(8);
        let mut small =
            MultiClusterCoordinator::new(&configs(2), &net(), EdgeSchedule::Fifo).unwrap();
        let mut large =
            MultiClusterCoordinator::new(&configs(8), &net(), EdgeSchedule::Fifo).unwrap();
        let o2 = small.train(&ds2, 4).unwrap();
        let o8 = large.train(&ds8, 4).unwrap();
        // More clusters → strictly more total edge busy time and more
        // waiting per cluster on average.
        assert!(o8.edge_busy_s > o2.edge_busy_s * 3.0);
        assert!(o8.mean_wait_s() >= o2.mean_wait_s());
    }

    #[test]
    fn round_robin_rotates_priority() {
        let coord =
            MultiClusterCoordinator::new(&configs(3), &net(), EdgeSchedule::RoundRobin).unwrap();
        assert_eq!(coord.sweep_order(0), vec![0, 1, 2]);
        assert_eq!(coord.sweep_order(1), vec![1, 2, 0]);
        assert_eq!(coord.sweep_order(2), vec![2, 0, 1]);
    }

    #[test]
    fn loss_priority_serves_worst_cluster_first() {
        let mut coord =
            MultiClusterCoordinator::new(&configs(2), &net(), EdgeSchedule::LossPriority).unwrap();
        coord.last_loss = vec![0.1, 0.9];
        assert_eq!(coord.sweep_order(0), vec![1, 0]);
        coord.last_loss = vec![0.9, 0.1];
        assert_eq!(coord.sweep_order(0), vec![0, 1]);
    }

    #[test]
    fn schedules_preserve_total_work() {
        // Different schedules reorder but never change rounds per cluster.
        for schedule in [EdgeSchedule::Fifo, EdgeSchedule::RoundRobin, EdgeSchedule::LossPriority] {
            let mut coord = MultiClusterCoordinator::new(&configs(3), &net(), schedule).unwrap();
            let out = coord.train(&datasets(3), 3).unwrap();
            for r in &out.reports {
                assert_eq!(r.rounds, 3, "{schedule:?}");
            }
        }
    }

    #[test]
    fn task_specific_latent_dims_coexist() {
        // The paper's flexibility claim at fleet scale: clusters with
        // different M train side by side against one edge.
        let mut cfgs = configs(2);
        cfgs[1] = cfgs[1].clone().with_latent_dim(64);
        let mut coord = MultiClusterCoordinator::new(&cfgs, &net(), EdgeSchedule::Fifo).unwrap();
        let out = coord.train(&datasets(2), 2).unwrap();
        assert_eq!(coord.clusters[0].model().latent_dim(), 16);
        assert_eq!(coord.clusters[1].model().latent_dim(), 64);
        assert!(out.reports.iter().all(|r| r.final_loss.is_finite()));
    }
}
