//! The one experiment driver every figure, example, and test runs through.
//!
//! [`ExperimentBuilder`] assembles a [`Codec`], a dataset, and a simulated
//! deployment into an [`Experiment`]; [`Experiment::run`] executes the full
//! OrcoDCS lifecycle — intra-cluster raw aggregation, training (over the
//! orchestrated IoT-Edge protocol when the codec supports it, natively
//! otherwise), encoder/operator distribution, and steady-state data-plane
//! measurement — and returns a [`Report`] of structured records. Figures
//! are thin projections of that one data model instead of bespoke loops.
//!
//! ```
//! use orcodcs::{AsymmetricAutoencoder, ExperimentBuilder, OrcoConfig};
//! use orco_datasets::{mnist_like, DatasetKind};
//!
//! let dataset = mnist_like::generate(32, 0);
//! let config = OrcoConfig::for_dataset(DatasetKind::MnistLike)
//!     .with_latent_dim(16)
//!     .with_batch_size(8);
//! let codec = AsymmetricAutoencoder::new(&config).unwrap();
//! let mut experiment = ExperimentBuilder::new()
//!     .dataset(&dataset)
//!     .codec(codec)
//!     .epochs(2)
//!     .batch_size(8)
//!     .build()
//!     .unwrap();
//! let report = experiment.run().unwrap();
//! assert_eq!(report.codec, "OrcoDCS");
//! assert!(report.final_loss.is_finite());
//! assert!(report.sim_time_s > 0.0);
//! ```

use std::path::PathBuf;

use orco_datasets::Dataset;
use orco_nn::Loss;
use orco_sim::{DesNetwork, SimSpec};
use orco_tensor::{stats, Matrix, OrcoRng};
use orco_wsn::{DeploymentBackend, LinkStats, Network, NetworkConfig, PacketKind};

use crate::aggregation::{self, TransmissionReport};
use crate::checkpoint::CheckpointStore;
use crate::codec::{fraction_rows, Codec, TrainSpec};
use crate::compression::GradCompression;
use crate::error::OrcoError;
use crate::history::{RoundStats, TrainingHistory};
use crate::monitor::FineTuneMonitor;
use crate::orchestrator::{Orchestrator, RunSettings};

/// Which simulator executes the deployment of an orchestrated experiment.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum DeploymentSpec {
    /// The analytic model (`orco_wsn::Network`): one global clock,
    /// sequential transmissions, inline loss draws. Fast, and the default.
    #[default]
    Analytic,
    /// The `orco-sim` discrete-event simulator: per-node clocks, a
    /// FIFO or TDMA MAC, ARQ + fragmentation events, and a scripted fault
    /// [`orco_sim::Scenario`]. With [`SimSpec::ideal`] it reproduces the
    /// analytic totals exactly (regression-tested).
    EventDriven(SimSpec),
}

/// How the codec is trained by the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainingMode {
    /// Through the IoT-Edge orchestrated protocol (§III-B), paying compute
    /// and every protocol byte on the simulated deployment. Requires
    /// [`Codec::split_model`].
    Orchestrated,
    /// Natively (locally / offline), off the simulated clock — the
    /// cloud-style scheme of the DCSNet baseline and the setting of the
    /// quality-only figures.
    Local,
}

/// Reconstruction error on the probe set at one epoch boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochRecord {
    /// Epochs completed when the record was taken (0 = before training).
    pub epoch: usize,
    /// Simulated seconds at the record.
    pub sim_time_s: f64,
    /// L2 reconstruction error on the probe set — one **common** metric
    /// across all codecs, whatever loss they train with natively.
    pub probe_l2: f32,
}

/// Total radio traffic and energy of the training phase, from the
/// `orco_wsn` accounting ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RadioSummary {
    /// All bytes on air (every hop, headers included).
    pub total_tx_bytes: u64,
    /// Latent/code uplink bytes (aggregator → edge).
    pub uplink_bytes: u64,
    /// Gradient-feedback bytes (the uplink the paper's compression policy
    /// shrinks).
    pub feedback_bytes: u64,
    /// Radio energy spent (tx + rx), joules.
    pub energy_j: f64,
    /// Delivery statistics: packet outcomes (delivered / dropped /
    /// retransmitted), radio airtime, and delivery-latency percentiles.
    pub link: LinkStats,
}

/// Everything one pipeline run produces. Figures project from these
/// records; nothing in here requires the experiment to stay alive.
///
/// `PartialEq` compares every record bit for bit — replaying the same
/// experiment (same codec, seeds, deployment backend, and scenario) must
/// produce an equal `Report`, which the determinism regressions assert.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// The codec's [`Codec::name`].
    pub codec: &'static str,
    /// The deployment backend that executed the run (`"analytic"`,
    /// `"event-driven"`, or `"local"` for un-simulated training).
    pub backend: &'static str,
    /// How training ran.
    pub mode: TrainingMode,
    /// Per-round training records (loss, simulated clock, cumulative
    /// uplink bytes and radio energy), in execution order.
    pub rounds: Vec<RoundStats>,
    /// Probe reconstruction error at every epoch boundary, including one
    /// record before training.
    pub probe: Vec<EpochRecord>,
    /// Codec-native loss over the full dataset after training.
    pub final_loss: f32,
    /// Mean PSNR (dB) of reconstructions over the dataset.
    pub mean_psnr_db: f32,
    /// Simulated seconds from first raw frame to end of training (zero for
    /// [`TrainingMode::Local`]).
    pub sim_time_s: f64,
    /// Radio accounting of the training phase.
    pub training_radio: RadioSummary,
    /// Steady-state data-plane cost, measured post-distribution (`None`
    /// for local runs and when disabled).
    pub data_plane: Option<TransmissionReport>,
    /// Checkpoints pushed to the configured store during this run.
    pub checkpoints_saved: usize,
}

impl Report {
    /// Final probe-set L2 (NaN if no probe records).
    #[must_use]
    pub fn final_probe_l2(&self) -> f32 {
        self.probe.last().map_or(f32::NAN, |r| r.probe_l2)
    }

    /// Simulated time of the last probe record.
    #[must_use]
    pub fn total_time_s(&self) -> f64 {
        self.probe.last().map_or(0.0, |r| r.sim_time_s)
    }

    /// Per-epoch probe curve excluding the pre-training point — the y-axis
    /// of the paper's Figures 6–8.
    #[must_use]
    pub fn probe_curve(&self) -> &[EpochRecord] {
        if self.probe.len() > 1 {
            &self.probe[1..]
        } else {
            &self.probe
        }
    }

    /// The last training round's loss, if any rounds ran.
    #[must_use]
    pub fn final_round_loss(&self) -> Option<f32> {
        self.rounds.last().map(|r| r.loss)
    }
}

/// Outcome of streaming one batch of fresh sensing data through
/// [`Experiment::observe`].
#[derive(Debug)]
pub struct ObserveOutcome {
    /// Codec-native reconstruction error on the fresh batch.
    pub reconstruction_error: f32,
    /// Training history of the relaunched run, if the monitor triggered.
    pub retraining: Option<TrainingHistory>,
}

/// How many devices to simulate for a run. Faithful deployments set this to
/// `N` (one device per reading, as the paper's formulation assumes);
/// figure sweeps that only need training curves can use a smaller cluster
/// to keep wall-clock time down without changing any training math.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterScale {
    /// One IoT device per input dimension (the paper's model).
    Faithful,
    /// A fixed number of devices (data-plane bytes still scale with `M`).
    Devices(usize),
}

impl ClusterScale {
    /// Resolves the device count for a frame of `input_dim` readings.
    #[must_use]
    pub fn device_count(self, input_dim: usize) -> usize {
        match self {
            ClusterScale::Faithful => input_dim,
            ClusterScale::Devices(n) => n.max(1),
        }
    }
}

/// Builds an [`Experiment`]. `dataset` and `codec` are required; every
/// other knob has the defaults of the paper's standard single-cluster
/// setting (32 devices, batch 32, 10 epochs, full data stream, seed 0).
#[derive(Debug, Default)]
pub struct ExperimentBuilder {
    dataset: Option<Dataset>,
    codec: Option<Box<dyn Codec>>,
    net_config: Option<NetworkConfig>,
    deployment: Option<DeploymentSpec>,
    scale: Option<ClusterScale>,
    seed: Option<u64>,
    epochs: Option<usize>,
    batch_size: Option<usize>,
    data_fraction: Option<f32>,
    grad_compression: Option<GradCompression>,
    mode: Option<TrainingMode>,
    probe_n: Option<usize>,
    raw_frames: Option<usize>,
    data_plane_frames: Option<usize>,
    monitor: Option<FineTuneMonitor>,
    checkpoints: Option<(PathBuf, usize)>,
}

impl ExperimentBuilder {
    /// An empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The sensing workload (required).
    #[must_use]
    pub fn dataset(mut self, dataset: &Dataset) -> Self {
        self.dataset = Some(dataset.clone());
        self
    }

    /// The compression backend (required).
    #[must_use]
    pub fn codec(mut self, codec: impl Codec + 'static) -> Self {
        self.codec = Some(Box::new(codec));
        self
    }

    /// A boxed backend (for callers iterating over heterogeneous codecs).
    #[must_use]
    pub fn codec_boxed(mut self, codec: Box<dyn Codec>) -> Self {
        self.codec = Some(codec);
        self
    }

    /// Base deployment parameters (radio rates, failure model, …).
    /// `num_devices` and `seed` are overridden by [`Self::scale`] and
    /// [`Self::seed`].
    #[must_use]
    pub fn network(mut self, net_config: NetworkConfig) -> Self {
        self.net_config = Some(net_config);
        self
    }

    /// Which simulator executes the deployment (default:
    /// [`DeploymentSpec::Analytic`]). Select
    /// [`DeploymentSpec::EventDriven`] to run the same protocol over the
    /// `orco-sim` discrete-event backend — with a shared medium, ARQ, and
    /// scripted fault scenarios.
    #[must_use]
    pub fn deployment(mut self, deployment: DeploymentSpec) -> Self {
        self.deployment = Some(deployment);
        self
    }

    /// Cluster size policy (default: a fixed 32-device cluster).
    #[must_use]
    pub fn scale(mut self, scale: ClusterScale) -> Self {
        self.scale = Some(scale);
        self
    }

    /// Seed for deployment, batching, and data subsetting (default 0).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Training epochs (default 10). Zero skips training — used by
    /// pure data-plane measurements like Figure 3.
    #[must_use]
    pub fn epochs(mut self, epochs: usize) -> Self {
        self.epochs = Some(epochs);
        self
    }

    /// Mini-batch size per training round (default 32).
    #[must_use]
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = Some(batch_size);
        self
    }

    /// Fraction of the stream the codec may see, in `(0, 1]` (default 1) —
    /// the paper's DCSNet-30/50/70% data-access settings.
    #[must_use]
    pub fn data_fraction(mut self, fraction: f32) -> Self {
        self.data_fraction = Some(fraction);
        self
    }

    /// Gradient-feedback compression policy for orchestrated training.
    #[must_use]
    pub fn grad_compression(mut self, policy: GradCompression) -> Self {
        self.grad_compression = Some(policy);
        self
    }

    /// Forces a training mode. Default: [`TrainingMode::Orchestrated`]
    /// when the codec exposes a split model, [`TrainingMode::Local`]
    /// otherwise.
    #[must_use]
    pub fn training(mut self, mode: TrainingMode) -> Self {
        self.mode = Some(mode);
        self
    }

    /// Probe-set size for the per-epoch reconstruction-error records
    /// (default: first 64 samples).
    #[must_use]
    pub fn probe(mut self, samples: usize) -> Self {
        self.probe_n = Some(samples);
        self
    }

    /// Frames of §III-A raw aggregation before orchestrated training
    /// (default: one per accessible training sample; zero skips the
    /// collection phase, putting every backend's curve on a common t = 0
    /// training axis — the setting of the paper's sweep figures).
    #[must_use]
    pub fn raw_frames(mut self, frames: usize) -> Self {
        self.raw_frames = Some(frames);
        self
    }

    /// Frames to measure on the steady-state data plane after
    /// distribution (default `dataset.len().clamp(1, 8)`; zero disables
    /// the measurement).
    #[must_use]
    pub fn data_plane_frames(mut self, frames: usize) -> Self {
        self.data_plane_frames = Some(frames);
        self
    }

    /// Installs a fine-tuning monitor (§III-D): after [`Experiment::run`],
    /// fresh batches streamed through [`Experiment::observe`] are watched
    /// and training is relaunched when the windowed error breaches the
    /// monitor's threshold.
    #[must_use]
    pub fn monitor(mut self, monitor: FineTuneMonitor) -> Self {
        self.monitor = Some(monitor);
        self
    }

    /// Persists the codec's distributable parameters to a rolling
    /// [`CheckpointStore`] rooted at `dir` after initial training and after
    /// every monitor-triggered retrain, keeping the latest `capacity`
    /// (non-zero, or [`ExperimentBuilder::build`] refuses).
    #[must_use]
    pub fn checkpoints(mut self, dir: impl Into<PathBuf>, capacity: usize) -> Self {
        self.checkpoints = Some((dir.into(), capacity));
        self
    }

    /// Validates the configuration and assembles the experiment.
    ///
    /// # Errors
    ///
    /// Returns [`OrcoError::Config`] when `dataset`/`codec` are missing or
    /// any knob is inconsistent (dimension mismatch, orchestrated mode on a
    /// codec without a split model, a checkpoint store of capacity 0, …).
    pub fn build(self) -> Result<Experiment, OrcoError> {
        let config_err = |detail: String| OrcoError::Config { detail };
        let dataset = self
            .dataset
            .ok_or_else(|| config_err("ExperimentBuilder: dataset is required".into()))?;
        let mut codec =
            self.codec.ok_or_else(|| config_err("ExperimentBuilder: codec is required".into()))?;
        if codec.input_dim() != dataset.x().cols() {
            return Err(config_err(format!(
                "codec expects {}-dim frames, dataset has {}-dim samples",
                codec.input_dim(),
                dataset.x().cols()
            )));
        }
        if codec.code_len() == 0 {
            return Err(config_err("codec reports a zero-length code".into()));
        }
        let batch_size = self.batch_size.unwrap_or(32);
        if batch_size == 0 {
            return Err(config_err("batch_size must be non-zero".into()));
        }
        let data_fraction = self.data_fraction.unwrap_or(1.0);
        if !(data_fraction > 0.0 && data_fraction <= 1.0) {
            return Err(config_err("data_fraction must be in (0, 1]".into()));
        }
        let mode = match self.mode {
            Some(TrainingMode::Orchestrated) if codec.split_model().is_none() => {
                return Err(config_err(format!(
                    "codec '{}' cannot train through the orchestrated protocol (no split model)",
                    codec.name()
                )));
            }
            Some(mode) => mode,
            None => {
                if codec.split_model().is_some() {
                    TrainingMode::Orchestrated
                } else {
                    TrainingMode::Local
                }
            }
        };
        if matches!(self.checkpoints, Some((_, 0))) {
            return Err(config_err("checkpoint capacity must be non-zero".into()));
        }
        let probe_n = self.probe_n.unwrap_or(64).max(1);
        let store = self.checkpoints.map(|(dir, capacity)| CheckpointStore::new(dir, capacity));
        Ok(Experiment {
            dataset,
            codec,
            net_config: self.net_config.unwrap_or_default(),
            deployment: self.deployment.unwrap_or_default(),
            scale: self.scale.unwrap_or(ClusterScale::Devices(32)),
            seed: self.seed.unwrap_or(0),
            epochs: self.epochs.unwrap_or(10),
            batch_size,
            data_fraction,
            grad_compression: self.grad_compression.unwrap_or_default(),
            mode,
            probe_n,
            raw_frames: self.raw_frames,
            data_plane_frames: self.data_plane_frames,
            monitor: self.monitor,
            store,
            checkpoints_saved: 0,
            retrains: 0,
            network: None,
            ran: false,
        })
    }
}

/// A fully-assembled experiment: run it once, then optionally keep
/// streaming fresh batches through [`Experiment::observe`] for the §III-D
/// continual-operation loop.
#[derive(Debug)]
pub struct Experiment {
    dataset: Dataset,
    codec: Box<dyn Codec>,
    net_config: NetworkConfig,
    deployment: DeploymentSpec,
    scale: ClusterScale,
    seed: u64,
    epochs: usize,
    batch_size: usize,
    data_fraction: f32,
    grad_compression: GradCompression,
    mode: TrainingMode,
    probe_n: usize,
    raw_frames: Option<usize>,
    data_plane_frames: Option<usize>,
    monitor: Option<FineTuneMonitor>,
    store: Option<CheckpointStore>,
    checkpoints_saved: usize,
    retrains: usize,
    network: Option<Box<dyn DeploymentBackend>>,
    ran: bool,
}

impl Experiment {
    /// The codec, for follow-up measurements (reconstructions feeding a
    /// classifier, quality probes, …).
    #[must_use]
    pub fn codec(&self) -> &dyn Codec {
        self.codec.as_ref()
    }

    /// Mutable codec access.
    #[must_use]
    pub fn codec_mut(&mut self) -> &mut dyn Codec {
        self.codec.as_mut()
    }

    /// The deployment backend after an orchestrated run (`None` before
    /// [`Experiment::run`] and for local runs).
    #[must_use]
    pub fn network(&self) -> Option<&dyn DeploymentBackend> {
        self.network.as_deref()
    }

    /// The checkpoint store, if configured.
    #[must_use]
    pub fn checkpoint_store(&self) -> Option<&CheckpointStore> {
        self.store.as_ref()
    }

    /// Monitor-triggered retrains so far.
    #[must_use]
    pub fn retrain_count(&self) -> usize {
        self.retrains
    }

    fn training_stream(&self) -> Matrix {
        if self.data_fraction < 1.0 {
            let mut rng = OrcoRng::from_label("experiment-data-fraction", self.seed);
            fraction_rows(self.dataset.x(), self.data_fraction, &mut rng)
        } else {
            self.dataset.x().clone()
        }
    }

    fn probe_set(&self) -> Matrix {
        let idx: Vec<usize> = (0..self.dataset.len().min(self.probe_n)).collect();
        self.dataset.x().select_rows(&idx)
    }

    fn push_checkpoint(&mut self) -> Result<(), OrcoError> {
        if let Some(store) = self.store.as_mut() {
            if let Some(ckpt) = self.codec.checkpoint() {
                store.push(&ckpt)?;
                self.checkpoints_saved += 1;
            }
        }
        Ok(())
    }

    /// Executes the pipeline once. Calling it a second time is an error —
    /// stream additional data through [`Experiment::observe`] instead.
    ///
    /// # Errors
    ///
    /// Propagates configuration, divergence, and simulation errors.
    pub fn run(&mut self) -> Result<Report, OrcoError> {
        if self.ran {
            return Err(OrcoError::Config {
                detail: "Experiment::run called twice; use observe() for fresh data".into(),
            });
        }
        let probe = self.probe_set();
        let (rounds, probe_records, sim_time_s, training_radio, data_plane) = match self.mode {
            TrainingMode::Orchestrated => self.run_orchestrated(&probe)?,
            TrainingMode::Local => self.run_local(&probe)?,
        };

        // Reconstruction quality on the full dataset, codec-native loss —
        // one batched encode/decode round trip.
        let recon = self.codec.reconstruct(self.dataset.x())?;
        let final_loss = self.codec.loss().value(&recon, self.dataset.x());
        let psnrs = stats::psnr_rows(self.dataset.x(), &recon, 1.0);
        let finite: Vec<f32> = psnrs.into_iter().filter(|p| p.is_finite()).collect();
        let mean_psnr_db = stats::mean(&finite);

        self.push_checkpoint()?;
        self.ran = true;
        // The backend names itself; only un-simulated training needs a
        // label of its own.
        let backend = match self.mode {
            TrainingMode::Local => "local",
            TrainingMode::Orchestrated => {
                self.network.as_deref().map_or("analytic", DeploymentBackend::backend_name)
            }
        };
        Ok(Report {
            codec: self.codec.name(),
            backend,
            mode: self.mode,
            rounds,
            probe: probe_records,
            final_loss,
            mean_psnr_db,
            sim_time_s,
            training_radio,
            data_plane,
            checkpoints_saved: self.checkpoints_saved,
        })
    }

    #[expect(
        clippy::type_complexity,
        reason = "a private tuple of the run's five products, unpacked by its one caller"
    )]
    fn run_orchestrated(
        &mut self,
        probe: &Matrix,
    ) -> Result<
        (Vec<RoundStats>, Vec<EpochRecord>, f64, RadioSummary, Option<TransmissionReport>),
        OrcoError,
    > {
        let train_x = self.training_stream();
        let column_bytes = self.codec.bytes_per_frame();
        let loss = self.codec.loss();
        let net_config = NetworkConfig {
            num_devices: self.scale.device_count(self.codec.input_dim()),
            seed: self.seed,
            ..self.net_config.clone()
        };
        let epochs = self.epochs;
        let data_plane_frames =
            self.data_plane_frames.unwrap_or_else(|| self.dataset.len().clamp(1, 8));

        let split = self.codec.split_model().ok_or_else(|| OrcoError::Config {
            detail: "orchestrated training requires a split model".into(),
        })?;
        let backend: Box<dyn DeploymentBackend> = match &self.deployment {
            DeploymentSpec::Analytic => Box::new(Network::new(net_config)),
            DeploymentSpec::EventDriven(spec) => {
                Box::new(DesNetwork::new(net_config, spec.clone()))
            }
        };
        let run = RunSettings {
            seed: self.seed,
            grad_compression: self.grad_compression,
            batch_size: self.batch_size,
            epochs,
        };
        let mut orch = Orchestrator::with_parts(split, loss, backend, run);

        // §III-A: one raw frame per accessible training sample reaches the
        // aggregator (unless the caller opted out of the collection phase).
        let raw_frames = self.raw_frames.unwrap_or_else(|| train_x.rows());
        if epochs > 0 && raw_frames > 0 {
            orch.aggregate_raw_frames(raw_frames)?;
        }

        // §III-B: orchestrated online training in one continuous run, with
        // a probe-error record at every epoch boundary. `train_with`'s
        // epoch hook evaluates out-of-band, so rounds, shuffles, and the
        // simulated clock are exactly those of an uninstrumented `train`.
        type PipelineOrch<'a> =
            Orchestrator<&'a mut dyn crate::SplitModel, Box<dyn DeploymentBackend>>;
        let probe_l2 = |orch: &mut PipelineOrch<'_>| -> f32 {
            let recon = orch.model_mut().reconstruct_inference(probe);
            Loss::L2.value(&recon, probe)
        };
        let mut records = vec![EpochRecord {
            epoch: 0,
            sim_time_s: orch.network().now_s(),
            probe_l2: probe_l2(&mut orch),
        }];
        let rounds = if epochs > 0 {
            orch.train_with(&train_x, |orch, epoch| {
                records.push(EpochRecord {
                    epoch: epoch + 1,
                    sim_time_s: orch.network().now_s(),
                    probe_l2: probe_l2(orch),
                });
            })?
            .rounds
        } else {
            Vec::new()
        };
        let sim_time_s = orch.network().now_s();
        let acct = orch.network().accounting();
        let training_radio = RadioSummary {
            total_tx_bytes: acct.total_tx_bytes(),
            uplink_bytes: acct.bytes_by_kind(PacketKind::LatentVector),
            feedback_bytes: acct.bytes_by_kind(PacketKind::ModelUpdate),
            energy_j: acct.total_tx_energy_j() + acct.total_rx_energy_j(),
            link: acct.link_stats(),
        };

        // §III-C: distribute the per-device column shares, then measure the
        // steady-state compressed data plane on real sensing frames: one
        // batched encode of the probe rows feeds every DES/analytic payload
        // (byte-identical to the old count-only measurement — regression-
        // pinned — but the codec actually runs, batched, on the hot path).
        let mut network = orch.into_network();
        let data_plane = if data_plane_frames > 0 {
            network.broadcast_encoder_columns(column_bytes)?;
            let encode_rows = self.dataset.len().min(data_plane_frames).max(1);
            let mut codes = Matrix::zeros(0, 0);
            Some(aggregation::measure_encoded_frames(
                &mut network,
                self.codec.as_mut(),
                self.dataset.x().view_rows(0..encode_rows),
                &mut codes,
                data_plane_frames,
            )?)
        } else {
            None
        };
        self.network = Some(network);
        Ok((rounds, records, sim_time_s, training_radio, data_plane))
    }

    #[expect(
        clippy::type_complexity,
        reason = "a private tuple of the run's five products, unpacked by its one caller"
    )]
    fn run_local(
        &mut self,
        probe: &Matrix,
    ) -> Result<
        (Vec<RoundStats>, Vec<EpochRecord>, f64, RadioSummary, Option<TransmissionReport>),
        OrcoError,
    > {
        let spec = TrainSpec {
            epochs: self.epochs,
            batch_size: self.batch_size,
            seed: self.seed,
            data_fraction: self.data_fraction,
        };
        let mut records = vec![EpochRecord {
            epoch: 0,
            sim_time_s: 0.0,
            probe_l2: {
                let recon = self.codec.reconstruct(probe)?;
                Loss::L2.value(&recon, probe)
            },
        }];
        let rounds = if self.epochs > 0 {
            self.codec.train(self.dataset.x(), &spec)?.rounds
        } else {
            Vec::new()
        };
        records.push(EpochRecord {
            epoch: self.epochs,
            sim_time_s: 0.0,
            probe_l2: {
                let recon = self.codec.reconstruct(probe)?;
                Loss::L2.value(&recon, probe)
            },
        });
        Ok((rounds, records, 0.0, RadioSummary::default(), None))
    }

    /// Streams one batch of fresh sensing data through the continual
    /// §III-D loop: measure the reconstruction error on the edge, record
    /// it with the monitor, and relaunch training (through the same mode
    /// as the initial run) when the windowed error breaches the threshold.
    ///
    /// # Errors
    ///
    /// Returns [`OrcoError::Config`] when no monitor is configured or the
    /// experiment has not [`run`](Experiment::run) yet; propagates
    /// retraining errors.
    pub fn observe(&mut self, x: &Matrix) -> Result<ObserveOutcome, OrcoError> {
        if !self.ran {
            return Err(OrcoError::Config {
                detail: "Experiment::observe called before run()".into(),
            });
        }
        if self.monitor.is_none() {
            return Err(OrcoError::Config {
                detail: "no monitor configured; add .monitor(..) to the builder".into(),
            });
        }
        let err = {
            let recon = self.codec.reconstruct(x)?;
            self.codec.loss().value(&recon, x)
        };
        let monitor = self.monitor.as_mut().expect("checked above");
        monitor.record(err);
        if !monitor.should_retrain() {
            return Ok(ObserveOutcome { reconstruction_error: err, retraining: None });
        }
        monitor.acknowledge();
        self.retrains += 1;
        // Vary the batching seed per relaunch so repeated retrains do not
        // replay identical shuffles.
        let seed = self.seed.wrapping_add(self.retrains as u64);
        let history = match self.mode {
            TrainingMode::Orchestrated => {
                let network = self.network.take().ok_or_else(|| OrcoError::Config {
                    detail: "orchestrated retrain requires the deployment from run()".into(),
                })?;
                let loss = self.codec.loss();
                let split = self.codec.split_model().ok_or_else(|| OrcoError::Config {
                    detail: "orchestrated retrain requires a split model".into(),
                })?;
                let run = RunSettings {
                    seed,
                    grad_compression: self.grad_compression,
                    batch_size: self.batch_size,
                    epochs: self.epochs.max(1),
                };
                let mut orch = Orchestrator::with_parts(split, loss, network, run);
                let history = orch.train(x);
                // The deployment comes back whether or not the retrain did,
                // so a failed retrain does not strand later ones.
                self.network = Some(orch.into_network());
                history?
            }
            TrainingMode::Local => {
                let spec = TrainSpec {
                    epochs: self.epochs.max(1),
                    batch_size: self.batch_size,
                    seed,
                    data_fraction: 1.0,
                };
                self.codec.train(x, &spec)?
            }
        };
        self.push_checkpoint()?;
        Ok(ObserveOutcome { reconstruction_error: err, retraining: Some(history) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autoencoder::AsymmetricAutoencoder;
    use crate::config::OrcoConfig;
    use orco_datasets::{mnist_like, DatasetKind};

    fn tiny_builder(n: usize, seed: u64) -> (Dataset, ExperimentBuilder) {
        let ds = mnist_like::generate(n, seed);
        let cfg =
            OrcoConfig::for_dataset(DatasetKind::MnistLike).with_latent_dim(16).with_batch_size(8);
        let codec = AsymmetricAutoencoder::new(&OrcoConfig { learning_rate: 0.1, ..cfg }).unwrap();
        let builder = ExperimentBuilder::new().dataset(&ds).codec(codec).epochs(2).batch_size(8);
        (ds, builder)
    }

    #[test]
    fn orchestrated_run_produces_full_report() {
        let (_ds, builder) = tiny_builder(16, 0);
        let mut exp = builder.build().unwrap();
        assert_eq!(exp.mode, TrainingMode::Orchestrated);
        let report = exp.run().unwrap();
        assert_eq!(report.codec, "OrcoDCS");
        assert_eq!(report.rounds.len(), 4, "2 epochs x 2 batches");
        assert_eq!(report.probe.len(), 3, "pre-training + 2 epochs");
        assert!(report.sim_time_s > 0.0);
        assert!(report.final_loss.is_finite());
        assert!(report.training_radio.total_tx_bytes > 0);
        assert!(report.training_radio.energy_j > 0.0);
        assert!(report.data_plane.expect("measured").total_bytes > 0);
        // Probe error drops over training.
        assert!(report.final_probe_l2() < report.probe[0].probe_l2);
        // Rounds carry monotone clock and energy.
        for w in report.rounds.windows(2) {
            assert!(w[1].sim_time_s > w[0].sim_time_s);
            assert!(w[1].energy_j >= w[0].energy_j);
        }
    }

    #[test]
    fn local_run_skips_the_simulated_deployment() {
        let (_ds, builder) = tiny_builder(16, 1);
        let mut exp = builder.training(TrainingMode::Local).build().unwrap();
        let report = exp.run().unwrap();
        assert_eq!(report.mode, TrainingMode::Local);
        assert!((report.sim_time_s - 0.0).abs() < f64::EPSILON);
        assert!(report.data_plane.is_none());
        assert_eq!(report.training_radio, RadioSummary::default());
        assert!(!report.rounds.is_empty());
        assert!(report.final_probe_l2() < report.probe[0].probe_l2);
    }

    #[test]
    fn zero_epochs_measures_data_plane_only() {
        let (_ds, builder) = tiny_builder(8, 2);
        let mut exp = builder.epochs(0).data_plane_frames(3).build().unwrap();
        let report = exp.run().unwrap();
        assert!(report.rounds.is_empty());
        let plane = report.data_plane.expect("measured");
        assert_eq!(plane.frames, 3);
        assert!(plane.total_bytes > 0);
        // No training traffic at all.
        assert_eq!(report.training_radio.total_tx_bytes, 0);
    }

    #[test]
    fn run_twice_is_rejected() {
        let (_ds, builder) = tiny_builder(8, 3);
        let mut exp = builder.build().unwrap();
        exp.run().unwrap();
        assert!(matches!(exp.run(), Err(OrcoError::Config { .. })));
    }

    #[test]
    fn builder_validates_inputs() {
        let ds = mnist_like::generate(4, 4);
        let cfg = OrcoConfig::for_dataset(DatasetKind::MnistLike).with_latent_dim(8);
        // Missing codec.
        assert!(ExperimentBuilder::new().dataset(&ds).build().is_err());
        // Missing dataset.
        let codec = AsymmetricAutoencoder::new(&cfg).unwrap();
        assert!(ExperimentBuilder::new().codec(codec).build().is_err());
        // Dimension mismatch.
        let gtsrb_cfg = OrcoConfig::for_dataset(DatasetKind::GtsrbLike);
        let codec = AsymmetricAutoencoder::new(&gtsrb_cfg).unwrap();
        assert!(ExperimentBuilder::new().dataset(&ds).codec(codec).build().is_err());
        // Bad fraction.
        let codec = AsymmetricAutoencoder::new(&cfg).unwrap();
        assert!(ExperimentBuilder::new()
            .dataset(&ds)
            .codec(codec)
            .data_fraction(0.0)
            .build()
            .is_err());
    }

    #[test]
    fn builder_refuses_a_checkpoint_store_of_capacity_zero() {
        let (_ds, builder) = tiny_builder(4, 4);
        let dir = std::env::temp_dir().join("orcodcs-never-created");
        let err = builder.checkpoints(&dir, 0).build().map(|_| ()).expect_err("capacity 0 refused");
        assert!(
            matches!(&err, OrcoError::Config { detail } if detail.contains("capacity")),
            "{err}"
        );
        assert!(!dir.exists(), "a refused build creates no store");
    }

    #[test]
    fn data_fraction_shrinks_the_orchestrated_stream() {
        let (_ds, full_builder) = tiny_builder(32, 5);
        let full = full_builder.epochs(1).build().unwrap().run().unwrap();
        let (_ds, half_builder) = tiny_builder(32, 5);
        let half = half_builder.epochs(1).data_fraction(0.5).build().unwrap().run().unwrap();
        assert_eq!(full.rounds.len(), 4, "32 samples in 8-batches");
        assert_eq!(half.rounds.len(), 2, "16 samples in 8-batches");
    }

    #[test]
    fn faithful_scale_sizes_the_cluster_to_the_frame() {
        let (_ds, builder) = tiny_builder(8, 6);
        let mut exp = builder.epochs(1).scale(ClusterScale::Faithful).build().unwrap();
        let _ = exp.run().unwrap();
        assert_eq!(exp.network().expect("orchestrated").devices().len(), 784);
    }

    #[test]
    fn longer_training_reaches_lower_loss() {
        let (_ds, short) = tiny_builder(32, 2);
        let short = short.epochs(1).build().unwrap().run().unwrap();
        let (_ds, long) = tiny_builder(32, 2);
        let long = long.epochs(8).build().unwrap().run().unwrap();
        assert!(
            long.final_loss < short.final_loss,
            "8 epochs ({}) should beat 1 epoch ({})",
            long.final_loss,
            short.final_loss
        );
    }

    #[test]
    fn a_failed_orchestrated_retrain_keeps_the_deployment() {
        let (_ds, builder) = tiny_builder(8, 8);
        let mut exp = builder.monitor(FineTuneMonitor::new(1e-9, 1)).build().unwrap();
        let _ = exp.run().unwrap();
        let overflow = Matrix::from_fn(8, 784, |_, _| f32::MAX);
        let err = exp.observe(&overflow).expect_err("an overflowing batch diverges");
        assert!(matches!(err, OrcoError::Diverged { round: 0 }), "unexpected error: {err}");
        assert!(exp.network().is_some(), "the deployment must survive a failed retrain");
        let (ds, _) = tiny_builder(8, 9);
        let outcome = exp.observe(ds.x()).expect("the next retrain runs");
        assert!(outcome.retraining.is_some());
    }

    #[test]
    fn observe_requires_monitor_and_run() {
        let ds = mnist_like::generate(8, 7);
        let (_d, builder) = tiny_builder(8, 7);
        let mut exp = builder.build().unwrap();
        assert!(exp.observe(ds.x()).is_err(), "observe before run is rejected");
        let _ = exp.run().unwrap();
        assert!(exp.observe(ds.x()).is_err(), "observe without monitor is rejected");
    }
}
