//! The IoT-Edge orchestrated training procedure (paper §III-B) and the
//! data-plane protocol (§III-A, §III-C), executed over the WSN simulator.
//!
//! One training round moves exactly the traffic the paper describes:
//!
//! 1. the **aggregator** encodes the batch and adds latent noise (compute);
//! 2. the noisy latent batch flows **up** to the edge (`batch × M` floats);
//! 3. the **edge** decodes (compute) and sends the reconstructions **down**
//!    (`batch × N` floats — cheap: downlink bandwidth ≫ uplink);
//! 4. the **aggregator** computes the Huber loss and its gradient (compute)
//!    and uplinks the reconstruction gradient (`batch × N` floats);
//! 5. the **edge** backpropagates, updates the decoder, and downlinks the
//!    latent gradient (`batch × M` floats);
//! 6. the **aggregator** updates the encoder.
//!
//! Every arrow lands in the traffic ledger and advances the simulated
//! clock, which is what the paper's Figures 3, 4, 6, 7, 8 measure.

use orco_nn::Loss;
use orco_tensor::{Matrix, OrcoRng};
use orco_wsn::{DeploymentBackend, Network, NetworkConfig, PacketKind};

use crate::autoencoder::AsymmetricAutoencoder;
use crate::compression::GradCompression;
use crate::config::OrcoConfig;
use crate::error::OrcoError;
use crate::history::{RoundStats, TrainingHistory};
use crate::split::SplitModel;

/// Drives the OrcoDCS protocol over a simulated deployment.
///
/// Generic over both the split model `M` and the deployment backend `D`
/// (the analytic [`Network`] by default; the `orco-sim` event-driven
/// simulator through the experiment pipeline's `deployment` knob) — the
/// protocol itself is backend-agnostic.
///
/// # Examples
///
/// ```
/// use orcodcs::{OrcoConfig, Orchestrator};
/// use orco_datasets::{mnist_like, DatasetKind};
/// use orco_wsn::NetworkConfig;
///
/// let cfg = OrcoConfig::for_dataset(DatasetKind::MnistLike)
///     .with_latent_dim(16)
///     .with_epochs(1)
///     .with_batch_size(8);
/// let net = NetworkConfig { num_devices: 16, ..Default::default() };
/// let mut orch = Orchestrator::new(cfg, net).unwrap();
/// let data = mnist_like::generate(16, 0);
/// let (loss, round_s) = orch.train_round(data.x()).unwrap();
/// assert!(loss.is_finite() && round_s > 0.0);
/// assert!(orch.network().now_s() > 0.0);
/// ```
#[derive(Debug)]
pub struct Orchestrator<M: SplitModel = AsymmetricAutoencoder, D: DeploymentBackend = Network> {
    model: M,
    loss: Loss,
    network: D,
    run: RunSettings,
    batch_rng: OrcoRng,
    rounds_run: usize,
}

/// What a training run reads of its configuration: the batch shuffle's
/// seed, the gradient uplink's compression, the batch size and the epoch
/// count — named, so a batch size and an epoch count cannot trade places.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RunSettings {
    pub(crate) seed: u64,
    pub(crate) grad_compression: GradCompression,
    pub(crate) batch_size: usize,
    pub(crate) epochs: usize,
}

impl Orchestrator<AsymmetricAutoencoder> {
    /// Builds an orchestrator with a fresh OrcoDCS autoencoder.
    ///
    /// # Errors
    ///
    /// Returns [`OrcoError::Config`] if `config` is invalid.
    pub fn new(config: OrcoConfig, net_config: NetworkConfig) -> Result<Self, OrcoError> {
        let autoencoder = AsymmetricAutoencoder::new(&config)?;
        Ok(Self::with_model(autoencoder, config, net_config))
    }
}

impl<M: SplitModel> Orchestrator<M, Network> {
    /// Wraps an already-built split model (used for baselines trained
    /// through the same protocol, e.g. DCSNet) over the analytic backend.
    /// `config` supplies the protocol parameters (loss, batch size, epochs,
    /// seed); it is not re-validated, since baseline models may violate
    /// OrcoDCS-specific constraints such as `latent_dim < input_dim`.
    #[must_use]
    pub fn with_model(model: M, config: OrcoConfig, net_config: NetworkConfig) -> Self {
        let run = RunSettings {
            seed: config.seed,
            grad_compression: config.grad_compression,
            batch_size: config.batch_size,
            epochs: config.epochs,
        };
        Self::with_parts(model, config.loss(), Network::new(net_config), run)
    }
}

impl<M: SplitModel, D: DeploymentBackend> Orchestrator<M, D> {
    /// Wraps a model with an **explicit training loss** and an
    /// already-built deployment backend. This is the constructor the
    /// experiment pipeline uses: codecs report their native loss directly
    /// (it need not be expressible through [`OrcoConfig`]'s Huber fields),
    /// the deployment may already carry simulated time from earlier
    /// phases, and it may be either simulator (or a boxed one).
    #[must_use]
    pub(crate) fn with_parts(model: M, loss: Loss, network: D, run: RunSettings) -> Self {
        let batch_rng = OrcoRng::from_label("orcodcs-batching", run.seed);
        Self { model, loss, network, run, batch_rng, rounds_run: 0 }
    }

    /// Consumes the orchestrator, releasing the deployment (with its clock
    /// and traffic ledger intact) for follow-up measurements.
    #[must_use]
    pub(crate) fn into_network(self) -> D {
        self.network
    }

    /// The wrapped model.
    #[must_use]
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Mutable access to the wrapped model.
    #[must_use]
    pub(crate) fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// The simulated deployment.
    #[must_use]
    pub fn network(&self) -> &D {
        &self.network
    }

    /// Mutable access to the deployment (failure injection).
    #[must_use]
    pub fn network_mut(&mut self) -> &mut D {
        &mut self.network
    }

    // ------------------------------------------------------------------
    // §III-A: intra-cluster raw data aggregation
    // ------------------------------------------------------------------

    /// Aggregates `frames` frames of raw readings over the tree so the
    /// aggregator holds training data. Each alive device contributes one
    /// 4-byte reading per frame.
    ///
    /// Returns elapsed simulated seconds.
    ///
    /// # Errors
    ///
    /// Propagates transmission failures.
    pub(crate) fn aggregate_raw_frames(&mut self, frames: usize) -> Result<f64, OrcoError> {
        let mut total = 0.0;
        for _ in 0..frames {
            total += self.network.raw_aggregation_round(4)?;
        }
        Ok(total)
    }

    // ------------------------------------------------------------------
    // §III-B: one orchestrated training round
    // ------------------------------------------------------------------

    /// Runs one training round on a batch, moving all protocol traffic over
    /// the simulated network. Returns the batch loss (before update) and
    /// the elapsed simulated time.
    ///
    /// # Errors
    ///
    /// Returns [`OrcoError::Diverged`] on non-finite loss and propagates
    /// network failures.
    pub fn train_round(&mut self, batch: &Matrix) -> Result<(f32, f64), OrcoError> {
        let t0 = self.network.now_s();
        let agg = self.network.aggregator();
        let edge = self.network.edge();
        let b = batch.rows();
        let loss = self.loss;

        // 1. Aggregator: encode + noise.
        self.network.compute(agg, self.model.encoder_flops_forward() * b as u64)?;
        let noisy_latent = self.model.aggregator_encode_train(batch);

        // 2. Uplink latent batch.
        let latent_bytes = (noisy_latent.len() * 4) as u64;
        self.network.transmit(agg, edge, latent_bytes, PacketKind::LatentVector)?;

        // 3. Edge: decode, downlink reconstructions.
        self.network.compute(edge, self.model.decoder_flops_forward() * b as u64)?;
        let reconstruction = self.model.edge_decode_train(&noisy_latent);
        let recon_bytes = (reconstruction.len() * 4) as u64;
        self.network.transmit(edge, agg, recon_bytes, PacketKind::Reconstruction)?;

        // 4. Aggregator: loss + gradient, uplink the gradient.
        self.network.compute(agg, loss.flops(batch.cols()) * b as u64)?;
        let value = loss.value(&reconstruction, batch);
        let grad = loss.grad(&reconstruction, batch);
        if !value.is_finite() {
            return Err(OrcoError::Diverged { round: self.rounds_run });
        }
        // The gradient uplink honours the configured compression policy:
        // the edge trains on exactly what arrived over the wire.
        let (grad_rx, grad_bytes) = self.run.grad_compression.apply(&grad);
        self.network.transmit(agg, edge, grad_bytes, PacketKind::ModelUpdate)?;

        // 5. Edge: decoder backward + update, downlink latent gradient.
        self.network.compute(edge, self.model.decoder_flops_backward() * b as u64)?;
        let grad_latent = self.model.edge_decoder_update(&grad_rx);
        self.network.transmit(edge, agg, latent_bytes, PacketKind::ModelUpdate)?;

        // 6. Aggregator: encoder backward + update.
        self.network.compute(agg, self.model.encoder_flops_backward() * b as u64)?;
        self.model.aggregator_encoder_update(&grad_latent);

        self.rounds_run += 1;
        Ok((value, self.network.now_s() - t0))
    }

    /// Full online training (paper eq. 5): `epochs` shuffled passes over
    /// `x` in batches of `batch_size`.
    ///
    /// # Errors
    ///
    /// Propagates round errors; see [`Orchestrator::train_round`].
    pub(crate) fn train(&mut self, x: &Matrix) -> Result<TrainingHistory, OrcoError> {
        self.train_with(x, |_, _| {})
    }

    /// Like [`Orchestrator::train`], with a hook invoked after every
    /// completed epoch (the experiment pipeline records probe
    /// reconstruction errors there). The hook runs on the live
    /// orchestrator, so out-of-band evaluations see the exact mid-training
    /// model without perturbing the batch-shuffle stream.
    ///
    /// # Errors
    ///
    /// Propagates round errors; see [`Orchestrator::train_round`].
    pub(crate) fn train_with(
        &mut self,
        x: &Matrix,
        mut on_epoch: impl FnMut(&mut Self, usize),
    ) -> Result<TrainingHistory, OrcoError> {
        let n = x.rows();
        if n == 0 {
            return Err(OrcoError::Config { detail: "training set is empty".into() });
        }
        if self.run.batch_size == 0 {
            return Err(OrcoError::Config { detail: "batch_size must be non-zero".into() });
        }
        let bs = self.run.batch_size.min(n);
        let mut order: Vec<usize> = (0..n).collect();
        let mut history = TrainingHistory::default();
        let mut round = 0usize;
        for epoch in 0..self.run.epochs {
            self.batch_rng.shuffle(&mut order);
            for chunk in order.chunks(bs) {
                let xb = x.select_rows(chunk);
                let (loss, _) = self.train_round(&xb)?;
                let acct = self.network.accounting();
                history.rounds.push(RoundStats {
                    round,
                    epoch,
                    loss,
                    sim_time_s: self.network.now_s(),
                    uplink_bytes: acct.bytes_by_kind(PacketKind::LatentVector),
                    energy_j: acct.total_tx_energy_j() + acct.total_rx_energy_j(),
                    link: acct.link_stats(),
                });
                round += 1;
            }
            on_epoch(self, epoch);
        }
        Ok(history)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::EncoderColumns;
    use orco_datasets::{mnist_like, DatasetKind};

    fn tiny_setup(devices: usize) -> Orchestrator {
        let cfg = OrcoConfig::for_dataset(DatasetKind::MnistLike)
            .with_latent_dim(16)
            .with_epochs(2)
            .with_batch_size(8);
        let cfg = OrcoConfig { learning_rate: 0.1, ..cfg };
        let net = NetworkConfig { num_devices: devices, seed: 1, ..Default::default() };
        Orchestrator::new(cfg, net).unwrap()
    }

    #[test]
    fn train_round_moves_protocol_traffic() {
        let mut orch = tiny_setup(8);
        let ds = mnist_like::generate(8, 0);
        let (loss, dt) = orch.train_round(ds.x()).unwrap();
        assert!(loss.is_finite() && loss > 0.0);
        assert!(dt > 0.0);
        let acct = orch.network().accounting();
        assert!(acct.bytes_by_kind(PacketKind::LatentVector) >= 8 * 16 * 4);
        assert!(acct.bytes_by_kind(PacketKind::Reconstruction) >= 8 * 784 * 4);
        assert!(acct.bytes_by_kind(PacketKind::ModelUpdate) > 0);
    }

    #[test]
    fn training_reduces_loss_over_rounds() {
        let mut orch = tiny_setup(8);
        let ds = mnist_like::generate(32, 0);
        let loss_fn = orch.loss;
        let before = loss_fn.value(&orch.model_mut().reconstruct_inference(ds.x()), ds.x());
        let history = orch.train(ds.x()).unwrap();
        assert!(history.rounds.len() >= 8);
        let after = loss_fn.value(&orch.model_mut().reconstruct_inference(ds.x()), ds.x());
        assert!(after < before, "loss {before} -> {after}");
        // Simulated time strictly increases.
        for w in history.rounds.windows(2) {
            assert!(w[1].sim_time_s > w[0].sim_time_s);
        }
    }

    #[test]
    fn split_training_equals_local_training() {
        // The orchestrated rounds must compute exactly what local (joint)
        // training computes: same losses, same final weights.
        let ds = mnist_like::generate(16, 2);
        let cfg = OrcoConfig::for_dataset(DatasetKind::MnistLike)
            .with_latent_dim(8)
            .with_epochs(1)
            .with_batch_size(16);
        let mut orch = Orchestrator::new(
            cfg.clone(),
            NetworkConfig { num_devices: 4, seed: 0, ..Default::default() },
        )
        .unwrap();
        let mut local = AsymmetricAutoencoder::new(&cfg).unwrap();
        let loss = cfg.loss();
        for _ in 0..3 {
            let (l_orch, _) = orch.train_round(ds.x()).unwrap();
            let l_local = local.train_batch_local(ds.x(), &loss);
            assert_eq!(l_orch, l_local, "orchestrated and local losses must match");
        }
        assert_eq!(orch.model().halves().encoder.weight(), local.halves().encoder.weight());
    }

    #[test]
    fn raw_aggregation_then_training_accumulates_time() {
        let mut orch = tiny_setup(16);
        let t_agg = orch.aggregate_raw_frames(5).unwrap();
        assert!(t_agg > 0.0);
        let ds = mnist_like::generate(8, 3);
        let (_, t_round) = orch.train_round(ds.x()).unwrap();
        assert!(orch.network().now_s() >= t_agg + t_round);
    }

    #[test]
    fn distribution_reaches_every_device() {
        let mut orch = tiny_setup(8);
        let ds = mnist_like::generate(8, 4);
        let _ = orch.train_round(ds.x()).unwrap();
        let encoder = &orch.model().halves().encoder;
        let columns = EncoderColumns::split(encoder.weight(), encoder.bias());
        let t_dist = orch.network_mut().broadcast_encoder_columns(columns.column_bytes()).unwrap();
        assert_eq!(columns.num_devices(), 784);
        assert!(t_dist > 0.0);
    }

    #[test]
    fn byte_grad_compression_shrinks_uplink_and_still_trains() {
        let ds = mnist_like::generate(16, 6);
        let base = OrcoConfig::for_dataset(DatasetKind::MnistLike)
            .with_latent_dim(16)
            .with_epochs(2)
            .with_batch_size(16);
        let net = NetworkConfig { num_devices: 8, seed: 0, ..Default::default() };
        let mut full = Orchestrator::new(base.clone(), net.clone()).unwrap();
        let mut compressed = Orchestrator::new(
            OrcoConfig { grad_compression: crate::compression::GradCompression::Byte, ..base },
            net,
        )
        .unwrap();
        let h_full = full.train(ds.x()).unwrap();
        let h_comp = compressed.train(ds.x()).unwrap();
        // 4x smaller feedback uplink → strictly fewer ModelUpdate bytes.
        let full_bytes = full.network().accounting().bytes_by_kind(PacketKind::ModelUpdate);
        let comp_bytes = compressed.network().accounting().bytes_by_kind(PacketKind::ModelUpdate);
        assert!(comp_bytes * 2 < full_bytes, "compressed {comp_bytes} vs full {full_bytes}");
        // And training still converges to a similar loss.
        let lf = h_full.final_loss().unwrap();
        let lc = h_comp.final_loss().unwrap();
        assert!(lc < lf * 1.5 + 0.01, "compressed loss {lc} vs full {lf}");
    }

    #[test]
    fn empty_training_set_is_config_error() {
        let mut orch = tiny_setup(4);
        let empty = orco_tensor::Matrix::zeros(0, 784);
        assert!(matches!(orch.train(&empty), Err(OrcoError::Config { .. })));
    }

    #[test]
    fn zero_batch_size_through_with_model_is_config_error() {
        // `with_model` does not re-validate `config`, so the zero reaches
        // `train_with` itself.
        let cfg = OrcoConfig::for_dataset(DatasetKind::MnistLike).with_latent_dim(16);
        let model = AsymmetricAutoencoder::new(&cfg).unwrap();
        let mut orch =
            Orchestrator::with_model(model, cfg.with_batch_size(0), NetworkConfig::default());
        let ds = mnist_like::generate(4, 1);
        assert!(matches!(orch.train(ds.x()), Err(OrcoError::Config { .. })));
    }
}
