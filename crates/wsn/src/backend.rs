//! The pluggable deployment-backend interface.
//!
//! Everything above the radio — the orchestrated training protocol, the
//! experiment pipeline, the data-plane measurements — is written against
//! [`DeploymentBackend`], not against a concrete simulator. Two backends
//! implement it:
//!
//! * the **analytic** model in this crate ([`crate::Network`]): one global
//!   clock, sequential transmissions, losses drawn inline — fast and exact
//!   for cost accounting;
//! * the **event-driven** model in `orco-sim`: a discrete-event simulator
//!   with per-node clocks, a FIFO or TDMA MAC, ARQ, fragmentation, and
//!   scripted fault scenarios.
//!
//! The contract between them: a contention-free, zero-loss, zero-jitter
//! event-driven schedule reproduces the analytic backend's byte and energy
//! totals **exactly** (regression-tested at the workspace level). Richer
//! schedules then add what the analytic model cannot express — concurrency,
//! contention, stragglers, time-windowed faults — without touching any
//! caller.

use crate::accounting::TrafficAccounting;
use crate::error::WsnError;
use crate::network::Network;
use crate::node::NodeId;
use crate::packet::PacketKind;

/// A simulated deployment the OrcoDCS protocol can run on.
///
/// Object-safe: the experiment pipeline holds `Box<dyn DeploymentBackend>`
/// and never knows which simulator it drives. All methods mirror the
/// long-standing [`Network`] inherent API; see those docs for the precise
/// semantics of each primitive.
pub trait DeploymentBackend: std::fmt::Debug {
    /// Short backend label for reports (e.g. `"analytic"`, `"event-driven"`).
    fn backend_name(&self) -> &'static str;

    /// Current simulated time in seconds.
    fn now_s(&self) -> f64;

    /// The traffic ledger.
    fn accounting(&self) -> &TrafficAccounting;

    /// Clears the traffic ledger (keeps the clock and batteries).
    fn reset_accounting(&mut self);

    /// Advances simulated time by `dt_s` seconds without any traffic.
    fn wait(&mut self, dt_s: f64);

    /// The data aggregator's id.
    fn aggregator(&self) -> NodeId;

    /// The edge server's id.
    fn edge(&self) -> NodeId;

    /// Ids of the IoT devices.
    fn devices(&self) -> &[NodeId];

    /// Alive IoT devices (order of [`DeploymentBackend::devices`]).
    fn alive_devices(&self) -> Vec<NodeId>;

    /// Remaining battery energy of a node, joules.
    ///
    /// # Errors
    ///
    /// Returns [`WsnError::UnknownNode`] for out-of-range ids.
    fn node_energy_j(&self, id: NodeId) -> Result<f64, WsnError>;

    /// Kills a device and repairs the aggregation structures around it.
    ///
    /// # Errors
    ///
    /// Returns [`WsnError::UnknownNode`] for non-device ids.
    fn kill_device(&mut self, id: NodeId) -> Result<(), WsnError>;

    /// Sends `payload_bytes` of `kind` from `from` to `to`; returns elapsed
    /// simulated seconds.
    ///
    /// # Errors
    ///
    /// See [`Network::transmit`].
    fn transmit(
        &mut self,
        from: NodeId,
        to: NodeId,
        payload_bytes: u64,
        kind: PacketKind,
    ) -> Result<f64, WsnError>;

    /// Executes `flops` at node `at`; returns elapsed simulated seconds.
    ///
    /// # Errors
    ///
    /// See [`Network::compute`].
    fn compute(&mut self, at: NodeId, flops: u64) -> Result<f64, WsnError>;

    /// One round of intra-cluster raw aggregation over the tree (§III-A).
    ///
    /// # Errors
    ///
    /// Propagates transmission errors.
    fn raw_aggregation_round(&mut self, bytes_per_device: u64) -> Result<f64, WsnError>;

    /// Distributes per-device encoder columns from the aggregator (§III-C).
    ///
    /// # Errors
    ///
    /// Propagates transmission errors.
    fn broadcast_encoder_columns(&mut self, column_bytes: u64) -> Result<f64, WsnError>;

    /// One round of compressed chain aggregation (§III-C).
    ///
    /// # Errors
    ///
    /// Propagates transmission errors.
    fn compressed_aggregation_round(
        &mut self,
        latent_bytes: u64,
        flops_per_device: u64,
    ) -> Result<f64, WsnError>;
}

impl DeploymentBackend for Network {
    fn backend_name(&self) -> &'static str {
        "analytic"
    }

    fn now_s(&self) -> f64 {
        Network::now_s(self)
    }

    fn accounting(&self) -> &TrafficAccounting {
        Network::accounting(self)
    }

    fn reset_accounting(&mut self) {
        Network::reset_accounting(self);
    }

    fn wait(&mut self, dt_s: f64) {
        Network::wait(self, dt_s);
    }

    fn aggregator(&self) -> NodeId {
        Network::aggregator(self)
    }

    fn edge(&self) -> NodeId {
        Network::edge(self)
    }

    fn devices(&self) -> &[NodeId] {
        Network::devices(self)
    }

    fn alive_devices(&self) -> Vec<NodeId> {
        Network::alive_devices(self)
    }

    fn node_energy_j(&self, id: NodeId) -> Result<f64, WsnError> {
        Ok(self.node(id)?.energy_j())
    }

    fn kill_device(&mut self, id: NodeId) -> Result<(), WsnError> {
        Network::kill_device(self, id)
    }

    fn transmit(
        &mut self,
        from: NodeId,
        to: NodeId,
        payload_bytes: u64,
        kind: PacketKind,
    ) -> Result<f64, WsnError> {
        Network::transmit(self, from, to, payload_bytes, kind)
    }

    fn compute(&mut self, at: NodeId, flops: u64) -> Result<f64, WsnError> {
        Network::compute(self, at, flops)
    }

    fn raw_aggregation_round(&mut self, bytes_per_device: u64) -> Result<f64, WsnError> {
        Network::raw_aggregation_round(self, bytes_per_device)
    }

    fn broadcast_encoder_columns(&mut self, column_bytes: u64) -> Result<f64, WsnError> {
        Network::broadcast_encoder_columns(self, column_bytes)
    }

    fn compressed_aggregation_round(
        &mut self,
        latent_bytes: u64,
        flops_per_device: u64,
    ) -> Result<f64, WsnError> {
        Network::compressed_aggregation_round(self, latent_bytes, flops_per_device)
    }
}

impl<T: DeploymentBackend + ?Sized> DeploymentBackend for Box<T> {
    fn backend_name(&self) -> &'static str {
        (**self).backend_name()
    }

    fn now_s(&self) -> f64 {
        (**self).now_s()
    }

    fn accounting(&self) -> &TrafficAccounting {
        (**self).accounting()
    }

    fn reset_accounting(&mut self) {
        (**self).reset_accounting();
    }

    fn wait(&mut self, dt_s: f64) {
        (**self).wait(dt_s);
    }

    fn aggregator(&self) -> NodeId {
        (**self).aggregator()
    }

    fn edge(&self) -> NodeId {
        (**self).edge()
    }

    fn devices(&self) -> &[NodeId] {
        (**self).devices()
    }

    fn alive_devices(&self) -> Vec<NodeId> {
        (**self).alive_devices()
    }

    fn node_energy_j(&self, id: NodeId) -> Result<f64, WsnError> {
        (**self).node_energy_j(id)
    }

    fn kill_device(&mut self, id: NodeId) -> Result<(), WsnError> {
        (**self).kill_device(id)
    }

    fn transmit(
        &mut self,
        from: NodeId,
        to: NodeId,
        payload_bytes: u64,
        kind: PacketKind,
    ) -> Result<f64, WsnError> {
        (**self).transmit(from, to, payload_bytes, kind)
    }

    fn compute(&mut self, at: NodeId, flops: u64) -> Result<f64, WsnError> {
        (**self).compute(at, flops)
    }

    fn raw_aggregation_round(&mut self, bytes_per_device: u64) -> Result<f64, WsnError> {
        (**self).raw_aggregation_round(bytes_per_device)
    }

    fn broadcast_encoder_columns(&mut self, column_bytes: u64) -> Result<f64, WsnError> {
        (**self).broadcast_encoder_columns(column_bytes)
    }

    fn compressed_aggregation_round(
        &mut self,
        latent_bytes: u64,
        flops_per_device: u64,
    ) -> Result<f64, WsnError> {
        (**self).compressed_aggregation_round(latent_bytes, flops_per_device)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkConfig;

    #[test]
    fn analytic_network_is_a_backend() {
        let mut net: Box<dyn DeploymentBackend> =
            Box::new(Network::new(NetworkConfig { num_devices: 4, ..Default::default() }));
        assert_eq!(net.backend_name(), "analytic");
        assert_eq!(net.devices().len(), 4);
        let d = net.devices()[0];
        let agg = net.aggregator();
        let t = net.transmit(d, agg, 64, PacketKind::RawData).unwrap();
        assert!(t > 0.0);
        assert_eq!(net.now_s(), t);
        assert_eq!(net.accounting().link_stats().delivered_packets, 1);
        assert!(net.node_energy_j(d).unwrap() < 2.0);
    }
}
