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
//! Both keep their deployment in one [`Network`]
//! ([`DeploymentBackend::world`]), and the three protocol rounds are
//! written once, here, over the trait's round steps
//! [`DeploymentBackend::hop`] and [`DeploymentBackend::round_compute`]: the
//! analytic hop fails the round on a lost packet, the event-driven one
//! records the drop and goes on. The event-driven backend runs these
//! bodies in its sequential MAC mode and its own concurrent ones otherwise.
//! In that mode, with zero loss, it reproduces the analytic byte, energy
//! and clock totals **exactly** (regression-tested at the workspace level),
//! because the two `transmit`s and `compute`s charge the same formulas in
//! the same order. Richer schedules add what the analytic model cannot
//! express — concurrency, contention, stragglers, time-windowed faults —
//! without touching any caller.

use std::collections::BTreeMap;

use crate::accounting::TrafficAccounting;
use crate::error::WsnError;
use crate::network::Network;
use crate::node::NodeId;
use crate::packet::PacketKind;

/// A simulated deployment the OrcoDCS protocol can run on.
///
/// Object-safe: the experiment pipeline holds `Box<dyn DeploymentBackend>`
/// and never knows which simulator it drives. The getters read
/// [`DeploymentBackend::world`]; the rounds are [`raw_round`],
/// [`broadcast_round`] and [`chain_round`] unless a backend overrides them.
/// A wrapper (like `Box<T>`'s impl) must forward every required method and
/// every round, or it runs the sequential bodies over its own forwarding.
pub trait DeploymentBackend: std::fmt::Debug {
    /// Short backend label for reports (e.g. `"analytic"`, `"event-driven"`).
    fn backend_name(&self) -> &'static str;

    /// The deployment's state: topology, liveness, batteries and ledger.
    fn world(&self) -> &Network;

    /// Current simulated time in seconds.
    fn now_s(&self) -> f64;

    /// Clears the traffic ledger (keeps the clock and batteries).
    fn reset_accounting(&mut self);

    /// Advances simulated time by `dt_s` seconds without any traffic.
    fn wait(&mut self, dt_s: f64);

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

    /// One hop of a round: sends like [`DeploymentBackend::transmit`], with
    /// no endpoint check of its own, and returns whether the packet was
    /// delivered. A backend that can lose a hop without failing the round
    /// returns `Ok(false)` for it.
    ///
    /// # Errors
    ///
    /// Whatever the backend fails a round on.
    fn hop(
        &mut self,
        from: NodeId,
        to: NodeId,
        payload_bytes: u64,
        kind: PacketKind,
    ) -> Result<bool, WsnError>;

    /// One device's computation inside a round: like
    /// [`DeploymentBackend::compute`], without the scripted events a
    /// backend applies before a direct call.
    ///
    /// # Errors
    ///
    /// See [`Network::compute`].
    fn round_compute(&mut self, at: NodeId, flops: u64) -> Result<f64, WsnError>;

    /// The traffic ledger.
    fn accounting(&self) -> &TrafficAccounting {
        self.world().accounting()
    }

    /// The data aggregator's id.
    fn aggregator(&self) -> NodeId {
        self.world().aggregator()
    }

    /// The edge server's id.
    fn edge(&self) -> NodeId {
        self.world().edge()
    }

    /// Ids of the IoT devices.
    fn devices(&self) -> &[NodeId] {
        self.world().devices()
    }

    /// Alive IoT devices (order of [`DeploymentBackend::devices`]).
    fn alive_devices(&self) -> Vec<NodeId> {
        self.world().alive_devices()
    }

    /// Remaining battery energy of a node, joules.
    ///
    /// # Errors
    ///
    /// Returns [`WsnError::UnknownNode`] for out-of-range ids.
    fn node_energy_j(&self, id: NodeId) -> Result<f64, WsnError> {
        Ok(self.world().node(id)?.energy_j())
    }

    /// Raw aggregation over the tree (§III-A): [`raw_round`] unless
    /// overridden.
    fn raw_aggregation_round(&mut self, bytes_per_device: u64) -> Result<f64, WsnError> {
        raw_round(self, bytes_per_device)
    }

    /// The encoder-column broadcast (§III-C): [`broadcast_round`] unless
    /// overridden.
    fn broadcast_encoder_columns(&mut self, column_bytes: u64) -> Result<f64, WsnError> {
        broadcast_round(self, column_bytes)
    }

    /// Compressed chain aggregation (§III-C), every hop carrying the
    /// `latent_bytes` partial sum: [`chain_round`] unless overridden.
    fn compressed_aggregation_round(
        &mut self,
        latent_bytes: u64,
        flops_per_device: u64,
    ) -> Result<f64, WsnError> {
        chain_round(self, latent_bytes, latent_bytes, flops_per_device)
    }
}

/// One round of intra-cluster **raw** aggregation over the tree: every
/// alive device contributes `bytes_per_device` raw bytes; interior nodes
/// forward their own plus all delivered descendants' bytes one hop up.
///
/// The tree's bottom-up order is read once, at round start; a node's
/// parent is read per hop, because a scenario can repair the tree
/// mid-round. Returns elapsed simulated seconds for the whole round.
///
/// # Errors
///
/// Propagates hop errors.
pub fn raw_round<B: DeploymentBackend + ?Sized>(
    net: &mut B,
    bytes_per_device: u64,
) -> Result<f64, WsnError> {
    let start = net.now_s();
    let aggregator = net.aggregator();
    let mut carried: BTreeMap<NodeId, u64> =
        net.alive_devices().into_iter().map(|id| (id, bytes_per_device)).collect();
    for id in net.world().tree().bottom_up_order() {
        let payload = carried.get(&id).copied().unwrap_or(0);
        if payload == 0 || !net.world().is_alive(id) {
            continue;
        }
        let Some(parent) = net.world().tree().parent(id) else {
            continue; // reparented out of the tree mid-round
        };
        if net.hop(id, parent, payload, PacketKind::RawData)? && parent != aggregator {
            *carried.entry(parent).or_insert(0) += payload;
        }
    }
    Ok(net.now_s() - start)
}

/// Distributes per-device encoder columns from the aggregator (paper
/// §III-C: "a single round of broadcast"): one hop of `column_bytes` to
/// every alive device. Returns elapsed simulated seconds.
///
/// # Errors
///
/// Propagates hop errors.
pub fn broadcast_round<B: DeploymentBackend + ?Sized>(
    net: &mut B,
    column_bytes: u64,
) -> Result<f64, WsnError> {
    let start = net.now_s();
    let aggregator = net.aggregator();
    for id in net.alive_devices() {
        net.hop(aggregator, id, column_bytes, PacketKind::EncoderColumn)?;
    }
    Ok(net.now_s() - start)
}

/// One round of chain aggregation: every alive device on the chain spends
/// `flops_per_device` on its encoder column's contribution, then the
/// partial sum walks the chain to the aggregator. Hop `i` (0-based) carries
/// `min((i+1)·reading_bytes, latent_bytes)`: the hybrid scheme of ref \[1\]
/// forwards raw readings while they are smaller than the latent partial
/// sum, and `reading_bytes = latent_bytes` is plain compressed aggregation.
///
/// The chain's hops are read after the computes and its last device after
/// the hops, because a scenario can kill a device mid-round. An empty chain
/// sends nothing. Returns elapsed simulated seconds.
///
/// # Errors
///
/// Propagates hop and compute errors.
pub fn chain_round<B: DeploymentBackend + ?Sized>(
    net: &mut B,
    latent_bytes: u64,
    reading_bytes: u64,
    flops_per_device: u64,
) -> Result<f64, WsnError> {
    let start = net.now_s();
    for id in net.world().chain().order().to_vec() {
        if net.world().is_alive(id) {
            net.round_compute(id, flops_per_device)?;
        }
    }
    let mut carried = 0u64;
    let mut send = |net: &mut B, from, to| {
        carried = carried.saturating_add(reading_bytes).min(latent_bytes);
        net.hop(from, to, carried, PacketKind::CompressedElement)
    };
    for (from, to) in net.world().chain().device_hops() {
        if net.world().is_alive(from) && net.world().is_alive(to) {
            send(net, from, to)?;
        }
    }
    if let Some(&last) = net.world().chain().order().last() {
        if net.world().is_alive(last) {
            send(net, last, net.aggregator())?;
        }
    }
    Ok(net.now_s() - start)
}

impl DeploymentBackend for Network {
    fn backend_name(&self) -> &'static str {
        "analytic"
    }

    fn world(&self) -> &Network {
        self
    }

    fn now_s(&self) -> f64 {
        Network::now_s(self)
    }

    fn reset_accounting(&mut self) {
        Network::reset_accounting(self);
    }

    fn wait(&mut self, dt_s: f64) {
        Network::wait(self, dt_s);
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

    /// A lost hop fails the round.
    fn hop(
        &mut self,
        from: NodeId,
        to: NodeId,
        payload_bytes: u64,
        kind: PacketKind,
    ) -> Result<bool, WsnError> {
        Network::transmit(self, from, to, payload_bytes, kind).map(|_| true)
    }

    fn round_compute(&mut self, at: NodeId, flops: u64) -> Result<f64, WsnError> {
        Network::compute(self, at, flops)
    }
}

impl<T: DeploymentBackend + ?Sized> DeploymentBackend for Box<T> {
    fn backend_name(&self) -> &'static str {
        (**self).backend_name()
    }

    fn world(&self) -> &Network {
        (**self).world()
    }

    fn now_s(&self) -> f64 {
        (**self).now_s()
    }

    fn reset_accounting(&mut self) {
        (**self).reset_accounting();
    }

    fn wait(&mut self, dt_s: f64) {
        (**self).wait(dt_s);
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

    fn hop(
        &mut self,
        from: NodeId,
        to: NodeId,
        payload_bytes: u64,
        kind: PacketKind,
    ) -> Result<bool, WsnError> {
        (**self).hop(from, to, payload_bytes, kind)
    }

    fn round_compute(&mut self, at: NodeId, flops: u64) -> Result<f64, WsnError> {
        (**self).round_compute(at, flops)
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
