//! The network façade: nodes + links + clock + accounting in one place.
//!
//! A [`Network`] owns the whole simulated deployment of paper Fig. 1 — `N`
//! IoT devices scattered over a field, one data aggregator at the field
//! centre, one edge server reachable over an uplink — and exposes the
//! point-to-point primitives the OrcoDCS protocol is written in terms of:
//! [`Network::transmit`] (aggregator ⇄ edge training traffic, and every hop
//! of a round) and [`Network::compute`] (simulated FLOP execution). Every
//! call advances the [`SimClock`], drains node batteries and lands in the
//! [`TrafficAccounting`] ledger.
//!
//! The three traffic rounds — raw tree aggregation (§III-A), the encoder
//! broadcast and chain aggregation of latent partial sums (§III-C) — are
//! [`DeploymentBackend`](crate::DeploymentBackend) methods, written once
//! over both backends in `backend.rs`. [`Network`] is also the world state
//! of the `orco-sim` event-driven backend, which charges its transfers
//! through the same hooks `transmit` is built from.

use orco_tensor::OrcoRng;

use crate::accounting::TrafficAccounting;
use crate::backend::chain_round;
use crate::chain::ChainSchedule;
use crate::clock::SimClock;
use crate::compute::ComputeModel;
use crate::error::WsnError;
use crate::geometry::{scatter_uniform, Point};
use crate::link::LinkModel;
use crate::node::{DeviceClass, Node, NodeId};
use crate::packet::{Packet, PacketKind};
use crate::radio::RadioModel;
use crate::tree::AggregationTree;

/// Side length of the square deployment field, meters.
const FIELD_SIDE_M: f64 = 100.0;

/// Per-packet retransmission budget on lossy links, in both backends: a
/// packet is sent at most `MAX_RETRIES + 1` times.
pub const MAX_RETRIES: u32 = 7;

/// Deployment and channel configuration.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Number of IoT devices in the cluster.
    pub num_devices: usize,
    /// Seed for node placement and loss draws.
    pub seed: u64,
    /// Intra-cluster device↔device/aggregator link.
    pub sensor_link: LinkModel,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        Self { num_devices: 64, seed: 0, sensor_link: LinkModel::sensor_radio() }
    }
}

/// The simulated deployment. Its radio energy model, edge links and
/// compute rates are the crate's defaults; [`NetworkConfig`] sets the rest.
///
/// # Examples
///
/// ```
/// use orco_wsn::{DeploymentBackend, Network, NetworkConfig};
///
/// let mut net = Network::new(NetworkConfig { num_devices: 8, ..Default::default() });
/// let t = net.raw_aggregation_round(4)?; // every device reports 4 raw bytes
/// assert!(t > 0.0);
/// assert!(net.accounting().total_tx_bytes() > 0);
/// # Ok::<(), orco_wsn::WsnError>(())
/// ```
#[derive(Debug)]
pub struct Network {
    config: NetworkConfig,
    radio: RadioModel,
    uplink: LinkModel,
    downlink: LinkModel,
    compute: ComputeModel,
    nodes: Vec<Node>,
    aggregator: NodeId,
    edge: NodeId,
    devices: Vec<NodeId>,
    tree: AggregationTree,
    chain: ChainSchedule,
    clock: SimClock,
    accounting: TrafficAccounting,
    rng: OrcoRng,
}

impl Network {
    /// Builds a deployment: devices scattered uniformly, the aggregator at
    /// the field centre, the edge server off-field.
    ///
    /// # Panics
    ///
    /// Panics if `config.num_devices == 0`.
    #[must_use]
    pub fn new(config: NetworkConfig) -> Self {
        assert!(config.num_devices > 0, "Network: need at least one device");
        let mut rng = OrcoRng::from_label("wsn-network", config.seed);
        let device_positions = scatter_uniform(config.num_devices, FIELD_SIDE_M, &mut rng);

        let mut nodes = Vec::with_capacity(config.num_devices + 2);
        let mut devices = Vec::with_capacity(config.num_devices);
        for (i, p) in device_positions.iter().enumerate() {
            nodes.push(Node::new(DeviceClass::IotDevice, *p));
            devices.push(NodeId(i));
        }
        let aggregator = NodeId(config.num_devices);
        let centre = Point::new(FIELD_SIDE_M / 2.0, FIELD_SIDE_M / 2.0);
        nodes.push(Node::new(DeviceClass::DataAggregator, centre));
        let edge = NodeId(config.num_devices + 1);
        // The edge server sits outside the sensor field; its link is modelled
        // by bandwidth/latency, not by radio distance.
        let edge_pos = Point::new(FIELD_SIDE_M * 2.0, FIELD_SIDE_M / 2.0);
        nodes.push(Node::new(DeviceClass::EdgeServer, edge_pos));

        let mut tree_nodes: Vec<(NodeId, Point)> =
            devices.iter().map(|id| (*id, nodes[id.0].position())).collect();
        tree_nodes.push((aggregator, centre));
        let tree = AggregationTree::build(aggregator, &tree_nodes)
            .expect("freshly built topology is valid");
        let chain_devices: Vec<(NodeId, Point)> =
            devices.iter().map(|id| (*id, nodes[id.0].position())).collect();
        let chain = ChainSchedule::greedy_nearest(&chain_devices, centre);

        Self {
            config,
            radio: RadioModel::default(),
            uplink: LinkModel::aggregator_uplink(),
            downlink: LinkModel::edge_downlink(),
            compute: ComputeModel::default(),
            nodes,
            aggregator,
            edge,
            devices,
            tree,
            chain,
            clock: SimClock::new(),
            accounting: TrafficAccounting::new(),
            rng,
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Ids of the IoT devices.
    #[must_use]
    pub fn devices(&self) -> &[NodeId] {
        &self.devices
    }

    /// The data aggregator's id.
    #[must_use]
    pub fn aggregator(&self) -> NodeId {
        self.aggregator
    }

    /// The edge server's id.
    #[must_use]
    pub fn edge(&self) -> NodeId {
        self.edge
    }

    /// Current simulated time in seconds.
    #[must_use]
    pub fn now_s(&self) -> f64 {
        self.clock.now_s()
    }

    /// The traffic ledger.
    #[must_use]
    pub fn accounting(&self) -> &TrafficAccounting {
        &self.accounting
    }

    /// Clears the traffic ledger (keeps the clock and batteries).
    pub fn reset_accounting(&mut self) {
        self.accounting.reset();
    }

    /// Advances the simulated clock by `dt_s` seconds without any traffic —
    /// models waiting on an external shared resource (e.g. a busy edge
    /// server in a multi-cluster deployment).
    ///
    /// # Panics
    ///
    /// Panics if `dt_s` is negative or not finite.
    pub fn wait(&mut self, dt_s: f64) {
        self.clock.advance(dt_s);
    }

    /// The node with the given id.
    ///
    /// # Errors
    ///
    /// Returns [`WsnError::UnknownNode`] for out-of-range ids.
    pub fn node(&self, id: NodeId) -> Result<&Node, WsnError> {
        self.nodes.get(id.0).ok_or(WsnError::UnknownNode { id })
    }

    /// The current aggregation tree.
    #[must_use]
    pub fn tree(&self) -> &AggregationTree {
        &self.tree
    }

    /// The current chain schedule.
    #[must_use]
    pub fn chain(&self) -> &ChainSchedule {
        &self.chain
    }

    /// Alive IoT devices (order of `devices()`).
    #[must_use]
    pub fn alive_devices(&self) -> Vec<NodeId> {
        self.devices.iter().copied().filter(|id| self.nodes[id.0].is_alive()).collect()
    }

    /// Whether `id` names a node that is alive (`false` for unknown ids).
    #[must_use]
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.node(id).is_ok_and(Node::is_alive)
    }

    // ------------------------------------------------------------------
    // Failure injection
    // ------------------------------------------------------------------

    /// Kills a device and repairs the aggregation structures around it.
    ///
    /// # Errors
    ///
    /// Returns [`WsnError::UnknownNode`] for non-device ids.
    pub fn kill_device(&mut self, id: NodeId) -> Result<(), WsnError> {
        if !self.devices.contains(&id) {
            return Err(WsnError::UnknownNode { id });
        }
        self.nodes[id.0].kill();
        self.tree.remove_and_reparent(id)?;
        self.chain.remove(id);
        Ok(())
    }

    /// Revives a previously dead device with the given battery budget and
    /// rebuilds the aggregation tree and chain over the now-alive devices
    /// (scenario-scripted recovery in the event-driven backend).
    ///
    /// # Errors
    ///
    /// Returns [`WsnError::UnknownNode`] for non-device ids.
    pub fn revive_device(&mut self, id: NodeId, energy_j: f64) -> Result<(), WsnError> {
        if !self.devices.contains(&id) {
            return Err(WsnError::UnknownNode { id });
        }
        self.nodes[id.0].revive(energy_j);
        self.rebuild_routes();
        Ok(())
    }

    /// Rebuilds the aggregation tree and chain schedule from the currently
    /// alive devices (deterministic for a given alive set).
    fn rebuild_routes(&mut self) {
        let centre = self.nodes[self.aggregator.0].position();
        let alive: Vec<(NodeId, Point)> = self
            .devices
            .iter()
            .filter(|id| self.nodes[id.0].is_alive())
            .map(|id| (*id, self.nodes[id.0].position()))
            .collect();
        if alive.is_empty() {
            return;
        }
        let mut tree_nodes = alive.clone();
        tree_nodes.push((self.aggregator, centre));
        self.tree =
            AggregationTree::build(self.aggregator, &tree_nodes).expect("alive topology is valid");
        self.chain = ChainSchedule::greedy_nearest(&alive, centre);
    }

    // ------------------------------------------------------------------
    // Deployment-backend hooks
    //
    // The `orco-sim` event-driven backend reuses this struct as its world
    // state — topology, batteries, ledger, global clock — while scheduling
    // time itself. `transmit` and `compute` are built from these hooks, so
    // a contention-free event-driven schedule charges the same formulas in
    // the same order and reproduces the analytic totals bit for bit.
    // ------------------------------------------------------------------

    /// The link model governing a `from → to` transmission (sensor radio,
    /// uplink, or downlink).
    #[must_use]
    pub fn link_between(&self, from: NodeId, to: NodeId) -> LinkModel {
        if from == self.edge {
            self.downlink
        } else if to == self.edge {
            self.uplink
        } else {
            self.config.sensor_link
        }
    }

    /// Checks a transmission's endpoints: both ids resolve, then both
    /// nodes are alive.
    ///
    /// # Errors
    ///
    /// [`WsnError::UnknownNode`], then [`WsnError::NodeDead`], sender first.
    pub fn check_endpoints(&self, from: NodeId, to: NodeId) -> Result<(), WsnError> {
        let (sender, receiver) = (self.node(from)?, self.node(to)?);
        if !sender.is_alive() {
            return Err(WsnError::NodeDead { id: from });
        }
        if !receiver.is_alive() {
            return Err(WsnError::NodeDead { id: to });
        }
        Ok(())
    }

    /// Radio distance for the energy model: the geometric distance for
    /// intra-cluster hops, 0 for the wired/cellular edge links.
    ///
    /// # Errors
    ///
    /// Returns [`WsnError::UnknownNode`] for out-of-range ids.
    pub fn radio_distance_m(&self, from: NodeId, to: NodeId) -> Result<f64, WsnError> {
        let a = self.node(from)?.position();
        let b = self.node(to)?.position();
        Ok(if from == self.edge || to == self.edge { 0.0 } else { a.distance(b) })
    }

    /// Charges one transmission attempt of `wire_bytes` to `from`: drains
    /// tx energy over `distance_m` and records the traffic. Returns whether
    /// the sender survived the drain (`false` ⇒ it just died).
    ///
    /// # Errors
    ///
    /// Returns [`WsnError::UnknownNode`] for out-of-range ids.
    pub fn charge_tx(
        &mut self,
        from: NodeId,
        wire_bytes: u64,
        distance_m: f64,
        kind: PacketKind,
    ) -> Result<bool, WsnError> {
        self.node(from)?;
        let tx_energy = self.radio.tx_energy_j(wire_bytes, distance_m);
        let survived = self.nodes[from.0].drain(tx_energy);
        self.accounting.record_tx(from, wire_bytes, tx_energy, kind);
        Ok(survived)
    }

    /// Charges one reception of `wire_bytes` to `to` and records the
    /// traffic.
    ///
    /// # Errors
    ///
    /// Returns [`WsnError::UnknownNode`] for out-of-range ids.
    pub fn charge_rx(
        &mut self,
        to: NodeId,
        wire_bytes: u64,
        kind: PacketKind,
    ) -> Result<(), WsnError> {
        self.node(to)?;
        let rx_energy = self.radio.rx_energy_j(wire_bytes);
        self.nodes[to.0].drain(rx_energy);
        self.accounting.record_rx(to, wire_bytes, rx_energy, kind);
        Ok(())
    }

    /// Charges a compute workload at `at` **without** advancing the global
    /// clock: drains compute energy and returns the elapsed seconds the
    /// caller should schedule. The event-driven backend's twin of
    /// [`Network::compute`].
    ///
    /// # Errors
    ///
    /// Returns [`WsnError::UnknownNode`] or [`WsnError::NodeDead`].
    pub fn charge_compute(&mut self, at: NodeId, flops: u64) -> Result<f64, WsnError> {
        let class = {
            let n = self.node(at)?;
            if !n.is_alive() {
                return Err(WsnError::NodeDead { id: at });
            }
            n.class()
        };
        let dt = self.compute.time_for_flops(class, flops);
        let energy = self.compute.energy_for_flops(class, flops);
        self.nodes[at.0].drain(energy);
        Ok(dt)
    }

    /// Mutable access to the traffic ledger (the event-driven backend
    /// records deliveries, drops, retransmissions, and airtime directly).
    #[must_use]
    pub fn accounting_mut(&mut self) -> &mut TrafficAccounting {
        &mut self.accounting
    }

    /// Synchronizes the global clock to an absolute event time (never
    /// rewinds; see `SimClock::advance_to`).
    pub fn advance_clock_to(&mut self, t_s: f64) {
        self.clock.advance_to(t_s);
    }

    // ------------------------------------------------------------------
    // Primitives
    // ------------------------------------------------------------------

    /// Sends `payload_bytes` of `kind` from `from` to `to`.
    ///
    /// Advances the clock by the link transmission time (per attempt),
    /// drains radio energy on both ends, and records the traffic. Lossy
    /// links retransmit up to [`MAX_RETRIES`] times.
    ///
    /// Returns the elapsed simulated seconds.
    ///
    /// # Errors
    ///
    /// * [`WsnError::UnknownNode`] / [`WsnError::NodeDead`] for bad endpoints.
    /// * [`WsnError::TransmissionFailed`] when every attempt is lost.
    /// * [`WsnError::EnergyExhausted`] when the sender dies mid-send.
    pub fn transmit(
        &mut self,
        from: NodeId,
        to: NodeId,
        payload_bytes: u64,
        kind: PacketKind,
    ) -> Result<f64, WsnError> {
        self.check_endpoints(from, to)?;
        let packet = Packet::new(from, to, payload_bytes, kind);
        let wire = packet.wire_bytes();
        let link = self.link_between(from, to);
        let distance = self.radio_distance_m(from, to)?;

        let mut elapsed = 0.0;
        let mut attempts = 0u32;
        let outcome = loop {
            attempts += 1;
            elapsed += link.transmission_time_s(wire);
            self.accounting.record_airtime(link.airtime_s(wire));
            if !self.charge_tx(from, wire, distance, kind)? {
                break Err(WsnError::EnergyExhausted { id: from });
            }
            // Loss probabilities are natively f64; drawing at full precision
            // keeps e.g. a 1e-9 uplink loss from truncating to a different
            // (f32-rounded) Bernoulli threshold.
            let lost = link.loss_prob > 0.0 && self.rng.bernoulli_f64(link.loss_prob);
            if !lost {
                self.charge_rx(to, wire, kind)?;
                break Ok(elapsed);
            }
            if attempts > MAX_RETRIES {
                break Err(WsnError::TransmissionFailed { from, to, attempts });
            }
        };
        self.accounting.record_retransmits(u64::from(attempts - 1) * packet.frame_count());
        match outcome {
            Ok(_) => self.accounting.record_delivery(elapsed),
            Err(_) => self.accounting.record_drop(),
        }
        self.clock.advance(elapsed);
        outcome
    }

    /// Executes `flops` at node `at`; advances the clock and drains compute
    /// energy. Returns elapsed simulated seconds.
    ///
    /// # Errors
    ///
    /// Returns [`WsnError::UnknownNode`] or [`WsnError::NodeDead`].
    pub fn compute(&mut self, at: NodeId, flops: u64) -> Result<f64, WsnError> {
        let dt = self.charge_compute(at, flops)?;
        self.clock.advance(dt);
        Ok(dt)
    }

    /// One round of **hybrid** compressed aggregation (ref \[1\] of the
    /// paper): early chain positions forward raw readings while that is
    /// smaller than the latent partial sum, switching to CS mode at the
    /// crossover. Hop `i` (0-based) carries
    /// `min((i+1)·reading_bytes, latent_bytes)`; see [`chain_round`].
    ///
    /// Returns elapsed simulated seconds.
    ///
    /// # Errors
    ///
    /// Propagates transmission errors.
    pub fn hybrid_aggregation_round(
        &mut self,
        latent_bytes: u64,
        reading_bytes: u64,
        flops_per_device: u64,
    ) -> Result<f64, WsnError> {
        chain_round(self, latent_bytes, reading_bytes, flops_per_device)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeploymentBackend;

    fn small_net(devices: usize) -> Network {
        Network::new(NetworkConfig { num_devices: devices, seed: 7, ..Default::default() })
    }

    #[test]
    fn construction_places_everyone() {
        let net = small_net(10);
        assert_eq!(net.devices().len(), 10);
        assert_eq!(net.aggregator(), NodeId(10));
        assert_eq!(net.edge(), NodeId(11));
        assert!(net.tree().check_invariants());
        assert_eq!(net.chain().order().len(), 10);
        assert_eq!(net.now_s(), 0.0);
    }

    #[test]
    fn transmit_advances_clock_and_accounts() {
        let mut net = small_net(4);
        let d = net.devices()[0];
        let t = net.transmit(d, net.aggregator(), 100, PacketKind::RawData).unwrap();
        assert!(t > 0.0);
        assert_eq!(net.now_s(), t);
        assert!(net.accounting().node(d).tx_bytes > 100); // headers included
        assert!(net.accounting().node(net.aggregator()).rx_bytes > 100);
        assert!(net.node(d).unwrap().energy_j() < DeviceClass::IotDevice.initial_energy_j());
    }

    #[test]
    fn uplink_is_faster_per_byte_than_sensor_radio() {
        let mut net = small_net(4);
        let d = net.devices()[0];
        let t_sensor = net.transmit(d, net.aggregator(), 1000, PacketKind::RawData).unwrap();
        let t_uplink =
            net.transmit(net.aggregator(), net.edge(), 1000, PacketKind::LatentVector).unwrap();
        assert!(t_uplink < t_sensor);
    }

    #[test]
    fn raw_aggregation_reaches_aggregator() {
        let mut net = small_net(12);
        let t = net.raw_aggregation_round(4).unwrap();
        assert!(t > 0.0);
        // Aggregator must have received every device's 4 bytes (plus headers).
        let rx = net.accounting().node(net.aggregator()).rx_bytes;
        assert!(rx >= 12 * 4, "aggregator received {rx} bytes");
        // Multi-hop: total transmitted ≥ what the aggregator received.
        assert!(net.accounting().total_tx_bytes() >= rx);
    }

    #[test]
    fn compressed_round_bytes_independent_of_device_count() {
        // Chain aggregation: the aggregator receives exactly one latent
        // payload regardless of N.
        for n in [4usize, 16] {
            let mut net = small_net(n);
            net.compressed_aggregation_round(512, 100).unwrap();
            let rx_payload = net.accounting().node(net.aggregator()).rx_bytes;
            // one hop into the aggregator: 512 payload + headers
            assert!((512..512 + 40 * 21).contains(&rx_payload), "n={n}: {rx_payload}");
        }
    }

    #[test]
    fn broadcast_hits_every_device() {
        let mut net = small_net(6);
        net.broadcast_encoder_columns(128).unwrap();
        for d in net.devices().to_vec() {
            assert!(net.accounting().node(d).rx_bytes >= 128);
        }
    }

    #[test]
    fn killing_device_keeps_rounds_working() {
        let mut net = small_net(8);
        let victim = net.devices()[3];
        net.kill_device(victim).unwrap();
        assert_eq!(net.alive_devices().len(), 7);
        assert!(net.tree().check_invariants());
        let t = net.raw_aggregation_round(4).unwrap();
        assert!(t > 0.0);
        assert_eq!(net.accounting().node(victim).tx_bytes, 0);
        net.reset_accounting();
        net.compressed_aggregation_round(256, 50).unwrap();
        assert_eq!(net.accounting().node(victim).tx_bytes, 0);
    }

    #[test]
    fn transmit_to_dead_node_errors() {
        let mut net = small_net(4);
        let victim = net.devices()[1];
        net.kill_device(victim).unwrap();
        let d = net.devices()[0];
        assert!(matches!(
            net.transmit(d, victim, 10, PacketKind::RawData),
            Err(WsnError::NodeDead { .. })
        ));
    }

    #[test]
    fn lossy_link_retries_and_costs_more() {
        let mut cfg = NetworkConfig { num_devices: 4, seed: 3, ..Default::default() };
        cfg.sensor_link = cfg.sensor_link.with_loss(0.4);
        let mut lossy = Network::new(cfg);
        let mut clean = small_net(4);
        let bytes = 96; // one frame
        let mut lossy_total = 0u64;
        let mut clean_total = 0u64;
        for _ in 0..50 {
            let d = lossy.devices()[0];
            let _ = lossy.transmit(d, lossy.aggregator(), bytes, PacketKind::RawData);
            let d = clean.devices()[0];
            let _ = clean.transmit(d, clean.aggregator(), bytes, PacketKind::RawData);
            lossy_total = lossy.accounting().total_tx_bytes();
            clean_total = clean.accounting().total_tx_bytes();
        }
        assert!(lossy_total > clean_total, "lossy {lossy_total} vs clean {clean_total}");
    }

    #[test]
    fn compute_time_respects_device_class() {
        let mut net = small_net(4);
        let t_iot = net.compute(net.devices()[0], 1_000_000).unwrap();
        let t_edge = net.compute(net.edge(), 1_000_000).unwrap();
        assert!(t_iot > t_edge * 100.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = small_net(10);
        let mut b = small_net(10);
        let ta = a.raw_aggregation_round(8).unwrap();
        let tb = b.raw_aggregation_round(8).unwrap();
        assert_eq!(ta, tb);
        assert_eq!(a.accounting().total_tx_bytes(), b.accounting().total_tx_bytes());
    }

    #[test]
    fn hybrid_round_costs_no_more_than_plain_cs() {
        let mut plain = small_net(40);
        let mut hybrid = small_net(40);
        plain.compressed_aggregation_round(512, 0).unwrap();
        hybrid.hybrid_aggregation_round(512, 4, 0).unwrap();
        let pb = plain.accounting().total_tx_bytes();
        let hb = hybrid.accounting().total_tx_bytes();
        assert!(hb < pb, "hybrid {hb} should beat plain {pb} (early hops send raw)");
        // And the aggregator still receives a full-size final payload.
        let rx = hybrid.accounting().node(hybrid.aggregator()).rx_bytes;
        assert!(rx >= 160, "aggregator got {rx} bytes");
    }

    #[test]
    fn hybrid_equals_plain_when_latent_tiny() {
        // If M·4 is smaller than even one reading, every hop sends M·4.
        let mut plain = small_net(10);
        let mut hybrid = small_net(10);
        plain.compressed_aggregation_round(4, 0).unwrap();
        hybrid.hybrid_aggregation_round(4, 4, 0).unwrap();
        assert_eq!(plain.accounting().total_tx_bytes(), hybrid.accounting().total_tx_bytes());
    }
}
