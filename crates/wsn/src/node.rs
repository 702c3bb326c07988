//! Network nodes: IoT devices, data aggregators and edge servers.

use std::fmt;

use crate::geometry::Point;

/// Opaque node identifier, unique within one [`crate::Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The three device roles of the OrcoDCS architecture (paper Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceClass {
    /// A battery-powered sensing device. Computes one latent element during
    /// compressed aggregation; never trains.
    IotDevice,
    /// The cluster head that holds the encoder, orchestrates aggregation and
    /// participates in training (paper §III-B). Stronger than an IoT device
    /// but far weaker than the edge.
    DataAggregator,
    /// The edge server hosting the decoder and most of the training load.
    EdgeServer,
}

impl DeviceClass {
    /// Sustained compute rate in FLOP/s used by the simulated-time model.
    ///
    /// The absolute values are representative (mote-class MCU, gateway-class
    /// SoC, edge GPU-less server); the figures only depend on their ratios.
    #[must_use]
    pub(crate) fn flops_rate(self) -> f64 {
        match self {
            DeviceClass::IotDevice => 5.0e7,      // 50 MFLOP/s
            DeviceClass::DataAggregator => 5.0e8, // 500 MFLOP/s
            DeviceClass::EdgeServer => 5.0e10,    // 50 GFLOP/s
        }
    }

    /// Initial energy budget in joules. IoT devices are battery-bound; the
    /// data aggregator (a gateway-class device) and the edge server are
    /// mains/solar-powered and effectively unmetered — the paper's §III-E
    /// overhead analysis likewise treats only the IoT side as
    /// energy-constrained.
    #[must_use]
    pub fn initial_energy_j(self) -> f64 {
        match self {
            DeviceClass::IotDevice => 2.0,
            DeviceClass::DataAggregator | DeviceClass::EdgeServer => f64::INFINITY,
        }
    }
}

/// One simulated device.
#[derive(Debug, Clone)]
pub struct Node {
    class: DeviceClass,
    position: Point,
    energy_j: f64,
    alive: bool,
}

impl Node {
    /// Creates a node with the class's default energy budget.
    #[must_use]
    pub(crate) fn new(class: DeviceClass, position: Point) -> Self {
        Self { class, position, energy_j: class.initial_energy_j(), alive: true }
    }

    /// The node's device class.
    #[must_use]
    pub fn class(&self) -> DeviceClass {
        self.class
    }

    /// The node's position in the field.
    #[must_use]
    pub fn position(&self) -> Point {
        self.position
    }

    /// Remaining energy in joules.
    #[must_use]
    pub fn energy_j(&self) -> f64 {
        self.energy_j
    }

    /// Whether the node is alive (has energy and has not been failed).
    #[must_use]
    pub fn is_alive(&self) -> bool {
        self.alive
    }

    /// Drains `joules` from the battery; the node dies at 0.
    ///
    /// Returns `false` if the node was already dead or the drain kills it.
    pub(crate) fn drain(&mut self, joules: f64) -> bool {
        if !self.alive {
            return false;
        }
        self.energy_j -= joules;
        if self.energy_j <= 0.0 {
            self.energy_j = 0.0;
            self.alive = false;
            return false;
        }
        true
    }

    /// Marks the node dead (failure injection).
    pub(crate) fn kill(&mut self) {
        self.alive = false;
    }

    /// Revives the node with the given energy (test/failure-recovery use).
    pub(crate) fn revive(&mut self, energy_j: f64) {
        self.alive = true;
        self.energy_j = energy_j;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId(42).to_string(), "n42");
    }

    #[test]
    fn class_rates_are_ordered() {
        assert!(DeviceClass::IotDevice.flops_rate() < DeviceClass::DataAggregator.flops_rate());
        assert!(DeviceClass::DataAggregator.flops_rate() < DeviceClass::EdgeServer.flops_rate());
    }

    #[test]
    fn drain_kills_at_zero() {
        let mut n = Node::new(DeviceClass::IotDevice, Point::new(0.0, 0.0));
        assert!(n.is_alive());
        assert!(n.drain(1.0));
        assert!(!n.drain(5.0));
        assert!(!n.is_alive());
        assert_eq!(n.energy_j(), 0.0);
        // Draining a dead node stays dead.
        assert!(!n.drain(0.1));
    }

    #[test]
    fn edge_server_never_runs_out() {
        let mut n = Node::new(DeviceClass::EdgeServer, Point::new(0.0, 0.0));
        assert!(n.drain(1e12));
        assert!(n.is_alive());
    }

    #[test]
    fn kill_and_revive() {
        let mut n = Node::new(DeviceClass::IotDevice, Point::new(0.0, 0.0));
        n.kill();
        assert!(!n.is_alive());
        n.revive(1.0);
        assert!(n.is_alive());
        assert_eq!(n.energy_j(), 1.0);
    }
}
