//! Per-node traffic and energy accounting.
//!
//! Figure 3 of the paper ("Transmitted KB" for 1 000 / 10 000 images) is a
//! pure accounting quantity; this module is its source of truth. Every
//! transmission in the simulator lands here.

use std::collections::BTreeMap;

use crate::node::NodeId;
use crate::packet::PacketKind;

/// Aggregated counters for one node.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NodeTraffic {
    /// Bytes transmitted (wire bytes: payload + headers).
    pub tx_bytes: u64,
    /// Bytes received.
    pub rx_bytes: u64,
    /// Joules spent transmitting.
    pub tx_energy_j: f64,
    /// Joules spent receiving.
    pub(crate) rx_energy_j: f64,
    /// Packets sent.
    pub(crate) tx_packets: u64,
    /// Packets received.
    pub(crate) rx_packets: u64,
}

/// Delivery-level statistics of one ledger: logical-packet outcomes,
/// end-to-end latency percentiles, and radio airtime. Both deployment
/// backends fill these — the analytic model per [`crate::Network::transmit`]
/// call, the `orco-sim` event-driven backend per scheduled delivery — so
/// reports can surface them uniformly.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LinkStats {
    /// Logical packets delivered end to end.
    pub delivered_packets: u64,
    /// Logical packets dropped after exhausting their retry budget (or
    /// because an endpoint died mid-flight).
    pub dropped_packets: u64,
    /// Radio frames retransmitted beyond each packet's first attempt.
    pub retransmitted_frames: u64,
    /// Seconds the shared radio medium was occupied.
    pub airtime_s: f64,
    /// Median end-to-end delivery latency, seconds (0 when nothing was
    /// delivered).
    pub latency_p50_s: f64,
    /// 99th-percentile delivery latency, seconds (0 when nothing was
    /// delivered).
    pub latency_p99_s: f64,
}

/// Workspace-wide traffic ledger.
#[derive(Debug, Clone, Default)]
pub struct TrafficAccounting {
    // Ordered map: the energy totals are f64 sums over all nodes, and a
    // hash map's randomized iteration order would make those sums differ
    // in the last ulps between otherwise identical runs.
    per_node: BTreeMap<NodeId, NodeTraffic>,
    // Read by point lookup (`bytes_by_kind`); an ordered map so that
    // enumerating it could never reorder a report between runs.
    per_kind_tx_bytes: BTreeMap<PacketKind, u64>,
    delivered_packets: u64,
    dropped_packets: u64,
    retransmitted_frames: u64,
    airtime_s: f64,
    // Delivery-latency samples kept ascending-sorted on insert: exact
    // percentiles under merging/resets, and per-round `link_stats`
    // snapshots index directly instead of re-sorting a growing vector.
    latencies_s: Vec<f64>,
}

impl TrafficAccounting {
    /// Creates an empty ledger.
    #[must_use]
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Records a transmission by `node`.
    pub(crate) fn record_tx(
        &mut self,
        node: NodeId,
        wire_bytes: u64,
        energy_j: f64,
        kind: PacketKind,
    ) {
        let t = self.per_node.entry(node).or_default();
        t.tx_bytes += wire_bytes;
        t.tx_energy_j += energy_j;
        t.tx_packets += 1;
        *self.per_kind_tx_bytes.entry(kind).or_default() += wire_bytes;
    }

    /// Records a reception by `node`.
    pub(crate) fn record_rx(
        &mut self,
        node: NodeId,
        wire_bytes: u64,
        energy_j: f64,
        _kind: PacketKind,
    ) {
        let t = self.per_node.entry(node).or_default();
        t.rx_bytes += wire_bytes;
        t.rx_energy_j += energy_j;
        t.rx_packets += 1;
    }

    /// Records one logical packet delivered end to end after
    /// `latency_s` seconds (submission to delivery, queueing included).
    pub fn record_delivery(&mut self, latency_s: f64) {
        self.delivered_packets += 1;
        let idx = self.latencies_s.partition_point(|v| *v <= latency_s);
        self.latencies_s.insert(idx, latency_s);
    }

    /// Records one logical packet dropped (retry budget exhausted or an
    /// endpoint died mid-flight).
    pub fn record_drop(&mut self) {
        self.dropped_packets += 1;
    }

    /// Records `frames` radio frames retransmitted beyond their packet's
    /// first attempt.
    pub fn record_retransmits(&mut self, frames: u64) {
        self.retransmitted_frames += frames;
    }

    /// Records `dt_s` seconds of radio-medium occupancy.
    pub fn record_airtime(&mut self, dt_s: f64) {
        self.airtime_s += dt_s;
    }

    /// Snapshot of the delivery-level statistics (packet outcomes, latency
    /// percentiles, airtime). Cheap enough to take per training round.
    #[must_use]
    pub fn link_stats(&self) -> LinkStats {
        LinkStats {
            delivered_packets: self.delivered_packets,
            dropped_packets: self.dropped_packets,
            retransmitted_frames: self.retransmitted_frames,
            airtime_s: self.airtime_s,
            latency_p50_s: percentile_of_sorted(&self.latencies_s, 0.5),
            latency_p99_s: percentile_of_sorted(&self.latencies_s, 0.99),
        }
    }

    /// Counters for one node (zeros if the node never communicated).
    #[must_use]
    pub fn node(&self, id: NodeId) -> NodeTraffic {
        self.per_node.get(&id).copied().unwrap_or_default()
    }

    /// Total bytes transmitted across all nodes.
    #[must_use]
    pub fn total_tx_bytes(&self) -> u64 {
        self.per_node.values().map(|t| t.tx_bytes).sum()
    }

    /// Total transmit energy across all nodes, joules.
    #[must_use]
    pub fn total_tx_energy_j(&self) -> f64 {
        self.per_node.values().map(|t| t.tx_energy_j).sum()
    }

    /// Total receive energy across all nodes, joules.
    #[must_use]
    pub fn total_rx_energy_j(&self) -> f64 {
        self.per_node.values().map(|t| t.rx_energy_j).sum()
    }

    /// Bytes transmitted carrying a given message kind.
    #[must_use]
    pub fn bytes_by_kind(&self, kind: PacketKind) -> u64 {
        self.per_kind_tx_bytes.get(&kind).copied().unwrap_or(0)
    }

    /// Resets all counters (used between experiment phases so Figure 3 can
    /// isolate the data-aggregation phase from training).
    pub(crate) fn reset(&mut self) {
        self.per_node.clear();
        self.per_kind_tx_bytes.clear();
        self.delivered_packets = 0;
        self.dropped_packets = 0;
        self.retransmitted_frames = 0;
        self.airtime_s = 0.0;
        self.latencies_s.clear();
    }
}

/// Nearest-rank percentile over an ascending-sorted sample (0 if empty).
///
/// Public because every latency percentile in the workspace uses the
/// same rank convention: [`TrafficAccounting`] here reports p50/p99
/// through this function, and the serving layer's flush-latency
/// histogram (`orco_obs::HistogramSnapshot::quantile_ns`) resolves the
/// same rank to a bucket bound, so percentiles never drift between
/// reports.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]`.
#[must_use]
pub fn percentile_of_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "latency percentile must be in [0, 1], got {q}");
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_accumulate() {
        let mut l = TrafficAccounting::new();
        l.record_tx(NodeId(0), 100, 1.0, PacketKind::RawData);
        l.record_tx(NodeId(1), 50, 0.5, PacketKind::LatentVector);
        l.record_rx(NodeId(2), 150, 0.2, PacketKind::RawData);
        assert_eq!(l.total_tx_bytes(), 150);
        assert_eq!(l.node(NodeId(2)).rx_bytes, 150);
        assert!((l.total_tx_energy_j() - 1.5).abs() < 1e-12);
        assert_eq!(l.node(NodeId(0)).tx_packets, 1);
        assert_eq!(l.node(NodeId(9)), NodeTraffic::default());
    }

    #[test]
    fn per_kind_breakdown() {
        let mut l = TrafficAccounting::new();
        l.record_tx(NodeId(0), 10, 0.0, PacketKind::RawData);
        l.record_tx(NodeId(0), 20, 0.0, PacketKind::RawData);
        l.record_tx(NodeId(0), 5, 0.0, PacketKind::Control);
        assert_eq!(l.bytes_by_kind(PacketKind::RawData), 30);
        assert_eq!(l.bytes_by_kind(PacketKind::Control), 5);
        assert_eq!(l.bytes_by_kind(PacketKind::LatentVector), 0);
    }

    #[test]
    fn reset_clears_everything() {
        let mut l = TrafficAccounting::new();
        l.record_tx(NodeId(0), 10, 0.1, PacketKind::RawData);
        l.reset();
        assert_eq!(l.total_tx_bytes(), 0);
        assert_eq!(l.bytes_by_kind(PacketKind::RawData), 0);
    }

    #[test]
    fn link_stats_track_outcomes_and_percentiles() {
        let mut l = TrafficAccounting::new();
        for i in 1..=100 {
            l.record_delivery(f64::from(i) * 0.01);
        }
        l.record_drop();
        l.record_retransmits(3);
        l.record_airtime(0.5);
        l.record_airtime(0.25);
        let s = l.link_stats();
        assert_eq!(s.delivered_packets, 100);
        assert_eq!(s.dropped_packets, 1);
        assert_eq!(s.retransmitted_frames, 3);
        assert!((s.airtime_s - 0.75).abs() < 1e-12);
        assert!((s.latency_p50_s - 0.50).abs() < 0.011, "p50 {}", s.latency_p50_s);
        assert!((s.latency_p99_s - 0.99).abs() < 0.011, "p99 {}", s.latency_p99_s);
        l.reset();
        assert_eq!(l.link_stats(), LinkStats::default());
    }

    #[test]
    fn empty_ledger_has_zero_percentiles() {
        let l = TrafficAccounting::new();
        assert_eq!(l.link_stats(), LinkStats::default());
    }
}
