//! Link models: bandwidth, latency and loss.

/// A point-to-point link model.
///
/// Three instances describe the OrcoDCS deployment (paper §III-E):
/// the low-rate intra-cluster sensor radio, the aggregator→edge uplink, and
/// the much faster edge→aggregator downlink ("downlink … is much less
/// resource-intensive compared to uplink").
///
/// # Examples
///
/// ```
/// use orco_wsn::LinkModel;
///
/// let uplink = LinkModel::new(2e6, 0.02, 0.0);
/// let t = uplink.transmission_time_s(2_000_000 / 8); // 250 kB at 2 Mb/s
/// assert!((t - (1.0 + 0.02)).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    /// Bandwidth in bits per second.
    pub(crate) bandwidth_bps: f64,
    /// One-way propagation + protocol latency in seconds.
    pub(crate) latency_s: f64,
    /// Independent per-packet loss probability in `[0, 1)`.
    pub loss_prob: f64,
}

impl LinkModel {
    /// Creates a link model.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_bps` is not positive, `latency_s` is negative,
    /// or `loss_prob` is outside `[0, 1)`.
    #[must_use]
    pub fn new(bandwidth_bps: f64, latency_s: f64, loss_prob: f64) -> Self {
        assert!(bandwidth_bps > 0.0, "LinkModel: bandwidth must be positive");
        assert!(latency_s >= 0.0, "LinkModel: latency must be ≥ 0");
        assert!((0.0..1.0).contains(&loss_prob), "LinkModel: loss_prob must be in [0, 1)");
        Self { bandwidth_bps, latency_s, loss_prob }
    }

    /// IEEE 802.15.4-class intra-cluster sensor radio: 250 kb/s, 5 ms.
    #[must_use]
    pub fn sensor_radio() -> Self {
        Self::new(250e3, 5e-3, 0.0)
    }

    /// Aggregator→edge uplink: 2 Mb/s, 20 ms.
    #[must_use]
    pub(crate) fn aggregator_uplink() -> Self {
        Self::new(2e6, 20e-3, 0.0)
    }

    /// Edge→aggregator downlink: 20 Mb/s, 10 ms.
    #[must_use]
    pub(crate) fn edge_downlink() -> Self {
        Self::new(20e6, 10e-3, 0.0)
    }

    /// Returns a copy with the given loss probability.
    ///
    /// # Panics
    ///
    /// Panics if `loss_prob` is outside `[0, 1)`.
    #[must_use]
    pub fn with_loss(mut self, loss_prob: f64) -> Self {
        assert!((0.0..1.0).contains(&loss_prob), "LinkModel: loss_prob must be in [0, 1)");
        self.loss_prob = loss_prob;
        self
    }

    /// Time to push `bytes` through the link, including latency.
    #[must_use]
    pub fn transmission_time_s(&self, bytes: u64) -> f64 {
        self.latency_s + self.airtime_s(bytes)
    }

    /// Time `bytes` occupy the medium (serialization only, no latency) —
    /// the contention window other transmitters must wait out.
    #[must_use]
    pub fn airtime_s(&self, bytes: u64) -> f64 {
        (bytes as f64 * 8.0) / self.bandwidth_bps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transmission_time_scales_with_bytes() {
        let l = LinkModel::new(1e6, 0.0, 0.0);
        assert!((l.transmission_time_s(125_000) - 1.0).abs() < 1e-9);
        assert!((l.transmission_time_s(250_000) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn latency_adds_once() {
        let l = LinkModel::new(1e6, 0.5, 0.0);
        assert!((l.transmission_time_s(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn presets_are_ordered_by_speed() {
        assert!(
            LinkModel::sensor_radio().bandwidth_bps < LinkModel::aggregator_uplink().bandwidth_bps
        );
        assert!(
            LinkModel::aggregator_uplink().bandwidth_bps < LinkModel::edge_downlink().bandwidth_bps
        );
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn rejects_zero_bandwidth() {
        let _ = LinkModel::new(0.0, 0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "loss_prob")]
    fn rejects_certain_loss() {
        let _ = LinkModel::new(1.0, 0.0, 1.0);
    }
}
