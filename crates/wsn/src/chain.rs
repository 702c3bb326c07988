//! Chain scheduling for compressed data aggregation (paper §III-C).
//!
//! After the encoder is distributed, each IoT device holds one column of the
//! encoder. Compressed aggregation walks a chain through the devices: each
//! device computes its column's contribution to the latent vector, adds it
//! to the running partial sum, and forwards the (fixed-size, M-element)
//! partial sum to the next device, ending at the data aggregator. Every hop
//! carries exactly M values — this is what decouples the transmission cost
//! from the number of devices N and produces the savings of Figure 3.
//!
//! The chain order is a greedy nearest-neighbour walk starting from the
//! device farthest from the aggregator, which keeps hop distances (and
//! therefore radio energy, which grows with d²) short.

use crate::geometry::Point;
use crate::node::NodeId;

/// An ordered visit schedule for compressed aggregation.
///
/// # Examples
///
/// ```
/// use orco_wsn::{ChainSchedule, NodeId, Point};
///
/// let devices = vec![
///     (NodeId(1), Point::new(3.0, 0.0)),
///     (NodeId(2), Point::new(1.0, 0.0)),
///     (NodeId(3), Point::new(2.0, 0.0)),
/// ];
/// let chain = ChainSchedule::greedy_nearest(&devices, Point::new(0.0, 0.0));
/// // Starts farthest from the aggregator, walks inward.
/// assert_eq!(chain.order(), &[NodeId(1), NodeId(3), NodeId(2)]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainSchedule {
    order: Vec<NodeId>,
}

impl ChainSchedule {
    /// Builds a chain by greedy nearest-neighbour walk: start at the device
    /// farthest from `aggregator`, repeatedly hop to the nearest unvisited
    /// device.
    ///
    /// # Panics
    ///
    /// Panics if `devices` is empty.
    #[must_use]
    pub fn greedy_nearest(devices: &[(NodeId, Point)], aggregator: Point) -> Self {
        assert!(!devices.is_empty(), "ChainSchedule: need at least one device");
        let mut remaining: Vec<(NodeId, Point)> = devices.to_vec();
        // Deterministic start: farthest from the aggregator (ties by id).
        let start = remaining
            .iter()
            .enumerate()
            .max_by(|(_, (ia, a)), (_, (ib, b))| {
                a.distance_sq(aggregator)
                    .partial_cmp(&b.distance_sq(aggregator))
                    .expect("finite distances")
                    .then(ib.cmp(ia))
            })
            .map(|(i, _)| i)
            .expect("non-empty");
        let mut order = Vec::with_capacity(remaining.len());
        let (id, mut cur) = remaining.swap_remove(start);
        order.push(id);
        while !remaining.is_empty() {
            let next = remaining
                .iter()
                .enumerate()
                .min_by(|(_, (ia, a)), (_, (ib, b))| {
                    a.distance_sq(cur)
                        .partial_cmp(&b.distance_sq(cur))
                        .expect("finite distances")
                        .then(ia.cmp(ib))
                })
                .map(|(i, _)| i)
                .expect("non-empty");
            let (id, p) = remaining.swap_remove(next);
            order.push(id);
            cur = p;
        }
        Self { order }
    }

    /// The visit order; the last entry forwards to the aggregator. Empty
    /// once every device on it was removed.
    #[must_use]
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// Device-to-device hops `(from, to)`; the final hop to the aggregator
    /// is not included (its endpoint is not a device).
    #[must_use]
    pub fn device_hops(&self) -> Vec<(NodeId, NodeId)> {
        self.order.windows(2).map(|w| (w[0], w[1])).collect()
    }

    /// Removes a dead device, splicing its neighbours together.
    pub(crate) fn remove(&mut self, dead: NodeId) {
        self.order.retain(|id| *id != dead);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device(i: usize, x: f64) -> (NodeId, Point) {
        (NodeId(i), Point::new(x, 0.0))
    }

    #[test]
    fn walks_inward_on_a_line() {
        let devices = vec![device(1, 1.0), device(2, 2.0), device(3, 3.0), device(4, 4.0)];
        let chain = ChainSchedule::greedy_nearest(&devices, Point::new(0.0, 0.0));
        assert_eq!(chain.order(), &[NodeId(4), NodeId(3), NodeId(2), NodeId(1)]);
        assert_eq!(chain.order().last(), Some(&NodeId(1)));
        assert_eq!(chain.device_hops().len(), 3);
    }

    #[test]
    fn visits_every_device_exactly_once() {
        let mut rng = orco_tensor::OrcoRng::from_label("chain-perm", 0);
        let devices: Vec<(NodeId, Point)> = (0..20)
            .map(|i| {
                (
                    NodeId(i),
                    Point::new(rng.uniform(0.0, 100.0) as f64, rng.uniform(0.0, 100.0) as f64),
                )
            })
            .collect();
        let chain = ChainSchedule::greedy_nearest(&devices, Point::new(50.0, 50.0));
        let mut ids: Vec<usize> = chain.order().iter().map(|n| n.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn single_device_chain() {
        let chain = ChainSchedule::greedy_nearest(&[device(7, 5.0)], Point::new(0.0, 0.0));
        assert_eq!(chain.order(), &[NodeId(7)]);
        assert!(chain.device_hops().is_empty());
        assert_eq!(chain.order().last(), Some(&NodeId(7)));
    }

    #[test]
    fn remove_splices_chain() {
        let devices = [device(1, 1.0), device(2, 2.0), device(3, 3.0)];
        let mut chain = ChainSchedule::greedy_nearest(&devices, Point::new(0.0, 0.0));
        chain.remove(NodeId(2));
        assert_eq!(chain.order(), &[NodeId(3), NodeId(1)]);
        assert_eq!(chain.device_hops(), vec![(NodeId(3), NodeId(1))]);
    }
}
