//! The epoch'd cluster→gateway assignment every fleet participant
//! computes locally.
//!
//! The directory never ships an explicit cluster table — membership is
//! enough. Given the same `(epoch, members)` pair, every gateway and
//! every client derives the same owner for any cluster via rendezvous
//! (highest-random-weight) hashing: score each member against the
//! cluster with FNV-1a and pick the argmax. Rendezvous hashing makes
//! rebalancing minimal by construction — when a gateway dies, only the
//! clusters it owned move; everyone else's assignments are untouched.

use crate::protocol::GatewayEntry;
use orco_tensor::fnv1a64;

/// Rendezvous score of one `(gateway, cluster)` pair.
fn score(gateway_id: u64, cluster_id: u64) -> u64 {
    let mut key = [0u8; 16];
    key[..8].copy_from_slice(&gateway_id.to_le_bytes());
    key[8..].copy_from_slice(&cluster_id.to_le_bytes());
    fnv1a64(&key)
}

/// Returns the member owning `cluster_id` under rendezvous hashing, or
/// `None` when the membership list is empty. Ties (astronomically rare)
/// break toward the higher gateway id so the choice stays total.
#[must_use]
pub fn owner_of(members: &[GatewayEntry], cluster_id: u64) -> Option<&GatewayEntry> {
    members.iter().max_by_key(|m| (score(m.id, cluster_id), m.id))
}

/// One participant's cached view of the fleet: the assignment epoch,
/// the membership it covers, and (for gateways) the holder's own id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetView {
    /// This participant's gateway id, or `None` for clients.
    pub(crate) self_id: Option<u64>,
    /// Assignment epoch the membership list belongs to.
    pub epoch: u64,
    /// Live gateways, ascending by id.
    pub members: Vec<GatewayEntry>,
}

impl FleetView {
    /// Builds a view, normalizing member order so equal memberships
    /// compare equal regardless of arrival order.
    #[must_use]
    pub fn new(self_id: Option<u64>, epoch: u64, mut members: Vec<GatewayEntry>) -> Self {
        members.sort_by_key(|m| m.id);
        Self { self_id, epoch, members }
    }

    /// The member owning `cluster_id`, or `None` if the fleet is empty.
    #[must_use]
    pub(crate) fn owner_of(&self, cluster_id: u64) -> Option<&GatewayEntry> {
        owner_of(&self.members, cluster_id)
    }

    /// True when this participant is the owner of `cluster_id`.
    #[must_use]
    pub(crate) fn owns(&self, cluster_id: u64) -> bool {
        match (self.self_id, self.owner_of(cluster_id)) {
            (Some(me), Some(owner)) => owner.id == me,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn members(ids: &[u64]) -> Vec<GatewayEntry> {
        ids.iter().map(|&id| GatewayEntry { id, addr: format!("gw:{id}") }).collect()
    }

    #[test]
    fn assignment_is_deterministic_and_total() {
        let m = members(&[1, 2, 3]);
        for cluster in 0..256 {
            let a = owner_of(&m, cluster).unwrap().id;
            let b = owner_of(&m, cluster).unwrap().id;
            assert_eq!(a, b);
        }
        assert!(owner_of(&[], 7).is_none());
    }

    #[test]
    fn assignment_ignores_member_order() {
        let fwd = members(&[1, 2, 3]);
        let rev = members(&[3, 2, 1]);
        for cluster in 0..256 {
            assert_eq!(owner_of(&fwd, cluster).unwrap().id, owner_of(&rev, cluster).unwrap().id);
        }
    }

    #[test]
    fn removal_only_moves_the_dead_gateways_clusters() {
        let full = members(&[1, 2, 3]);
        let reduced = members(&[1, 3]);
        for cluster in 0..1024 {
            let before = owner_of(&full, cluster).unwrap().id;
            let after = owner_of(&reduced, cluster).unwrap().id;
            if before != 2 {
                assert_eq!(before, after, "cluster {cluster} moved although its owner lived");
            }
        }
    }

    #[test]
    fn load_spreads_over_the_fleet() {
        let m = members(&[1, 2, 3]);
        let mut counts = [0usize; 3];
        for cluster in 0..3000 {
            counts[(owner_of(&m, cluster).unwrap().id - 1) as usize] += 1;
        }
        for &c in &counts {
            assert!(c > 600, "skewed assignment: {counts:?}");
        }
    }

    #[test]
    fn view_owns_checks_self_id() {
        let v = FleetView::new(Some(1), 4, members(&[1]));
        assert!(v.owns(99));
        let c = FleetView::new(None, 4, members(&[1]));
        assert!(!c.owns(99));
    }
}
