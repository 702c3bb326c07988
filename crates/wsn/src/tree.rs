//! Multi-hop data-aggregation trees (paper §III-A).
//!
//! Intra-cluster **raw** aggregation uses a tree rooted at the data
//! aggregator spanning all IoT devices: each node forwards its own and its
//! descendants' data one hop toward the root. Relative to direct
//! transmission this (i) cuts the energy of far-from-aggregator nodes —
//! radio energy grows with d² — and (ii) reduces collisions by localizing
//! traffic.
//!
//! The tree is built with Prim's algorithm on Euclidean distance (a minimum
//! spanning tree rooted at the aggregator), which is the standard
//! approximation for energy-efficient aggregation trees. Node failures are
//! handled by re-parenting orphaned subtrees onto the nearest alive
//! non-descendant.

use std::collections::BTreeMap;

use crate::error::WsnError;
use crate::geometry::Point;
use crate::node::NodeId;

/// A rooted spanning tree over cluster nodes.
///
/// # Examples
///
/// ```
/// use orco_wsn::{AggregationTree, NodeId, Point};
///
/// let nodes = vec![
///     (NodeId(0), Point::new(0.0, 0.0)), // root / aggregator
///     (NodeId(1), Point::new(1.0, 0.0)),
///     (NodeId(2), Point::new(2.0, 0.0)),
/// ];
/// let tree = AggregationTree::build(NodeId(0), &nodes)?;
/// assert_eq!(tree.parent(NodeId(2)), Some(NodeId(1))); // multi-hop
/// assert_eq!(tree.hops_to_root(NodeId(2)), 2);
/// # Ok::<(), orco_wsn::WsnError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AggregationTree {
    root: NodeId,
    // Ordered maps: Prim tie-breaks, re-parenting candidate order, and
    // `children`/`bottom_up_order` all iterate these, and the resulting
    // tree must be identical between runs of the same seed.
    parent: BTreeMap<NodeId, NodeId>,
    positions: BTreeMap<NodeId, Point>,
}

impl AggregationTree {
    /// Builds a minimum-spanning aggregation tree rooted at `root`.
    ///
    /// `nodes` must contain `root` and at least one other node; every entry
    /// is `(id, position)`.
    ///
    /// # Errors
    ///
    /// Returns [`WsnError::InvalidTopology`] if `root` is missing from
    /// `nodes` or there are duplicate ids.
    pub fn build(root: NodeId, nodes: &[(NodeId, Point)]) -> Result<Self, WsnError> {
        let mut positions = BTreeMap::new();
        for (id, p) in nodes {
            if positions.insert(*id, *p).is_some() {
                return Err(WsnError::InvalidTopology { detail: format!("duplicate node {id}") });
            }
        }
        if !positions.contains_key(&root) {
            return Err(WsnError::InvalidTopology {
                detail: format!("root {root} not among nodes"),
            });
        }

        // Prim's algorithm from the root, O(n²): for every out-of-tree node
        // keep its best distance to the current tree and the anchor that
        // achieves it; each extraction updates the arrays in one pass.
        // `out` is ascending by id (BTreeMap keys), so distance ties
        // resolve to the lowest id on every run.
        let mut out: Vec<NodeId> = positions.keys().copied().filter(|id| *id != root).collect();
        let root_pos = positions[&root];
        let mut best_d2: Vec<f64> =
            out.iter().map(|id| positions[id].distance_sq(root_pos)).collect();
        let mut best_anchor: Vec<NodeId> = vec![root; out.len()];
        let mut parent = BTreeMap::new();
        while !out.is_empty() {
            let next = best_d2
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.partial_cmp(b).expect("finite distances"))
                .map(|(i, _)| i)
                .expect("out is non-empty");
            let id = out.swap_remove(next);
            let anchor = best_anchor.swap_remove(next);
            best_d2.swap_remove(next);
            parent.insert(id, anchor);
            // The newly attached node may now be the best anchor for others.
            let new_pos = positions[&id];
            for (i, cand) in out.iter().enumerate() {
                let d2 = positions[cand].distance_sq(new_pos);
                if d2 < best_d2[i] {
                    best_d2[i] = d2;
                    best_anchor[i] = id;
                }
            }
        }

        Ok(Self { root, parent, positions })
    }

    /// Number of nodes including the root.
    #[must_use]
    pub fn len(&self) -> usize {
        self.parent.len() + 1
    }

    /// Whether the tree contains only the root.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Whether `id` is in the tree.
    #[must_use]
    pub(crate) fn contains(&self, id: NodeId) -> bool {
        id == self.root || self.parent.contains_key(&id)
    }

    /// The parent of `id` (`None` for the root or unknown nodes).
    #[must_use]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.parent.get(&id).copied()
    }

    /// Children of `id`, sorted for determinism.
    #[must_use]
    pub(crate) fn children(&self, id: NodeId) -> Vec<NodeId> {
        let mut kids: Vec<NodeId> =
            self.parent.iter().filter(|(_, p)| **p == id).map(|(c, _)| *c).collect();
        kids.sort_unstable();
        kids
    }

    /// Hop count from `id` to the root (0 for the root itself).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not in the tree.
    #[must_use]
    pub fn hops_to_root(&self, id: NodeId) -> usize {
        assert!(self.contains(id), "hops_to_root: {id} not in tree");
        let mut hops = 0;
        let mut cur = id;
        while let Some(p) = self.parent(cur) {
            hops += 1;
            cur = p;
            assert!(hops <= self.len(), "tree contains a cycle");
        }
        hops
    }

    /// All non-root nodes in bottom-up order: every node appears before its
    /// parent, so processing in this order aggregates leaves first.
    #[must_use]
    pub fn bottom_up_order(&self) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = self.parent.keys().copied().collect();
        ids.sort_unstable();
        ids.sort_by_key(|id| std::cmp::Reverse(self.hops_to_root(*id)));
        ids
    }

    /// Whether `maybe_descendant` is in the subtree rooted at `ancestor`.
    #[must_use]
    pub(crate) fn is_descendant(&self, maybe_descendant: NodeId, ancestor: NodeId) -> bool {
        let mut cur = maybe_descendant;
        while let Some(p) = self.parent(cur) {
            if p == ancestor {
                return true;
            }
            cur = p;
        }
        false
    }

    /// Removes a failed node and re-parents its orphaned children onto the
    /// nearest remaining node that is not inside their own subtree.
    ///
    /// # Errors
    ///
    /// Returns [`WsnError::InvalidTopology`] if `dead` is the root, and
    /// [`WsnError::UnknownNode`] if `dead` is not in the tree.
    pub fn remove_and_reparent(&mut self, dead: NodeId) -> Result<(), WsnError> {
        if dead == self.root {
            return Err(WsnError::InvalidTopology { detail: "cannot remove the root".into() });
        }
        if !self.parent.contains_key(&dead) {
            return Err(WsnError::UnknownNode { id: dead });
        }
        let orphans = self.children(dead);
        self.parent.remove(&dead);
        let dead_pos = self.positions.remove(&dead);
        debug_assert!(dead_pos.is_some());

        for orphan in orphans {
            // Candidates: every remaining node that is not the orphan and not
            // in the orphan's own subtree (attaching there would form a cycle).
            let op = self.positions[&orphan];
            let mut best: Option<(NodeId, f64)> = None;
            let candidates: Vec<NodeId> = std::iter::once(self.root)
                .chain(self.parent.keys().copied())
                .filter(|c| *c != orphan && *c != dead && !self.is_descendant(*c, orphan))
                .collect();
            for cand in candidates {
                let d2 = op.distance_sq(self.positions[&cand]);
                if best.is_none_or(|(_, bd)| d2 < bd) {
                    best = Some((cand, d2));
                }
            }
            let (new_parent, _) = best.expect("root always remains as a candidate");
            self.parent.insert(orphan, new_parent);
        }
        Ok(())
    }

    /// Checks the structural invariants: connected to the root, acyclic,
    /// and spanning exactly the recorded nodes.
    #[must_use]
    pub fn check_invariants(&self) -> bool {
        self.parent.keys().all(|id| {
            let mut cur = *id;
            let mut hops = 0;
            loop {
                match self.parent(cur) {
                    None => break cur == self.root,
                    Some(p) => {
                        cur = p;
                        hops += 1;
                        if hops > self.len() {
                            break false; // cycle
                        }
                    }
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_nodes(n: usize) -> Vec<(NodeId, Point)> {
        (0..n).map(|i| (NodeId(i), Point::new(i as f64, 0.0))).collect()
    }

    #[test]
    fn line_topology_chains() {
        let tree = AggregationTree::build(NodeId(0), &line_nodes(5)).unwrap();
        for i in 1..5 {
            assert_eq!(tree.parent(NodeId(i)), Some(NodeId(i - 1)));
        }
        assert_eq!(tree.hops_to_root(NodeId(4)), 4);
        assert!(tree.check_invariants());
    }

    #[test]
    fn star_topology_attaches_directly() {
        let nodes = vec![
            (NodeId(0), Point::new(0.0, 0.0)),
            (NodeId(1), Point::new(1.0, 0.0)),
            (NodeId(2), Point::new(0.0, 1.0)),
            (NodeId(3), Point::new(-1.0, 0.0)),
        ];
        let tree = AggregationTree::build(NodeId(0), &nodes).unwrap();
        for i in 1..4 {
            assert_eq!(tree.parent(NodeId(i)), Some(NodeId(0)));
        }
    }

    #[test]
    fn bottom_up_order_children_before_parents() {
        let tree = AggregationTree::build(NodeId(0), &line_nodes(6)).unwrap();
        let order = tree.bottom_up_order();
        assert_eq!(order.len(), 5);
        for (i, id) in order.iter().enumerate() {
            if let Some(p) = tree.parent(*id) {
                if p != NodeId(0) {
                    let pi = order.iter().position(|x| *x == p).unwrap();
                    assert!(pi > i, "parent {p} appears before child {id}");
                }
            }
        }
    }

    #[test]
    fn rejects_missing_root_and_duplicates() {
        let nodes = line_nodes(3);
        assert!(matches!(
            AggregationTree::build(NodeId(9), &nodes),
            Err(WsnError::InvalidTopology { .. })
        ));
        let mut dup = nodes.clone();
        dup.push((NodeId(1), Point::new(5.0, 5.0)));
        assert!(AggregationTree::build(NodeId(0), &dup).is_err());
    }

    #[test]
    fn failure_reparenting_keeps_invariants() {
        let tree_nodes = line_nodes(6);
        let mut tree = AggregationTree::build(NodeId(0), &tree_nodes).unwrap();
        // Kill the middle of the chain: 0-1-2-3-4-5 → remove 2.
        tree.remove_and_reparent(NodeId(2)).unwrap();
        assert!(!tree.contains(NodeId(2)));
        assert_eq!(tree.len(), 5);
        assert!(tree.check_invariants());
        // Node 3 must have been re-parented to its nearest survivor, node 4
        // is in its own subtree so the nearest valid is node 1.
        assert_eq!(tree.parent(NodeId(3)), Some(NodeId(1)));
        // Everyone still reaches the root.
        for i in [1usize, 3, 4, 5] {
            let _ = tree.hops_to_root(NodeId(i));
        }
    }

    #[test]
    fn cannot_remove_root() {
        let mut tree = AggregationTree::build(NodeId(0), &line_nodes(3)).unwrap();
        assert!(tree.remove_and_reparent(NodeId(0)).is_err());
        assert!(matches!(tree.remove_and_reparent(NodeId(7)), Err(WsnError::UnknownNode { .. })));
    }

    #[test]
    fn multihop_reduces_max_hop_distance() {
        // Far node at 100m with a relay at 50m: tree must route through it.
        let nodes = vec![
            (NodeId(0), Point::new(0.0, 0.0)),
            (NodeId(1), Point::new(50.0, 0.0)),
            (NodeId(2), Point::new(100.0, 0.0)),
        ];
        let tree = AggregationTree::build(NodeId(0), &nodes).unwrap();
        assert_eq!(tree.parent(NodeId(2)), Some(NodeId(1)));
    }
}
