//! Concrete packet paths and the stretch metric.
//!
//! The evaluation (§6) is expressed entirely in terms of *stretch*: "the
//! ratio between the total path cost while cycle following and the path
//! cost of the normal shortest path". Forwarding traces produced by the
//! walker are [`Path`]s; [`stretch`] divides their cost by the
//! failure-free optimum.

use serde::{Deserialize, Serialize};

use crate::{Dart, Graph, NodeId};

/// A concrete directed walk through the network, stored as darts.
///
/// A `Path` is allowed to repeat nodes and links — cycle-following routes
/// legitimately do (e.g. `A,B,D,B,C,E` in the paper's Figure 1(b)
/// walkthrough) — but must be *contiguous*: each dart starts where the
/// previous one ended.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Path {
    darts: Vec<Dart>,
}

impl Path {
    /// An empty path (a packet that is already at its destination).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Appends one hop. The caller must keep contiguity (checked in
    /// debug builds).
    pub fn push(&mut self, graph: &Graph, dart: Dart) {
        debug_assert!(
            self.darts.last().is_none_or(|&d| graph.dart_head(d) == graph.dart_tail(dart)),
            "non-contiguous dart appended to Path"
        );
        self.darts.push(dart);
    }

    /// The darts of the walk, in order.
    pub fn darts(&self) -> &[Dart] {
        &self.darts
    }

    /// Number of hops.
    pub fn hop_count(&self) -> usize {
        self.darts.len()
    }

    /// `true` if the walk has no hops.
    pub fn is_empty(&self) -> bool {
        self.darts.is_empty()
    }

    /// Total weighted cost of the walk.
    pub fn cost(&self, graph: &Graph) -> u64 {
        self.darts.iter().map(|d| u64::from(graph.weight(d.link()))).sum()
    }

    /// The node sequence of the walk, starting at `start`.
    ///
    /// `start` is needed because an empty path has no darts to infer the
    /// position from.
    pub fn nodes(&self, graph: &Graph, start: NodeId) -> Vec<NodeId> {
        let mut nodes = Vec::with_capacity(self.darts.len() + 1);
        nodes.push(start);
        for &d in &self.darts {
            debug_assert_eq!(graph.dart_tail(d), *nodes.last().unwrap());
            nodes.push(graph.dart_head(d));
        }
        nodes
    }

    /// Renders the walk as `A -> B -> C` using node names.
    pub fn display(&self, graph: &Graph, start: NodeId) -> String {
        self.nodes(graph, start)
            .iter()
            .map(|&n| graph.node_name(n).to_string())
            .collect::<Vec<_>>()
            .join(" -> ")
    }
}

/// Path-cost stretch: `taken / optimal`, both as weighted costs.
///
/// `optimal` must be the failure-free shortest-path cost for the same
/// source/destination pair, per §6 of the paper. Returns `None` when the
/// optimal cost is zero (source == destination), where stretch is
/// undefined.
pub fn stretch(taken: u64, optimal: u64) -> Option<f64> {
    if optimal == 0 {
        None
    } else {
        Some(taken as f64 / optimal as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn build_and_inspect() {
        let g = generators::path(3, 2); // A-B-C with weight 2 each
        let (d01, d12) = (crate::LinkId(0).forward(), crate::LinkId(1).forward());
        let mut p = Path::empty();
        p.push(&g, d01);
        p.push(&g, d12);
        assert_eq!(p.hop_count(), 2);
        assert_eq!(p.cost(&g), 4);
        assert_eq!(p.nodes(&g, NodeId(0)), vec![NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    fn display_uses_names() {
        let mut g = Graph::new();
        let a = g.add_node("Seattle").unwrap();
        let b = g.add_node("Denver").unwrap();
        let ab = g.add_link(a, b, 1).unwrap();
        let mut p = Path::empty();
        p.push(&g, ab.forward());
        assert_eq!(p.display(&g, a), "Seattle -> Denver");
    }

    #[test]
    fn stretch_math() {
        assert_eq!(stretch(6, 3), Some(2.0));
        assert_eq!(stretch(3, 3), Some(1.0));
        assert_eq!(stretch(5, 0), None);
    }

    #[test]
    fn empty_path() {
        let g = generators::path(2, 1);
        let p = Path::empty();
        assert!(p.is_empty());
        assert_eq!(p.cost(&g), 0);
        assert_eq!(p.nodes(&g, NodeId(1)), vec![NodeId(1)]);
    }
}
