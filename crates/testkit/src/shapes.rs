//! The observer of failure-point group shapes.
//!
//! A unit — one failed set, one destination — answers its sources in
//! groups: every source whose failure-free path first meets trouble at
//! the same router, its **point**, shares that router's one walk. The
//! equivalence harnesses hold the grouped answers to per-packet walks;
//! this observer says, from the definitions and never from the code
//! under test, which shapes the groups of their fixtures took, so that
//! a harness can refuse to pass vacuously.

use pr_core::{walk_packet, DropReason, ForwardDecision, ForwardingAgent, WalkResult};
use pr_graph::algo::components;
use pr_graph::{AllPairs, Graph, LinkSet, NodeId, SpTree};

/// `src`'s point towards `tree.dest` by its definition: the first
/// router of the failure-free path, `src` first, where `agent`, asked
/// with a default header, does anything but forward on the live tree
/// dart and leave the header default. The destination when no router
/// of the path does.
pub fn point_by_definition<A: ForwardingAgent>(
    g: &Graph,
    agent: &A,
    tree: &SpTree,
    src: NodeId,
    failed: &LinkSet,
) -> NodeId
where
    A::State: PartialEq,
{
    let mut at = src;
    while let Some(dart) = tree.next_dart(at) {
        let mut header = A::State::default();
        let forwards_on_the_tree = !failed.contains_dart(dart)
            && agent.decide(at, None, tree.dest, &mut header, failed)
                == ForwardDecision::Forward(dart);
        if !forwards_on_the_tree || header != A::State::default() {
            break;
        }
        at = g.dart_head(dart);
    }
    at
}

/// The shapes the groups of the observed units took, OR-ed over every
/// unit and agent observed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct GroupShapes {
    /// A point that is the root of an outermost cone: below a failed
    /// tree edge, no failed tree edge above it.
    pub point_at_cone_root: bool,
    /// A point on the tree path of another point of the unit.
    pub nested_points: bool,
    /// A point whose own tree dart is live — FCP learning a failure
    /// next to the path, not on it: no grouping by failed tree links
    /// finds it.
    pub point_off_the_failed_tree: bool,
    /// Two points of a unit whose sources interleave in ascending
    /// source order, the order every tally runs in.
    pub interleaved_points: bool,
    /// A point the survivor graph connects whose walk is dropped.
    pub dropped_point: bool,
    /// A group walked source by source: its point's walk runs out of
    /// the budget a point is given, or arrives, but not within what a
    /// source's tree prefix leaves of its own budget.
    pub ttl_fallback: bool,
    /// A source no failure touches: its point is the destination.
    pub point_at_destination: bool,
}

impl GroupShapes {
    /// Observes every unit of `failed` under `agent`, every node a
    /// source of every destination. A source walks under `ttl`; a
    /// point's walk is given `point_ttl` — `ttl` where a unit walks
    /// its points in full (`FlowUnit::walk`), `ttl` less the hop
    /// diameter where the budget of the farthest source is set aside
    /// first (the traffic replay).
    pub fn observe<A: ForwardingAgent>(
        &mut self,
        g: &Graph,
        base: &AllPairs,
        agent: &A,
        failed: &LinkSet,
        ttl: usize,
        point_ttl: usize,
    ) where
        A::State: std::hash::Hash + Eq,
    {
        let parts = components(g, failed);
        for dst in g.nodes() {
            let tree = base.towards(dst);
            // (source, its point), sources ascending.
            let mut groups: Vec<(NodeId, NodeId)> = g
                .nodes()
                .filter(|&src| src != dst)
                .map(|src| (src, point_by_definition(g, agent, tree, src, failed)))
                .collect();
            self.point_at_destination |= groups.iter().any(|&(_, point)| point == dst);
            groups.retain(|&(_, point)| point != dst);
            let mut points: Vec<NodeId> = groups.iter().map(|&(_, point)| point).collect();
            self.interleaved_points |= points.iter().enumerate().any(|(i, point)| {
                let last = points.iter().rposition(|other| other == point).expect("it is there");
                points[i..last].iter().any(|other| other != point)
            });
            points.sort_unstable();
            points.dedup();
            for &point in &points {
                let above = tree.path_darts(g, point).expect("connected base graph");
                let below_a_failed_edge = failed.contains_dart(above[0]);
                let outermost = !above[1..].iter().any(|d| failed.contains_dart(*d));
                self.point_at_cone_root |= below_a_failed_edge && outermost;
                self.point_off_the_failed_tree |= !below_a_failed_edge;
                self.nested_points |=
                    above.iter().any(|d| points.binary_search(&g.dart_head(*d)).is_ok());
                if !parts.same(point, dst) {
                    continue;
                }
                let walk = walk_packet(g, agent, point, dst, failed, point_ttl);
                match walk.result {
                    WalkResult::Delivered => {
                        let hops = |node| tree.hops(node).expect("connected base graph") as usize;
                        let farthest = groups
                            .iter()
                            .filter(|&&(_, of)| of == point)
                            .map(|&(src, _)| hops(src) - hops(point))
                            .max()
                            .expect("a point has a source");
                        self.ttl_fallback |= farthest + walk.path.hop_count() > ttl;
                    }
                    WalkResult::Dropped(DropReason::TtlExpired) => self.ttl_fallback = true,
                    WalkResult::Dropped(_) => self.dropped_point = true,
                }
            }
        }
    }
}
