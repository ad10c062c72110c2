//! Not-via addresses (IPFRR, the paper's reference [4]; later
//! RFC 6981) — the tunnelling baseline.
//!
//! For every directed link `u → v`, routers precompute the shortest
//! path from `u` to `v` that does **not** traverse the link ("to `v`,
//! not via `u-v`"). When `u → v` fails, `u` encapsulates affected
//! packets towards the not-via address of `v`; intermediate routers
//! forward along the precomputed detour; `v` decapsulates and normal
//! forwarding resumes.
//!
//! Trade-off profile (the reason it is worth having next to PR):
//! full single-failure coverage like PR's basic mode, no convergence
//! wait like reconvergence — but each repair carries a whole extra IP
//! header (~160 bits for IPv4-in-IPv4, vs PR's one bit), and routers
//! hold one extra routing entry per remote interface. Multi-failure
//! combinations are *not* protected: a failed detour drops the packet.

use pr_core::{DropReason, ForwardDecision, ForwardingAgent};
use pr_graph::{AllPairs, Dart, Graph, LinkId, LinkSet, NodeId, SpTree};

/// Per-packet state: the tunnel the packet currently rides, if any.
///
/// `Some((protected_link, exit))` means the packet is encapsulated
/// towards `exit`'s not-via address for `protected_link`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct NotViaState {
    /// Active tunnel, if the packet is currently encapsulated.
    pub tunnel: Option<(LinkId, NodeId)>,
}

/// The Not-via forwarding agent.
#[derive(Debug, Clone)]
pub struct NotViaAgent<'a> {
    /// The failure-free trees: `base.towards(dest).next_dart(node)` is
    /// the primary next hop.
    base: &'a AllPairs,
    /// Detour trees: for each link and direction, the tree towards the
    /// far endpoint in `G − link`. `detour[link][0]` protects the
    /// forward dart (tree towards `endpoints(link).1`),
    /// `detour[link][1]` the reverse dart.
    detour: Vec<[SpTree; 2]>,
}

/// Extra header bits an IPv4-in-IPv4 encapsulation costs while the
/// packet rides a tunnel (20-byte outer header).
pub const ENCAP_BITS: usize = 160;

impl<'a> NotViaAgent<'a> {
    /// Precomputes every per-link detour of `graph` (one shared
    /// Dijkstra arena across the `2 · links` tree builds); the primary
    /// paths are `base`'s, the failure-free trees of `graph`.
    pub fn compute(graph: &Graph, base: &'a AllPairs) -> NotViaAgent<'a> {
        let mut scratch = pr_graph::SpScratch::new();
        let detour = graph
            .links()
            .map(|l| {
                let (a, b) = graph.endpoints(l);
                let without = LinkSet::from_links(graph.link_count(), [l]);
                [
                    SpTree::towards_with(graph, b, &without, &mut scratch), // protects a -> b
                    SpTree::towards_with(graph, a, &without, &mut scratch), // protects b -> a
                ]
            })
            .collect();
        NotViaAgent { base, detour }
    }

    /// The detour tree protecting `dart`.
    fn detour_for(&self, dart: Dart) -> &SpTree {
        &self.detour[dart.link().index()][usize::from(!dart.is_forward())]
    }

    /// Fraction of directed links that are protectable (their far
    /// endpoint is reachable without the link) — 1.0 exactly when the
    /// graph is 2-edge-connected.
    pub fn protection_coverage(&self, graph: &Graph) -> f64 {
        let mut protected = 0usize;
        for d in graph.darts() {
            let tree = self.detour_for(d);
            if tree.reaches(graph.dart_tail(d)) {
                protected += 1;
            }
        }
        protected as f64 / graph.dart_count() as f64
    }
}

impl ForwardingAgent for NotViaAgent<'_> {
    type State = NotViaState;

    fn label(&self) -> &'static str {
        "not-via"
    }

    fn decide(
        &self,
        at: NodeId,
        _ingress: Option<Dart>,
        dest: NodeId,
        state: &mut NotViaState,
        failed: &LinkSet,
    ) -> ForwardDecision {
        // Ride an active tunnel first.
        if let Some((link, exit)) = state.tunnel {
            if at == exit {
                state.tunnel = None; // decapsulate, fall through to normal
            } else {
                let tree = &self.detour[link.index()]
                    [if self.detour[link.index()][0].dest == exit { 0 } else { 1 }];
                let Some(out) = tree.next_dart(at) else {
                    return ForwardDecision::Drop(DropReason::NoRoute);
                };
                if failed.contains_dart(out) {
                    // A second failure inside the detour: not-via only
                    // protects single failures.
                    return ForwardDecision::Drop(DropReason::NoRoute);
                }
                return ForwardDecision::Forward(out);
            }
        }

        let Some(prim) = self.base.towards(dest).next_dart(at) else {
            return ForwardDecision::Drop(DropReason::NoRoute);
        };
        if !failed.contains_dart(prim) {
            return ForwardDecision::Forward(prim);
        }
        // Primary dead: encapsulate to the far endpoint, not via the
        // failed link.
        let tree = self.detour_for(prim);
        let exit = tree.dest;
        let Some(out) = tree.next_dart(at) else {
            return ForwardDecision::Drop(DropReason::NoRoute);
        };
        if failed.contains_dart(out) {
            return ForwardDecision::Drop(DropReason::NoRoute);
        }
        state.tunnel = Some((prim.link(), exit));
        ForwardDecision::Forward(out)
    }

    fn header_bits(&self, state: &NotViaState) -> usize {
        if state.tunnel.is_some() {
            ENCAP_BITS
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pr_core::{generous_ttl, walk_packet, WalkResult};
    use pr_graph::generators;

    #[test]
    fn protects_every_single_failure_on_2ec_graphs() {
        let g = generators::ring(6, 1);
        let base = AllPairs::compute_all_live(&g);
        let agent = NotViaAgent::compute(&g, &base);
        assert_eq!(agent.protection_coverage(&g), 1.0);
        let ttl = generous_ttl(&g);
        for l in g.links() {
            let failed = LinkSet::from_links(g.link_count(), [l]);
            for src in g.nodes() {
                for dst in g.nodes() {
                    if src == dst {
                        continue;
                    }
                    let w = walk_packet(&g, &agent, src, dst, &failed, ttl);
                    assert!(w.result.is_delivered(), "{src}->{dst} with {l} down: {:?}", w.result);
                }
            }
        }
    }

    #[test]
    fn tunnel_costs_encapsulation_bits() {
        let g = generators::ring(6, 1);
        let base = AllPairs::compute_all_live(&g);
        let agent = NotViaAgent::compute(&g, &base);
        let l = g.find_link(NodeId(1), NodeId(0)).unwrap();
        let failed = LinkSet::from_links(g.link_count(), [l]);
        let w = walk_packet(&g, &agent, NodeId(1), NodeId(0), &failed, generous_ttl(&g));
        assert!(w.result.is_delivered());
        assert_eq!(w.peak_header_bits, ENCAP_BITS, "a repair rides one encapsulation");
        // Failure-free forwarding costs nothing.
        let none = LinkSet::empty(g.link_count());
        let w0 = walk_packet(&g, &agent, NodeId(1), NodeId(0), &none, generous_ttl(&g));
        assert_eq!(w0.peak_header_bits, 0);
    }

    #[test]
    fn detour_avoids_the_protected_link() {
        let g = generators::complete(5, 1);
        let base = AllPairs::compute_all_live(&g);
        let agent = NotViaAgent::compute(&g, &base);
        let l = g.find_link(NodeId(0), NodeId(1)).unwrap();
        let failed = LinkSet::from_links(g.link_count(), [l]);
        let w = walk_packet(&g, &agent, NodeId(0), NodeId(1), &failed, generous_ttl(&g));
        assert!(w.result.is_delivered());
        assert!(!w.path.darts().iter().any(|d| d.link() == l));
        assert_eq!(w.path.hop_count(), 2);
    }

    #[test]
    fn dual_failures_are_not_protected() {
        // Ring: failing the primary and its detour's first hop strands
        // the packet — expected for a single-failure mechanism.
        let g = generators::ring(5, 1);
        let base = AllPairs::compute_all_live(&g);
        let agent = NotViaAgent::compute(&g, &base);
        let l10 = g.find_link(NodeId(1), NodeId(0)).unwrap();
        let l12 = g.find_link(NodeId(1), NodeId(2)).unwrap();
        let failed = LinkSet::from_links(g.link_count(), [l10, l12]);
        let w = walk_packet(&g, &agent, NodeId(1), NodeId(0), &failed, generous_ttl(&g));
        assert_eq!(w.result, WalkResult::Dropped(DropReason::NoRoute));
    }

    #[test]
    fn bridge_links_are_unprotectable() {
        let g = generators::path(3, 1);
        let base = AllPairs::compute_all_live(&g);
        let agent = NotViaAgent::compute(&g, &base);
        assert!(agent.protection_coverage(&g) < 1.0);
        let l = g.find_link(NodeId(0), NodeId(1)).unwrap();
        let failed = LinkSet::from_links(g.link_count(), [l]);
        let w = walk_packet(&g, &agent, NodeId(0), NodeId(2), &failed, generous_ttl(&g));
        assert_eq!(w.result, WalkResult::Dropped(DropReason::NoRoute));
    }
}
