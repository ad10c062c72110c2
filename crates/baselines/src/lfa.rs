//! Loop-Free Alternates (LFA, RFC 5286) — an ablation baseline.
//!
//! LFA is the deployed IPFRR mechanism the paper cites as [2]: each
//! router precomputes, per destination, a backup neighbour whose own
//! shortest path provably avoids coming back ("loop-free condition":
//! `dist(N, D) < dist(N, S) + dist(S, D)`). On failure the router
//! deflects to the backup once; the packet then travels normally.
//!
//! LFA needs **zero header bits** and no embedding, but its coverage
//! is partial — many single failures have no loop-free alternate, and
//! multi-failure combinations can micro-loop. It is included to put
//! PR's "100% coverage for one header bit" claim in context
//! (experiment E5).

use pr_core::{DropReason, ForwardDecision, ForwardingAgent};
use pr_graph::{AllPairs, Dart, Graph, LinkSet, NodeId};

/// Precomputed LFA state: the best loop-free alternate per (node,
/// destination), over the failure-free trees it is handed, whose next
/// darts are the primaries.
#[derive(Debug, Clone)]
pub struct LfaAgent<'a> {
    /// The failure-free trees: `base.towards(dest).next_dart(node)` is
    /// the primary next hop.
    base: &'a AllPairs,
    /// `alternate[dest][node]`: best LFA dart, if any neighbour
    /// satisfies the loop-free condition.
    alternate: Vec<Vec<Option<Dart>>>,
}

impl<'a> LfaAgent<'a> {
    /// Precomputes the alternates over `base`, the failure-free trees
    /// of `graph`.
    ///
    /// Among qualifying neighbours the one with the smallest
    /// `dist(N, D)` wins (standard tie-break), with dart id as the
    /// deterministic final tie-break.
    pub fn compute(graph: &Graph, base: &'a AllPairs) -> LfaAgent<'a> {
        let n = graph.node_count();
        let mut alternate = vec![vec![None; n]; n];
        for dest in graph.nodes() {
            let tree = base.towards(dest);
            for node in graph.nodes() {
                if node == dest {
                    continue;
                }
                let prim = tree.next_dart(node).expect("connected base graph");
                let d_s_d = tree.cost(node).expect("reachable");
                let mut best: Option<(u64, u32, Dart)> = None;
                for &cand in graph.darts_from(node) {
                    if cand.link() == prim.link() {
                        continue; // the alternate must avoid the primary link
                    }
                    let nbr = graph.dart_head(cand);
                    if nbr == dest {
                        // Directly connected: always loop-free.
                        let key = (u64::from(graph.weight(cand.link())), cand.0, cand);
                        if best.is_none_or(|b| (key.0, key.1) < (b.0, b.1)) {
                            best = Some(key);
                        }
                        continue;
                    }
                    let d_n_d = tree.cost(nbr).expect("reachable");
                    let d_n_s = base.cost(nbr, node).expect("reachable");
                    // RFC 5286 inequality 1: N's path to D does not
                    // traverse S.
                    if d_n_d < d_n_s + d_s_d {
                        let key = (d_n_d, cand.0, cand);
                        if best.is_none_or(|b| (key.0, key.1) < (b.0, b.1)) {
                            best = Some(key);
                        }
                    }
                }
                alternate[dest.index()][node.index()] = best.map(|(_, _, d)| d);
            }
        }
        LfaAgent { base, alternate }
    }

    /// The fraction of (node, destination) pairs that have an
    /// alternate — RFC 5286's "coverage" metric for this topology.
    pub fn coverage(&self) -> f64 {
        let mut have = 0usize;
        let mut total = 0usize;
        for (dest, row) in self.alternate.iter().enumerate() {
            for (node, alt) in row.iter().enumerate() {
                if node == dest {
                    continue;
                }
                total += 1;
                if alt.is_some() {
                    have += 1;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            have as f64 / total as f64
        }
    }
}

impl ForwardingAgent for LfaAgent<'_> {
    type State = ();

    fn label(&self) -> &'static str {
        "lfa"
    }

    fn decide(
        &self,
        at: NodeId,
        _ingress: Option<Dart>,
        dest: NodeId,
        _state: &mut (),
        failed: &LinkSet,
    ) -> ForwardDecision {
        let prim = self.base.towards(dest).next_dart(at).expect("engine delivers at dest");
        if !failed.contains_dart(prim) {
            return ForwardDecision::Forward(prim);
        }
        match self.alternate[dest.index()][at.index()] {
            Some(alt) if !failed.contains_dart(alt) => ForwardDecision::Forward(alt),
            _ => ForwardDecision::Drop(DropReason::NoRoute),
        }
    }

    fn header_bits(&self, _state: &()) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pr_core::{generous_ttl, walk_packet, WalkResult};
    use pr_graph::generators;

    #[test]
    fn full_mesh_has_full_coverage() {
        let g = generators::complete(5, 1);
        let base = AllPairs::compute_all_live(&g);
        let lfa = LfaAgent::compute(&g, &base);
        assert_eq!(lfa.coverage(), 1.0, "K5: every neighbour is an LFA");
        // And it actually repairs: fail the direct link 0-1.
        let l = g.find_link(NodeId(0), NodeId(1)).unwrap();
        let failed = LinkSet::from_links(g.link_count(), [l]);
        let walk = walk_packet(&g, &lfa, NodeId(0), NodeId(1), &failed, generous_ttl(&g));
        assert!(walk.result.is_delivered());
        assert_eq!(walk.path.hop_count(), 2);
    }

    #[test]
    fn even_ring_lacks_alternates() {
        // On an even unit-weight ring, the "other" neighbour's own
        // shortest path to the destination often comes back through
        // us, so many pairs have no LFA; coverage is partial.
        let g = generators::ring(6, 1);
        let base = AllPairs::compute_all_live(&g);
        let lfa = LfaAgent::compute(&g, &base);
        assert!(lfa.coverage() < 1.0, "even rings cannot be fully LFA-protected");
        // Concretely: 1 -> 0 with the direct link failed has no LFA at
        // node 1 (its other neighbour 2 is *farther* from 0 via 1).
        let l = g.find_link(NodeId(1), NodeId(0)).unwrap();
        let failed = LinkSet::from_links(g.link_count(), [l]);
        let walk = walk_packet(&g, &lfa, NodeId(1), NodeId(0), &failed, generous_ttl(&g));
        assert_eq!(walk.result, WalkResult::Dropped(DropReason::NoRoute));
    }

    #[test]
    fn failure_free_follows_primary() {
        let g = generators::ring(5, 1);
        let base = AllPairs::compute_all_live(&g);
        let lfa = LfaAgent::compute(&g, &base);
        let none = LinkSet::empty(g.link_count());
        let walk = walk_packet(&g, &lfa, NodeId(2), NodeId(0), &none, generous_ttl(&g));
        assert!(walk.result.is_delivered());
        assert_eq!(walk.path.hop_count(), 2);
        assert_eq!(walk.peak_header_bits, 0);
    }

    #[test]
    fn alternate_avoids_primary_link() {
        let g = generators::complete(4, 1);
        let base = AllPairs::compute_all_live(&g);
        let lfa = LfaAgent::compute(&g, &base);
        for dest in g.nodes() {
            for node in g.nodes() {
                if node == dest {
                    continue;
                }
                let p = base.towards(dest).next_dart(node).unwrap();
                if let Some(a) = lfa.alternate[dest.index()][node.index()] {
                    assert_ne!(p.link(), a.link());
                    assert_eq!(g.dart_tail(a), node);
                }
            }
        }
    }
}
