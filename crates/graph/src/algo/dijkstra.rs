//! Deterministic shortest-path trees (Dijkstra).
//!
//! Routing in the paper is destination-rooted: every router holds, per
//! destination, a next hop along a shortest path *towards* that
//! destination, plus a **distance discriminator** (§4.3) — a strictly
//! increasing function of the links along that shortest path. We
//! materialise both in a [`SpTree`].
//!
//! Determinism matters more than usual here: cycle-following correctness
//! arguments reason about *the* shortest-path tree, and reproducible
//! experiments need identical tables across runs and platforms. Ties are
//! therefore broken canonically (fewest hops, then lowest parent node id,
//! then lowest dart id) rather than by heap pop order.

use serde::{Deserialize, Serialize};

use crate::{Dart, Graph, LinkSet, NodeId};

/// The labels of a node that cannot reach the destination (`NO_DART`
/// also that of the destination itself, which has no parent).
pub(crate) const NO_DIST: u32 = u32::MAX;
pub(crate) const NO_HOPS: u16 = u16::MAX;
pub(crate) const NO_DART: Dart = Dart(u32::MAX);

/// A label computed in the arithmetic's width, narrowed to its column.
/// The graph's limits make every label fit below its sentinel: a hop
/// count is below `n`, which is at most [`Graph::MAX_NODES`], and the
/// cost of a simple path, tentative or final, at most the total link
/// weight, which stays below `u32::MAX` ([`Graph::add_link`]). A label
/// that did not fit would be a broken limit, never a truncated label.
#[inline]
pub(crate) fn narrow<T: TryFrom<u64>>(label: impl Into<u64>) -> T {
    T::try_from(label.into()).unwrap_or_else(|_| panic!("a label outgrew its column"))
}

/// A destination-rooted shortest-path tree over the live links.
///
/// For every node `u` that can reach [`SpTree::dest`]:
///
/// * `dist[u]` — exact weighted cost of the shortest `u → dest` path;
/// * `hops[u]` — hop count along the *selected* shortest path (the
///   canonical tie-broken one), which strictly decreases hop by hop;
/// * `next[u]` — the dart `u → parent` to follow towards `dest`.
///
/// The labels are **three packed columns**, 10 bytes per node: `dist`
/// is a `u32`, `hops` a `u16` and `next` a [`Dart`], each as wide as the
/// graph's limits let its values be ([`Graph::MAX_NODES`],
/// [`Graph::add_link`]). An unreachable node holds the sentinels
/// `u32::MAX` / `u16::MAX` / `Dart(u32::MAX)`, not an `Option`'s tag
/// and padding, the destination `0`, `0` and the dart sentinel. Every
/// computation on them runs in `u64`/`u32`; a label is narrowed only
/// where it is stored. One record per node was measured and is slower
/// (DESIGN.md §3): a climb reads `next` alone.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpTree {
    /// The destination this tree routes towards.
    pub dest: NodeId,
    pub(crate) dist: Vec<u32>,
    pub(crate) hops: Vec<u16>,
    pub(crate) next: Vec<Dart>,
}

impl SpTree {
    /// Computes the shortest-path tree towards `dest` using only links
    /// not present in `failed`.
    ///
    /// Runs Dijkstra and picks each node's canonical parent — the
    /// smallest `(hops + 1, parent id, dart id)` among its shortest-path
    /// neighbours — while it relaxes, so the resulting tree does not
    /// depend on heap internals. Because link weights are ≥ 1, every
    /// such neighbour settles, its hop label final, before the node
    /// does.
    ///
    /// This is the convenience entry point for one-shot callers: it
    /// pays one [`SpScratch`] worth of allocations per call. Hot loops
    /// should hold a scratch and use [`SpTree::towards_with`] (or
    /// [`SpTree::repair_from`] when a base tree is in hand).
    ///
    /// [`SpScratch`]: crate::SpScratch
    pub fn towards(graph: &Graph, dest: NodeId, failed: &LinkSet) -> SpTree {
        SpTree::towards_with(graph, dest, failed, &mut crate::SpScratch::new())
    }

    /// Convenience: tree over a fully-live graph.
    pub fn towards_all_live(graph: &Graph, dest: NodeId) -> SpTree {
        SpTree::towards(graph, dest, &LinkSet::empty(graph.link_count()))
    }

    /// Weighted cost from `node` to the destination, if reachable.
    #[inline]
    pub fn cost(&self, node: NodeId) -> Option<u64> {
        Some(self.dist[node.index()]).filter(|&d| d != NO_DIST).map(u64::from)
    }

    /// Hop count from `node` to the destination along the selected
    /// shortest path, if reachable.
    #[inline]
    pub fn hops(&self, node: NodeId) -> Option<u32> {
        Some(self.hops[node.index()]).filter(|&h| h != NO_HOPS).map(u32::from)
    }

    /// The dart `node → parent` towards the destination. `None` for the
    /// destination itself and for unreachable nodes.
    #[inline]
    pub fn next_dart(&self, node: NodeId) -> Option<Dart> {
        Some(self.next[node.index()]).filter(|&d| d != NO_DART)
    }

    /// `true` if `node` can reach the destination.
    #[inline]
    pub fn reaches(&self, node: NodeId) -> bool {
        self.dist[node.index()] != NO_DIST
    }

    /// `true` if the tree path `from → dest` traverses a link in
    /// `failed`. Walks the `next` chain without materialising it, so
    /// the affected-pair test in scenario sweeps allocates nothing.
    ///
    /// Returns `false` when `from` cannot reach the destination (there
    /// is no path to cross anything).
    pub fn path_crosses(&self, graph: &Graph, from: NodeId, failed: &LinkSet) -> bool {
        let mut at = from;
        while let Some(d) = self.next_dart(at) {
            if failed.contains_dart(d) {
                return true;
            }
            at = graph.dart_head(d);
        }
        false
    }
}

/// Shortest-path trees towards *every* destination over the live links.
///
/// This is the all-pairs view a link-state IGP would converge to, held
/// densely: 10 bytes per (destination, node), 2.5 MB on 500 nodes. A
/// process keeps **one** failure-free map, `pr_core::PrNetwork::base`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AllPairs {
    trees: Vec<SpTree>,
}

impl AllPairs {
    /// Computes one tree per destination (sharing one Dijkstra arena
    /// across the destinations).
    pub fn compute(graph: &Graph, failed: &LinkSet) -> AllPairs {
        let mut scratch = crate::SpScratch::new();
        AllPairs {
            trees: graph
                .nodes()
                .map(|d| SpTree::towards_with(graph, d, failed, &mut scratch))
                .collect(),
        }
    }

    /// Repairs every per-destination tree of `self` (computed over a
    /// subset of `failed` — typically the failure-free base map) into
    /// the all-pairs view under `failed`, via [`SpTree::repair_from`].
    /// Bit-identical to [`AllPairs::compute`] at a fraction of the
    /// work when failures perturb only small cones.
    pub fn repair_from(
        &self,
        graph: &Graph,
        failed: &LinkSet,
        scratch: &mut crate::SpScratch,
    ) -> AllPairs {
        AllPairs {
            trees: self
                .trees
                .iter()
                .map(|t| SpTree::repair_from(t, graph, t.dest, failed, scratch))
                .collect(),
        }
    }

    /// Convenience: all-pairs over a fully-live graph.
    pub fn compute_all_live(graph: &Graph) -> AllPairs {
        AllPairs::compute(graph, &LinkSet::empty(graph.link_count()))
    }

    /// The tree routing towards `dest`.
    #[inline]
    pub fn towards(&self, dest: NodeId) -> &SpTree {
        &self.trees[dest.index()]
    }

    /// Weighted cost of the shortest `src → dst` path, if connected.
    #[inline]
    pub fn cost(&self, src: NodeId, dst: NodeId) -> Option<u64> {
        self.trees[dst.index()].cost(src)
    }

    /// Iterates over the per-destination trees.
    pub fn iter(&self) -> impl Iterator<Item = &SpTree> {
        self.trees.iter()
    }

    /// Maximum hop count over all connected `(src, dst)` pairs — the
    /// network's hop diameter as seen along canonical shortest paths.
    ///
    /// This bounds the hop-count distance discriminator, so the paper's
    /// DD field needs `ceil(log2(diameter + 1))` bits (§6).
    pub fn hop_diameter(&self) -> u32 {
        let hops = self.trees.iter().flat_map(|t| t.hops.iter().copied());
        hops.filter(|&h| h != NO_HOPS).max().map_or(0, u32::from)
    }

    /// Maximum weighted cost over all connected `(src, dst)` pairs: the
    /// bound of the weighted-cost distance discriminator.
    pub fn cost_diameter(&self) -> u64 {
        let costs = self.trees.iter().flat_map(|t| t.dist.iter().copied());
        costs.filter(|&d| d != NO_DIST).max().map_or(0, u64::from)
    }

    /// `Ok` if this is the map of an `n`-node graph (`n` trees, the
    /// `d`-th towards `d`, `n` labels per column), or what it is instead.
    pub fn check_shape(&self, n: usize) -> Result<(), String> {
        if self.trees.len() != n {
            return Err(format!("{} trees", self.trees.len()));
        }
        for (d, t) in self.trees.iter().enumerate() {
            let widths = [t.dist.len(), t.hops.len(), t.next.len()];
            if t.dest.index() != d || widths != [n; 3] {
                let dest = t.dest;
                return Err(format!("{n} trees, tree {d} towards {dest} with {widths:?} labels"));
            }
        }
        Ok(())
    }

    /// `Ok` if every tree routes every other node of `graph` over a dart
    /// that leaves it, with labels that add up along it — what a router
    /// forwards by — or the first tree and node that does not. A node's
    /// hop label is its parent's plus one and its cost its parent's plus
    /// the weight of the link between them, and the destination's are
    /// `0`, so every route climbs to the destination. The map is of
    /// `graph`'s shape ([`AllPairs::check_shape`]).
    pub fn check_routes(&self, graph: &Graph) -> Result<(), String> {
        let darts = graph.dart_count();
        for (d, t) in self.trees.iter().enumerate() {
            let dest = t.dest;
            if (t.dist[dest.index()], t.hops[dest.index()]) != (0, 0) {
                return Err(format!("tree {d} towards {dest} does not label {dest} itself 0"));
            }
            let labels = t.next.iter().zip(&t.dist).zip(&t.hops);
            for (u, ((&next, &dist), &hops)) in labels.enumerate() {
                let node = NodeId(u as u32);
                if node == dest {
                    continue;
                }
                if next == NO_DART || dist == NO_DIST || hops == NO_HOPS {
                    return Err(format!("tree {d} towards {dest} has no route from {node}"));
                }
                if next.index() >= darts || graph.dart_tail(next) != node {
                    return Err(format!(
                        "tree {d} towards {dest} routes {node} over dart {next}, which does not leave it"
                    ));
                }
                let parent = graph.dart_head(next);
                let weight = u64::from(graph.weight(next.link()));
                let (dp, hp) = (u64::from(t.dist[parent.index()]), t.hops[parent.index()]);
                if u32::from(hops) != u32::from(hp) + 1 || u64::from(dist) != dp + weight {
                    return Err(format!(
                        "tree {d} towards {dest} labels {node} ({dist}, {hops} hops) off its \
                         parent {parent} ({dp}, {hp} hops) over a link of weight {weight}"
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphError;
    use std::iter::successors;

    /// The tree path `from, …, dest` as routers, read off `next_dart`.
    fn path_nodes(t: &SpTree, g: &Graph, from: NodeId) -> Vec<NodeId> {
        successors(Some(from), |&n| t.next_dart(n).map(|d| g.dart_head(d))).collect()
    }

    /// The tree path `from → … → dest` as darts.
    fn path_darts(t: &SpTree, g: &Graph, from: NodeId) -> Vec<Dart> {
        successors(t.next_dart(from), |&d| t.next_dart(g.dart_head(d))).collect()
    }

    /// The 6-node network of the paper's Figure 1(a):
    /// nodes A,B,C,D,E,F; links A-B, A-C, B-C, B-D, C-E, D-E, D-F, E-F.
    fn figure1_like() -> (Graph, Vec<NodeId>) {
        let mut g = Graph::new();
        let ids: Vec<NodeId> =
            ["A", "B", "C", "D", "E", "F"].iter().map(|n| g.add_node(*n).unwrap()).collect();
        let (a, b, c, d, e, f) = (ids[0], ids[1], ids[2], ids[3], ids[4], ids[5]);
        for (x, y) in [(a, b), (a, c), (b, c), (b, d), (c, e), (d, e), (d, f), (e, f)] {
            g.add_link(x, y, 1).unwrap();
        }
        (g, ids)
    }

    #[test]
    fn unit_weights_give_bfs_distances() {
        let (g, ids) = figure1_like();
        let f = ids[5];
        let t = SpTree::towards_all_live(&g, f);
        assert_eq!(t.cost(ids[0]), Some(3)); // A: A-B-D-F or A-C-E-F
        assert_eq!(t.cost(ids[1]), Some(2)); // B: B-D-F
        assert_eq!(t.cost(ids[3]), Some(1)); // D
        assert_eq!(t.cost(f), Some(0));
        assert_eq!(t.hops(ids[0]), Some(3));
        assert_eq!(t.next_dart(f), None);
    }

    #[test]
    fn canonical_tie_breaking_prefers_low_ids() {
        // A connects to D via B (id 1) or C (id 2), equal cost: the
        // canonical tree must pick B.
        let mut g = Graph::new();
        let a = g.add_node("A").unwrap();
        let b = g.add_node("B").unwrap();
        let c = g.add_node("C").unwrap();
        let d = g.add_node("D").unwrap();
        g.add_link(a, b, 1).unwrap();
        g.add_link(a, c, 1).unwrap();
        g.add_link(b, d, 1).unwrap();
        g.add_link(c, d, 1).unwrap();
        let t = SpTree::towards_all_live(&g, d);
        let path = path_nodes(&t, &g, a);
        assert_eq!(path, vec![a, b, d]);
    }

    #[test]
    fn weights_respected() {
        let mut g = Graph::new();
        let a = g.add_node("A").unwrap();
        let b = g.add_node("B").unwrap();
        let c = g.add_node("C").unwrap();
        g.add_link(a, b, 10).unwrap();
        g.add_link(a, c, 1).unwrap();
        g.add_link(c, b, 1).unwrap();
        let t = SpTree::towards_all_live(&g, b);
        assert_eq!(t.cost(a), Some(2));
        assert_eq!(path_nodes(&t, &g, a), vec![a, c, b]);
        assert_eq!(t.hops(a), Some(2));
    }

    #[test]
    fn failed_links_are_avoided() {
        let (g, ids) = figure1_like();
        let (d, e, f) = (ids[3], ids[4], ids[5]);
        let de = g.find_link(d, e).unwrap();
        let failed = LinkSet::from_links(g.link_count(), [de]);
        let t = SpTree::towards(&g, f, &failed);
        // E must now route via F directly (E-F still up).
        assert_eq!(t.cost(e), Some(1));
        // D still reaches F directly.
        assert_eq!(t.cost(d), Some(1));
        assert!(!path_darts(&t, &g, e).iter().any(|dd| dd.link() == de));
    }

    #[test]
    fn disconnection_yields_none() {
        let mut g = Graph::new();
        let a = g.add_node("A").unwrap();
        let b = g.add_node("B").unwrap();
        let c = g.add_node("C").unwrap();
        let ab = g.add_link(a, b, 1).unwrap();
        let _ = c;
        let failed = LinkSet::from_links(g.link_count(), [ab]);
        let t = SpTree::towards(&g, b, &failed);
        assert!(!t.reaches(a));
        assert!(!t.reaches(c));
        assert_eq!(t.next_dart(a), None);
        assert!(t.reaches(b));
    }

    /// Fails when a column widens or padding comes back: `u64` costs
    /// read 16 bytes per node here, an `Option` column 32.
    #[test]
    fn labels_cost_ten_bytes_per_node() {
        use std::mem::size_of_val;
        let (g, ids) = figure1_like();
        let t = SpTree::towards_all_live(&g, ids[5]);
        let bytes = size_of_val(&t.dist[..]) + size_of_val(&t.hops[..]) + size_of_val(&t.next[..]);
        assert_eq!(bytes, 10 * g.node_count());
    }

    #[test]
    fn hops_strictly_decrease_along_tree() {
        let (g, ids) = figure1_like();
        let t = SpTree::towards_all_live(&g, ids[5]);
        for u in g.nodes() {
            if let Some(d) = t.next_dart(u) {
                let v = g.dart_head(d);
                assert_eq!(t.hops(u).unwrap(), t.hops(v).unwrap() + 1);
                assert!(t.cost(u).unwrap() > t.cost(v).unwrap());
            }
        }
    }

    #[test]
    fn all_pairs_diameters() {
        let (g, _) = figure1_like();
        let ap = AllPairs::compute_all_live(&g);
        assert_eq!(ap.hop_diameter(), 3); // A is 3 hops from F
                                          // Symmetry of costs on an undirected graph.
        for s in g.nodes() {
            for d in g.nodes() {
                assert_eq!(ap.cost(s, d), ap.cost(d, s));
            }
        }
    }

    #[test]
    fn parallel_links_take_cheapest() {
        let mut g = Graph::new();
        let a = g.add_node("A").unwrap();
        let b = g.add_node("B").unwrap();
        let heavy = g.add_link(a, b, 10).unwrap();
        let light = g.add_link(a, b, 2).unwrap();
        let t = SpTree::towards_all_live(&g, b);
        assert_eq!(t.cost(a), Some(2));
        assert_eq!(t.next_dart(a).unwrap().link(), light);
        let failed = LinkSet::from_links(g.link_count(), [light]);
        let t2 = SpTree::towards(&g, b, &failed);
        assert_eq!(t2.cost(a), Some(10));
        assert_eq!(t2.next_dart(a).unwrap().link(), heavy);
    }

    #[test]
    fn path_crosses_matches_materialised_path() {
        let (g, ids) = figure1_like();
        let f = ids[5];
        let t = SpTree::towards_all_live(&g, f);
        for failed_link in g.links() {
            let failed = LinkSet::from_links(g.link_count(), [failed_link]);
            for src in g.nodes() {
                let expected = path_darts(&t, &g, src).iter().any(|d| failed.contains_dart(*d));
                assert_eq!(t.path_crosses(&g, src, &failed), expected, "{failed_link} {src}");
            }
        }
    }

    #[test]
    fn path_crosses_is_false_for_unreachable_sources() {
        let mut g = Graph::new();
        let a = g.add_node("A").unwrap();
        let b = g.add_node("B").unwrap();
        let ab = g.add_link(a, b, 1).unwrap();
        let failed = LinkSet::from_links(g.link_count(), [ab]);
        let t = SpTree::towards(&g, b, &failed);
        assert!(!t.path_crosses(&g, a, &failed), "no path, nothing to cross");
    }

    #[test]
    fn graph_error_display_is_stable() {
        let err = GraphError::ZeroWeight;
        assert!(err.to_string().contains(">= 1"));
    }
}
