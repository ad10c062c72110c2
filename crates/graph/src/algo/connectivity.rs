//! Connectivity analysis: components, bridges, articulation points.
//!
//! The paper's guarantees are conditioned on connectivity: PR with the
//! basic single-bit header covers any single link failure *in
//! 2-edge-connected networks* (§4.2), and PR with the distance
//! discriminator covers every failure combination *that leaves the
//! network connected* (§4.3). The experiment harness therefore needs to
//! (a) sample non-disconnecting failure sets and (b) classify topologies,
//! which is what this module provides.
//!
//! Bridge/articulation detection is an iterative Tarjan DFS — iterative
//! because property tests run it on graphs large enough to overflow a
//! thread stack with naive recursion, and multigraph-aware because
//! parallel links mean neither parallel copy is a bridge.

use crate::{Dart, Graph, LinkId, LinkSet, NodeId};

/// Connected-component labelling of the live graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Components {
    /// Component id per node (dense, `0..count`). Isolated nodes get
    /// their own component.
    pub label: Vec<usize>,
    /// Number of components.
    pub count: usize,
}

/// Labels connected components over the live links.
pub fn components(graph: &Graph, failed: &LinkSet) -> Components {
    let n = graph.node_count();
    let mut label = vec![usize::MAX; n];
    let mut count = 0;
    let mut stack = Vec::new();
    for root in graph.nodes() {
        if label[root.index()] != usize::MAX {
            continue;
        }
        label[root.index()] = count;
        stack.push(root);
        while let Some(u) = stack.pop() {
            for &dart in graph.darts_from(u) {
                if failed.contains_dart(dart) {
                    continue;
                }
                let v = graph.dart_head(dart);
                if label[v.index()] == usize::MAX {
                    label[v.index()] = count;
                    stack.push(v);
                }
            }
        }
        count += 1;
    }
    Components { label, count }
}

/// `true` if the live graph is connected (single component, or empty).
pub fn is_connected(graph: &Graph, failed: &LinkSet) -> bool {
    graph.node_count() <= 1 || components(graph, failed).count == 1
}

/// `true` if removing `extra` on top of `failed` keeps the graph
/// connected. This is the harness's "non-disconnecting failure set"
/// predicate.
pub fn connected_after(graph: &Graph, failed: &LinkSet, extra: LinkId) -> bool {
    let mut f = failed.clone();
    f.insert(extra);
    is_connected(graph, &f)
}

/// DFS bookkeeping for the iterative Tarjan bridge/articulation scan.
struct DfsFrame {
    node: NodeId,
    /// Dart we arrived through (`None` at roots). Using the dart rather
    /// than the parent node keeps parallel links distinct.
    via: Option<Dart>,
    /// Next index into `darts_from(node)` to explore.
    next_child: usize,
}

/// Result of the bridge / articulation-point scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CutAnalysis {
    /// Links whose removal disconnects their component.
    pub bridges: Vec<LinkId>,
    /// Nodes whose removal disconnects their component.
    pub articulation_points: Vec<NodeId>,
}

/// Finds all bridges and articulation points of the live graph in one
/// DFS (Tarjan low-link, iterative).
pub fn cut_analysis(graph: &Graph, failed: &LinkSet) -> CutAnalysis {
    let n = graph.node_count();
    let mut disc = vec![u32::MAX; n];
    let mut low = vec![u32::MAX; n];
    let mut timer = 0u32;
    let mut bridges = Vec::new();
    let mut is_ap = vec![false; n];

    for root in graph.nodes() {
        if disc[root.index()] != u32::MAX {
            continue;
        }
        let mut root_children = 0usize;
        disc[root.index()] = timer;
        low[root.index()] = timer;
        timer += 1;
        let mut stack = vec![DfsFrame { node: root, via: None, next_child: 0 }];
        while let Some(frame) = stack.last_mut() {
            let u = frame.node;
            let darts = graph.darts_from(u);
            if frame.next_child < darts.len() {
                let dart = darts[frame.next_child];
                frame.next_child += 1;
                if failed.contains_dart(dart) {
                    continue;
                }
                // Skip only the exact dart we entered through, so a
                // parallel link back to the parent still counts as a
                // back-edge (and correctly prevents bridge-ness).
                if frame.via == Some(dart.twin()) {
                    continue;
                }
                let v = graph.dart_head(dart);
                if disc[v.index()] == u32::MAX {
                    disc[v.index()] = timer;
                    low[v.index()] = timer;
                    timer += 1;
                    if u == root {
                        root_children += 1;
                    }
                    stack.push(DfsFrame { node: v, via: Some(dart), next_child: 0 });
                } else {
                    low[u.index()] = low[u.index()].min(disc[v.index()]);
                }
            } else {
                // Post-order: propagate low-link to the parent.
                let finished = stack.pop().unwrap();
                if let Some(via) = finished.via {
                    let p = graph.dart_tail(via);
                    let u = finished.node;
                    low[p.index()] = low[p.index()].min(low[u.index()]);
                    if low[u.index()] > disc[p.index()] {
                        bridges.push(via.link());
                    }
                    if p != root && low[u.index()] >= disc[p.index()] {
                        is_ap[p.index()] = true;
                    }
                }
            }
        }
        if root_children > 1 {
            is_ap[root.index()] = true;
        }
    }

    bridges.sort_unstable();
    let articulation_points = (0..n).filter(|&i| is_ap[i]).map(|i| NodeId(i as u32)).collect();
    CutAnalysis { bridges, articulation_points }
}

/// `true` if the live graph is connected and has no bridge
/// (2-edge-connected) — the precondition for PR's single-failure
/// guarantee (§4.2).
pub fn is_two_edge_connected(graph: &Graph, failed: &LinkSet) -> bool {
    graph.node_count() >= 2
        && is_connected(graph, failed)
        && cut_analysis(graph, failed).bridges.is_empty()
}

/// `true` if the live graph is connected and has no articulation point
/// (2-vertex-connected / biconnected). Requires at least 3 nodes.
pub fn is_biconnected(graph: &Graph, failed: &LinkSet) -> bool {
    graph.node_count() >= 3
        && is_connected(graph, failed)
        && cut_analysis(graph, failed).articulation_points.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn no_failures(g: &Graph) -> LinkSet {
        LinkSet::empty(g.link_count())
    }

    #[test]
    fn ring_is_two_edge_connected() {
        let g = generators::ring(5, 1);
        assert!(is_connected(&g, &no_failures(&g)));
        assert!(is_two_edge_connected(&g, &no_failures(&g)));
        assert!(is_biconnected(&g, &no_failures(&g)));
        let cuts = cut_analysis(&g, &no_failures(&g));
        assert!(cuts.bridges.is_empty());
        assert!(cuts.articulation_points.is_empty());
    }

    #[test]
    fn path_is_all_bridges() {
        let g = generators::path(4, 1);
        let cuts = cut_analysis(&g, &no_failures(&g));
        assert_eq!(cuts.bridges.len(), 3);
        assert_eq!(cuts.articulation_points, vec![NodeId(1), NodeId(2)]);
        assert!(!is_two_edge_connected(&g, &no_failures(&g)));
    }

    #[test]
    fn barbell_bridge() {
        // Two triangles joined by one link: that link is the only bridge,
        // and its endpoints are the articulation points.
        let mut g = generators::complete(3, 1);
        let offset = g.node_count() as u32;
        for i in 0..3 {
            g.add_node(format!("R{i}")).unwrap();
        }
        for (x, y) in [(0, 1), (1, 2), (2, 0)] {
            g.add_link(NodeId(offset + x), NodeId(offset + y), 1).unwrap();
        }
        let bridge = g.add_link(NodeId(0), NodeId(offset), 1).unwrap();
        let cuts = cut_analysis(&g, &no_failures(&g));
        assert_eq!(cuts.bridges, vec![bridge]);
        assert_eq!(cuts.articulation_points, vec![NodeId(0), NodeId(offset)]);
    }

    #[test]
    fn parallel_links_are_not_bridges() {
        let mut g = Graph::new();
        let a = g.add_node("A").unwrap();
        let b = g.add_node("B").unwrap();
        g.add_link(a, b, 1).unwrap();
        g.add_link(a, b, 1).unwrap();
        let cuts = cut_analysis(&g, &no_failures(&g));
        assert!(cuts.bridges.is_empty());
        assert!(is_two_edge_connected(&g, &no_failures(&g)));
    }

    #[test]
    fn single_link_is_a_bridge() {
        let mut g = Graph::new();
        let a = g.add_node("A").unwrap();
        let b = g.add_node("B").unwrap();
        let l = g.add_link(a, b, 1).unwrap();
        let cuts = cut_analysis(&g, &no_failures(&g));
        assert_eq!(cuts.bridges, vec![l]);
    }

    #[test]
    fn failures_respected_in_components() {
        let g = generators::ring(6, 1);
        let l0 = g.find_link(NodeId(0), NodeId(1)).unwrap();
        let failed = LinkSet::from_links(g.link_count(), [l0]);
        // Ring minus one link is a path: connected but not 2-edge-connected.
        assert!(is_connected(&g, &failed));
        assert!(!is_two_edge_connected(&g, &failed));
        let l3 = g.find_link(NodeId(3), NodeId(4)).unwrap();
        let failed2 = LinkSet::from_links(g.link_count(), [l0, l3]);
        let comps = components(&g, &failed2);
        assert_eq!(comps.count, 2);
        assert_eq!(comps.label[1], comps.label[3]);
        assert_ne!(comps.label[0], comps.label[1]);
    }

    #[test]
    fn connected_after_probe() {
        let g = generators::ring(4, 1);
        let none = no_failures(&g);
        let l0 = g.find_link(NodeId(0), NodeId(1)).unwrap();
        assert!(connected_after(&g, &none, l0));
        let failed =
            LinkSet::from_links(g.link_count(), [g.find_link(NodeId(2), NodeId(3)).unwrap()]);
        assert!(!connected_after(&g, &failed, l0));
    }

    #[test]
    fn empty_and_singleton_graphs() {
        let g = Graph::new();
        assert!(is_connected(&g, &LinkSet::empty(0)));
        let mut g1 = Graph::new();
        g1.add_node("only").unwrap();
        assert!(is_connected(&g1, &LinkSet::empty(0)));
        assert!(!is_two_edge_connected(&g1, &LinkSet::empty(0)));
        assert!(!is_biconnected(&g1, &LinkSet::empty(0)));
    }

    #[test]
    fn disconnected_graph_components() {
        let mut g = Graph::new();
        for i in 0..4 {
            g.add_node(format!("{i}")).unwrap();
        }
        g.add_link(NodeId(0), NodeId(1), 1).unwrap();
        g.add_link(NodeId(2), NodeId(3), 1).unwrap();
        let comps = components(&g, &no_failures(&g));
        assert_eq!(comps.count, 2);
        assert!(!is_connected(&g, &no_failures(&g)));
    }
}
