//! Breadth-first search utilities (hop-count metrics).
//!
//! Weighted routing uses [`SpTree`](crate::SpTree); BFS is kept separate
//! for hop-count diameters and connectivity scans where weights are
//! irrelevant.

use std::collections::VecDeque;

use crate::{Graph, LinkSet, NodeId};

/// Hop distances from `src` over the live links. Unreachable nodes get
/// `None`.
pub fn hop_distances(graph: &Graph, src: NodeId, failed: &LinkSet) -> Vec<Option<u32>> {
    let mut dist = vec![None; graph.node_count()];
    dist[src.index()] = Some(0);
    let mut queue = VecDeque::from([src]);
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()].unwrap();
        for &dart in graph.darts_from(u) {
            if failed.contains_dart(dart) {
                continue;
            }
            let v = graph.dart_head(dart);
            if dist[v.index()].is_none() {
                dist[v.index()] = Some(du + 1);
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Maximum hop distance between any connected pair — the network's hop
/// diameter. Returns 0 for graphs with fewer than two nodes.
pub fn hop_diameter(graph: &Graph) -> u32 {
    let none = LinkSet::empty(graph.link_count());
    graph
        .nodes()
        .flat_map(|s| hop_distances(graph, s, &none).into_iter().flatten())
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn ring_distances() {
        let g = generators::ring(6, 1);
        let none = LinkSet::empty(g.link_count());
        let d = hop_distances(&g, NodeId(0), &none);
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3), Some(2), Some(1)]);
        assert_eq!(hop_diameter(&g), 3);
    }

    #[test]
    fn failure_disconnects_ring_into_path() {
        let g = generators::ring(4, 1);
        // Failing two opposite links splits the ring.
        let l0 = g.find_link(NodeId(0), NodeId(1)).unwrap();
        let l2 = g.find_link(NodeId(2), NodeId(3)).unwrap();
        let failed = LinkSet::from_links(g.link_count(), [l0, l2]);
        let d = hop_distances(&g, NodeId(0), &failed);
        assert_eq!(d[1], None);
        assert_eq!(d[2], None);
        assert_eq!(d[3], Some(1));
    }

    #[test]
    fn complete_graph_diameter_is_one() {
        let g = generators::complete(5, 1);
        assert_eq!(hop_diameter(&g), 1);
    }
}
