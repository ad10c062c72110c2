//! Rotation systems: the combinatorial form of a graph embedding.
//!
//! A **rotation system** assigns to every node a cyclic order of the
//! darts leaving it. By the classic correspondence (see Mohar &
//! Thomassen, *Graphs on Surfaces*, the paper's reference [14]), a
//! rotation system on a connected graph is exactly an embedding of that
//! graph into some closed orientable surface: tracing
//! `φ(d) = ρ(twin(d))` — "arrive over `d`, leave over the next dart
//! counter-clockwise" — partitions the darts into the oriented face
//! boundaries of that surface, and Euler's formula recovers its genus.
//!
//! Everything Packet Re-cycling needs from the embedding is this
//! structure: the paper's cycle system *is* the face set, and both
//! columns of its cycle following table are compositions of [`twin`]
//! and the rotation (see `pr-core`).
//!
//! [`twin`]: pr_graph::Dart::twin

use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

use pr_graph::{Dart, Graph, NodeId};

use crate::EmbeddingError;

/// A rotation system: for every dart `d`, the next dart leaving
/// `tail(d)` in that node's cyclic order.
///
/// Stored as a flat permutation over darts (`next[d]` has the same tail
/// as `d`), which makes the two forwarding-relevant operations O(1):
///
/// * [`RotationSystem::next_around`] — deflection onto a failed dart's
///   complementary cycle;
/// * [`RotationSystem::face_next`] — one step of cycle following.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RotationSystem {
    next: Vec<Dart>,
    prev: Vec<Dart>,
}

impl RotationSystem {
    /// Builds the rotation system that orders darts around each node in
    /// link-insertion order. Valid on any graph; genus is arbitrary.
    pub fn identity(graph: &Graph) -> RotationSystem {
        let orders: Vec<Vec<Dart>> = graph.nodes().map(|n| graph.darts_from(n).to_vec()).collect();
        RotationSystem::from_orders(graph, &orders).expect("insertion orders are always valid")
    }

    /// Builds a rotation system from an explicit dart order per node.
    ///
    /// `orders[n]` must contain exactly the darts leaving node `n`, each
    /// once, in the desired cyclic order.
    pub fn from_orders(
        graph: &Graph,
        orders: &[Vec<Dart>],
    ) -> Result<RotationSystem, EmbeddingError> {
        if orders.len() != graph.node_count() {
            return Err(EmbeddingError::InvalidOrder {
                node: NodeId(orders.len() as u32),
                detail: format!(
                    "expected {} per-node orders, got {}",
                    graph.node_count(),
                    orders.len()
                ),
            });
        }
        let mut next = vec![Dart(u32::MAX); graph.dart_count()];
        let mut prev = vec![Dart(u32::MAX); graph.dart_count()];
        for node in graph.nodes() {
            let order = &orders[node.index()];
            let expected = graph.darts_from(node);
            if order.len() != expected.len() {
                return Err(EmbeddingError::InvalidOrder {
                    node,
                    detail: format!("expected {} darts, got {}", expected.len(), order.len()),
                });
            }
            for &d in order {
                if d.index() >= graph.dart_count() || graph.dart_tail(d) != node {
                    return Err(EmbeddingError::InvalidOrder {
                        node,
                        detail: format!("dart {d} does not leave this node"),
                    });
                }
            }
            for (i, &d) in order.iter().enumerate() {
                let succ = order[(i + 1) % order.len()];
                if next[d.index()] != Dart(u32::MAX) {
                    return Err(EmbeddingError::InvalidOrder {
                        node,
                        detail: format!("dart {d} listed twice"),
                    });
                }
                next[d.index()] = succ;
                prev[succ.index()] = d;
            }
        }
        Ok(RotationSystem { next, prev })
    }

    /// Builds a rotation system from neighbour-name orders, for simple
    /// graphs (no parallel links at the ordered node).
    ///
    /// This is the natural way to transcribe an embedding from a figure:
    /// "around D the neighbours appear as E, B, F".
    pub fn from_neighbor_orders(
        graph: &Graph,
        orders: &[Vec<NodeId>],
    ) -> Result<RotationSystem, EmbeddingError> {
        let mut dart_orders = Vec::with_capacity(orders.len());
        for (i, nbrs) in orders.iter().enumerate() {
            let node = NodeId(i as u32);
            let mut darts = Vec::with_capacity(nbrs.len());
            for &nbr in nbrs {
                let matching: Vec<Dart> = graph
                    .darts_from(node)
                    .iter()
                    .copied()
                    .filter(|&d| graph.dart_head(d) == nbr)
                    .collect();
                match matching.as_slice() {
                    [] => return Err(EmbeddingError::NotAdjacent { node, neighbor: nbr }),
                    [d] => darts.push(*d),
                    _ => return Err(EmbeddingError::AmbiguousNeighbor { node, neighbor: nbr }),
                }
            }
            dart_orders.push(darts);
        }
        RotationSystem::from_orders(graph, &dart_orders)
    }

    /// Builds the **geometric** rotation system: darts around each node
    /// sorted by compass bearing towards the neighbour's coordinates.
    ///
    /// For networks drawn on a map without link crossings (most ISP
    /// backbones), this recovers a planar — genus 0 — embedding, which
    /// is the best case for PR's stretch. Requires coordinates on every
    /// node; parallel links are ordered by link id among themselves.
    pub fn geometric(graph: &Graph) -> Result<RotationSystem, EmbeddingError> {
        for node in graph.nodes() {
            if graph.coordinates(node).is_none() {
                return Err(EmbeddingError::MissingCoordinates { node });
            }
        }
        let mut orders = Vec::with_capacity(graph.node_count());
        for node in graph.nodes() {
            let here = graph.coordinates(node).unwrap();
            let mut darts = graph.darts_from(node).to_vec();
            darts.sort_by(|&a, &b| {
                let pa = graph.coordinates(graph.dart_head(a)).unwrap();
                let pb = graph.coordinates(graph.dart_head(b)).unwrap();
                let ta = (pa.lat - here.lat).atan2(pa.lon - here.lon);
                let tb = (pb.lat - here.lat).atan2(pb.lon - here.lon);
                ta.partial_cmp(&tb).unwrap().then(a.cmp(&b))
            });
            orders.push(darts);
        }
        RotationSystem::from_orders(graph, &orders)
    }

    /// Builds a uniformly random rotation system (used as annealing
    /// restarts and in property tests).
    pub fn random(graph: &Graph, rng: &mut impl Rng) -> RotationSystem {
        let mut orders: Vec<Vec<Dart>> =
            graph.nodes().map(|n| graph.darts_from(n).to_vec()).collect();
        for order in &mut orders {
            order.shuffle(rng);
        }
        RotationSystem::from_orders(graph, &orders).expect("shuffled orders are valid")
    }

    /// The next dart counter-clockwise around `tail(d)` after `d`.
    ///
    /// Protocol meaning (§4.2): when the outgoing dart `d` has failed,
    /// `next_around(d)` is the first hop of the *complementary cycle* of
    /// `d` — the face that traverses the failed link in the opposite
    /// direction — i.e. the deflection the failure-detecting router
    /// applies.
    #[inline]
    pub fn next_around(&self, d: Dart) -> Dart {
        self.next[d.index()]
    }

    /// One step of face tracing: the dart after `d` on the boundary of
    /// the face `d` lies on (`φ(d) = ρ(twin(d))`).
    ///
    /// Protocol meaning (§4.1): a packet that *arrived* over `d` and is
    /// in cycle-following mode leaves over `face_next(d)`. This is the
    /// second column of the paper's cycle following table.
    #[inline]
    pub fn face_next(&self, d: Dart) -> Dart {
        self.next[d.twin().index()]
    }

    /// Number of darts covered by this rotation system.
    pub fn dart_count(&self) -> usize {
        self.next.len()
    }

    /// A stable fingerprint of the per-node dart orders: FNV-1a over
    /// the successor of every dart, in dart order — the companion of
    /// [`Graph::fingerprint`]. Two rotation systems of one graph share
    /// it exactly when they are the same embedding, so a sweep
    /// checkpoint can tell which embedding its shards were walked on.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for successor in &self.next {
            for b in successor.0.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// Checks internal consistency against the graph: `next` restricted
    /// to each node's darts is a single cycle covering all of them.
    /// Safe on tables that came through serde: every entry is range
    /// checked before it is followed, and no cycle is followed further
    /// than the node's degree.
    pub fn validate(&self, graph: &Graph) -> Result<(), EmbeddingError> {
        let darts = graph.dart_count();
        if self.next.len() != darts || self.prev.len() != darts {
            return Err(EmbeddingError::Corrupt {
                dart: Dart(self.next.len() as u32),
                detail: "dart count mismatch".into(),
            });
        }
        let corrupt = |dart, detail| Err(EmbeddingError::Corrupt { dart, detail });
        for node in graph.nodes() {
            let Some(&start) = graph.darts_from(node).iter().min() else { continue };
            let (mut d, mut covered) = (start, 0);
            loop {
                let next = self.next[d.index()];
                if next.index() >= darts || graph.dart_tail(next) != node {
                    return corrupt(next, format!("dart in {node}'s rotation does not leave it"));
                }
                if self.prev[next.index()] != d {
                    return corrupt(d, "next/prev tables disagree".into());
                }
                (d, covered) = (next, covered + 1);
                if d == start || covered > graph.degree(node) {
                    break;
                }
            }
            if covered != graph.degree(node) {
                let degree = graph.degree(node);
                return corrupt(
                    start,
                    format!("rotation at {node} covers {covered} of {degree} darts"),
                );
            }
        }
        Ok(())
    }

    /// Returns a copy with one dart moved to a new position within its
    /// node's cyclic order — the local move used by the annealing and
    /// hill-climbing heuristics.
    ///
    /// `offset` is interpreted modulo the node degree: the dart is
    /// removed and re-inserted `offset` positions later (0 = unchanged).
    pub fn with_dart_moved(&self, graph: &Graph, dart: Dart, offset: usize) -> RotationSystem {
        let mut clone = self.clone();
        let (mut saved, mut scratch) = (Vec::new(), Vec::new());
        clone.move_dart_in_place(graph, dart, offset, &mut saved, &mut scratch);
        clone
    }

    /// Applies the [`with_dart_moved`](RotationSystem::with_dart_moved)
    /// move **in place**, recording the node's previous dart order into
    /// `saved` so [`restore_order`](RotationSystem::restore_order) can
    /// undo it in O(degree). Returns `false` (and saves nothing) when
    /// the move is a no-op (degree ≤ 2, or `offset ≡ 0 mod degree`).
    ///
    /// This is the allocation-free core of the embedding search: a
    /// candidate move is applied, scored incrementally (see
    /// [`FaceScratch`](crate::FaceScratch)), and either kept or undone
    /// — no clone of the full permutation either way.
    pub fn move_dart_in_place(
        &mut self,
        graph: &Graph,
        dart: Dart,
        offset: usize,
        saved: &mut Vec<Dart>,
        scratch: &mut Vec<Dart>,
    ) -> bool {
        let node = graph.dart_tail(dart);
        let deg = graph.degree(node);
        if deg <= 2 || offset.is_multiple_of(deg) {
            return false;
        }
        saved.clear();
        let start = *graph.darts_from(node).iter().min().expect("node has darts");
        let mut d = start;
        loop {
            saved.push(d);
            d = self.next[d.index()];
            if d == start {
                break;
            }
        }
        let pos = saved.iter().position(|&d| d == dart).expect("dart in its node's order");
        scratch.clear();
        scratch.extend_from_slice(saved);
        scratch.remove(pos);
        let new_pos = (pos + offset) % (deg - 1);
        scratch.insert(new_pos, dart);
        self.relink_cycle(scratch);
        true
    }

    /// Re-links one node's cyclic order to exactly `order` (every dart
    /// of that node, once, in the desired cycle). The undo half of
    /// [`move_dart_in_place`](RotationSystem::move_dart_in_place):
    /// pass back the `saved` buffer it filled.
    pub fn restore_order(&mut self, order: &[Dart]) {
        self.relink_cycle(order);
    }

    fn relink_cycle(&mut self, order: &[Dart]) {
        for (i, &d) in order.iter().enumerate() {
            let succ = order[(i + 1) % order.len()];
            self.next[d.index()] = succ;
            self.prev[succ.index()] = d;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pr_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identity_is_valid_everywhere() {
        for g in [
            generators::ring(5, 1),
            generators::complete(5, 1),
            generators::petersen(1),
            generators::isp_mesh(&generators::MeshParams::new(9, 1)),
        ] {
            let rot = RotationSystem::identity(&g);
            rot.validate(&g).unwrap();
        }
    }

    #[test]
    fn fingerprint_tells_embeddings_of_one_graph_apart() {
        let g = generators::complete(5, 1);
        let rot = RotationSystem::identity(&g);
        assert_eq!(rot.fingerprint(), rot.clone().fingerprint());
        let dart = g.darts().next().unwrap();
        assert_ne!(rot.fingerprint(), rot.with_dart_moved(&g, dart, 1).fingerprint());
    }

    #[test]
    fn next_and_prev_are_inverse() {
        let g = generators::complete(6, 1);
        let rot = RotationSystem::identity(&g);
        for d in g.darts() {
            assert_eq!(rot.prev[rot.next_around(d).index()], d);
            assert_eq!(rot.next_around(rot.prev[d.index()]), d);
        }
    }

    #[test]
    fn rotation_stays_within_node() {
        let g = generators::petersen(1);
        let rot = RotationSystem::identity(&g);
        for d in g.darts() {
            assert_eq!(g.dart_tail(rot.next_around(d)), g.dart_tail(d));
        }
    }

    #[test]
    fn from_neighbor_orders_matches_figure_style_input() {
        let mut g = pr_graph::Graph::new();
        let a = g.add_node("A").unwrap();
        let b = g.add_node("B").unwrap();
        let c = g.add_node("C").unwrap();
        let ab = g.add_link(a, b, 1).unwrap().forward();
        g.add_link(b, c, 1).unwrap();
        let ac = g.add_link(c, a, 1).unwrap().reverse();
        let rot = RotationSystem::from_neighbor_orders(&g, &[vec![b, c], vec![c, a], vec![a, b]])
            .unwrap();
        rot.validate(&g).unwrap();
        assert_eq!(rot.next_around(ab), ac);
        assert_eq!(rot.next_around(ac), ab);
    }

    #[test]
    fn neighbor_orders_reject_non_adjacent() {
        let mut g = pr_graph::Graph::new();
        let a = g.add_node("A").unwrap();
        let b = g.add_node("B").unwrap();
        let c = g.add_node("C").unwrap();
        g.add_link(a, b, 1).unwrap();
        g.add_link(b, c, 1).unwrap();
        let err =
            RotationSystem::from_neighbor_orders(&g, &[vec![c], vec![a, c], vec![b]]).unwrap_err();
        assert!(matches!(err, EmbeddingError::NotAdjacent { .. }));
    }

    #[test]
    fn neighbor_orders_reject_parallel_links() {
        let mut g = pr_graph::Graph::new();
        let a = g.add_node("A").unwrap();
        let b = g.add_node("B").unwrap();
        g.add_link(a, b, 1).unwrap();
        g.add_link(a, b, 1).unwrap();
        let err = RotationSystem::from_neighbor_orders(&g, &[vec![b, b], vec![a, a]]).unwrap_err();
        assert!(matches!(err, EmbeddingError::AmbiguousNeighbor { .. }));
    }

    #[test]
    fn from_orders_rejects_wrong_darts() {
        let g = generators::ring(4, 1);
        let mut orders: Vec<Vec<Dart>> = g.nodes().map(|n| g.darts_from(n).to_vec()).collect();
        orders[0][0] = orders[1][0]; // a dart that does not leave node 0
        assert!(matches!(
            RotationSystem::from_orders(&g, &orders),
            Err(EmbeddingError::InvalidOrder { .. })
        ));
    }

    #[test]
    fn from_orders_rejects_duplicates() {
        let g = generators::complete(3, 1);
        let mut orders: Vec<Vec<Dart>> = g.nodes().map(|n| g.darts_from(n).to_vec()).collect();
        orders[0][1] = orders[0][0];
        assert!(matches!(
            RotationSystem::from_orders(&g, &orders),
            Err(EmbeddingError::InvalidOrder { .. })
        ));
    }

    #[test]
    fn geometric_requires_coordinates() {
        let g = generators::ring(4, 1);
        assert!(matches!(
            RotationSystem::geometric(&g),
            Err(EmbeddingError::MissingCoordinates { .. })
        ));
        let mut g = g;
        for node in g.nodes() {
            let lon = node.index() as f64;
            g.set_coordinates(node, pr_graph::Coordinates { lon, lat: lon * lon });
        }
        RotationSystem::geometric(&g).unwrap().validate(&g).unwrap();
    }

    #[test]
    fn random_is_valid_and_seed_deterministic() {
        let g = generators::complete(6, 1);
        let r1 = RotationSystem::random(&g, &mut StdRng::seed_from_u64(3));
        let r2 = RotationSystem::random(&g, &mut StdRng::seed_from_u64(3));
        r1.validate(&g).unwrap();
        assert_eq!(r1, r2);
    }

    #[test]
    fn with_dart_moved_is_valid_and_local() {
        let g = generators::complete(5, 1);
        let rot = RotationSystem::identity(&g);
        let d = g.darts_from(NodeId(0))[1];
        let moved = rot.with_dart_moved(&g, d, 2);
        moved.validate(&g).unwrap();
        // Other nodes' orders are untouched.
        for &d in g.nodes().skip(1).flat_map(|n| g.darts_from(n)) {
            assert_eq!(rot.next_around(d), moved.next_around(d));
        }
        // Degree-2 nodes admit only one cyclic order: the move is a no-op.
        let ring = generators::ring(4, 1);
        let rrot = RotationSystem::identity(&ring);
        let rd = ring.darts_from(NodeId(0))[0];
        assert_eq!(rrot, rrot.with_dart_moved(&ring, rd, 1));
    }

    #[test]
    fn in_place_move_matches_clone_and_restores() {
        let g = generators::complete(5, 1);
        let rot = RotationSystem::identity(&g);
        let (mut saved, mut scratch) = (Vec::new(), Vec::new());
        for d in g.darts() {
            for offset in 1..g.degree(g.dart_tail(d)) {
                let cloned = rot.with_dart_moved(&g, d, offset);
                let mut in_place = rot.clone();
                let moved = in_place.move_dart_in_place(&g, d, offset, &mut saved, &mut scratch);
                assert!(moved);
                assert_eq!(in_place, cloned);
                in_place.restore_order(&saved);
                assert_eq!(in_place, rot, "restore must be an exact undo");
            }
        }
        // No-op moves report false and leave the rotation untouched.
        let ring = generators::ring(4, 1);
        let mut rrot = RotationSystem::identity(&ring);
        let before = rrot.clone();
        let rd = ring.darts_from(NodeId(0))[0];
        assert!(!rrot.move_dart_in_place(&ring, rd, 1, &mut saved, &mut scratch));
        assert_eq!(rrot, before);
    }

    #[test]
    fn face_next_lands_on_the_next_tail() {
        let g = generators::isp_mesh(&generators::MeshParams::new(9, 1));
        let rot = RotationSystem::identity(&g);
        for d in g.darts() {
            // The face continues from the node d points to.
            assert_eq!(g.dart_tail(rot.face_next(d)), g.dart_head(d));
        }
    }
}
