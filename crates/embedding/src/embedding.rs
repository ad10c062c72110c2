//! The validated bundle: graph + rotation system + faces + genus.

use serde::{Deserialize, Serialize};

use pr_graph::{Dart, Graph, LinkId};

use crate::{genus, EmbeddingError, FaceId, FaceStructure, RotationSystem};

/// A cellular embedding of a connected graph on an orientable closed
/// surface, ready to be compiled into cycle following tables.
///
/// Construction validates the rotation system and connectivity, then
/// traces the faces once; all protocol-facing queries are O(1)
/// afterwards. The embedding does not borrow the graph — tables and
/// simulators carry the graph separately — but it remembers the
/// graph's dart count and checks it on use in debug builds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellularEmbedding {
    rotation: RotationSystem,
    faces: FaceStructure,
    genus: u32,
    dart_count: usize,
}

impl CellularEmbedding {
    /// Validates `rotation` against `graph` and traces its faces.
    ///
    /// # Errors
    ///
    /// * [`EmbeddingError::NotConnected`] — PR (and Euler's formula as
    ///   used here) require a connected topology;
    /// * [`EmbeddingError::Corrupt`] — `rotation` is not a valid
    ///   rotation system for `graph`.
    pub fn new(graph: &Graph, rotation: RotationSystem) -> Result<Self, EmbeddingError> {
        rotation.validate(graph)?;
        let faces = FaceStructure::trace(graph, &rotation);
        let genus = genus(graph, &faces).ok_or(EmbeddingError::NotConnected)?;
        Ok(CellularEmbedding { rotation, faces, genus, dart_count: graph.dart_count() })
    }

    /// The rotation system (cyclic interface order per router).
    pub fn rotation(&self) -> &RotationSystem {
        &self.rotation
    }

    /// The face structure (the paper's cellular cycle system).
    pub fn faces(&self) -> &FaceStructure {
        &self.faces
    }

    /// The orientable genus of the embedding surface (0 = sphere).
    pub fn genus(&self) -> u32 {
        self.genus
    }

    /// The links whose two darts lie on one face, ascending: a packet
    /// deflected onto the face of a failed link's twin dart comes back
    /// to the router it left before it reaches the far end. A bridge is
    /// always one; a genus-0 embedding of a 2-edge-connected graph has
    /// none. With none, Packet Re-cycling delivers every pair a single
    /// failure leaves connected (DESIGN.md §8, "The single-failure
    /// certificate"). Read off the face structure on each call.
    pub fn single_face_links(&self) -> Vec<LinkId> {
        let links = (0..self.dart_count / 2).map(|l| LinkId(l as u32));
        links
            .filter(|l| self.faces.face_of(l.forward()) == self.faces.face_of(l.reverse()))
            .collect()
    }

    /// One step of cycle following (§4.1/§4.2): a packet that arrived
    /// over `incoming` and is in cycle-following mode leaves over this
    /// dart, continuing the boundary of `incoming`'s face.
    #[inline]
    pub fn cycle_continuation(&self, incoming: Dart) -> Dart {
        debug_assert!(incoming.index() < self.dart_count);
        self.rotation.face_next(incoming)
    }

    /// The deflection applied when the outgoing dart `failed` cannot be
    /// used (§4.2): the first hop of `failed`'s complementary cycle —
    /// the face traversing the failed link in the opposite direction.
    ///
    /// Note `deflection(d) = cycle_continuation(twin(d))`: deflecting is
    /// exactly "pretend the packet arrived from the far side of the
    /// failed link and cycle-follow".
    #[inline]
    pub fn deflection(&self, failed: Dart) -> Dart {
        debug_assert!(failed.index() < self.dart_count);
        self.rotation.next_around(failed)
    }

    /// The *main cycle* of a directed link: the face whose boundary
    /// traverses `d` in its own direction.
    #[inline]
    pub fn main_cycle(&self, d: Dart) -> FaceId {
        self.faces.face_of(d)
    }

    /// The *complementary cycle* of a directed link: the face
    /// traversing it in the opposite direction (§3).
    #[inline]
    pub fn complementary_cycle(&self, d: Dart) -> FaceId {
        self.faces.complementary(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pr_graph::{generators, LinkId, NodeId};

    #[test]
    fn construction_validates_connectivity() {
        let mut g = pr_graph::Graph::new();
        let a = g.add_node("A").unwrap();
        let b = g.add_node("B").unwrap();
        g.add_node("isolated").unwrap();
        g.add_link(a, b, 1).unwrap();
        let rot = RotationSystem::identity(&g);
        assert!(matches!(CellularEmbedding::new(&g, rot), Err(EmbeddingError::NotConnected)));
    }

    #[test]
    fn ring_embedding_queries() {
        let g = generators::ring(4, 1);
        let emb = CellularEmbedding::new(&g, RotationSystem::identity(&g)).unwrap();
        assert_eq!(emb.genus(), 0);
        assert_eq!(emb.faces().face_count(), 2);
        for d in g.darts() {
            assert_ne!(emb.main_cycle(d), emb.complementary_cycle(d));
            // Deflection at a degree-2 node is the node's other dart.
            let defl = emb.deflection(d);
            assert_eq!(g.dart_tail(defl), g.dart_tail(d));
            assert_ne!(defl, d);
        }
    }

    #[test]
    fn deflection_is_cycle_continuation_of_twin() {
        let g = generators::petersen(1);
        let emb = CellularEmbedding::new(&g, RotationSystem::identity(&g)).unwrap();
        for d in g.darts() {
            assert_eq!(emb.deflection(d), emb.cycle_continuation(d.twin()));
        }
    }

    #[test]
    fn single_face_links_are_the_links_whose_darts_share_a_face() {
        // A ring on the sphere: two faces, every link between them.
        let ring = generators::ring(5, 1);
        let emb = CellularEmbedding::new(&ring, RotationSystem::identity(&ring)).unwrap();
        assert!(emb.single_face_links().is_empty());
        // A path is all bridges: one face, every link on it twice.
        let path = generators::path(4, 1);
        let emb = CellularEmbedding::new(&path, RotationSystem::identity(&path)).unwrap();
        assert_eq!(emb.single_face_links(), path.links().collect::<Vec<_>>());
        // K4 under the identity rotation has genus 1; 0–2 is one of its
        // single-face links.
        let k4 = generators::complete(4, 1);
        let emb = CellularEmbedding::new(&k4, RotationSystem::identity(&k4)).unwrap();
        let faces = emb.faces();
        let single: Vec<LinkId> = k4
            .links()
            .filter(|l| faces.face_of(l.forward()) == faces.face_of(l.reverse()))
            .collect();
        assert_eq!(emb.single_face_links(), single);
        let l02 = k4.find_link(NodeId(0), NodeId(2)).unwrap();
        assert!(single.contains(&l02), "{single:?}");
    }

    #[test]
    fn serde_roundtrip() {
        let g = generators::ring(5, 1);
        let emb = CellularEmbedding::new(&g, RotationSystem::identity(&g)).unwrap();
        let json = serde_json::to_string(&emb).unwrap();
        let back: CellularEmbedding = serde_json::from_str(&json).unwrap();
        assert_eq!(emb, back);
    }
}
