//! Face tracing: from a rotation system to the cellular cycle system.
//!
//! The orbits of the face permutation `φ(d) = ρ(twin(d))` partition the
//! darts into oriented closed walks — the boundaries of the faces of
//! the embedded surface. These walks are exactly the paper's
//! **cellular cycle system** (§3): every undirected link is traversed
//! by exactly two of them, once in each direction (possibly the same
//! walk twice, which the paper notes can happen, e.g. on bridges).

use serde::{Deserialize, Serialize};

use pr_graph::{Dart, Graph};

use crate::RotationSystem;

/// Identifier of a face (an oriented cycle of the cellular system).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct FaceId(pub u32);

impl FaceId {
    /// The id as a `usize`, for indexing.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for FaceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// The face structure induced by a rotation system: every dart assigned
/// to exactly one oriented face cycle.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaceStructure {
    /// `face_of[d]` — the face whose boundary contains dart `d`.
    face_of: Vec<FaceId>,
    /// `faces[f]` — the darts of face `f` in boundary order, starting
    /// from its lowest-id dart.
    faces: Vec<Vec<Dart>>,
}

impl FaceStructure {
    /// Traces all faces of `rotation` over `graph`.
    ///
    /// Runs in O(darts): each dart is visited exactly once.
    pub fn trace(graph: &Graph, rotation: &RotationSystem) -> FaceStructure {
        let dart_count = graph.dart_count();
        let mut face_of = vec![FaceId(u32::MAX); dart_count];
        let mut faces = Vec::new();
        for start in graph.darts() {
            if face_of[start.index()] != FaceId(u32::MAX) {
                continue;
            }
            let id = FaceId(faces.len() as u32);
            let mut cycle = Vec::new();
            let mut d = start;
            loop {
                debug_assert_eq!(face_of[d.index()], FaceId(u32::MAX), "dart on two faces");
                face_of[d.index()] = id;
                cycle.push(d);
                d = rotation.face_next(d);
                if d == start {
                    break;
                }
            }
            faces.push(cycle);
        }
        FaceStructure { face_of, faces }
    }

    /// Number of faces (`F` in Euler's formula).
    pub fn face_count(&self) -> usize {
        self.faces.len()
    }

    /// The face whose boundary contains `d`.
    #[inline]
    pub fn face_of(&self, d: Dart) -> FaceId {
        self.face_of[d.index()]
    }

    /// The boundary of face `f`, as darts in cyclic order.
    pub fn boundary(&self, f: FaceId) -> &[Dart] {
        &self.faces[f.index()]
    }

    /// Iterator over `(FaceId, boundary)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (FaceId, &[Dart])> {
        self.faces.iter().enumerate().map(|(i, b)| (FaceId(i as u32), b.as_slice()))
    }

    /// The face traversing `d`'s link in the direction opposite to `d` —
    /// the paper's **complementary cycle** of the (directed) link `d`.
    #[inline]
    pub fn complementary(&self, d: Dart) -> FaceId {
        self.face_of(d.twin())
    }

    /// Sizes of all faces (number of darts on each boundary).
    pub fn sizes(&self) -> Vec<usize> {
        self.faces.iter().map(Vec::len).collect()
    }

    /// Largest face size — an upper bound on the detour a single
    /// cycle-following episode can take, hence a proxy for worst-case
    /// stretch.
    pub fn max_face_size(&self) -> usize {
        self.faces.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Renders a face like `"c2: E -> D -> B -> C -> E"`.
    pub fn display_face(&self, graph: &Graph, f: FaceId) -> String {
        let b = self.boundary(f);
        if b.is_empty() {
            return format!("{f}: (empty)");
        }
        let mut names: Vec<&str> = b.iter().map(|&d| graph.node_name(graph.dart_tail(d))).collect();
        names.push(graph.node_name(graph.dart_tail(b[0])));
        format!("{f}: {}", names.join(" -> "))
    }
}

/// The orientable genus implied by a rotation system on a *connected*
/// graph, via Euler's formula `V − E + F = 2 − 2g`.
///
/// Returns `None` if the graph is not connected (Euler's formula then
/// needs per-component bookkeeping, and PR is defined on connected
/// topologies anyway).
pub fn genus(graph: &Graph, faces: &FaceStructure) -> Option<u32> {
    if !pr_graph::algo::is_connected(graph, &pr_graph::LinkSet::empty(graph.link_count())) {
        return None;
    }
    let v = graph.node_count() as i64;
    let e = graph.link_count() as i64;
    let f = faces.face_count() as i64;
    let euler = v - e + f;
    debug_assert!(euler <= 2 && (2 - euler) % 2 == 0, "invalid Euler characteristic {euler}");
    Some(((2 - euler) / 2) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pr_graph::generators;

    #[test]
    fn ring_has_two_faces_genus_zero() {
        let g = generators::ring(6, 1);
        let rot = RotationSystem::identity(&g);
        let faces = FaceStructure::trace(&g, &rot);
        assert_eq!(faces.face_count(), 2);
        assert_eq!(genus(&g, &faces), Some(0));
        for (_, boundary) in faces.iter() {
            assert_eq!(boundary.len(), 6);
        }
    }

    #[test]
    fn every_dart_on_exactly_one_face() {
        let g = generators::petersen(1);
        let rot = RotationSystem::identity(&g);
        let faces = FaceStructure::trace(&g, &rot);
        let mut seen = vec![0u32; g.dart_count()];
        for (_, boundary) in faces.iter() {
            for &d in boundary {
                seen[d.index()] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
        // And face_of agrees with the boundary lists.
        for (f, boundary) in faces.iter() {
            for &d in boundary {
                assert_eq!(faces.face_of(d), f);
            }
        }
    }

    #[test]
    fn face_sizes_sum_to_dart_count() {
        let g = generators::isp_mesh(&generators::MeshParams::new(12, 1));
        let rot = RotationSystem::identity(&g);
        let faces = FaceStructure::trace(&g, &rot);
        assert_eq!(faces.sizes().iter().sum::<usize>(), g.dart_count());
        assert!(faces.max_face_size() >= 4);
    }

    #[test]
    fn bridge_link_has_self_complementary_face() {
        // A path's single link: both darts lie on the same (unique) face
        // — the paper's "the main cycle and its complement are the same".
        let g = generators::path(2, 1);
        let rot = RotationSystem::identity(&g);
        let faces = FaceStructure::trace(&g, &rot);
        assert_eq!(faces.face_count(), 1);
        let d = pr_graph::LinkId(0).forward();
        assert_eq!(faces.face_of(d), faces.complementary(d));
        assert_eq!(genus(&g, &faces), Some(0));
    }

    #[test]
    fn complementary_traverses_opposite_direction() {
        let g = generators::ring(5, 1);
        let rot = RotationSystem::identity(&g);
        let faces = FaceStructure::trace(&g, &rot);
        for d in g.darts() {
            let main = faces.face_of(d);
            let comp = faces.complementary(d);
            assert_ne!(main, comp, "ring faces are distinct per direction");
            assert!(faces.boundary(comp).contains(&d.twin()));
        }
    }

    #[test]
    fn genus_none_for_disconnected() {
        let mut g = pr_graph::Graph::new();
        let a = g.add_node("A").unwrap();
        let b = g.add_node("B").unwrap();
        let c = g.add_node("C").unwrap();
        let d = g.add_node("D").unwrap();
        g.add_link(a, b, 1).unwrap();
        g.add_link(c, d, 1).unwrap();
        let rot = RotationSystem::identity(&g);
        let faces = FaceStructure::trace(&g, &rot);
        assert_eq!(genus(&g, &faces), None);
    }

    #[test]
    fn display_face_is_readable() {
        let mut g = pr_graph::Graph::new();
        let a = g.add_node("A").unwrap();
        let b = g.add_node("B").unwrap();
        let c = g.add_node("C").unwrap();
        g.add_link(a, b, 1).unwrap();
        g.add_link(b, c, 1).unwrap();
        g.add_link(c, a, 1).unwrap();
        let rot = RotationSystem::identity(&g);
        let faces = FaceStructure::trace(&g, &rot);
        let rendered = faces.display_face(&g, FaceId(0));
        assert!(rendered.starts_with("c0: "));
        assert!(rendered.contains(" -> "));
    }

    #[test]
    fn torus_identity_rotation_has_nonnegative_genus() {
        // The 3 × 3 torus: every node linked to its right and lower
        // neighbours, wrapping round.
        let mut g = pr_graph::Graph::with_nodes(9);
        for i in 0..9 {
            let (x, y) = (i % 3, i / 3);
            g.add_link(pr_graph::NodeId(i), pr_graph::NodeId(y * 3 + (x + 1) % 3), 1).unwrap();
            g.add_link(pr_graph::NodeId(i), pr_graph::NodeId((y + 1) % 3 * 3 + x), 1).unwrap();
        }
        let rot = RotationSystem::identity(&g);
        let faces = FaceStructure::trace(&g, &rot);
        let genus = genus(&g, &faces).unwrap();
        // 9 nodes, 18 links: F = 2 - 2g + 9 ⇒ any valid trace satisfies
        // Euler; the identity rotation need not be optimal, but the
        // genus is well-defined and small for this graph.
        assert_eq!(faces.face_count() as i64, 2 - 2 * genus as i64 + 9);
    }
}
