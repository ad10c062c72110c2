//! Property-based tests for cellular embeddings.
//!
//! These are the §3 invariants of the paper, checked over random
//! 2-edge-connected graphs and random rotation systems:
//!
//! 1. face tracing partitions the darts (every dart on exactly one
//!    oriented cycle), hence every link lies on exactly two oriented
//!    cycles traversing it in opposite directions;
//! 2. Euler's formula yields a non-negative integer genus for *every*
//!    rotation system, not just optimised ones;
//! 3. the two forwarding operations (`cycle_continuation`,
//!    `deflection`) always emit a dart leaving the expected router.

use proptest::prelude::*;

use pr_embedding::{genus, CellularEmbedding, FaceStructure, RotationSystem};
use pr_graph::Graph;
use pr_testkit::strategies::{two_edge_connected, with_rotation};

fn rotated_graphs() -> impl Strategy<Value = (Graph, RotationSystem)> {
    with_rotation(two_edge_connected(3..20, 0..14, 1..=6))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every dart lies on exactly one face boundary, and boundaries are
    /// consistent closed walks under `face_next`.
    #[test]
    fn face_tracing_partitions_darts((g, rot) in rotated_graphs()) {
        let faces = FaceStructure::trace(&g, &rot);
        let mut count = vec![0u32; g.dart_count()];
        for (fid, boundary) in faces.iter() {
            prop_assert!(!boundary.is_empty());
            for (i, &d) in boundary.iter().enumerate() {
                count[d.index()] += 1;
                prop_assert_eq!(faces.face_of(d), fid);
                let next = boundary[(i + 1) % boundary.len()];
                prop_assert_eq!(rot.face_next(d), next, "boundary not φ-consecutive");
                // Geometric continuity: next dart leaves the node d enters.
                prop_assert_eq!(g.dart_tail(next), g.dart_head(d));
            }
        }
        prop_assert!(count.iter().all(|&c| c == 1), "some dart not on exactly one face");
    }

    /// Every link is traversed by exactly two oriented boundary cycles,
    /// in opposite directions (they may be the same cycle twice).
    #[test]
    fn every_link_on_two_opposite_cycles((g, rot) in rotated_graphs()) {
        let faces = FaceStructure::trace(&g, &rot);
        for l in g.links() {
            let fwd = faces.face_of(l.forward());
            let rev = faces.face_of(l.reverse());
            prop_assert!(faces.boundary(fwd).contains(&l.forward()));
            prop_assert!(faces.boundary(rev).contains(&l.reverse()));
            prop_assert_eq!(faces.complementary(l.forward()), rev);
            prop_assert_eq!(faces.complementary(l.reverse()), fwd);
        }
    }

    /// Euler's formula gives an integer genus ≥ 0 for every rotation
    /// system on every connected graph.
    #[test]
    fn genus_is_well_defined((g, rot) in rotated_graphs()) {
        let faces = FaceStructure::trace(&g, &rot);
        let gn = genus(&g, &faces).expect("generator yields connected graphs");
        let v = g.node_count() as i64;
        let e = g.link_count() as i64;
        let f = faces.face_count() as i64;
        prop_assert_eq!(v - e + f, 2 - 2 * gn as i64);
    }

    /// Forwarding operations stay at the right routers: deflection keeps
    /// the packet at the failure-detecting node, cycle continuation
    /// moves it from the head of the incoming dart.
    #[test]
    fn forwarding_operations_are_locally_sane((g, rot) in rotated_graphs()) {
        let emb = CellularEmbedding::new(&g, rot).unwrap();
        for d in g.darts() {
            prop_assert_eq!(g.dart_tail(emb.deflection(d)), g.dart_tail(d));
            prop_assert_eq!(g.dart_tail(emb.cycle_continuation(d)), g.dart_head(d));
            prop_assert_eq!(emb.deflection(d), emb.cycle_continuation(d.twin()));
        }
    }

    /// Following `cycle_continuation` from any dart returns to it after
    /// exactly the face size — cycles really are cycles.
    #[test]
    fn cycle_following_closes((g, rot) in rotated_graphs()) {
        let emb = CellularEmbedding::new(&g, rot).unwrap();
        for start in g.darts() {
            let size = emb.faces().boundary(emb.main_cycle(start)).len();
            let mut d = start;
            for _ in 0..size {
                d = emb.cycle_continuation(d);
            }
            prop_assert_eq!(d, start, "φ-orbit did not close after face size steps");
        }
    }

    /// Heuristics never *hurt*: the annealed/climbed embedding has at
    /// least as many faces as its identity starting point, and
    /// `best_effort` output always validates.
    #[test]
    fn heuristics_monotone(g in two_edge_connected(4..12, 0..8, 1..=3), seed in 0u64..u64::MAX) {
        let id = RotationSystem::identity(&g);
        let f0 = FaceStructure::trace(&g, &id).face_count();
        let climbed = pr_embedding::heuristics::hill_climb(&g, id);
        let f1 = FaceStructure::trace(&g, &climbed).face_count();
        prop_assert!(f1 >= f0);
        let best = pr_embedding::heuristics::best_effort(&g, seed);
        best.validate(&g).unwrap();
        let f2 = FaceStructure::trace(&g, &best).face_count();
        prop_assert!(f2 >= f0, "best_effort lost faces vs identity: {f2} < {f0}");
    }
}
