//! Property-based tests for the graph substrate.
//!
//! Strategy: generate random 2-edge-connected graphs (ring + chords) and
//! random failure sets, then check the structural invariants that the
//! Packet Re-cycling layers rely on.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use pr_graph::{algo, AllPairs, Graph, LinkId, LinkSet, SpTree};
use pr_testkit::generators;
use pr_testkit::oracle::path_darts;
use pr_testkit::strategies::{two_edge_connected, with_failures};

/// A reproducible random 2-edge-connected graph.
fn graphs() -> impl Strategy<Value = Graph> {
    two_edge_connected(3..24, 0..12, 1..=8)
}

/// A graph plus up to eight of its links failed, cuts included.
fn graphs_with_failures() -> impl Strategy<Value = (Graph, LinkSet)> {
    with_failures(graphs(), 8, false)
}

/// A ring with chords, weights in {1, 2}, with up to six of its links
/// doubled by parallel ones of either weight, and up to eight links
/// failed, cuts included: equal-cost routes, equal-hop parents and
/// parallel darts to one parent everywhere, so every clause of the
/// canonical tie-break decides some node.
fn tied_graphs_with_failures() -> impl Strategy<Value = (Graph, LinkSet)> {
    let doubled = proptest::collection::vec((0u32..u32::MAX, 1u32..=2), 0..6);
    let graphs = (two_edge_connected(3..16, 0..10, 1..=2), doubled).prop_map(|(mut g, doubled)| {
        for (pick, weight) in doubled {
            let (a, b) = g.endpoints(LinkId(pick % g.link_count() as u32));
            g.add_link(a, b, weight).expect("distinct endpoints");
        }
        g
    });
    with_failures(graphs, 8, false)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Dijkstra distances satisfy the triangle inequality over links and
    /// are symmetric on undirected graphs.
    #[test]
    fn dijkstra_is_metric((g, failed) in graphs_with_failures()) {
        let ap = AllPairs::compute(&g, &failed);
        for l in g.links() {
            if failed.contains(l) {
                continue;
            }
            let (a, b) = g.endpoints(l);
            for dest in g.nodes() {
                let (da, db) = (ap.cost(a, dest), ap.cost(b, dest));
                match (da, db) {
                    (Some(da), Some(db)) => {
                        let w = u64::from(g.weight(l));
                        prop_assert!(da <= db + w, "triangle violated: {da} > {db} + {w}");
                        prop_assert!(db <= da + w);
                    }
                    // One endpoint reaches dest and the other does not,
                    // yet a live link joins them: impossible.
                    (Some(_), None) | (None, Some(_)) => prop_assert!(false, "reachability must agree across a live link"),
                    (None, None) => {}
                }
            }
        }
        for s in g.nodes() {
            for d in g.nodes() {
                prop_assert_eq!(ap.cost(s, d), ap.cost(d, s));
            }
        }
    }

    /// Following `next_dart` from any reachable node reaches the
    /// destination in exactly `hops` steps with exactly `cost` weight.
    #[test]
    fn sptree_paths_are_consistent((g, failed) in graphs_with_failures()) {
        for dest in g.nodes() {
            let t = SpTree::towards(&g, dest, &failed);
            for src in g.nodes() {
                let Some(darts) = path_darts(&t, &g, src) else {
                    prop_assert!(t.cost(src).is_none());
                    continue;
                };
                prop_assert_eq!(darts.len() as u32, t.hops(src).unwrap());
                let cost: u64 = darts.iter().map(|d| u64::from(g.weight(d.link()))).sum();
                prop_assert_eq!(cost, t.cost(src).unwrap());
                for d in &darts {
                    prop_assert!(!failed.contains_dart(*d), "tree uses a failed link");
                }
                prop_assert_eq!(darts.last().map_or(src, |d| g.dart_head(*d)), dest);
            }
        }
    }

    /// Hop-count and weighted-cost labels both strictly decrease along
    /// the tree towards the destination — the property §4.3 needs from
    /// any distance discriminator.
    #[test]
    fn discriminators_strictly_decrease(g in graphs()) {
        let none = LinkSet::empty(g.link_count());
        for dest in g.nodes() {
            let t = SpTree::towards(&g, dest, &none);
            for u in g.nodes() {
                if let Some(d) = t.next_dart(u) {
                    let v = g.dart_head(d);
                    prop_assert!(t.hops(u).unwrap() > t.hops(v).unwrap());
                    prop_assert!(t.cost(u).unwrap() > t.cost(v).unwrap());
                }
            }
        }
    }

    /// Bridges found by the cut analysis are exactly the links whose
    /// individual removal disconnects the graph.
    #[test]
    fn bridges_match_bruteforce((g, failed) in graphs_with_failures()) {
        if !algo::is_connected(&g, &failed) {
            return Ok(());
        }
        let cuts = algo::cut_analysis(&g, &failed);
        for l in g.links() {
            if failed.contains(l) {
                continue;
            }
            let mut f = failed.clone();
            f.insert(l);
            let disconnects = !algo::is_connected(&g, &f);
            prop_assert_eq!(
                cuts.bridges.contains(&l),
                disconnects,
                "bridge classification mismatch on {}", l
            );
        }
    }

    /// Articulation points are exactly the nodes whose removal (dropping
    /// all incident links) disconnects the remaining live graph.
    #[test]
    fn articulation_points_match_bruteforce(g in graphs()) {
        let none = LinkSet::empty(g.link_count());
        let cuts = algo::cut_analysis(&g, &none);
        for v in g.nodes() {
            let mut f = none.clone();
            for &d in g.darts_from(v) {
                f.insert(d.link());
            }
            // Count components among the remaining nodes.
            let comps = algo::components(&g, &f);
            let mut labels: Vec<usize> = g
                .nodes()
                .filter(|&u| u != v)
                .map(|u| comps.label[u.index()])
                .collect();
            labels.sort_unstable();
            labels.dedup();
            let disconnects = labels.len() > 1;
            prop_assert_eq!(
                cuts.articulation_points.contains(&v),
                disconnects,
                "articulation classification mismatch on {}", v
            );
        }
    }

    /// The random 2-edge-connected generator lives up to its name, and
    /// single link failures never disconnect its output.
    #[test]
    fn two_edge_connected_generator_survives_any_single_failure(g in graphs()) {
        let none = LinkSet::empty(g.link_count());
        prop_assert!(algo::is_two_edge_connected(&g, &none));
        for l in g.links() {
            prop_assert!(algo::connected_after(&g, &none, l));
        }
    }

    /// Parser round-trip: write then parse preserves the topology.
    #[test]
    fn parser_roundtrip(g in graphs()) {
        let text = pr_graph::parser::write(&g);
        let g2 = pr_graph::parser::parse(&text).unwrap();
        prop_assert_eq!(g.node_count(), g2.node_count());
        prop_assert_eq!(g.link_count(), g2.link_count());
        for l in g.links() {
            prop_assert_eq!(g.endpoints(l), g2.endpoints(l));
            prop_assert_eq!(g.weight(l), g2.weight(l));
        }
    }

    /// LinkSet behaves like a reference set implementation.
    #[test]
    fn linkset_matches_btreeset(ops in proptest::collection::vec((0u32..200, any::<bool>()), 0..100)) {
        use std::collections::BTreeSet;
        let mut ls = LinkSet::empty(200);
        let mut reference = BTreeSet::new();
        for (id, insert) in ops {
            let l = LinkId(id);
            if insert {
                prop_assert_eq!(ls.insert(l), reference.insert(l));
            } else {
                prop_assert_eq!(ls.remove(l), reference.remove(&l));
            }
        }
        prop_assert_eq!(ls.len(), reference.len());
        let via_iter: Vec<LinkId> = ls.iter().collect();
        let via_ref: Vec<LinkId> = reference.into_iter().collect();
        prop_assert_eq!(via_iter, via_ref);
    }

    /// Incremental repair from the failure-free base tree is
    /// bit-identical to the from-scratch recompute — distances, hop
    /// labels and canonical parent darts — for arbitrary failure sets
    /// (including disconnecting ones), every destination.
    #[test]
    fn repair_from_equals_towards((g, failed) in graphs_with_failures()) {
        let mut scratch = pr_graph::SpScratch::new();
        let none = LinkSet::empty(g.link_count());
        for dest in g.nodes() {
            let base = SpTree::towards(&g, dest, &none);
            let repaired = SpTree::repair_from(&base, &g, dest, &failed, &mut scratch);
            let fresh = SpTree::towards(&g, dest, &failed);
            prop_assert_eq!(repaired, fresh, "dest {}", dest);
        }
        // Arena reuse must not bleed state between destinations: the
        // stats account one repair per destination.
        prop_assert_eq!(scratch.stats().repairs, g.node_count() as u64);
    }

    /// The arena-based full rebuild is bit-identical to the one-shot
    /// entry point (which now wraps it with a fresh scratch).
    #[test]
    fn towards_with_matches_towards_under_failures((g, failed) in graphs_with_failures()) {
        let mut scratch = pr_graph::SpScratch::new();
        for dest in g.nodes() {
            prop_assert_eq!(
                SpTree::towards_with(&g, dest, &failed, &mut scratch),
                SpTree::towards(&g, dest, &failed),
                "dest {}", dest
            );
        }
    }

    /// The one-pass Dijkstra against the plainest reference, every
    /// destination: Bellman–Ford distances, then parents by the
    /// canonical key in `(dist, id)` order. Held here rather than
    /// against a second production path, so a defect in the key both
    /// the rebuild and the repair build cannot cancel out.
    #[test]
    fn towards_is_the_bellman_ford_reference((g, failed) in tied_graphs_with_failures()) {
        for dest in g.nodes() {
            let tree = SpTree::towards(&g, dest, &failed);
            let reference = pr_testkit::oracle::shortest_path_tree(&g, dest, &failed);
            for u in g.nodes() {
                let labels = tree.cost(u).map(|c| (c, tree.hops(u).unwrap(), tree.next_dart(u)));
                prop_assert_eq!(labels, reference[u.index()], "dest {} node {}", dest, u);
                prop_assert_eq!(tree.hops(u).is_some(), tree.reaches(u));
            }
        }
    }

    /// BFS hop distances agree with Dijkstra on unit-weight graphs.
    #[test]
    fn bfs_agrees_with_unit_dijkstra(g in two_edge_connected(3..20, 0..10, 1..=1)) {
        let none = LinkSet::empty(g.link_count());
        for dest in g.nodes() {
            let t = SpTree::towards(&g, dest, &none);
            let bfs = algo::hop_distances(&g, dest, &none);
            for u in g.nodes() {
                prop_assert_eq!(t.cost(u), bfs[u.index()].map(u64::from));
            }
        }
    }
}

/// Non-proptest determinism check: two identical runs produce identical
/// trees (guards the canonical tie-breaking contract).
#[test]
fn sptree_construction_is_deterministic() {
    let mut rng = StdRng::seed_from_u64(2024);
    let g = generators::random_two_edge_connected(30, 15, 1..=4, &mut rng);
    let none = LinkSet::empty(g.link_count());
    for dest in g.nodes() {
        let t1 = SpTree::towards(&g, dest, &none);
        let t2 = SpTree::towards(&g, dest, &none);
        for u in g.nodes() {
            assert_eq!(t1.next_dart(u), t2.next_dart(u));
            assert_eq!(t1.cost(u), t2.cost(u));
            assert_eq!(t1.hops(u), t2.hops(u));
        }
    }
}

/// The canonical tree is invariant under which of two equal-cost routes
/// the heap happens to explore first (regression guard for the
/// parent-selection pass).
#[test]
fn canonical_tree_is_heap_order_independent() {
    // Diamond with two equal-cost branches declared in both orders.
    for flip in [false, true] {
        let mut g = Graph::new();
        let a = g.add_node("A").unwrap();
        let b = g.add_node("B").unwrap();
        let c = g.add_node("C").unwrap();
        let d = g.add_node("D").unwrap();
        if flip {
            g.add_link(a, c, 1).unwrap();
            g.add_link(a, b, 1).unwrap();
        } else {
            g.add_link(a, b, 1).unwrap();
            g.add_link(a, c, 1).unwrap();
        }
        g.add_link(b, d, 1).unwrap();
        g.add_link(c, d, 1).unwrap();
        let t = SpTree::towards_all_live(&g, d);
        // Lowest parent node id wins regardless of declaration order.
        let path = path_darts(&t, &g, a).unwrap();
        assert_eq!(path.iter().map(|dart| g.dart_head(*dart)).collect::<Vec<_>>(), vec![b, d]);
    }
}
