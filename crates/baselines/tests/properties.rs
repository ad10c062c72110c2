//! Property-based tests for the baseline schemes.
//!
//! FCP's delivery guarantee — unlike PR's — is embedding-free and
//! needs no planarity: it must deliver whenever source and destination
//! are connected, on *any* graph, under *any* failure combination,
//! because it recomputes on the carried failure set. These tests hold
//! it (and the other baselines) to their contracts.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pr_baselines::{FcpAgent, LfaAgent, NotViaAgent};
use pr_core::{
    generous_ttl, walk_packet, DiscriminatorKind, DropReason, ForwardingAgent, PrMode, PrNetwork,
    WalkResult,
};
use pr_embedding::{CellularEmbedding, RotationSystem};
use pr_graph::{algo, generators, AllPairs, Graph, LinkId, LinkSet, NodeId, SpTree};
use pr_testkit::oracle::ReconvergenceAgent;
use pr_testkit::strategies::{two_edge_connected, with_failures};

/// A random 2-edge-connected graph with up to five links failed that
/// leave it connected.
fn graphs_with_failures() -> impl Strategy<Value = (Graph, LinkSet)> {
    with_failures(two_edge_connected(3..16, 0..10, 1..=6), 5, true)
}

/// The [`ForwardingAgent::decide`] contract the unit walker rests on:
/// asked with a default header, `agent` decides the same and leaves
/// the same header whichever interface the packet came in by — at
/// every router, towards every destination.
fn ignores_the_ingress_of_an_unmarked_packet<A: ForwardingAgent>(
    g: &Graph,
    agent: &A,
    failed: &LinkSet,
) -> Result<(), TestCaseError>
where
    A::State: PartialEq,
{
    for dest in g.nodes() {
        for at in g.nodes().filter(|&at| at != dest) {
            let mut fresh = A::State::default();
            let at_the_source = agent.decide(at, None, dest, &mut fresh, failed);
            for out in g.darts_from(at) {
                let mut arrived = A::State::default();
                let in_transit = agent.decide(at, Some(out.twin()), dest, &mut arrived, failed);
                let label =
                    format!("{} at {at} towards {dest}, in by {}", agent.label(), out.twin());
                prop_assert_eq!(in_transit, at_the_source, "{}", label);
                prop_assert!(arrived == fresh, "{}: {:?} vs {:?}", label, arrived, fresh);
            }
        }
    }
    Ok(())
}

/// FCP's single-failure closed form, checked against the honest
/// recompute-per-decision agent: towards every destination of `g`
/// under the one failed `link`, every source whose failure-free path
/// crosses it pays `base(src) − base(p) + dist_{G−link}(p, dst)` — `p`
/// being the endpoint of `link` whose tree dart is `link` — and is
/// delivered iff `p` still reaches the destination. Returns how many
/// sources were delivered and how many dropped.
fn closed_form_prices_the_honest_walk(
    g: &Graph,
    link: LinkId,
) -> Result<(usize, usize), TestCaseError> {
    let failed = LinkSet::from_links(g.link_count(), [link]);
    let honest = FcpAgent::new(g);
    let ttl = generous_ttl(g);
    let (a, b) = g.endpoints(link);
    let (mut delivered, mut dropped) = (0, 0);
    for dst in g.nodes() {
        let tree = SpTree::towards_all_live(g, dst);
        let on_tree = |v| tree.next_dart(v).is_some_and(|d| d.link() == link);
        let point = [a, b].into_iter().find(|&v| on_tree(v));
        let affected: Vec<NodeId> =
            g.nodes().filter(|&src| tree.path_crosses(g, src, &failed)).collect();
        prop_assert_eq!(point.is_some(), !affected.is_empty(), "{}: towards {}", link, dst);
        let Some(point) = point else { continue };
        let beyond = SpTree::towards(g, dst, &failed).cost(point);
        for src in affected {
            let ahead = tree.cost(src).unwrap() - tree.cost(point).unwrap();
            let priced = beyond.map(|beyond| ahead + beyond);
            let walk = walk_packet(g, &honest, src, dst, &failed, ttl);
            let walked = walk.result.is_delivered().then(|| walk.cost(g));
            prop_assert_eq!(priced, walked, "{} down, {}->{} by {}", link, src, dst, point);
            delivered += usize::from(priced.is_some());
            dropped += usize::from(priced.is_none());
        }
    }
    Ok((delivered, dropped))
}

/// A bridge: every affected source is cut off with the point.
#[test]
fn closed_form_drops_every_source_behind_a_bridge() {
    // Two triangles, 0-1-2 and 3-4-5, joined by 2-3.
    let mut g = Graph::with_nodes(6);
    for (a, b) in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)] {
        g.add_link(NodeId(a), NodeId(b), 1).unwrap();
    }
    let bridge = g.add_link(NodeId(2), NodeId(3), 1).unwrap();
    let (delivered, dropped) = closed_form_prices_the_honest_walk(&g, bridge).unwrap();
    assert_eq!((delivered, dropped), (0, 18), "three sources per destination across the bridge");
}

/// The failed link is the destination's own: the point is its
/// neighbour and the whole detour is the survivor leg.
#[test]
fn closed_form_holds_where_the_point_is_the_destinations_neighbour() {
    let g = generators::ring(6, 1);
    let link = g.find_link(NodeId(1), NodeId(0)).unwrap();
    let (delivered, dropped) = closed_form_prices_the_honest_walk(&g, link).unwrap();
    assert!(delivered > 0 && dropped == 0);
    // 2 -> 0: one hop to the point 1, then the long way round.
    let failed = LinkSet::from_links(g.link_count(), [link]);
    let walk = walk_packet(&g, &FcpAgent::new(&g), NodeId(2), NodeId(0), &failed, generous_ttl(&g));
    assert_eq!(walk.cost(&g), 2 - 1 + 5);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// FCP under one failed link is arithmetic on two shortest-path
    /// labels — on any connected graph, bridges included.
    #[test]
    fn fcp_under_one_failure_is_tree_prefix_plus_survivor_leg(
        n in 3usize..13,
        chords in 0usize..6,
        seed in 0u64..u64::MAX,
    ) {
        // A random tree plus a few chords: every link a bridge when
        // there are none.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = Graph::with_nodes(n);
        for v in 1..n as u32 {
            let parent = NodeId(rng.gen_range(0..v));
            g.add_link(NodeId(v), parent, rng.gen_range(1..=6)).unwrap();
        }
        for _ in 0..chords {
            let (a, b) = (NodeId(rng.gen_range(0..n as u32)), NodeId(rng.gen_range(0..n as u32)));
            if a != b && g.find_link(a, b).is_none() {
                g.add_link(a, b, rng.gen_range(1..=6)).unwrap();
            }
        }
        let (mut delivered, mut dropped) = (0, 0);
        for link in g.links() {
            let (d, x) = closed_form_prices_the_honest_walk(&g, link)?;
            delivered += d;
            dropped += x;
            // Cut off or not, behind one link together.
            let bridge = !algo::connected_after(&g, &LinkSet::empty(g.link_count()), link);
            prop_assert_eq!(bridge, x > 0, "{}", link);
            prop_assert!(!bridge || d == 0, "{}", link);
        }
        prop_assert!(delivered + dropped > 0);
    }

    /// Every scheme of the workspace forwards a packet nobody has
    /// marked yet by where it is and where it is going alone.
    #[test]
    fn default_header_decisions_ignore_the_ingress((g, failed) in graphs_with_failures()) {
        for mode in [PrMode::Basic, PrMode::DistanceDiscriminator] {
            let emb = CellularEmbedding::new(&g, RotationSystem::identity(&g)).expect("connected");
            let net = PrNetwork::compile(&g, emb, mode, DiscriminatorKind::Hops);
            ignores_the_ingress_of_an_unmarked_packet(&g, &net.agent(&g), &failed)?;
        }
        let base = AllPairs::compute_all_live(&g);
        ignores_the_ingress_of_an_unmarked_packet(&g, &FcpAgent::new(&g), &failed)?;
        let cached = FcpAgent::cached_with_base(&g, &base);
        ignores_the_ingress_of_an_unmarked_packet(&g, &cached, &failed)?;
        ignores_the_ingress_of_an_unmarked_packet(&g, &LfaAgent::compute(&g, &base), &failed)?;
        let notvia = NotViaAgent::compute(&g, &base);
        ignores_the_ingress_of_an_unmarked_packet(&g, &notvia, &failed)?;
        let reconverged = ReconvergenceAgent::converged_on(&g, &failed);
        ignores_the_ingress_of_an_unmarked_packet(&g, &reconverged, &failed)?;
    }

    /// FCP delivers every connected pair under every failure set —
    /// no embedding, no planarity, no exceptions.
    #[test]
    fn fcp_delivers_whenever_connected((g, failed) in graphs_with_failures()) {
        let fcp = FcpAgent::new(&g);
        let ttl = generous_ttl(&g);
        for dst in g.nodes() {
            let live = SpTree::towards(&g, dst, &failed);
            for src in g.nodes() {
                if src == dst || !live.reaches(src) {
                    continue;
                }
                let w = walk_packet(&g, &fcp, src, dst, &failed, ttl);
                prop_assert!(w.result.is_delivered(), "{src}->{dst}: {:?}", w.result);
                // Its path cost is at least the survivor optimum...
                prop_assert!(w.cost(&g) >= live.cost(src).unwrap());
                // ...and it never crosses a failed link.
                prop_assert!(w.path.darts().iter().all(|d| !failed.contains_dart(*d)));
            }
        }
    }

    /// FCP's header bound: never more than the length field plus one
    /// link id per *distinct failed link in the scenario*.
    #[test]
    fn fcp_header_is_bounded_by_scenario_failures((g, failed) in graphs_with_failures()) {
        let fcp = FcpAgent::new(&g);
        let ttl = generous_ttl(&g);
        let bound = FcpAgent::LENGTH_FIELD_BITS + failed.len() * fcp.link_id_bits();
        for src in g.nodes() {
            for dst in g.nodes() {
                if src == dst {
                    continue;
                }
                let w = walk_packet(&g, &fcp, src, dst, &failed, ttl);
                prop_assert!(
                    w.peak_header_bits <= bound,
                    "header {} > bound {bound}",
                    w.peak_header_bits
                );
            }
        }
    }

    /// FCP proves disconnection (drops with `Unreachable`, never loops),
    /// exercised by cutting one node off entirely.
    #[test]
    fn fcp_proves_unreachability(
        g in two_edge_connected(4..12, 3..4, 1..=4),
        pick in 0u32..u32::MAX,
    ) {
        let victim = NodeId(pick % g.node_count() as u32);
        let mut failed = LinkSet::empty(g.link_count());
        for &d in g.darts_from(victim) {
            failed.insert(d.link());
        }
        let fcp = FcpAgent::new(&g);
        for src in g.nodes() {
            if src == victim {
                continue;
            }
            let w = walk_packet(&g, &fcp, src, victim, &failed, generous_ttl(&g));
            prop_assert_eq!(
                w.result.clone(),
                WalkResult::Dropped(DropReason::Unreachable),
                "{}->{}: {:?}",
                src,
                victim,
                w.result
            );
        }
    }

    /// Reconvergence walks are exactly the survivor shortest paths.
    #[test]
    fn reconvergence_is_survivor_optimal((g, failed) in graphs_with_failures()) {
        let agent = ReconvergenceAgent::converged_on(&g, &failed);
        let ttl = generous_ttl(&g);
        for dst in g.nodes() {
            let live = SpTree::towards(&g, dst, &failed);
            for src in g.nodes() {
                if src == dst {
                    continue;
                }
                let w = walk_packet(&g, &agent, src, dst, &failed, ttl);
                match (live.reaches(src), &w.result) {
                    (true, WalkResult::Delivered) => {
                        prop_assert_eq!(w.cost(&g), live.cost(src).unwrap());
                    }
                    (false, WalkResult::Dropped(DropReason::Unreachable)) => {}
                    other => prop_assert!(false, "{src}->{dst}: unexpected {other:?}"),
                }
            }
        }
    }

    /// LFA and Not-via never loop (they may drop, never cycle): their
    /// repairs are one-shot and tunnel-scoped respectively.
    #[test]
    fn single_shot_schemes_never_loop((g, failed) in graphs_with_failures()) {
        let base = AllPairs::compute_all_live(&g);
        let lfa = LfaAgent::compute(&g, &base);
        let notvia = NotViaAgent::compute(&g, &base);
        let ttl = generous_ttl(&g);
        for src in g.nodes() {
            for dst in g.nodes() {
                if src == dst {
                    continue;
                }
                for result in [
                    walk_packet(&g, &lfa, src, dst, &failed, ttl).result,
                    walk_packet(&g, &notvia, src, dst, &failed, ttl).result,
                ] {
                    prop_assert!(
                        !matches!(
                            result,
                            WalkResult::Dropped(DropReason::TtlExpired)
                        ),
                        "{src}->{dst}: TTL-level loop"
                    );
                }
            }
        }
    }

    /// Not-via covers every single failure on 2-edge-connected graphs
    /// (like PR basic, at 160 bits instead of 1).
    #[test]
    fn notvia_covers_single_failures(g in two_edge_connected(3..14, 0..8, 1..=5)) {
        let base = AllPairs::compute_all_live(&g);
        let agent = NotViaAgent::compute(&g, &base);
        prop_assert_eq!(agent.protection_coverage(&g), 1.0);
        let ttl = generous_ttl(&g);
        for l in g.links() {
            let failed = LinkSet::from_links(g.link_count(), [l]);
            for src in g.nodes() {
                for dst in g.nodes() {
                    if src == dst {
                        continue;
                    }
                    let w = walk_packet(&g, &agent, src, dst, &failed, ttl);
                    prop_assert!(w.result.is_delivered(), "{src}->{dst} with {l} down");
                    prop_assert!(w.peak_header_bits <= pr_baselines::ENCAP_BITS);
                }
            }
        }
    }
}
