//! Property-based tests for the baseline schemes.
//!
//! FCP's delivery guarantee — unlike PR's — is embedding-free and
//! needs no planarity: it must deliver whenever source and destination
//! are connected, on *any* graph, under *any* failure combination,
//! because it recomputes on the carried failure set. These tests hold
//! it (and the other baselines) to their contracts.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use pr_baselines::{FcpAgent, LfaAgent, NotViaAgent, ReconvergenceAgent};
use pr_core::{
    generous_ttl, walk_packet, DiscriminatorKind, DropReason, ForwardingAgent, PrMode, PrNetwork,
    WalkResult,
};
use pr_embedding::{CellularEmbedding, RotationSystem};
use pr_graph::{
    algo, generators, AllPairs, Dart, Graph, LinkId, LinkSet, NodeId, SpScratch, SpTree,
    TreeChildren,
};

fn arb_graph_and_failures() -> impl Strategy<Value = (Graph, LinkSet)> {
    (3usize..16, 0usize..10, 0u64..u64::MAX, 0usize..6).prop_map(|(n, chords, seed, failures)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::random_two_edge_connected(n, chords, 1..=6, &mut rng);
        let mut failed = LinkSet::empty(g.link_count());
        let mut candidates: Vec<LinkId> = g.links().collect();
        candidates.shuffle(&mut rng);
        for l in candidates {
            if failed.len() >= failures {
                break;
            }
            if algo::connected_after(&g, &failed, l) {
                failed.insert(l);
            }
        }
        (g, failed)
    })
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

/// The `(node, next dart)` routes of `dest`'s affected cone under
/// `failed`, the way a sweep's cone opener gets them: the cone's label
/// repair, then the selection pass over those labels.
fn cone_routes(
    g: &Graph,
    base: &AllPairs,
    dest: NodeId,
    failed: &LinkSet,
    sp: &mut SpScratch,
) -> Vec<(NodeId, Option<Dart>)> {
    let tree = base.towards(dest);
    let (mut cone, mut stack, mut routes) = (Vec::new(), Vec::new(), Vec::new());
    tree.affected_cone(g, &TreeChildren::build(g, tree), failed, &mut cone, &mut stack);
    tree.repair_cone_labels(g, failed, &cone, sp);
    tree.cone_routes(g, &cone, sp, &mut routes);
    routes
}

/// Every single link of `g`, and a seeded sample of pairs and triples
/// (cuts included: a seeded entry holds cut-off nodes too).
fn failure_sets(g: &Graph, rng: &mut StdRng) -> Vec<LinkSet> {
    let mut links: Vec<LinkId> = g.links().collect();
    let mut sets: Vec<LinkSet> =
        links.iter().map(|&l| LinkSet::from_links(g.link_count(), [l])).collect();
    for k in [2, 2, 2, 3, 3] {
        links.shuffle(rng);
        sets.push(LinkSet::from_links(g.link_count(), links[..k].iter().copied()));
    }
    sets
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A memo seeded with the routes of a cone repaired elsewhere
    /// decides as the honest agent and as the memo left to its miss
    /// path do, walk for walk — in hostile orders too: seeded twice,
    /// seeded over an entry a miss has built, seeded and then evicted,
    /// seeded on an agent without a memo.
    #[test]
    fn a_seeded_memo_walks_as_the_honest_agent(
        n in 4usize..13,
        chords in 0usize..8,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::random_two_edge_connected(n, chords, 1..=6, &mut rng);
        let base = AllPairs::compute_all_live(&g);
        let ttl = generous_ttl(&g);
        let honest = FcpAgent::new(&g);
        let unseeded = FcpAgent::cached_with_base(&g, &base);
        let seeded = FcpAgent::cached_with_base(&g, &base);
        let reseeded = FcpAgent::cached_with_base(&g, &base);
        let late = FcpAgent::cached_with_base(&g, &base);
        let evicted = FcpAgent::cached_with_base(&g, &base);
        let mut sp = SpScratch::new();
        for failed in failure_sets(&g, &mut rng) {
            for agent in [&unseeded, &seeded, &reseeded, &late, &evicted] {
                agent.begin_scenario();
            }
            for dst in g.nodes() {
                let routes = cone_routes(&g, &base, dst, &failed, &mut sp);
                seeded.seed(dst, &failed, &routes);
                reseeded.seed(dst, &failed, &routes);
                reseeded.seed(dst, &failed, &routes);
                evicted.seed(dst, &failed, &routes);
                evicted.begin_scenario();
                honest.seed(dst, &failed, &routes);
                prop_assert_eq!(honest.cached_routes(), 0);
                for (i, src) in g.nodes().enumerate() {
                    let want = walk_packet(&g, &honest, src, dst, &failed, ttl);
                    for (label, agent) in [
                        ("unseeded", &unseeded),
                        ("seeded", &seeded),
                        ("seeded twice", &reseeded),
                        ("seeded late", &late),
                        ("seeded, then evicted", &evicted),
                    ] {
                        let got = walk_packet(&g, agent, src, dst, &failed, ttl);
                        prop_assert_eq!(&got, &want, "{}: {:?} {}->{}", label, failed, src, dst);
                    }
                    if i == 0 {
                        // Over whatever the first walk's misses built.
                        late.seed(dst, &failed, &routes);
                    }
                }
            }
            // Every cone handed over is counted, and only where there
            // was something to plant.
            let cones = g
                .nodes()
                .filter(|&d| g.nodes().any(|s| base.towards(d).path_crosses(&g, s, &failed)))
                .count() as u64;
            prop_assert_eq!(seeded.take_route_stats().seeded, cones);
            prop_assert_eq!(reseeded.take_route_stats().seeded, 2 * cones);
            prop_assert_eq!(unseeded.take_route_stats().seeded, 0);
            prop_assert_eq!(honest.take_route_stats().seeded, 0);
        }
    }

    /// Every scheme of the workspace forwards a packet nobody has
    /// marked yet by where it is and where it is going alone.
    #[test]
    fn default_header_decisions_ignore_the_ingress((g, failed) in arb_graph_and_failures()) {
        for mode in [PrMode::Basic, PrMode::DistanceDiscriminator] {
            let emb = CellularEmbedding::new(&g, RotationSystem::identity(&g)).expect("connected");
            let net = PrNetwork::compile(&g, emb, mode, DiscriminatorKind::Hops);
            ignores_the_ingress_of_an_unmarked_packet(&g, &net.agent(&g), &failed)?;
        }
        let base = AllPairs::compute_all_live(&g);
        ignores_the_ingress_of_an_unmarked_packet(&g, &FcpAgent::new(&g), &failed)?;
        let cached = FcpAgent::cached_with_base(&g, &base);
        ignores_the_ingress_of_an_unmarked_packet(&g, &cached, &failed)?;
        ignores_the_ingress_of_an_unmarked_packet(&g, &LfaAgent::compute(&g), &failed)?;
        let notvia = NotViaAgent::compute(&g);
        ignores_the_ingress_of_an_unmarked_packet(&g, &notvia, &failed)?;
        let reconverged = ReconvergenceAgent::converged_on(&g, &failed);
        ignores_the_ingress_of_an_unmarked_packet(&g, &reconverged, &failed)?;
    }

    /// FCP delivers every connected pair under every failure set —
    /// no embedding, no planarity, no exceptions.
    #[test]
    fn fcp_delivers_whenever_connected((g, failed) in arb_graph_and_failures()) {
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
    fn fcp_header_is_bounded_by_scenario_failures((g, failed) in arb_graph_and_failures()) {
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
    fn fcp_proves_unreachability(seed in 0u64..u64::MAX, n in 4usize..12) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::random_two_edge_connected(n, 3, 1..=4, &mut rng);
        let victim = pr_graph::NodeId(rng.gen_range(0..n as u32));
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
    fn reconvergence_is_survivor_optimal((g, failed) in arb_graph_and_failures()) {
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
    fn single_shot_schemes_never_loop((g, failed) in arb_graph_and_failures()) {
        let lfa = LfaAgent::compute(&g);
        let notvia = NotViaAgent::compute(&g);
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
    fn notvia_covers_single_failures(seed in 0u64..u64::MAX, n in 3usize..14, chords in 0usize..8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::random_two_edge_connected(n, chords, 1..=5, &mut rng);
        let agent = NotViaAgent::compute(&g);
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
