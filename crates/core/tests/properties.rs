//! Property-based verification of the paper's §5 guarantees.
//!
//! **Scope of the guarantee — a reproduction finding.** The §5
//! correctness argument joins failed cells into regions and reasons
//! about curves crossing region boundaries "once going in, once going
//! out". That is Jordan-curve reasoning: it is valid on the **sphere**
//! (genus-0 embeddings). Exhaustive search over every rotation system
//! of K5 (see `crates/core/examples/diagnose_genus_livelock.rs`) shows the claim
//! is *not* embedding-independent: on genus ≥ 1 embeddings PR can
//! livelock even though source and destination stay connected — even
//! with only a single failed link in basic mode. All three topologies
//! the paper evaluates on admit genus-0 embeddings (our `thorough`
//! search finds them), so the paper's results stand; the fine print is
//! that the guarantee is "for genus-0 embeddings", not "for any
//! cellular embedding".
//!
//! The tests below therefore verify:
//!
//! 1. the delivery theorem on **random planar-embedded graphs**
//!    (triangulations and outerplanar rings, embedding planar by
//!    construction);
//! 2. the basic-mode single-failure guarantee, same setting;
//! 3. stretch / header invariants;
//! 4. §4.2's single-failure detour as a function of the failed
//!    interface alone (`PrAgent::episode`), on any embedding;
//! 5. a **pinned counterexample** documenting the genus dependence.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use pr_core::{
    generous_ttl, walk_packet, DiscriminatorKind, DropReason, PrMode, PrNetwork, WalkResult,
};
use pr_embedding::{CellularEmbedding, RotationSystem};
use pr_graph::{algo, Graph, LinkId, LinkSet, NodeId, SpTree};
use pr_testkit::oracle::path_darts;
use pr_testkit::planar;
use pr_testkit::strategies::{
    failure_set, picks, two_edge_connected, with_bridge_or_parallel, with_rotation,
};

/// Random planar-embedded graph (two families) + non-disconnecting
/// failure set of up to six links.
fn arb_planar_scenario() -> impl Strategy<Value = (Graph, RotationSystem, LinkSet)> {
    (0u64..u64::MAX, any::<bool>(), 0usize..20, 3usize..16, picks(6)).prop_map(
        |(seed, dense, size, ring_n, picks)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let (g, rot) = if dense {
                planar::random_triangulation(size, 1..=6, &mut rng)
            } else {
                planar::random_outerplanar(ring_n, 0.6, 1..=6, &mut rng)
            };
            let failed = failure_set(&g, &picks, true);
            (g, rot, failed)
        },
    )
}

fn deliver_all(g: &Graph, net: &PrNetwork, failed: &LinkSet) -> Result<(), String> {
    let agent = net.agent(g);
    let ttl = generous_ttl(g);
    for src in g.nodes() {
        for dst in g.nodes() {
            if src == dst {
                continue;
            }
            let walk = walk_packet(g, &agent, src, dst, failed, ttl);
            match walk.result {
                WalkResult::Delivered => {
                    if walk.path.darts().iter().any(|d| failed.contains_dart(*d)) {
                        return Err(format!("{src}->{dst}: delivered across a failed link"));
                    }
                }
                WalkResult::Dropped(reason) => {
                    return Err(format!(
                        "{src}->{dst} dropped ({reason}) with {} failures: {:?}",
                        failed.len(),
                        failed.iter().collect::<Vec<_>>()
                    ));
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// THE theorem (§5.2/§5.3, genus-0 case): PR-DD delivers every
    /// connected pair under every sampled non-disconnecting failure
    /// set, with both discriminator functions.
    #[test]
    fn pr_dd_delivers_whenever_connected_planar((g, rot, failed) in arb_planar_scenario()) {
        for kind in [DiscriminatorKind::Hops, DiscriminatorKind::WeightedCost] {
            let emb = CellularEmbedding::new(&g, rot.clone()).unwrap();
            prop_assert_eq!(emb.genus(), 0, "planar generators must produce genus 0");
            let net = PrNetwork::compile(&g, emb, PrMode::DistanceDiscriminator, kind);
            if let Err(msg) = deliver_all(&g, &net, &failed) {
                prop_assert!(false, "[{}] {}", kind, msg);
            }
        }
    }

    /// §4.2 (genus-0 case): basic mode covers EVERY single link
    /// failure on 2-edge-connected planar-embedded graphs.
    #[test]
    fn pr_basic_covers_all_single_failures_planar((g, rot, _) in arb_planar_scenario()) {
        let none = LinkSet::empty(g.link_count());
        prop_assume!(algo::is_two_edge_connected(&g, &none));
        let emb = CellularEmbedding::new(&g, rot).unwrap();
        let net = PrNetwork::compile(&g, emb, PrMode::Basic, DiscriminatorKind::Hops);
        for l in g.links() {
            let failed = LinkSet::from_links(g.link_count(), [l]);
            if let Err(msg) = deliver_all(&g, &net, &failed) {
                prop_assert!(false, "single failure {}: {}", l, msg);
            }
        }
    }

    /// Delivered PR paths cost at least the surviving optimum, stretch
    /// ≥ 1 against the failure-free optimum, and the header never
    /// exceeds the compiled constant width.
    #[test]
    fn stretch_and_header_invariants((g, rot, failed) in arb_planar_scenario()) {
        let emb = CellularEmbedding::new(&g, rot).unwrap();
        let net = PrNetwork::compile(&g, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
        let agent = net.agent(&g);
        let ttl = generous_ttl(&g);
        let expected_bits = usize::from(net.codec().total_bits());
        for dst in g.nodes() {
            let live_tree = SpTree::towards(&g, dst, &failed);
            let base_tree = SpTree::towards(&g, dst, &LinkSet::empty(g.link_count()));
            for src in g.nodes() {
                if src == dst {
                    continue;
                }
                let walk = walk_packet(&g, &agent, src, dst, &failed, ttl);
                prop_assert!(walk.result.is_delivered());
                prop_assert!(walk.peak_header_bits <= expected_bits);
                let taken = walk.cost(&g);
                prop_assert!(taken >= live_tree.cost(src).unwrap());
                let s = walk.stretch(&g, base_tree.cost(src).unwrap()).unwrap();
                prop_assert!(s >= 1.0);
            }
        }
    }

    /// With no failures, PR forwards exactly along the canonical
    /// shortest paths: the scheme is invisible in the failure-free
    /// case ("allows normal routing operations in failure-free
    /// scenarios"). This invariant is embedding-independent, so it
    /// runs on arbitrary random rotation systems, not just planar.
    #[test]
    fn no_failures_means_plain_shortest_paths(
        (g, rot) in with_rotation(two_edge_connected(3..14, 0..8, 1..=6))
    ) {
        let emb = CellularEmbedding::new(&g, rot).unwrap();
        let net = PrNetwork::compile(&g, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
        let agent = net.agent(&g);
        let none = LinkSet::empty(g.link_count());
        for dst in g.nodes() {
            let tree = SpTree::towards(&g, dst, &none);
            for src in g.nodes() {
                if src == dst {
                    continue;
                }
                let walk = walk_packet(&g, &agent, src, dst, &none, generous_ttl(&g));
                prop_assert!(walk.result.is_delivered());
                let canonical = path_darts(&tree, &g, src).unwrap();
                prop_assert_eq!(
                    walk.path.darts(),
                    canonical.as_slice(),
                    "failure-free PR must equal the canonical shortest path"
                );
            }
        }
    }

    /// §4.2 under one failed link, embedding-independent (any genus,
    /// parallel links, bridges): from the router behind the link a
    /// packet takes the darts of the failed dart's episode — the same
    /// for every destination — up to the destination if it sits on the
    /// episode, and otherwise to the link's far end, where it resumes
    /// along the failure-free tree; an episode that does not get there
    /// (it comes back to the deflecting router, or that router is
    /// isolated) is a drop. Both modes, both discriminators.
    #[test]
    fn one_failure_is_the_failed_darts_episode_then_the_far_ends_tree_path(
        (g, rot) in with_rotation(with_bridge_or_parallel(two_edge_connected(3..11, 0..6, 1..=6))),
        basic in any::<bool>(),
        weighted in any::<bool>(),
    ) {
        let emb = CellularEmbedding::new(&g, rot).unwrap();
        let mode = if basic { PrMode::Basic } else { PrMode::DistanceDiscriminator };
        let kind = if weighted { DiscriminatorKind::WeightedCost } else { DiscriminatorKind::Hops };
        let net = PrNetwork::compile(&g, emb, mode, kind);
        let agent = net.agent(&g);
        for out in g.darts() {
            let failed = LinkSet::from_links(g.link_count(), [out.link()]);
            let (point, far) = (g.dart_tail(out), g.dart_head(out));
            let episode: Vec<_> = agent.episode(out, &failed).collect();
            let mut rest = agent.episode(out, &failed);
            let ended_by = rest.by_ref().last().and(rest.ended_by());
            prop_assert_eq!(ended_by.is_none(), episode.is_empty());
            prop_assert!(ended_by.is_none_or(|d| d.link() == out.link()));
            let ends_at_far = ended_by.is_some_and(|d| g.dart_tail(d) == far);
            for dst in g.nodes() {
                let tree = net.base().towards(dst);
                if tree.next_dart(point) != Some(out) {
                    continue; // `point` does not route towards `dst` over the link
                }
                let walk = walk_packet(&g, &agent, point, dst, &failed, generous_ttl(&g));
                let inside = episode.iter().position(|d| g.dart_head(*d) == dst);
                let expected = match inside {
                    Some(last) => Some(episode[..=last].to_vec()),
                    None if ends_at_far => {
                        Some([&episode[..], &path_darts(tree, &g, far).unwrap()].concat())
                    }
                    None => None,
                };
                match expected {
                    Some(darts) => {
                        prop_assert!(walk.result.is_delivered(), "{} -> {}: {:?}", point, dst, walk);
                        prop_assert_eq!(walk.path.darts(), darts.as_slice());
                    }
                    None => prop_assert!(!walk.result.is_delivered(), "{} -> {}", point, dst),
                }
            }
        }
    }

    /// When failures disconnect src from dst, PR never delivers across
    /// the cut and never claims success: packets end in a detected
    /// loop or isolation (embedding-independent).
    #[test]
    fn disconnection_is_detected_not_miracled(
        g in two_edge_connected(4..12, 2..3, 1..=4),
        pick in 0u32..u32::MAX,
    ) {
        let victim = NodeId(pick % g.node_count() as u32);
        let mut failed = LinkSet::empty(g.link_count());
        for &d in g.darts_from(victim) {
            failed.insert(d.link());
        }
        let emb = CellularEmbedding::new(&g, RotationSystem::identity(&g)).unwrap();
        let net = PrNetwork::compile(&g, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
        let agent = net.agent(&g);
        for src in g.nodes() {
            if src == victim {
                continue;
            }
            let walk = walk_packet(&g, &agent, src, victim, &failed, generous_ttl(&g));
            match walk.result {
                WalkResult::Dropped(DropReason::ForwardingLoop | DropReason::Isolated) => {}
                other => prop_assert!(false, "{}->{}: expected loop/isolated, got {:?}", src, victim, other),
            }
        }
    }
}

/// **Pinned finding**: the delivery guarantee is genus-dependent. On
/// K5 (orientable genus 1 — no planar embedding exists) there are
/// minimum-genus rotation systems and non-disconnecting 3-failure sets
/// for which PR-DD livelocks. The §5 region-boundary argument is a
/// sphere argument and does not carry over to positive genus.
///
/// (Exhaustive data: of K5's 7776 rotation systems, every one has
/// genus ≥ 1, and a substantial fraction at each genus livelocks on
/// this failure set — run `cargo run --release -p pr-core --example
/// diagnose_genus_livelock` for the table.)
#[test]
fn k5_genus_one_counterexample_livelocks() {
    let mut g = Graph::new();
    for i in 0..5 {
        g.add_node(format!("{i}")).unwrap();
    }
    let links = [
        (3, 4, 2),
        (4, 2, 4),
        (2, 0, 1),
        (0, 1, 3),
        (1, 3, 3),
        (2, 3, 2),
        (2, 1, 6),
        (0, 3, 3),
        (0, 4, 2),
        (4, 1, 5),
    ];
    for (a, b, w) in links {
        g.add_link(NodeId(a), NodeId(b), w).unwrap();
    }
    let failed = LinkSet::from_links(g.link_count(), [LinkId(1), LinkId(2), LinkId(4)]);
    assert!(algo::is_connected(&g, &failed), "the failure set must not disconnect K5");

    // Find a livelocking rotation by scanning random rotation systems
    // (the diagnostic example shows ~1/3 of them livelock, so this
    // terminates almost immediately).
    let mut rng = StdRng::seed_from_u64(1);
    let mut found_livelock = false;
    let mut found_genus = 0;
    for _ in 0..200 {
        let rot = RotationSystem::random(&g, &mut rng);
        let emb = CellularEmbedding::new(&g, rot).unwrap();
        let genus = emb.genus();
        let net =
            PrNetwork::compile(&g, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
        let agent = net.agent(&g);
        let mut livelocked = false;
        for src in g.nodes() {
            for dst in g.nodes() {
                if src == dst {
                    continue;
                }
                let walk = walk_packet(&g, &agent, src, dst, &failed, generous_ttl(&g));
                if walk.result == WalkResult::Dropped(DropReason::ForwardingLoop) {
                    livelocked = true;
                }
            }
        }
        if livelocked {
            found_livelock = true;
            found_genus = genus;
            break;
        }
    }
    assert!(found_livelock, "expected to find a livelocking rotation system of K5 (genus >= 1)");
    assert!(found_genus >= 1, "K5 has no genus-0 rotation system");
}

/// Exhaustive (not sampled) check on the three ISP topologies with
/// production (`thorough`, genus-0) embeddings: every single link
/// failure, every (src, dst) pair, both modes.
#[test]
fn isp_topologies_single_failure_exhaustive() {
    for isp in pr_topologies::Isp::ALL {
        let g = pr_topologies::load(isp, pr_topologies::Weighting::Distance);
        let rot = pr_embedding::heuristics::thorough(&g, 2010, 8, 60_000);
        for mode in [PrMode::Basic, PrMode::DistanceDiscriminator] {
            let emb = CellularEmbedding::new(&g, rot.clone()).unwrap();
            assert_eq!(emb.genus(), 0, "{isp}: thorough search must find the planar embedding");
            let net = PrNetwork::compile(&g, emb, mode, DiscriminatorKind::Hops);
            for l in g.links() {
                let failed = LinkSet::from_links(g.link_count(), [l]);
                deliver_all(&g, &net, &failed)
                    .unwrap_or_else(|msg| panic!("{isp} [{mode}] failing {l}: {msg}"));
            }
        }
    }
}

/// Exhaustive dual-failure check on Abilene: every non-disconnecting
/// pair of links must deliver under PR-DD.
#[test]
fn abilene_dual_failures_exhaustive() {
    let g = pr_topologies::load(pr_topologies::Isp::Abilene, pr_topologies::Weighting::Distance);
    let rot = pr_embedding::heuristics::thorough(&g, 2010, 4, 20_000);
    let emb = CellularEmbedding::new(&g, rot).unwrap();
    assert_eq!(emb.genus(), 0);
    let net = PrNetwork::compile(&g, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
    let mut checked = 0;
    for l1 in g.links() {
        for l2 in g.links() {
            if l2.index() <= l1.index() {
                continue;
            }
            let failed = LinkSet::from_links(g.link_count(), [l1, l2]);
            if !algo::is_connected(&g, &failed) {
                continue;
            }
            deliver_all(&g, &net, &failed)
                .unwrap_or_else(|msg| panic!("abilene failing {{{l1},{l2}}}: {msg}"));
            checked += 1;
        }
    }
    assert!(checked > 50, "expected most dual-failure combinations to be connected");
}
