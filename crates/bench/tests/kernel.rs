//! The unit kernel against its definitions.
//!
//! **First step.**
//! Every topological sweep gets its sources from
//! [`ConeOpener::open`](pr_bench::engine::ConeOpener::open). For each
//! (failed set, destination) unit the opener must yield exactly the
//! sources whose failure-free path crosses a failed link — all nodes
//! filtered through `SpTree::path_crosses`, in node order — each with
//! the cost a from-scratch Dijkstra over the survivor graph gives it
//! (`None` when the failure cut it off), and nothing for a unit no
//! path of which crosses a failure. One opener serves every unit of a
//! fixture, as a sweep worker's does.
//!
//! **Lanes.** Every scheme a sweep walks — PR basic and DD, FCP,
//! LFA, not-via — answers a source through
//! [`FlowUnit::walk`](pr_core::FlowUnit::walk): one walk per failure
//! point, every source behind it by arithmetic. Each answer must be
//! plain `walk_packet`'s on the same flow, over fixtures that drive
//! every shape a unit's groups take ([`GroupShapes`]), the named ones
//! of the kit's table among them. The FCP lane is the
//! sweeps' own [`FcpLane`] — closed form under one failure, walked
//! under more — held to the honest recompute-per-decision agent, and
//! the PR lanes are the sweeps' own [`PrLane`]: a single failure priced
//! from its failed dart's episode, anything else walked, under either
//! mode, either discriminator and any hop budget.

use pr_baselines::{FcpAgent, LfaAgent, NotViaAgent};
use pr_bench::engine::{ConeOpener, ConePlan, SweepUnit};
use pr_bench::fcp_lane::{FcpLane, FcpUnit};
use pr_bench::pr_lane::{PrLane, PrUnit};
use pr_core::{
    generous_ttl, walk_packet, DiscriminatorKind, DropReason, FlowScratch, FlowUnit, FlowWalk,
    ForwardingAgent, PrAgent, PrMode, PrNetwork, WalkResult,
};
use pr_embedding::CellularEmbedding;
use pr_graph::{algo, Graph, LinkSet, NodeId, SpTree};
use pr_testkit::fixtures;
use pr_testkit::nets::{self, Net};
use pr_testkit::shapes::{point_by_definition, GroupShapes};
use pr_testkit::strategies::{
    random_links, two_edge_connected, with_bridge_or_parallel, with_rotation,
};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

/// What the fixture exercised, so a vacuous pass cannot hide.
#[derive(Default)]
struct Seen {
    empty_cones: usize,
    cut_off_sources: usize,
    disconnecting_sets: usize,
}

fn check_scenario(
    plan: &ConePlan<'_>,
    opener: &mut ConeOpener<'_>,
    scenario: usize,
    failed: &LinkSet,
    seen: &mut Seen,
) {
    let g: &Graph = plan.graph();
    seen.disconnecting_sets += usize::from(!algo::is_connected(g, failed));
    for dst in g.nodes() {
        let base_tree = plan.base().towards(dst);
        let live = SpTree::towards(g, dst, failed);
        let expected: Vec<(NodeId, Option<u64>)> = g
            .nodes()
            .filter(|&src| base_tree.path_crosses(g, src, failed))
            .map(|src| (src, live.cost(src)))
            .collect();
        let unit = SweepUnit { scenario, failed, failures: failed.len(), dst, base_tree };
        let yielded: Vec<(NodeId, Option<u64>)> = opener.open(&unit).collect();
        assert_eq!(yielded, expected, "failed {failed:?}, destination {dst}");
        let repairs = opener.take_stats().repairs;
        assert_eq!(repairs, u64::from(!expected.is_empty()), "an empty cone repairs nothing");
        seen.empty_cones += usize::from(expected.is_empty());
        seen.cut_off_sources += expected.iter().filter(|(_, cost)| cost.is_none()).count();
    }
}

#[test]
fn abilene_exhaustive_singles_and_pairs_open_to_their_definition() {
    let Net { g, base, .. } = Net::abilene();
    let plan = ConePlan::new(&g, &base);
    let mut opener = plan.opener();
    let mut seen = Seen::default();
    for (scenario, failed) in fixtures::exhaustive(&g, 1..=2).iter().enumerate() {
        check_scenario(&plan, &mut opener, scenario, failed, &mut seen);
    }
    assert!(seen.empty_cones > 0, "some unit must be untouched by its failure");
    assert!(seen.disconnecting_sets > 0, "some pair of Abilene's links is a cut");
    assert!(seen.cut_off_sources > 0);
}

#[test]
fn positive_genus_mesh_sampled_sets_open_to_their_definition() {
    // The mesh `tests/determinism.rs` sweeps under the identity
    // rotation; the opener itself never sees an embedding.
    let Net { g, base, .. } = Net::identity(nets::synth("isp:24:7"));
    let plan = ConePlan::new(&g, &base);
    let mut opener = plan.opener();
    let mut seen = Seen::default();
    for (scenario, failed) in any_subsets(&g, 160, 2010).iter().enumerate() {
        check_scenario(&plan, &mut opener, scenario, failed, &mut seen);
    }
    assert!(seen.empty_cones > 0);
    assert!(seen.disconnecting_sets > 0, "the sample must include cuts");
    assert!(seen.cut_off_sources > 0);
}

/// `count` subsets of 1 to 4 of `g`'s links, cuts included.
fn any_subsets(g: &Graph, count: usize, seed: u64) -> Vec<LinkSet> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|scenario| random_links(g, 1 + scenario % 4, &mut rng)).collect()
}

/// Holds one scheme's lane to plain `walk_packet`: every source of
/// every destination under `failed`, through one unit per destination.
/// The shapes its groups take are read off `net.base`, the oracle's
/// trees, by the points' definition.
fn check_lane<A: ForwardingAgent>(
    net: &Net,
    plan: &ConePlan<'_>,
    agent: &A,
    scratch: &mut FlowScratch<A::State>,
    failed: &LinkSet,
    ttl: usize,
    seen: &mut GroupShapes,
) where
    A::State: std::hash::Hash + Eq,
{
    seen.observe(&net.g, &net.base, agent, failed, ttl, ttl);
    for dst in plan.graph().nodes() {
        let tree = plan.base().towards(dst);
        let mut unit = scratch.unit(plan.graph(), agent, tree, failed);
        check_unit(plan.graph(), agent, &mut unit, tree, failed, ttl);
    }
}

/// Every source towards `tree.dest` through the open `unit`, against
/// `walk_packet` under `reference` — the unit's own agent, or one that
/// must decide as it does — and its point against the definition.
fn check_unit<A: ForwardingAgent>(
    g: &Graph,
    reference: &A,
    unit: &mut FlowUnit<'_, A>,
    tree: &SpTree,
    failed: &LinkSet,
    ttl: usize,
) where
    A::State: std::hash::Hash + Eq,
{
    let dst = tree.dest;
    for src in g.nodes().filter(|&src| src != dst) {
        let label = format!("{} failed {failed:?} {src}->{dst} ttl {ttl}", reference.label());
        let want = walk_packet(g, reference, src, dst, failed, ttl);
        let got = unit.walk(src, ttl);
        assert_eq!(got.is_delivered(), want.result.is_delivered(), "{label}");
        if let FlowWalk::Recovered { cost, hops } = got {
            assert_eq!(cost, want.cost(g), "{label}");
            assert_eq!(hops as usize, want.path.hop_count(), "{label}");
        }
        let point = point_by_definition(g, reference, tree, src, failed);
        assert_eq!(unit.point_of(src), point, "{label}");
    }
}

/// Holds the sweeps' FCP lane, opened as they open it, to the honest
/// agent under `failed` at the plan's ttl: a priced unit for every
/// source of its cone (cut-off ones too), a walked one as any lane.
/// Returns how many sources were priced.
fn check_fcp_lane<'a>(
    net: &Net,
    plan: &ConePlan<'a>,
    lane: &mut FcpLane<'a>,
    opener: &mut ConeOpener<'_>,
    failed: &LinkSet,
    seen: &mut GroupShapes,
) -> usize {
    let (g, ttl) = (plan.graph(), plan.ttl());
    let honest = FcpAgent::new(g);
    if failed.len() > 1 {
        seen.observe(g, &net.base, &honest, failed, ttl, ttl);
    }
    let mut priced_sources = 0;
    lane.begin_scenario();
    for dst in g.nodes() {
        let base_tree = plan.base().towards(dst);
        let unit = SweepUnit { scenario: 0, failed, failures: failed.len(), dst, base_tree };
        let cone = opener.open(&unit);
        match lane.unit(&unit, &cone) {
            FcpUnit::Walked(mut walks, _) => {
                assert!(failed.len() > 1, "one failure is priced, not walked");
                check_unit(g, &honest, &mut walks, base_tree, failed, ttl);
            }
            mut priced => {
                for (src, _) in cone {
                    let want = walk_packet(g, &honest, src, dst, failed, ttl);
                    let want = want.result.is_delivered().then(|| want.cost(g));
                    assert_eq!(priced.cost(src), want, "fcp failed {failed:?} {src}->{dst}");
                    priced_sources += 1;
                }
            }
        }
    }
    priced_sources
}

/// What the PR lane's checks saw of its closed form, so a vacuous pass
/// cannot hide. Told from `walk_packet`'s path and the tree, never from
/// the lane.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct PrSeen {
    /// Units of one failed link the lane priced.
    priced_units: usize,
    /// Priced sources delivered inside the detour: the packet never
    /// came to the failed link's far end.
    inside_deliveries: usize,
    /// Priced sources whose destination is the far end itself.
    far_end_deliveries: usize,
    /// Units of one failed link the lane walked all the same: their
    /// episode does not reach the far end.
    fallback_units: usize,
    /// Priced sources the hop budget ran out on.
    spent_budgets: usize,
}

/// Holds a sweep's PR lane, opened as the sweeps open it, to plain
/// `walk_packet` under the lane's own agent: every source of every
/// unit's cone under `failed` — outcome, cost and hops — at `ttl`.
fn check_pr_lane<'a>(
    plan: &ConePlan<'a>,
    agent: PrAgent<'a>,
    lane: &mut PrLane<'a>,
    opener: &mut ConeOpener<'_>,
    failed: &LinkSet,
    ttl: usize,
    seen: &mut PrSeen,
) {
    let g = plan.graph();
    for dst in g.nodes() {
        let base_tree = plan.base().towards(dst);
        let unit = SweepUnit { scenario: 0, failed, failures: failed.len(), dst, base_tree };
        let sources: Vec<NodeId> = opener.open(&unit).map(|(src, _)| src).collect();
        if sources.is_empty() {
            continue;
        }
        let mut pr = lane.unit(&unit);
        let priced = matches!(pr, PrUnit::Priced(..));
        assert!(!priced || failed.len() == 1, "only one failure has a closed form");
        seen.priced_units += usize::from(priced);
        seen.fallback_units += usize::from(!priced && failed.len() == 1);
        // The far end of the one failed link: the head of the tree dart
        // that crosses it.
        let far = g.links().find(|&l| failed.contains(l)).map(|link| {
            let (a, b) = g.endpoints(link);
            if base_tree.next_dart(a).is_some_and(|d| d.link() == link) {
                b
            } else {
                a
            }
        });
        for src in sources {
            let label = format!("{} failed {failed:?} {src}->{dst} ttl {ttl}", agent.label());
            let want = walk_packet(g, &agent, src, dst, failed, ttl);
            let got = pr.walk(src, ttl);
            assert_eq!(got.is_delivered(), want.result.is_delivered(), "{label}");
            if let FlowWalk::Recovered { cost, hops } = got {
                assert_eq!(cost, want.cost(g), "{label}");
                assert_eq!(hops as usize, want.path.hop_count(), "{label}");
            }
            if !priced {
                continue;
            }
            let far = far.expect("a priced unit has one failed link");
            match want.result {
                WalkResult::Delivered if dst == far => seen.far_end_deliveries += 1,
                WalkResult::Delivered => {
                    let through_far = want.path.darts().iter().any(|d| g.dart_head(*d) == far);
                    seen.inside_deliveries += usize::from(!through_far);
                }
                WalkResult::Dropped(reason) => {
                    assert_eq!(reason, DropReason::TtlExpired, "{label}: a priced path is simple");
                    seen.spent_budgets += 1;
                }
            }
        }
    }
}

/// The three protocol configurations of a PR network over `net`'s
/// embedding: DD with either discriminator, and basic.
fn pr_configurations(net: &Net) -> [PrNetwork; 3] {
    let compile = |mode, kind| {
        let embedding: CellularEmbedding = net.pr.embedding().clone();
        PrNetwork::compile(&net.g, embedding, mode, kind)
    };
    [
        compile(PrMode::DistanceDiscriminator, DiscriminatorKind::Hops),
        compile(PrMode::DistanceDiscriminator, DiscriminatorKind::WeightedCost),
        compile(PrMode::Basic, DiscriminatorKind::Hops),
    ]
}

/// [`check_pr_lane`] over every configuration of `net` under each
/// failed set, at a budget nothing exhausts and at a tight one.
fn check_pr_lanes(net: &Net, sets: &[LinkSet]) -> PrSeen {
    let g = &net.g;
    let mut total = PrSeen::default();
    for configuration in pr_configurations(net) {
        let plan = ConePlan::new(g, configuration.base());
        let agent = configuration.agent(g);
        let (mut lane, mut opener) = (PrLane::new(&plan, agent), plan.opener());
        let mut seen = PrSeen::default();
        for failed in sets {
            for ttl in [plan.ttl(), g.node_count() / 2] {
                check_pr_lane(&plan, agent, &mut lane, &mut opener, failed, ttl, &mut seen);
            }
        }
        // One episode per unit of one failed link, priced or not, at
        // either budget.
        assert_eq!(lane.take_episodes(), (seen.priced_units + seen.fallback_units) as u64);
        total.priced_units += seen.priced_units;
        total.inside_deliveries += seen.inside_deliveries;
        total.far_end_deliveries += seen.far_end_deliveries;
        total.fallback_units += seen.fallback_units;
        total.spent_budgets += seen.spent_budgets;
    }
    total
}

/// All five lanes of the coverage sweep (the stretch sweep's two are
/// among them) over `net`'s topology and embedding under each failed
/// set, on the trees the network lends out as the sweeps run them.
fn check_lanes(net: &Net, sets: &[LinkSet], ttl: usize) -> GroupShapes {
    let (g, dd) = (&net.g, &net.pr);
    let basic =
        PrNetwork::compile(g, dd.embedding().clone(), PrMode::Basic, DiscriminatorKind::Hops);
    let plan = ConePlan::new(g, dd.base());
    let fcp = FcpAgent::cached_with_base(g, plan.base());
    let mut fcp_lane = FcpLane::new(&plan);
    let (lfa, notvia) = (LfaAgent::compute(g), NotViaAgent::compute(g));
    let (mut basic_walks, mut dd_walks) = (FlowScratch::new(), FlowScratch::new());
    let (mut fcp_walks, mut lfa_walks, mut notvia_walks) =
        (FlowScratch::new(), FlowScratch::new(), FlowScratch::new());
    let mut opener = plan.opener();
    let mut seen = GroupShapes::default();
    for failed in sets {
        check_lane(net, &plan, &basic.agent(g), &mut basic_walks, failed, ttl, &mut seen);
        check_lane(net, &plan, &dd.agent(g), &mut dd_walks, failed, ttl, &mut seen);
        if ttl == plan.ttl() {
            check_fcp_lane(net, &plan, &mut fcp_lane, &mut opener, failed, &mut seen);
        } else {
            // The closed form holds under the plan's budget only, and a
            // tight one is here for `FlowUnit::walk`'s TTL fallback,
            // which only a walked unit has: FCP walks like the others.
            fcp.begin_scenario();
            check_lane(net, &plan, &fcp, &mut fcp_walks, failed, ttl, &mut seen);
        }
        check_lane(net, &plan, &lfa, &mut lfa_walks, failed, ttl, &mut seen);
        check_lane(net, &plan, &notvia, &mut notvia_walks, failed, ttl, &mut seen);
    }
    // The lane's route memo fills for walked units alone.
    let walked = ttl == plan.ttl() && sets.iter().any(|failed| failed.len() > 1);
    assert_eq!(fcp_lane.take_route_stats().repaired > 0, walked);
    seen
}

#[test]
fn every_lane_answers_as_walk_packet_on_abilene_singles_and_pairs() {
    let net = Net::abilene();
    let g = &net.g;
    let sets = fixtures::exhaustive(g, 1..=2);
    let seen = check_lanes(&net, &sets, generous_ttl(g));
    assert!(seen.point_at_cone_root && seen.nested_points, "{seen:?}");
    assert!(seen.point_off_the_failed_tree && seen.interleaved_points, "{seen:?}");
    assert!(seen.point_at_destination, "{seen:?}");
    assert!(seen.dropped_point, "LFA does not protect every pair: {seen:?}");
    assert!(!seen.ttl_fallback, "{seen:?}");
    // A budget most detours fit and the longest do not: sources far
    // behind a point run out where the point itself still arrives.
    let seen = check_lanes(&net, &sets, g.node_count() / 2);
    assert!(seen.ttl_fallback, "{seen:?}");
}

#[test]
fn every_lane_answers_as_walk_packet_where_pr_walks_livelock() {
    // Identity rotation: positive genus, so connected PR points drop.
    let net = Net::identity(nets::synth("isp:24:7"));
    let sets = any_subsets(&net.g, 60, 7);
    for ttl in [generous_ttl(&net.g), net.g.node_count()] {
        let seen = check_lanes(&net, &sets, ttl);
        assert!(seen.dropped_point && seen.nested_points, "ttl {ttl}: {seen:?}");
        assert!(seen.interleaved_points, "ttl {ttl}: {seen:?}");
    }
}

#[test]
fn the_fcp_lane_prices_every_single_failure_as_the_honest_agent_walks() {
    for net in [Net::abilene(), Net::identity(nets::synth("isp:24:7"))] {
        let g = &net.g;
        let plan = ConePlan::new(g, &net.base);
        let (mut lane, mut opener) = (FcpLane::new(&plan), plan.opener());
        let mut priced = 0;
        for link in g.links() {
            let failed = LinkSet::from_links(g.link_count(), [link]);
            let seen = &mut GroupShapes::default();
            priced += check_fcp_lane(&net, &plan, &mut lane, &mut opener, &failed, seen);
        }
        // Every link is on some tree, and nothing was walked for it.
        assert!(priced >= 2 * g.link_count(), "{priced} sources priced");
        assert_eq!(lane.take_route_stats(), pr_baselines::RouteStats::default());
    }
}

#[test]
fn the_fcp_lane_groups_by_where_a_failure_is_learnt() {
    // Every named case of the kit's table through all five lanes —
    // the pair that told "where a failure is learnt" from "where the
    // tree breaks" among them.
    for fixture in fixtures::TABLE {
        let net = (fixture.net)();
        let seen = check_lanes(&net, &(fixture.failed_sets)(&net.g), generous_ttl(&net.g));
        assert!((fixture.drives)(&seen), "{}: {seen:?}", fixture.name);
    }
}

/// Every single-link failure of `g`, one set each.
fn single_links(g: &Graph) -> Vec<LinkSet> {
    g.links().map(|link| LinkSet::from_links(g.link_count(), [link])).collect()
}

#[test]
fn the_pr_lane_prices_every_single_failure_as_walk_packet_walks() {
    // Planar embeddings of 2-edge-connected maps: every unit is priced.
    for net in [Net::abilene(), Net::figure1(), Net::searched(nets::synth("isp:24:7"))] {
        let seen = check_pr_lanes(&net, &single_links(&net.g));
        // Three configurations at two budgets, and every link is on the
        // tree of either endpoint at least.
        assert!(seen.priced_units >= 3 * 2 * 2 * net.g.link_count(), "{seen:?}");
        assert!(seen.inside_deliveries > 0 && seen.far_end_deliveries > 0, "{seen:?}");
        assert_eq!(seen.fallback_units, 0, "genus 0, no bridge: {seen:?}");
        assert!(seen.spent_budgets > 0, "the tight budget must run out somewhere: {seen:?}");
    }
    // Positive genus: some episodes come back to where they started,
    // and those units are walked — to a drop.
    let net = Net::identity(nets::synth("isp:24:7"));
    let seen = check_pr_lanes(&net, &single_links(&net.g));
    assert!(seen.priced_units > 0 && seen.fallback_units > 0, "{seen:?}");
}

#[test]
fn the_pr_lane_walks_what_it_cannot_price() {
    // Two or more failures, cuts included, on a positive-genus mesh:
    // nothing is priced, and the lane answers as the walker does.
    let net = Net::identity(nets::synth("isp:24:7"));
    let sets: Vec<LinkSet> =
        any_subsets(&net.g, 40, 2010).into_iter().filter(|failed| failed.len() > 1).collect();
    let seen = check_pr_lanes(&net, &sets);
    assert_eq!(seen, PrSeen::default());
}

#[test]
fn the_pr_lane_meets_each_named_case_of_its_closed_form() {
    // The kit's three PR rows, each for the case it is named after; a
    // pass that saw no priced unit, no delivery inside a detour and no
    // fallback checked nothing.
    let case = |name: &str| {
        let fixture = fixtures::TABLE.iter().find(|f| f.name == name).expect("a named fixture");
        let net = (fixture.net)();
        check_pr_lanes(&net, &(fixture.failed_sets)(&net.g))
    };
    let inside = case("pr-delivers-inside-the-detour");
    assert!(inside.priced_units > 0 && inside.inside_deliveries > 0, "{inside:?}");
    let far_end = case("pr-destination-is-the-far-end");
    assert!(far_end.priced_units > 0 && far_end.far_end_deliveries > 0, "{far_end:?}");
    let returns = case("pr-episode-returns-to-the-point");
    assert!(returns.fallback_units > 0, "{returns:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Wherever the lane prices — any genus, parallel links, bridges,
    /// either mode, either discriminator, a generous budget or a tight
    /// one — a source is answered as the unit's walker answers it.
    #[test]
    fn a_priced_pr_unit_answers_as_the_walked_one(
        (g, rot) in with_rotation(with_bridge_or_parallel(two_edge_connected(3..11, 0..6, 1..=6))),
        basic in any::<bool>(),
        weighted in any::<bool>(),
        tight in any::<bool>(),
    ) {
        let emb = CellularEmbedding::new(&g, rot).unwrap();
        let mode = if basic { PrMode::Basic } else { PrMode::DistanceDiscriminator };
        let kind = if weighted { DiscriminatorKind::WeightedCost } else { DiscriminatorKind::Hops };
        let net = PrNetwork::compile(&g, emb, mode, kind);
        let plan = ConePlan::new(&g, net.base());
        let agent = net.agent(&g);
        let ttl = if tight { g.node_count() / 2 } else { plan.ttl() };
        let (mut lane, mut opener, mut walks) =
            (PrLane::new(&plan, agent), plan.opener(), FlowScratch::new());
        for failed in single_links(&g) {
            for dst in g.nodes() {
                let base_tree = plan.base().towards(dst);
                let unit = SweepUnit { scenario: 0, failed: &failed, failures: 1, dst, base_tree };
                let sources: Vec<NodeId> = opener.open(&unit).map(|(src, _)| src).collect();
                let mut priced = lane.unit(&unit);
                if sources.is_empty() || matches!(priced, PrUnit::Walked(_)) {
                    continue;
                }
                let mut walked = walks.unit(&g, &agent, base_tree, &failed);
                for src in sources {
                    // A spent budget has one reason on either side; a
                    // priced unit knows no other drop.
                    prop_assert_eq!(priced.walk(src, ttl), walked.walk(src, ttl), "{} -> {}", src, dst);
                }
            }
        }
    }
}
