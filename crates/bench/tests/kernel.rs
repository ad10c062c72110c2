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
//! every shape a unit's groups take ([`Groups`]). The FCP lane is the
//! sweeps' own [`FcpLane`] — closed form under one failure, walked
//! under more — held to the honest recompute-per-decision agent.

use pr_baselines::{FcpAgent, LfaAgent, NotViaAgent};
use pr_bench::engine::{ConeOpener, ConePlan, SweepUnit};
use pr_bench::fcp_lane::{FcpLane, FcpUnit};
use pr_core::{
    generous_ttl, walk_packet, DiscriminatorKind, FlowScratch, FlowUnit, FlowWalk, ForwardingAgent,
    PrMode, PrNetwork,
};
use pr_embedding::{CellularEmbedding, RotationSystem};
use pr_graph::{algo, AllPairs, Graph, LinkId, LinkSet, NodeId, SpTree};
use pr_scenarios::{ExhaustiveKFailures, ScenarioFamily};
use pr_topologies::{Isp, Weighting};
use rand::{rngs::StdRng, Rng, SeedableRng};

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
        let unit = SweepUnit { scenario, failed, dst, base_tree };
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
    let g = pr_topologies::load(Isp::Abilene, Weighting::Distance);
    let base = AllPairs::compute_all_live(&g);
    let plan = ConePlan::new(&g, &base);
    let mut opener = plan.opener();
    let mut seen = Seen::default();
    for k in [1, 2] {
        let family = ExhaustiveKFailures::new(&g, k);
        for i in 0..family.len() {
            check_scenario(&plan, &mut opener, i, &family.scenario(i), &mut seen);
        }
    }
    assert!(seen.empty_cones > 0, "some unit must be untouched by its failure");
    assert!(seen.disconnecting_sets > 0, "some pair of Abilene's links is a cut");
    assert!(seen.cut_off_sources > 0);
}

#[test]
fn positive_genus_mesh_sampled_sets_open_to_their_definition() {
    // The mesh `tests/determinism.rs` sweeps under the identity
    // rotation; the opener itself never sees an embedding.
    let g = pr_graph::generators::synth_from_spec("isp:24:7").expect("synth spec");
    let base = AllPairs::compute_all_live(&g);
    let plan = ConePlan::new(&g, &base);
    let mut opener = plan.opener();
    let mut rng = StdRng::seed_from_u64(2010);
    let mut seen = Seen::default();
    for scenario in 0..160 {
        // Any k-subset of the links, cuts included.
        let k = 1 + scenario % 4;
        let mut failed = LinkSet::empty(g.link_count());
        while failed.len() < k {
            failed.insert(LinkId(rng.gen_range(0..g.link_count() as u32)));
        }
        check_scenario(&plan, &mut opener, scenario, &failed, &mut seen);
    }
    assert!(seen.empty_cones > 0);
    assert!(seen.disconnecting_sets > 0, "the sample must include cuts");
    assert!(seen.cut_off_sources > 0);
}

/// The shapes the groups of a unit took, OR-ed over every unit and
/// lane of a fixture, so a vacuous pass cannot hide.
#[derive(Debug, Default)]
struct Groups {
    /// A point that is the root of an outermost cone.
    point_at_cone_root: bool,
    /// A point on the tree path of another point of the unit.
    nested_points: bool,
    /// A point whose own tree dart is live — FCP learning a failure
    /// next to the path, not on it.
    point_off_the_failed_tree: bool,
    /// Two points of a unit whose sources interleave in source order.
    interleaved_points: bool,
    /// A point the survivor graph connects whose walk is dropped.
    dropped_point: bool,
    /// A source walked on its own because its prefix plus the point's
    /// walk does not fit the budget.
    ttl_fallback: bool,
    /// An unaffected source: its point is the destination.
    point_at_destination: bool,
}

/// Holds one scheme's lane to plain `walk_packet`: every source of
/// every destination under `failed`, through one unit per destination.
fn check_lane<A: ForwardingAgent>(
    plan: &ConePlan<'_>,
    agent: &A,
    scratch: &mut FlowScratch<A::State>,
    failed: &LinkSet,
    ttl: usize,
    seen: &mut Groups,
) where
    A::State: std::hash::Hash + Eq,
{
    for dst in plan.graph().nodes() {
        let tree = plan.base().towards(dst);
        let mut unit = scratch.unit(plan.graph(), agent, tree, failed);
        check_unit(plan.graph(), agent, &mut unit, tree, failed, ttl, seen);
    }
}

/// Every source towards `tree.dest` through the open `unit`, against
/// `walk_packet` under `reference` — the unit's own agent, or one that
/// must decide as it does.
fn check_unit<A: ForwardingAgent>(
    g: &Graph,
    reference: &A,
    unit: &mut FlowUnit<'_, A>,
    tree: &SpTree,
    failed: &LinkSet,
    ttl: usize,
    seen: &mut Groups,
) where
    A::State: std::hash::Hash + Eq,
{
    let dst = tree.dest;
    let live = SpTree::towards(g, dst, failed);
    let mut points = Vec::new();
    for src in g.nodes().filter(|&src| src != dst) {
        let label = format!("{} failed {failed:?} {src}->{dst} ttl {ttl}", reference.label());
        let want = walk_packet(g, reference, src, dst, failed, ttl);
        let got = unit.walk(src, ttl);
        assert_eq!(got.is_delivered(), want.result.is_delivered(), "{label}");
        if let FlowWalk::Recovered { cost, hops } = got {
            assert_eq!(cost, want.cost(g), "{label}");
            assert_eq!(hops as usize, want.path.hop_count(), "{label}");
        }
        let point = unit.point_of(src);
        seen.point_at_destination |= point == dst;
        if point != dst {
            points.push(point);
            let reached = walk_packet(g, reference, point, dst, failed, ttl);
            seen.dropped_point |= live.reaches(point) && !reached.result.is_delivered();
            seen.ttl_fallback |= reached.result.is_delivered() && !got.is_delivered();
        }
    }
    seen.interleaved_points |= points.iter().enumerate().any(|(i, point)| {
        let last = points.iter().rposition(|other| other == point).unwrap();
        points[i..last].iter().any(|other| other != point)
    });
    points.sort_unstable();
    points.dedup();
    for &point in &points {
        let above = tree.path_darts(g, point).expect("connected base graph");
        let below_a_failed_edge = failed.contains_dart(above[0]);
        let outermost = !above[1..].iter().any(|d| failed.contains_dart(*d));
        seen.point_at_cone_root |= below_a_failed_edge && outermost;
        seen.point_off_the_failed_tree |= !below_a_failed_edge;
        seen.nested_points |= above.iter().any(|d| points.binary_search(&g.dart_head(*d)).is_ok());
    }
}

/// Holds the sweeps' FCP lane, opened as they open it, to the honest
/// agent under `failed` at the plan's ttl: a priced unit for every
/// source of its cone (cut-off ones too), a walked one as any lane.
/// Returns how many sources were priced.
fn check_fcp_lane<'a>(
    plan: &ConePlan<'a>,
    lane: &mut FcpLane<'a>,
    opener: &mut ConeOpener<'_>,
    failed: &LinkSet,
    seen: &mut Groups,
) -> usize {
    let (g, ttl) = (plan.graph(), plan.ttl());
    let honest = FcpAgent::new(g);
    let mut priced_sources = 0;
    lane.begin_scenario();
    for dst in g.nodes() {
        let base_tree = plan.base().towards(dst);
        let unit = SweepUnit { scenario: 0, failed, dst, base_tree };
        let cone = opener.open(&unit);
        match lane.unit(&unit, &cone) {
            FcpUnit::Walked(mut walks, _) => {
                assert!(failed.len() > 1, "one failure is priced, not walked");
                check_unit(g, &honest, &mut walks, base_tree, failed, ttl, seen);
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

/// All five lanes of the coverage sweep (the stretch sweep's two are
/// among them) under each failed set.
fn check_lanes(g: &Graph, rotation: RotationSystem, sets: &[LinkSet], ttl: usize) -> Groups {
    let embedding = CellularEmbedding::new(g, rotation).expect("connected");
    let compile = |mode| PrNetwork::compile(g, embedding.clone(), mode, DiscriminatorKind::Hops);
    let (basic, dd) = (compile(PrMode::Basic), compile(PrMode::DistanceDiscriminator));
    let plan = ConePlan::new(g, dd.base());
    let fcp = FcpAgent::cached_with_base(g, plan.base());
    let mut fcp_lane = FcpLane::new(&plan);
    let (lfa, notvia) = (LfaAgent::compute(g), NotViaAgent::compute(g));
    let (mut basic_walks, mut dd_walks) = (FlowScratch::new(), FlowScratch::new());
    let (mut fcp_walks, mut lfa_walks, mut notvia_walks) =
        (FlowScratch::new(), FlowScratch::new(), FlowScratch::new());
    let mut opener = plan.opener();
    let mut seen = Groups::default();
    for failed in sets {
        check_lane(&plan, &basic.agent(g), &mut basic_walks, failed, ttl, &mut seen);
        check_lane(&plan, &dd.agent(g), &mut dd_walks, failed, ttl, &mut seen);
        if ttl == plan.ttl() {
            check_fcp_lane(&plan, &mut fcp_lane, &mut opener, failed, &mut seen);
        } else {
            // The closed form holds under the plan's budget only, and a
            // tight one is here for `FlowUnit::walk`'s TTL fallback,
            // which only a walked unit has: FCP walks like the others.
            fcp.begin_scenario();
            check_lane(&plan, &fcp, &mut fcp_walks, failed, ttl, &mut seen);
        }
        check_lane(&plan, &lfa, &mut lfa_walks, failed, ttl, &mut seen);
        check_lane(&plan, &notvia, &mut notvia_walks, failed, ttl, &mut seen);
    }
    // The lane's route memo fills for walked units alone.
    let walked = ttl == plan.ttl() && sets.iter().any(|failed| failed.len() > 1);
    assert_eq!(fcp_lane.take_route_stats().repaired > 0, walked);
    seen
}

#[test]
fn every_lane_answers_as_walk_packet_on_abilene_singles_and_pairs() {
    let g = pr_topologies::load(Isp::Abilene, Weighting::Distance);
    let rotation = pr_embedding::heuristics::thorough(&g, 2010, 4, 10_000);
    let sets: Vec<LinkSet> = [1, 2]
        .into_iter()
        .flat_map(|k| {
            let family = ExhaustiveKFailures::new(&g, k);
            (0..family.len()).map(|i| family.scenario(i)).collect::<Vec<_>>()
        })
        .collect();
    let seen = check_lanes(&g, rotation.clone(), &sets, generous_ttl(&g));
    assert!(seen.point_at_cone_root && seen.nested_points, "{seen:?}");
    assert!(seen.point_off_the_failed_tree && seen.interleaved_points, "{seen:?}");
    assert!(seen.point_at_destination, "{seen:?}");
    assert!(seen.dropped_point, "LFA does not protect every pair: {seen:?}");
    assert!(!seen.ttl_fallback, "{seen:?}");
    // A budget most detours fit and the longest do not: sources far
    // behind a point run out where the point itself still arrives.
    let seen = check_lanes(&g, rotation, &sets, g.node_count() / 2);
    assert!(seen.ttl_fallback, "{seen:?}");
}

#[test]
fn every_lane_answers_as_walk_packet_where_pr_walks_livelock() {
    // Identity rotation: positive genus, so connected PR points drop.
    let g = pr_graph::generators::synth_from_spec("isp:24:7").expect("synth spec");
    let mut rng = StdRng::seed_from_u64(7);
    let sets: Vec<LinkSet> = (0..60)
        .map(|scenario| {
            let mut failed = LinkSet::empty(g.link_count());
            while failed.len() < 1 + scenario % 4 {
                failed.insert(LinkId(rng.gen_range(0..g.link_count() as u32)));
            }
            failed
        })
        .collect();
    for ttl in [generous_ttl(&g), g.node_count()] {
        let seen = check_lanes(&g, RotationSystem::identity(&g), &sets, ttl);
        assert!(seen.dropped_point && seen.nested_points, "ttl {ttl}: {seen:?}");
        assert!(seen.interleaved_points, "ttl {ttl}: {seen:?}");
    }
}

#[test]
fn the_fcp_lane_prices_every_single_failure_as_the_honest_agent_walks() {
    let abilene = pr_topologies::load(Isp::Abilene, Weighting::Distance);
    let mesh = pr_graph::generators::synth_from_spec("isp:24:7").expect("synth spec");
    for g in [&abilene, &mesh] {
        let base = AllPairs::compute_all_live(g);
        let plan = ConePlan::new(g, &base);
        let (mut lane, mut opener) = (FcpLane::new(&plan), plan.opener());
        let mut priced = 0;
        for link in g.links() {
            let failed = LinkSet::from_links(g.link_count(), [link]);
            priced +=
                check_fcp_lane(&plan, &mut lane, &mut opener, &failed, &mut Groups::default());
        }
        // Every link is on some tree, and nothing was walked for it.
        assert!(priced >= 2 * g.link_count(), "{priced} sources priced");
        assert_eq!(lane.take_route_stats(), pr_baselines::RouteStats::default());
    }
}

#[test]
fn the_fcp_lane_groups_by_where_a_failure_is_learnt() {
    // The pair `crates/traffic/tests/properties.rs` pins: p3x0 learns
    // its own dead link before its path breaks at p2x0, and pays 43
    // where first-failed-tree-link grouping would price 8 + 42.
    let g = pr_graph::generators::synth_from_spec("isp:40:7").expect("synth spec");
    let link = |a: &str, b: &str| {
        let (a, b) = (g.node_by_name(a).unwrap(), g.node_by_name(b).unwrap());
        g.find_link(a, b).unwrap()
    };
    let failed = LinkSet::from_links(g.link_count(), [link("p2x0", "p2x1"), link("p3x0", "p3x1")]);
    let rotation = RotationSystem::geometric(&g).expect("mesh has coordinates");
    let seen = check_lanes(&g, rotation, &[failed], generous_ttl(&g));
    assert!(seen.point_off_the_failed_tree, "{seen:?}");
}
