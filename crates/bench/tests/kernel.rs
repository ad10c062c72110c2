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
//! fixture, as a sweep worker's does — the per-unit opener and the
//! sweep's, which under one failed link repairs only the units whose
//! tree crosses it forward and reads the others off their mirror: an
//! observer requires forward units, mirrored units and failure-free
//! gathers to occur, and a proptest opens two failures' units shuffled
//! together on graphs where ties are everywhere.
//!
//! **Lanes.** Every scheme a sweep asks — PR basic and DD, FCP, LFA,
//! not-via — is a [`Lane`], opened per unit as the sweeps open it and
//! asked the cost of every source of the unit's cone. One checker,
//! [`check_lane`], holds every registered lane ([`check_lanes`]) to
//! plain `walk_packet` on the same flow at the plan's budget — FCP to
//! the honest recompute-per-decision agent, the others to their own —
//! whether the lane prices the unit (one failure, FCP and PR under
//! either mode and either discriminator) or walks it; that is the
//! registry's conformance test. The fixtures drive every shape a unit's
//! groups take ([`GroupShapes`]) and every case of the closed forms
//! ([`PrSeen`]), the named ones of the kit's table among them.
//!
//! **Walks.** What a lane walks goes through
//! [`FlowUnit::walk`](pr_core::FlowUnit::walk): one walk per failure
//! point, every source behind it by arithmetic, and a source whose
//! prefix does not leave the point's walk room in its budget walked on
//! its own. [`check_walks`] holds it directly — every source, its hops
//! and its point — at any budget, the tight ones no lane is asked at
//! included.

use pr_baselines::{FcpAgent, LfaAgent, NotViaAgent, RouteStats};
use pr_bench::engine::{ConeOpener, ConePlan, SweepUnit};
use pr_bench::lanes::{Lane, LaneScratch};
use pr_bench::stretch::SweepStats;
use pr_core::{
    generous_ttl, walk_packet, DiscriminatorKind, FlowScratch, FlowUnit, FlowWalk, ForwardingAgent,
    PrMode, PrNetwork, WalkResult,
};
use pr_embedding::{CellularEmbedding, FaceStructure};
use pr_graph::{algo, AllPairs, Dart, Graph, LinkId, LinkSet, NodeId, SpTree};
use pr_testkit::fixtures;
use pr_testkit::nets::{self, Net};
use pr_testkit::shapes::{point_by_definition, GroupShapes};
use pr_testkit::strategies::{
    random_links, two_edge_connected, with_bridge_or_parallel, with_rotation,
};
use proptest::prelude::*;
use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};

/// What the fixture exercised, so a vacuous pass cannot hide.
#[derive(Default)]
struct Seen {
    empty_cones: usize,
    cut_off_sources: usize,
    disconnecting_sets: usize,
    /// Units of one failed link `l` whose tree crosses it as
    /// `l.forward()`: the ones the opener repairs.
    forward_units: usize,
    /// Units whose tree crosses it as `l.reverse()`: the ones it reads
    /// off the forward units' mirror.
    mirrored_units: usize,
    /// Sources of those whose own tree, from the unit's destination,
    /// avoids `l`: no forward unit repaired the pair, and the opener
    /// answers the failure-free cost.
    base_gathers: usize,
}

/// Every unit of `failed` through `opener`, a sweep opener if
/// `mirroring` ([`ConePlan::sweep_opener`]), against its definition.
fn check_scenario(
    plan: &ConePlan<'_>,
    (opener, mirroring): (&mut ConeOpener<'_>, bool),
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
        let stats = opener.take_stats();
        let repairs = stats.repairs;
        assert_eq!(repairs, u64::from(!expected.is_empty()), "an empty cone repairs nothing");
        seen.empty_cones += usize::from(expected.is_empty());
        seen.cut_off_sources += expected.iter().filter(|(_, cost)| cost.is_none()).count();
        // Which way the unit's tree crosses a single failed link, read
        // off the tree: a reverse unit is the mirrored one.
        let mut reverse = false;
        if let [link] = failed.iter().collect::<Vec<_>>()[..] {
            let (a, b) = g.endpoints(link);
            reverse = base_tree.next_dart(b) == Some(link.reverse());
            seen.forward_units += usize::from(base_tree.next_dart(a) == Some(link.forward()));
            seen.mirrored_units += usize::from(reverse);
            if reverse {
                let own_tree_avoids =
                    |src: NodeId| !plan.base().towards(src).path_crosses(g, dst, failed);
                seen.base_gathers +=
                    expected.iter().filter(|&&(src, _)| own_tree_avoids(src)).count();
            }
        }
        let mirrored = u64::from(reverse && mirroring);
        assert_eq!(stats.mirrored, mirrored, "failed {failed:?}, destination {dst}");
    }
}

#[test]
fn abilene_exhaustive_singles_and_pairs_open_to_their_definition() {
    let Net { g, base, .. } = Net::abilene();
    let plan = ConePlan::new(&g, &base);
    let mut seen = Seen::default();
    for (mut opener, mirroring) in [(plan.opener(), false), (plan.sweep_opener(), true)] {
        for (scenario, failed) in fixtures::exhaustive(&g, 1..=2).iter().enumerate() {
            check_scenario(&plan, (&mut opener, mirroring), scenario, failed, &mut seen);
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
    let Net { g, base, .. } = Net::identity(nets::synth("isp:24:7"));
    let plan = ConePlan::new(&g, &base);
    let mut seen = Seen::default();
    for (mut opener, mirroring) in [(plan.opener(), false), (plan.sweep_opener(), true)] {
        for (scenario, failed) in any_subsets(&g, 160, 2010).iter().enumerate() {
            check_scenario(&plan, (&mut opener, mirroring), scenario, failed, &mut seen);
        }
    }
    assert!(seen.empty_cones > 0);
    assert!(seen.disconnecting_sets > 0, "the sample must include cuts");
    assert!(seen.cut_off_sources > 0);
}

#[test]
fn single_failures_open_forward_mirrored_and_gathered_units_to_their_definition() {
    // Every single failure of two meshes and of every named fixture,
    // one sweep opener per network: a forward unit repairs its cone, a
    // reverse unit reads it off the mirror, and a reverse unit's
    // source whose own tree avoids the link costs its failure-free
    // distance. Each case must occur, or the mirror went untested.
    let nets = [Net::abilene(), Net::identity(nets::synth("isp:24:7"))];
    let named = fixtures::TABLE.iter().map(|fixture| (fixture.net)());
    let mut seen = Seen::default();
    for net in nets.into_iter().chain(named) {
        let plan = ConePlan::new(&net.g, &net.base);
        let mut opener = plan.sweep_opener();
        for (scenario, failed) in single_links(&net.g).iter().enumerate() {
            check_scenario(&plan, (&mut opener, true), scenario, failed, &mut seen);
        }
    }
    assert!(seen.forward_units > 0 && seen.mirrored_units > 0, "both directions must occur");
    assert!(seen.base_gathers > 0, "some reverse pair must break its tie the other way");

    // The named case: with 1–4 down on the tied hexagon, the unit
    // towards 3 is mirrored, 0 is in its cone but 3 in no cone towards
    // 0, and 0's survivor cost is the failure-free 3.
    let fixture = fixtures::TABLE.iter().find(|f| f.name == "mirror-breaks-a-tie-the-other-way");
    let net = (fixture.expect("a named fixture").net)();
    let (g, node) = (&net.g, |name| net.g.node_by_name(name).expect("fixture node"));
    let link = g.find_link(node("1"), node("4")).expect("fixture link");
    let failed = LinkSet::from_links(g.link_count(), [link]);
    let plan = ConePlan::new(g, &net.base);
    let base_tree = plan.base().towards(node("3"));
    assert_eq!(base_tree.next_dart(node("1")), Some(link.reverse()), "a mirrored unit");
    assert!(base_tree.path_crosses(g, node("0"), &failed), "0 → 3 crosses 1–4");
    assert!(!plan.base().towards(node("0")).path_crosses(g, node("3"), &failed));
    let unit = SweepUnit { scenario: 0, failed: &failed, failures: 1, dst: node("3"), base_tree };
    let mut opener = plan.sweep_opener();
    assert_eq!(opener.open(&unit).survivor(node("0")), Some(3));
    assert_eq!(opener.take_stats().mirrored, 1);
}

/// `count` subsets of 1 to 4 of `g`'s links, cuts included.
fn any_subsets(g: &Graph, count: usize, seed: u64) -> Vec<LinkSet> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|scenario| random_links(g, 1 + scenario % 4, &mut rng)).collect()
}

/// Holds `agent`'s flow units to plain `walk_packet`: every source of
/// every destination under `failed` at `ttl`, through one unit per
/// destination. The shapes its groups take are read off `net.base`,
/// the oracle's trees, by the points' definition.
fn check_flow_units<A: ForwardingAgent>(
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

/// The flow units of every lane's agent — PR basic and DD, FCP with its
/// route memo, LFA, not-via — under each failed set at `ttl`
/// ([`check_flow_units`]), on the trees the network lends out.
fn check_walks(net: &Net, sets: &[LinkSet], ttl: usize) -> GroupShapes {
    let (g, dd) = (&net.g, &net.pr);
    let basic =
        PrNetwork::compile(g, dd.embedding().clone(), PrMode::Basic, DiscriminatorKind::Hops);
    let plan = ConePlan::new(g, dd.base());
    let fcp = FcpAgent::cached_with_base(g, plan.base());
    let (lfa, notvia) = (LfaAgent::compute(g, plan.base()), NotViaAgent::compute(g, plan.base()));
    let (mut basic_walks, mut dd_walks) = (FlowScratch::new(), FlowScratch::new());
    let (mut fcp_walks, mut lfa_walks, mut notvia_walks) =
        (FlowScratch::new(), FlowScratch::new(), FlowScratch::new());
    let mut seen = GroupShapes::default();
    for failed in sets {
        check_flow_units(net, &plan, &basic.agent(g), &mut basic_walks, failed, ttl, &mut seen);
        check_flow_units(net, &plan, &dd.agent(g), &mut dd_walks, failed, ttl, &mut seen);
        check_flow_units(net, &plan, &fcp, &mut fcp_walks, failed, ttl, &mut seen);
        check_flow_units(net, &plan, &lfa, &mut lfa_walks, failed, ttl, &mut seen);
        check_flow_units(net, &plan, &notvia, &mut notvia_walks, failed, ttl, &mut seen);
    }
    seen
}

/// What a lane's checks saw of its closed form, so a vacuous pass
/// cannot hide. Told from `walk_packet`'s path and the tree, never from
/// the lane.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct PrSeen {
    /// Units of one failed link the lane priced.
    priced_units: usize,
    /// The sources of those units.
    priced_sources: usize,
    /// Priced sources delivered inside the detour: the packet never
    /// came to the failed link's far end.
    inside_deliveries: usize,
    /// Priced sources whose destination is the far end itself.
    far_end_deliveries: usize,
    /// Units of one failed link the lane walked all the same: its
    /// closed form does not cover them.
    fallback_units: usize,
}

impl PrSeen {
    fn add(&mut self, other: PrSeen) {
        self.priced_units += other.priced_units;
        self.priced_sources += other.priced_sources;
        self.inside_deliveries += other.inside_deliveries;
        self.far_end_deliveries += other.far_end_deliveries;
        self.fallback_units += other.fallback_units;
    }
}

/// The one lane checker. Holds `lane`, opened on every unit with a cone
/// as the sweeps open it, to plain `walk_packet` under `reference` —
/// the lane's own agent, or one that must decide as it does — for every
/// source of the cone under each of `sets`, at the plan's budget, and
/// observes `reference`'s group shapes on the same sets. Returns what
/// the lane's closed form met and the counters the lane fed.
fn check_lane<L: Lane, R: ForwardingAgent>(
    net: &Net,
    plan: &ConePlan<'_>,
    lane: L,
    reference: &R,
    sets: &[LinkSet],
    shapes: &mut GroupShapes,
) -> (PrSeen, SweepStats)
where
    R::State: std::hash::Hash + Eq,
{
    let (g, ttl) = (plan.graph(), plan.ttl());
    let (mut lane, mut opener) = (LaneScratch::new(plan, lane), plan.sweep_opener());
    let (mut seen, mut stats) = (PrSeen::default(), SweepStats::default());
    for failed in sets {
        shapes.observe(g, &net.base, reference, failed, ttl, ttl);
        for dst in g.nodes() {
            let base_tree = plan.base().towards(dst);
            let unit = SweepUnit { scenario: 0, failed, failures: failed.len(), dst, base_tree };
            let cone = opener.open(&unit);
            if cone.len() == 0 {
                continue;
            }
            let mut answers = lane.unit(&unit, &cone);
            let priced = answers.is_priced();
            assert!(!priced || failed.len() == 1, "only one failure has a closed form");
            seen.priced_units += usize::from(priced);
            seen.fallback_units += usize::from(!priced && failed.len() == 1);
            // The far end of the one failed link: the head of the tree
            // dart that crosses it.
            let far = g.links().find(|&l| failed.contains(l)).map(|link| {
                let (a, b) = g.endpoints(link);
                if base_tree.next_dart(a).is_some_and(|d| d.link() == link) {
                    b
                } else {
                    a
                }
            });
            for (src, _) in cone {
                let label = format!("{} failed {failed:?} {src}->{dst}", reference.label());
                let want = walk_packet(g, reference, src, dst, failed, ttl);
                let delivered = want.result.is_delivered();
                assert_eq!(answers.cost(src), delivered.then(|| want.cost(g)), "{label}");
                if !priced {
                    continue;
                }
                seen.priced_sources += 1;
                let far = far.expect("a priced unit has one failed link");
                if let WalkResult::Delivered = want.result {
                    let through_far = want.path.darts().iter().any(|d| g.dart_head(*d) == far);
                    seen.far_end_deliveries += usize::from(dst == far);
                    seen.inside_deliveries += usize::from(dst != far && !through_far);
                }
            }
            answers.take_stats(&mut stats);
        }
    }
    (seen, stats)
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

/// What the registry's conformance run saw.
#[derive(Debug, Default)]
struct LanesSeen {
    /// Every agent's group shapes, OR-ed.
    shapes: GroupShapes,
    /// The PR lanes' closed-form cases, summed over the configurations.
    pr: PrSeen,
    /// The FCP lane's.
    fcp: PrSeen,
    /// The FCP lane's route memo.
    routes: RouteStats,
}

/// Every lane a sweep registers — PR in each configuration, FCP, LFA
/// and not-via — through the one checker under each failed set of
/// `net`'s topology and embedding, on the trees the network lends out.
fn check_lanes(net: &Net, sets: &[LinkSet]) -> LanesSeen {
    let g = &net.g;
    let plan = ConePlan::new(g, net.pr.base());
    let mut seen = LanesSeen::default();
    let shapes = &mut seen.shapes;
    for configuration in pr_configurations(net) {
        let agent = configuration.agent(g);
        let (pr, stats) = check_lane(net, &plan, agent, &agent, sets, shapes);
        // One episode per unit of one failed link with a cone, priced
        // or not.
        assert_eq!(stats.lanes.pr_episodes, (pr.priced_units + pr.fallback_units) as u64);
        assert_eq!(stats.lanes.pr_priced, pr.priced_units as u64);
        seen.pr.add(pr);
    }
    let fcp = FcpAgent::cached_with_base(g, plan.base());
    let (fcp, stats) = check_lane(net, &plan, fcp, &FcpAgent::new(g), sets, shapes);
    assert_eq!(fcp.fallback_units, 0, "the FCP closed form covers every single failure");
    assert_eq!(stats.lanes.fcp_priced, fcp.priced_units as u64);
    // The route memo fills for walked units alone.
    let walked = sets.iter().any(|failed| failed.len() > 1);
    assert_eq!(stats.routes.repaired > 0, walked, "{:?}", stats.routes);
    (seen.fcp, seen.routes) = (fcp, stats.routes);
    let (lfa, notvia) = (LfaAgent::compute(g, plan.base()), NotViaAgent::compute(g, plan.base()));
    for (walked, _) in [
        check_lane(net, &plan, &lfa, &lfa, sets, shapes),
        check_lane(net, &plan, &notvia, &notvia, sets, shapes),
    ] {
        assert_eq!(walked.priced_units, 0, "no closed form");
    }
    seen
}

#[test]
fn every_lane_answers_as_walk_packet_on_abilene_singles_and_pairs() {
    let net = Net::abilene();
    let g = &net.g;
    let sets = fixtures::exhaustive(g, 1..=2);
    let lanes = check_lanes(&net, &sets).shapes;
    for seen in [lanes, check_walks(&net, &sets, generous_ttl(g))] {
        assert!(seen.point_at_cone_root && seen.nested_points, "{seen:?}");
        assert!(seen.point_off_the_failed_tree && seen.interleaved_points, "{seen:?}");
        assert!(seen.point_at_destination, "{seen:?}");
        assert!(seen.dropped_point, "LFA does not protect every pair: {seen:?}");
        assert!(!seen.ttl_fallback, "{seen:?}");
    }
    // A budget most detours fit and the longest do not: sources far
    // behind a point run out where the point itself still arrives.
    let seen = check_walks(&net, &sets, g.node_count() / 2);
    assert!(seen.ttl_fallback, "{seen:?}");
}

#[test]
fn every_lane_answers_as_walk_packet_where_pr_walks_livelock() {
    // Identity rotation: positive genus, so connected PR points drop.
    let net = Net::identity(nets::synth("isp:24:7"));
    let sets = any_subsets(&net.g, 60, 7);
    let lanes = check_lanes(&net, &sets).shapes;
    let tight = check_walks(&net, &sets, net.g.node_count());
    for seen in [lanes, check_walks(&net, &sets, generous_ttl(&net.g)), tight] {
        assert!(seen.dropped_point && seen.nested_points, "{seen:?}");
        assert!(seen.interleaved_points, "{seen:?}");
    }
}

#[test]
fn the_fcp_lane_prices_every_single_failure_as_the_honest_agent_walks() {
    for net in [Net::abilene(), Net::identity(nets::synth("isp:24:7"))] {
        let seen = check_lanes(&net, &single_links(&net.g));
        // Every link is on some tree, and nothing was walked for it.
        let priced = seen.fcp.priced_sources;
        assert!(priced >= 2 * net.g.link_count(), "{priced} sources priced");
        assert_eq!(seen.routes, RouteStats::default());
    }
}

#[test]
fn the_fcp_lane_groups_by_where_a_failure_is_learnt() {
    // Every named case of the kit's table through every lane and every
    // agent's flow units — the pair that told "where a failure is
    // learnt" from "where the tree breaks" among them.
    for fixture in fixtures::TABLE {
        let net = (fixture.net)();
        let sets = (fixture.failed_sets)(&net.g);
        let lanes = check_lanes(&net, &sets).shapes;
        for seen in [lanes, check_walks(&net, &sets, generous_ttl(&net.g))] {
            assert!((fixture.drives)(&seen), "{}: {seen:?}", fixture.name);
        }
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
        let seen = check_lanes(&net, &single_links(&net.g)).pr;
        // Three configurations, and every link is on the tree of either
        // endpoint at least.
        assert!(seen.priced_units >= 3 * 2 * net.g.link_count(), "{seen:?}");
        assert!(seen.inside_deliveries > 0 && seen.far_end_deliveries > 0, "{seen:?}");
        assert_eq!(seen.fallback_units, 0, "genus 0, no bridge: {seen:?}");
    }
    // Positive genus: some episodes come back to where they started,
    // and those units are walked — to a drop.
    let net = Net::identity(nets::synth("isp:24:7"));
    let seen = check_lanes(&net, &single_links(&net.g)).pr;
    assert!(seen.priced_units > 0 && seen.fallback_units > 0, "{seen:?}");
}

#[test]
fn the_pr_lane_walks_what_it_cannot_price() {
    // Two or more failures, cuts included, on a positive-genus mesh:
    // nothing is priced, and the lane answers as the walker does.
    let net = Net::identity(nets::synth("isp:24:7"));
    let sets: Vec<LinkSet> =
        any_subsets(&net.g, 40, 2010).into_iter().filter(|failed| failed.len() > 1).collect();
    let seen = check_lanes(&net, &sets).pr;
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
        check_lanes(&net, &(fixture.failed_sets)(&net.g)).pr
    };
    let inside = case("pr-delivers-inside-the-detour");
    assert!(inside.priced_units > 0 && inside.inside_deliveries > 0, "{inside:?}");
    let far_end = case("pr-destination-is-the-far-end");
    assert!(far_end.priced_units > 0 && far_end.far_end_deliveries > 0, "{far_end:?}");
    let returns = case("pr-episode-returns-to-the-point");
    assert!(returns.fallback_units > 0, "{returns:?}");
}

/// What the face structure alone says of the unit whose one failed
/// link carries the tree dart `out` (`p → far`) towards `dst`: walked
/// from the dart after `far → p` — where `p` deflects a packet — the
/// face of `far → p` comes back to `far → p` (`reaches_far`) or first
/// to `p → far`; and whether `dst` is the head of a dart on the way.
fn face_walk(g: &Graph, faces: &FaceStructure, out: Dart, dst: NodeId) -> (bool, bool) {
    let back = out.twin();
    let boundary = faces.boundary(faces.face_of(back));
    let at = boundary.iter().position(|&d| d == back).expect("a face holds its darts");
    let mut meets_dst = false;
    for &dart in boundary.iter().cycle().skip(at + 1) {
        if dart == back || dart == out {
            return (dart == back, meets_dst);
        }
        meets_dst |= g.dart_head(dart) == dst;
    }
    unreachable!("the boundary is a cycle through `back`")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The mirror in any order, where ties are everywhere: weights 1
    /// and 2, bridges and parallel links. The units of two single
    /// failures, shuffled together, go through one opener — so a mirror
    /// is rebuilt whenever the failed link changes, and a reverse unit
    /// may come before every forward unit it reads — and each yields
    /// exactly its definition: the sources whose failure-free path
    /// crosses the link, with their from-scratch survivor costs.
    #[test]
    fn single_failure_cones_open_to_their_definition_in_any_order(
        g in with_bridge_or_parallel(two_edge_connected(3..11, 0..6, 1..=2)),
        picks in (0u32..u32::MAX, 0u32..u32::MAX),
        seed in 0u64..u64::MAX,
    ) {
        let base = AllPairs::compute_all_live(&g);
        let plan = ConePlan::new(&g, &base);
        let mut opener = plan.sweep_opener();
        let links = g.link_count() as u32;
        let sets = [picks.0, picks.1]
            .map(|pick| LinkSet::from_links(g.link_count(), [LinkId(pick % links)]));
        let mut units: Vec<(usize, NodeId)> =
            (0..2).flat_map(|scenario| g.nodes().map(move |dst| (scenario, dst))).collect();
        units.shuffle(&mut StdRng::seed_from_u64(seed));
        for (scenario, dst) in units {
            let failed = &sets[scenario];
            let (base_tree, live) = (base.towards(dst), SpTree::towards(&g, dst, failed));
            let expected: Vec<(NodeId, Option<u64>)> = g
                .nodes()
                .filter(|&src| base_tree.path_crosses(&g, src, failed))
                .map(|src| (src, live.cost(src)))
                .collect();
            let unit = SweepUnit { scenario, failed, failures: 1, dst, base_tree };
            let yielded: Vec<(NodeId, Option<u64>)> = opener.open(&unit).collect();
            prop_assert_eq!(yielded, expected, "failed {:?}, destination {}", failed, dst);
        }
    }

    /// The single-failure certificate (DESIGN.md §8) on any rotation of
    /// a 2-edge-connected graph: a link's episode reaches its far end
    /// exactly when the link is not one of
    /// `CellularEmbedding::single_face_links`, and a busy unit of one
    /// failed link is priced by the PR lane exactly when its episode
    /// reaches the far end or meets the destination first — so with no
    /// single-face link every busy unit is priced.
    #[test]
    fn a_single_failure_is_priced_unless_its_link_is_single_face(
        (g, rot) in with_rotation(two_edge_connected(3..11, 0..6, 1..=6)),
        basic in any::<bool>(),
    ) {
        let emb = CellularEmbedding::new(&g, rot).unwrap();
        let (single_face, faces) = (emb.single_face_links(), emb.faces().clone());
        let mode = if basic { PrMode::Basic } else { PrMode::DistanceDiscriminator };
        let net = PrNetwork::compile(&g, emb, mode, DiscriminatorKind::Hops);
        let plan = ConePlan::new(&g, net.base());
        let (mut lane, mut opener) = (LaneScratch::new(&plan, net.agent(&g)), plan.sweep_opener());
        for link in g.links() {
            let failed = LinkSet::from_links(g.link_count(), [link]);
            for dst in g.nodes() {
                let base_tree = plan.base().towards(dst);
                let unit = SweepUnit { scenario: 0, failed: &failed, failures: 1, dst, base_tree };
                let cone = opener.open(&unit);
                if cone.len() == 0 {
                    continue;
                }
                let (a, b) = g.endpoints(link);
                let out = [a, b]
                    .into_iter()
                    .filter_map(|v| base_tree.next_dart(v))
                    .find(|d| d.link() == link)
                    .expect("a busy unit routes over its link");
                let (reaches_far, meets_dst) = face_walk(&g, &faces, out, dst);
                prop_assert_eq!(reaches_far, !single_face.contains(&link), "{}", link);
                let priced = lane.unit(&unit, &cone).is_priced();
                prop_assert_eq!(priced, reaches_far || meets_dst, "{} towards {}", link, dst);
            }
        }
    }

    /// Wherever the lane prices — any genus, parallel links, bridges,
    /// either mode, either discriminator — a source is answered as the
    /// unit's walker answers it.
    #[test]
    fn a_priced_pr_unit_answers_as_the_walked_one(
        (g, rot) in with_rotation(with_bridge_or_parallel(two_edge_connected(3..11, 0..6, 1..=6))),
        basic in any::<bool>(),
        weighted in any::<bool>(),
    ) {
        let emb = CellularEmbedding::new(&g, rot).unwrap();
        let mode = if basic { PrMode::Basic } else { PrMode::DistanceDiscriminator };
        let kind = if weighted { DiscriminatorKind::WeightedCost } else { DiscriminatorKind::Hops };
        let net = PrNetwork::compile(&g, emb, mode, kind);
        let plan = ConePlan::new(&g, net.base());
        let agent = net.agent(&g);
        let (mut lane, mut opener, mut walks) =
            (LaneScratch::new(&plan, agent), plan.sweep_opener(), FlowScratch::new());
        for failed in single_links(&g) {
            for dst in g.nodes() {
                let base_tree = plan.base().towards(dst);
                let unit = SweepUnit { scenario: 0, failed: &failed, failures: 1, dst, base_tree };
                let cone = opener.open(&unit);
                let sources: Vec<NodeId> = cone.clone().map(|(src, _)| src).collect();
                let mut priced = lane.unit(&unit, &cone);
                if sources.is_empty() || !priced.is_priced() {
                    continue;
                }
                let mut walked = walks.unit(&g, &agent, base_tree, &failed);
                for src in sources {
                    let want = walked.walk(src, plan.ttl()).cost();
                    prop_assert_eq!(priced.cost(src), want, "{} -> {}", src, dst);
                }
            }
        }
    }
}
