//! Property-based tests for the traffic-workload subsystem.
//!
//! The headline property — weighted coverage under a uniform *unit*
//! matrix is bit-identical to the unweighted coverage counts — is
//! checked here at the replay layer over random 2-edge-connected
//! graphs, and again end-to-end against `pr_bench::coverage` in
//! `crates/bench/tests/determinism.rs`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use pr_baselines::FcpAgent;
use pr_core::{
    generous_ttl, recover_flow_with, walk_packet, DenseFib, DropReason, FlowScratch, FlowWalk,
    ForwardingAgent, PrHeader, WalkResult,
};
use pr_graph::algo::components;
use pr_graph::{bits, generators, Dart, Graph, LinkSet, NodeId, SpTree, TreeChildren};
use pr_scenarios::{ExhaustiveKFailures, ScenarioFamily, SingleLinkFailures};
use pr_testkit::fixtures;
use pr_testkit::nets::{self, Net};
use pr_testkit::oracle::affected_pairs;
use pr_testkit::shapes::{point_by_definition, GroupShapes};
use pr_testkit::strategies;
use pr_traffic::{
    replay_scenario_bitparallel, replay_scenario_naive, FlowSet, GravityTraffic, HotspotTraffic,
    ReplayScratch, ReplayStats, ScenarioTraffic, TrafficMatrix, TrafficModel, UniformTraffic,
};

/// A reproducible random 2-edge-connected graph.
fn small_graphs() -> impl Strategy<Value = Graph> {
    strategies::two_edge_connected(4..16, 0..8, 1..=8)
}

/// `failed` through the production path under `net`'s PR-DD agent.
fn production(
    net: &Net,
    flows: &FlowSet,
    failed: &LinkSet,
    ttl: usize,
    scratch: &mut ReplayScratch<PrHeader>,
) -> ScenarioTraffic {
    let Net { g, pr, base, dense } = net;
    replay_scenario_bitparallel(g, &pr.agent(g), dense, base, flows, failed, ttl, scratch)
}

/// [`check_with`] under `net`'s PR-DD agent.
fn check(
    net: &Net,
    flows: &FlowSet,
    failed: &LinkSet,
    ttl: usize,
    scratch: &mut ReplayScratch<PrHeader>,
) -> ScenarioTraffic {
    check_with(net, &net.pr.agent(&net.g), flows, failed, ttl, scratch)
}

/// Replays `failed` through the production path under `agent` and
/// holds all of it against the oracle: the result (tally, peak
/// load, peak link),
/// the **whole load vector** against one `walk_packet` per flow
/// added up link by link, and the cones of the roots the replay
/// gathers off the link index against the full-tree pass of
/// `affected_into`, bit for bit, destination by destination.
/// `ttl` must cover every failure-free shortest path.
fn check_with<A: ForwardingAgent>(
    net: &Net,
    agent: &A,
    flows: &FlowSet,
    failed: &LinkSet,
    ttl: usize,
    scratch: &mut ReplayScratch<A::State>,
) -> ScenarioTraffic
where
    A::State: std::hash::Hash + Eq,
{
    let Net { g, base, dense, .. } = net;
    let label = format!("{} failed {failed:?} flows {} ttl {ttl}", agent.label(), flows.label());
    let out = replay_scenario_bitparallel(g, agent, dense, base, flows, failed, ttl, scratch);
    assert_eq!(out, replay_scenario_naive(g, agent, base, flows, failed, ttl), "{label}");

    let mut loads = vec![0.0; g.link_count()];
    for flow in flows.flows() {
        let walk = walk_packet(g, agent, flow.src, flow.dst, failed, ttl);
        if walk.result.is_delivered() {
            for d in walk.path.darts() {
                loads[d.link().index()] += flow.demand;
            }
        }
    }
    assert_eq!(scratch.link_loads(), loads, "{label}");

    let (mut roots, mut affected, mut in_cone) = (Vec::new(), Vec::new(), Vec::new());
    dense.roots_into(failed, &mut roots);
    assert!(roots.windows(2).all(|w| w[0] < w[1]), "{label}: roots out of order");
    for dst in g.nodes() {
        bits::clear_and_resize(&mut in_cone, g.node_count());
        let frames = dense.frames(dst);
        for root in roots.iter().filter(|r| r.dest == dst.0) {
            for f in &frames[root.at as usize..frames[root.at as usize].end as usize] {
                assert!(!bits::test(&in_cone, f.node as usize), "{label}: cones overlap");
                bits::set(&mut in_cone, f.node as usize);
            }
        }
        dense.affected_into(dst, failed, &mut affected);
        assert_eq!(in_cone, affected, "{label}: cones of {dst} are not its affected set");
    }
    out
}

/// The branches of the cone delta a failed set drives, read off the
/// base trees (not off the code under test), OR-ed over destinations.
#[derive(Debug, Default)]
struct ConeDelta {
    /// A failed tree edge inside the cone of one with a larger link id:
    /// the scan meets the nested root first.
    nested_found_first: bool,
    /// … inside the cone of one with a smaller link id: met second.
    nested_found_second: bool,
    /// Two failed tree edges of one tree, neither above the other.
    disjoint_cones: bool,
    /// A cone root whose failed dart leads straight to the destination.
    root_at_destination: bool,
    /// The failed set cuts one node off from everything.
    isolates_a_node: bool,
    /// The failed set splits the graph into parts of two or more nodes.
    splits_the_graph: bool,
}

impl ConeDelta {
    fn observe(&mut self, net: &Net, failed: &LinkSet) {
        let g = &net.g;
        for dst in g.nodes() {
            let tree = net.base.towards(dst);
            let mut outermost = 0;
            for link in failed.iter() {
                let (a, b) = g.endpoints(link);
                let Some(root) = [a, b]
                    .into_iter()
                    .find(|&u| tree.next_dart(u).is_some_and(|d| d.link() == link))
                else {
                    continue;
                };
                // The failed links on the way from above the root to
                // the destination; the last one is the enclosing cone's.
                let above = tree.path_darts(g, root).expect("connected base graph");
                let enclosing = above[1..].iter().rev().find(|d| failed.contains(d.link()));
                match enclosing {
                    Some(outer) if link < outer.link() => self.nested_found_first = true,
                    Some(_) => self.nested_found_second = true,
                    None => {
                        outermost += 1;
                        self.root_at_destination |= above.len() == 1;
                    }
                }
            }
            self.disjoint_cones |= outermost >= 2;
        }
        let parts = components(g, failed);
        let mut sizes = vec![0; parts.count];
        for &label in &parts.label {
            sizes[label] += 1;
        }
        if parts.count > 1 {
            self.isolates_a_node |= sizes.contains(&1);
            self.splits_the_graph |= sizes.iter().filter(|&&s| s >= 2).count() >= 2;
        }
    }
}

/// The shapes of the groups `agent`'s points split the cones into
/// under `failed`, as replay budgets them: a point walks under `ttl`
/// less the hop diameter.
fn observe_groups<A: ForwardingAgent>(
    seen: &mut GroupShapes,
    net: &Net,
    agent: &A,
    failed: &LinkSet,
    ttl: usize,
) where
    A::State: std::hash::Hash + Eq,
{
    let point_ttl = ttl - net.base.hop_diameter() as usize;
    seen.observe(&net.g, &net.base, agent, failed, ttl, point_ttl);
}

#[test]
fn production_equals_the_oracle_on_every_small_failure_set_of_the_paper_topologies() {
    for net in [Net::figure1(), Net::abilene()] {
        assert_eq!(net.pr.embedding().genus(), 0);
        let dense_flows = FlowSet::all_pairs(&net.hotspot(2010));
        let sparse_flows = FlowSet::sampled(&net.hotspot(2010), net.g.node_count() / 2, 2010);
        let ttl = generous_ttl(&net.g);
        let (mut dense_scratch, mut sparse_scratch) = (ReplayScratch::new(), ReplayScratch::new());
        let (mut delta, mut groups) = (ConeDelta::default(), GroupShapes::default());

        let mut sets = fixtures::exhaustive(&net.g, 1..=3);
        sets.push(LinkSet::empty(net.g.link_count()));
        // One scratch sees them in an order that is not the family's.
        sets.shuffle(&mut StdRng::seed_from_u64(2010));
        for failed in &sets {
            delta.observe(&net, failed);
            observe_groups(&mut groups, &net, &net.pr.agent(&net.g), failed, ttl);
            check(&net, &dense_flows, failed, ttl, &mut dense_scratch);
            check(&net, &sparse_flows, failed, ttl, &mut sparse_scratch);
        }

        // The families must have driven every branch of the delta, and
        // every group shape a generous budget and genus 0 allow.
        assert!(groups.point_at_cone_root && groups.nested_points, "{groups:?}");
        assert!(groups.interleaved_points, "{groups:?}");
        assert!(!groups.dropped_point && !groups.ttl_fallback, "{groups:?}");
        assert!(delta.nested_found_first && delta.nested_found_second, "{delta:?}");
        assert!(delta.disjoint_cones && delta.root_at_destination, "{delta:?}");
        assert!(delta.isolates_a_node && delta.splits_the_graph, "{delta:?}");
        for scratch in [&mut dense_scratch, &mut sparse_scratch] {
            assert_eq!(scratch.take_stats().baselines, 1, "one baseline per (fib, flow set)");
        }
        // Sparse groups: some destination has no flow towards it, and
        // some group lacks sources.
        assert!(sparse_flows.by_destination().count() < net.g.node_count());
        assert!(sparse_flows
            .by_destination()
            .any(|(_, group)| group.len() < net.g.node_count() - 1));
    }
}

#[test]
fn production_equals_the_oracle_on_sampled_failure_sets_up_to_six_links() {
    // A positive-genus rotation (walks drop although a path survives)
    // and a mesh large enough for deep trees and many-word bitsets.
    let small = Net::identity(nets::synth("isp:24:7"));
    assert!(small.pr.embedding().genus() > 0, "the identity rotation must not embed it planar");
    let large = Net::searched(nets::synth("isp:120:2010"));
    for (net, count) in [(small, 12), (large, 3)] {
        let ttl = generous_ttl(&net.g);
        let dense_flows = FlowSet::all_pairs(&GravityTraffic::new(&net.g));
        let sparse_flows = FlowSet::sampled(&net.hotspot(7), 96, 7);
        assert!(sparse_flows.by_destination().count() < net.g.node_count());
        let (mut dense_scratch, mut sparse_scratch) = (ReplayScratch::new(), ReplayScratch::new());
        let (mut delta, mut groups) = (ConeDelta::default(), GroupShapes::default());
        let (mut dropped, mut disconnected) = (0.0, 0.0);
        for failed in &fixtures::sampled(&net.g, 1..=6, count, 7) {
            delta.observe(&net, failed);
            observe_groups(&mut groups, &net, &net.pr.agent(&net.g), failed, ttl);
            let out = check(&net, &dense_flows, failed, ttl, &mut dense_scratch);
            dropped += out.tally.dropped;
            disconnected += out.tally.disconnected;
            check(&net, &sparse_flows, failed, ttl, &mut sparse_scratch);
        }
        assert!(delta.nested_found_first && delta.nested_found_second, "{delta:?}");
        assert!(delta.disjoint_cones && delta.root_at_destination, "{delta:?}");
        assert!(groups.nested_points && groups.interleaved_points, "{groups:?}");
        assert_eq!(groups.dropped_point, net.pr.embedding().genus() > 0, "{groups:?}");
        if net.pr.embedding().genus() > 0 {
            assert!(dropped > 0.0, "the fixture must make some connected flows drop");
        }
        let _ = disconnected;
    }
}

#[test]
fn disconnecting_sets_are_priced_like_the_oracle_prices_them() {
    let net = Net::abilene();
    let g = &net.g;
    let flows = FlowSet::all_pairs(&GravityTraffic::new(g));
    let ttl = generous_ttl(g);
    let mut scratch = ReplayScratch::new();

    // A degree-2 PoP cut off: its row and column are lost.
    let victim = g.nodes().find(|&v| g.degree(v) == 2).expect("Abilene has degree-2 PoPs");
    let cut = LinkSet::from_links(g.link_count(), g.darts_from(victim).iter().map(|d| d.link()));
    let out = check(&net, &flows, &cut, ttl, &mut scratch);
    let lost: f64 =
        flows.flows().iter().filter(|f| f.src == victim || f.dst == victim).map(|f| f.demand).sum();
    assert_eq!(out.tally.disconnected, lost);
    assert_eq!(out.tally.dropped, 0.0);

    // A bridge after the first failure: Abilene is 2-edge-connected,
    // so every second link that splits it is one.
    let links: Vec<_> = g.links().collect();
    let mut splits = 0;
    for &first in &links {
        let one = LinkSet::from_links(g.link_count(), [first]);
        assert_eq!(components(g, &one).count, 1);
        for &second in links.iter().filter(|&&l| l > first) {
            let two = LinkSet::from_links(g.link_count(), [first, second]);
            if components(g, &two).count == 1 {
                continue;
            }
            splits += 1;
            let out = check(&net, &flows, &two, ttl, &mut scratch);
            assert!(out.tally.disconnected > 0.0);
            assert_eq!(out.tally.dropped, 0.0, "PR delivers inside each part (genus 0)");
        }
    }
    assert!(splits > 0);
}

#[test]
fn one_scratch_serves_alternating_flow_sets_and_fibs() {
    // Two topologies (so two FIBs, two link counts) and two flow sets
    // each, taken in turns through ONE scratch: every switch must
    // rebuild the baseline, and no replay may see the previous pair's.
    let nets = [Net::figure1(), Net::abilene()];
    let flow_sets: Vec<[FlowSet; 2]> = nets
        .iter()
        .map(|net| {
            [FlowSet::all_pairs(&UniformTraffic::new(&net.g)), FlowSet::all_pairs(&net.hotspot(3))]
        })
        .collect();
    let mut scratch = ReplayScratch::new();
    let mut stats = ReplayStats::default();
    for round in 0..3 {
        for (net, sets) in nets.iter().zip(&flow_sets) {
            let failed = SingleLinkFailures::new(&net.g).scenario(round);
            for flows in sets {
                check(net, flows, &failed, generous_ttl(&net.g), &mut scratch);
                check(net, flows, &failed, generous_ttl(&net.g), &mut scratch);
                stats.merge(&scratch.take_stats());
            }
        }
    }
    assert_eq!(stats.replays, 3 * 2 * 2 * 2);
    assert_eq!(stats.baselines, 3 * 2 * 2, "one per switch, none for the repeat");

    // A second FIB of the same trees is a different FIB. (The scratch
    // comes out of the loop holding this net's last pair.)
    let net = &nets[1];
    let restaged = Net { dense: DenseFib::from_base(&net.g, &net.base), ..Net::abilene() };
    let failed = SingleLinkFailures::new(&net.g).scenario(5);
    for fib_owner in [net, &restaged, net] {
        check(fib_owner, &flow_sets[1][1], &failed, generous_ttl(&net.g), &mut scratch);
    }
    assert_eq!(scratch.take_stats().baselines, 2);
}

#[test]
fn a_flow_set_dropped_and_rebuilt_between_calls_is_a_new_flow_set() {
    // Same node count, same flow count, very likely the same heap
    // block: only the construction stamp tells the second set from the
    // first. A baseline kept by address or by length would price the
    // hotspot matrix with the uniform one's loads.
    let net = Net::abilene();
    let ttl = generous_ttl(&net.g);
    let failed = SingleLinkFailures::new(&net.g).scenario(3);
    let mut scratch = ReplayScratch::new();
    let mut outcomes = Vec::new();
    for round in 0..6u64 {
        let flows = match round % 2 {
            0 => FlowSet::all_pairs(&UniformTraffic::new(&net.g)),
            _ => FlowSet::all_pairs(&net.hotspot(round)),
        };
        outcomes.push(check(&net, &flows, &failed, ttl, &mut scratch));
    }
    assert_eq!(scratch.take_stats().baselines, 6);
    assert_eq!(outcomes[0], outcomes[2], "the same matrix prices the same");
    assert_ne!(outcomes[1], outcomes[3], "different hotspot seeds do not");

    // A clone is the same compilation and keeps the baseline.
    let flows = FlowSet::all_pairs(&UniformTraffic::new(&net.g));
    check(&net, &flows, &failed, ttl, &mut scratch);
    check(&net, &flows.clone(), &failed, ttl, &mut scratch);
    assert_eq!(scratch.take_stats().baselines, 1);
}

#[test]
fn a_replay_looks_at_the_cones_and_at_nothing_else() {
    // The algorithmic claim without a clock: per scenario the scratch
    // touched exactly the destinations whose tree lost an edge — those
    // the FIB's link index names for the failed link, none probed and
    // skipped — visited exactly their affected cones, and walked once
    // per failure point that is still connected — under PR the router
    // above each failed tree edge — however many sources sit behind it.
    let net = Net::searched(nets::synth("isp:120:2010"));
    let g = &net.g;
    let n = g.node_count() as u64;
    let flows = FlowSet::all_pairs(&GravityTraffic::new(g));
    let ttl = generous_ttl(g);
    let children: Vec<TreeChildren> =
        g.nodes().map(|d| TreeChildren::build(g, net.base.towards(d))).collect();
    let singles = SingleLinkFailures::new(g);
    let mut scratch = ReplayScratch::new();
    let mut total = ReplayStats::default();
    let (mut cone, mut stack) = (Vec::new(), Vec::new());
    for i in 0..singles.len() {
        let failed = singles.scenario(i);
        production(&net, &flows, &failed, ttl, &mut scratch);
        let stats = scratch.take_stats();

        let parts = components(g, &failed);
        let mut expected =
            ReplayStats { replays: 1, baselines: u64::from(i == 0), ..Default::default() };
        for dst in g.nodes() {
            let tree = net.base.towards(dst);
            tree.affected_cone(g, &children[dst.index()], &failed, &mut cone, &mut stack);
            expected.destinations += u64::from(!cone.is_empty());
            expected.cone_sources += cone.len() as u64;
            let points = failed.iter().filter_map(|link| {
                let (a, b) = g.endpoints(link);
                [a, b].into_iter().find(|&u| tree.next_dart(u).is_some_and(|d| d.link() == link))
            });
            expected.walks += points.filter(|&point| parts.same(point, dst)).count() as u64;
        }
        assert_eq!(stats, expected, "scenario {i}");
        let link = failed.iter().next().expect("a single failure");
        assert_eq!(stats.destinations, net.dense.tree_edges(link).len() as u64, "scenario {i}");
        assert!(stats.cone_sources < n * n / 4, "scenario {i}: {stats:?}");
        total.merge(&stats);
    }
    let pairs = n * (n - 1) * singles.len() as u64;
    assert!(total.cone_sources * 10 < pairs, "{total:?} of {pairs} pairs");
    assert_eq!(total.destinations, n * (n - 1), "every edge of every tree fails in one scenario");
    assert_eq!(total.walks, total.destinations, "one failed tree edge, one point, one walk");
    assert!(total.walks * 4 < total.cone_sources, "{total:?}");
    assert_eq!(total.baselines, 1);
}

#[test]
fn an_fcp_point_is_where_a_failure_is_learnt_not_where_the_tree_breaks() {
    // Every named case of the kit's table, every load, under PR and
    // under FCP — which marks the header at any router *incident* to a
    // failed link, so a source may have learnt a failure before its
    // path breaks. Grouping by first failed tree link misprices the
    // flow the first case pins.
    for fixture in fixtures::TABLE {
        let net = (fixture.net)();
        let g = &net.g;
        let (flows, ttl) = ((fixture.flows)(&net), generous_ttl(g));
        let sets = (fixture.failed_sets)(g);
        let mut seen = GroupShapes::default();
        let mut pr_scratch = ReplayScratch::new();
        for failed in &sets {
            observe_groups(&mut seen, &net, &net.pr.agent(g), failed, ttl);
            check(&net, &flows, failed, ttl, &mut pr_scratch);
        }
        // Under PR a point is always the router above a failed tree edge.
        assert!(seen.point_at_cone_root && !seen.point_off_the_failed_tree, "{seen:?}");
        for fcp in [FcpAgent::new(g), FcpAgent::cached_with_base(g, &net.base)] {
            let mut scratch = ReplayScratch::new();
            for failed in &sets {
                observe_groups(&mut seen, &net, &fcp, failed, ttl);
                check_with(&net, &fcp, &flows, failed, ttl, &mut scratch);
            }
            let Some(pin) = &fixture.pinned else { continue };
            let node = |name| g.node_by_name(name).expect("fixture node");
            let (src, dst, tree_break) = (node(pin.src), node(pin.dst), node(pin.tree_break));
            let (tree, failed) = (net.base.towards(dst), &sets[0]);
            let first_failed =
                tree.path_darts(g, src).unwrap().into_iter().find(|d| failed.contains_dart(*d));
            assert_eq!(first_failed, tree.next_dart(tree_break));
            let from_the_break = walk_packet(g, &fcp, tree_break, dst, failed, ttl).cost(g);
            let prefix = tree.cost(src).unwrap() - tree.cost(tree_break).unwrap();
            assert_eq!((prefix, from_the_break), (pin.prefix, pin.cost_from_break));
            assert_eq!(walk_packet(g, &fcp, src, dst, failed, ttl).cost(g), pin.cost);

            assert_eq!(point_by_definition(g, &fcp, tree, src, failed), src);
            let mut scratch = FlowScratch::new();
            let mut unit = scratch.unit(g, &fcp, tree, failed);
            assert_eq!(unit.point_of(src), src);
            assert_eq!(unit.walk(src, ttl).cost(), Some(pin.cost));
            assert_eq!(unit.walk(tree_break, ttl).cost(), Some(pin.cost_from_break));
        }
        assert!((fixture.drives)(&seen), "{}: {seen:?}", fixture.name);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Under the uniform unit matrix, the demand-weighted tally *is*
    /// the unweighted count: weighted coverage equals
    /// delivered/evaluated computed by a plain per-pair walk loop,
    /// bit for bit.
    #[test]
    fn uniform_unit_weighted_coverage_is_bitwise_unweighted(g in small_graphs()) {
        let net = Net::identity(g);
        let g = &net.g;
        let agent = net.pr.agent(g);
        let flows = FlowSet::all_pairs(&UniformTraffic::new(g));
        let ttl = generous_ttl(g);
        let mut scratch = ReplayScratch::new();
        let singles = SingleLinkFailures::new(g);

        for i in 0..singles.len() {
            let failed = singles.scenario(i);
            let out = production(&net, &flows, &failed, ttl, &mut scratch);

            // The unweighted reference: exactly the coverage
            // experiment's conditioning and counters.
            let (mut evaluated, mut delivered) = (0u64, 0u64);
            affected_pairs(g, &vec![failed.clone()], |failed, dst, src, _, live| {
                if !live.reaches(src) {
                    return; // "| path" conditioning
                }
                evaluated += 1;
                let walk = walk_packet(g, &agent, src, dst, failed, ttl);
                delivered += u64::from(walk.result.is_delivered());
            });
            prop_assert_eq!(out.tally.evaluated, evaluated as f64, "scenario {}", i);
            prop_assert_eq!(out.tally.evaluated_delivered, delivered as f64, "scenario {}", i);
            let unweighted =
                if evaluated == 0 { 1.0 } else { delivered as f64 / evaluated as f64 };
            prop_assert_eq!(out.tally.weighted_coverage(), unweighted, "scenario {}", i);
        }
    }

    /// The production dataplane and the per-packet reference agree
    /// bit-for-bit on arbitrary graphs, sparse sampled flow sets and
    /// failure scenarios (the confluence contract of pricing clear
    /// flows off the tree).
    #[test]
    fn production_replay_equals_naive_reference(g in small_graphs(), seed in 0u64..1024) {
        let net = Net::identity(g);
        let flows = FlowSet::sampled(&net.hotspot(seed), 64, seed);
        let ttl = generous_ttl(&net.g);
        let mut scratch = ReplayScratch::new();
        let singles = SingleLinkFailures::new(&net.g);
        for i in 0..singles.len() {
            check(&net, &flows, &singles.scenario(i), ttl, &mut scratch);
        }
    }

    /// The affected-set classification agrees with the per-flow
    /// machinery on every source of every destination group: the
    /// affected bit is exactly `path_crosses`, and an affected source
    /// the survivor tree still reaches is walked by the unit walker
    /// exactly as `walk_packet` walks it.
    #[test]
    fn bitset_classification_matches_per_flow_walks(g in small_graphs(), seed in 0u64..1024) {
        let net = Net::identity(g);
        let g = &net.g;
        let agent = net.pr.agent(g);
        let flows = FlowSet::sampled(&net.hotspot(seed), 48, seed);
        let ttl = generous_ttl(g);
        let mut affected = Vec::new();
        let mut walk = FlowScratch::new();
        let singles = SingleLinkFailures::new(g);
        for i in 0..singles.len() {
            let failed = singles.scenario(i);
            for (dst, group) in flows.by_destination() {
                let base_tree = net.base.towards(dst);
                net.dense.affected_into(dst, &failed, &mut affected);
                let live = SpTree::towards(g, dst, &failed);
                let mut unit = walk.unit(g, &agent, base_tree, &failed);
                for flow in group {
                    let hit = bits::test(&affected, flow.src.index());
                    prop_assert_eq!(
                        hit,
                        base_tree.path_crosses(g, flow.src, &failed),
                        "affected bit vs path_crosses: scenario {} dst {} src {}",
                        i, dst, flow.src
                    );
                    if hit && live.reaches(flow.src) {
                        let outcome = recover_flow_with(&mut unit, flow.src, ttl, |_| {});
                        let reference = walk_packet(g, &agent, flow.src, dst, &failed, ttl);
                        prop_assert_eq!(
                            outcome.cost(),
                            reference.result.is_delivered().then(|| reference.cost(g)),
                            "unit walker vs walk_packet: scenario {} dst {} src {}",
                            i, dst, flow.src
                        );
                    }
                }
            }
        }
    }

    /// Withdrawing per-subtree sums from a per-subtree baseline
    /// reproduces per-path accumulation **exactly**: the production
    /// dataplane's full link-load vector — not just the peak — equals
    /// one `walk_packet` per flow added up link by link, f64-for-f64,
    /// under one and under two failed links (the demand grid at work:
    /// every replay sum and difference is exact, so regrouping per
    /// subtree cannot move a bit).
    #[test]
    fn subtree_aggregated_loads_equal_per_path_accumulation(g in small_graphs(), seed in 0u64..1024) {
        let net = Net::identity(g);
        let flows = FlowSet::all_pairs(&net.hotspot(seed));
        let ttl = generous_ttl(&net.g);
        let mut scratch = ReplayScratch::new();
        let singles = SingleLinkFailures::new(&net.g);
        for i in 0..singles.len() {
            let mut failed = singles.scenario(i);
            check(&net, &flows, &failed, ttl, &mut scratch);
            failed.insert(singles.scenario((i + 1 + seed as usize) % singles.len()).iter().next().unwrap());
            check(&net, &flows, &failed, ttl, &mut scratch);
        }
    }

    /// Flow sampling conserves demand, is pure in the seed, and a
    /// materialised matrix snapshot samples identically to the live
    /// model.
    #[test]
    fn sampling_is_conservative_and_snapshot_stable(
        g in small_graphs(),
        samples in 1usize..256,
        seed in 0u64..u64::MAX,
    ) {
        let n = g.node_count();
        let model = HotspotTraffic::new(&g, (n / 4).max(1), 8.0, seed);
        let set = FlowSet::sampled(&model, samples, seed);
        prop_assert!((set.offered() - model.total_demand()).abs() < 1e-6);
        prop_assert!(set.len() <= samples.min(n * (n - 1)));
        let again = FlowSet::sampled(&model, samples, seed);
        prop_assert_eq!(set.flows(), again.flows());
        let snap = TrafficMatrix::from_model(&model);
        let from_snap = FlowSet::sampled(&snap, samples, seed);
        prop_assert_eq!(set.flows(), from_snap.flows());
        // Every flow's endpoints are distinct and demand positive.
        for f in set.flows() {
            prop_assert!(f.src != f.dst);
            prop_assert!(f.demand > 0.0);
        }
    }
}

// ---------------------------------------------------------------------
// Unit boundaries and splice equivalence of the recovery path.
//
// A worker reuses one scratch across every (failed set, destination)
// unit it is handed, in whatever order the queue deals them; within a
// unit, recovery walks splice onto suffixes earlier sources resolved.
// Neither may be observable: every flow must come out exactly as the
// one-shot `walk_packet` prices it.
// ---------------------------------------------------------------------

/// Up to `cap` scenarios of every k ∈ {1, 2, 3}, evenly strided over
/// the exhaustive families.
fn failure_sets(g: &Graph, cap: usize) -> Vec<LinkSet> {
    let mut sets = Vec::new();
    for k in 1..=3 {
        let family = ExhaustiveKFailures::new(g, k);
        let stride = family.len().div_ceil(cap).max(1);
        sets.extend((0..family.len()).step_by(stride).map(|i| family.scenario(i)));
    }
    sets
}

/// Walks every source of every (failed set, destination) unit through
/// `recover_flow_with` — units shuffled, one scratch for all of them —
/// and compares each flow with `walk_packet`: outcome, cost, hops and
/// the darts handed to the load hook. Returns how many walks delivered
/// and how many dropped although a live path existed.
fn check_walks_against_walk_packet(
    net: &Net,
    sets: &[LinkSet],
    ttl: usize,
    seed: u64,
) -> (usize, usize) {
    let Net { g, pr, base, .. } = net;
    let agent = pr.agent(g);
    let (mut delivered, mut dropped) = (0, 0);
    let mut units: Vec<(&LinkSet, NodeId)> =
        sets.iter().flat_map(|failed| g.nodes().map(move |dst| (failed, dst))).collect();
    units.shuffle(&mut StdRng::seed_from_u64(seed));
    let mut scratch = FlowScratch::new();
    let mut darts: Vec<Dart> = Vec::new();
    for (failed, dst) in units {
        let live = SpTree::towards(g, dst, failed);
        let mut unit = scratch.unit(g, &agent, base.towards(dst), failed);
        for src in g.nodes().filter(|&src| src != dst) {
            let label = format!("failed {failed:?} {src}->{dst} ttl {ttl}");
            darts.clear();
            let flow = recover_flow_with(&mut unit, src, ttl, |d| darts.push(d));
            let reference = walk_packet(g, &agent, src, dst, failed, ttl);
            match reference.result {
                WalkResult::Delivered => {
                    let expected = FlowWalk::Recovered {
                        cost: reference.cost(g),
                        hops: reference.path.hop_count() as u32,
                    };
                    assert_eq!(flow, expected, "{label}");
                    assert_eq!(darts, reference.path.darts(), "{label}");
                    delivered += 1;
                }
                WalkResult::Dropped(reason) => {
                    assert_eq!(flow, FlowWalk::Dropped(reason), "{label}");
                    assert!(darts.is_empty(), "{label}: a dropped walk must emit nothing");
                    dropped += usize::from(live.reaches(src));
                }
            }
        }
    }
    (delivered, dropped)
}

/// Replays every failed set through the production dataplane —
/// shuffled, one scratch for all of them — against the oracle
/// ([`Net::check`]). Returns the group shapes the sets drove.
fn check_loads_against_walk_packet(
    net: &Net,
    sets: &[LinkSet],
    ttl: usize,
    seed: u64,
) -> GroupShapes {
    let flows = FlowSet::all_pairs(&net.hotspot(seed));
    let mut order: Vec<&LinkSet> = sets.iter().collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));
    let mut scratch = ReplayScratch::new();
    let mut shapes = GroupShapes::default();
    for failed in order {
        observe_groups(&mut shapes, net, &net.pr.agent(&net.g), failed, ttl);
        check(net, &flows, failed, ttl, &mut scratch);
    }
    shapes
}

#[test]
fn shuffled_units_through_one_scratch_equal_walk_packet_on_planar_embeddings() {
    for net in [Net::figure1(), Net::abilene()] {
        assert_eq!(net.pr.embedding().genus(), 0);
        let g = &net.g;
        let sets = failure_sets(g, 120);
        // A generous budget, then budgets short enough that some
        // detours fit and longer ones through the same suffix do not.
        for ttl in [generous_ttl(g), g.node_count(), 4] {
            let (delivered, _) = check_walks_against_walk_packet(&net, &sets, ttl, 2010);
            assert!(delivered > 0);
        }
        // Replay refuses budgets below the hop diameter; the node
        // count is the tightest one that is always above it, and what
        // it leaves a point's walk — the node count less the hop
        // diameter — sends groups to the per-source fallback.
        for ttl in [generous_ttl(g), g.node_count()] {
            let shapes = check_loads_against_walk_packet(&net, &sets, ttl, 2010);
            assert_eq!(shapes.ttl_fallback, ttl == g.node_count(), "ttl {ttl}: {shapes:?}");
        }
    }
}

#[test]
fn shuffled_units_through_one_scratch_equal_walk_packet_where_walks_drop() {
    // Identity rotation on a generated ISP mesh: positive genus, so the
    // §5 guarantee is off and some connected pairs livelock. Dropped
    // walks must seed nothing — a later source of the unit whose walk
    // crosses one's trail still has to be walked in full.
    let net = Net::identity(nets::synth("isp:24:7"));
    let g = &net.g;
    assert!(net.pr.embedding().genus() > 0, "the identity rotation must not embed the mesh planar");
    let sets = failure_sets(g, 40);
    for ttl in [generous_ttl(g), g.node_count()] {
        let (delivered, dropped) = check_walks_against_walk_packet(&net, &sets, ttl, 7);
        assert!(delivered > 0);
        assert!(dropped > 0, "the fixture must make some connected pairs drop (ttl {ttl})");
        let shapes = check_loads_against_walk_packet(&net, &sets, ttl, 7);
        assert!(shapes.dropped_point, "ttl {ttl}: {shapes:?}");
    }
}

#[test]
fn a_splice_the_ttl_cannot_cover_is_walked_hop_by_hop() {
    // Ring of 6, destination 0, link 1-0 down. Source 1 detours the
    // long way round in exactly 5 hops and seeds the unit's memo.
    // Source 2 first runs into the failure (2 -> 1 -> 2) and then
    // stands on a triple of that detour with 4 hops still to go.
    let net = Net::identity(generators::ring(6, 1));
    let g = &net.g;
    let agent = net.pr.agent(g);
    let failed = LinkSet::from_links(g.link_count(), [g.find_link(NodeId(1), NodeId(0)).unwrap()]);
    let mut scratch = FlowScratch::new();
    for (ttl, expected) in [
        // 5 - 2 < 4: the guard refuses the splice, the walk goes on hop
        // by hop and runs out of budget exactly where `walk_packet` does.
        (5, FlowWalk::Dropped(DropReason::TtlExpired)),
        // 6 - 2 >= 4: spliced.
        (6, FlowWalk::Recovered { cost: 6, hops: 6 }),
    ] {
        let mut unit = scratch.unit(g, &agent, net.base.towards(NodeId(0)), &failed);
        let mut darts = Vec::new();
        let first = recover_flow_with(&mut unit, NodeId(1), ttl, |_| {});
        assert_eq!(first, FlowWalk::Recovered { cost: 5, hops: 5 });
        let second = recover_flow_with(&mut unit, NodeId(2), ttl, |d| darts.push(d));
        assert_eq!(second, expected, "ttl {ttl}");
        let reference = walk_packet(g, &agent, NodeId(2), NodeId(0), &failed, ttl);
        assert_eq!(second.is_delivered(), reference.result.is_delivered(), "ttl {ttl}");
        if second.is_delivered() {
            assert_eq!(darts, reference.path.darts(), "ttl {ttl}");
        } else {
            assert_eq!(reference.path.hop_count(), ttl, "walked to the last hop of the budget");
            assert!(darts.is_empty());
        }
    }
}
