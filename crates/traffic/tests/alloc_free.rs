//! Replay allocates nothing in the steady state.
//!
//! Once a [`ReplayScratch`] has seen a topology's scenarios, replaying
//! them again must not call the allocator at all — the episodes a
//! single failure is priced off, the climbs to the points, the
//! withdrawal, the episode chains points are priced by, point walks
//! delivered and dropped alike. Only the very
//! first replay of a (FIB, flow set) pair may: it builds the
//! failure-free baseline and sizes the node-indexed tables of the
//! replay, of its staged episodes and of its flow unit, once. This is a correctness rule
//! of the parallel engine, not a micro-optimisation: a recovery walk
//! that grows a fresh `Vec` per flow makes every worker thread queue
//! on one glibc arena lock (DESIGN.md, "allocator discipline").
//!
//! A flow set holds what the replay reads of it: one `f64` per flow,
//! and a source only for a group that lacks some node. Its heap is
//! pinned here too, as retained bytes and as the compile's peak; a
//! sampled set's compile peaks at its draws, not at the matrix.
//!
//! The call counter and the byte gauge read here are both per thread,
//! so these tests may run side by side: a harness thread that starts or
//! ends while one measures is not counted.

use pr_core::{generous_ttl, DenseFib};
use pr_graph::LinkSet;
use pr_scenarios::{ExhaustiveKFailures, ScenarioFamily, SingleLinkFailures};
use pr_testkit::alloc::{calls_during, own_heap_during, Counting};
use pr_testkit::fixtures;
use pr_testkit::nets::{isp, synth, Net};
use pr_testkit::oracle::replay_scenario_naive;
use pr_topologies::Isp;
use pr_traffic::{
    replay_scenario_bitparallel, FlowSet, GravityTraffic, HotspotTraffic, ReplayScratch,
};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn second_pass_over_geant_single_failures_never_calls_the_allocator() {
    // A planar embedding (every recovery walk delivers) and the
    // identity rotation (positive genus: some walks drop).
    for (label, net) in [("planar", Net::geant()), ("identity", Net::identity(isp(Isp::Geant)))] {
        let Net { g, pr, base, dense } = &net;
        let flows = FlowSet::all_pairs(&GravityTraffic::new(g));
        let ttl = generous_ttl(g);
        let family = SingleLinkFailures::new(g);
        let scenarios: Vec<LinkSet> = (0..family.len()).map(|i| family.scenario(i)).collect();
        let agent = pr.agent(g);
        let mut scratch = ReplayScratch::new();
        let mut recovered = 0.0;
        let mut pass = |scratch: &mut ReplayScratch<_>| {
            for failed in &scenarios {
                let out = replay_scenario_bitparallel(
                    g, &agent, dense, base, &flows, failed, ttl, scratch,
                );
                recovered += out.tally.evaluated_delivered;
            }
        };
        // Warm-up: the first replay builds the baseline, the first pass
        // grows the buffers to the topology. What it computes is the
        // oracle's answer (checked outside the counted region).
        pass(&mut scratch);
        let last = scenarios.last().expect("GÉANT has links");
        assert_eq!(
            replay_scenario_bitparallel(g, &agent, dense, base, &flows, last, ttl, &mut scratch),
            replay_scenario_naive(g, &agent, base, &flows, last, ttl),
            "{label}"
        );
        let calls = calls_during(|| pass(&mut scratch));
        assert!(recovered > 0.0, "{label}: the passes must exercise recovery walks");
        assert_eq!(calls, 0, "{label}: steady-state replay called the allocator {calls} times");

        // The baseline is paid for once, by the first replay a scratch
        // makes — its second is already free.
        let mut fresh = ReplayScratch::new();
        let once = |scratch: &mut ReplayScratch<_>| {
            replay_scenario_bitparallel(g, &agent, dense, base, &flows, last, ttl, scratch);
        };
        assert!(calls_during(|| once(&mut fresh)) > 0, "{label}: the first replay builds things");
        assert_eq!(calls_during(|| once(&mut fresh)), 0, "{label}: second replay of a scratch");
    }
}

#[test]
fn a_warm_scratch_replays_scenarios_it_has_not_seen_without_the_allocator() {
    // Not a second pass: single and double failures the scratch meets
    // for the first time. The cone roots of a scenario are gathered
    // into a list the scratch sized when it first replayed as many
    // failed links, and sorted in place; nothing else is per scenario.
    // The trees the network itself routes on serve as well as the
    // oracle's: the FIB is staged from whichever it is given.
    let Net { g, pr, .. } = Net::geant();
    let (agent, base, ttl) = (pr.agent(&g), pr.base(), generous_ttl(&g));
    let dense = DenseFib::from_base(&g, base);
    let (singles, pairs) = (SingleLinkFailures::new(&g), ExhaustiveKFailures::new(&g, 2));
    let scenarios: Vec<LinkSet> = (0..singles.len())
        .map(|i| singles.scenario(i))
        .chain((0..pairs.len()).step_by(7).map(|i| pairs.scenario(i)))
        .collect();
    let gravity = GravityTraffic::new(&g);
    for flows in [FlowSet::all_pairs(&gravity), FlowSet::sampled(&gravity, 200, 2010)] {
        let mut scratch = ReplayScratch::new();
        let mut replay = |failed: &LinkSet| {
            replay_scenario_bitparallel(&g, &agent, &dense, base, &flows, failed, ttl, &mut scratch)
        };
        // Warm-up on every other scenario; the rest are new to the
        // scratch when they are counted.
        for failed in scenarios.iter().step_by(2) {
            replay(failed);
        }
        for failed in scenarios.iter().skip(1).step_by(2) {
            let mut out = None;
            let calls = calls_during(|| out = Some(replay(failed)));
            assert_eq!(calls, 0, "{}: {failed:?} called the allocator", flows.label());
            let expected = replay_scenario_naive(&g, &agent, base, &flows, failed, ttl);
            assert_eq!(out, Some(expected), "{}: {failed:?}", flows.label());
        }
    }
}

#[test]
fn a_warm_multi_failure_replay_never_calls_the_allocator() {
    // Two to six links down at once: on the planar embedding every
    // connected point is priced as an episode chain, on the identity
    // rotation some chains livelock and fall back to the hop loop. A
    // second pass stages the chains' episodes, prices and walks the
    // points without the allocator.
    for (label, net) in [("planar", Net::geant()), ("identity", Net::identity(isp(Isp::Geant)))] {
        let Net { g, pr, base, dense } = &net;
        let flows = FlowSet::all_pairs(&GravityTraffic::new(g));
        let ttl = generous_ttl(g);
        let scenarios = fixtures::sampled(g, 2..=6, 6, 2010);
        let agent = pr.agent(g);
        let mut scratch = ReplayScratch::new();
        let pass = |scratch: &mut ReplayScratch<_>| {
            for failed in &scenarios {
                replay_scenario_bitparallel(g, &agent, dense, base, &flows, failed, ttl, scratch);
            }
        };
        pass(&mut scratch);
        let stats = scratch.take_stats();
        assert!(stats.chained > 0, "{label}: {stats:?}");
        assert_eq!(stats.walks > 0, label == "identity", "{label}: {stats:?}");
        let last = scenarios.last().expect("sampled sets");
        assert_eq!(
            replay_scenario_bitparallel(g, &agent, dense, base, &flows, last, ttl, &mut scratch),
            replay_scenario_naive(g, &agent, base, &flows, last, ttl),
            "{label}"
        );
        let calls = calls_during(|| pass(&mut scratch));
        assert_eq!(
            calls, 0,
            "{label}: a warm multi-failure replay called the allocator {calls} times"
        );
    }
}

#[test]
fn an_all_pairs_set_keeps_eight_bytes_per_flow_and_builds_no_wider_record() {
    // Every group holds every other node, so no source is stored. The
    // model's friction table is live before the compile and after it;
    // the compile itself may add no more than the demands it returns
    // and the per-destination groups.
    let g = synth("isp:200");
    let n = g.node_count();
    let gravity = GravityTraffic::new(&g);
    let (set, retained, peak) = own_heap_during(|| FlowSet::all_pairs(&gravity));
    assert_eq!(set.len(), n * (n - 1));
    let bound = 8 * set.len() + 64 * n + 1024;
    assert!(retained <= bound, "retains {retained} B for {} flows (bound {bound} B)", set.len());
    assert!(peak <= bound, "peaked at {peak} B for {} flows (bound {bound} B)", set.len());
}

#[test]
fn a_sparse_sampled_set_keeps_twelve_bytes_per_flow() {
    // A few thousand draws over 39 800 pairs: no group fills, so every
    // flow keeps its source beside its demand. The compile holds the
    // sorted draws and the flows it keeps, never a table over the pairs
    // the draws are taken from.
    let g = synth("isp:200");
    let hotspot = HotspotTraffic::new(&g, 8, 8.0, 2010);
    let (set, retained, peak) = own_heap_during(|| FlowSet::sampled(&hotspot, 3000, 2010));
    let groups = set.by_destination().count();
    assert!(set.by_destination().all(|(_, group)| group.iter().count() < g.node_count() - 1));
    let bound = 12 * set.len() + 64 * groups + 1024;
    assert!(retained <= bound, "retains {retained} B for {} flows (bound {bound} B)", set.len());
    let draws = 32 * 3000 + 64 * groups + 1024;
    assert!(peak <= draws, "peaked at {peak} B for 3000 draws (bound {draws} B)");
}
