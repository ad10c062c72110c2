//! Replay allocates nothing in the steady state.
//!
//! Once a [`ReplayScratch`] has seen a topology's scenarios, replaying
//! them again must not call the allocator at all — the climbs to the
//! points, the withdrawal, point walks delivered and dropped alike.
//! Only the very first replay of a (FIB, flow set) pair may: it builds
//! the failure-free baseline and sizes the node-indexed tables of the
//! replay and of its flow unit, once. This is a correctness rule
//! of the parallel engine, not a micro-optimisation: a recovery walk
//! that grows a fresh `Vec` per flow makes every worker thread queue
//! on one glibc arena lock (DESIGN.md, "allocator discipline").
//!
//! The counter is per thread, so the test harness's own threads cannot
//! disturb it.

use pr_core::{generous_ttl, DenseFib};
use pr_graph::LinkSet;
use pr_scenarios::{ExhaustiveKFailures, ScenarioFamily, SingleLinkFailures};
use pr_testkit::alloc::{calls_during, Counting};
use pr_testkit::nets::{isp, Net};
use pr_topologies::Isp;
use pr_traffic::{
    replay_scenario_bitparallel, replay_scenario_naive, FlowSet, GravityTraffic, ReplayScratch,
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
