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

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pr_core::{generous_ttl, DenseFib, DiscriminatorKind, PrMode, PrNetwork};
use pr_embedding::{heuristics, CellularEmbedding, RotationSystem};
use pr_graph::{AllPairs, LinkSet};
use pr_scenarios::{ExhaustiveKFailures, ScenarioFamily, SingleLinkFailures};
use pr_topologies::{Isp, Weighting};
use pr_traffic::{
    replay_scenario_bitparallel, replay_scenario_naive, FlowSet, GravityTraffic, ReplayScratch,
};

thread_local! {
    /// Allocator calls (alloc, realloc, dealloc) made by this thread.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // A thread that is tearing down has no counter left; nobody reads it.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// const-initialised `Cell` without a destructor, so touching it never
// allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are passed on unchanged.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count();
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocator calls this thread makes while `f` runs.
fn calls_during(f: impl FnOnce()) -> u64 {
    let before = CALLS.with(Cell::get);
    f();
    CALLS.with(Cell::get) - before
}

#[test]
fn second_pass_over_geant_single_failures_never_calls_the_allocator() {
    let g = pr_topologies::load(Isp::Geant, Weighting::Distance);
    let base = AllPairs::compute_all_live(&g);
    let dense = DenseFib::from_base(&g, &base);
    let flows = FlowSet::all_pairs(&GravityTraffic::new(&g));
    let ttl = generous_ttl(&g);
    let family = SingleLinkFailures::new(&g);
    let scenarios: Vec<LinkSet> = (0..family.len()).map(|i| family.scenario(i)).collect();

    // A planar embedding (every recovery walk delivers) and the
    // identity rotation (positive genus: some walks drop).
    let rotations = [
        ("planar", heuristics::thorough(&g, 2010, 4, 10_000)),
        ("identity", RotationSystem::identity(&g)),
    ];
    for (label, rotation) in rotations {
        let embedding = CellularEmbedding::new(&g, rotation).expect("connected");
        let net = PrNetwork::compile(
            &g,
            embedding,
            PrMode::DistanceDiscriminator,
            DiscriminatorKind::Hops,
        );
        let agent = net.agent(&g);
        let mut scratch = ReplayScratch::new();
        let mut recovered = 0.0;
        let mut pass = |scratch: &mut ReplayScratch<_>| {
            for failed in &scenarios {
                let out = replay_scenario_bitparallel(
                    &g, &agent, &dense, &base, &flows, failed, ttl, scratch,
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
            replay_scenario_bitparallel(&g, &agent, &dense, &base, &flows, last, ttl, &mut scratch),
            replay_scenario_naive(&g, &agent, &base, &flows, last, ttl),
            "{label}"
        );
        let calls = calls_during(|| pass(&mut scratch));
        assert!(recovered > 0.0, "{label}: the passes must exercise recovery walks");
        assert_eq!(calls, 0, "{label}: steady-state replay called the allocator {calls} times");

        // The baseline is paid for once, by the first replay a scratch
        // makes — its second is already free.
        let mut fresh = ReplayScratch::new();
        let once = |scratch: &mut ReplayScratch<_>| {
            replay_scenario_bitparallel(&g, &agent, &dense, &base, &flows, last, ttl, scratch);
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
    let g = pr_topologies::load(Isp::Geant, Weighting::Distance);
    let embedding =
        CellularEmbedding::new(&g, heuristics::thorough(&g, 2010, 4, 10_000)).expect("connected");
    let net =
        PrNetwork::compile(&g, embedding, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
    let (agent, base, ttl) = (net.agent(&g), net.base(), generous_ttl(&g));
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
