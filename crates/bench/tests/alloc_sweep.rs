//! The stretch sweep's allocator discipline and memory bound, as gates.
//!
//! Two rules of the engine's ordered block fold (DESIGN.md §8):
//!
//! * **Walks leave the allocator alone.** Once a [`StretchWorker`]'s
//!   buffers have grown to the topology, folding a scenario's units
//!   again into an accumulator that already has the room makes no
//!   allocator call at all — cone enumeration, label repair, the
//!   climbs to the points (the two point tables of a flow scratch are
//!   sized to the topology once), FCP and PR point walks, delivered
//!   and dropped alike. A walk that clones a heap
//!   header into every visited triple (what `FcpState` did as a
//!   `Vec`) costs millions of calls per sweep and makes the workers
//!   queue on each other's arenas. Nor does a scenario the FCP route
//!   memo has just been evicted for: its entries go into one arena
//!   that keeps its capacity (a `Vec` per entry was one allocation per
//!   busy unit, freed at the next scenario).
//! * **Memory is the result, not the units.** `run_with_stats` holds
//!   the panel it returns plus the blocks in flight — never one
//!   partial result per (scenario, destination) unit — and `run_rows`
//!   holds the blocks in flight and O(1) per scenario.
//!
//! The call counter is per thread and the byte gauge is process-wide,
//! so the tests take turns.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use pr_bench::engine::SweepUnit;
use pr_bench::stretch::{self, StretchBlock, StretchPlan, StretchSamples};
use pr_core::{DiscriminatorKind, PrMode, PrNetwork};
use pr_embedding::{CellularEmbedding, RotationSystem};
use pr_graph::generators::{isp_mesh, MeshParams};
use pr_graph::{Graph, LinkSet};
use pr_scenarios::{ExhaustiveKFailures, ScenarioFamily, SingleLinkFailures};

thread_local! {
    /// Allocator calls (alloc, realloc, dealloc) made by this thread.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

/// Heap bytes currently allocated by the whole process, and their
/// high-water mark since it was last reset.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Serialises the tests: the gauge must not see the other test's heap.
static TURN: Mutex<()> = Mutex::new(());

struct Gauged;

fn count() {
    // A thread that is tearing down has no counter left; nobody reads it.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping touches
// only atomics and a const-initialised `Cell` without a destructor, so
// it never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Gauged {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        grew(layout.size());
        // SAFETY: the caller's obligations are passed on unchanged.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count();
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        grew(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        grew(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Gauged = Gauged;

/// Allocator calls this thread makes while `f` runs.
fn calls_during(f: impl FnOnce()) -> u64 {
    let before = CALLS.with(Cell::get);
    f();
    CALLS.with(Cell::get) - before
}

/// The 120-node synthetic ISP mesh of `tests/determinism.rs`.
fn mesh() -> Graph {
    isp_mesh(&MeshParams::new(120, 2010))
}

fn compile(graph: &Graph, rotation: RotationSystem) -> PrNetwork {
    let embedding = CellularEmbedding::new(graph, rotation).expect("connected topology");
    PrNetwork::compile(graph, embedding, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops)
}

/// `block`, emptied in place: the same accumulator with its room.
fn emptied(block: StretchBlock) -> StretchBlock {
    let mut kept = block.samples;
    kept.reconvergence.clear();
    kept.fcp.clear();
    kept.packet_recycling.clear();
    StretchBlock {
        samples: StretchSamples {
            reconvergence: kept.reconvergence,
            fcp: kept.fcp,
            packet_recycling: kept.packet_recycling,
            ..StretchSamples::default()
        },
        ..StretchBlock::default()
    }
}

#[test]
fn second_pass_over_a_scenario_never_calls_the_allocator() {
    let _turn = TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let g = mesh();
    let family = SingleLinkFailures::new(&g);
    // The geometric rotation (every walk delivers) and the identity
    // rotation (positive genus: some PR walks end in loop drops).
    let rotations = [
        ("geometric", RotationSystem::geometric(&g).expect("mesh has coordinates")),
        ("identity", RotationSystem::identity(&g)),
    ];
    for (label, rotation) in rotations {
        let net = compile(&g, rotation);
        let plan = StretchPlan::new(&g, &net);
        let mut worker = plan.worker();
        let (mut evaluated, mut undelivered) = (0, 0);
        for scenario in (0..family.len()).step_by(family.len() / 12) {
            let failed = family.scenario(scenario);
            worker.begin_scenario();
            let mut pass = |block: &mut StretchBlock| {
                for dst in g.nodes() {
                    let base_tree = plan.base().towards(dst);
                    worker
                        .fold_unit(SweepUnit { scenario, failed: &failed, dst, base_tree }, block);
                }
            };
            // Warm-up: the worker's buffers grow to the scenario, the
            // FCP route memo fills, the accumulator gets its room.
            let mut block = StretchBlock::default();
            pass(&mut block);
            let warm = block.clone();
            let mut block = emptied(block);
            let calls = calls_during(|| pass(&mut block));
            assert_eq!(
                calls, 0,
                "{label}, scenario {scenario}: a warm pass called the allocator {calls} times"
            );
            assert_eq!(block, warm, "{label}, scenario {scenario}: the passes must agree");
            evaluated += warm.samples.evaluated_pairs;
            undelivered += warm.samples.undelivered_pr;
        }
        assert!(evaluated > 0, "{label}: the passes must exercise the walks");
        assert_eq!(undelivered > 0, label == "identity", "{label}: {undelivered} PR drops");
    }
}

#[test]
fn a_scenario_new_to_the_route_memo_never_calls_the_allocator() {
    let _turn = TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let g = mesh();
    let net = compile(&g, RotationSystem::geometric(&g).expect("mesh has coordinates"));
    let plan = StretchPlan::new(&g, &net);
    // Single failures price the FCP lane without the memo, pairs fill
    // it by its own repairs into the arena.
    let singles = SingleLinkFailures::new(&g);
    let pairs = ExhaustiveKFailures::new(&g, 2);
    let families: [(&str, &dyn ScenarioFamily); 2] = [("singles", &singles), ("pairs", &pairs)];
    for (label, family) in families {
        let mut worker = plan.worker();
        let scenarios: Vec<(usize, LinkSet)> = (0..family.len())
            .step_by(family.len() / 5)
            .map(|scenario| (scenario, family.scenario(scenario)))
            .collect();
        let mut fold = |(scenario, failed): &(usize, LinkSet), block: &mut StretchBlock| {
            worker.begin_scenario();
            for dst in g.nodes() {
                let base_tree = plan.base().towards(dst);
                let unit = SweepUnit { scenario: *scenario, failed, dst, base_tree };
                worker.fold_unit(unit, block);
            }
        };
        // Warm-up: each scenario once, the memo evicted in between, so
        // every buffer, the arena and the index grow to the largest.
        let mut block = StretchBlock::default();
        let mut warm = Vec::new();
        for scenario in &scenarios {
            block = emptied(block);
            fold(scenario, &mut block);
            warm.push(block.clone());
        }
        // Each scenario again: the memo starts empty and is refilled
        // inside the counted region.
        for (scenario, warm) in scenarios.iter().zip(&warm) {
            block = emptied(block);
            let calls = calls_during(|| fold(scenario, &mut block));
            let at = format!("{label}, scenario {}", scenario.0);
            assert_eq!(calls, 0, "{at}: a fresh scenario called the allocator {calls} times");
            assert_eq!(block, *warm, "{at}: the passes must agree");
            assert!(block.samples.evaluated_pairs > 0, "{at}");
            let routes = block.stats.routes;
            assert_eq!(routes.repaired > 0, label == "pairs", "{at}: {routes:?}");
        }
    }
}

#[test]
fn run_with_stats_holds_its_result_and_the_blocks_in_flight() {
    let _turn = TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let g = mesh();
    let net = compile(&g, RotationSystem::geometric(&g).expect("mesh has coordinates"));
    let family = SingleLinkFailures::new(&g);
    const MB: usize = 1 << 20;
    // One thread: the panel with its growth slack (a `Vec` doubles)
    // and the hoisted trees. More threads add only what the workers
    // have run ahead of the merge; no schedule pins that down, so the
    // factor is loose — the one-result-per-unit merge overshot it all
    // the same (9.6 MB and 17.9 MB for these 2.2 MB of samples).
    for (threads, factor_halves) in [(1, 3), (4, 6)] {
        let before = LIVE.load(Ordering::Relaxed);
        PEAK.store(before, Ordering::Relaxed);
        let (samples, _) = stretch::run_with_stats(&g, &net, &family, threads);
        let peak = PEAK.load(Ordering::Relaxed) - before;
        let returned = std::mem::size_of::<f64>()
            * (samples.reconvergence.len() + samples.fcp.len() + samples.packet_recycling.len());
        assert!(returned > 2 * MB, "the sweep must be big enough to tell");
        let bound = returned * factor_halves / 2 + 4 * MB;
        assert!(
            peak <= bound,
            "{threads} threads: peak {peak} B of live heap for {returned} B of samples \
             (bound {bound} B)"
        );

        // The row fold — what every front door runs — returns O(1) per
        // scenario and holds nothing O(pairs): its peak sits below the
        // panel's by at least the samples the panel returns. Held at
        // one thread, where both peaks are deterministic: with more,
        // each also carries what its workers ran ahead of the merge,
        // and two schedules do not compare.
        if threads > 1 {
            continue;
        }
        drop(samples);
        let before = LIVE.load(Ordering::Relaxed);
        PEAK.store(before, Ordering::Relaxed);
        let (rows, _) = stretch::run_rows(&g, &net, &family, threads, 0);
        let rows_peak = PEAK.load(Ordering::Relaxed) - before;
        assert_eq!(rows.len(), family.len());
        assert!(
            rows_peak + returned <= peak,
            "{threads} threads: run_rows peaked at {rows_peak} B, run_with_stats at {peak} B \
             for {returned} B of samples"
        );
    }
}
