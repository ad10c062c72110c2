//! The stretch sweep's allocator discipline and memory bound, as gates.
//!
//! Two rules of the engine's ordered block fold (DESIGN.md §8):
//!
//! * **Walks leave the allocator alone.** Once a [`StretchWorker`]'s
//!   buffers have grown to the topology, folding a scenario's units
//!   again into an accumulator that already has the room makes no
//!   allocator call at all — cone enumeration, label repair, both
//!   lanes' closed forms (a PR episode is read dart by dart and kept
//!   nowhere), and for the units they do not cover the climbs to the
//!   points (the two point tables of a flow scratch are sized to the
//!   topology once) and the point walks, delivered and dropped alike.
//!   A walk that clones a heap
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

use pr_bench::engine::SweepUnit;
use pr_bench::stretch::{self, StretchBlock, StretchPlan, StretchSamples};
use pr_graph::LinkSet;
use pr_scenarios::{ExhaustiveKFailures, ScenarioFamily, SingleLinkFailures};
use pr_testkit::alloc::{calls_during, peak_during, turn, Counting};
use pr_testkit::nets::Net;

#[global_allocator]
static ALLOCATOR: Counting = Counting;

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
    let _turn = turn();
    // The geometric rotation (every unit is priced and delivers) and
    // the identity rotation (positive genus: some episodes come back to
    // where they started, and those units' PR walks end in loop drops).
    let nets = [("geometric", Net::mesh120()), ("identity", Net::identity(Net::mesh120().g))];
    for (label, Net { g, pr: net, .. }) in nets {
        let family = SingleLinkFailures::new(&g);
        let plan = StretchPlan::new(&g, &net);
        let mut worker = plan.worker();
        let (mut evaluated, mut undelivered) = (0, 0);
        for scenario in (0..family.len()).step_by(family.len() / 12) {
            let failed = family.scenario(scenario);
            worker.begin_scenario();
            let mut pass = |block: &mut StretchBlock| {
                for dst in g.nodes() {
                    let base_tree = plan.base().towards(dst);
                    let unit = SweepUnit { scenario, failed: &failed, failures: 1, dst, base_tree };
                    worker.fold_unit(unit, block);
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
    let _turn = turn();
    let Net { g, pr: net, .. } = Net::mesh120();
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
                let failures = failed.len();
                let unit = SweepUnit { scenario: *scenario, failed, failures, dst, base_tree };
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
    let _turn = turn();
    let Net { g, pr: net, .. } = Net::mesh120();
    let family = SingleLinkFailures::new(&g);
    const MB: usize = 1 << 20;
    // One thread: the panel with its growth slack (a `Vec` doubles)
    // and the hoisted trees. More threads add only what the workers
    // have run ahead of the merge; no schedule pins that down, so the
    // factor is loose — the one-result-per-unit merge overshot it all
    // the same (9.6 MB and 17.9 MB for these 2.2 MB of samples).
    for (threads, factor_halves) in [(1, 3), (4, 6)] {
        let ((samples, _), peak) =
            peak_during(|| stretch::run_with_stats(&g, &net, &family, threads));
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
        let ((rows, _), rows_peak) =
            peak_during(|| stretch::run_rows(&g, &net, &family, threads, 0));
        assert_eq!(rows.len(), family.len());
        assert!(
            rows_peak + returned <= peak,
            "{threads} threads: run_rows peaked at {rows_peak} B, run_with_stats at {peak} B \
             for {returned} B of samples"
        );
    }
}
