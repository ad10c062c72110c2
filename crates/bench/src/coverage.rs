//! Coverage experiment (E5): which schemes deliver, under how many
//! concurrent failures — quantifying §4.2/§4.3's claims and RFC 5286's
//! partial protection.
//!
//! The sweep itself routes through [`crate::engine`]: one work unit
//! per (scenario, destination), per-worker walk scratches and FCP
//! route caches, and an ordered block fold of integer counts that
//! makes the output bit-identical to [`run_serial`] at any thread
//! count (enforced by `tests/determinism.rs`).

use serde::Serialize;

use pr_baselines::{FcpAgent, LfaAgent, NotViaAgent};
use pr_core::{
    generous_ttl, walk_packet, walk_packet_spliced, DiscriminatorKind, PrMode, PrNetwork,
    SuffixMemo, WalkResult, WalkScratch,
};
use pr_embedding::CellularEmbedding;
use pr_graph::{AllPairs, Graph, SpScratch, SpTree};
use pr_scenarios::{SampledMultiFailures, ScenarioFamily, ScenarioIter, SingleLinkFailures};

use crate::engine::ScenarioSweep;

/// Delivery statistics for one scheme at one failure count.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct CoverageCell {
    /// Affected-and-connected (scenario, pair) combinations evaluated.
    pub evaluated: u64,
    /// Of those, how many the scheme delivered.
    pub delivered: u64,
}

impl CoverageCell {
    /// Delivered fraction (1.0 when nothing was evaluated).
    pub fn ratio(&self) -> f64 {
        if self.evaluated == 0 {
            1.0
        } else {
            self.delivered as f64 / self.evaluated as f64
        }
    }

    fn absorb(&mut self, (evaluated, delivered): (u64, u64)) {
        self.evaluated += evaluated;
        self.delivered += delivered;
    }
}

/// One row of the coverage table: failure count → per-scheme cells.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CoverageRow {
    /// Number of concurrent link failures in the scenarios of this row.
    pub failures: usize,
    /// PR basic mode (§4.2, single header bit).
    pub pr_basic: CoverageCell,
    /// PR distance-discriminator mode (§4.3).
    pub pr_dd: CoverageCell,
    /// Failure-Carrying Packets.
    pub fcp: CoverageCell,
    /// Loop-Free Alternates.
    pub lfa: CoverageCell,
    /// Not-via addresses (tunnelled single-failure repair).
    pub notvia: CoverageCell,
}

impl CoverageRow {
    fn empty(failures: usize) -> CoverageRow {
        CoverageRow {
            failures,
            pr_basic: CoverageCell::default(),
            pr_dd: CoverageCell::default(),
            fcp: CoverageCell::default(),
            lfa: CoverageCell::default(),
            notvia: CoverageCell::default(),
        }
    }
}

/// The five schemes' compiled, failure-invariant state, hoisted out of
/// every loop level.
struct Compiled {
    basic_net: PrNetwork,
    dd_net: PrNetwork,
    lfa: LfaAgent,
    notvia: NotViaAgent,
    ttl: usize,
}

impl Compiled {
    fn new(graph: &Graph, embedding: &CellularEmbedding) -> Compiled {
        Compiled {
            basic_net: PrNetwork::compile(
                graph,
                embedding.clone(),
                PrMode::Basic,
                DiscriminatorKind::Hops,
            ),
            dd_net: PrNetwork::compile(
                graph,
                embedding.clone(),
                PrMode::DistanceDiscriminator,
                DiscriminatorKind::Hops,
            ),
            lfa: LfaAgent::compute(graph),
            notvia: NotViaAgent::compute(graph),
            ttl: generous_ttl(graph),
        }
    }
}

/// What a block of work units folds into: `(evaluated, delivered)`
/// per scheme, in [`CoverageRow`] field order.
type BlockCells = [(u64, u64); 5];

/// Per-worker mutable state: the FCP route cache, one walk scratch per
/// header-state type, and the Dijkstra arena + reusable live tree for
/// the per-unit incremental SPT repair — all reused across every walk
/// the worker runs.
struct WorkerState<'a> {
    fcp: FcpAgent<'a>,
    pr_scratch: WalkScratch<pr_core::PrHeader>,
    fcp_scratch: WalkScratch<pr_baselines::FcpState>,
    unit_scratch: WalkScratch<()>,
    notvia_scratch: WalkScratch<pr_baselines::NotViaState>,
    // One delivered-suffix memo per scheme, evicted at unit
    // boundaries. Basic and DD share a scratch (same header type) but
    // must not share a memo: their trajectories differ.
    basic_memo: SuffixMemo<pr_core::PrHeader>,
    dd_memo: SuffixMemo<pr_core::PrHeader>,
    fcp_memo: SuffixMemo<pr_baselines::FcpState>,
    lfa_memo: SuffixMemo<()>,
    notvia_memo: SuffixMemo<pr_baselines::NotViaState>,
    sp_scratch: SpScratch,
    live: SpTree,
}

/// Runs coverage for failure counts `1..=max_failures`, with
/// `samples_per_count` sampled scenarios each (failure count 1 runs
/// exhaustively instead), fanned out over `threads` workers.
pub fn run(
    graph: &Graph,
    embedding: &CellularEmbedding,
    max_failures: usize,
    samples_per_count: usize,
    seed: u64,
    threads: usize,
) -> Vec<CoverageRow> {
    let compiled = Compiled::new(graph, embedding);
    let base = AllPairs::compute_all_live(graph);
    let basic_agent = compiled.basic_net.agent(graph);
    let dd_agent = compiled.dd_net.agent(graph);

    let mut rows = Vec::new();
    for k in 1..=max_failures {
        let scenarios = scenarios_for(graph, k, samples_per_count, seed);
        let sweep = ScenarioSweep::new(graph, scenarios.as_ref(), &base, threads);
        let mut row = CoverageRow::empty(k);
        sweep.fold(
            || WorkerState {
                fcp: FcpAgent::cached_with_base(graph, sweep.base()),
                pr_scratch: WalkScratch::new(),
                fcp_scratch: WalkScratch::new(),
                unit_scratch: WalkScratch::new(),
                notvia_scratch: WalkScratch::new(),
                basic_memo: SuffixMemo::new(),
                dd_memo: SuffixMemo::new(),
                fcp_memo: SuffixMemo::new(),
                lfa_memo: SuffixMemo::new(),
                notvia_memo: SuffixMemo::new(),
                sp_scratch: SpScratch::new(),
                live: SpTree::placeholder(),
            },
            // Scenario boundary: the FCP memo's keys are subsets of the
            // departing scenario — evict instead of growing the map
            // across the sweep.
            |w, _| w.fcp.begin_scenario(),
            |w, unit, cells: &mut BlockCells| {
                w.live.repair_refresh(unit.base_tree, graph, unit.failed, &mut w.sp_scratch);
                let live_tree = &w.live;
                w.basic_memo.begin_unit();
                w.dd_memo.begin_unit();
                w.fcp_memo.begin_unit();
                w.lfa_memo.begin_unit();
                w.notvia_memo.begin_unit();
                for src in graph.nodes() {
                    if src == unit.dst {
                        continue;
                    }
                    if !unit.base_tree.path_crosses(graph, src, unit.failed) {
                        continue;
                    }
                    if !live_tree.reaches(src) {
                        continue; // "| path" conditioning
                    }
                    let ttl = compiled.ttl;
                    let failed = unit.failed;
                    let dst = unit.dst;
                    let walks = [
                        walk_packet_spliced(
                            graph,
                            &basic_agent,
                            src,
                            dst,
                            failed,
                            ttl,
                            &mut w.pr_scratch,
                            &mut w.basic_memo,
                        )
                        .result,
                        walk_packet_spliced(
                            graph,
                            &dd_agent,
                            src,
                            dst,
                            failed,
                            ttl,
                            &mut w.pr_scratch,
                            &mut w.dd_memo,
                        )
                        .result,
                        walk_packet_spliced(
                            graph,
                            &w.fcp,
                            src,
                            dst,
                            failed,
                            ttl,
                            &mut w.fcp_scratch,
                            &mut w.fcp_memo,
                        )
                        .result,
                        walk_packet_spliced(
                            graph,
                            &compiled.lfa,
                            src,
                            dst,
                            failed,
                            ttl,
                            &mut w.unit_scratch,
                            &mut w.lfa_memo,
                        )
                        .result,
                        walk_packet_spliced(
                            graph,
                            &compiled.notvia,
                            src,
                            dst,
                            failed,
                            ttl,
                            &mut w.notvia_scratch,
                            &mut w.notvia_memo,
                        )
                        .result,
                    ];
                    for (cell, delivered) in cells.iter_mut().zip(walks) {
                        cell.0 += 1;
                        if matches!(delivered, WalkResult::Delivered) {
                            cell.1 += 1;
                        }
                    }
                }
            },
            |_, cells| {
                row.pr_basic.absorb(cells[0]);
                row.pr_dd.absorb(cells[1]);
                row.fcp.absorb(cells[2]);
                row.lfa.absorb(cells[3]);
                row.notvia.absorb(cells[4]);
            },
        );
        rows.push(row);
    }
    rows
}

/// The serial reference implementation: the plain nested loop the seed
/// harness ran (with the base-tree recompute hoisted out of the
/// scenario loop — it never depended on the scenario) and the honest
/// recompute-per-decision FCP agent. `run` must produce bit-identical
/// rows at every thread count; benchmarks measure `run` against this.
pub fn run_serial(
    graph: &Graph,
    embedding: &CellularEmbedding,
    max_failures: usize,
    samples_per_count: usize,
    seed: u64,
) -> Vec<CoverageRow> {
    let compiled = Compiled::new(graph, embedding);
    let base = AllPairs::compute_all_live(graph);
    let basic_agent = compiled.basic_net.agent(graph);
    let dd_agent = compiled.dd_net.agent(graph);
    let fcp = FcpAgent::new(graph);
    let ttl = compiled.ttl;

    let mut rows = Vec::new();
    for k in 1..=max_failures {
        let scenarios = scenarios_for(graph, k, samples_per_count, seed);
        let mut row = CoverageRow::empty(k);
        for failed in ScenarioIter::new(scenarios.as_ref()) {
            let failed = &failed;
            for dst in graph.nodes() {
                let base_tree = base.towards(dst);
                let live_tree = SpTree::towards(graph, dst, failed);
                for src in graph.nodes() {
                    if src == dst {
                        continue;
                    }
                    let base_path = base_tree.path_darts(graph, src).expect("connected base graph");
                    if !base_path.iter().any(|d| failed.contains_dart(*d)) {
                        continue;
                    }
                    if !live_tree.reaches(src) {
                        continue; // "| path" conditioning
                    }
                    for (cell, delivered) in [
                        (
                            &mut row.pr_basic,
                            walk_packet(graph, &basic_agent, src, dst, failed, ttl).result,
                        ),
                        (
                            &mut row.pr_dd,
                            walk_packet(graph, &dd_agent, src, dst, failed, ttl).result,
                        ),
                        (&mut row.fcp, walk_packet(graph, &fcp, src, dst, failed, ttl).result),
                        (
                            &mut row.lfa,
                            walk_packet(graph, &compiled.lfa, src, dst, failed, ttl).result,
                        ),
                        (
                            &mut row.notvia,
                            walk_packet(graph, &compiled.notvia, src, dst, failed, ttl).result,
                        ),
                    ] {
                        cell.evaluated += 1;
                        if matches!(delivered, WalkResult::Delivered) {
                            cell.delivered += 1;
                        }
                    }
                }
            }
        }
        rows.push(row);
    }
    rows
}

/// Scenario family for one failure count: exhaustive singles
/// (streaming), sampled multis (shared by the engine and serial paths
/// so they sweep the identical space).
fn scenarios_for(
    graph: &Graph,
    k: usize,
    samples_per_count: usize,
    seed: u64,
) -> Box<dyn ScenarioFamily + '_> {
    if k == 1 {
        Box::new(SingleLinkFailures::new(graph))
    } else {
        let fam = SampledMultiFailures::new(graph, k, samples_per_count, seed + k as u64);
        // A shortfall would aggregate smaller failure sets into the
        // row labelled `failures = k` — the silent skew this harness
        // refuses to report.
        assert_eq!(
            fam.incomplete_draws(),
            0,
            "graph cannot lose {k} links; lower the failure count"
        );
        Box::new(fam)
    }
}

/// Renders the coverage table as aligned text.
pub fn render(rows: &[CoverageRow]) -> String {
    let mut out = String::from(
        "failures  pr-basic   pr-dd      fcp        lfa        not-via    (delivered / affected connected pairs)\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:>8}  {:>8.4}   {:>8.4}   {:>8.4}   {:>8.4}   {:>8.4}\n",
            r.failures,
            r.pr_basic.ratio(),
            r.pr_dd.ratio(),
            r.fcp.ratio(),
            r.lfa.ratio(),
            r.notvia.ratio(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abilene_coverage_matches_paper_claims() {
        let g =
            pr_topologies::load(pr_topologies::Isp::Abilene, pr_topologies::Weighting::Distance);
        let rot = pr_embedding::heuristics::thorough(&g, 2010, 4, 10_000);
        let emb = CellularEmbedding::new(&g, rot).unwrap();
        assert_eq!(emb.genus(), 0);
        let rows = run(&g, &emb, 3, 10, 7, 2);

        // Single failures: both PR modes and FCP at 100%; LFA partial.
        let r1 = &rows[0];
        assert_eq!(r1.pr_basic.ratio(), 1.0, "PR basic covers all single failures");
        assert_eq!(r1.pr_dd.ratio(), 1.0);
        assert_eq!(r1.fcp.ratio(), 1.0);
        assert!(r1.lfa.ratio() < 1.0, "LFA cannot protect everything on Abilene");
        assert_eq!(r1.notvia.ratio(), 1.0, "not-via covers all single failures on 2EC graphs");

        // Multi-failures: PR-DD and FCP stay at 100% (genus 0), basic
        // mode may livelock, LFA degrades further.
        for r in &rows[1..] {
            assert_eq!(r.pr_dd.ratio(), 1.0, "k={}", r.failures);
            assert_eq!(r.fcp.ratio(), 1.0, "k={}", r.failures);
            assert!(r.pr_basic.ratio() <= 1.0);
            assert!(r.lfa.ratio() < 1.0);
        }
        let text = render(&rows);
        assert!(text.contains("failures"));
        assert_eq!(text.lines().count(), rows.len() + 1);
    }

    #[test]
    fn coverage_cell_ratio_empty_is_one() {
        assert_eq!(CoverageCell::default().ratio(), 1.0);
    }
}
