//! Coverage experiment (E5): which schemes deliver, under how many
//! concurrent failures — quantifying §4.2/§4.3's claims and RFC 5286's
//! partial protection.
//!
//! The sweep is the engine's unit kernel ([`crate::engine`]) with five
//! lanes ([`crate::lanes`]): per (scenario, destination) unit a
//! worker's cone opener yields the affected sources, and every lane —
//! both PR modes and FCP, arithmetic under one failure, and LFA and
//! not-via, which walk — answers every connected one, in
//! [`CoverageRow`] field order. The ordered block fold of integer
//! counts makes the output bit-identical to the independent oracle
//! (`pr_testkit::oracle::coverage_serial`: plain `walk_packet`,
//! scratch Dijkstra, all n sources classified) at any thread count
//! (enforced by `tests/determinism.rs`).

use serde::Serialize;

use pr_baselines::{FcpAgent, LfaAgent, NotViaAgent};
use pr_core::{DiscriminatorKind, PrMode, PrNetwork};
use pr_embedding::CellularEmbedding;
use pr_graph::Graph;
use pr_scenarios::{SampledMultiFailures, ScenarioFamily, SingleLinkFailures};

use crate::engine::{ConePlan, OpenCone, SweepUnit};
use crate::lanes::{Lane, LaneScratch};

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
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
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

/// What a block of work units folds into: `(evaluated, delivered)`
/// per scheme, in [`CoverageRow`] field order.
type BlockCells = [(u64, u64); 5];

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
    let compile =
        |mode| PrNetwork::compile(graph, embedding.clone(), mode, DiscriminatorKind::Hops);
    let (basic, dd) = (compile(PrMode::Basic), compile(PrMode::DistanceDiscriminator));
    // Both PR networks route on equal trees; the plan, LFA and not-via
    // read the DD's.
    let plan = ConePlan::new(graph, dd.base());
    let (lfa, notvia) =
        (LfaAgent::compute(graph, plan.base()), NotViaAgent::compute(graph, plan.base()));
    let (basic, dd) = (basic.agent(graph), dd.agent(graph));

    let mut rows = Vec::new();
    for k in 1..=max_failures {
        let scenarios = scenarios_for(graph, k, samples_per_count, seed);
        let mut row = CoverageRow { failures: k, ..CoverageRow::default() };
        plan.sweep(scenarios.as_ref(), threads).fold(
            || {
                let fcp = FcpAgent::cached_with_base(graph, plan.base());
                let (basic, dd) = (LaneScratch::new(&plan, basic), LaneScratch::new(&plan, dd));
                let (lfa, notvia) =
                    (LaneScratch::new(&plan, &lfa), LaneScratch::new(&plan, &notvia));
                (plan.sweep_opener(), basic, dd, LaneScratch::new(&plan, fcp), lfa, notvia)
            },
            |_| BlockCells::default(),
            |(opener, basic, dd, fcp, lfa, notvia), unit, cells: &mut BlockCells| {
                let cone = opener.open(&unit);
                if cone.len() == 0 {
                    return;
                }
                let counts = [
                    tally(basic, &unit, &cone),
                    tally(dd, &unit, &cone),
                    tally(fcp, &unit, &cone),
                    tally(lfa, &unit, &cone),
                    tally(notvia, &unit, &cone),
                ];
                for (cell, (evaluated, delivered)) in cells.iter_mut().zip(counts) {
                    cell.0 += evaluated;
                    cell.1 += delivered;
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

/// `(evaluated, delivered)` of one lane over the connected sources of
/// `unit`'s opened cone ("| path" conditioning).
fn tally<L: Lane>(
    lane: &mut LaneScratch<'_, L>,
    unit: &SweepUnit<'_>,
    cone: &OpenCone<'_>,
) -> (u64, u64) {
    let mut answers = lane.unit(unit, cone);
    let connected = cone.clone().filter(|(_, survivor)| survivor.is_some());
    connected.fold((0, 0), |(evaluated, delivered), (src, _)| {
        (evaluated + 1, delivered + u64::from(answers.cost(src).is_some()))
    })
}

/// Scenario family for one failure count: exhaustive singles
/// (streaming), sampled multis. Public so that the serial oracle
/// (`pr_testkit::oracle::coverage_serial`) sweeps the identical space.
pub fn scenarios_for(
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
