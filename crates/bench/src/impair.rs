//! The impairment experiment: demand-weighted loss-over-time under a
//! stochastic fault process.
//!
//! A temporal sweep ([`crate::temporal`]) prices each scenario with
//! the packet simulator; this experiment prices each scenario's whole
//! **timeline** with the traffic dataplane instead: one work unit per
//! scenario of a (typically [`Impaired`](pr_scenarios::Impaired))
//! [`TemporalFamily`], each unit replaying the [`FlowSet`] through
//! `pr_traffic::replay_timeline` to get a [`pr_traffic::TallySeries`] — the
//! demand-weighted loss-over-time and stretch-over-time curves the
//! `pr impair` subcommand emits.
//!
//! **Determinism.** An impaired family's timeline is pure in
//! `(scenario index, seed)`; the timeline replay is exact on the
//! demand grid; units merge in scenario order through
//! [`engine::run_ordered`]. [`stream`] therefore hands over the same
//! rows in the same order at any thread count — one thread being the
//! plain scenario loop — and across runs (`tests/determinism.rs`;
//! `tests/golden_impair.rs` pins the bytes independently).
//!
//! **Memory.** A row carries one `TallySample` per sampled interval.
//! The front doors take each row at the engine's sink, fold it into an
//! [`ImpairSummary`] ([`ImpairSummary::add`]), render it into the
//! artefact ([`crate::artefact::RowWriter`]) and drop it; only [`run`],
//! the library form, keeps them all.

use std::io::{self, Write};

use serde::Serialize;

use pr_core::PrNetwork;
use pr_graph::Graph;
use pr_scenarios::TemporalFamily;
use pr_traffic::{replay_timeline, FlowSet, ReplayScratch, ReplayStats, TimelineTraffic};

use crate::artefact::{self, CsvRow, Format};
use crate::engine;
use crate::traffic::replay_plan;

/// One scenario timeline's demand-weighted outcome.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ImpairRow {
    /// Scenario index within its family.
    pub scenario: usize,
    /// Scenario label (e.g. `"outage:LON-PAR+gilbert"`).
    pub label: String,
    /// Link events in the (impaired) timeline.
    pub events: usize,
    /// The loss-over-time curve plus the window's peak link load.
    pub traffic: TimelineTraffic,
}

/// Replays `flows` through every scenario timeline of `family` on
/// `threads` workers and collects the rows ([`stream`] into a `Vec`).
pub fn run(
    graph: &Graph,
    pr: &PrNetwork,
    family: &dyn TemporalFamily,
    flows: &FlowSet,
    threads: usize,
) -> Vec<ImpairRow> {
    let mut rows = Vec::with_capacity(family.len());
    stream(graph, pr, family, flows, threads, |row| rows.push(row));
    rows
}

/// Replays `flows` through every scenario timeline of `family` on
/// `threads` workers, hands each row to `sink` in scenario order, and
/// sums what the replays looked at. Failure-invariant state — the
/// network's own base trees, the FIB staged from them, compiled agent,
/// TTL — is hoisted once; each worker owns a private [`ReplayScratch`]
/// reused across its scenarios. The counters are taken per timeline, so
/// every one but [`ReplayStats::baselines`] — one per worker — is
/// thread-count invariant. This is what `pr impair` runs, and what
/// `--stats` prints.
pub fn stream(
    graph: &Graph,
    pr: &PrNetwork,
    family: &dyn TemporalFamily,
    flows: &FlowSet,
    threads: usize,
    mut sink: impl FnMut(ImpairRow),
) -> ReplayStats {
    let (base, dense, agent, ttl) = replay_plan(graph, pr);
    let mut stats = ReplayStats::default();
    engine::run_ordered(
        family.len(),
        threads,
        &ReplayScratch::new,
        &|scratch: &mut ReplayScratch<pr_core::PrHeader>, i| {
            let scenario = family.scenario(i);
            let traffic =
                replay_timeline(graph, &agent, &dense, base, flows, &scenario, ttl, scratch);
            let events = scenario.events.len();
            (
                ImpairRow { scenario: i, label: scenario.label, events, traffic },
                scratch.take_stats(),
            )
        },
        &mut |(row, timeline)| {
            stats.merge(&timeline);
            sink(row);
        },
    );
    stats
}

/// Aggregate of an impairment sweep: time integrals folded over every
/// scenario in order (thread-count invariant).
#[derive(Debug, Clone, Default, Serialize)]
pub struct ImpairSummary {
    /// Scenario timelines replayed.
    pub scenarios: usize,
    /// Link events across all timelines.
    pub events: usize,
    /// `∫ offered dt` summed over scenarios (demand-seconds).
    pub offered_demand_seconds: f64,
    /// `∫ lost_PR dt` summed over scenarios.
    pub pr_demand_seconds_lost: f64,
    /// `∫ lost_IGP dt` summed over scenarios.
    pub igp_demand_seconds_lost: f64,
    /// Worst instantaneous PR loss fraction anywhere in the sweep.
    pub peak_pr_loss_fraction: f64,
    /// Scenario index of that peak (`None` for an empty sweep).
    pub peak_scenario: Option<usize>,
    /// Worst per-interval peak link load anywhere in the sweep.
    pub max_link_load: f64,
}

impl ImpairSummary {
    /// Folds in the next row; rows come in scenario order.
    pub fn add(&mut self, row: &ImpairRow) {
        let series = &row.traffic.series;
        self.scenarios += 1;
        self.events += row.events;
        self.offered_demand_seconds += series.offered_demand_seconds();
        self.pr_demand_seconds_lost += series.pr_demand_seconds_lost();
        self.igp_demand_seconds_lost += series.igp_demand_seconds_lost();
        let peak = series.peak_pr_loss_fraction();
        if peak > self.peak_pr_loss_fraction {
            self.peak_pr_loss_fraction = peak;
            self.peak_scenario = Some(row.scenario);
        }
        self.max_link_load = self.max_link_load.max(row.traffic.max_link_load);
    }

    /// Sweep-wide time-weighted PR loss fraction.
    pub fn pr_loss_over_time(&self) -> f64 {
        if self.offered_demand_seconds == 0.0 {
            0.0
        } else {
            self.pr_demand_seconds_lost / self.offered_demand_seconds
        }
    }

    /// Sweep-wide time-weighted loss fraction of the reconverging IGP.
    pub fn igp_loss_over_time(&self) -> f64 {
        if self.offered_demand_seconds == 0.0 {
            0.0
        } else {
            self.igp_demand_seconds_lost / self.offered_demand_seconds
        }
    }
}

/// Folds a sweep's rows in scenario order.
pub fn summarize(rows: &[ImpairRow]) -> ImpairSummary {
    let mut s = ImpairSummary::default();
    rows.iter().for_each(|row| s.add(row));
    s
}

/// One line per **sampled interval**, so the artefact is the
/// loss-over-time curve itself, not just its integral.
impl CsvRow for ImpairRow {
    const CSV_HEADER: &'static str =
        "scenario,label,from_ms,to_ms,links_down,offered,pr_lost,igp_lost,\
         pr_loss_fraction,igp_loss_fraction,weighted_coverage,mean_stretch\n";

    fn write_csv(&self, out: &mut dyn Write) -> io::Result<()> {
        for s in &self.traffic.series.samples {
            writeln!(
                out,
                "{},{},{:.3},{:.3},{},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6}",
                self.scenario,
                self.label,
                s.from_ns as f64 * 1e-6,
                s.to_ns as f64 * 1e-6,
                s.links_down,
                s.tally.offered,
                s.pr_lost(),
                s.igp_lost(),
                s.pr_lost_fraction(),
                s.igp_lost_fraction(),
                s.tally.weighted_coverage(),
                s.tally.mean_weighted_stretch().unwrap_or(1.0),
            )?;
        }
        Ok(())
    }
}

/// Renders a sweep as CSV ([`CsvRow`]'s lines for every row).
pub fn rows_csv(rows: &[ImpairRow]) -> String {
    artefact::render(rows, Format::Csv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pr_core::{DiscriminatorKind, PrMode};
    use pr_scenarios::{Impaired, ImpairmentProcess, OutageParams, OutageSweep};
    use pr_topologies::Isp;
    use pr_traffic::GravityTraffic;

    fn abilene() -> (Graph, PrNetwork) {
        let (g, emb) = crate::paper_topology(Isp::Abilene);
        let net =
            PrNetwork::compile(&g, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
        (g, net)
    }

    #[test]
    fn gilbert_impaired_sweep_prices_pr_ahead_of_the_igp() {
        let (g, net) = abilene();
        let fam = Impaired::new(
            &g,
            OutageSweep::new(&g, OutageParams::default()),
            ImpairmentProcess::GilbertElliott { fail_rate_per_s: 5.0, mean_down_ns: 30_000_000 },
            crate::EXPERIMENT_SEED,
        );
        let flows = FlowSet::all_pairs(&GravityTraffic::new(&g));
        let rows = run(&g, &net, &fam, &flows, 2);
        assert_eq!(rows.len(), g.link_count());
        let s = summarize(&rows);
        assert!(s.events > 2 * s.scenarios, "gilbert must inject beyond the base outages");
        assert!(s.offered_demand_seconds > 0.0);
        assert!(
            s.pr_demand_seconds_lost < s.igp_demand_seconds_lost,
            "pr={} igp={}",
            s.pr_demand_seconds_lost,
            s.igp_demand_seconds_lost
        );
        assert!(s.pr_loss_over_time() < s.igp_loss_over_time());
        assert!(s.peak_scenario.is_some());
        let csv = rows_csv(&rows);
        assert!(csv.starts_with("scenario,label,from_ms,"));
        assert!(csv.lines().count() > rows.len(), "one line per sampled interval");
    }

    #[test]
    fn identity_impairment_matches_the_undecorated_family() {
        let (g, net) = abilene();
        let inner = OutageSweep::new(&g, OutageParams::default());
        let wrapped = Impaired::new(
            &g,
            OutageSweep::new(&g, OutageParams::default()),
            ImpairmentProcess::GilbertElliott { fail_rate_per_s: 0.0, mean_down_ns: 1 },
            crate::EXPERIMENT_SEED,
        );
        let flows = FlowSet::all_pairs(&GravityTraffic::new(&g));
        assert_eq!(run(&g, &net, &inner, &flows, 2), run(&g, &net, &wrapped, &flows, 2));
    }
}
