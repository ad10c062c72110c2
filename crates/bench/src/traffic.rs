//! The traffic-replay experiment behind `pr traffic`: demand-weighted
//! resilience over a scenario family.
//!
//! Where coverage (E5) asks *"what fraction of affected pairs still
//! deliver"*, this experiment asks the operator's question: *"what
//! fraction of the **traffic** still delivers, and how hot does the
//! hottest link run while it detours"*.
//!
//! [`run`] is the production path: one work unit per scenario, fanned
//! over [`crate::engine::run_units`]; each unit replays the whole
//! [`FlowSet`] through `pr-traffic`'s dataplane
//! ([`replay_scenario_bitparallel`]: a worker's [`ReplayScratch`]
//! prices the failure-free network once, and every scenario after that
//! corrects only the cones its failures cut off) and reports a
//! demand-weighted [`ScenarioTraffic`](pr_traffic::ScenarioTraffic).
//! Inside a unit the replay never calls the allocator (the unit's
//! failed set and its row are the only allocations), which is what lets
//! the workers scale: see DESIGN.md, "allocator discipline". Units
//! merge in scenario order and the demand grid makes every replay sum
//! exact, so the rows are bit-identical at any thread count.
//!
//! [`run_serial`] is the oracle — [`replay_scenario_naive`], one fresh
//! `walk_packet` per flow. It must equal [`run`] row for row
//! (`tests/determinism.rs`).

use serde::Serialize;

use pr_core::{generous_ttl, DenseFib, PrAgent, PrNetwork};
use pr_graph::{AllPairs, Graph};
use pr_scenarios::{ScenarioFamily, ScenarioIter};
use pr_traffic::{
    replay_scenario_bitparallel, replay_scenario_naive, DemandTally, FlowSet, ReplayScratch,
    ReplayStats,
};

use crate::engine::run_units;

/// One scenario's demand-weighted outcome.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TrafficRow {
    /// Index of the scenario in the family.
    pub scenario: usize,
    /// Number of links failed in the scenario.
    pub failures: usize,
    /// The replay outcome: tally + peak link load.
    pub traffic: pr_traffic::ScenarioTraffic,
}

/// Aggregate over a sweep's rows (folded in scenario order — the
/// totals are thread-count invariant).
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct TrafficSummary {
    /// Scenarios replayed.
    pub scenarios: usize,
    /// Demand-weighted tally summed over all scenarios.
    pub tally: DemandTally,
    /// Worst per-scenario max-link-utilisation (peak link load as a
    /// fraction of offered demand), and the scenario it occurred in.
    pub max_link_utilisation: f64,
    /// Scenario index of the utilisation peak (`None` for an empty
    /// sweep or when nothing was delivered anywhere).
    pub peak_scenario: Option<usize>,
}

impl TrafficSummary {
    /// Traffic-weighted coverage over the whole sweep.
    pub fn weighted_coverage(&self) -> f64 {
        self.tally.weighted_coverage()
    }

    /// Fraction of the offered demand lost over the whole sweep.
    pub fn demand_lost_fraction(&self) -> f64 {
        self.tally.demand_lost_fraction()
    }
}

/// Sums a sweep's rows in scenario order.
pub fn summarize(rows: &[TrafficRow]) -> TrafficSummary {
    let mut s = TrafficSummary { scenarios: rows.len(), ..Default::default() };
    for r in rows {
        s.tally.absorb(&r.traffic.tally);
        let util = r.traffic.max_link_utilisation();
        if util > s.max_link_utilisation {
            s.max_link_utilisation = util;
            s.peak_scenario = Some(r.scenario);
        }
    }
    s
}

/// What a replay sweep (`pr traffic`, `pr impair`) hoists: the
/// network's own failure-free trees, **borrowed** — the agent's
/// decisions and the replay's climbs read the same memory — the dense
/// FIB staged from them, the compiled PR agent and the TTL.
pub(crate) fn replay_plan<'a>(
    graph: &'a Graph,
    pr: &'a PrNetwork,
) -> (&'a AllPairs, DenseFib, PrAgent<'a>, usize) {
    (pr.base(), DenseFib::from_base(graph, pr.base()), pr.agent(graph), generous_ttl(graph))
}

/// Replays `flows` through every scenario of `family` on `threads`
/// workers ([`run_with_stats`] without the counters).
pub fn run(
    graph: &Graph,
    pr: &PrNetwork,
    family: &dyn ScenarioFamily,
    flows: &FlowSet,
    threads: usize,
) -> Vec<TrafficRow> {
    run_with_stats(graph, pr, family, flows, threads).0
}

/// Replays `flows` through every scenario of `family` on `threads`
/// workers, and sums what the replays looked at. Failure-invariant
/// state is hoisted once ([`replay_plan`]); each worker owns a private
/// [`ReplayScratch`] reused across its scenarios (and with it its own
/// copy of the failure-free baseline: a load vector and a tally). The
/// counters are taken per scenario, so every one but
/// [`ReplayStats::baselines`] — one per worker — is thread-count
/// invariant. This is what `pr traffic --stats` prints.
pub fn run_with_stats(
    graph: &Graph,
    pr: &PrNetwork,
    family: &dyn ScenarioFamily,
    flows: &FlowSet,
    threads: usize,
) -> (Vec<TrafficRow>, ReplayStats) {
    let (base, dense, agent, ttl) = replay_plan(graph, pr);
    let mut stats = ReplayStats::default();
    let rows = run_units(
        family.len(),
        threads,
        ReplayScratch::new,
        |scratch: &mut ReplayScratch<pr_core::PrHeader>, scenario| {
            let failed = family.scenario(scenario);
            let traffic = replay_scenario_bitparallel(
                graph, &agent, &dense, base, flows, &failed, ttl, scratch,
            );
            (TrafficRow { scenario, failures: failed.len(), traffic }, scratch.take_stats())
        },
    )
    .into_iter()
    .map(|(row, scenario)| {
        stats.merge(&scenario);
        row
    })
    .collect();
    (rows, stats)
}

/// The serial per-packet reference: every flow walked one packet at a
/// time with fresh scratch state, no FIB, no repair, and base trees of
/// its own ([`run`] must be bit-identical to this at every thread
/// count, which also checks the network's trees).
pub fn run_serial(
    graph: &Graph,
    pr: &PrNetwork,
    family: &dyn ScenarioFamily,
    flows: &FlowSet,
) -> Vec<TrafficRow> {
    let base = AllPairs::compute_all_live(graph);
    let agent = pr.agent(graph);
    let ttl = generous_ttl(graph);
    ScenarioIter::new(family)
        .enumerate()
        .map(|(scenario, failed)| {
            let traffic = replay_scenario_naive(graph, &agent, &base, flows, &failed, ttl);
            TrafficRow { scenario, failures: failed.len(), traffic }
        })
        .collect()
}

/// Renders a sweep as CSV: one row per scenario.
pub fn rows_csv(rows: &[TrafficRow]) -> String {
    let mut out = String::from(
        "scenario,failures,flows,offered,delivered,lost,weighted_coverage,\
         demand_lost_fraction,max_link_load,max_link_utilisation\n",
    );
    for r in rows {
        let t = &r.traffic.tally;
        out.push_str(&format!(
            "{},{},{},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6}\n",
            r.scenario,
            r.failures,
            t.flows,
            t.offered,
            t.delivered,
            t.lost(),
            t.weighted_coverage(),
            t.demand_lost_fraction(),
            r.traffic.max_link_load,
            r.traffic.max_link_utilisation(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pr_scenarios::SingleLinkFailures;
    use pr_topologies::Isp;
    use pr_traffic::{GravityTraffic, UniformTraffic};

    #[test]
    fn abilene_single_failures_lose_no_demand_under_pr_dd() {
        let (g, emb) = crate::paper_topology(Isp::Abilene);
        let pr = PrNetwork::compile(
            &g,
            emb,
            pr_core::PrMode::DistanceDiscriminator,
            pr_core::DiscriminatorKind::Hops,
        );
        let flows = FlowSet::all_pairs(&GravityTraffic::new(&g));
        let singles = SingleLinkFailures::new(&g);
        let (rows, stats) = run_with_stats(&g, &pr, &singles, &flows, 2);
        assert_eq!(rows, run(&g, &pr, &singles, &flows, 1));
        assert_eq!(rows.len(), g.link_count());
        // Every busy destination priced off its episode, none walked.
        assert_eq!(stats.replays, g.link_count() as u64);
        assert_eq!((stats.priced, stats.walks), (stats.destinations, 0), "{stats:?}");
        let s = summarize(&rows);
        assert_eq!(s.scenarios, g.link_count());
        assert_eq!(s.weighted_coverage(), 1.0, "PR-DD delivers all single-failure demand");
        assert_eq!(s.demand_lost_fraction(), 0.0);
        assert!(s.max_link_utilisation > 0.0 && s.max_link_utilisation < 1.0);
        assert!(s.peak_scenario.is_some());
        let csv = rows_csv(&rows);
        assert_eq!(csv.lines().count(), rows.len() + 1);
        assert!(csv.starts_with("scenario,failures,"));
    }

    #[test]
    fn the_plan_borrows_the_networks_trees() {
        // What `run` and `impair::run` replay over: a plan that computed
        // trees of its own would hand out another address.
        let (g, emb) = crate::paper_topology(Isp::Abilene);
        let pr = PrNetwork::compile(
            &g,
            emb,
            pr_core::PrMode::DistanceDiscriminator,
            pr_core::DiscriminatorKind::Hops,
        );
        assert!(std::ptr::eq(replay_plan(&g, &pr).0, pr.base()));
    }

    #[test]
    fn uniform_summary_tally_is_integral() {
        let (g, emb) = crate::paper_topology(Isp::Abilene);
        let pr = PrNetwork::compile(
            &g,
            emb,
            pr_core::PrMode::DistanceDiscriminator,
            pr_core::DiscriminatorKind::Hops,
        );
        let flows = FlowSet::all_pairs(&UniformTraffic::new(&g));
        let singles = SingleLinkFailures::new(&g);
        let s = summarize(&run(&g, &pr, &singles, &flows, 2));
        assert_eq!(s.tally.offered.fract(), 0.0);
        assert_eq!(s.tally.evaluated.fract(), 0.0);
        assert_eq!(
            s.tally.offered,
            (g.link_count() * g.node_count() * (g.node_count() - 1)) as f64
        );
    }
}
