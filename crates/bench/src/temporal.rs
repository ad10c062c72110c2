//! Temporal (discrete-event) experiment sweeps through the parallel
//! engine.
//!
//! PR 2 gave the *topological* experiments (coverage, stretch) the
//! work-unit engine; this module ports the *temporal* ones — §1's
//! OC-192 outage arithmetic, detection-delay sensitivity, and §7 link
//! flapping — onto the same machinery. A [`TemporalFamily`] enumerates
//! timed scenarios by index; each index is one engine work unit that
//! replays the scenario through `pr_sim` under two schemes (PR and a
//! reconverging IGP) and returns their [`Metrics`].
//!
//! **Determinism.** Scenario `i` is pure data replayed with no shared
//! state (its CBR flow draws nothing from the simulator's RNG), and
//! the engine merges results in unit order. [`run`] is therefore
//! bit-identical at any thread count, one thread being the plain
//! scenario loop (`tests/determinism.rs` asserts this for all three
//! shipped families at 1/2/4 threads).
//!
//! **Hoisting.** The compiled PR network, its agent and the
//! failure-free all-pairs trees (the reconverging IGP's *stale* view)
//! are scenario-invariant and built once per sweep; each unit builds
//! only its own scenario and the IGP's post-failure tables.

use serde::Serialize;

use std::sync::Arc;

use pr_core::PrNetwork;
use pr_graph::{AllPairs, Graph, SpScratch};
use pr_scenarios::TemporalFamily;
use pr_sim::{igp_for, run_scenario, Metrics, SimConfig, Static};

use crate::engine;

/// Outcome of one timed scenario under both schemes.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TemporalRow {
    /// Scenario index within its family.
    pub scenario: usize,
    /// Scenario label (e.g. `"outage:LON-PAR"`).
    pub label: String,
    /// Packet Re-cycling's run.
    pub pr: Metrics,
    /// The reconverging IGP's run on the identical trace and traffic.
    pub igp: Metrics,
}

/// Sweeps every scenario of `family` on `threads` workers. One work
/// unit replays scenario `i` under PR and under the reconverging IGP
/// (tables repaired from the stale trees through the worker's arena).
pub fn run(
    graph: &Graph,
    net: &PrNetwork,
    family: &dyn TemporalFamily,
    config: &SimConfig,
    threads: usize,
) -> Vec<TemporalRow> {
    let agent = Static(net.agent(graph));
    let stale = Arc::new(AllPairs::compute_all_live(graph));
    engine::run_units(
        family.len(),
        threads.max(1),
        // One Dijkstra arena per worker: each unit's IGP tables are
        // incrementally repaired from the hoisted stale trees.
        SpScratch::new,
        |scratch, i| {
            let scenario = family.scenario(i);
            let pr = run_scenario(graph, &agent, &scenario, config);
            let igp_agent = igp_for(graph, &scenario, &stale, scratch);
            let igp = run_scenario(graph, &igp_agent, &scenario, config);
            TemporalRow { scenario: i, label: scenario.label, pr, igp }
        },
    )
}

/// Aggregate of a temporal sweep for reports: totals across scenarios.
#[derive(Debug, Clone, Default, Serialize)]
pub struct TemporalSummary {
    /// Scenarios swept.
    pub scenarios: usize,
    /// Total packets injected (identical for both schemes: CBR).
    pub injected: u64,
    /// PR deliveries / drops.
    pub pr_delivered: u64,
    /// PR drops, all causes.
    pub pr_dropped: u64,
    /// IGP deliveries.
    pub igp_delivered: u64,
    /// IGP drops, all causes.
    pub igp_dropped: u64,
}

/// Sums a sweep's rows.
pub fn summarize(rows: &[TemporalRow]) -> TemporalSummary {
    let mut s = TemporalSummary { scenarios: rows.len(), ..Default::default() };
    for r in rows {
        s.injected += r.pr.injected;
        s.pr_delivered += r.pr.delivered;
        s.pr_dropped += r.pr.total_dropped();
        s.igp_delivered += r.igp.delivered;
        s.igp_dropped += r.igp.total_dropped();
    }
    s
}

/// Renders a sweep as CSV: one row per scenario, both schemes.
pub fn rows_csv(rows: &[TemporalRow]) -> String {
    let mut out =
        String::from("scenario,label,injected,pr_delivered,pr_dropped,igp_delivered,igp_dropped\n");
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{},{},{},{}\n",
            r.scenario,
            r.label,
            r.pr.injected,
            r.pr.delivered,
            r.pr.total_dropped(),
            r.igp.delivered,
            r.igp.total_dropped(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pr_core::{DiscriminatorKind, PrMode};
    use pr_embedding::{CellularEmbedding, RotationSystem};
    use pr_graph::generators;
    use pr_scenarios::{OutageParams, OutageSweep};

    fn ring_net(n: usize) -> (Graph, PrNetwork) {
        let g = generators::ring(n, 1);
        let emb = CellularEmbedding::new(&g, RotationSystem::identity(&g)).unwrap();
        let net =
            PrNetwork::compile(&g, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
        (g, net)
    }

    #[test]
    fn outage_sweep_shows_pr_beating_reconvergence_on_every_link() {
        let (g, net) = ring_net(5);
        let fam = OutageSweep::new(&g, OutageParams::default());
        let rows = run(&g, &net, &fam, &SimConfig::default(), 2);
        assert_eq!(rows.len(), 5);
        for r in &rows {
            assert_eq!(r.pr.injected, r.igp.injected, "same CBR schedule");
            assert!(r.pr.delivered > r.igp.delivered, "scenario {}: PR must win", r.label);
            // PR's loss is bounded by the 1 ms detection window.
            assert!(r.pr.delivery_ratio() > 0.99, "{}: {:?}", r.label, r.pr);
        }
        let s = summarize(&rows);
        assert_eq!(s.scenarios, 5);
        assert_eq!(s.injected, rows.iter().map(|r| r.pr.injected).sum::<u64>());
        assert!(s.pr_dropped < s.igp_dropped / 10);
        let csv = rows_csv(&rows);
        assert_eq!(csv.lines().count(), 6);
        assert!(csv.starts_with("scenario,label,"));
    }

    #[test]
    fn parallel_matches_serial_smoke() {
        let (g, net) = ring_net(4);
        let fam = OutageSweep::new(&g, OutageParams::default());
        let config = SimConfig::default();
        let reference = run(&g, &net, &fam, &config, 1);
        for threads in [2, 4] {
            assert_eq!(run(&g, &net, &fam, &config, threads), reference, "{threads} threads");
        }
    }
}
