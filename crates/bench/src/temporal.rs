//! Temporal sweeps through the parallel engine (§1's outage
//! arithmetic, §7's link flapping), and the §1 OC-192 scenario. Each
//! index of a [`TemporalFamily`] is one work unit that prices its
//! scenario's flow under PR and a reconverging IGP. A unit is pure
//! data priced with no shared state, and the engine merges units in
//! order, so [`run`] is bit-identical at any thread count
//! (`tests/determinism.rs`). The PR agent is built once per sweep, and
//! the network's failure-free trees are the IGP's stale view.

use serde::Serialize;

use pr_core::PrNetwork;
use pr_graph::{Graph, LinkId, SpScratch};
use pr_scenarios::{OutageParams, OutageSweep, TemporalFamily, TemporalScenario};

use crate::engine;
use crate::metrics::Metrics;
use crate::timed::{igp_for, price, SimConfig};

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
/// unit prices scenario `i` under PR and under the reconverging IGP
/// (tables repaired from the stale trees through the worker's arena).
///
/// # Errors
///
/// The first scenario whose flow [`price`] refuses.
pub fn run(
    graph: &Graph,
    net: &PrNetwork,
    family: &dyn TemporalFamily,
    config: &SimConfig,
    threads: usize,
) -> Result<Vec<TemporalRow>, String> {
    let agent = net.agent(graph);
    engine::run_units(
        family.len(),
        threads.max(1),
        // One Dijkstra arena per worker: each unit's IGP tables are
        // incrementally repaired from the hoisted stale trees.
        SpScratch::new,
        |scratch, i| {
            let scenario = family.scenario(i);
            let pr = price(graph, &agent, &scenario, config)?;
            let igp_agent = igp_for(graph, &scenario, net.base(), scratch);
            let igp = price(graph, &igp_agent, &scenario, config)?;
            Ok(TemporalRow { scenario: i, label: scenario.label, pr, igp })
        },
    )
    .into_iter()
    .collect()
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

/// OC-192 line rate in bits per second.
pub const OC192_BPS: u64 = 9_953_280_000;

/// The 4-node diamond of the §1 outage: `S` reaches `D` over a short
/// primary path through `P` and a longer backup through `B` — the
/// minimal topology where local reroute and global reconvergence
/// genuinely differ. Returns the graph and the primary link `P-D`.
pub fn diamond() -> (Graph, LinkId) {
    let mut g = Graph::new();
    let [s, p, b, d] = ["S", "P", "B", "D"].map(|name| g.add_node(name).expect("four nodes"));
    g.add_link(s, p, 1).expect("distinct nodes");
    let primary = g.add_link(p, d, 1).expect("distinct nodes");
    g.add_link(s, b, 2).expect("distinct nodes");
    g.add_link(b, d, 2).expect("distinct nodes");
    (g, primary)
}

/// The §1 outage as a temporal scenario: the primary link of the
/// diamond fails at 500 ms for `outage_ns` (the IGP converging as it
/// comes back, PR detecting within 1 ms) under `duration_ns` of 1 kB
/// packets from `S` to `D` at `load` × OC-192.
pub fn oc192_scenario(
    g: &Graph,
    primary: LinkId,
    load: f64,
    outage_ns: u64,
    duration_ns: u64,
) -> TemporalScenario {
    let params = OutageParams {
        packet_bytes: 1024,
        // Rounded up: a gap a nanosecond short of a packet's serialisation
        // time would offer more than line rate.
        interval_ns: (1024.0 * 8.0 * 1e9 / (load * OC192_BPS as f64)).ceil() as u64,
        fail_at_ns: 500_000_000,
        down_for_ns: outage_ns,
        detection_delay_ns: 1_000_000,
        igp_convergence_ns: outage_ns,
        duration_ns,
    };
    // The family observes the failed link's own endpoints; §1 is about
    // the traffic crossing it end to end.
    let mut scenario = OutageSweep::new(g, params).scenario(primary.index());
    scenario.flow.src = g.node_by_name("S").expect("diamond node");
    scenario.flow.dst = g.node_by_name("D").expect("diamond node");
    scenario
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
        let rows = run(&g, &net, &fam, &SimConfig::default(), 2).unwrap();
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
        let reference = run(&g, &net, &fam, &config, 1).unwrap();
        for threads in [2, 4] {
            assert_eq!(
                run(&g, &net, &fam, &config, threads).unwrap(),
                reference,
                "{threads} threads"
            );
        }
    }
}
