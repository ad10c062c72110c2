//! The scenario driver: replaying a [`TemporalScenario`] from
//! `pr-scenarios` through the simulator.
//!
//! This is the bridge the parallel temporal sweeps stand on: a
//! scenario is pure data (events + flow + timing knobs), the agent is
//! compiled once per sweep, and this module turns `(scenario, agent)`
//! into [`Metrics`] with no hidden state — so a sweep engine can
//! replay scenario `i` on any worker thread and get the bytes a serial
//! loop would have produced.

use pr_graph::{Graph, LinkSet};
use pr_scenarios::TemporalScenario;

use crate::{Metrics, ReconvergingIgp, SimConfig, SimTime, Simulator, TimedForwarding};

/// Replays `scenario` against `agent` and returns the run's metrics.
///
/// `config` supplies the physical-layer parameters (bandwidth, delays,
/// queue sizes); the scenario's own control-plane timing
/// (`detection_delay_ns`, `up_holddown_ns`) overrides the
/// corresponding `config` fields, because those knobs are part of what
/// a temporal family varies.
pub fn run_scenario<T: TimedForwarding>(
    graph: &Graph,
    agent: &T,
    scenario: &TemporalScenario,
    config: &SimConfig,
) -> Metrics {
    let config = SimConfig {
        detection_delay_ns: scenario.detection_delay_ns,
        up_holddown_ns: scenario.up_holddown_ns,
        ..config.clone()
    };
    // The simulator's RNG draws Poisson gaps only; a scenario's flow is
    // CBR and never reads it, so the seed is a constant.
    let mut sim = Simulator::new(graph, agent, config, 0);
    let f = &scenario.flow;
    sim.add_cbr_flow(
        f.src,
        f.dst,
        f.packet_bytes,
        f.interval_ns,
        SimTime(f.start_ns),
        SimTime(f.end_ns),
    );
    for e in &scenario.events {
        if e.up {
            sim.schedule_link_up(e.link, SimTime(e.at_ns));
        } else {
            sim.schedule_link_down(e.link, SimTime(e.at_ns));
        }
    }
    sim.run_until(SimTime(scenario.horizon_ns)).clone()
}

/// Builds the reconverging-IGP baseline for `scenario` from its
/// steady-state failure view, sharing caller-hoisted pre-failure
/// tables (`stale`) — those are failure-invariant, so a sweep computes
/// them once and each scenario pays one `Arc` bump, never an all-pairs
/// copy. The post-failure tables are incrementally repaired from
/// `stale` through the caller-held Dijkstra arena (bit-identical to a
/// full recompute), so a temporal sweep worker builds one IGP per
/// scenario at affected-cone cost with zero arena allocations.
///
/// `stale` must be the failure-free base map (as sweeps hoist it) —
/// the repair precondition of [`pr_graph::SpTree::repair_from`].
pub fn igp_for(
    graph: &Graph,
    scenario: &TemporalScenario,
    stale: &std::sync::Arc<pr_graph::AllPairs>,
    scratch: &mut pr_graph::SpScratch,
) -> ReconvergingIgp {
    let failed = LinkSet::from_links(graph.link_count(), scenario.igp_failed.iter().copied());
    ReconvergingIgp::with_stale_repaired(
        std::sync::Arc::clone(stale),
        graph,
        &failed,
        SimTime(scenario.igp_converged_at_ns),
        scratch,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Static;
    use pr_core::{DiscriminatorKind, PrMode, PrNetwork};
    use pr_embedding::{CellularEmbedding, RotationSystem};
    use pr_graph::{generators, AllPairs, SpScratch};
    use pr_scenarios::{OutageParams, OutageSweep, TemporalFamily};

    #[test]
    fn outage_scenario_replays_through_the_driver() {
        let g = generators::ring(5, 1);
        let emb = CellularEmbedding::new(&g, RotationSystem::identity(&g)).unwrap();
        let net =
            PrNetwork::compile(&g, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
        let agent = Static(net.agent(&g));
        let fam = OutageSweep::new(&g, OutageParams::default());
        let sc = fam.scenario(0);
        let config = SimConfig::default();

        let pr = run_scenario(&g, &agent, &sc, &config);
        assert!(pr.injected > 0);
        // PR loses at most the detection window (~1 ms at 10 kpps ≈ 10
        // packets + in-flight).
        assert!(pr.delivery_ratio() > 0.99, "PR delivered {}", pr.delivery_ratio());

        let stale = std::sync::Arc::new(AllPairs::compute_all_live(&g));
        let igp = igp_for(&g, &sc, &stale, &mut SpScratch::new());
        let m = run_scenario(&g, &igp, &sc, &config);
        assert_eq!(m.injected, pr.injected, "same CBR schedule");
        // The IGP blackholes for the whole convergence window: 200 ms
        // at 10 kpps ≈ 2000 packets.
        assert!(m.total_dropped() > 1_000, "IGP dropped only {}", m.total_dropped());
        assert!(m.total_dropped() > pr.total_dropped() * 10);
    }

    #[test]
    fn driver_replay_is_deterministic() {
        let g = generators::ring(4, 1);
        let emb = CellularEmbedding::new(&g, RotationSystem::identity(&g)).unwrap();
        let net =
            PrNetwork::compile(&g, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
        let agent = Static(net.agent(&g));
        let fam = OutageSweep::new(&g, OutageParams::default());
        let sc = fam.scenario(1);
        let config = SimConfig::default();
        let a = run_scenario(&g, &agent, &sc, &config);
        let b = run_scenario(&g, &agent, &sc, &config);
        assert_eq!(a, b, "an identical scenario must replay identically");
    }
}
