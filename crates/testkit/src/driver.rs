//! The scenario driver: replaying a [`TemporalScenario`] through the
//! packet simulator, the oracle run [`pr_bench::timed::price`] is held
//! to.

use pr_bench::metrics::Metrics;
use pr_bench::timed::{SimConfig, TimedForwarding};
use pr_graph::Graph;
use pr_scenarios::TemporalScenario;

use crate::simulator::Simulator;
use crate::time::SimTime;

/// Replays `scenario` against `agent` and returns the run's metrics.
///
/// `config` supplies the physical layer (bandwidth, delays, hop
/// budget); the scenario supplies the control plane's timing.
pub fn run_scenario<T: TimedForwarding>(
    graph: &Graph,
    agent: &T,
    scenario: &TemporalScenario,
    config: &SimConfig,
) -> Metrics {
    scenario_simulator(graph, agent, scenario, config)
        .run_until(SimTime(scenario.horizon_ns))
        .clone()
}

/// The simulator [`run_scenario`] runs: `scenario`'s flow and link
/// events scheduled, nothing run yet.
pub fn scenario_simulator<'a, T: TimedForwarding>(
    graph: &'a Graph,
    agent: &'a T,
    scenario: &TemporalScenario,
    config: &SimConfig,
) -> Simulator<'a, T> {
    // The simulator's RNG draws Poisson gaps only; a scenario's flow is
    // CBR and never reads it, so the seed is a constant.
    let mut sim = Simulator::new(graph, agent, config.clone(), 0)
        .detect_after(scenario.detection_delay_ns, scenario.up_holddown_ns);
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
    sim
}

#[cfg(test)]
mod tests {
    use super::*;
    use pr_bench::timed::igp_for;
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
        let agent = net.agent(&g);
        let fam = OutageSweep::new(&g, OutageParams::default());
        let sc = fam.scenario(0);
        let config = SimConfig::default();

        let pr = run_scenario(&g, &agent, &sc, &config);
        assert!(pr.injected > 0);
        // PR loses at most the detection window (~1 ms at 10 kpps ≈ 10
        // packets + in-flight).
        assert!(pr.delivery_ratio() > 0.99, "PR delivered {}", pr.delivery_ratio());

        let stale = AllPairs::compute_all_live(&g);
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
        let agent = net.agent(&g);
        let fam = OutageSweep::new(&g, OutageParams::default());
        let sc = fam.scenario(1);
        let config = SimConfig::default();
        let a = run_scenario(&g, &agent, &sc, &config);
        let b = run_scenario(&g, &agent, &sc, &config);
        assert_eq!(a, b, "an identical scenario must replay identically");
    }
}
