//! §7 of the paper: link flapping and the hold-down defence.
//!
//! "As with all alternate forwarding schemes, PR must cater for the
//! possibility of link flapping. This can be done simply by ensuring
//! that link state transitions only happen after the link has been
//! idle for long enough…" — these tests exercise exactly that knob
//! (the hold-down of [`Simulator::detect_after`]).

use pr_bench::timed::SimConfig;
use pr_core::{DiscriminatorKind, PrMode, PrNetwork};
use pr_embedding::{CellularEmbedding, RotationSystem};
use pr_graph::{generators, NodeId};
use pr_testkit::{simulator::Simulator, time::SimTime};

fn pr_ring() -> (pr_graph::Graph, PrNetwork) {
    let g = generators::ring(5, 1);
    let emb = CellularEmbedding::new(&g, RotationSystem::identity(&g)).unwrap();
    let net = PrNetwork::compile(&g, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
    (g, net)
}

/// Without hold-down, every "up" blip lures traffic back onto the
/// flapping link, and the next "down" kills the packets in flight.
/// With a hold-down longer than the flap period, the control plane
/// treats the link as down throughout: traffic stays on the stable
/// detour and everything arrives.
#[test]
fn holddown_suppresses_flap_losses() {
    let run = |holddown_ns: u64| {
        let (g, net) = pr_ring();
        let agent = net.agent(&g);
        // 0.1 ms detection.
        let mut sim =
            Simulator::new(&g, &agent, SimConfig::default(), 11).detect_after(100_000, holddown_ns);
        // Steady flow 1 -> 0 whose direct link flaps every 2 ms.
        sim.add_cbr_flow(
            NodeId(1),
            NodeId(0),
            512,
            20_000, // 50 kpps
            SimTime::ZERO,
            SimTime::from_millis(200),
        );
        let flappy = g.find_link(NodeId(1), NodeId(0)).unwrap();
        sim.schedule_flapping(flappy, SimTime::from_millis(10), 2_000_000, 2_000_000, 40);
        sim.run_until(SimTime::from_secs(2)).clone()
    };

    let without = run(0);
    let with = run(50_000_000); // 50 ms hold-down >> 2 ms flap period

    assert_eq!(without.injected, with.injected);
    // No hold-down: repeated interface-down losses as traffic swings
    // back onto the link between flaps.
    let lost_without = without.total_dropped();
    let lost_with = with.total_dropped();
    assert!(
        lost_without > 100,
        "expected substantial flap losses without hold-down, got {lost_without}"
    );
    // Hold-down: only the first detection window loses packets.
    assert!(
        lost_with < lost_without / 10,
        "hold-down should suppress flap losses: {lost_with} vs {lost_without}"
    );
    assert!(with.delivery_ratio() > 0.995, "got {}", with.delivery_ratio());
}

/// The visibility state machine: a repair only becomes visible after
/// detection + hold-down, and a flap during the hold-down cancels the
/// pending re-admission.
#[test]
fn visibility_follows_holddown_rules() {
    let (g, net) = pr_ring();
    let agent = net.agent(&g);
    // 1 ms detection, 10 ms hold-down.
    let mut sim =
        Simulator::new(&g, &agent, SimConfig::default(), 3).detect_after(1_000_000, 10_000_000);
    let link = g.find_link(NodeId(0), NodeId(1)).unwrap();

    sim.schedule_link_down(link, SimTime::from_millis(10));
    sim.schedule_link_up(link, SimTime::from_millis(20));
    // Flap again during the hold-down window.
    sim.schedule_link_down(link, SimTime::from_millis(25));

    // At 15 ms: down detected (10 + 1 <= 15).
    sim.run_until(SimTime::from_millis(15));
    assert!(sim.visible_failures().contains(link), "down must be visible after detection");

    // At 30 ms: the 20 ms repair would become visible at 31 ms, but
    // the 25 ms flap must cancel it.
    sim.run_until(SimTime::from_millis(35));
    assert!(
        sim.visible_failures().contains(link),
        "repair overtaken by a flap must not be re-admitted"
    );

    // Now a stable repair: visible after detection + hold-down.
    sim.schedule_link_up(link, SimTime::from_millis(40));
    sim.run_until(SimTime::from_millis(45));
    assert!(sim.visible_failures().contains(link), "still in hold-down at 45 ms");
    sim.run_until(SimTime::from_millis(52));
    assert!(!sim.visible_failures().contains(link), "re-admitted after 40 + 1 + 10 ms");
}

/// Determinism survives the richer event machinery.
#[test]
fn flapping_runs_are_deterministic() {
    let run = || {
        let (g, net) = pr_ring();
        let agent = net.agent(&g);
        let mut sim =
            Simulator::new(&g, &agent, SimConfig::default(), 9).detect_after(200_000, 3_000_000);
        sim.add_poisson_flow(
            NodeId(2),
            NodeId(0),
            800,
            50_000,
            SimTime::ZERO,
            SimTime::from_millis(100),
        );
        let link = g.find_link(NodeId(1), NodeId(0)).unwrap();
        sim.schedule_flapping(link, SimTime::from_millis(5), 1_000_000, 1_500_000, 20);
        let m = sim.run_until(SimTime::from_secs(1)).clone();
        (m.injected, m.delivered, m.total_dropped(), m.latency_sum_ns)
    };
    assert_eq!(run(), run());
}
