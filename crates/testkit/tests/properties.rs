//! Property-based tests for the discrete-event simulator.
//!
//! The big one is **conservation**: once the event queue drains, every
//! injected packet is accounted for exactly once (delivered or dropped
//! with a reason). A simulator that silently leaks or duplicates
//! packets produces plausible-looking loss numbers that are wrong.

use proptest::prelude::*;

use pr_bench::timed::SimConfig;
use pr_core::{DiscriminatorKind, PrMode, PrNetwork};
use pr_embedding::CellularEmbedding;
use pr_graph::{Graph, LinkId, NodeId};
use pr_testkit::planar;
use pr_testkit::{simulator::Simulator, time::SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A random planar scenario: graph+embedding, a couple of flows, a
/// couple of link events.
fn arb_setup() -> impl Strategy<Value = (Graph, CellularEmbedding, u64)> {
    (0u64..u64::MAX, 3usize..10).prop_map(|(seed, n)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let (g, rot) = planar::random_outerplanar(n.max(4), 0.5, 1..=4, &mut rng);
        let emb = CellularEmbedding::new(&g, rot).unwrap();
        (g, emb, seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Conservation: injected == delivered + dropped after the queue
    /// drains (horizon far beyond the last flow).
    #[test]
    fn packets_are_conserved((g, emb, seed) in arb_setup()) {
        let net = PrNetwork::compile(&g, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
        let agent = net.agent(&g);
        let mut sim = Simulator::new(&g, &agent, SimConfig::default(), seed)
            .detect_after((seed % 3) * 500_000, 0);

        let n = g.node_count() as u32;
        sim.add_cbr_flow(
            NodeId(seed as u32 % n),
            NodeId((seed >> 8) as u32 % n),
            512,
            40_000,
            SimTime::ZERO,
            SimTime::from_millis(20),
        );
        sim.add_poisson_flow(
            NodeId((seed >> 16) as u32 % n),
            NodeId((seed >> 24) as u32 % n),
            900,
            60_000,
            SimTime::from_millis(2),
            SimTime::from_millis(18),
        );
        // Fail and maybe repair a random link mid-run.
        let link = LinkId((seed % g.link_count() as u64) as u32);
        sim.schedule_link_down(link, SimTime::from_millis(5));
        if seed % 2 == 0 {
            sim.schedule_link_up(link, SimTime::from_millis(12));
        }

        let m = sim.run_until(SimTime::from_secs(60)).clone();
        prop_assert_eq!(
            m.injected,
            m.delivered + m.total_dropped(),
            "leaked or duplicated packets: {:?}",
            m
        );
        // Latency sanity: any delivered packet took at least one
        // propagation floor.
        if m.delivered > 0 && m.hops_sum > 0 {
            prop_assert!(m.latency_sum_ns >= u128::from(m.delivered));
        }
    }

    /// With no failures and light load, everything is delivered and
    /// mean hops match shortest paths.
    #[test]
    fn failure_free_light_load_is_lossless((g, emb, seed) in arb_setup()) {
        let net = PrNetwork::compile(&g, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
        let agent = net.agent(&g);
        let mut sim = Simulator::new(&g, &agent, SimConfig::default(), seed);
        let n = g.node_count() as u32;
        let src = NodeId(seed as u32 % n);
        let dst = NodeId(((seed >> 8) as u32 + 1) % n);
        sim.add_cbr_flow(src, dst, 256, 1_000_000, SimTime::ZERO, SimTime::from_millis(50));
        let m = sim.run_until(SimTime::from_secs(10)).clone();
        prop_assert_eq!(m.injected, 51);
        if src == dst {
            // Degenerate flow: delivered instantly at injection.
            prop_assert_eq!(m.delivered, 51);
            return Ok(());
        }
        prop_assert_eq!(m.delivered, 51);
        prop_assert_eq!(m.total_dropped(), 0);
        let tree = pr_graph::SpTree::towards_all_live(&g, dst);
        prop_assert_eq!({ m.hops_max }, tree.hops(src).unwrap());
    }

    /// Determinism across the full feature surface: identical runs,
    /// identical metrics.
    #[test]
    fn identical_runs_identical_metrics((g, emb, seed) in arb_setup()) {
        let net = PrNetwork::compile(&g, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
        let agent = net.agent(&g);
        let run = || {
            let mut sim = Simulator::new(&g, &agent, SimConfig::default(), seed)
                .detect_after(300_000, 2_000_000);
            let n = g.node_count() as u32;
            sim.add_poisson_flow(
                NodeId(seed as u32 % n),
                NodeId((seed >> 4) as u32 % n),
                700,
                30_000,
                SimTime::ZERO,
                SimTime::from_millis(30),
            );
            let link = LinkId((seed % g.link_count() as u64) as u32);
            sim.schedule_flapping(link, SimTime::from_millis(3), 1_000_000, 2_000_000, 5);
            let m = sim.run_until(SimTime::from_secs(30)).clone();
            (m.injected, m.delivered, m.total_dropped(), m.latency_sum_ns, m.hops_sum)
        };
        prop_assert_eq!(run(), run());
    }
}
