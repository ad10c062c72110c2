//! The packet simulator against the timeline replay.
//!
//! `pr sweep --family outage|flap` and `pr experiment oc192` count
//! packets through `pr_sim`'s discrete-event simulator; `pr impair`
//! integrates demand over `pr_traffic::replay_timeline`'s intervals.
//! Both claim §1's outage arithmetic, so here they meet on one flow.
//! Each outage scenario's CBR flow is replayed as a one-flow set (unit
//! demand on the flow's pair, from a model of this file), and a
//! [`TallySample`] that loses the flow under a scheme costs that scheme
//! every packet sent within it, counted by send instant (the packet at
//! the window's end goes in the last sample). Per scenario and scheme:
//!
//! - both engines inject the same packets;
//! - the simulator's "egress interface down" drops are the replay's
//!   lost packets, exactly;
//! - its "lost in flight on failed link" drops are at most the packets
//!   the failed wire holds, ⌊(prop + tx) / interval⌋ + 1;
//! - it drops nothing else.
//!
//! So the replay prices every loss but the packets already on the wire
//! when it is cut, and the simulator is the one engine that counts
//! those (DESIGN.md §11).

use pr_core::generous_ttl;
use pr_graph::NodeId;
use pr_scenarios::{FlowSpec, OutageSweep, TemporalFamily};
use pr_sim::{transmission_nanos, SimConfig};
use pr_testkit::fixtures::quick_outage;
use pr_testkit::nets::Net;
use pr_traffic::{replay_timeline, FlowSet, ReplayScratch, TallySample, TrafficModel};

/// What a scheme loses of a sample, in demand per unit time.
type LostUnder = fn(&TallySample) -> f64;

/// Unit demand from `src` to `dst`, nothing elsewhere: the fluid
/// double of one CBR flow.
struct OneFlow {
    nodes: usize,
    src: NodeId,
    dst: NodeId,
}

impl TrafficModel for OneFlow {
    fn label(&self) -> String {
        format!("one-flow({}->{})", self.src, self.dst)
    }

    fn node_count(&self) -> usize {
        self.nodes
    }

    fn demand(&self, src: NodeId, dst: NodeId) -> f64 {
        if (src, dst) == (self.src, self.dst) {
            1.0
        } else {
            0.0
        }
    }
}

/// Packets `flow` sends within `sample`: the send instants `start + i ·
/// interval` up to `end` inclusive, so the last sample, which ends at
/// `end`, holds the packet sent there.
fn sent_during(flow: &FlowSpec, sample: &TallySample) -> u64 {
    let before = |t: u64| t.saturating_sub(flow.start_ns).div_ceil(flow.interval_ns);
    let to = sample.to_ns + u64::from(sample.to_ns == flow.end_ns);
    before(to) - before(sample.from_ns)
}

#[test]
fn the_simulator_loses_what_the_replay_prices_plus_the_failed_wire() {
    let Net { g, pr, base, dense } = Net::abilene();
    let family = OutageSweep::new(&g, quick_outage());
    let config = SimConfig::default();
    let rows = pr_bench::temporal::run(&g, &pr, &family, &config, 1);
    let (agent, ttl) = (pr.agent(&g), generous_ttl(&g));
    let mut scratch = ReplayScratch::new();
    let mut wire_losses = 0;
    for (i, row) in rows.iter().enumerate() {
        let scenario = family.scenario(i);
        let flow = &scenario.flow;
        let one = OneFlow { nodes: g.node_count(), src: flow.src, dst: flow.dst };
        let flows = FlowSet::all_pairs(&one);
        let timeline =
            replay_timeline(&g, &agent, &dense, &base, &flows, &scenario, ttl, &mut scratch);
        let samples = &timeline.series.samples;
        let injected: u64 = samples.iter().map(|s| sent_during(flow, s)).sum();

        let failed = scenario.events.iter().find(|e| !e.up).expect("an outage fails a link").link;
        let prop = (u64::from(g.weight(failed)) * config.prop_delay_ns_per_weight)
            .max(config.min_prop_delay_ns);
        let tx = transmission_nanos(flow.packet_bytes, config.bandwidth_bps);
        let on_the_wire = (prop + tx) / flow.interval_ns + 1;

        let pr_lost: LostUnder = TallySample::pr_lost;
        let schemes = [("pr", &row.pr, pr_lost), ("igp", &row.igp, TallySample::igp_lost)];
        for (scheme, metrics, lost) in schemes {
            let what = format!("{} under {scheme}", scenario.label);
            let replay_lost: u64 =
                samples.iter().filter(|s| lost(s) > 0.0).map(|s| sent_during(flow, s)).sum();
            let drops = |reason: &str| metrics.drops.get(reason).copied().unwrap_or(0);
            assert_eq!(metrics.injected, injected, "{what}: injected");
            assert_eq!(drops("egress interface down"), replay_lost, "{what}: {metrics:?}");
            let in_flight = drops("lost in flight on failed link");
            assert!(in_flight <= on_the_wire, "{what}: {in_flight} in flight > {on_the_wire}");
            let others = metrics.drops.keys().filter(|r| {
                !["egress interface down", "lost in flight on failed link"].contains(&r.as_str())
            });
            assert_eq!(others.count(), 0, "{what}: {metrics:?}");
            assert!(replay_lost > 0, "{what}: the outage costs packets in both engines");
            wire_losses += in_flight;
        }
    }
    assert_eq!(rows.len(), g.link_count());
    assert!(wire_losses > 0, "some packet is on a wire when it is cut");
}
