//! The temporal engine against its oracles.
//!
//! `pr sweep --family outage|flap` and `pr experiment oc192` price a
//! scenario's CBR flow with [`pr_bench::timed::price`], a queue-free
//! timed walk; the kit's packet simulator runs the same flow through
//! queues and an event loop. Where no packet queues they agree on every
//! field (DESIGN.md §11), and on the outages of the paper's networks
//! none does: the first two tests hold them equal field for field, and
//! the third on random timelines whose events fall on the instants
//! packets reach, wherever the simulator queued nothing.
//!
//! `pr impair` integrates demand over `pr_traffic::replay_timeline`'s
//! intervals instead, and the last test meets it on one flow. Each
//! outage scenario's CBR flow is replayed as a one-flow set (unit
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
//! when it is cut.

use pr_bench::metrics::Metrics;
use pr_bench::temporal::{diamond, oc192_scenario, OC192_BPS};
use pr_bench::timed::{igp_for, price, transmission_nanos, SimConfig, TimedForwarding};
use pr_bench::EXPERIMENT_SEED;
use pr_core::{generous_ttl, DiscriminatorKind, PrMode, PrNetwork};
use pr_embedding::CellularEmbedding;
use pr_graph::{Graph, LinkId, NodeId, SpScratch};
use pr_scenarios::{
    FlapSweep, FlowSpec, LinkEvent, OutageParams, OutageSweep, TemporalFamily, TemporalScenario,
};
use pr_testkit::driver::{run_scenario, scenario_simulator};
use pr_testkit::fixtures::quick_outage;
use pr_testkit::nets::Net;
use pr_testkit::planar;
use pr_testkit::time::SimTime;
use pr_traffic::{replay_timeline, FlowSet, ReplayScratch, TallySample, TrafficModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One engine pair's run of a scenario: the scheme, its priced and
/// simulated metrics, and the simulator's transmissions that waited in
/// a queue.
type Run = (&'static str, Metrics, Metrics, u64);

/// `scenario` under PR and under its reconverging IGP, priced and
/// simulated.
fn both_engines(
    g: &Graph,
    pr: &PrNetwork,
    scenario: &TemporalScenario,
    config: &SimConfig,
) -> [Run; 2] {
    fn run<T: TimedForwarding>(
        scheme: &'static str,
        g: &Graph,
        agent: &T,
        scenario: &TemporalScenario,
        config: &SimConfig,
    ) -> Run {
        let priced = price(g, agent, scenario, config).expect("a queue-free flow");
        let mut sim = scenario_simulator(g, agent, scenario, config);
        let simulated = sim.run_until(SimTime(scenario.horizon_ns)).clone();
        (scheme, priced, simulated, sim.waited())
    }
    let igp = igp_for(g, scenario, pr.base(), &mut SpScratch::new());
    [run("pr", g, &pr.agent(g), scenario, config), run("igp", g, &igp, scenario, config)]
}

#[test]
fn the_pricer_is_the_simulator_on_every_field_of_the_sweeps() {
    let config = SimConfig::default();
    for (name, net) in [("abilene", Net::abilene()), ("geant", Net::geant())] {
        let outage = OutageSweep::new(&net.g, OutageParams::default());
        let flap = FlapSweep::new(&net.g, OutageParams::default()).with_holddown(50_000_000);
        for family in [&outage as &dyn TemporalFamily, &flap] {
            let mut lost = 0;
            for i in 0..family.len() {
                let scenario = family.scenario(i);
                for (scheme, priced, simulated, waited) in
                    both_engines(&net.g, &net.pr, &scenario, &config)
                {
                    let what = format!("{name} {} under {scheme}", scenario.label);
                    assert_eq!(waited, 0, "{what}: the premise, no packet queues");
                    assert_eq!(priced, simulated, "{what}");
                    lost += priced.total_dropped();
                }
            }
            assert!(lost > 0, "{name} {}: the family costs packets", family.label());
        }
    }
}

/// The fields `pr experiment oc192` prints of a run.
fn printed(m: &Metrics) -> (u64, u64, u64, String, &std::collections::BTreeMap<String, u64>) {
    let ratio = format!("{:.6}", m.delivery_ratio());
    (m.injected, m.delivered, m.total_dropped(), ratio, &m.drops)
}

#[test]
fn the_pricer_is_the_simulator_on_every_field_oc192_prints() {
    let (g, primary) = diamond();
    let emb =
        CellularEmbedding::new(&g, pr_embedding::heuristics::best_effort(&g, EXPERIMENT_SEED))
            .expect("the diamond is connected");
    let net = PrNetwork::compile(&g, emb, PrMode::Basic, DiscriminatorKind::Hops);
    let config = SimConfig { bandwidth_bps: OC192_BPS, ..SimConfig::default() };
    for load in [0.25, 0.5, 1.0] {
        // The row's scenario, shortened: a 20 ms outage, and the flow
        // from 10 ms before it.
        let mut scenario = oc192_scenario(&g, primary, load, 20_000_000, 600_000_000);
        scenario.flow.start_ns = 490_000_000;
        for (scheme, priced, simulated, _) in both_engines(&g, &net, &scenario, &config) {
            let what = format!("load {load} under {scheme}");
            assert_eq!(printed(&priced), printed(&simulated), "{what}");
            assert!(priced.total_dropped() > 0, "{what}: the outage costs packets");
            // Packets the converging IGP bounces back onto the backup
            // wait there behind the flow: the one field the engines
            // differ on, which the row does not print.
            let queued = simulated.latency_sum_ns.checked_sub(priced.latency_sum_ns);
            let queued = queued.expect("a queue only adds latency");
            assert_eq!(queued > 0, scheme == "igp", "{what}: queued {queued} ns");
        }
    }
    // The quarter-million test's scenario, simulated: its latency is
    // the queueing the pricer leaves out.
    let scenario = oc192_scenario(&g, primary, 0.25, 100_000_000, 800_000_000);
    let [_, (_, priced, simulated, _)] = both_engines(&g, &net, &scenario, &config);
    assert_eq!(printed(&priced), printed(&simulated));
    assert_eq!(simulated.latency_sum_ns, 27_682_524_491);
    assert!(priced.latency_sum_ns < simulated.latency_sum_ns);
}

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

/// An instant a packet of the flow can reach: a send instant plus whole
/// hops of 50 µs of fibre (weight 1) and of serialisation.
fn reachable_instant(rng: &mut StdRng, interval_ns: u64, packets: u64, tx_ns: u64) -> u64 {
    interval_ns * rng.gen_range(0..packets)
        + 50_000 * rng.gen_range(0..6u64)
        + tx_ns * rng.gen_range(0..6u64)
}

/// A random timeline on `g`: one CBR flow, up to eight link transitions
/// (repeats and no-ops among them) at instants its packets reach, a
/// detection delay and hold-down from the same grid or off it, the IGP
/// converging at such an instant, and sometimes a horizon mid-flow.
fn random_scenario(g: &Graph, rng: &mut StdRng) -> TemporalScenario {
    let nodes = g.node_count() as u32;
    let src = NodeId(rng.gen_range(0..nodes));
    let dst = NodeId((src.0 + rng.gen_range(1..nodes)) % nodes);
    let packet_bytes = [64, 512, 1500][rng.gen_range(0..3usize)];
    let tx_ns = transmission_nanos(packet_bytes, SimConfig::default().bandwidth_bps);
    let interval_ns = [tx_ns, 10_000, 50_000 + tx_ns, 100_000][rng.gen_range(0..4usize)];
    let packets = rng.gen_range(20..1_500u64);
    let end_ns = interval_ns * (packets - 1);
    let knob = |rng: &mut StdRng| match rng.gen_range(0..5u32) {
        0 => 0,
        1 => interval_ns,
        2 => reachable_instant(rng, interval_ns, 3, tx_ns),
        _ => rng.gen_range(0..300_000u64),
    };
    let (detection_delay_ns, up_holddown_ns) = (knob(rng), knob(rng));
    let link = |rng: &mut StdRng| LinkId(rng.gen_range(0..g.link_count() as u32));
    let mut events: Vec<LinkEvent> = (0..rng.gen_range(1..7usize))
        .map(|_| LinkEvent {
            // Now and then at the first packet's instant, which the
            // simulator scheduled before any transition.
            at_ns: match rng.gen_bool(0.2) {
                true => 0,
                false => reachable_instant(rng, interval_ns, packets, tx_ns),
            },
            link: link(rng),
            up: rng.gen_bool(0.4),
        })
        .collect();
    if rng.gen_bool(0.3) {
        // A flap whose repair lands on its failure's own detection.
        let (at_ns, link) = (reachable_instant(rng, interval_ns, packets, tx_ns), link(rng));
        events.push(LinkEvent { at_ns, link, up: false });
        events.push(LinkEvent { at_ns: at_ns + detection_delay_ns, link, up: true });
    }
    let mut igp_failed: Vec<LinkId> = events.iter().filter(|e| !e.up).map(|e| e.link).collect();
    igp_failed.sort();
    igp_failed.dedup();
    let horizon_ns = if rng.gen_bool(0.3) {
        reachable_instant(rng, interval_ns, packets, tx_ns)
    } else {
        end_ns + 1_000_000_000
    };
    TemporalScenario {
        label: format!("random:{src}->{dst}"),
        flow: FlowSpec { src, dst, packet_bytes, interval_ns, start_ns: 0, end_ns },
        events,
        detection_delay_ns,
        up_holddown_ns,
        horizon_ns,
        igp_failed,
        igp_converged_at_ns: reachable_instant(rng, interval_ns, packets, tx_ns),
    }
}

#[test]
fn the_pricer_is_the_simulator_on_random_timelines_wherever_nothing_queues() {
    let config = SimConfig::default();
    let (mut compared, mut ties, mut causes) = (0, 0, std::collections::BTreeSet::new());
    for seed in 0..300 {
        let mut rng = StdRng::seed_from_u64(seed);
        let nodes = rng.gen_range(4..9usize);
        let (g, rotation) = planar::random_outerplanar(nodes, 0.5, 1..=3, &mut rng);
        let emb = CellularEmbedding::new(&g, rotation).expect("a connected ring");
        let mode = if rng.gen_bool(0.3) { PrMode::Basic } else { PrMode::DistanceDiscriminator };
        let net = PrNetwork::compile(&g, emb, mode, DiscriminatorKind::Hops);
        let scenario = random_scenario(&g, &mut rng);
        let interval = scenario.flow.interval_ns;
        ties += scenario.events.iter().filter(|e| e.at_ns % interval == 0).count();
        for (scheme, priced, simulated, waited) in both_engines(&g, &net, &scenario, &config) {
            if waited == 0 {
                assert_eq!(priced, simulated, "seed {seed} under {scheme}: {scenario:?}");
                causes.extend(priced.drops.keys().cloned());
                compared += 1;
            }
        }
    }
    assert!(compared >= 450, "only {compared} of 600 runs were queue-free");
    assert!(ties >= 100, "only {ties} transitions fell on a send instant");
    let seen: Vec<&str> = causes.iter().map(String::as_str).collect();
    for cause in ["egress interface down", "lost in flight on failed link", "hop budget exhausted"]
    {
        assert!(seen.contains(&cause), "no queue-free run lost a packet to {cause}: {seen:?}");
    }
    assert!(seen.iter().any(|c| c.starts_with("agent: ")), "no agent drop: {seen:?}");
}

#[test]
fn the_simulator_loses_what_the_replay_prices_plus_the_failed_wire() {
    let Net { g, pr, base, dense } = Net::abilene();
    let family = OutageSweep::new(&g, quick_outage());
    let config = SimConfig::default();
    let igp_base = pr.base();
    let rows: Vec<[Metrics; 2]> = (0..family.len())
        .map(|i| {
            let scenario = family.scenario(i);
            let igp = igp_for(&g, &scenario, igp_base, &mut SpScratch::new());
            [
                run_scenario(&g, &pr.agent(&g), &scenario, &config),
                run_scenario(&g, &igp, &scenario, &config),
            ]
        })
        .collect();
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
        let prop = config.prop_ns(&g, failed);
        let tx = transmission_nanos(flow.packet_bytes, config.bandwidth_bps);
        let on_the_wire = (prop + tx) / flow.interval_ns + 1;

        let pr_lost: LostUnder = TallySample::pr_lost;
        let schemes = [("pr", &row[0], pr_lost), ("igp", &row[1], TallySample::igp_lost)];
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
