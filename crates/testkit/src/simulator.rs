//! The discrete-event packet simulator, the timed oracle of
//! [`pr_bench::timed::price`].
//!
//! Store-and-forward, per-link FIFO queues without a bound, link
//! serialisation and propagation delays, link failure/repair events
//! with a configurable **detection delay** (the window in which the
//! data plane still believes a dead link is alive), and traffic
//! generators. Deterministic: same inputs and seed, same trace.
//!
//! * a packet *in flight or queued* on a link when it fails is lost
//!   (fibre-cut semantics), implemented with per-link epochs;
//! * a packet forwarded onto a link that is physically down but not
//!   yet *detected* is lost at the interface — this is precisely the
//!   §1 loss window that motivates fast reroute;
//! * control-plane visibility (what agents see) lags physical state by
//!   [`Simulator::detect_after`].
//!
//! Where no packet waits in a queue, its counts are the pricer's; the
//! queueing delay is what it adds (DESIGN.md §11).
//!
//! ```
//! use pr_bench::timed::SimConfig;
//! use pr_core::{DiscriminatorKind, PrMode, PrNetwork};
//! use pr_embedding::{CellularEmbedding, RotationSystem};
//! use pr_graph::{generators, NodeId};
//! use pr_testkit::{simulator::Simulator, time::SimTime};
//!
//! let g = generators::ring(5, 1);
//! let emb = CellularEmbedding::new(&g, RotationSystem::identity(&g)).unwrap();
//! let net = PrNetwork::compile(&g, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
//! let agent = net.agent(&g);
//!
//! let mut sim = Simulator::new(&g, &agent, SimConfig::default(), 7);
//! sim.add_cbr_flow(NodeId(0), NodeId(2), 1024, 1_000_000, SimTime::ZERO, SimTime::from_millis(10));
//! sim.schedule_link_down(g.find_link(NodeId(0), NodeId(1)).unwrap(), SimTime::from_micros(5500));
//! let metrics = sim.run_until(SimTime::from_secs(1));
//! assert_eq!(metrics.injected, 11);
//! assert_eq!(metrics.delivered, 11); // PR reroutes instantly at detection
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pr_bench::metrics::{LossCause, Metrics};
use pr_bench::timed::{transmission_nanos, SimConfig, TimedForwarding};
use pr_core::ForwardDecision;
use pr_graph::{Dart, Graph, LinkId, LinkSet, NodeId};

use crate::event::EventQueue;
use crate::time::SimTime;

/// A packet in the simulator.
#[derive(Debug, Clone)]
struct Packet<S> {
    dst: NodeId,
    size: u32,
    sent: SimTime,
    hops: u32,
    state: S,
}

/// Traffic source shapes.
#[derive(Debug, Clone)]
enum FlowKind {
    /// Constant bit rate: one packet every `interval_ns`.
    Cbr {
        /// Inter-packet gap.
        interval_ns: u64,
    },
    /// Poisson arrivals with the given mean gap.
    Poisson {
        /// Mean inter-packet gap.
        mean_interval_ns: u64,
    },
}

#[derive(Debug, Clone)]
struct Flow {
    src: NodeId,
    dst: NodeId,
    size: u32,
    kind: FlowKind,
    end: SimTime,
}

enum Event<S> {
    /// A traffic source emits its next packet and reschedules itself.
    FlowTick {
        flow: usize,
    },
    /// A packet reaches the head of `via`'s wire and arrives at a node.
    Arrive {
        packet: Packet<S>,
        via: Dart,
        epoch: u64,
    },
    /// Physical link state changes.
    PhysicalDown(LinkId),
    PhysicalUp(LinkId),
    /// Control-plane visibility changes, derived from physical events
    /// after the detection delay (and, for repairs, the hold-down).
    /// Guarded by the link epoch at emission: a transition that was
    /// overtaken by another flap is discarded.
    VisibleDown(LinkId, u64),
    VisibleUp(LinkId, u64),
}

/// The simulator, generic over the forwarding scheme.
pub struct Simulator<'a, T: TimedForwarding> {
    graph: &'a Graph,
    agent: &'a T,
    config: SimConfig,
    /// How long after a physical transition the control plane detects
    /// it, and the §7 hold-down a repair waits out besides.
    detection_delay_ns: u64,
    up_holddown_ns: u64,
    events: EventQueue<Event<T::State>>,
    now: SimTime,
    /// Physical link state (true = down) and failure epoch counter.
    phys_down: Vec<bool>,
    epoch: Vec<u64>,
    /// What the control plane currently believes.
    visible_failed: LinkSet,
    /// Per dart, when its current transmission (if any) finishes.
    busy_until: Vec<SimTime>,
    /// Transmissions that waited for the wire: where this is zero, the
    /// run is queue-free and the pricer's counts are its counts.
    waited: u64,
    flows: Vec<Flow>,
    rng: StdRng,
    metrics: Metrics,
}

impl<'a, T: TimedForwarding> Simulator<'a, T> {
    /// Creates a simulator over `graph` driving `agent`.
    pub fn new(graph: &'a Graph, agent: &'a T, config: SimConfig, seed: u64) -> Self {
        Simulator {
            graph,
            agent,
            config,
            detection_delay_ns: 0,
            up_holddown_ns: 0,
            events: EventQueue::new(),
            now: SimTime::ZERO,
            phys_down: vec![false; graph.link_count()],
            epoch: vec![0; graph.link_count()],
            visible_failed: LinkSet::empty(graph.link_count()),
            busy_until: vec![SimTime::ZERO; graph.dart_count()],
            waited: 0,
            flows: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            metrics: Metrics::default(),
        }
    }

    /// Delays detection: the control plane learns of a failure
    /// `detection_delay_ns` after it (instantly by default), and of a
    /// repair `up_holddown_ns` later still (flap dampening, §7: "to
    /// ensure that packets that encountered the link in its failed
    /// state do not encounter it again in its normal state while cycle
    /// following").
    pub fn detect_after(mut self, detection_delay_ns: u64, up_holddown_ns: u64) -> Self {
        (self.detection_delay_ns, self.up_holddown_ns) = (detection_delay_ns, up_holddown_ns);
        self
    }

    /// Schedules a physical link failure. The control plane learns of
    /// it `detection_delay_ns` later (unless overtaken by a repair).
    pub fn schedule_link_down(&mut self, link: LinkId, at: SimTime) {
        self.events.push(at, Event::PhysicalDown(link));
    }

    /// Schedules a link repair. The control plane re-admits the link
    /// `detection_delay_ns + up_holddown_ns` later, and only if the
    /// link has not flapped again in between (§7 dampening).
    pub fn schedule_link_up(&mut self, link: LinkId, at: SimTime) {
        self.events.push(at, Event::PhysicalUp(link));
    }

    /// Schedules `cycles` down/up flaps (§7's link-flapping concern).
    pub fn schedule_flapping(
        &mut self,
        link: LinkId,
        first_down: SimTime,
        down_for_ns: u64,
        up_for_ns: u64,
        cycles: usize,
    ) {
        let mut t = first_down;
        for _ in 0..cycles {
            self.schedule_link_down(link, t);
            t = t.after(down_for_ns);
            self.schedule_link_up(link, t);
            t = t.after(up_for_ns);
        }
    }

    /// Adds a constant-bit-rate flow emitting `size`-byte packets every
    /// `interval_ns` from `start` to `end`.
    pub fn add_cbr_flow(
        &mut self,
        src: NodeId,
        dst: NodeId,
        size: u32,
        interval_ns: u64,
        start: SimTime,
        end: SimTime,
    ) {
        let id = self.flows.len();
        self.flows.push(Flow { src, dst, size, kind: FlowKind::Cbr { interval_ns }, end });
        self.events.push(start, Event::FlowTick { flow: id });
    }

    /// Adds a Poisson flow with the given mean inter-arrival gap.
    pub fn add_poisson_flow(
        &mut self,
        src: NodeId,
        dst: NodeId,
        size: u32,
        mean_interval_ns: u64,
        start: SimTime,
        end: SimTime,
    ) {
        let id = self.flows.len();
        self.flows.push(Flow { src, dst, size, kind: FlowKind::Poisson { mean_interval_ns }, end });
        self.events.push(start, Event::FlowTick { flow: id });
    }

    /// Runs until the event queue drains or simulated time exceeds
    /// `horizon`, then returns the metrics.
    pub fn run_until(&mut self, horizon: SimTime) -> &Metrics {
        while let Some(t) = self.events.peek_time() {
            if t > horizon {
                break;
            }
            let (t, event) = self.events.pop().expect("peeked");
            self.now = t;
            self.handle(event);
        }
        &self.metrics
    }

    /// The metrics gathered so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Transmissions so far that waited in an egress queue.
    pub fn waited(&self) -> u64 {
        self.waited
    }

    /// The control plane's current failure view.
    pub fn visible_failures(&self) -> &LinkSet {
        &self.visible_failed
    }

    fn handle(&mut self, event: Event<T::State>) {
        match event {
            Event::FlowTick { flow } => self.handle_flow_tick(flow),
            Event::Arrive { packet, via, epoch } => {
                if self.epoch[via.link().index()] != epoch {
                    // The link failed (or flapped) while the packet was
                    // queued or in flight.
                    self.metrics.lose(1, LossCause::LostInFlight);
                    return;
                }
                let at = self.graph.dart_head(via);
                self.process_at_node(at, Some(via), packet);
            }
            Event::PhysicalDown(l) => {
                if !self.phys_down[l.index()] {
                    self.phys_down[l.index()] = true;
                    self.epoch[l.index()] += 1;
                    let epoch = self.epoch[l.index()];
                    self.events.push(
                        self.now.after(self.detection_delay_ns),
                        Event::VisibleDown(l, epoch),
                    );
                }
            }
            Event::PhysicalUp(l) => {
                if self.phys_down[l.index()] {
                    self.phys_down[l.index()] = false;
                    self.epoch[l.index()] += 1;
                    let epoch = self.epoch[l.index()];
                    self.events.push(
                        self.now.after(self.detection_delay_ns).after(self.up_holddown_ns),
                        Event::VisibleUp(l, epoch),
                    );
                }
            }
            Event::VisibleDown(l, epoch) => {
                // Discard if the link transitioned again since.
                if self.epoch[l.index()] == epoch {
                    self.visible_failed.insert(l);
                }
            }
            Event::VisibleUp(l, epoch) => {
                if self.epoch[l.index()] == epoch {
                    self.visible_failed.remove(l);
                }
            }
        }
    }

    fn handle_flow_tick(&mut self, flow_id: usize) {
        let flow = self.flows[flow_id].clone();
        if self.now > flow.end {
            return;
        }
        self.metrics.injected += 1;
        let packet = Packet {
            dst: flow.dst,
            size: flow.size,
            sent: self.now,
            hops: 0,
            state: T::State::default(),
        };
        self.process_at_node(flow.src, None, packet);

        let gap = match flow.kind {
            FlowKind::Cbr { interval_ns } => interval_ns,
            FlowKind::Poisson { mean_interval_ns } => {
                // Inverse-CDF exponential draw; clamp away from 0 to
                // keep event counts finite.
                let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
                ((-u.ln()) * mean_interval_ns as f64).max(1.0) as u64
            }
        };
        let next = self.now.after(gap);
        if next <= flow.end {
            self.events.push(next, Event::FlowTick { flow: flow_id });
        }
    }

    fn process_at_node(&mut self, at: NodeId, ingress: Option<Dart>, mut packet: Packet<T::State>) {
        if at == packet.dst {
            self.metrics.deliver(1, self.now.as_nanos() - packet.sent.as_nanos(), packet.hops);
            return;
        }
        if packet.hops >= self.config.hop_budget {
            self.metrics.lose(1, LossCause::HopBudget);
            return;
        }
        let decision = self.agent.decide_at(
            self.now.as_nanos(),
            at,
            ingress,
            packet.dst,
            &mut packet.state,
            &self.visible_failed,
        );
        match decision {
            ForwardDecision::Drop(reason) => {
                self.metrics.lose(1, LossCause::Agent(reason));
            }
            ForwardDecision::Forward(out) => {
                debug_assert_eq!(self.graph.dart_tail(out), at, "agent must forward from {at}");
                if self.phys_down[out.link().index()] {
                    // Physically dead egress (whether or not the agent
                    // could know): the loss window.
                    self.metrics.lose(1, LossCause::InterfaceDown);
                    return;
                }
                self.transmit(out, packet);
            }
        }
    }

    fn transmit(&mut self, out: Dart, mut packet: Packet<T::State>) {
        let start = self.busy_until[out.index()].max(self.now);
        self.waited += u64::from(start > self.now);
        let done = start.after(transmission_nanos(packet.size, self.config.bandwidth_bps));
        self.busy_until[out.index()] = done;
        let prop = self.config.prop_ns(self.graph, out.link());
        packet.hops += 1;
        let epoch = self.epoch[out.link().index()];
        self.events.push(done.after(prop), Event::Arrive { packet, via: out, epoch });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pr_core::{DiscriminatorKind, PrMode, PrNetwork};
    use pr_embedding::{CellularEmbedding, RotationSystem};
    use pr_graph::generators;

    fn pr_net(g: &Graph) -> PrNetwork {
        let emb = CellularEmbedding::new(g, RotationSystem::identity(g)).unwrap();
        PrNetwork::compile(g, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops)
    }

    #[test]
    fn cbr_flow_delivers_everything_without_failures() {
        let g = generators::ring(4, 1);
        let net = pr_net(&g);
        let agent = net.agent(&g);
        let mut sim = Simulator::new(&g, &agent, SimConfig::default(), 1);
        sim.add_cbr_flow(
            NodeId(0),
            NodeId(2),
            1024,
            1_000_000, // 1 ms apart
            SimTime::ZERO,
            SimTime::from_millis(100),
        );
        let m = sim.run_until(SimTime::from_secs(1));
        assert_eq!(m.injected, 101);
        assert_eq!(m.delivered, 101);
        assert_eq!(m.total_dropped(), 0);
        // Two hops of >= 50 µs propagation each.
        assert!(m.latency_sum_ns >= 100_000 * u128::from(m.delivered));
        assert_eq!(m.hops_max, 2);
    }

    #[test]
    fn instant_detection_pr_loses_nothing_on_failure() {
        let g = generators::ring(5, 1);
        let net = pr_net(&g);
        let agent = net.agent(&g);
        let mut sim = Simulator::new(&g, &agent, SimConfig::default(), 2);
        sim.add_cbr_flow(
            NodeId(1),
            NodeId(0),
            512,
            100_000,
            SimTime::ZERO,
            SimTime::from_millis(50),
        );
        // Fail the direct link mid-run; detection is instant by default.
        let direct = g.find_link(NodeId(1), NodeId(0)).unwrap();
        sim.schedule_link_down(direct, SimTime::from_millis(20));
        let m = sim.run_until(SimTime::from_secs(1));
        assert_eq!(m.injected, 501);
        // Packets already in flight on the failed link may be lost, and
        // the packet emitted at the exact failure instant races the
        // visibility update (event order at equal timestamps); nothing
        // else may be lost.
        assert!(m.delivered >= 499, "delivered {}", m.delivered);
        assert!(m.drops.get("egress interface down").copied().unwrap_or(0) <= 1);
    }

    #[test]
    fn detection_delay_creates_the_loss_window() {
        let g = generators::ring(5, 1);
        let net = pr_net(&g);
        let agent = net.agent(&g);
        // A 10 ms blind window.
        let mut sim =
            Simulator::new(&g, &agent, SimConfig::default(), 3).detect_after(10_000_000, 0);
        sim.add_cbr_flow(
            NodeId(1),
            NodeId(0),
            512,
            100_000, // 10 kpps
            SimTime::ZERO,
            SimTime::from_millis(100),
        );
        let direct = g.find_link(NodeId(1), NodeId(0)).unwrap();
        sim.schedule_link_down(direct, SimTime::from_millis(20));
        let m = sim.run_until(SimTime::from_secs(1));
        let iface_drops = m.drops.get("egress interface down").copied().unwrap_or(0);
        // ~10 ms of 10 kpps aimed at a dead interface ≈ 100 packets.
        assert!(
            (80..=120).contains(&iface_drops),
            "expected ≈100 interface drops, got {iface_drops}"
        );
        // After detection, PR recovers: the rest are delivered.
        assert!(m.delivered >= 850, "delivered {}", m.delivered);
    }

    #[test]
    fn congestion_queues_behind_the_bottleneck() {
        // 2000 pkt/s offered into a 1000 pkt/s link: the queue has no
        // bound, so every packet arrives, packet i after waiting i/2 ms.
        let g = generators::path(2, 1);
        let net = pr_net(&g);
        let agent = net.agent(&g);
        let config = SimConfig {
            bandwidth_bps: 8_192_000, // 1000 pkt/s at 1024 B
            ..Default::default()
        };
        let mut sim = Simulator::new(&g, &agent, config, 4);
        sim.add_cbr_flow(
            NodeId(0),
            NodeId(1),
            1024,
            500_000,
            SimTime::ZERO,
            SimTime::from_millis(500),
        );
        let m = sim.run_until(SimTime::from_secs(2));
        assert_eq!((m.injected, m.delivered), (1_001, 1_001));
        // The last packet, sent at 500 ms, leaves the wire at 1 001 ms
        // and crosses 50 µs of fibre.
        assert_eq!(m.latency_max_ns, 501_050_000);
    }

    #[test]
    fn flapping_links_lose_in_flight_packets_each_cycle() {
        let g = generators::ring(4, 1);
        let net = pr_net(&g);
        let agent = net.agent(&g);
        let mut sim = Simulator::new(&g, &agent, SimConfig::default(), 5);
        sim.add_cbr_flow(
            NodeId(0),
            NodeId(1),
            256,
            50_000,
            SimTime::ZERO,
            SimTime::from_millis(200),
        );
        let direct = g.find_link(NodeId(0), NodeId(1)).unwrap();
        sim.schedule_flapping(direct, SimTime::from_millis(10), 5_000_000, 5_000_000, 10);
        let m = sim.run_until(SimTime::from_secs(1));
        assert_eq!(m.injected, 4001);
        // Deliveries continue (PR reroutes the long way while down).
        assert!(m.delivered > 3900, "delivered {}", m.delivered);
    }

    #[test]
    fn determinism_same_seed_same_metrics() {
        let g = generators::ring(6, 1);
        let net = pr_net(&g);
        let agent = net.agent(&g);
        let run = |seed| {
            let mut sim = Simulator::new(&g, &agent, SimConfig::default(), seed);
            sim.add_poisson_flow(
                NodeId(0),
                NodeId(3),
                700,
                80_000,
                SimTime::ZERO,
                SimTime::from_millis(200),
            );
            sim.schedule_link_down(
                g.find_link(NodeId(0), NodeId(1)).unwrap(),
                SimTime::from_millis(50),
            );
            let m = sim.run_until(SimTime::from_secs(1)).clone();
            (m.injected, m.delivered, m.latency_sum_ns, m.hops_sum)
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).0, run(43).0, "different seeds draw different Poisson gaps");
    }

    #[test]
    fn hop_budget_stops_livelocks() {
        // Basic-mode PR livelocks under dual failure (Figure 1(c));
        // inside the timed simulator the hop budget must end it.
        let (g, orders) = pr_topologies::figure1();
        let rot = RotationSystem::from_neighbor_orders(&g, &orders).unwrap();
        let emb = CellularEmbedding::new(&g, rot).unwrap();
        let net = PrNetwork::compile(&g, emb, PrMode::Basic, DiscriminatorKind::Hops);
        let agent = net.agent(&g);
        let config = SimConfig { hop_budget: 64, ..Default::default() };
        let mut sim = Simulator::new(&g, &agent, config, 6);
        let a = g.node_by_name("A").unwrap();
        let f = g.node_by_name("F").unwrap();
        sim.add_cbr_flow(a, f, 512, 1_000_000, SimTime::ZERO, SimTime::from_millis(5));
        let de = g.find_link(g.node_by_name("D").unwrap(), g.node_by_name("E").unwrap()).unwrap();
        let bc = g.find_link(g.node_by_name("B").unwrap(), g.node_by_name("C").unwrap()).unwrap();
        sim.schedule_link_down(de, SimTime::ZERO);
        sim.schedule_link_down(bc, SimTime::ZERO);
        let m = sim.run_until(SimTime::from_secs(5));
        assert_eq!(m.injected, 6);
        assert_eq!(m.drops.get("hop budget exhausted").copied().unwrap_or(0), 6);
    }
}
