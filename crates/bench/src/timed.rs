//! The one temporal engine: a [`TemporalScenario`]'s CBR flow priced
//! packet by packet from its timed path (DESIGN.md §11). A packet's
//! fate, latency and hops are those of a queue-free timed walk, with
//! ties broken as the kit's packet simulator fires simultaneous events.
//! A walk changes only where a send instant plus a prefix latency of
//! its path crosses an event, so [`price`] walks once per such interval
//! of send instants and counts its packets by arithmetic.

use pr_core::{DropReason, ForwardDecision, ForwardingAgent};
use pr_graph::{AllPairs, Dart, Graph, LinkId, LinkSet, NodeId, SpScratch};
use pr_scenarios::TemporalScenario;

use crate::metrics::{LossCause, Metrics};

/// The physical layer of a timed run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Link bandwidth in bits per second (uniform across links).
    pub bandwidth_bps: u64,
    /// Propagation delay per unit of link weight, in ns (weights are
    /// ~10 km in the shipped topologies; 50 µs ≈ 10 km of fibre).
    pub prop_delay_ns_per_weight: u64,
    /// Floor for propagation delay, in ns.
    pub min_prop_delay_ns: u64,
    /// Per-packet hop budget.
    pub hop_budget: u32,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            bandwidth_bps: 10_000_000_000,
            prop_delay_ns_per_weight: 50_000,
            min_prop_delay_ns: 1_000,
            hop_budget: 255,
        }
    }
}

impl SimConfig {
    /// A link's propagation delay in ns.
    pub fn prop_ns(&self, graph: &Graph, link: LinkId) -> u64 {
        (u64::from(graph.weight(link)) * self.prop_delay_ns_per_weight).max(self.min_prop_delay_ns)
    }
}

/// Serialisation time of `bytes` at `bits_per_sec`, in ns, rounded up
/// so a packet never finishes early.
pub fn transmission_nanos(bytes: u32, bits_per_sec: u64) -> u64 {
    let nanos = (u128::from(bytes) * 8_000_000_000).div_ceil(u128::from(bits_per_sec.max(1)));
    u64::try_from(nanos).unwrap_or(u64::MAX)
}

/// A forwarding decision that may also depend on the clock.
pub trait TimedForwarding {
    /// Per-packet header state threaded between hops.
    type State: Clone + Default + std::fmt::Debug;

    /// Decides at `now_ns` under `visible_failed`, the failures the
    /// control plane has detected; whether the egress is physically up
    /// is the engine's business.
    fn decide_at(
        &self,
        now_ns: u64,
        at: NodeId,
        ingress: Option<Dart>,
        dest: NodeId,
        state: &mut Self::State,
        visible_failed: &LinkSet,
    ) -> ForwardDecision;

    /// The one instant the agent changes its mind on its own, if any.
    fn switches_at_ns(&self) -> Option<u64> {
        None
    }
}

/// Any steady-state [`ForwardingAgent`] is clock-blind: it reacts at
/// once to what is detected.
impl<A: ForwardingAgent> TimedForwarding for A {
    type State = <A as ForwardingAgent>::State;

    fn decide_at(
        &self,
        _now_ns: u64,
        at: NodeId,
        ingress: Option<Dart>,
        dest: NodeId,
        state: &mut Self::State,
        visible_failed: &LinkSet,
    ) -> ForwardDecision {
        self.decide(at, ingress, dest, state, visible_failed)
    }
}

/// A reconverging link-state IGP ([`igp_for`]): before `converged_at_ns`
/// it forwards on the pre-failure shortest paths, straight into the
/// failure, and from then on on the survivor paths.
#[derive(Debug, Clone)]
pub struct ReconvergingIgp<'a> {
    /// Pre-failure tables, borrowed: a sweep hoists them once.
    stale: &'a AllPairs,
    converged: AllPairs,
    converged_at_ns: u64,
}

impl TimedForwarding for ReconvergingIgp<'_> {
    type State = ();

    fn decide_at(
        &self,
        now_ns: u64,
        at: NodeId,
        _ingress: Option<Dart>,
        dest: NodeId,
        _state: &mut (),
        _visible_failed: &LinkSet,
    ) -> ForwardDecision {
        let tables = if now_ns < self.converged_at_ns { self.stale } else { &self.converged };
        match tables.towards(dest).next_dart(at) {
            Some(out) => ForwardDecision::Forward(out),
            None => ForwardDecision::Drop(DropReason::Unreachable),
        }
    }

    fn switches_at_ns(&self) -> Option<u64> {
        Some(self.converged_at_ns)
    }
}

/// `scenario`'s reconverging IGP: survivor tables around its
/// `igp_failed`, repaired from the hoisted failure-free tables `stale`
/// through the caller's arena ([`pr_graph::SpTree::repair_from`]'s
/// precondition: `stale` covers a subset of the failures).
pub fn igp_for<'a>(
    graph: &Graph,
    scenario: &TemporalScenario,
    stale: &'a AllPairs,
    scratch: &mut SpScratch,
) -> ReconvergingIgp<'a> {
    let failed = LinkSet::from_links(graph.link_count(), scenario.igp_failed.iter().copied());
    let converged = stale.repair_from(graph, &failed, scratch);
    ReconvergingIgp { stale, converged, converged_at_ns: scenario.igp_converged_at_ns }
}

/// A packet event's place among the events of its instant. The
/// simulator fires simultaneous events in the order they were
/// scheduled, so a tie falls to the events that scheduled them.
#[derive(Debug, Clone, Copy)]
struct Stamp {
    at: u64,
    /// The instant of the event that scheduled this one.
    by: u64,
    /// Events of the chain that scheduled it, itself included, that
    /// were scheduled during the run: all but the flow's first packet.
    depth: u64,
}

impl Stamp {
    /// Whether a physical transition at `at`, scheduled before the run
    /// after the first packet, fires first.
    fn after_physical(self, at: u64) -> bool {
        at < self.at || (at == self.at && self.depth > 0)
    }

    /// Whether a detection at `at`, scheduled by the physical
    /// transition at `caused_at`, fires first.
    fn after_detection(self, at: u64, caused_at: u64) -> bool {
        let by = |c: u64| c < self.by || (c == self.by && self.depth > 1);
        at < self.at || (at == self.at && self.depth > 0 && by(caused_at))
    }
}

/// Where one packet's walk ended.
enum Fate {
    /// Delivered after this latency (ns) and this many hops.
    Delivered(u64, u32),
    Lost(LossCause),
    /// Still in the network at the horizon: neither delivered nor lost.
    Pending,
}

/// One scenario's flow, its agent, and its link state in the
/// simulator's event order.
struct Walker<'a, T> {
    graph: &'a Graph,
    agent: &'a T,
    scenario: &'a TemporalScenario,
    config: &'a SimConfig,
    tx_ns: u64,
    /// State-changing physical transitions `(at, link)`, in order.
    physical: Vec<(u64, LinkId)>,
    /// Detected-set changes `(at, caused_at)`, in order.
    detected: Vec<(u64, u64)>,
    /// The detected set before any change, then after each.
    sets: Vec<LinkSet>,
}

impl<T: TimedForwarding> Walker<'_, T> {
    /// Lays out the scenario's link state.
    fn timeline(&mut self) {
        // Stable: simultaneous transitions keep the scenario's order,
        // which is the order they are scheduled in.
        let (scenario, links) = (self.scenario, self.graph.link_count());
        let mut events = scenario.events.clone();
        events.sort_by_key(|e| e.at_ns);
        let (mut down, mut pending) = (LinkSet::empty(links), Vec::new());
        for e in events {
            if !(if e.up { down.remove(e.link) } else { down.insert(e.link) }) {
                continue; // the link is already so
            }
            let hold = if e.up { scenario.up_holddown_ns } else { 0 };
            let at = e.at_ns.saturating_add(scenario.detection_delay_ns).saturating_add(hold);
            pending.push((at, self.physical.len(), e.link, e.up));
            self.physical.push((e.at_ns, e.link));
        }
        pending.sort_by_key(|&(at, cause, ..)| (at, cause));
        let mut set = LinkSet::empty(links);
        self.sets.push(set.clone());
        for (at, cause, link, up) in pending {
            // A detection the link has moved again before is void.
            if self.physical[cause + 1..].iter().any(|&(t, l)| l == link && t <= at) {
                continue;
            }
            let _ = if up { set.remove(link) } else { set.insert(link) };
            self.detected.push((at, self.physical[cause].0));
            self.sets.push(set.clone());
        }
    }

    /// Physical transitions that fire before the event at `stamp`.
    fn physical_before(&self, stamp: Stamp) -> usize {
        self.physical.partition_point(|&(at, _)| stamp.after_physical(at))
    }

    /// Transitions of `link` among the physical ones in `range`.
    fn moves(&self, link: LinkId, range: std::ops::Range<usize>) -> usize {
        self.physical[range].iter().filter(|&&(_, l)| l == link).count()
    }

    /// Follows the packet sent at `stamp`, pushing the offset from its
    /// send instant of every event it meets onto `offsets`.
    fn follow(&self, mut stamp: Stamp, offsets: &mut Vec<u64>) -> Fate {
        let Walker { graph, agent, scenario, config, .. } = *self;
        let (flow, sent) = (&scenario.flow, stamp.at);
        let (mut node, mut ingress, mut hops, mut state) =
            (flow.src, None::<Dart>, 0, T::State::default());
        // The wire the packet is on, and the physical transitions fired
        // when it was put there.
        let mut wire: Option<(LinkId, usize)> = None;
        offsets.clear();
        loop {
            offsets.push(stamp.at - sent);
            if stamp.at > scenario.horizon_ns {
                return Fate::Pending;
            }
            let fired = self.physical_before(stamp);
            if wire.is_some_and(|(link, then)| self.moves(link, then..fired) > 0) {
                return Fate::Lost(LossCause::LostInFlight);
            }
            if node == flow.dst {
                return Fate::Delivered(stamp.at - sent, hops);
            }
            if hops >= config.hop_budget {
                return Fate::Lost(LossCause::HopBudget);
            }
            let detected = self.detected.partition_point(|&(t, by)| stamp.after_detection(t, by));
            let visible = &self.sets[detected];
            let out = match agent.decide_at(stamp.at, node, ingress, flow.dst, &mut state, visible)
            {
                ForwardDecision::Drop(reason) => return Fate::Lost(LossCause::Agent(reason)),
                ForwardDecision::Forward(out) => out,
            };
            if self.moves(out.link(), 0..fired) % 2 == 1 {
                return Fate::Lost(LossCause::InterfaceDown);
            }
            let arrive = stamp.at.saturating_add(self.tx_ns + config.prop_ns(graph, out.link()));
            (node, ingress, hops, wire) =
                (graph.dart_head(out), Some(out), hops + 1, Some((out.link(), fired)));
            stamp = Stamp { at: arrive, by: stamp.at, depth: stamp.depth + 1 };
        }
    }
}

/// Prices `scenario`'s CBR flow under `agent`: every packet's fate,
/// latency and hops, as the kit's packet simulator counts them when no
/// packet queues.
///
/// # Errors
///
/// A flow whose interval is below its serialisation time, which would
/// queue behind itself.
pub fn price<T: TimedForwarding>(
    graph: &Graph,
    agent: &T,
    scenario: &TemporalScenario,
    config: &SimConfig,
) -> Result<Metrics, String> {
    let flow = &scenario.flow;
    let tx_ns = transmission_nanos(flow.packet_bytes, config.bandwidth_bps);
    if flow.interval_ns < tx_ns.max(1) {
        return Err(format!(
            "flow {}->{} of {}: a packet every {} ns, under its {tx_ns} ns serialisation, \
             would queue behind the last",
            graph.node_name(flow.src),
            graph.node_name(flow.dst),
            scenario.label,
            flow.interval_ns,
        ));
    }
    let last = flow.end_ns.min(scenario.horizon_ns);
    let packets =
        if flow.start_ns > last { 0 } else { (last - flow.start_ns) / flow.interval_ns + 1 };
    let (physical, detected, sets) = (Vec::new(), Vec::new(), Vec::new());
    let mut walker = Walker { graph, agent, scenario, config, tx_ns, physical, detected, sets };
    walker.timeline();
    // The instants a walk's events are compared with.
    let mut instants: Vec<u64> = walker.physical.iter().map(|&(at, _)| at).collect();
    instants.extend(walker.detected.iter().map(|&(at, _)| at));
    instants.extend(agent.switches_at_ns());
    instants.push(scenario.horizon_ns);
    instants.sort_unstable();

    let mut metrics = Metrics { injected: packets, ..Metrics::default() };
    let (mut offsets, mut sent) = (Vec::new(), 0);
    while sent < packets {
        let at = flow.start_ns + sent * flow.interval_ns;
        let stamp = Stamp { at, by: at.wrapping_sub(flow.interval_ns), depth: sent };
        let fate = walker.follow(stamp, &mut offsets);
        // The packets sent before one of this walk's events would meet
        // an instant walk alike; one that meets an instant exactly walks
        // alone.
        let (mut next, mut tie) = (u64::MAX, false);
        for &offset in &offsets {
            let meets = at.saturating_add(offset);
            match instants.get(instants.partition_point(|&t| t < meets)) {
                Some(&t) if t == meets => tie = true,
                Some(&t) => next = next.min(t - offset),
                None => {}
            }
        }
        let alike = if tie {
            1
        } else {
            (next - flow.start_ns).div_ceil(flow.interval_ns).min(packets) - sent
        };
        match fate {
            Fate::Delivered(latency_ns, hops) => metrics.deliver(alike, latency_ns, hops),
            Fate::Lost(cause) => metrics.lose(alike, cause),
            Fate::Pending => {}
        }
        sent += alike;
    }
    Ok(metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pr_core::{DiscriminatorKind, PrMode, PrNetwork};
    use pr_embedding::{CellularEmbedding, RotationSystem};
    use pr_graph::generators;
    use pr_scenarios::{OutageParams, OutageSweep, TemporalFamily};

    /// The IGP converging at `converged_at_ns` around `failed`.
    fn igp<'a>(
        g: &Graph,
        stale: &'a AllPairs,
        failed: &[LinkId],
        converged_at_ns: u64,
    ) -> ReconvergingIgp<'a> {
        let mut scenario = OutageSweep::new(g, OutageParams::default()).scenario(0);
        (scenario.igp_failed, scenario.igp_converged_at_ns) = (failed.to_vec(), converged_at_ns);
        igp_for(g, &scenario, stale, &mut SpScratch::new())
    }

    fn pr_net(g: &Graph) -> PrNetwork {
        let emb = CellularEmbedding::new(g, RotationSystem::identity(g)).unwrap();
        PrNetwork::compile(g, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops)
    }

    #[test]
    fn static_adapter_passes_through() {
        let g = generators::ring(5, 1);
        let net = pr_net(&g);
        let wrapped = net.agent(&g);
        assert_eq!(wrapped.switches_at_ns(), None);
        let none = LinkSet::empty(g.link_count());
        let mut state = Default::default();
        let d = wrapped.decide_at(123, NodeId(2), None, NodeId(0), &mut state, &none);
        assert!(matches!(d, ForwardDecision::Forward(_)));
    }

    #[test]
    fn igp_switches_tables_at_convergence() {
        let g = generators::ring(5, 1);
        let direct = g.find_link(NodeId(1), NodeId(0)).unwrap();
        let failed = LinkSet::from_links(g.link_count(), [direct]);
        let stale = AllPairs::compute_all_live(&g);
        let igp = igp(&g, &stale, &[direct], 500_000_000);
        assert_eq!(igp.switches_at_ns(), Some(500_000_000));

        let before = igp.decide_at(100_000_000, NodeId(1), None, NodeId(0), &mut (), &failed);
        // Stale tables still point into the failed link.
        match before {
            ForwardDecision::Forward(d) => assert_eq!(d.link(), direct),
            other => panic!("expected stale forward, got {other:?}"),
        }

        let after = igp.decide_at(500_000_000, NodeId(1), None, NodeId(0), &mut (), &failed);
        match after {
            ForwardDecision::Forward(d) => {
                assert_ne!(d.link(), direct, "converged tables avoid the failure")
            }
            other => panic!("expected converged forward, got {other:?}"),
        }
    }

    #[test]
    fn igp_detects_unreachability_after_convergence() {
        let g = generators::ring(4, 1);
        let l01 = g.find_link(NodeId(0), NodeId(1)).unwrap();
        let l30 = g.find_link(NodeId(3), NodeId(0)).unwrap();
        let failed = LinkSet::from_links(g.link_count(), [l01, l30]);
        let stale = AllPairs::compute_all_live(&g);
        let igp = igp(&g, &stale, &[l01, l30], 0);
        let d = igp.decide_at(1, NodeId(2), None, NodeId(0), &mut (), &failed);
        assert_eq!(d, ForwardDecision::Drop(DropReason::Unreachable));
    }

    #[test]
    fn a_flow_faster_than_its_serialisation_is_refused() {
        let g = generators::ring(5, 1);
        let net = pr_net(&g);
        let mut scenario = OutageSweep::new(&g, OutageParams::default()).scenario(0);
        let config = SimConfig::default();
        let tx = transmission_nanos(scenario.flow.packet_bytes, config.bandwidth_bps);
        scenario.flow.interval_ns = tx;
        assert!(price(&g, &net.agent(&g), &scenario, &config).is_ok(), "back to back");
        scenario.flow.interval_ns = tx - 1;
        let err = price(&g, &net.agent(&g), &scenario, &config).unwrap_err();
        let (src, dst) = (g.node_name(scenario.flow.src), g.node_name(scenario.flow.dst));
        assert!(err.contains(&format!("flow {src}->{dst} of {}", scenario.label)), "{err}");
        assert!(err.contains(&format!("every {} ns", tx - 1)), "{err}");
    }

    #[test]
    fn a_failure_free_flow_is_delivered_at_its_path_latency() {
        let g = generators::ring(4, 1);
        let net = pr_net(&g);
        let mut scenario = OutageSweep::new(&g, OutageParams::default()).scenario(0);
        scenario.events.clear();
        scenario.flow.dst = NodeId(2);
        let config = SimConfig::default();
        let m = price(&g, &net.agent(&g), &scenario, &config).unwrap();
        assert_eq!(m.injected, 4_001);
        assert_eq!((m.delivered, m.total_dropped()), (4_001, 0));
        // Two hops, each 50 µs of fibre plus 820 ns on a 10 Gb/s wire.
        assert_eq!((m.latency_max_ns, m.hops_max), (2 * 50_820, 2));
        assert_eq!(m.latency_sum_ns, 4_001 * 2 * 50_820);
    }
}
