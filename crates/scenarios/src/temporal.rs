//! Temporal (timed) scenario families for the discrete-event
//! simulator: link-event traces, the flows they disturb, and the
//! per-scenario seeding discipline that keeps parallel temporal sweeps
//! bit-identical to serial.

use pr_graph::{Graph, LinkId, NodeId};

/// One timed link-state transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkEvent {
    /// When the transition happens (ns from simulation start).
    pub at_ns: u64,
    /// The link that changes state.
    pub link: LinkId,
    /// `true` = repair (link comes up), `false` = failure.
    pub up: bool,
}

/// The traffic a temporal scenario injects: one constant-bit-rate flow
/// (CBR keeps the packet schedule independent of the RNG, so scheme
/// comparisons never differ by traffic noise).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowSpec {
    /// Source router.
    pub src: NodeId,
    /// Destination router.
    pub dst: NodeId,
    /// Packet size in bytes.
    pub packet_bytes: u32,
    /// Inter-packet gap in ns.
    pub interval_ns: u64,
    /// First packet time (ns).
    pub start_ns: u64,
    /// Last packet time (ns).
    pub end_ns: u64,
}

/// A complete timed scenario: which links fail/recover when, the flow
/// under observation, the control-plane timing knobs, and the view a
/// reconverging-IGP baseline takes of the same trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TemporalScenario {
    /// Human-readable scenario name (e.g. `"outage:LON-PAR"`).
    pub label: String,
    /// The flow the scenario observes.
    pub flow: FlowSpec,
    /// Timed link transitions, any order (the simulator's event queue
    /// orders them).
    pub events: Vec<LinkEvent>,
    /// Local failure-detection delay (loss-of-light / BFD window).
    pub detection_delay_ns: u64,
    /// Flap-dampening hold-down applied to repairs (§7).
    pub up_holddown_ns: u64,
    /// Simulation horizon: run until this instant.
    pub horizon_ns: u64,
    /// The failure set a reconverging IGP ends up routing around
    /// (steady-state view of the trace).
    pub igp_failed: Vec<LinkId>,
    /// When the IGP's survivor tables take effect network-wide.
    pub igp_converged_at_ns: u64,
}

/// An indexed, streaming enumeration of [`TemporalScenario`]s — the
/// timed counterpart of [`ScenarioFamily`](crate::ScenarioFamily).
///
/// `scenario(i)` must be deterministic in `i` alone, and any
/// randomness a family draws (impairment processes, jitter) must come
/// from [`scenario_seed`], a hash of `(seed, index)` only. Together
/// these make a parallel sweep's unit `i` compute exactly what a
/// serial loop's iteration `i` computes, at any thread count.
pub trait TemporalFamily: Sync {
    /// Human-readable family name for reports.
    fn label(&self) -> String;

    /// Number of scenarios.
    fn len(&self) -> usize;

    /// `true` if the family enumerates no scenarios.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Constructs the `i`-th timed scenario (`i < len()`).
    fn scenario(&self, index: usize) -> TemporalScenario;
}

/// References delegate, so family combinators (the `Impaired`
/// decorator stack) can borrow an inner family without taking
/// ownership.
impl<F: TemporalFamily + ?Sized> TemporalFamily for &F {
    fn label(&self) -> String {
        (**self).label()
    }

    fn len(&self) -> usize {
        (**self).len()
    }

    fn scenario(&self, index: usize) -> TemporalScenario {
        (**self).scenario(index)
    }
}

/// Boxes delegate too — `Box<dyn TemporalFamily>` is what the CLI
/// builds, and wrapping it in an impairment stack must preserve the
/// inner family's behaviour.
impl<F: TemporalFamily + ?Sized> TemporalFamily for Box<F> {
    fn label(&self) -> String {
        (**self).label()
    }

    fn len(&self) -> usize {
        (**self).len()
    }

    fn scenario(&self, index: usize) -> TemporalScenario {
        (**self).scenario(index)
    }
}

/// Splitmix64 hash of `(base, index)` — the per-index seeding
/// discipline of everything seeded here (impairment processes, flow
/// sampling, hotspot picks): never shared state, so workers claiming
/// indices in any order still draw identical streams.
pub fn scenario_seed(base: u64, index: usize) -> u64 {
    let mut z = base ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Timing/traffic parameters shared by the outage-shaped families —
/// defaults reproduce §1's story at a sweep-friendly scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutageParams {
    /// Packet size in bytes (the paper's "average packet size of 1 kB").
    pub packet_bytes: u32,
    /// Inter-packet gap of the observed CBR flow (ns).
    pub interval_ns: u64,
    /// When the link fails (ns).
    pub fail_at_ns: u64,
    /// How long the link stays down (ns).
    pub down_for_ns: u64,
    /// PR's local detection delay (ns).
    pub detection_delay_ns: u64,
    /// IGP convergence time after the failure (ns).
    pub igp_convergence_ns: u64,
    /// Flow duration (ns); the horizon adds a drain second.
    pub duration_ns: u64,
}

impl Default for OutageParams {
    fn default() -> Self {
        OutageParams {
            packet_bytes: 1024,
            interval_ns: 100_000, // 10 kpps — sweep-friendly stand-in for OC-192 line rate
            fail_at_ns: 50_000_000,
            down_for_ns: 200_000_000,
            detection_delay_ns: 1_000_000,
            igp_convergence_ns: 200_000_000,
            duration_ns: 400_000_000,
        }
    }
}

impl OutageParams {
    fn horizon_ns(&self) -> u64 {
        self.duration_ns.saturating_add(1_000_000_000)
    }
}

/// The §1 OC-192 outage generalised into a family: **one outage per
/// link** of a topology, with the observed flow between the failed
/// link's endpoints (the traffic the outage is guaranteed to hit).
/// Scenario `i` fails link `i` at `fail_at_ns` and repairs it
/// `down_for_ns` later.
#[derive(Debug, Clone, Copy)]
pub struct OutageSweep<'a> {
    graph: &'a Graph,
    params: OutageParams,
}

impl<'a> OutageSweep<'a> {
    /// One outage scenario per link of `graph`.
    pub fn new(graph: &'a Graph, params: OutageParams) -> OutageSweep<'a> {
        OutageSweep { graph, params }
    }

    /// The timing/traffic parameters.
    pub fn params(&self) -> &OutageParams {
        &self.params
    }
}

/// Label helper: `"<prefix>:<A>-<B>"` for a link's endpoints.
fn link_label(graph: &Graph, prefix: &str, link: LinkId) -> String {
    let (a, b) = graph.endpoints(link);
    format!("{prefix}:{}-{}", graph.node_name(a), graph.node_name(b))
}

impl TemporalFamily for OutageSweep<'_> {
    fn label(&self) -> String {
        "outage".into()
    }

    fn len(&self) -> usize {
        self.graph.link_count()
    }

    fn scenario(&self, index: usize) -> TemporalScenario {
        assert!(index < self.graph.link_count(), "scenario {index} out of link range");
        let link = LinkId(index as u32);
        let (src, dst) = self.graph.endpoints(link);
        let p = &self.params;
        TemporalScenario {
            label: link_label(self.graph, "outage", link),
            flow: FlowSpec {
                src,
                dst,
                packet_bytes: p.packet_bytes,
                interval_ns: p.interval_ns,
                start_ns: 0,
                end_ns: p.duration_ns,
            },
            events: vec![
                LinkEvent { at_ns: p.fail_at_ns, link, up: false },
                LinkEvent { at_ns: p.fail_at_ns.saturating_add(p.down_for_ns), link, up: true },
            ],
            detection_delay_ns: p.detection_delay_ns,
            up_holddown_ns: 0,
            horizon_ns: p.horizon_ns(),
            igp_failed: vec![link],
            igp_converged_at_ns: p.fail_at_ns.saturating_add(p.igp_convergence_ns),
        }
    }
}

/// Detection-delay sensitivity: the same single-link outage replayed
/// under a ladder of detection delays — how fast must local detection
/// be before PR's loss window beats IGP reconvergence? Scenario `i`
/// uses `delays_ns[i]`.
#[derive(Debug, Clone)]
pub struct DetectionDelaySweep<'a> {
    graph: &'a Graph,
    link: LinkId,
    delays_ns: Vec<u64>,
    params: OutageParams,
}

impl<'a> DetectionDelaySweep<'a> {
    /// An outage of `link` replayed once per entry of `delays_ns`.
    pub fn new(
        graph: &'a Graph,
        link: LinkId,
        delays_ns: Vec<u64>,
        params: OutageParams,
    ) -> DetectionDelaySweep<'a> {
        assert!(link.index() < graph.link_count(), "unknown link {link}");
        DetectionDelaySweep { graph, link, delays_ns, params }
    }

    /// The detection delay of scenario `index`.
    pub fn delay_ns(&self, index: usize) -> u64 {
        self.delays_ns[index]
    }
}

impl TemporalFamily for DetectionDelaySweep<'_> {
    fn label(&self) -> String {
        "detection-delay".into()
    }

    fn len(&self) -> usize {
        self.delays_ns.len()
    }

    fn scenario(&self, index: usize) -> TemporalScenario {
        let delay = self.delays_ns[index];
        let base = OutageSweep::new(self.graph, self.params).scenario(self.link.index());
        TemporalScenario {
            label: format!("{}@{}us", base.label, delay / 1_000),
            detection_delay_ns: delay,
            ..base
        }
    }
}

/// Link flapping (§7): **one flap trace per link** — `cycles`
/// down/up transitions with the given periods — observed by a flow
/// between the flapping link's endpoints, with the hold-down knob the
/// paper prescribes as the defence.
#[derive(Debug, Clone, Copy)]
pub struct FlapSweep<'a> {
    graph: &'a Graph,
    /// First failure instant (ns).
    pub first_down_ns: u64,
    /// Down phase duration (ns).
    pub down_for_ns: u64,
    /// Up phase duration (ns).
    pub up_for_ns: u64,
    /// Number of down/up cycles.
    pub cycles: usize,
    /// Detection delay (ns).
    pub detection_delay_ns: u64,
    /// Repair hold-down (ns) — 0 reproduces the §7 hazard, a value
    /// above the flap period suppresses it.
    pub up_holddown_ns: u64,
    params: OutageParams,
}

impl<'a> FlapSweep<'a> {
    /// One flap trace per link of `graph`; traffic parameters (packet
    /// size, rate, duration) come from `params`, flap shape from the
    /// public fields (start at sensible defaults).
    pub fn new(graph: &'a Graph, params: OutageParams) -> FlapSweep<'a> {
        FlapSweep {
            graph,
            first_down_ns: 10_000_000,
            down_for_ns: 5_000_000,
            up_for_ns: 5_000_000,
            cycles: 10,
            detection_delay_ns: 100_000,
            up_holddown_ns: 0,
            params,
        }
    }

    /// Sets the repair hold-down (builder-style).
    pub fn with_holddown(mut self, up_holddown_ns: u64) -> FlapSweep<'a> {
        self.up_holddown_ns = up_holddown_ns;
        self
    }
}

impl TemporalFamily for FlapSweep<'_> {
    fn label(&self) -> String {
        "flap".into()
    }

    fn len(&self) -> usize {
        self.graph.link_count()
    }

    fn scenario(&self, index: usize) -> TemporalScenario {
        assert!(index < self.graph.link_count(), "scenario {index} out of link range");
        let link = LinkId(index as u32);
        let (src, dst) = self.graph.endpoints(link);
        let p = &self.params;
        let mut events = Vec::with_capacity(self.cycles * 2);
        let mut t = self.first_down_ns;
        for _ in 0..self.cycles {
            events.push(LinkEvent { at_ns: t, link, up: false });
            t = t.saturating_add(self.down_for_ns);
            events.push(LinkEvent { at_ns: t, link, up: true });
            t = t.saturating_add(self.up_for_ns);
        }
        TemporalScenario {
            label: link_label(self.graph, "flap", link),
            flow: FlowSpec {
                src,
                dst,
                packet_bytes: p.packet_bytes,
                interval_ns: p.interval_ns,
                start_ns: 0,
                end_ns: p.duration_ns,
            },
            events,
            detection_delay_ns: self.detection_delay_ns,
            up_holddown_ns: self.up_holddown_ns,
            horizon_ns: p.horizon_ns(),
            // The IGP view treats a flapping link as failed from the
            // first transition once converged (re-flooding every flap
            // would model route dampening, not reconvergence).
            igp_failed: vec![link],
            igp_converged_at_ns: self.first_down_ns.saturating_add(self.params.igp_convergence_ns),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pr_graph::generators;

    #[test]
    fn scenario_seed_is_deterministic_and_spread() {
        assert_eq!(scenario_seed(42, 7), scenario_seed(42, 7));
        assert_ne!(scenario_seed(42, 7), scenario_seed(42, 8));
        assert_ne!(scenario_seed(42, 7), scenario_seed(43, 7));
        // Adjacent indices land far apart (no correlated streams).
        let a = scenario_seed(0, 0);
        let b = scenario_seed(0, 1);
        assert!((a ^ b).count_ones() > 8, "{a:x} vs {b:x}");
    }

    #[test]
    fn outage_family_covers_every_link() {
        let g = generators::ring(4, 1);
        let fam = OutageSweep::new(&g, OutageParams::default());
        assert_eq!(fam.len(), 4);
        for i in 0..fam.len() {
            let sc = fam.scenario(i);
            assert_eq!(sc.events.len(), 2);
            assert_eq!(sc.events[0].link, LinkId(i as u32));
            assert!(!sc.events[0].up);
            assert!(sc.events[1].up);
            assert!(sc.events[0].at_ns < sc.events[1].at_ns);
            assert_eq!(sc.igp_failed, vec![LinkId(i as u32)]);
            // The observed flow crosses the failed link.
            let (a, b) = g.endpoints(LinkId(i as u32));
            assert_eq!((sc.flow.src, sc.flow.dst), (a, b));
            assert!(sc.horizon_ns > sc.flow.end_ns);
        }
    }

    #[test]
    fn detection_delay_family_varies_only_the_delay() {
        let g = generators::ring(4, 1);
        let fam =
            DetectionDelaySweep::new(&g, LinkId(1), vec![0, 1_000_000], OutageParams::default());
        assert_eq!(fam.len(), 2);
        let a = fam.scenario(0);
        let b = fam.scenario(1);
        assert_eq!(a.detection_delay_ns, 0);
        assert_eq!(b.detection_delay_ns, 1_000_000);
        assert_eq!(a.events, b.events);
        assert_eq!(a.flow, b.flow);
        assert_eq!(fam.delay_ns(1), 1_000_000);
    }

    #[test]
    fn flap_family_emits_alternating_events() {
        let g = generators::ring(5, 1);
        let fam = FlapSweep::new(&g, OutageParams::default()).with_holddown(50_000_000);
        assert_eq!(fam.len(), 5);
        let sc = fam.scenario(2);
        assert_eq!(sc.events.len(), 20);
        assert_eq!(sc.up_holddown_ns, 50_000_000);
        for (i, e) in sc.events.iter().enumerate() {
            assert_eq!(e.up, i % 2 == 1, "events alternate down/up");
            assert_eq!(e.link, LinkId(2));
        }
        assert!(sc.events.windows(2).all(|w| w[0].at_ns < w[1].at_ns));
    }

    #[test]
    fn families_are_deterministic_per_index() {
        let g = generators::ring(4, 1);
        let fam = OutageSweep::new(&g, OutageParams::default());
        assert_eq!(fam.scenario(3), fam.scenario(3));
        assert!(!fam.is_empty());
    }
}
