//! Stochastic impairment layer: seeded fault-injection processes that
//! decorate any [`TemporalFamily`], rewriting or augmenting its
//! [`LinkEvent`] timeline.
//!
//! The paper evaluates PR only against clean, instantaneous failures;
//! real backbones fail messily — bursty per-link loss, geographically
//! correlated flap storms, operator maintenance windows, jittery
//! failure detection. This module models those as **decorators you
//! stack** (the netsim `packet_loss`/`latency` wrapper shape), not as
//! hand-rolled one-off sweeps: [`Impaired`] wraps any inner family and
//! is itself a [`TemporalFamily`], so `Impaired<Impaired<OutageSweep>>`
//! composes and still streams scenarios by index.
//!
//! ## Determinism contract
//!
//! Every injected event is a pure function of `(scenario index, seed)`:
//! the decorator derives a per-scenario stream seed with
//! [`scenario_seed`]`(seed ^ SALT, index)` (one salt per process, so
//! stacked decorators sharing one seed never correlate), expands it
//! into per-link splitmix64 streams, and merges the injected events
//! with the inner timeline under a **total order** — stable sort on
//! `(at_ns, link, up)`. No shared RNG, no iteration-order dependence:
//! scenario `i` of a stack is bit-identical however many threads sweep
//! the family, and however often it is re-enumerated.
//!
//! ## Identity contract
//!
//! A process configured to its natural zero (Gilbert–Elliott rate 0,
//! zero storms, an empty maintenance window, zero jitter bound) injects
//! nothing and returns the inner scenario **bit for bit** — same label,
//! same event vector, same timing knobs. The property tests enforce
//! this over every shipped family; it is what makes decorating
//! unconditionally safe in sweep plumbing.

use pr_graph::{Graph, LinkId, NodeId};

use crate::temporal::{scenario_seed, LinkEvent, TemporalFamily, TemporalScenario};

/// Per-process seed salts: stacked decorators built from the same user
/// seed must draw from unrelated streams.
const GILBERT_SALT: u64 = 0x6A09_E667_F3BC_C908;
const STORM_SALT: u64 = 0xBB67_AE85_84CA_A73B;
const MAINTENANCE_SALT: u64 = 0x3C6E_F372_FE94_F82B;
const JITTER_SALT: u64 = 0xA54F_F53A_5F1D_36F1;

/// Safety cap on Gilbert–Elliott cycles injected per link per scenario
/// (a pathological rate must not materialise unbounded timelines).
const MAX_CYCLES_PER_LINK: usize = 32;

/// A seeded fault-injection process: how an [`Impaired`] decorator
/// rewrites the timeline it wraps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ImpairmentProcess {
    /// Markov-modulated per-link up/down process (Gilbert–Elliott):
    /// every link of the graph alternates between a good state with
    /// exponentially distributed dwell time (mean `1/fail_rate_per_s`)
    /// and a bad state of mean `mean_down_ns`. `fail_rate_per_s == 0`
    /// is the identity.
    GilbertElliott {
        /// Expected failures per link per second of trace (the
        /// good→bad transition rate).
        fail_rate_per_s: f64,
        /// Mean dwell time of the bad (down) state, in ns.
        mean_down_ns: u64,
    },
    /// Correlated flap storms: each storm picks a seeded epicentre PoP
    /// and a seeded trigger instant, then takes down **every link with
    /// an endpoint within `radius_km`** (haversine over the shipped
    /// coordinates — the SRLG neighbourhood machinery) for
    /// `down_for_ns`. `storms == 0` is the identity. Requires a fully
    /// located graph.
    FlapStorm {
        /// Number of independent storms per scenario.
        storms: usize,
        /// Blast radius around the epicentre, in km.
        radius_km: f64,
        /// How long the neighbourhood stays down, in ns.
        down_for_ns: u64,
    },
    /// A scheduled maintenance window: `links` seeded distinct links go
    /// down together at a fixed instant (25% into the flow) and come
    /// back `window_ns` later — operator-scheduled, so the timing is
    /// deterministic and only the link choice is seeded.
    /// `window_ns == 0` is the identity.
    Maintenance {
        /// Window length in ns (0 = no window, identity).
        window_ns: u64,
        /// How many links each window takes down.
        links: usize,
    },
    /// Detection-latency jitter: perturbs the scenario's local
    /// failure-detection delay by a seeded uniform draw from
    /// `[0, max_extra_ns]` — loss-of-light on one interface is not
    /// detected as fast as on another. The shipped families carry one
    /// observed link per scenario, so a per-scenario draw is a per-link
    /// draw. `max_extra_ns == 0` is the identity.
    DetectionJitter {
        /// Upper bound of the extra detection delay, in ns.
        max_extra_ns: u64,
    },
}

impl ImpairmentProcess {
    /// Short tag for labels and file stems (`gilbert`, `storm`,
    /// `maintenance`, `jitter`).
    pub fn tag(&self) -> &'static str {
        match self {
            ImpairmentProcess::GilbertElliott { .. } => "gilbert",
            ImpairmentProcess::FlapStorm { .. } => "storm",
            ImpairmentProcess::Maintenance { .. } => "maintenance",
            ImpairmentProcess::DetectionJitter { .. } => "jitter",
        }
    }

    /// `true` if the configuration is the process's natural zero (the
    /// decorator is then the identity on every scenario).
    pub fn is_identity(&self) -> bool {
        match *self {
            ImpairmentProcess::GilbertElliott { fail_rate_per_s, .. } => fail_rate_per_s <= 0.0,
            ImpairmentProcess::FlapStorm { storms, .. } => storms == 0,
            ImpairmentProcess::Maintenance { window_ns, links } => window_ns == 0 || links == 0,
            ImpairmentProcess::DetectionJitter { max_extra_ns } => max_extra_ns == 0,
        }
    }

    fn salt(&self) -> u64 {
        match self {
            ImpairmentProcess::GilbertElliott { .. } => GILBERT_SALT,
            ImpairmentProcess::FlapStorm { .. } => STORM_SALT,
            ImpairmentProcess::Maintenance { .. } => MAINTENANCE_SALT,
            ImpairmentProcess::DetectionJitter { .. } => JITTER_SALT,
        }
    }
}

/// A splitmix64 output stream — the same generator the per-scenario
/// seeding discipline hashes with, iterated for per-link event draws.
#[derive(Debug, Clone, Copy)]
struct Stream(u64);

impl Stream {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `(0, 1]` (never 0, so `ln` is finite).
    fn next_unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 * (1.0 / 9_007_199_254_740_992.0)
    }

    /// Uniform draw in `[0, n)` (`n > 0`).
    fn next_below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Exponentially distributed duration with the given mean, in ns
    /// (saturating on overflow).
    fn next_exp_ns(&mut self, mean_ns: f64) -> u64 {
        (-self.next_unit().ln() * mean_ns) as u64
    }
}

/// A [`TemporalFamily`] decorator injecting one seeded impairment
/// process into every scenario of the wrapped family. Stack freely:
/// each layer owns its own seed and process, and the composition stays
/// a `TemporalFamily`, so everything that sweeps families (the engine,
/// the CLI, the determinism suite) takes impaired stacks unchanged.
#[derive(Debug, Clone)]
pub struct Impaired<'g, F> {
    graph: &'g Graph,
    inner: F,
    process: ImpairmentProcess,
    seed: u64,
}

impl<'g, F: TemporalFamily> Impaired<'g, F> {
    /// Decorates `inner` with `process`, drawing all randomness from
    /// `seed` (pure in `(seed, scenario index)`).
    ///
    /// # Panics
    ///
    /// Panics if `process` is a [`ImpairmentProcess::FlapStorm`] and
    /// `graph` is not fully located (the storm neighbourhood is
    /// haversine-defined), or on negative rate/radius.
    pub fn new(
        graph: &'g Graph,
        inner: F,
        process: ImpairmentProcess,
        seed: u64,
    ) -> Impaired<'g, F> {
        match process {
            ImpairmentProcess::GilbertElliott { fail_rate_per_s, .. } => {
                assert!(fail_rate_per_s >= 0.0, "negative Gilbert–Elliott rate");
            }
            ImpairmentProcess::FlapStorm { radius_km, storms, .. } => {
                assert!(radius_km >= 0.0, "negative storm radius");
                assert!(
                    storms == 0 || graph.fully_located(),
                    "flap storms need coordinates on every node (got a partially-located graph)"
                );
            }
            _ => {}
        }
        Impaired { graph, inner, process, seed }
    }

    /// The injected process.
    pub fn process(&self) -> &ImpairmentProcess {
        &self.process
    }

    /// Injects the process into one scenario: generated events are
    /// appended, then the whole timeline is stable-sorted on
    /// `(at_ns, link, up)` — a total order, so re-sorting a stacked
    /// decorator's already-sorted output is the identity and merge
    /// order can never depend on generation order.
    fn impair(&self, index: usize, scenario: &mut TemporalScenario) {
        let mut stream = Stream(scenario_seed(self.seed ^ self.process.salt(), index));
        let mut injected: Vec<LinkEvent> = Vec::new();
        match self.process {
            ImpairmentProcess::GilbertElliott { fail_rate_per_s, mean_down_ns } => {
                if fail_rate_per_s > 0.0 {
                    let mean_up_ns = 1e9 / fail_rate_per_s;
                    for link in self.graph.links() {
                        // Per-link sub-stream: links evolve independently
                        // and insertion order cannot matter after the sort.
                        let mut s = Stream(scenario_seed(stream.next_u64(), link.index()));
                        let mut t = 0u64;
                        for _ in 0..MAX_CYCLES_PER_LINK {
                            // Strictly positive dwell times keep each
                            // link's transitions strictly ordered in
                            // time, so the (at_ns, link, up) sort can
                            // never reorder a link's own history.
                            t = t.saturating_add(s.next_exp_ns(mean_up_ns).max(1));
                            if t >= scenario.horizon_ns {
                                break;
                            }
                            injected.push(LinkEvent { at_ns: t, link, up: false });
                            t = t.saturating_add(s.next_exp_ns(mean_down_ns as f64).max(1));
                            injected.push(LinkEvent { at_ns: t, link, up: true });
                        }
                    }
                }
            }
            ImpairmentProcess::FlapStorm { storms, radius_km, down_for_ns } => {
                let active_ns = scenario.flow.end_ns.max(1);
                for storm in 0..storms {
                    let mut s = Stream(scenario_seed(stream.next_u64(), storm));
                    let centre = NodeId(s.next_below(self.graph.node_count() as u64) as u32);
                    let at_ns = s.next_below(active_ns);
                    let centre_pos =
                        self.graph.coordinates(centre).expect("validated at construction");
                    for link in self.graph.links() {
                        let (a, b) = self.graph.endpoints(link);
                        let hit = [a, b].into_iter().any(|n| {
                            let c = self.graph.coordinates(n).expect("validated at construction");
                            centre_pos.haversine_km(c) <= radius_km
                        });
                        if hit {
                            injected.push(LinkEvent { at_ns, link, up: false });
                            injected.push(LinkEvent {
                                at_ns: at_ns.saturating_add(down_for_ns.max(1)),
                                link,
                                up: true,
                            });
                        }
                    }
                }
            }
            ImpairmentProcess::Maintenance { window_ns, links } => {
                if window_ns > 0 && links > 0 {
                    let start_ns = scenario.flow.end_ns / 4;
                    let mut chosen: Vec<LinkId> = Vec::with_capacity(links);
                    let link_count = self.graph.link_count() as u64;
                    // Seeded distinct draws; bounded retries keep the
                    // loop total even on tiny graphs.
                    let mut tries = 0;
                    while chosen.len() < links.min(self.graph.link_count()) && tries < 64 * links {
                        let candidate = LinkId(stream.next_below(link_count) as u32);
                        if !chosen.contains(&candidate) {
                            chosen.push(candidate);
                        }
                        tries += 1;
                    }
                    for link in chosen {
                        injected.push(LinkEvent { at_ns: start_ns, link, up: false });
                        injected.push(LinkEvent {
                            at_ns: start_ns.saturating_add(window_ns),
                            link,
                            up: true,
                        });
                    }
                }
            }
            ImpairmentProcess::DetectionJitter { max_extra_ns } => {
                if max_extra_ns > 0 {
                    let extra = stream.next_below(max_extra_ns + 1);
                    if extra > 0 {
                        scenario.detection_delay_ns =
                            scenario.detection_delay_ns.saturating_add(extra);
                        scenario.label = format!("{}+{}", scenario.label, self.process.tag());
                    }
                }
                return;
            }
        }
        if !injected.is_empty() {
            scenario.events.extend(injected);
            scenario.events.sort_by_key(|e| (e.at_ns, e.link.index(), e.up));
            scenario.label = format!("{}+{}", scenario.label, self.process.tag());
        }
    }
}

impl<F: TemporalFamily> TemporalFamily for Impaired<'_, F> {
    fn label(&self) -> String {
        format!("{}+{}", self.inner.label(), self.process.tag())
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn scenario(&self, index: usize) -> TemporalScenario {
        let mut scenario = self.inner.scenario(index);
        self.impair(index, &mut scenario);
        scenario
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temporal::{OutageParams, OutageSweep};
    use pr_graph::generators::{self, MeshParams};

    fn located_graph() -> Graph {
        generators::isp_mesh(&MeshParams::new(24, 7))
    }

    #[test]
    fn zero_configs_are_identity() {
        let g = located_graph();
        let inner = OutageSweep::new(&g, OutageParams::default());
        for process in [
            ImpairmentProcess::GilbertElliott { fail_rate_per_s: 0.0, mean_down_ns: 1 },
            ImpairmentProcess::FlapStorm { storms: 0, radius_km: 100.0, down_for_ns: 1 },
            ImpairmentProcess::Maintenance { window_ns: 0, links: 3 },
            ImpairmentProcess::DetectionJitter { max_extra_ns: 0 },
        ] {
            assert!(process.is_identity());
            let fam = Impaired::new(&g, inner, process, 2010);
            assert_eq!(fam.len(), inner.len());
            for i in 0..fam.len() {
                assert_eq!(fam.scenario(i), inner.scenario(i), "{}", process.tag());
            }
        }
    }

    #[test]
    fn gilbert_injects_sorted_paired_events() {
        let g = located_graph();
        let inner = OutageSweep::new(&g, OutageParams::default());
        let process =
            ImpairmentProcess::GilbertElliott { fail_rate_per_s: 40.0, mean_down_ns: 5_000_000 };
        assert!(!process.is_identity());
        let fam = Impaired::new(&g, inner, process, 2010);
        let plain = inner.scenario(0);
        let sc = fam.scenario(0);
        assert!(sc.events.len() > plain.events.len(), "a hot rate must inject events");
        assert_eq!(sc.events.len() % 2, 0, "downs pair with ups");
        assert!(sc.label.ends_with("+gilbert"), "{}", sc.label);
        assert!(
            sc.events.windows(2).all(|w| {
                (w[0].at_ns, w[0].link.index(), w[0].up) <= (w[1].at_ns, w[1].link.index(), w[1].up)
            }),
            "timeline is totally ordered"
        );
        // Per link, injected transitions alternate down/up from the up
        // state (skip the link carrying the inner outage: its events
        // interleave with the injected ones by time).
        for link in g.links().filter(|&l| plain.events.iter().all(|e| e.link != l)) {
            let mine: Vec<&LinkEvent> = sc.events.iter().filter(|e| e.link == link).collect();
            for pair in mine.chunks(2) {
                assert!(!pair[0].up);
                if pair.len() == 2 {
                    assert!(pair[1].up);
                }
            }
        }
        // Steady state (and so the IGP's converged view) is untouched.
        assert_eq!(sc.igp_failed, plain.igp_failed);
        assert_eq!(sc.flow, plain.flow);
    }

    #[test]
    fn storm_takes_down_a_geo_neighbourhood_together() {
        let g = located_graph();
        let inner = OutageSweep::new(&g, OutageParams::default());
        let process =
            ImpairmentProcess::FlapStorm { storms: 2, radius_km: 400.0, down_for_ns: 10_000_000 };
        let fam = Impaired::new(&g, inner, process, 99);
        let sc = fam.scenario(3);
        let plain = inner.scenario(3);
        let injected: Vec<&LinkEvent> =
            sc.events.iter().filter(|e| !plain.events.contains(e)).collect();
        assert!(!injected.is_empty(), "a 400km storm on a jittered grid must hit links");
        // All injected downs cluster on at most `storms` distinct instants.
        let mut down_times: Vec<u64> = injected.iter().filter(|e| !e.up).map(|e| e.at_ns).collect();
        down_times.sort_unstable();
        down_times.dedup();
        assert!(down_times.len() <= 2, "correlated: one trigger per storm, got {down_times:?}");
    }

    #[test]
    fn maintenance_window_fails_distinct_links_for_the_window() {
        let g = located_graph();
        let inner = OutageSweep::new(&g, OutageParams::default());
        let process = ImpairmentProcess::Maintenance { window_ns: 30_000_000, links: 3 };
        let fam = Impaired::new(&g, inner, process, 5);
        let sc = fam.scenario(1);
        let plain = inner.scenario(1);
        let injected: Vec<&LinkEvent> =
            sc.events.iter().filter(|e| !plain.events.contains(e)).collect();
        let downs: Vec<&&LinkEvent> = injected.iter().filter(|e| !e.up).collect();
        assert_eq!(downs.len(), 3);
        let start = plain.flow.end_ns / 4;
        assert!(downs.iter().all(|e| e.at_ns == start), "scheduled: deterministic start");
        let mut links: Vec<u32> = downs.iter().map(|e| e.link.index() as u32).collect();
        links.dedup();
        assert_eq!(links.len(), 3, "distinct links");
        for d in downs {
            assert!(sc
                .events
                .iter()
                .any(|e| e.up && e.link == d.link && e.at_ns == start + 30_000_000));
        }
    }

    #[test]
    fn jitter_only_touches_the_detection_delay() {
        let g = located_graph();
        let inner = OutageSweep::new(&g, OutageParams::default());
        let process = ImpairmentProcess::DetectionJitter { max_extra_ns: 2_000_000 };
        let fam = Impaired::new(&g, inner, process, 11);
        let mut perturbed = 0;
        for i in 0..fam.len() {
            let sc = fam.scenario(i);
            let plain = inner.scenario(i);
            assert_eq!(sc.events, plain.events);
            assert_eq!(sc.flow, plain.flow);
            assert!(sc.detection_delay_ns >= plain.detection_delay_ns);
            assert!(sc.detection_delay_ns <= plain.detection_delay_ns + 2_000_000);
            if sc.detection_delay_ns > plain.detection_delay_ns {
                perturbed += 1;
            }
        }
        assert!(perturbed > 0, "a 2ms bound must perturb some scenario");
    }

    #[test]
    fn stacked_decorators_compose_and_stay_deterministic() {
        let g = located_graph();
        let inner = OutageSweep::new(&g, OutageParams::default());
        let build = || {
            Impaired::new(
                &g,
                Impaired::new(
                    &g,
                    inner,
                    ImpairmentProcess::GilbertElliott {
                        fail_rate_per_s: 25.0,
                        mean_down_ns: 4_000_000,
                    },
                    2010,
                ),
                ImpairmentProcess::FlapStorm {
                    storms: 1,
                    radius_km: 300.0,
                    down_for_ns: 8_000_000,
                },
                2010,
            )
        };
        let a = build();
        let b = build();
        assert_eq!(a.label(), "outage+gilbert+storm");
        for i in 0..a.len() {
            assert_eq!(a.scenario(i), b.scenario(i), "stack is pure in (index, seeds)");
            assert_eq!(a.scenario(i), a.scenario(i), "re-enumeration is stable");
        }
    }

    #[test]
    #[should_panic(expected = "coordinates")]
    fn storm_rejects_unlocated_graphs() {
        let g = generators::ring(6, 1);
        let inner = OutageSweep::new(&g, OutageParams::default());
        let _ = Impaired::new(
            &g,
            inner,
            ImpairmentProcess::FlapStorm { storms: 1, radius_km: 10.0, down_for_ns: 1 },
            0,
        );
    }
}
