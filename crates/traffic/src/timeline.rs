//! Temporal replay: demand matrices driven through an (impaired) link
//! event timeline, producing demand-weighted loss-over-time curves.
//!
//! The static dataplane ([`replay_scenario_bitparallel`]) prices one
//! failed set; a [`TemporalScenario`] is a *sequence* of failed sets —
//! its [`LinkEvent`](pr_scenarios::LinkEvent) timeline partitions the
//! demand-active window into intervals on which the down set is
//! constant. [`replay_timeline`] sweeps those intervals in time order,
//! replays the whole [`FlowSet`] once per **distinct consecutive**
//! failed set (the three-way detection/convergence splits reuse the
//! previous replay), and emits one [`TallySample`] per interval.
//!
//! Each failure event contributes two extra boundaries beyond its own
//! instant: `t + detection_delay` (when PR's local detection has
//! caught up — before it, affected demand blackholes into the dead
//! interface, the §1 loss window) and `t + convergence_lag` (when a
//! reconverging IGP's survivor tables take effect). The per-interval
//! tally is the same; only the scheme clocks differ, so one replay
//! prices both curves (see [`TallySample::pr_lost`] /
//! [`TallySample::igp_lost`]). The convergence lag is recovered from
//! the scenario's own IGP view: `igp_converged_at_ns` minus its first
//! failure instant.
//!
//! **Determinism.** Boundaries are folded from the timeline sorted
//! under the same `(at_ns, link, up)` total order the impairment
//! decorators emit; demands live on the `FlowSet` power-of-two grid,
//! so every per-interval tally and every time integral is exact and
//! association-free — a timeline replay is bit-identical at any
//! thread count and across runs.

use std::collections::BTreeSet;

use pr_core::{DenseFib, ForwardingAgent};
use pr_graph::{AllPairs, Graph, LinkSet};
use pr_scenarios::TemporalScenario;
use serde::Serialize;

use crate::flows::FlowSet;
use crate::replay::{replay_scenario_bitparallel, ReplayScratch, ScenarioTraffic};
use crate::sampling::{TallySample, TallySeries};

/// Outcome of replaying a demand matrix through a whole timeline.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct TimelineTraffic {
    /// The loss-over-time curve: one sample per boundary interval.
    pub series: TallySeries,
    /// Worst per-interval peak link load over the window (delivered
    /// flows only) — how hot the hottest detour ran.
    pub max_link_load: f64,
}

/// Replays `flows` through `scenario`'s event timeline: one
/// demand-weighted [`TallySample`] per interval between event
/// boundaries (failure/repair instants plus each failure's detection
/// and convergence splits), clipped to the flow's active window.
///
/// Consecutive intervals with the same down set reuse the previous
/// interval's replay, so the cost is one cone-delta replay per
/// *distinct* failed-set episode, not per boundary.
#[allow(clippy::too_many_arguments)]
pub fn replay_timeline<A: ForwardingAgent>(
    graph: &Graph,
    agent: &A,
    dense: &DenseFib,
    base: &AllPairs,
    flows: &FlowSet,
    scenario: &TemporalScenario,
    ttl: usize,
    scratch: &mut ReplayScratch<A::State>,
) -> TimelineTraffic
where
    A::State: std::hash::Hash + Eq,
{
    let window = (scenario.flow.start_ns, scenario.flow.end_ns);
    let mut out = TimelineTraffic::default();
    if window.1 <= window.0 {
        return out;
    }

    // The timeline under the decorators' total order (stable, so an
    // already-sorted impaired timeline passes through unchanged).
    let mut events = scenario.events.clone();
    events.sort_by_key(|e| (e.at_ns, e.link.index(), e.up));

    // The IGP's convergence lag, recovered from the scenario's own
    // steady-state view: time from the first failure to table flip.
    let first_down = events.iter().filter(|e| !e.up).map(|e| e.at_ns).min();
    let convergence_lag = match first_down {
        Some(at) => scenario.igp_converged_at_ns.saturating_sub(at),
        None => 0,
    };

    // Boundary instants: window edges, every in-window event, and the
    // detection/convergence splits of every in-window failure.
    let mut cuts: BTreeSet<u64> = BTreeSet::new();
    cuts.insert(window.0);
    cuts.insert(window.1);
    let in_window = |t: u64| t > window.0 && t < window.1;
    for e in &events {
        if in_window(e.at_ns) {
            cuts.insert(e.at_ns);
        }
        if !e.up {
            for split in [
                e.at_ns.saturating_add(scenario.detection_delay_ns),
                e.at_ns.saturating_add(convergence_lag),
            ] {
                if in_window(split) {
                    cuts.insert(split);
                }
            }
        }
    }

    let mut down = LinkSet::empty(graph.link_count());
    // Instants at which the schemes' views cover every failure so far
    // (monotone: a fresh failure pushes both clocks forward).
    let (mut pr_covered_at, mut igp_covered_at) = (0u64, 0u64);
    let mut next_event = 0usize;
    let mut prev: Option<(LinkSet, ScenarioTraffic)> = None;

    let cuts: Vec<u64> = cuts.into_iter().collect();
    for pair in cuts.windows(2) {
        let (from_ns, to_ns) = (pair[0], pair[1]);
        // Apply every transition up to and including the interval
        // start (events before the window shape its initial state).
        while next_event < events.len() && events[next_event].at_ns <= from_ns {
            let e = &events[next_event];
            if e.up {
                down.remove(e.link);
            } else {
                down.insert(e.link);
                pr_covered_at =
                    pr_covered_at.max(e.at_ns.saturating_add(scenario.detection_delay_ns));
                igp_covered_at = igp_covered_at.max(e.at_ns.saturating_add(convergence_lag));
            }
            next_event += 1;
        }
        let traffic = match &prev {
            Some((set, traffic)) if *set == down => traffic.clone(),
            _ => {
                let t = replay_scenario_bitparallel(
                    graph, agent, dense, base, flows, &down, ttl, scratch,
                );
                prev = Some((down.clone(), t.clone()));
                t
            }
        };
        out.max_link_load = out.max_link_load.max(traffic.max_link_load);
        out.series.samples.push(TallySample {
            from_ns,
            to_ns,
            links_down: down.len() as u32,
            pr_detected: from_ns >= pr_covered_at,
            igp_converged: from_ns >= igp_covered_at,
            tally: traffic.tally,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::UniformTraffic;
    use pr_core::{generous_ttl, DiscriminatorKind, PrMode, PrNetwork};
    use pr_embedding::{CellularEmbedding, RotationSystem};
    use pr_graph::generators;
    use pr_scenarios::{OutageParams, OutageSweep, TemporalFamily};

    fn ring_setup(n: usize) -> (pr_graph::Graph, PrNetwork) {
        let g = generators::ring(n, 1);
        let emb = CellularEmbedding::new(&g, RotationSystem::identity(&g)).unwrap();
        let net =
            PrNetwork::compile(&g, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
        (g, net)
    }

    fn replay(g: &pr_graph::Graph, net: &PrNetwork, sc: &TemporalScenario) -> TimelineTraffic {
        let base = AllPairs::compute_all_live(g);
        let dense = DenseFib::from_base(g, &base);
        let agent = net.agent(g);
        let flows = FlowSet::all_pairs(&UniformTraffic::new(g));
        let mut scratch = ReplayScratch::new();
        replay_timeline(g, &agent, &dense, &base, &flows, sc, generous_ttl(g), &mut scratch)
    }

    #[test]
    fn eventless_timeline_is_one_clean_sample() {
        let (g, net) = ring_setup(5);
        let mut sc = OutageSweep::new(&g, OutageParams::default()).scenario(0);
        sc.events.clear();
        let out = replay(&g, &net, &sc);
        assert_eq!(out.series.samples.len(), 1);
        let s = &out.series.samples[0];
        assert_eq!((s.from_ns, s.to_ns), (sc.flow.start_ns, sc.flow.end_ns));
        assert_eq!(s.links_down, 0);
        assert!(s.pr_detected && s.igp_converged);
        assert_eq!(s.tally.lost(), 0.0);
        assert_eq!(out.series.pr_loss_over_time(), 0.0);
    }

    #[test]
    fn outage_produces_the_paper_shaped_loss_curve() {
        let (g, net) = ring_setup(6);
        let sc = OutageSweep::new(&g, OutageParams::default()).scenario(2);
        let out = replay(&g, &net, &sc);
        // Samples partition the window contiguously.
        let samples = &out.series.samples;
        assert!(samples.len() >= 4, "down, detect, converge, repair: {}", samples.len());
        assert_eq!(samples.first().unwrap().from_ns, sc.flow.start_ns);
        assert_eq!(samples.last().unwrap().to_ns, sc.flow.end_ns);
        for w in samples.windows(2) {
            assert_eq!(w[0].to_ns, w[1].from_ns, "contiguous partition");
        }
        // Before the failure: clean. During the blackhole window: both
        // schemes lose all affected demand. After detection: PR
        // recovers on a ring (2-edge-connected), the IGP still loses.
        let blackhole =
            samples.iter().find(|s| s.links_down == 1 && !s.pr_detected).expect("blackhole window");
        assert!(blackhole.pr_lost() > 0.0);
        assert_eq!(blackhole.pr_lost(), blackhole.igp_lost());
        assert_eq!(blackhole.duration_ns(), sc.detection_delay_ns);
        let recovered = samples
            .iter()
            .find(|s| s.links_down == 1 && s.pr_detected && !s.igp_converged)
            .expect("PR-recovered, IGP-reconverging window");
        assert_eq!(recovered.pr_lost(), 0.0, "ring outage: PR delivers everything");
        assert!(recovered.igp_lost() > 0.0);
        // Time-integrated: PR's loss window (1ms) beats the IGP's
        // (200ms) by orders of magnitude.
        let (pr, igp) = (out.series.pr_demand_seconds_lost(), out.series.igp_demand_seconds_lost());
        assert!(pr > 0.0 && igp > 50.0 * pr, "pr={pr} igp={igp}");
        assert!(out.max_link_load > 0.0);
    }

    #[test]
    fn repeated_replays_are_bit_identical() {
        let (g, net) = ring_setup(6);
        let sc = OutageSweep::new(&g, OutageParams::default()).scenario(1);
        let a = replay(&g, &net, &sc);
        let b = replay(&g, &net, &sc);
        assert_eq!(a, b);
    }
}
