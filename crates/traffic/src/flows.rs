//! Flow sets: the unit of replay.
//!
//! A [`FlowSet`] is a batch of `(src, dst, demand)` flows compiled
//! from a [`TrafficModel`], stored **destination-major** so the replay
//! dataplane can amortise per-destination state (the repaired survivor
//! tree, the walk scratch) over a whole group — the same grouping the
//! sweep engine uses for its `(scenario × destination)` units.
//!
//! Two compilations:
//!
//! * [`FlowSet::all_pairs`] — one flow per ordered pair with positive
//!   demand. Replaying it evaluates the *whole* matrix; under the
//!   uniform unit model this reproduces the unweighted coverage counts
//!   exactly.
//! * [`FlowSet::sampled`] — `n` flows drawn from the matrix by inverse
//!   transform sampling on a splitmix64 stream (the scenario-seeding
//!   discipline: draw `i` is pure in `(seed, i)`). Each draw carries
//!   `total_demand / n`, so the sampled set is an unbiased estimate of
//!   the matrix at any sample count; duplicate draws of a pair
//!   coalesce into one flow with the summed demand.

use pr_core::Stamp;
use pr_graph::NodeId;
use pr_scenarios::scenario_seed;
use serde::Serialize;

use crate::TrafficModel;

/// The **demand grid**: every flow's demand is snapped to the nearest
/// multiple of a power-of-two quantum scaled to the set's total
/// demand, `2^(⌊log2 total⌋ − 51)`.
///
/// This is what lets two very different dataplanes (the per-packet
/// oracle, and a failure-free baseline corrected cone by cone) produce
/// **bit-identical** f64 demand sums: with every demand a multiple of
/// the quantum `q` and every per-scenario accumulator (link loads,
/// tally fields) staying within `[0, 2T]` for the total `T`, all
/// partial sums stay below `2^53 · q ∈ (2T, 4T]` — i.e. every
/// intermediate value is exactly representable, every addition *and
/// every subtraction* is exact, and f64 arithmetic over the grid is
/// **associative**. Sums may then be regrouped freely (per flow, per
/// path, per subtree, added once and withdrawn later) without changing
/// a single bit. The snap costs at most `q/2 ≤ T · 2^−52` per flow —
/// half an ulp *of the total*.
///
/// Returns the quantum for a positive finite total.
fn demand_quantum(total: f64) -> f64 {
    assert!(total.is_finite() && total > 0.0, "demand grid needs a positive total, got {total}");
    let biased_exp = (total.to_bits() >> 52) & 0x7ff;
    assert!(biased_exp != 0, "demand grid does not support subnormal totals");
    // quantum = 2^(e − 51) built directly from the biased exponent,
    // clamped to the smallest normal so the grid never goes subnormal.
    f64::from_bits(biased_exp.saturating_sub(51).max(1) << 52)
}

/// Snaps one positive demand onto the grid; demands below half a
/// quantum round to the smallest grid point instead of vanishing, so
/// a positive flow stays positive.
fn snap_to_grid(demand: f64, quantum: f64) -> f64 {
    let snapped = (demand / quantum).round() * quantum;
    if snapped == 0.0 {
        quantum
    } else {
        snapped
    }
}

/// One flow: a demand between an ordered pair of nodes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Flow {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Demand carried by this flow (positive).
    pub demand: f64,
}

/// A destination-major batch of flows compiled from a traffic model.
#[derive(Debug, Clone)]
pub struct FlowSet {
    label: String,
    flows: Vec<Flow>,
    /// One `(dst, start..end)` range into `flows` per destination with
    /// at least one flow, in destination order.
    groups: Vec<(NodeId, usize, usize)>,
    offered: f64,
    stamp: Stamp,
}

impl FlowSet {
    /// One flow per ordered pair with positive demand — the full
    /// matrix, destination-major, sources in node order within each
    /// destination.
    pub fn all_pairs(model: &dyn TrafficModel) -> FlowSet {
        let n = model.node_count();
        let mut flows = Vec::with_capacity(n * n.saturating_sub(1));
        for dst in 0..n as u32 {
            for src in 0..n as u32 {
                let demand = model.demand(NodeId(src), NodeId(dst));
                if demand > 0.0 {
                    flows.push(Flow { src: NodeId(src), dst: NodeId(dst), demand });
                }
            }
        }
        FlowSet::from_sorted(format!("{}/all-pairs", model.label()), flows)
    }

    /// `samples` flows drawn from the matrix proportionally to demand
    /// (inverse-CDF over a splitmix64 stream — deterministic in
    /// `seed`), each carrying `total_demand / samples`; duplicate
    /// draws of a pair coalesce. The result is destination-major like
    /// [`FlowSet::all_pairs`].
    ///
    /// # Panics
    ///
    /// Panics when `samples` is zero or the model's total demand is
    /// not positive.
    pub fn sampled(model: &dyn TrafficModel, samples: usize, seed: u64) -> FlowSet {
        assert!(samples > 0, "cannot sample an empty flow set");
        let n = model.node_count();
        // Compact inverse CDF: cumulative demand over the
        // positive-demand pairs only, destination-major. Zero-demand
        // pairs add `0.0` to the running total — which leaves it
        // bit-unchanged — so the compact CDF ends at the same total a
        // dense one would, and because `partition_point` steps past
        // equal entries every target lands on the same pair a dense
        // scan would pick. Compacting removes both the diagonal and
        // any sparse structure from the per-draw binary search, and
        // makes the hit tally proportional to carried pairs, not n².
        let mut pairs: Vec<u32> = Vec::new();
        let mut cumulative: Vec<f64> = Vec::new();
        let mut total = 0.0;
        for dst in 0..n as u32 {
            for src in 0..n as u32 {
                let demand = model.demand(NodeId(src), NodeId(dst));
                if demand > 0.0 {
                    total += demand;
                    pairs.push(dst * n as u32 + src);
                    cumulative.push(total);
                }
            }
        }
        assert!(total > 0.0, "traffic model offers no demand");

        let mut hits = vec![0u32; pairs.len()];
        for draw in 0..samples {
            // 53 uniform mantissa bits in [0, 1), scaled to the total.
            let unit = (scenario_seed(seed, draw) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            let target = unit * total;
            // `unit * total` can round up to exactly `total`; the
            // clamp keeps that corner on the last carried pair, so a
            // self-flow can never be drawn.
            let hit = cumulative.partition_point(|&c| c <= target).min(pairs.len() - 1);
            hits[hit] += 1;
        }

        let per_draw = total / samples as f64;
        let mut flows = Vec::new();
        for (i, &count) in hits.iter().enumerate() {
            if count > 0 {
                let pair = pairs[i] as usize;
                let (dst, src) = ((pair / n) as u32, (pair % n) as u32);
                flows.push(Flow {
                    src: NodeId(src),
                    dst: NodeId(dst),
                    demand: f64::from(count) * per_draw,
                });
            }
        }
        FlowSet::from_sorted(format!("{}/sampled({samples}, seed={seed})", model.label()), flows)
    }

    /// Builds the grouped representation from destination-major flows,
    /// snapping every demand onto the set's demand grid (see
    /// [`demand_quantum`]) so replay sums are association-free.
    fn from_sorted(label: String, mut flows: Vec<Flow>) -> FlowSet {
        let raw_total: f64 = flows.iter().map(|f| f.demand).sum();
        if raw_total > 0.0 {
            let quantum = demand_quantum(raw_total);
            for f in &mut flows {
                f.demand = snap_to_grid(f.demand, quantum);
            }
        }
        let mut groups: Vec<(NodeId, usize, usize)> = Vec::new();
        for (i, f) in flows.iter().enumerate() {
            match groups.last_mut() {
                Some((dst, _, end)) if *dst == f.dst => *end = i + 1,
                _ => groups.push((f.dst, i, i + 1)),
            }
        }
        let offered = flows.iter().map(|f| f.demand).sum();
        FlowSet { label, flows, groups, offered, stamp: Stamp::fresh() }
    }

    /// Human-readable provenance (`model/all-pairs`, `model/sampled(…)`).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Number of flows in the set.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// `true` if the set holds no flows.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Total demand offered by the set.
    pub fn offered(&self) -> f64 {
        self.offered
    }

    /// All flows, destination-major.
    pub fn flows(&self) -> &[Flow] {
        &self.flows
    }

    /// The `i`-th flow.
    pub fn flow(&self, i: usize) -> &Flow {
        &self.flows[i]
    }

    /// The stamp of this compilation: differs between any two sets
    /// built separately, however alike (see [`Stamp`]).
    pub fn stamp(&self) -> Stamp {
        self.stamp
    }

    /// Iterates `(destination, flows-towards-it)` groups in
    /// destination order, sources ascending within a group — the
    /// replay dataplane's batching axis.
    pub fn by_destination(&self) -> impl Iterator<Item = (NodeId, &[Flow])> {
        self.groups.iter().map(move |&(dst, start, end)| (dst, &self.flows[start..end]))
    }
}

/// The demand `src` sends in `group`, one destination's flows as
/// [`FlowSet::by_destination`] yields them (`None`: no such flow). A
/// group that holds every other node — any all-pairs matrix — has the
/// flow at the source's own rank, so the search is only ever run on
/// sparse groups.
pub(crate) fn demand_from(group: &[Flow], src: NodeId) -> Option<f64> {
    let dst = group.first()?.dst;
    let rank = src.index() - usize::from(src > dst);
    let flow = match group.get(rank) {
        Some(flow) if flow.src == src => flow,
        _ => &group[group.binary_search_by_key(&src, |f| f.src).ok()?],
    };
    Some(flow.demand)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UniformTraffic;
    use pr_graph::generators;

    #[test]
    fn all_pairs_is_destination_major_and_complete() {
        let g = generators::ring(5, 1);
        let set = FlowSet::all_pairs(&UniformTraffic::new(&g));
        assert_eq!(set.len(), 5 * 4);
        assert_eq!(set.offered(), 20.0);
        assert!(!set.is_empty());
        assert!(set.label().starts_with("uniform/all-pairs"));
        // Destination-major, sources ascending within a destination.
        let mut expected = 0;
        for (dst, flows) in set.by_destination() {
            assert_eq!(dst, NodeId(expected));
            expected += 1;
            assert_eq!(flows.len(), 4);
            for w in flows.windows(2) {
                assert!(w[0].src.0 < w[1].src.0);
            }
            assert!(flows.iter().all(|f| f.dst == dst && f.src != dst && f.demand == 1.0));
        }
        assert_eq!(expected, 5);
        assert_eq!(set.flow(0).dst, NodeId(0));
    }

    #[test]
    fn sampling_is_deterministic_grouped_and_demand_preserving() {
        let g = generators::ring(6, 1);
        let m = UniformTraffic::new(&g);
        let a = FlowSet::sampled(&m, 100, 42);
        let b = FlowSet::sampled(&m, 100, 42);
        assert_eq!(a.flows(), b.flows(), "same seed, same draws");
        let c = FlowSet::sampled(&m, 100, 43);
        assert_ne!(a.flows(), c.flows(), "different seed, different draws");
        // Total demand is conserved exactly up to float association.
        assert!((a.offered() - m.total_demand()).abs() < 1e-9);
        // Grouped destination-major with coalesced duplicates.
        let mut seen = std::collections::BTreeSet::new();
        let mut last_dst = None;
        for (dst, flows) in a.by_destination() {
            if let Some(prev) = last_dst {
                assert!(dst.0 > prev, "destinations ascend");
            }
            last_dst = Some(dst.0);
            for f in flows {
                assert!(seen.insert((f.src.0, f.dst.0)), "pairs are coalesced");
                assert!(f.demand > 0.0);
            }
        }
    }

    #[test]
    fn demands_live_on_the_power_of_two_grid() {
        let g = generators::ring(7, 3);
        let m = crate::HotspotTraffic::new(&g, 2, 8.0, 9);
        let set = FlowSet::all_pairs(&m);
        // Reconstruct the raw (pre-snap) total in compilation order.
        let mut raw = 0.0;
        for dst in 0..7u32 {
            for src in 0..7u32 {
                let d = m.demand(NodeId(src), NodeId(dst));
                if d > 0.0 {
                    raw += d;
                }
            }
        }
        let quantum = demand_quantum(raw);
        assert!(quantum > 0.0 && quantum.log2().fract() == 0.0, "quantum is a power of two");
        for f in set.flows() {
            // Every demand is an exact multiple of the quantum…
            assert_eq!((f.demand / quantum).fract(), 0.0, "{} off grid", f.demand);
            // …within half a quantum of the raw model demand.
            let d = m.demand(f.src, f.dst);
            assert!((f.demand - d).abs() <= quantum, "snap moved {d} to {}", f.demand);
        }
        // The snap conserves total demand to half an ulp per flow.
        assert!((set.offered() - raw).abs() <= set.len() as f64 * quantum);
        // Snapping tiny positive demands keeps them positive.
        assert_eq!(snap_to_grid(quantum / 8.0, quantum), quantum);
    }

    /// The whole gravity compile against the per-pair formula: one
    /// haversine per ordered pair, the norm summed in (dst, src)
    /// order, each demand spelled `norm · m[src] · m[dst] / friction`
    /// and snapped to the grid. The model reads friction off a table
    /// of unordered pairs; no flow may move a bit for it.
    #[test]
    fn all_pairs_gravity_demands_are_the_per_pair_formula_on_the_grid() {
        use pr_topologies::{Isp, Weighting};
        let graphs = [
            pr_topologies::load(Isp::Geant, Weighting::Distance),
            generators::synth_from_spec("isp:40:7").unwrap(),
        ];
        for g in graphs {
            let n = g.node_count();
            let mut mass = vec![0.0; n];
            for link in g.links() {
                let (a, b) = g.endpoints(link);
                mass[a.index()] += f64::from(g.weight(link));
                mass[b.index()] += f64::from(g.weight(link));
            }
            let mass = &mass;
            let factor = |src: NodeId, dst: NodeId| {
                let at = |v| g.coordinates(v).unwrap();
                let km = at(src).haversine_km(at(dst));
                let friction = 1.0 + (km / 1000.0) * (km / 1000.0);
                move |norm: f64| norm * mass[src.index()] * mass[dst.index()] / friction
            };
            let pairs = || {
                g.nodes()
                    .flat_map(|dst| g.nodes().map(move |src| (src, dst)))
                    .filter(|(src, dst)| src != dst)
            };
            let raw: f64 = pairs().fold(0.0, |sum, (src, dst)| sum + factor(src, dst)(1.0));
            let norm = (n * (n - 1)) as f64 / raw;
            let demands: Vec<f64> = pairs().map(|(src, dst)| factor(src, dst)(norm)).collect();
            let quantum = demand_quantum(demands.iter().sum());
            let set = FlowSet::all_pairs(&crate::GravityTraffic::new(&g));
            assert_eq!(set.len(), demands.len());
            for ((f, (src, dst)), want) in set.flows().iter().zip(pairs()).zip(demands) {
                assert_eq!((f.src, f.dst), (src, dst));
                let want = snap_to_grid(want, quantum);
                assert_eq!(f.demand.to_bits(), want.to_bits(), "{src}->{dst}");
            }
        }
    }

    #[test]
    fn demand_lookup_finds_every_flow_of_full_and_sparse_groups() {
        let g = generators::ring(9, 1);
        let hot = crate::HotspotTraffic::new(&g, 2, 8.0, 5);
        let full = FlowSet::all_pairs(&hot);
        let sparse = FlowSet::sampled(&hot, 12, 5);
        assert!(sparse.by_destination().any(|(_, group)| group.len() < 8));
        for set in [&full, &sparse] {
            assert_ne!(set.stamp(), FlowSet::all_pairs(&hot).stamp());
            assert_eq!(set.stamp(), set.clone().stamp());
            for (dst, group) in set.by_destination() {
                for src in g.nodes() {
                    let listed = group.iter().find(|f| f.src == src).map(|f| f.demand);
                    assert_eq!(demand_from(group, src), listed, "{src}->{dst}");
                }
            }
        }
        assert_eq!(demand_from(&[], NodeId(0)), None);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn sampling_zero_flows_panics() {
        let g = generators::ring(4, 1);
        let _ = FlowSet::sampled(&UniformTraffic::new(&g), 0, 1);
    }
}
