//! Flow sets: the unit of replay.
//!
//! A [`FlowSet`] is a batch of `(src, dst, demand)` flows compiled
//! from a [`TrafficModel`], stored **destination-major** so the replay
//! dataplane can amortise per-destination state (the repaired survivor
//! tree, the walk scratch) over a whole group — the same grouping the
//! sweep engine uses for its `(scenario × destination)` units.
//!
//! The set stores one `f64` demand per flow. A group's destination is
//! its key, and a group that holds every other node implies its
//! sources (the `i`-th is `i + (i ≥ dst)`); only the others keep theirs.
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

/// One flow: a demand between an ordered pair of nodes. A value the
/// groups of a [`FlowSet`] yield; the set stores its demand alone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Flow {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Demand carried by this flow (positive).
    pub demand: f64,
}

/// One destination's flows: `demands[start..end]`.
#[derive(Debug, Clone, Copy)]
struct Group {
    dst: NodeId,
    start: usize,
    end: usize,
    /// Where the group's sources start in [`FlowSet::sources`]; `None`
    /// when the group holds every other node and they are implied.
    sources: Option<usize>,
}

/// A destination-major batch of flows compiled from a traffic model.
#[derive(Debug, Clone)]
pub struct FlowSet {
    label: String,
    /// Every flow's demand, destination-major, sources ascending
    /// within a destination.
    demands: Vec<f64>,
    /// The sources of the groups that lack some node, group by group.
    sources: Vec<NodeId>,
    /// One group per destination with at least one flow, in
    /// destination order.
    groups: Vec<Group>,
    offered: f64,
    stamp: Stamp,
}

impl FlowSet {
    /// One flow per ordered pair with positive demand — the full
    /// matrix, destination-major, sources in node order within each
    /// destination.
    pub fn all_pairs(model: &dyn TrafficModel) -> FlowSet {
        let n = model.node_count();
        let mut set =
            FlowSet::empty(format!("{}/all-pairs", model.label()), n * n.saturating_sub(1));
        for dst in (0..n as u32).map(NodeId) {
            set.open(dst);
            for src in (0..n as u32).map(NodeId) {
                let demand = model.demand(src, dst);
                if src != dst && demand > 0.0 {
                    set.push(src, demand);
                }
            }
            set.close(n);
        }
        set.snapped()
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
        // Inverse-CDF sampling over the positive-demand pairs,
        // destination-major, with the CDF never stored: one pass sums
        // the total, and the second recomputes the same running sums in
        // the same order, so bit for bit, handing each pair the sorted
        // targets below its sum — the first pair whose sum exceeds a
        // target takes it. The heap is O(samples).
        let positive = |src: u32, dst: u32| {
            let demand = model.demand(NodeId(src), NodeId(dst));
            (src != dst && demand > 0.0).then_some(demand)
        };
        let pairs = || (0..n as u32).flat_map(move |dst| (0..n as u32).map(move |src| (dst, src)));
        let (mut total, mut positives, mut last) = (0.0, 0, (0, 0));
        for (dst, src) in pairs() {
            if let Some(demand) = positive(src, dst) {
                (total, positives, last) = (total + demand, positives + 1, (dst, src));
            }
        }
        assert!(total > 0.0, "traffic model offers no demand");
        let mut targets: Vec<f64> = (0..samples)
            .map(|draw| {
                // 53 uniform mantissa bits in [0, 1), scaled to the total.
                let unit = (scenario_seed(seed, draw) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
                unit * total
            })
            .collect();
        targets.sort_unstable_by(f64::total_cmp);

        let per_draw = total / samples as f64;
        let label = format!("{}/sampled({samples}, seed={seed})", model.label());
        let mut set = FlowSet::empty(label, samples.min(positives));
        let (mut running, mut next) = (0.0, 0);
        for (dst, src) in pairs() {
            let Some(demand) = positive(src, dst) else { continue };
            running += demand;
            let from = next;
            // `unit * total` can round up to exactly `total`: the last
            // positive pair keeps those targets, so a self-flow can
            // never be drawn.
            while next < samples && (targets[next] < running || (dst, src) == last) {
                next += 1;
            }
            if next > from {
                if set.groups.last().is_none_or(|group| group.dst.0 != dst) {
                    set.close(n);
                    set.open(NodeId(dst));
                }
                set.push(NodeId(src), (next - from) as f64 * per_draw);
            }
        }
        set.close(n);
        set.snapped()
    }

    /// An empty set with room for `capacity` flows. Flows go in
    /// destination-major, sources ascending and never the destination:
    /// a group is `open`ed, `push`ed to and `close`d in turn.
    fn empty(label: String, capacity: usize) -> FlowSet {
        FlowSet {
            label,
            demands: Vec::with_capacity(capacity),
            sources: Vec::new(),
            groups: Vec::new(),
            offered: 0.0,
            stamp: Stamp::fresh(),
        }
    }

    fn open(&mut self, dst: NodeId) {
        let (start, from) = (self.demands.len(), self.sources.len());
        self.groups.push(Group { dst, start, end: start, sources: Some(from) });
    }

    fn push(&mut self, src: NodeId, demand: f64) {
        self.demands.push(demand);
        self.sources.push(src);
    }

    /// Ends the open group of a set over `nodes` nodes at the last
    /// demand: an empty group is dropped, and one that holds every
    /// other node forgets its sources.
    fn close(&mut self, nodes: usize) {
        let Some(group) = self.groups.last_mut() else { return };
        group.end = self.demands.len();
        if group.end == group.start {
            self.groups.pop();
        } else if group.end - group.start == nodes - 1 {
            self.sources.truncate(group.sources.take().expect("an open group lists its sources"));
        }
    }

    /// Snaps every demand onto the set's demand grid (see
    /// [`demand_quantum`]), so replay sums are association-free.
    fn snapped(mut self) -> FlowSet {
        let raw_total: f64 = self.demands.iter().sum();
        if raw_total > 0.0 {
            let quantum = demand_quantum(raw_total);
            for demand in &mut self.demands {
                *demand = snap_to_grid(*demand, quantum);
            }
        }
        self.offered = self.demands.iter().sum();
        self.demands.shrink_to_fit();
        self.sources.shrink_to_fit();
        self.groups.shrink_to_fit();
        self
    }

    /// Human-readable provenance (`model/all-pairs`, `model/sampled(…)`).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Number of flows in the set.
    pub fn len(&self) -> usize {
        self.demands.len()
    }

    /// `true` if the set holds no flows.
    pub fn is_empty(&self) -> bool {
        self.demands.is_empty()
    }

    /// Total demand offered by the set.
    pub fn offered(&self) -> f64 {
        self.offered
    }

    /// The stamp of this compilation: differs between any two sets
    /// built separately, however alike (see [`Stamp`]).
    pub fn stamp(&self) -> Stamp {
        self.stamp
    }

    /// Iterates `(destination, flows-towards-it)` groups in
    /// destination order, sources ascending within a group — the
    /// replay dataplane's batching axis.
    pub fn by_destination(&self) -> impl Iterator<Item = (NodeId, FlowGroup<'_>)> {
        self.groups.iter().map(move |&Group { dst, start, end, sources }| {
            let demands = &self.demands[start..end];
            let sources = sources.map(|from| &self.sources[from..from + demands.len()]);
            (dst, FlowGroup { dst, demands, sources })
        })
    }
}

/// The flows towards one destination, sources ascending, as
/// [`FlowSet::by_destination`] yields them.
#[derive(Debug, Clone, Copy)]
pub struct FlowGroup<'a> {
    dst: NodeId,
    demands: &'a [f64],
    /// `None` when the group holds every other node: its `i`-th source
    /// is then `i + (i ≥ dst)`.
    sources: Option<&'a [NodeId]>,
}

impl<'a> FlowGroup<'a> {
    /// The group's flows, sources ascending.
    pub fn iter(self) -> impl Iterator<Item = Flow> + 'a {
        let FlowGroup { dst, demands, sources } = self;
        demands.iter().enumerate().map(move |(i, &demand)| {
            let src = match sources {
                Some(sources) => sources[i],
                None => NodeId((i + usize::from(i >= dst.index())) as u32),
            };
            Flow { src, dst, demand }
        })
    }

    /// The demand `src` sends towards the group's destination (`None`:
    /// no such flow) — at the source's own rank in a group that holds
    /// every other node, by binary search in any other.
    pub(crate) fn demand_from(&self, src: NodeId) -> Option<f64> {
        let i = match self.sources {
            None if src == self.dst => return None,
            None => src.index() - usize::from(src > self.dst),
            Some(sources) => sources.binary_search(&src).ok()?,
        };
        self.demands.get(i).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UniformTraffic;
    use pr_graph::generators;

    /// Every flow of `set`, destination-major.
    fn flows(set: &FlowSet) -> Vec<Flow> {
        set.by_destination().flat_map(|(_, group)| group.iter()).collect()
    }

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
        for (dst, group) in set.by_destination() {
            assert_eq!(dst, NodeId(expected));
            expected += 1;
            let flows: Vec<Flow> = group.iter().collect();
            assert_eq!(flows.len(), 4);
            for w in flows.windows(2) {
                assert!(w[0].src.0 < w[1].src.0);
            }
            assert!(flows.iter().all(|f| f.dst == dst && f.src != dst && f.demand == 1.0));
        }
        assert_eq!(expected, 5);
        // Every group holds every other node: no source is stored.
        assert!(set.sources.is_empty() && set.groups.iter().all(|g| g.sources.is_none()));
    }

    #[test]
    fn sampling_is_deterministic_grouped_and_demand_preserving() {
        let g = generators::ring(6, 1);
        let m = UniformTraffic::new(&g);
        let a = FlowSet::sampled(&m, 100, 42);
        let b = FlowSet::sampled(&m, 100, 42);
        assert_eq!(flows(&a), flows(&b), "same seed, same draws");
        let c = FlowSet::sampled(&m, 100, 43);
        assert_ne!(flows(&a), flows(&c), "different seed, different draws");
        // Total demand is conserved exactly up to float association.
        assert!((a.offered() - m.total_demand()).abs() < 1e-9);
        // Grouped destination-major with coalesced duplicates.
        let mut seen = std::collections::BTreeSet::new();
        let mut last_dst = None;
        for (dst, group) in a.by_destination() {
            if let Some(prev) = last_dst {
                assert!(dst.0 > prev, "destinations ascend");
            }
            last_dst = Some(dst.0);
            for f in group.iter() {
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
        for f in flows(&set) {
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
            for ((f, (src, dst)), want) in flows(&set).into_iter().zip(pairs()).zip(demands) {
                assert_eq!((f.src, f.dst), (src, dst));
                let want = snap_to_grid(want, quantum);
                assert_eq!(f.demand.to_bits(), want.to_bits(), "{src}->{dst}");
            }
        }
    }

    /// Every group kind the lookup and the implied sources meet: an
    /// all-pairs set (every group full), a handful of draws (every
    /// group sparse), and draws enough that the hot destinations'
    /// groups fill while the cold ones do not.
    #[test]
    fn demand_lookup_finds_every_flow_of_full_and_sparse_groups() {
        let g = generators::ring(9, 1);
        let hot = crate::HotspotTraffic::new(&g, 2, 8.0, 5);
        let full = FlowSet::all_pairs(&hot);
        let sparse = FlowSet::sampled(&hot, 12, 5);
        let mixed = FlowSet::sampled(&hot, 400, 5);
        let kinds = |set: &FlowSet| {
            let stored = set.groups.iter().filter(|g| g.sources.is_some()).count();
            (set.groups.len() - stored, stored)
        };
        assert_eq!(kinds(&full), (9, 0));
        assert_eq!(kinds(&sparse).0, 0);
        let (filled, unfilled) = kinds(&mixed);
        assert!(filled > 0 && unfilled > 0, "{filled} full groups, {unfilled} sparse");
        for set in [&full, &sparse, &mixed] {
            assert_ne!(set.stamp(), FlowSet::all_pairs(&hot).stamp());
            assert_eq!(set.stamp(), set.clone().stamp());
            // The sources stored are exactly the sparse groups'.
            let stored: usize =
                set.groups.iter().filter(|g| g.sources.is_some()).map(|g| g.end - g.start).sum();
            assert_eq!(set.sources.len(), stored);
            for (dst, group) in set.by_destination() {
                let listed: Vec<Flow> = group.iter().collect();
                assert!(listed.windows(2).all(|w| w[0].src < w[1].src), "sources ascend");
                assert!(listed.iter().all(|f| f.dst == dst && f.src != dst));
                for src in g.nodes().chain([NodeId(9)]) {
                    let want = listed.iter().find(|f| f.src == src).map(|f| f.demand);
                    assert_eq!(group.demand_from(src), want, "{src}->{dst}");
                }
            }
        }
        // The implied sources are the ones the model would list.
        for (dst, group) in mixed.by_destination() {
            let drawn: Vec<NodeId> = group.iter().map(|f| f.src).collect();
            assert!(drawn.iter().all(|&src| hot.demand(src, dst) > 0.0));
        }
    }

    /// The sampled set a dense inverse CDF draws: cumulative demand over
    /// all n² `(dst, src)` entries, the diagonal and zero-demand pairs
    /// adding nothing, each target on the first entry past it, and the
    /// targets past the total on the last positive pair.
    fn dense_sampled(model: &dyn TrafficModel, samples: usize, seed: u64) -> FlowSet {
        let n = model.node_count();
        let mut cumulative = Vec::with_capacity(n * n);
        let (mut total, mut last_positive) = (0.0, 0);
        for (i, (dst, src)) in (0..n).flat_map(|d| (0..n).map(move |s| (d, s))).enumerate() {
            let demand = model.demand(NodeId(src as u32), NodeId(dst as u32));
            if src != dst && demand > 0.0 {
                total += demand;
                last_positive = i;
            }
            cumulative.push(total);
        }
        let mut hits = vec![0u32; n * n];
        for draw in 0..samples {
            let unit = (scenario_seed(seed, draw) >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            let hit = cumulative.partition_point(|&c| c <= unit * total);
            hits[hit.min(last_positive)] += 1;
        }
        let label = format!("{}/sampled({samples}, seed={seed})", model.label());
        let mut set = FlowSet::empty(label, samples);
        for dst in 0..n {
            set.open(NodeId(dst as u32));
            for src in 0..n {
                let count = hits[dst * n + src];
                if count > 0 {
                    set.push(NodeId(src as u32), f64::from(count) * (total / samples as f64));
                }
            }
            set.close(n);
        }
        set.snapped()
    }

    #[test]
    fn sampling_draws_what_a_dense_inverse_cdf_draws() {
        let g = generators::synth_from_spec("isp:40:7").unwrap();
        let models: [Box<dyn TrafficModel>; 3] = [
            Box::new(UniformTraffic::new(&g)),
            Box::new(crate::GravityTraffic::new(&g)),
            Box::new(crate::HotspotTraffic::new(&g, 4, 8.0, 2010)),
        ];
        for model in &models {
            for (samples, seed) in [(1, 3), (50, 2010), (3000, 7), (20_000, 11)] {
                let (set, reference) = (
                    FlowSet::sampled(model.as_ref(), samples, seed),
                    dense_sampled(model.as_ref(), samples, seed),
                );
                let bits = |set: &FlowSet| -> Vec<(NodeId, NodeId, u64)> {
                    flows(set).iter().map(|f| (f.dst, f.src, f.demand.to_bits())).collect()
                };
                let what = format!("{} at {samples} draws, seed {seed}", model.label());
                assert_eq!(bits(&set), bits(&reference), "{what}");
                assert_eq!(set.offered().to_bits(), reference.offered().to_bits(), "{what}");
                assert_eq!(set.label(), reference.label());
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn sampling_zero_flows_panics() {
        let g = generators::ring(4, 1);
        let _ = FlowSet::sampled(&UniformTraffic::new(&g), 0, 1);
    }
}
