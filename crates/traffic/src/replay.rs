//! Flow replay: one [`FlowSet`] priced under one failed set.
//!
//! [`replay_scenario_bitparallel`] is **the dataplane.** `pr traffic`,
//! `pr impair` (through [`replay_timeline`](crate::replay_timeline))
//! and the daemon twin all run it. It is a *delta*: the failure-free
//! outcome of a `(DenseFib, FlowSet)` pair — every link's load, an
//! all-clear tally — is computed once and kept in the scratch; a
//! scenario starts from a copy and corrects only the **cones**, the
//! subtrees of each destination's tree that hang below a failed
//! edge. Inside a cone every source still follows the tree up to its
//! **point**, the first router that does anything else. Under **one**
//! failed link the point of every source of a cone is the router `p`
//! above the dead tree dart `p → far`, and an agent with a
//! single-failure closed form (Packet Re-cycling's, asked through
//! [`FlowScratch::detour`]) prices the whole cone by arithmetic off
//! the failed dart's **episode**, staged once per failed set on the
//! flow scratch for every destination: no point is climbed,
//! withdrawn point by point or walked. Everything
//! else — two or more failed links, an agent without a closed form,
//! an episode that prices nothing — finds each source's point
//! ([`FlowUnit::point_of`](pr_core::FlowUnit::point_of)) and settles
//! each point **once** ([`recover_flow_with`]), **priced, or
//! walked**: priced as a chain of the failed set's staged episodes
//! and tree segments where the agent has episodes and the chain
//! delivers within the budget, walked once through the walker's plain
//! hop loop otherwise — carrying the summed demand of the sources
//! behind it, withdrawn from the tree path it no longer takes. A
//! failure that disturbs 3 %
//! of the pairs costs about 3 % of a full pass, and at most one chain
//! or walk per failure point, not per source.
//!
//! It computes the same [`ScenarioTraffic`] as the test kit's oracle,
//! `pr_testkit::oracle::replay_scenario_naive` — one `walk_packet` per
//! flow with a fresh scratch and a from-scratch survivor tree per
//! destination: nothing shared, nothing staged — bit for bit
//! (`tests/replay.rs` and the determinism suite assert it, the whole
//! load vector, not only its peak).
//!
//! Why a result assembled by subtraction equals one summed from
//! nothing: flow demands live on a power-of-two grid and every
//! accumulator stays within `[0, 2T]` for total demand `T`, where the
//! grid is exactly representable — additions and subtractions are
//! exact, so `baseline − withdrawn + detoured` is the same number as
//! the oracle's plain sum, in any grouping and in any order (see
//! `FlowSet`'s demand grid). That is what lets a priced cone's demand
//! ride its episode to the far end in one running total per episode,
//! moved onto the episode once, after the scenario's last destination:
//! the same additions, regrouped. The one inexact field,
//! `stretch_weighted_sum`, gets its terms from recovered flows only —
//! `(tree cost to the point + the point's walk) / optimal`, integer
//! sums the oracle's walk adds up to as well, which a priced cone reads
//! as `(base(src) + detour) / base(src)` — tallied in the oracle's
//! (destination, source) order.
//!
//! All per-scenario state lives in a reusable [`ReplayScratch`]; all
//! failure-invariant state (base trees, the staged FIB, the compiled
//! agent) is the caller's to hoist. **Nothing in a replay allocates in
//! the steady state** — recovery walks included: their darts are staged
//! in the scratch, and a staged episode is sized to the topology once
//! and kept for the next replay's chains
//! (`tests/alloc_free.rs` counts allocator calls;
//! DESIGN.md, "allocator discipline", has the reason this is a rule and
//! not a nicety). Only building a baseline may allocate, and that
//! happens when a scratch first meets a `(DenseFib, FlowSet)` pair, not
//! per scenario.

use pr_core::{
    recover_flow_with, DenseFib, DropReason, FlowScratch, FlowWalk, ForwardingAgent, Recycled,
    Stamp, TreeEdge,
};
use pr_graph::{bits, AllPairs, Dart, Graph, LinkId, LinkSet, NodeId};
use serde::{Deserialize, Serialize};

use crate::flows::demand_from;
use crate::{DemandTally, FlowSet};

/// How much of the network a scratch's replays had to look at — the
/// work the cone delta does instead of visiting every (source,
/// destination) pair. Plain counters, merged like `MemoStats`; nothing
/// here ever feeds a result.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Replays run.
    pub replays: u64,
    /// Failure-free baselines built (one per `(DenseFib, FlowSet)`
    /// pair a scratch serves in a row; a full pass each).
    pub baselines: u64,
    /// Destinations visited, summed over replays: those with a flow
    /// group whose tree lost an edge, read off the FIB's link index.
    pub destinations: u64,
    /// Tree nodes inside the cones of those destinations — with an
    /// all-pairs flow set, exactly the affected (source, destination)
    /// pairs.
    pub cone_sources: u64,
    /// Of those destinations, the ones the agent's single-failure
    /// closed form answered: no point climbed, none walked.
    pub priced: u64,
    /// Points of the rest priced by an episode chain: a point of a cone
    /// that carries demand and can still reach the destination, whose
    /// walk the agent's episodes deliver within the budget.
    pub chained: u64,
    /// Walks through the hop loop: every other such point, plus one
    /// per source of a group on the TTL fallback.
    pub walks: u64,
}

impl ReplayStats {
    /// Adds another scratch's (or another period's) counts.
    pub fn merge(&mut self, other: &ReplayStats) {
        self.replays += other.replays;
        self.baselines += other.baselines;
        self.destinations += other.destinations;
        self.cone_sources += other.cone_sources;
        self.priced += other.priced;
        self.chained += other.chained;
        self.walks += other.walks;
    }
}

/// The failure-free outcome of one `(DenseFib, FlowSet)` pair: what
/// every scenario's replay starts from.
#[derive(Debug)]
struct Baseline {
    /// The pair this was computed for.
    key: (Stamp, Stamp),
    /// Per-link load with every flow on its shortest path.
    loads: Vec<f64>,
    /// Every flow recorded clear.
    tally: DemandTally,
    /// Longest failure-free path in hops: the least TTL under which
    /// the clear flows, which are never walked, all arrive.
    hop_diameter: usize,
}

/// What the one walk of a point settled for the sources behind it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    /// Delivered within the group budget: every source is its tree
    /// path to the point plus the point's walk, whose darts carry the
    /// group's demand.
    Shared,
    /// Cut off from the destination, or dropped: so is every source.
    Lost,
    /// The group budget ran out (the TTL fallback): every source is
    /// walked from where it starts.
    PerSource,
}

/// Reusable per-worker state of a replay: the failure-free baseline of
/// the `(DenseFib, FlowSet)` pair it last served, the flow-walk scratch
/// (livelock detector, staged-path buffer, and the failed set's staged
/// episodes, which a single failure's closed form and the points'
/// chains both price off), the per-scenario survivor components, the
/// node-indexed staging of the cone and point passes and the per-link
/// load accumulator. Everything is reset in place — the steady state
/// allocates nothing, and all of it is O(nodes + links).
///
/// The baseline is keyed by the **construction stamps** of the FIB and
/// the flow set, never by an address or a length: a flow set dropped
/// and rebuilt between two calls is a different flow set even if the
/// allocator hands it the same memory. A scratch that is handed
/// alternating pairs rebuilds on every switch (a full pass each time) —
/// callers with several resident flow sets keep one scratch per set.
#[derive(Debug)]
pub struct ReplayScratch<S> {
    walk: FlowScratch<S>,
    baseline: Option<Baseline>,
    /// Survivor-graph component labels, one per node (per scenario).
    comp: Vec<u32>,
    /// BFS worklist for the component labelling.
    queue: Vec<NodeId>,
    /// The cone roots of the scenario in hand, every destination's, in
    /// `(destination, frame)` order.
    roots: Vec<TreeEdge>,
    /// Cone sources of the destination in hand that carry demand.
    sources: Vec<u64>,
    /// Their demands; valid only where the `sources` bit is set.
    demand: Vec<f64>,
    /// Per-node subtree sums of the bottom-up passes; all zero between
    /// passes.
    subtree: Vec<f64>,
    /// The points of the destination in hand, as found.
    points: Vec<u32>,
    /// Per point, the summed demand of the sources behind it; all zero
    /// between destinations.
    group: Vec<f64>,
    /// Per point of the destination in hand, what its walk settled.
    fate: Vec<Fate>,
    loads: Vec<f64>,
    stats: ReplayStats,
}

impl<S> ReplayScratch<S> {
    /// Fresh scratch state; buffers grow to the topology on first use.
    pub fn new() -> ReplayScratch<S> {
        ReplayScratch {
            walk: FlowScratch::new(),
            baseline: None,
            comp: Vec::new(),
            queue: Vec::new(),
            roots: Vec::new(),
            sources: Vec::new(),
            demand: Vec::new(),
            subtree: Vec::new(),
            points: Vec::new(),
            group: Vec::new(),
            fate: Vec::new(),
            loads: Vec::new(),
            stats: ReplayStats::default(),
        }
    }

    /// Per-link demand accumulated by the most recent replay through
    /// this scratch (indexed by [`LinkId`]). Exposed so property tests
    /// can compare the full load vector with the oracle's, not just
    /// its peak.
    pub fn link_loads(&self) -> &[f64] {
        &self.loads
    }

    /// Work counters since the scratch was made or last asked.
    pub fn take_stats(&mut self) -> ReplayStats {
        std::mem::take(&mut self.stats)
    }
}

impl<S> Default for ReplayScratch<S> {
    fn default() -> Self {
        ReplayScratch::new()
    }
}

/// Demand-weighted outcome of replaying one flow set under one failure
/// scenario.
///
/// `PartialEq` compares every field exactly: the parallel traffic
/// sweep asserts bit-identity against its serial reference.
/// `Deserialize` lets the daemon control protocol round-trip a replay
/// outcome losslessly (the compat `serde_json` renders `f64` by
/// shortest round-trip, so the JSON hop is bit-exact too).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioTraffic {
    /// Per-flow outcomes, demand-weighted.
    pub tally: DemandTally,
    /// Largest demand carried by any single link (delivered flows
    /// only).
    pub max_link_load: f64,
    /// The link carrying [`ScenarioTraffic::max_link_load`] (first in
    /// link order on ties; `None` when nothing was delivered).
    pub peak_link: Option<LinkId>,
}

impl ScenarioTraffic {
    /// Peak link load as a fraction of the offered demand — the
    /// max-link-utilisation metric (capacity model: every link is
    /// provisioned for the full offered load, so 0.4 means 40% of all
    /// traffic crossed one link).
    pub fn max_link_utilisation(&self) -> f64 {
        if self.tally.offered == 0.0 {
            0.0
        } else {
            self.max_link_load / self.tally.offered
        }
    }
}

/// Scans a load vector for its peak entry (first link on ties). When
/// nothing was delivered the loads are identically zero, so the scan
/// is skipped outright.
fn peak_load(loads: &[f64], delivered: f64) -> (f64, Option<LinkId>) {
    if delivered == 0.0 {
        return (0.0, None);
    }
    let mut max = 0.0;
    let mut arg = None;
    for (i, &load) in loads.iter().enumerate() {
        if load > max {
            max = load;
            arg = Some(LinkId(i as u32));
        }
    }
    (max, arg)
}

/// Labels the survivor graph's connected components — failed links
/// removed. One O(n + m) pass per scenario that walks a destination,
/// **destination-independent**: the survivor shortest-path tree towards
/// any destination reaches exactly the destination's component, so a
/// label compare replaces per-destination SPT repair for the
/// reachability classification.
fn survivor_components(
    graph: &Graph,
    failed: &LinkSet,
    comp: &mut Vec<u32>,
    queue: &mut Vec<NodeId>,
) {
    comp.clear();
    comp.resize(graph.node_count(), u32::MAX);
    let mut next = 0u32;
    for start in graph.nodes() {
        if comp[start.index()] != u32::MAX {
            continue;
        }
        comp[start.index()] = next;
        queue.clear();
        queue.push(start);
        while let Some(u) = queue.pop() {
            for &d in graph.darts_from(u) {
                if failed.contains(d.link()) {
                    continue;
                }
                let v = graph.dart_head(d);
                if comp[v.index()] == u32::MAX {
                    comp[v.index()] = next;
                    queue.push(v);
                }
            }
        }
        next += 1;
    }
}

/// Computes the failure-free outcome of `flows` over `dense`: one
/// bottom-up pass per destination tree, crediting each tree dart its
/// subtree's demand — one add per *tree dart* instead of one per *path
/// link*. Reverse pre-order visits children before their parent, so a
/// node's sum is complete when the node is reached; `subtree` is all
/// zero on entry and on return.
fn build_baseline(
    dense: &DenseFib,
    base: &AllPairs,
    flows: &FlowSet,
    links: usize,
    subtree: &mut Vec<f64>,
) -> Baseline {
    let mut loads = vec![0.0; links];
    subtree.clear();
    subtree.resize(dense.node_count(), 0.0);
    for (dst, group) in flows.by_destination() {
        for flow in group {
            subtree[flow.src.index()] = flow.demand;
        }
        for &f in dense.frames(dst).iter().rev() {
            let sum = std::mem::take(&mut subtree[dense.node(f).index()]);
            if sum != 0.0 {
                loads[f.link().index()] += sum;
                subtree[dense.parent(f).index()] += sum;
            }
        }
        subtree[dst.index()] = 0.0; // where the tree delivered it all
    }
    let mut tally = DemandTally::default();
    tally.record_clear_batch(flows.len() as u64, flows.offered());
    Baseline {
        key: (dense.stamp(), flows.stamp()),
        loads,
        tally,
        hop_diameter: base.hop_diameter() as usize,
    }
}

/// Replays `flows` under `failed` as a **cone delta against the
/// failure-free baseline** — the one production dataplane of this
/// workspace (`benchmark/` compiles against the name).
///
/// The baseline — every link's load and an all-clear tally with no
/// link failed — is built on the first call a scratch sees a
/// `(dense, flows)` pair and reused until it sees another. A scenario
/// then costs O(Σ cone) under one failed link and an agent with a
/// closed form, O(Σ cone + Σ depth of points + chains and walks)
/// otherwise, never O(n²):
///
/// 1. **Start from the baseline** (one copy of the load vector).
/// 2. **Cones.** The FIB's link index lists, per failed link, the
///    destinations whose tree routes over it and the frame each cone
///    starts at; gathered, outermost only, in destination order
///    ([`DenseFib::roots_into`]), they are merged against the flow
///    set's groups. A destination without a root is never looked at:
///    none of its flows changed.
/// 3. **Priced.** Under one failed link `l`, a destination has one cone,
///    rooted at `p` with the dead tree dart `out = p → far`, and `p` is
///    the point of every source in it. If the agent has a closed form
///    ([`FlowScratch::detour`]), `out`'s episode — staged on first
///    need and kept on the flow scratch while the failed set is — is
///    asked for the destination. One
///    gather pass over the cone sets the sources, their demands and
///    their sum `T`. Delivered **inside** the episode at dart `i`: `T`
///    comes off the tree path from `p` and onto darts `0..=i`, and the
///    detour is `cost(i) − base(p)`. **At `far`**: `far`'s tree path is
///    the same before and after, so the change is `−T` on `l` and `+T`
///    on every episode dart — `T` joins the episode's running total,
///    moved once at the end of the scenario — and the detour is the
///    episode's cost `+ base(far) − base(p)`. Both prove the survivor
///    graph connected (`p` reaches the destination, or `l` has a way
///    round), so no source is cut off; each is moved to recovered at
///    `(base(src) + detour) / base(src)`, in ascending order. Priced
///    paths count no hops, so this step runs only when `ttl` covers the
///    longest, `2 · hop diameter + darts`.
/// 4. **Points.** Every other destination — two or more failed links,
///    no closed form, an episode that comes back to `p` or never leaves
///    it — is settled point by point. The **survivor components** are
///    labelled first, one O(n + m) pass per *scenario*, and only if
///    some destination gets here: whether a source can still reach a
///    destination is a label compare. One pass over the cones,
///    as one [`FlowScratch::unit`] per destination, finds each source's
///    point ([`FlowUnit::point_of`](pr_core::FlowUnit::point_of)) and
///    sums each point's demand. A source's load on its tree path *up
///    to* its point is what it was in the baseline and is not touched.
/// 5. **Withdraw and settle.** Each point's sum comes off the tree path
///    from the point to the destination, and a point the survivor
///    graph still connects is settled **once** ([`recover_flow_with`]),
///    priced or walked: priced as a chain of the failed set's staged
///    episodes and tree segments when the agent has episodes
///    ([`ForwardingAgent::next_episode`]) and the chain delivers within
///    the budget, walked hop by hop otherwise. Either way its darts
///    load the links they take with the whole sum. The budget is `ttl`
///    less the base hop diameter, so a path that fits it fits every
///    source behind the point.
/// 6. **Reclassify.** Cone sources with demand, in ascending source
///    order over all cones of the destination — the oracle's order,
///    which `stretch_weighted_sum` depends on: one in another survivor
///    component is moved from clear to disconnected; the rest are
///    moved to recovered, at `(tree cost to the point + the point's
///    cost) / optimal`, or to dropped, as their point was
///    ([`FlowUnit::walk`](pr_core::FlowUnit::walk)). Only a group
///    whose point ran out of budget walks per source — the TTL
///    fallback.
/// 7. **Dead prefixes.** The sources of a point that is cut off,
///    dropped or on the fallback do not load their tree path up to the
///    point either; when a destination has any, one bottom-up pass
///    over its cones takes those loads off.
///
/// Produces the **bit-identical** [`ScenarioTraffic`] of the oracle,
/// `pr_testkit::oracle::replay_scenario_naive`, and the same
/// [`ReplayScratch::link_loads`] as summing the oracle's paths: see the module docs for why
/// subtracting, and adding a priced cone's demand late, is as exact as
/// adding here; DESIGN.md §8 has the proofs that a priced path — a
/// single failure's cone or a point's chain — is the walk's.
///
/// `dense` must be compiled from `base` ([`DenseFib::from_base`]), on a
/// connected `graph`.
///
/// # Panics
///
/// Panics if `ttl` is below the hop diameter of `base`. Unaffected
/// flows are delivered without being walked, hence without counting
/// hops; under a smaller budget the oracle would drop the longest of
/// them and the two would silently disagree. Every caller in the
/// workspace passes [`generous_ttl`](pr_core::generous_ttl).
#[allow(clippy::too_many_arguments)]
pub fn replay_scenario_bitparallel<A: ForwardingAgent>(
    graph: &Graph,
    agent: &A,
    dense: &DenseFib,
    base: &AllPairs,
    flows: &FlowSet,
    failed: &LinkSet,
    ttl: usize,
    scratch: &mut ReplayScratch<A::State>,
) -> ScenarioTraffic
where
    A::State: std::hash::Hash + Eq,
{
    let ReplayScratch {
        walk,
        baseline,
        comp,
        queue,
        roots,
        sources,
        demand,
        subtree,
        points,
        group,
        fate,
        loads,
        stats,
    } = scratch;
    let key = (dense.stamp(), flows.stamp());
    if baseline.as_ref().is_none_or(|b| b.key != key) {
        *baseline = Some(build_baseline(dense, base, flows, graph.link_count(), subtree));
        stats.baselines += 1;
    }
    let baseline = baseline.as_ref().expect("built above");
    assert!(
        ttl >= baseline.hop_diameter,
        "replay needs a ttl of at least the base hop diameter ({}), got {ttl}: \
         unaffected flows are delivered without counting hops",
        baseline.hop_diameter
    );
    // What a point's walk may spend and still leave the longest tree
    // prefix of any source behind it within `ttl`.
    let group_ttl = ttl - baseline.hop_diameter;
    stats.replays += 1;

    loads.clone_from(&baseline.loads);
    let mut tally = baseline.tally;
    let n = graph.node_count();
    demand.resize(n, 0.0);
    group.resize(n, 0.0);
    fate.resize(n, Fate::Shared);
    // Every node can be a point: room for all of them, once.
    points.clear();
    points.reserve(n);
    // Under one failed link, the agent's closed form, and per direction
    // of the link the demand that rides its whole episode to the far
    // end. A priced path counts no hops, so it is asked only under a
    // budget the longest fits: a tree prefix and a tree suffix around
    // an episode, which follows one face.
    let closed_form = failed.len() == 1 && ttl >= 2 * baseline.hop_diameter + graph.dart_count();
    let mut to_far = [0.0; 2];
    let mut labelled = false;

    dense.roots_into(failed, roots);
    let mut groups = flows.by_destination().peekable();
    for cones in roots.chunk_by(|a, b| a.dest == b.dest) {
        let dst = NodeId(cones[0].dest);
        // The destination's flow group, if it has one: groups ascend as
        // roots do, and a later destination's stays where it is.
        while groups.next_if(|&(d, _)| d < dst).is_some() {}
        let Some((_, flows_to)) = groups.next_if(|&(d, _)| d == dst) else { continue };
        stats.destinations += 1;
        let frames = dense.frames(dst);
        let base_tree = base.towards(dst);
        bits::clear_and_resize(sources, n);

        // Priced: one cone below the dead tree dart `p → far`, whose
        // episode reaches the destination or ends at `far`.
        let root = frames[cones[0].at as usize];
        let out = Dart(root.dart);
        let priced = closed_form.then(|| walk.detour(graph, agent, base_tree, out, failed));
        if let Some((detour, recycled)) = priced.flatten() {
            stats.priced += 1;
            let cone = &frames[cones[0].at as usize..root.end as usize];
            stats.cone_sources += cone.len() as u64;
            // Every source's point is `p`: gather the group's demand.
            let mut total = 0.0;
            for &f in cone {
                let src = dense.node(f);
                if let Some(d) = demand_from(flows_to, src) {
                    bits::set(sources, src.index());
                    demand[src.index()] = d;
                    total += d;
                }
            }
            match recycled {
                // Off the tree path from `p`, onto the episode up to the
                // destination.
                Recycled::Inside { at, .. } => {
                    let mut at_node = dense.node(root);
                    while let Some(d) = base_tree.next_dart(at_node) {
                        loads[d.link().index()] -= total;
                        at_node = graph.dart_head(d);
                    }
                    for d in &walk.staged_darts(out)[..=at] {
                        loads[d.link().index()] += total;
                    }
                }
                // Off `p → far`, onto the whole episode; `far`'s path is
                // the same before and after. Every destination of the
                // episode is moved at once, after the last.
                Recycled::Through { .. } => to_far[usize::from(!out.is_forward())] += total,
            }
            bits::for_each_set(sources, |i| {
                let optimal = base_tree.cost(NodeId(i as u32)).expect("connected base graph");
                tally.clear_to_recovered(demand[i], (optimal + detour) as f64 / optimal as f64);
            });
            continue;
        }

        // Walked: an episode that prices nothing is proof of nothing,
        // so reachability is a label compare after all.
        if !labelled {
            survivor_components(graph, failed, comp, queue);
            labelled = true;
        }
        let cones = cones.iter().map(|r| (r.at as usize, frames[r.at as usize].end as usize));
        let here = comp[dst.index()];
        let mut unit = walk.unit(graph, agent, base_tree, failed);

        // The cone sources that carry demand, and each one's point.
        points.clear();
        for (start, end) in cones.clone() {
            stats.cone_sources += (end - start) as u64;
            for &f in &frames[start..end] {
                let src = dense.node(f);
                if let Some(d) = demand_from(flows_to, src) {
                    bits::set(sources, src.index());
                    demand[src.index()] = d;
                    let point = unit.point_of(src);
                    if group[point.index()] == 0.0 {
                        points.push(point.0);
                    }
                    group[point.index()] += d;
                }
            }
        }

        // Each point's demand leaves the tree path from the point on,
        // and takes the darts of the point's one walk instead.
        let (mut dead_prefixes, mut fallback) = (false, false);
        for &point in points.iter() {
            let point = NodeId(point);
            let total = std::mem::take(&mut group[point.index()]);
            let mut at = point;
            while let Some(d) = base_tree.next_dart(at) {
                loads[d.link().index()] -= total;
                at = graph.dart_head(d);
            }
            fate[point.index()] = if comp[point.index()] != here {
                Fate::Lost
            } else {
                let on_dart = |d: Dart| loads[d.link().index()] += total;
                match recover_flow_with(&mut unit, point, group_ttl, on_dart) {
                    FlowWalk::Recovered { .. } => Fate::Shared,
                    FlowWalk::Dropped(DropReason::TtlExpired) => Fate::PerSource,
                    FlowWalk::Dropped(_) => Fate::Lost,
                }
            };
            dead_prefixes |= fate[point.index()] != Fate::Shared;
            fallback |= fate[point.index()] == Fate::PerSource;
        }

        // Reclassify the cone sources in ascending order — the order
        // the oracle meets them in, which `stretch_weighted_sum` (the
        // one inexact accumulator) depends on.
        bits::for_each_set(sources, |i| {
            let (src, demand) = (NodeId(i as u32), demand[i]);
            if comp[i] != here {
                tally.clear_to_disconnected(demand);
                return;
            }
            let flow = if fallback && fate[unit.point_of(src).index()] == Fate::PerSource {
                recover_flow_with(&mut unit, src, ttl, |d| loads[d.link().index()] += demand)
            } else {
                // Answered from the point's walk, delivered or dropped.
                unit.walk(src, ttl)
            };
            match flow {
                FlowWalk::Recovered { cost, .. } => {
                    let optimal = base_tree.cost(src).expect("connected base graph");
                    tally.clear_to_recovered(demand, cost as f64 / optimal as f64);
                }
                FlowWalk::Dropped(_) => tally.clear_to_dropped(demand),
            }
        });

        // A group that did not share its point's walk does not take the
        // tree up to the point either: sum its demand bottom-up within
        // the group, children before parents, off each tree dart below
        // the point (the point's own path is withdrawn already).
        if dead_prefixes {
            for (start, end) in cones {
                for &f in frames[start..end].iter().rev() {
                    let node = dense.node(f);
                    let mut sum = std::mem::take(&mut subtree[node.index()]);
                    let is_source = bits::test(sources, node.index());
                    if !is_source && sum == 0.0 {
                        continue;
                    }
                    let point = unit.point_of(node);
                    if is_source && fate[point.index()] != Fate::Shared {
                        sum += demand[node.index()];
                    }
                    if sum != 0.0 && point != node {
                        loads[f.link().index()] -= sum;
                        subtree[dense.parent(f).index()] += sum;
                    }
                }
            }
        }
        let settled = unit.take_stats();
        (stats.chained, stats.walks) =
            (stats.chained + settled.chained, stats.walks + settled.walks);
    }

    // The demand that rode an episode to the far end, per direction.
    if let Some(link) = failed.iter().next().filter(|_| closed_form) {
        let sides = [link.forward(), link.reverse()].into_iter().zip(to_far);
        for (out, total) in sides.filter(|&(_, total)| total != 0.0) {
            loads[link.index()] -= total;
            for d in walk.staged_darts(out) {
                loads[d.link().index()] += total;
            }
        }
    }

    let (max_link_load, peak_link) = peak_load(loads, tally.delivered);
    ScenarioTraffic { tally, max_link_load, peak_link }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlowSet, UniformTraffic};
    use pr_core::{generous_ttl, DiscriminatorKind, ForwardDecision, PrHeader, PrMode, PrNetwork};
    use pr_embedding::CellularEmbedding;
    use pr_graph::{generators, Dart};
    use pr_topologies::{Isp, Weighting};

    struct Abilene {
        g: Graph,
        net: PrNetwork,
        base: AllPairs,
        dense: DenseFib,
        scratch: ReplayScratch<PrHeader>,
    }

    impl Abilene {
        fn new() -> Abilene {
            let g = pr_topologies::load(Isp::Abilene, Weighting::Distance);
            let rot = pr_embedding::heuristics::thorough(&g, 2010, 4, 10_000);
            let emb = CellularEmbedding::new(&g, rot).unwrap();
            assert_eq!(emb.genus(), 0);
            let net =
                PrNetwork::compile(&g, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
            let base = AllPairs::compute_all_live(&g);
            let dense = DenseFib::from_base(&g, &base);
            Abilene { g, net, base, dense, scratch: ReplayScratch::new() }
        }

        fn replay(&mut self, flows: &FlowSet, failed: &LinkSet) -> ScenarioTraffic {
            let Abilene { g, net, base, dense, scratch } = self;
            replay_scenario_bitparallel(
                g,
                &net.agent(g),
                dense,
                base,
                flows,
                failed,
                generous_ttl(g),
                scratch,
            )
        }

        /// Every link at a node of degree 2: its traffic row and
        /// column are cut off, everything else must still deliver.
        fn isolate_a_degree_two_pop(&self) -> LinkSet {
            let g = &self.g;
            let victim = g.nodes().find(|&v| g.degree(v) == 2).expect("Abilene has degree-2 PoPs");
            LinkSet::from_links(g.link_count(), g.darts_from(victim).iter().map(|d| d.link()))
        }
    }

    /// An agent that panics on every decision: whatever delivers under
    /// it was priced without a walk.
    struct Panicking;

    impl ForwardingAgent for Panicking {
        type State = ();
        fn label(&self) -> &'static str {
            "panicking"
        }
        fn decide(
            &self,
            _: NodeId,
            _: Option<Dart>,
            _: NodeId,
            _: &mut (),
            _: &LinkSet,
        ) -> ForwardDecision {
            panic!("agent consulted")
        }
        fn header_bits(&self, _: &()) -> usize {
            0
        }
    }

    #[test]
    fn clear_flows_never_consult_the_agent() {
        // The flows a failure does not touch are priced off the
        // baseline: on a ring with no link down, and on a path graph
        // where the only flows touched are cut off, a panicking agent
        // is never asked.
        for g in [generators::ring(6, 1), generators::path(5, 1)] {
            let base = AllPairs::compute_all_live(&g);
            let dense = DenseFib::from_base(&g, &base);
            let flows = FlowSet::all_pairs(&UniformTraffic::new(&g));
            let none = LinkSet::empty(g.link_count());
            let mut scratch = ReplayScratch::new();
            let out = replay_scenario_bitparallel(
                &g,
                &Panicking,
                &dense,
                &base,
                &flows,
                &none,
                g.node_count(),
                &mut scratch,
            );
            assert_eq!(out.tally.delivered, flows.offered());
            assert_eq!(scratch.take_stats().walks, 0);
        }
    }

    /// An agent that forwards on the failure-free tree and panics where
    /// the tree dart is down. A unit's climb asks only routers whose
    /// tree dart is live; a walk would begin at a point, where it is
    /// not.
    struct TreeOrPanic<'a>(&'a AllPairs);

    impl ForwardingAgent for TreeOrPanic<'_> {
        type State = ();
        fn label(&self) -> &'static str {
            "tree-or-panic"
        }
        fn decide(
            &self,
            at: NodeId,
            _: Option<Dart>,
            dest: NodeId,
            _: &mut (),
            failed: &LinkSet,
        ) -> ForwardDecision {
            let dart = self.0.towards(dest).next_dart(at).expect("connected base graph");
            assert!(!failed.contains_dart(dart), "a walk began at {at}");
            ForwardDecision::Forward(dart)
        }
        fn header_bits(&self, _: &()) -> usize {
            0
        }
    }

    #[test]
    fn disconnected_flows_are_classified_without_walking() {
        // Every link of a path graph is a bridge: the flows that
        // crossed the failed one are all cut off, and a cut-off flow is
        // told by its survivor component, not by a (futile) walk from
        // its point.
        let g = generators::path(5, 1);
        let base = AllPairs::compute_all_live(&g);
        let dense = DenseFib::from_base(&g, &base);
        let flows = FlowSet::all_pairs(&UniformTraffic::new(&g));
        let mut scratch = ReplayScratch::new();
        for (i, link) in g.links().enumerate() {
            let failed = LinkSet::from_links(g.link_count(), [link]);
            let out = replay_scenario_bitparallel(
                &g,
                &TreeOrPanic(&base),
                &dense,
                &base,
                &flows,
                &failed,
                g.node_count(),
                &mut scratch,
            );
            // i + 1 nodes on one side, the rest on the other; both
            // directions of every pair across are lost.
            let across = 2 * (i + 1) * (g.node_count() - i - 1);
            assert_eq!(out.tally.disconnected, across as f64, "{link}");
            assert_eq!(out.tally.delivered, flows.offered() - across as f64);
            assert_eq!(out.tally.evaluated, 0.0);
            assert_eq!(scratch.link_loads()[link.index()], 0.0, "nothing crosses a dead link");
        }
        let stats = scratch.take_stats();
        assert_eq!(stats.walks, 0);
        assert!(stats.cone_sources > 0);
    }

    #[test]
    fn disconnecting_failures_lose_exactly_the_cut_demand() {
        let mut a = Abilene::new();
        let failed = a.isolate_a_degree_two_pop();
        let flows = FlowSet::all_pairs(&UniformTraffic::new(&a.g));
        let out = a.replay(&flows, &failed);
        let n = a.g.node_count() as f64;
        assert_eq!(out.tally.disconnected, 2.0 * (n - 1.0), "victim's row + column");
        assert_eq!(out.tally.dropped, 0.0);
        assert_eq!(out.tally.delivered, out.tally.offered - out.tally.disconnected);
    }

    #[test]
    fn peak_load_prefers_the_first_link_on_ties_and_skips_empty_scans() {
        // Ties resolve to the first link in link order.
        assert_eq!(peak_load(&[0.0, 2.5, 1.0, 2.5], 6.0), (2.5, Some(LinkId(1))));
        // Nothing delivered: no scan, no peak link — even if the
        // (stale-free) loads buffer is non-empty.
        assert_eq!(peak_load(&[0.0, 0.0, 0.0], 0.0), (0.0, None));
        assert_eq!(peak_load(&[], 0.0), (0.0, None));
    }

    #[test]
    #[should_panic(expected = "base hop diameter")]
    fn a_ttl_below_the_hop_diameter_is_refused() {
        // Clear flows are never walked, so a budget the longest of them
        // does not fit in cannot be honoured — say so instead of
        // delivering what the oracle would drop.
        let mut a = Abilene::new();
        let flows = FlowSet::all_pairs(&UniformTraffic::new(&a.g));
        let Abilene { g, net, base, dense, scratch } = &mut a;
        let ttl = base.hop_diameter() as usize - 1;
        let none = LinkSet::empty(g.link_count());
        replay_scenario_bitparallel(g, &net.agent(g), dense, base, &flows, &none, ttl, scratch);
    }
}
