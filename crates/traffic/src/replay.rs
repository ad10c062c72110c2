//! Flow replay: one [`FlowSet`] priced under one failed set.
//!
//! Three functions compute the same [`ScenarioTraffic`], bit for bit
//! (tests and the determinism suite assert it; flow demands live on a
//! power-of-two grid, so every sum is exact however it is grouped):
//!
//! * [`replay_scenario_bitparallel`] — **the dataplane.** `pr traffic`,
//!   `pr impair` (through [`replay_timeline`](crate::replay_timeline))
//!   and the daemon twin all run it. Per destination it classifies
//!   every source with word-parallel set algebra over the staged
//!   [`DenseFib`], credits the clear flows' link loads in one bottom-up
//!   pass over the destination tree, and walks only the
//!   affected-but-connected flows through the agent
//!   ([`recover_flow_with`]).
//! * [`replay_scenario_naive`] — **the oracle.** One [`walk_packet`] per
//!   flow with a fresh scratch and a from-scratch survivor tree per
//!   destination: nothing shared, nothing staged, nothing to get wrong.
//! * [`replay_scenario`] — PR 5's per-flow batched path over the flat
//!   [`Fib`], kept only as the denominator of the CI throughput-ratio
//!   gates until those become absolute floors (ROADMAP item 2).
//!
//! All per-scenario state lives in a reusable [`ReplayScratch`]; all
//! failure-invariant state (base trees, FIBs, the compiled agent) is
//! the caller's to hoist. **Nothing in a replay allocates in the steady
//! state** — recovery walks included: their darts are staged in the
//! scratch and their shared tails come out of the per-(failed set,
//! destination) suffix memo (`tests/alloc_free.rs` counts allocator
//! calls; DESIGN.md, "allocator discipline", has the reason this is a
//! rule and not a nicety).

use pr_core::{
    recover_flow_with, walk_flow_with, walk_packet, BitScratch, DenseFib, Fib, FlowScratch,
    FlowWalk, ForwardingAgent,
};
use pr_graph::{bits, AllPairs, Graph, LinkId, LinkSet, NodeId, SpScratch, SpTree};
use pr_sim::DemandTally;
use serde::{Deserialize, Serialize};

use crate::FlowSet;

/// Reusable per-worker state of a replay: the flow-walk scratch
/// (livelock detector, per-unit suffix memo, staged-path buffer), the
/// u64 classification frontiers and component labels of the
/// bit-parallel dataplane, the Dijkstra arena and survivor tree the
/// batched path repairs per destination, and the per-link load
/// accumulator. Everything is reset in place — the steady state
/// allocates nothing.
#[derive(Debug)]
pub struct ReplayScratch<S> {
    walk: FlowScratch<S>,
    sp: SpScratch,
    live: SpTree,
    bits: BitScratch,
    /// Survivor-graph component labels, one per node (per scenario).
    comp: Vec<u32>,
    /// Component membership bitsets, flattened `component × word`.
    comp_words: Vec<u64>,
    /// BFS worklist for the component labelling.
    queue: Vec<NodeId>,
    loads: Vec<f64>,
}

impl<S> ReplayScratch<S> {
    /// Fresh scratch state; buffers grow to the topology on first use.
    pub fn new() -> ReplayScratch<S> {
        ReplayScratch {
            walk: FlowScratch::new(),
            sp: SpScratch::new(),
            live: SpTree::placeholder(),
            bits: BitScratch::new(),
            comp: Vec::new(),
            comp_words: Vec::new(),
            queue: Vec::new(),
            loads: Vec::new(),
        }
    }

    /// Per-link demand accumulated by the most recent replay through
    /// this scratch (indexed by [`LinkId`]). Exposed so property tests
    /// can compare the full load vector across dataplanes, not just
    /// its peak.
    pub fn link_loads(&self) -> &[f64] {
        &self.loads
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

/// Replays `flows` under the static failure set `failed` using the
/// batched dataplane: per destination group, the survivor tree is
/// rebuilt by incremental repair from the hoisted `base` trees, then
/// every flow takes the FIB fast path or falls back to the full agent
/// walk. Delivered flows add their demand to each link they traverse.
///
/// `fib` must be compiled from the same `base` trees
/// ([`Fib::from_base`]) so the affected/unaffected classification
/// matches the canonical shortest paths.
#[allow(clippy::too_many_arguments)]
pub fn replay_scenario<A: ForwardingAgent>(
    graph: &Graph,
    agent: &A,
    fib: &Fib,
    base: &AllPairs,
    flows: &FlowSet,
    failed: &LinkSet,
    ttl: usize,
    scratch: &mut ReplayScratch<A::State>,
) -> ScenarioTraffic
where
    A::State: std::hash::Hash + Eq,
{
    let ReplayScratch { walk, sp, live, loads, .. } = scratch;
    loads.clear();
    loads.resize(graph.link_count(), 0.0);

    let mut tally = DemandTally::default();
    for (dst, group) in flows.by_destination() {
        let base_tree = base.towards(dst);
        live.repair_refresh(base_tree, graph, failed, sp);
        let mut unit = walk.unit(graph, agent, dst, failed);
        for flow in group {
            let outcome = walk_flow_with(&mut unit, fib, live, flow.src, ttl, |d| {
                loads[d.link().index()] += flow.demand
            });
            match outcome {
                FlowWalk::Clear { .. } => tally.record_clear(flow.demand),
                FlowWalk::Recovered { cost, .. } => {
                    let optimal = base_tree.cost(flow.src).expect("connected base graph");
                    tally.record_recovered(flow.demand, cost as f64 / optimal as f64);
                }
                FlowWalk::Disconnected => tally.record_disconnected(flow.demand),
                FlowWalk::Dropped(_) => tally.record_dropped(flow.demand),
            }
        }
    }

    let (max_link_load, peak_link) = peak_load(loads, tally.delivered);
    ScenarioTraffic { tally, max_link_load, peak_link }
}

/// Labels the survivor graph's connected components — failed links
/// removed — returning the component count. One O(n + m) pass per
/// scenario, **destination-independent**: the survivor shortest-path
/// tree towards any destination reaches exactly the destination's
/// component, so a label compare replaces per-destination SPT repair
/// for the reachability classification.
fn survivor_components(
    graph: &Graph,
    failed: &LinkSet,
    comp: &mut Vec<u32>,
    queue: &mut Vec<NodeId>,
) -> usize {
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
    next as usize
}

/// Replays `flows` under `failed` using the **bit-parallel
/// destination-major dataplane** — the fast path of this workspace.
///
/// Where [`replay_scenario`] still walks every flow (one FIB chase
/// per clear flow) and repairs a survivor tree per destination, this
/// dataplane touches no per-flow state for clear flows and no
/// shortest-path machinery at all:
///
/// 1. **Survivor components.** One O(n + m) labelling of the failed
///    graph per *scenario* ([`survivor_components`]); reachability
///    towards every destination is then a component-bitset lookup —
///    per-destination SPT repair is gone entirely.
/// 2. **Classification.** The destination's *affected set* — sources
///    whose base shortest path crosses a failed link — is computed in
///    one pass over the staged [`DenseFib`] frames
///    ([`DenseFib::affected_into`]), propagating affectedness from
///    parent to child through a u64 node bitset, 64 sources per word.
///    The destination's component bitset splits the affected sources
///    into *disconnected* (`affected ∧ ¬reach`) and *fallback*
///    (`affected ∧ reach`); clear sources are `present ∧ ¬affected`.
///    Clear and disconnected tallies are recorded per 64-source word
///    via the popcount batch constructors.
/// 3. **Subtree demand aggregation.** Clear flows all follow the base
///    tree, so their link loads are a bottom-up sum: seed
///    `subtree[src] = demand(src)` for clear sources, then walk the
///    canonical frame order *in reverse* (children before parents),
///    crediting each tree dart with its tail's completed subtree sum
///    and folding that sum into the parent. One add per *tree dart*
///    instead of one per *path link* — O(n) per destination instead
///    of O(Σ path lengths).
/// 4. **Fallback.** Affected-but-connected flows walk the full agent
///    via [`recover_flow_with`], in ascending source order, as one
///    [`FlowScratch::unit`] per destination: detours of one unit
///    converge, so a walk that meets a triple an earlier source
///    resolved splices the rest and reads its darts off the memo.
///
/// Produces the **bit-identical** [`ScenarioTraffic`] of
/// [`replay_scenario`] and [`replay_scenario_naive`]: flow demands
/// live on the power-of-two demand grid (see `FlowSet`), so every
/// per-scenario f64 sum here is exact and therefore independent of
/// how this dataplane regroups the additions.
///
/// `dense` must be compiled from `base` ([`DenseFib::from_base`]).
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
    let ReplayScratch { walk, bits: bit, comp, comp_words, queue, loads, .. } = scratch;
    loads.clear();
    loads.resize(graph.link_count(), 0.0);
    let n = graph.node_count();
    let words = bits::words_for(n);

    // Phase 1: survivor components, once per scenario.
    let ncomp = survivor_components(graph, failed, comp, queue);
    comp_words.clear();
    comp_words.resize(ncomp * words, 0);
    for u in 0..n {
        bits::set(&mut comp_words[comp[u] as usize * words..], u);
    }

    let mut tally = DemandTally::default();
    for (dst, group) in flows.by_destination() {
        let base_tree = base.towards(dst);
        bit.begin_group(n);
        for flow in group {
            bit.stage_demand(flow.src, flow.demand);
        }
        dense.affected_into(dst, failed, &mut bit.affected);
        let reach = &comp_words[comp[dst.index()] as usize * words..][..words];

        let any_affected = bit.present.iter().zip(&bit.affected).any(|(&p, &a)| p & a != 0);

        // Phase 2: word-parallel classification — tally clear and
        // disconnected demand 64 sources at a time, seed the subtree
        // sums for the clear sources. Fallback sources are walked
        // afterwards so the recovered stretch terms accumulate in
        // ascending source order, exactly as the per-flow dataplanes
        // do.
        let (mut clear_flows, mut clear_demand) = (0u64, 0.0);
        let (mut disc_flows, mut disc_demand) = (0u64, 0.0);
        for (w, &r) in reach.iter().enumerate() {
            let clear = bit.present[w] & !bit.affected[w];
            clear_flows += u64::from(clear.count_ones());
            bits::for_each_in_word(clear, w * 64, |i| {
                clear_demand += bit.demand[i];
                bit.subtree[i] = bit.demand[i];
            });
            if any_affected {
                let disc = (bit.present[w] & bit.affected[w]) & !r;
                disc_flows += u64::from(disc.count_ones());
                bits::for_each_in_word(disc, w * 64, |i| disc_demand += bit.demand[i]);
            }
        }
        if clear_flows > 0 {
            tally.record_clear_batch(clear_flows, clear_demand);
        }
        if disc_flows > 0 {
            tally.record_disconnected_batch(disc_flows, disc_demand);
        }

        // Phase 3: bottom-up subtree aggregation over the reversed
        // canonical frame order — children complete before their
        // parent is visited, so each tree dart is credited its whole
        // subtree's clear demand in a single add.
        if clear_flows > 0 {
            for f in dense.frames(dst).iter().rev() {
                let sum = bit.subtree[f.node as usize];
                if sum != 0.0 {
                    loads[f.link as usize] += sum;
                    bit.subtree[f.parent as usize] += sum;
                }
            }
        }

        // Phase 4: affected-but-connected flows through the full
        // agent.
        if any_affected {
            let mut unit = walk.unit(graph, agent, dst, failed);
            for (w, &r) in reach.iter().enumerate() {
                let fallback = (bit.present[w] & bit.affected[w]) & r;
                bits::for_each_in_word(fallback, w * 64, |i| {
                    let (src, demand) = (NodeId(i as u32), bit.demand[i]);
                    let outcome = recover_flow_with(&mut unit, src, ttl, |d| {
                        loads[d.link().index()] += demand;
                    });
                    match outcome {
                        FlowWalk::Recovered { cost, .. } => {
                            let optimal = base_tree.cost(src).expect("connected base graph");
                            tally.record_recovered(demand, cost as f64 / optimal as f64);
                        }
                        FlowWalk::Dropped(_) => tally.record_dropped(demand),
                        FlowWalk::Clear { .. } | FlowWalk::Disconnected => {
                            unreachable!("recover_flow_with only recovers or drops")
                        }
                    }
                });
            }
        }
    }

    let (max_link_load, peak_link) = peak_load(loads, tally.delivered);
    ScenarioTraffic { tally, max_link_load, peak_link }
}

/// The per-packet reference dataplane: one [`walk_packet`] per flow
/// with a fresh scratch and a from-scratch survivor tree per
/// destination — no FIB, no batching, no repair. Produces the
/// identical [`ScenarioTraffic`] for the shortest-path-confluent
/// schemes in this workspace; benchmarks measure [`replay_scenario`]
/// against it.
pub fn replay_scenario_naive<A: ForwardingAgent>(
    graph: &Graph,
    agent: &A,
    base: &AllPairs,
    flows: &FlowSet,
    failed: &LinkSet,
    ttl: usize,
) -> ScenarioTraffic
where
    A::State: std::hash::Hash + Eq,
{
    let mut loads = vec![0.0; graph.link_count()];
    let mut tally = DemandTally::default();
    for (dst, group) in flows.by_destination() {
        let base_tree = base.towards(dst);
        let live = SpTree::towards(graph, dst, failed);
        for flow in group {
            let affected = base_tree.path_crosses(graph, flow.src, failed);
            if affected && !live.reaches(flow.src) {
                tally.record_disconnected(flow.demand);
                continue;
            }
            let walk = walk_packet(graph, agent, flow.src, dst, failed, ttl);
            if !walk.result.is_delivered() {
                tally.record_dropped(flow.demand);
                continue;
            }
            for d in walk.path.darts() {
                loads[d.link().index()] += flow.demand;
            }
            if affected {
                let optimal = base_tree.cost(flow.src).expect("connected base graph");
                tally.record_recovered(flow.demand, walk.cost(graph) as f64 / optimal as f64);
            } else {
                tally.record_clear(flow.demand);
            }
        }
    }
    let (max_link_load, peak_link) = peak_load(&loads, tally.delivered);
    ScenarioTraffic { tally, max_link_load, peak_link }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlowSet, GravityTraffic, UniformTraffic};
    use pr_core::{generous_ttl, DiscriminatorKind, PrMode, PrNetwork};
    use pr_embedding::CellularEmbedding;
    use pr_topologies::{Isp, Weighting};

    fn abilene_setup() -> (Graph, PrNetwork, AllPairs, Fib) {
        let g = pr_topologies::load(Isp::Abilene, Weighting::Distance);
        let rot = pr_embedding::heuristics::thorough(&g, 2010, 4, 10_000);
        let emb = CellularEmbedding::new(&g, rot).unwrap();
        assert_eq!(emb.genus(), 0);
        let net =
            PrNetwork::compile(&g, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
        let base = AllPairs::compute_all_live(&g);
        let fib = Fib::from_base(&g, &base);
        (g, net, base, fib)
    }

    #[test]
    fn no_failure_replay_delivers_everything_on_shortest_paths() {
        let (g, net, base, fib) = abilene_setup();
        let agent = net.agent(&g);
        let flows = FlowSet::all_pairs(&UniformTraffic::new(&g));
        let none = LinkSet::empty(g.link_count());
        let mut scratch = ReplayScratch::new();
        let out =
            replay_scenario(&g, &agent, &fib, &base, &flows, &none, generous_ttl(&g), &mut scratch);
        assert_eq!(out.tally.flows as usize, flows.len());
        assert_eq!(out.tally.delivered, out.tally.offered);
        assert_eq!(out.tally.evaluated, 0.0, "nothing affected without failures");
        assert_eq!(out.tally.lost(), 0.0);
        assert!(out.max_link_load > 0.0);
        assert!(out.peak_link.is_some());
        assert!(out.max_link_utilisation() > 0.0 && out.max_link_utilisation() < 1.0);
    }

    #[test]
    fn batched_matches_naive_on_every_single_failure() {
        let (g, net, base, fib) = abilene_setup();
        let agent = net.agent(&g);
        let ttl = generous_ttl(&g);
        let flows = FlowSet::all_pairs(&GravityTraffic::new(&g));
        let mut scratch = ReplayScratch::new();
        for link in g.links() {
            let failed = LinkSet::from_links(g.link_count(), [link]);
            let batched =
                replay_scenario(&g, &agent, &fib, &base, &flows, &failed, ttl, &mut scratch);
            let naive = replay_scenario_naive(&g, &agent, &base, &flows, &failed, ttl);
            assert_eq!(batched, naive, "link {link}");
            assert!(batched.tally.evaluated > 0.0, "every link carries some shortest path");
            assert_eq!(batched.tally.lost(), 0.0, "PR-DD delivers on genus 0 (2EC, k=1)");
        }
    }

    #[test]
    fn disconnecting_failures_lose_exactly_the_cut_demand() {
        let (g, net, base, fib) = abilene_setup();
        let agent = net.agent(&g);
        // Fail every link at a node of degree 2: its traffic row and
        // column are lost, everything else must still deliver.
        let victim = g.nodes().find(|&v| g.degree(v) == 2).expect("Abilene has degree-2 PoPs");
        let mut failed = LinkSet::empty(g.link_count());
        for d in g.darts_from(victim) {
            failed.insert(d.link());
        }
        let flows = FlowSet::all_pairs(&UniformTraffic::new(&g));
        let mut scratch = ReplayScratch::new();
        let out = replay_scenario(
            &g,
            &agent,
            &fib,
            &base,
            &flows,
            &failed,
            generous_ttl(&g),
            &mut scratch,
        );
        let n = g.node_count() as f64;
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
    fn bitparallel_matches_batched_and_naive_on_every_single_failure() {
        let (g, net, base, fib) = abilene_setup();
        let dense = pr_core::DenseFib::from_base(&g, &base);
        let agent = net.agent(&g);
        let ttl = generous_ttl(&g);
        let flows = FlowSet::all_pairs(&GravityTraffic::new(&g));
        let mut scratch = ReplayScratch::new();
        let mut bp_scratch = ReplayScratch::new();
        for link in g.links() {
            let failed = LinkSet::from_links(g.link_count(), [link]);
            let batched =
                replay_scenario(&g, &agent, &fib, &base, &flows, &failed, ttl, &mut scratch);
            let bitparallel = replay_scenario_bitparallel(
                &g,
                &agent,
                &dense,
                &base,
                &flows,
                &failed,
                ttl,
                &mut bp_scratch,
            );
            assert_eq!(bitparallel, batched, "link {link}");
            // Not just the peak: the whole load vector is bit-equal.
            assert_eq!(bp_scratch.link_loads(), scratch.link_loads(), "link {link}");
            let naive = replay_scenario_naive(&g, &agent, &base, &flows, &failed, ttl);
            assert_eq!(bitparallel, naive, "link {link}");
        }
    }

    #[test]
    fn bitparallel_handles_disconnection_and_no_failure_scenarios() {
        let (g, net, base, fib) = abilene_setup();
        let dense = pr_core::DenseFib::from_base(&g, &base);
        let agent = net.agent(&g);
        let ttl = generous_ttl(&g);
        let flows = FlowSet::all_pairs(&UniformTraffic::new(&g));
        let mut scratch = ReplayScratch::new();

        // No failures: everything clear via subtree aggregation only.
        let none = LinkSet::empty(g.link_count());
        let out = replay_scenario_bitparallel(
            &g,
            &agent,
            &dense,
            &base,
            &flows,
            &none,
            ttl,
            &mut scratch,
        );
        assert_eq!(out.tally.flows as usize, flows.len());
        assert_eq!(out.tally.delivered, out.tally.offered);
        assert_eq!(out.tally.evaluated, 0.0);

        // Cut off a degree-2 PoP: its row and column disconnect.
        let victim = g.nodes().find(|&v| g.degree(v) == 2).expect("Abilene has degree-2 PoPs");
        let mut failed = LinkSet::empty(g.link_count());
        for d in g.darts_from(victim) {
            failed.insert(d.link());
        }
        let cut = replay_scenario_bitparallel(
            &g,
            &agent,
            &dense,
            &base,
            &flows,
            &failed,
            ttl,
            &mut scratch,
        );
        let n = g.node_count() as f64;
        assert_eq!(cut.tally.disconnected, 2.0 * (n - 1.0));
        assert_eq!(cut.tally.dropped, 0.0);
        let mut batched = ReplayScratch::new();
        let reference =
            replay_scenario(&g, &agent, &fib, &base, &flows, &failed, ttl, &mut batched);
        assert_eq!(cut, reference);
    }

    #[test]
    fn sampled_flows_replay_and_conserve_demand() {
        let (g, net, base, fib) = abilene_setup();
        let agent = net.agent(&g);
        let flows = FlowSet::sampled(&GravityTraffic::new(&g), 200, 7);
        let failed = LinkSet::from_links(g.link_count(), [g.links().next().unwrap()]);
        let mut scratch = ReplayScratch::new();
        let out = replay_scenario(
            &g,
            &agent,
            &fib,
            &base,
            &flows,
            &failed,
            generous_ttl(&g),
            &mut scratch,
        );
        assert_eq!(out.tally.flows as usize, flows.len());
        assert!((out.tally.offered - flows.offered()).abs() < 1e-9);
    }
}
