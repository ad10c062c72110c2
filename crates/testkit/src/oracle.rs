//! The oracle ladder: every plain reference a production path is held
//! equal to, and the one classification loop the sweep oracles share.
//!
//! | oracle | the production path it checks | held equal by |
//! |---|---|---|
//! | `pr_core::walk_packet` (one packet, hop by hop, fresh scratch) | `FlowUnit::walk`, `recover_flow_with`, `walk_packet_spliced`, every `pr_bench::lanes::Lane` | `bench/tests/kernel.rs`, `bench/tests/memo.rs`, `traffic/tests/properties.rs` |
//! | [`replay_scenario_naive`] (one `walk_packet` per flow, a scratch survivor tree per destination) | `replay_scenario_bitparallel` | `traffic/tests/properties.rs`, `traffic/tests/replay.rs`, `traffic/tests/alloc_free.rs` |
//! | `DenseFib::affected_into` (one pass over a whole tree) | `DenseFib::roots_into` and the cones replay walks off it | `traffic/tests/properties.rs` |
//! | [`shortest_path_tree`] (Bellman–Ford, then parents by the canonical key in `(dist, id)` order) | `SpTree::towards` (parents picked while Dijkstra relaxes) | `graph/tests/properties.rs` |
//! | `SpTree::towards` (Dijkstra from scratch) | `ConeOpener::open` (cone enumeration + label repair), `SpTree::repair_from` | `bench/tests/kernel.rs`, `topologies/tests/spt_repair.rs` |
//! | [`ReconvergenceAgent`] (converged survivor tables per scenario) | the reconvergence lane's survivor costs | [`stretch_serial`], `baselines/tests/scheme_comparison.rs` |
//! | [`stretch_serial`] | `pr_bench::stretch::{run_with_stats, run_rows}` | `bench/tests/determinism.rs` |
//! | [`coverage_serial`] | `pr_bench::coverage::run` | `bench/tests/determinism.rs` |
//! | [`traffic_serial`] ([`replay_scenario_naive`] per scenario) | `pr_bench::traffic::run` | `bench/tests/determinism.rs` |
//! | `pr_bench::ablation`'s `Oracle` (in-crate) | `pr_dd_sweep`, `genus_delivery` | `ablation::tests` |
//! | `pr_daemon::cold_recompile` (base + live trees + FIB from scratch) | `Twin`'s incremental event apply | `daemon/tests/equivalence.rs` |
//!
//! Every oracle that only tests call lives here, so no product crate's
//! normal dependency tree reaches one. Four rungs stay beside their
//! code because more than a test names them: the walker, the hop loop
//! production falls back on; `DenseFib::affected_into` and
//! `cold_recompile`, which the benchmark and the `daemon_events` gate
//! time; and the ablation's `Oracle`, which its in-crate unit tests
//! need and which this kit could not lend them.
//!
//! **Independence.** No oracle reads `PrNetwork::base()`: each computes
//! failure-free trees of its own (`AllPairs::compute_all_live`), so a
//! defect in the one copy every production path borrows cannot cancel
//! out of a comparison.

use pr_baselines::{FcpAgent, LfaAgent, NotViaAgent};
use pr_bench::coverage::{self, CoverageRow};
use pr_bench::stretch::StretchSamples;
use pr_bench::traffic::TrafficRow;
use pr_core::{
    generous_ttl, walk_packet, DiscriminatorKind, DropReason, ForwardDecision, ForwardingAgent,
    PrMode, PrNetwork,
};
use pr_embedding::CellularEmbedding;
use pr_graph::{AllPairs, Dart, Graph, LinkId, LinkSet, NodeId, SpTree};
use pr_scenarios::{ScenarioFamily, ScenarioIter};
use pr_traffic::{DemandTally, FlowSet, ScenarioTraffic};

/// The destination-rooted shortest-path tree towards `dest` over the
/// links not in `failed`, as plainly as it can be spelled: one entry
/// per node, `None` where the node cannot reach `dest`, else its
/// `(cost, hops, next dart)` — no dart for `dest` itself.
///
/// Bellman–Ford relaxes every live link `n − 1` times for the
/// distances. Parents are then chosen in ascending `(dist, id)` order,
/// each node taking the smallest `(hops(parent) + 1, parent id, dart
/// id)` over its live darts on a shortest path: weights are ≥ 1, so
/// every such parent was labelled before it. No heap, no arena, and
/// nothing shared with `SpTree::towards`, which picks the same parents
/// while its Dijkstra relaxes.
pub fn shortest_path_tree(
    graph: &Graph,
    dest: NodeId,
    failed: &LinkSet,
) -> Vec<Option<(u64, u32, Option<Dart>)>> {
    let n = graph.node_count();
    let mut dist: Vec<Option<u64>> = vec![None; n];
    dist[dest.index()] = Some(0);
    for _ in 1..n {
        for link in graph.links().filter(|&l| !failed.contains(l)) {
            let (a, b) = graph.endpoints(link);
            let w = u64::from(graph.weight(link));
            for (from, to) in [(a, b), (b, a)] {
                if let Some(d) = dist[to.index()] {
                    if dist[from.index()].is_none_or(|old| d + w < old) {
                        dist[from.index()] = Some(d + w);
                    }
                }
            }
        }
    }
    let mut order: Vec<NodeId> = graph.nodes().filter(|u| dist[u.index()].is_some()).collect();
    order.sort_by_key(|u| (dist[u.index()], u.0));
    let mut tree: Vec<Option<(u64, u32, Option<Dart>)>> = vec![None; n];
    tree[dest.index()] = Some((0, 0, None));
    for u in order.into_iter().filter(|&u| u != dest) {
        let du = dist[u.index()].expect("reachable");
        let mut best: Option<(u32, u32, u32)> = None;
        for &dart in graph.darts_from(u) {
            if failed.contains_dart(dart) {
                continue;
            }
            let v = graph.dart_head(dart);
            let Some((dv, hv, _)) = tree[v.index()] else { continue };
            let key = (hv + 1, v.0, dart.0);
            if dv + u64::from(graph.weight(dart.link())) == du && best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
        let (hops, _, dart) = best.expect("a reachable node has a parent on a shortest path");
        tree[u.index()] = Some((du, hops, Some(Dart(dart))));
    }
    tree
}

/// The classification every sweep conditions on, as the plainest loop:
/// for each scenario of `family`, destination and other node `src`
/// whose canonical failure-free path crosses a failed link, calls
/// `visit(failed, dst, src, base_tree, live_tree)` — scenarios in
/// family order, destinations then sources ascending. `live_tree` is a
/// from-scratch Dijkstra over the survivor graph; whether it still
/// reaches `src` (the paper's "| path" conditioning) is the visitor's
/// to ask.
pub fn affected_pairs(
    graph: &Graph,
    family: &dyn ScenarioFamily,
    mut visit: impl FnMut(&LinkSet, NodeId, NodeId, &SpTree, &SpTree),
) {
    let base = AllPairs::compute_all_live(graph);
    for failed in ScenarioIter::new(family) {
        for dst in graph.nodes() {
            let base_tree = base.towards(dst);
            let live_tree = SpTree::towards(graph, dst, &failed);
            for src in graph.nodes().filter(|&src| src != dst) {
                let path = base_tree.path_darts(graph, src).expect("connected base graph");
                if path.iter().any(|d| failed.contains_dart(*d)) {
                    visit(&failed, dst, src, base_tree, &live_tree);
                }
            }
        }
    }
}

/// The stretch sweep's serial reference: plain `walk_packet` under the
/// honest recompute-per-decision FCP agent and `pr`'s agent, nothing of
/// the unit kernel. `stretch::run` is bit-identical to it at every
/// thread count.
pub fn stretch_serial(
    graph: &Graph,
    pr: &PrNetwork,
    family: &dyn ScenarioFamily,
) -> StretchSamples {
    let fcp = FcpAgent::new(graph);
    let pr_agent = pr.agent(graph);
    let ttl = generous_ttl(graph);
    let mut out = StretchSamples::default();
    // Debug builds cross-check the survivor costs against the
    // reconvergence agent's own tables, converged once per scenario.
    let mut reconverged: Option<(LinkSet, ReconvergenceAgent)> = None;
    affected_pairs(graph, family, |failed, dst, src, base_tree, live_tree| {
        // Reconvergence: the survivor shortest path, by definition.
        let Some(reconv_cost) = live_tree.cost(src) else {
            out.disconnected_pairs += 1;
            return;
        };
        out.evaluated_pairs += 1;
        let optimal = base_tree.cost(src).expect("connected") as f64;
        out.reconvergence.push(reconv_cost as f64 / optimal);
        if cfg!(debug_assertions) {
            if reconverged.as_ref().is_none_or(|(of, _)| of != failed) {
                let agent = ReconvergenceAgent::converged_on(graph, failed);
                reconverged = Some((failed.clone(), agent));
            }
            let (_, agent) = reconverged.as_ref().expect("just converged");
            assert_eq!(agent.converged_cost(src, dst), Some(reconv_cost));
        }

        // FCP: incremental failure discovery. PR: cycle following.
        let walk = walk_packet(graph, &fcp, src, dst, failed, ttl);
        match walk.result.is_delivered() {
            true => out.fcp.push(walk.cost(graph) as f64 / optimal),
            false => out.undelivered_fcp += 1,
        }
        let walk = walk_packet(graph, &pr_agent, src, dst, failed, ttl);
        match walk.result.is_delivered() {
            true => out.packet_recycling.push(walk.cost(graph) as f64 / optimal),
            false => out.undelivered_pr += 1,
        }
        out.undelivered = out.undelivered_fcp + out.undelivered_pr;
    });
    out
}

/// The coverage sweep's serial reference over the families
/// `coverage::run` sweeps: all five schemes by plain `walk_packet`, on
/// every affected pair the survivor graph still connects.
/// `coverage::run` is bit-identical to it at every thread count.
pub fn coverage_serial(
    graph: &Graph,
    embedding: &CellularEmbedding,
    max_failures: usize,
    samples_per_count: usize,
    seed: u64,
) -> Vec<CoverageRow> {
    let compile =
        |mode| PrNetwork::compile(graph, embedding.clone(), mode, DiscriminatorKind::Hops);
    let (basic_net, dd_net) = (compile(PrMode::Basic), compile(PrMode::DistanceDiscriminator));
    let (basic, dd) = (basic_net.agent(graph), dd_net.agent(graph));
    let (fcp, lfa, notvia) =
        (FcpAgent::new(graph), LfaAgent::compute(graph), NotViaAgent::compute(graph));
    let ttl = generous_ttl(graph);
    (1..=max_failures)
        .map(|k| {
            let family = coverage::scenarios_for(graph, k, samples_per_count, seed);
            let mut row = CoverageRow { failures: k, ..CoverageRow::default() };
            affected_pairs(graph, family.as_ref(), |failed, dst, src, _, live_tree| {
                if !live_tree.reaches(src) {
                    return; // "| path" conditioning
                }
                let delivered = [
                    walk_packet(graph, &basic, src, dst, failed, ttl).result.is_delivered(),
                    walk_packet(graph, &dd, src, dst, failed, ttl).result.is_delivered(),
                    walk_packet(graph, &fcp, src, dst, failed, ttl).result.is_delivered(),
                    walk_packet(graph, &lfa, src, dst, failed, ttl).result.is_delivered(),
                    walk_packet(graph, &notvia, src, dst, failed, ttl).result.is_delivered(),
                ];
                let cells = [
                    &mut row.pr_basic,
                    &mut row.pr_dd,
                    &mut row.fcp,
                    &mut row.lfa,
                    &mut row.notvia,
                ];
                for (cell, delivered) in cells.into_iter().zip(delivered) {
                    cell.evaluated += 1;
                    cell.delivered += u64::from(delivered);
                }
            });
            row
        })
        .collect()
}

/// Forwarding agent for the *converged* post-failure network: full
/// routing reconvergence, the paper's second baseline, as the oracle of
/// the reconvergence lane. Once a link-state IGP has flooded the change
/// and every router has recomputed, packets follow the survivor
/// topology's shortest paths — the post-hoc optimum no scheme beats on
/// path length. Its cost is paid in time and loss during convergence
/// (`pr-sim`'s `ReconvergingIgp`), not in stretch.
///
/// Construct it **per failure scenario**
/// ([`ReconvergenceAgent::converged_on`]): the converged tables are a
/// function of the failed set. Decisions are O(1) lookups.
#[derive(Debug, Clone)]
pub struct ReconvergenceAgent {
    tables: AllPairs,
    failures: LinkSet,
}

impl ReconvergenceAgent {
    /// Computes the converged routing state of `graph` under `failed`.
    pub fn converged_on(graph: &Graph, failed: &LinkSet) -> ReconvergenceAgent {
        ReconvergenceAgent { tables: AllPairs::compute(graph, failed), failures: failed.clone() }
    }

    /// The survivor-topology cost from `src` to `dest`, if connected.
    pub fn converged_cost(&self, src: NodeId, dest: NodeId) -> Option<u64> {
        self.tables.cost(src, dest)
    }
}

impl ForwardingAgent for ReconvergenceAgent {
    type State = ();

    fn label(&self) -> &'static str {
        "reconvergence"
    }

    fn decide(
        &self,
        at: NodeId,
        _ingress: Option<Dart>,
        dest: NodeId,
        _state: &mut (),
        failed: &LinkSet,
    ) -> ForwardDecision {
        debug_assert_eq!(
            failed, &self.failures,
            "reconvergence agent used with a different failure set than it converged on"
        );
        match self.tables.towards(dest).next_dart(at) {
            Some(out) => ForwardDecision::Forward(out),
            None => ForwardDecision::Drop(DropReason::Unreachable),
        }
    }

    fn header_bits(&self, _state: &()) -> usize {
        0 // reconvergence costs time and flooding, not header space
    }
}

/// The per-packet reference dataplane: one `walk_packet` per flow with
/// a fresh scratch and a from-scratch survivor tree per destination —
/// no FIB, no baseline, no repair. Produces the identical
/// `ScenarioTraffic` for the shortest-path-confluent schemes of the
/// workspace; everything `replay_scenario_bitparallel` does is held
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
    // The peak: the first heaviest link, none when nothing arrived.
    let (mut max_link_load, mut peak_link) = (0.0, None);
    if tally.delivered != 0.0 {
        for (i, &load) in loads.iter().enumerate() {
            if load > max_link_load {
                (max_link_load, peak_link) = (load, Some(LinkId(i as u32)));
            }
        }
    }
    ScenarioTraffic { tally, max_link_load, peak_link }
}

/// The traffic sweep's serial reference: [`replay_scenario_naive`] per
/// scenario, on base trees of its own. `pr_bench::traffic::run` is
/// bit-identical to it at every thread count, which also checks the
/// network's trees.
pub fn traffic_serial(
    graph: &Graph,
    pr: &PrNetwork,
    family: &dyn ScenarioFamily,
    flows: &FlowSet,
) -> Vec<TrafficRow> {
    let base = AllPairs::compute_all_live(graph);
    let agent = pr.agent(graph);
    let ttl = generous_ttl(graph);
    ScenarioIter::new(family)
        .enumerate()
        .map(|(scenario, failed)| {
            let traffic = replay_scenario_naive(graph, &agent, &base, flows, &failed, ttl);
            TrafficRow { scenario, failures: failed.len(), traffic }
        })
        .collect()
}
