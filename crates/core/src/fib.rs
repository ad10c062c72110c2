//! Flat forwarding-information base (FIB) and the batched flow walker.
//!
//! Sweeps walk *single packets*; traffic replay walks *batches of
//! flows*. The per-packet costs that are negligible for one walk —
//! resetting the livelock detector, initialising header state,
//! hashing `(router, ingress, state)` at every hop — dominate when a
//! scenario replays thousands of flows, most of which never meet a
//! failed link at all. This module removes them from the common case:
//!
//! * [`Fib`] — every agent's failure-free routing table, compiled into
//!   one flat destination-major array of next darts. One cache-friendly
//!   lookup per hop, no per-hop branching on scheme internals.
//! * [`Fib::scan`] — classifies a flow against a failure set by
//!   following the FIB: either the shortest path is *clear* (cost and
//!   hop count fall out of the scan) or it is *blocked* at the first
//!   failed link.
//! * [`walk_flow_with`] — the batch entry point: flows whose FIB path
//!   is clear are delivered without ever consulting the agent; only
//!   blocked flows fall back to the agent (and only after the survivor
//!   tree confirms the pair is still connected).
//! * [`recover_flow_with`] — that fallback on its own: the walker's one
//!   hop loop with the unit's [`SuffixMemo`], so a recovery walk that
//!   meets a triple an earlier source of the same (failed set,
//!   destination) unit already resolved splices the rest. Both walk
//!   through a [`FlowUnit`], the guard that opens the unit on the
//!   worker's [`FlowScratch`]; nothing here allocates per flow.
//!
//! The fast path is sound for every scheme in this workspace because
//! all of them are **shortest-path confluent**: in the absence of
//! failures on the canonical shortest path, their decisions follow the
//! failure-free routing table exactly (PR forwards along the routing
//! table while the PR bit is unset; FCP routes on its carried-failure
//! graph, initially empty; LFA's primary next hop *is* the shortest
//! path; reconvergence's survivor path equals the base path when the
//! base path survives). The determinism suite asserts the equivalence
//! end to end against per-flow `walk_packet` references.

use pr_graph::{AllPairs, Dart, Graph, LinkSet, NodeId, SpTree};

use crate::walker::walk_hops;
use crate::{DropReason, ForwardingAgent, RoutingTables, SuffixMemo, WalkResult, WalkScratch};

/// A flat, destination-major forwarding table: `next[dest * n + node]`
/// is the dart `node` uses towards `dest` on the failure-free
/// topology (`None` exactly when `node == dest`).
///
/// Compiled once per topology and shared read-only by every replay
/// worker; the batched walker's fast path is a chain of these lookups.
#[derive(Debug, Clone)]
pub struct Fib {
    next: Vec<Option<Dart>>,
    nodes: usize,
}

/// Outcome of scanning one flow's FIB path against a failure set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FibScan {
    /// The shortest path meets no failed link; the flow is unaffected.
    Clear {
        /// Weighted cost of the (failure-free shortest) path.
        cost: u64,
        /// Hop count of the path.
        hops: u32,
    },
    /// The shortest path crosses at least one failed link.
    Blocked,
}

impl Fib {
    /// Compiles the FIB from routing tables (the production source: the
    /// same structure routers hold).
    pub fn compile(graph: &Graph, routing: &RoutingTables) -> Fib {
        let n = graph.node_count();
        let mut next = vec![None; n * n];
        for dest in graph.nodes() {
            for node in graph.nodes() {
                next[dest.index() * n + node.index()] = routing.next_dart(node, dest);
            }
        }
        Fib { next, nodes: n }
    }

    /// Compiles the FIB directly from hoisted failure-free shortest
    /// path trees — bit-identical to [`Fib::compile`] over
    /// [`RoutingTables::compile`] of the same trees, without building
    /// the intermediate tables.
    pub fn from_base(graph: &Graph, base: &AllPairs) -> Fib {
        let n = graph.node_count();
        let mut next = vec![None; n * n];
        for dest in graph.nodes() {
            let tree = base.towards(dest);
            for node in graph.nodes() {
                next[dest.index() * n + node.index()] = tree.next_dart(node);
            }
        }
        Fib { next, nodes: n }
    }

    /// Next dart from `node` towards `dest` (`None` when
    /// `node == dest`).
    #[inline]
    pub fn next_dart(&self, node: NodeId, dest: NodeId) -> Option<Dart> {
        self.next[dest.index() * self.nodes + node.index()]
    }

    /// Number of nodes (= destinations) the FIB covers.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// The one next-dart chase loop: follows the FIB from `src`,
    /// invoking `on_dart` for each dart taken, until the destination
    /// ([`FibScan::Clear`]) or the first failed link
    /// ([`FibScan::Blocked`] — darts already emitted for the blocked
    /// prefix are the caller's to discard). [`Fib::scan`] and the
    /// batch walker's fast path are both this loop.
    #[inline]
    fn chase(
        &self,
        graph: &Graph,
        src: NodeId,
        dest: NodeId,
        failed: &LinkSet,
        mut on_dart: impl FnMut(Dart),
    ) -> FibScan {
        let mut at = src;
        let mut cost = 0u64;
        let mut hops = 0u32;
        while at != dest {
            let d = self.next_dart(at, dest).expect("FIB is total on connected base graphs");
            if failed.contains_dart(d) {
                return FibScan::Blocked;
            }
            on_dart(d);
            cost += u64::from(graph.weight(d.link()));
            hops += 1;
            at = graph.dart_head(d);
        }
        FibScan::Clear { cost, hops }
    }

    /// Follows the FIB from `src` towards `dest`, classifying the flow:
    /// [`FibScan::Clear`] with the path's cost and hop count, or
    /// [`FibScan::Blocked`] at the first failed link.
    ///
    /// FIB paths are branches of a shortest-path tree, so the scan
    /// terminates in at most `n - 1` lookups and needs no loop
    /// detection.
    ///
    /// # Panics
    ///
    /// Panics if the FIB has no route (disconnected base graph — the
    /// same precondition [`RoutingTables::compile`] enforces).
    #[inline]
    pub fn scan(&self, graph: &Graph, src: NodeId, dest: NodeId, failed: &LinkSet) -> FibScan {
        self.chase(graph, src, dest, failed, |_| {})
    }
}

/// One staged hop of a destination tree: a node, its tree parent, and
/// the dart/link between them — everything the bit-parallel
/// classification and aggregation passes touch, packed into 16 bytes
/// so a whole destination's tree streams through cache linearly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FibFrame {
    /// The router this frame labels.
    pub node: u32,
    /// Head of the router's next dart (its tree parent).
    pub parent: u32,
    /// The next dart itself (`node → parent`).
    pub dart: u32,
    /// The dart's undirected link (pre-resolved `dart >> 1`, kept so
    /// the hot loops never touch dart arithmetic).
    pub link: u32,
}

/// Dense per-destination FIB staging for the bit-parallel dataplane.
///
/// Where [`Fib`] answers *"what is `node`'s next dart towards
/// `dest`?"* one lookup at a time, `DenseFib` stages each
/// destination's whole tree as a flat run of [`FibFrame`]s in
/// **canonical tree order** (increasing `(dist, node id)` — the
/// Dijkstra finalisation order, so every parent appears before its
/// children; see [`SpTree::canonical_order_into`]). One forward pass
/// over the run classifies every source against a failure set
/// ([`DenseFib::affected_into`]); one backward pass sums per-subtree
/// demand and credits each tree dart its subtree's load — the O(n)
/// destination-major passes that replace per-flow next-dart chases.
///
/// Compiled once per topology from the hoisted base trees and shared
/// read-only by every replay worker, exactly like [`Fib`].
#[derive(Debug, Clone)]
pub struct DenseFib {
    /// All destinations' frames, destination-major; within one
    /// destination the frames are in canonical tree order and cover
    /// exactly the reachable non-destination nodes.
    frames: Vec<FibFrame>,
    /// `frames[offsets[d] .. offsets[d + 1]]` stages destination `d`.
    offsets: Vec<u32>,
    nodes: usize,
}

impl DenseFib {
    /// Stages every destination tree of `base`. Pair with the
    /// [`Fib::from_base`] of the same trees: the frames are the same
    /// next darts, reordered for the destination-major passes.
    pub fn from_base(graph: &Graph, base: &AllPairs) -> DenseFib {
        let n = graph.node_count();
        let mut frames = Vec::with_capacity(n.saturating_sub(1) * n);
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        let mut order = Vec::new();
        for dest in graph.nodes() {
            let tree = base.towards(dest);
            tree.canonical_order_into(&mut order);
            for &u in &order {
                let Some(d) = tree.next_dart(u) else { continue }; // the destination itself
                frames.push(FibFrame {
                    node: u.0,
                    parent: graph.dart_head(d).0,
                    dart: d.0,
                    link: d.link().0,
                });
            }
            offsets.push(frames.len() as u32);
        }
        DenseFib { frames, offsets, nodes: n }
    }

    /// Number of nodes (= destinations) staged.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// The staged frames of `dest`'s tree, in canonical tree order
    /// (parents before children, destination excluded).
    #[inline]
    pub fn frames(&self, dest: NodeId) -> &[FibFrame] {
        let (s, e) = (self.offsets[dest.index()] as usize, self.offsets[dest.index() + 1] as usize);
        &self.frames[s..e]
    }

    /// Computes the **affected set** of `dest` under `failed` into the
    /// node bitset `affected` (cleared and resized to one bit per
    /// node): bit `u` is set iff `u`'s base-tree path towards `dest`
    /// crosses a failed link — exactly
    /// [`SpTree::path_crosses`](pr_graph::SpTree::path_crosses) for
    /// every source at once, in one pass instead of one chain walk per
    /// source. Each frame ORs its parent's bit with its own dart's
    /// failure bit; canonical order guarantees the parent's bit is
    /// final by the time a child reads it.
    pub fn affected_into(&self, dest: NodeId, failed: &LinkSet, affected: &mut Vec<u64>) {
        pr_graph::bits::clear_and_resize(affected, self.nodes);
        for f in self.frames(dest) {
            if failed.contains(pr_graph::LinkId(f.link))
                || pr_graph::bits::test(affected, f.parent as usize)
            {
                pr_graph::bits::set(affected, f.node as usize);
            }
        }
    }
}

/// Reusable node-indexed buffers of the bit-parallel replay pipeline:
/// two u64 word bitsets (64 sources per word — the
/// [`pr_graph::bits`] helpers drive them) and two dense f64 staging
/// arrays. Embedded in `pr-traffic`'s `ReplayScratch`; everything is
/// cleared/resized in place, so the steady state allocates nothing
/// per destination.
#[derive(Debug, Default, Clone)]
pub struct BitScratch {
    /// Sources whose base path crosses a failed link
    /// ([`DenseFib::affected_into`]).
    pub affected: Vec<u64>,
    /// Sources that carry demand in the current destination group.
    pub present: Vec<u64>,
    /// Per-source demand of the current destination group; valid only
    /// where the `present` bit is set.
    pub demand: Vec<f64>,
    /// Per-node clear-demand subtree sums of the aggregation pass.
    pub subtree: Vec<f64>,
}

impl BitScratch {
    /// Fresh scratch; buffers grow to the topology on first use.
    pub fn new() -> BitScratch {
        BitScratch::default()
    }

    /// Prepares the per-destination-group buffers for `n` nodes: the
    /// `present` set is cleared, the demand array resized (stale
    /// entries are fine — reads are gated on `present`), the subtree
    /// sums zeroed.
    pub fn begin_group(&mut self, n: usize) {
        pr_graph::bits::clear_and_resize(&mut self.present, n);
        if self.demand.len() < n {
            self.demand.resize(n, 0.0);
        }
        self.subtree.clear();
        self.subtree.resize(n, 0.0);
    }

    /// Registers one source's demand for the current group.
    #[inline]
    pub fn stage_demand(&mut self, src: NodeId, demand: f64) {
        pr_graph::bits::set(&mut self.present, src.index());
        self.demand[src.index()] = demand;
    }
}

/// Outcome of one flow under the batched walker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowWalk {
    /// Delivered along the failure-free shortest path (FIB fast path;
    /// the agent was never consulted).
    Clear {
        /// Weighted cost of the delivered path.
        cost: u64,
        /// Hop count of the delivered path.
        hops: u32,
    },
    /// The FIB path was blocked and the agent delivered over a detour.
    Recovered {
        /// Weighted cost of the delivered path.
        cost: u64,
        /// Hop count of the delivered path.
        hops: u32,
    },
    /// The FIB path was blocked and the survivor tree shows the pair
    /// disconnected: no scheme can deliver (the agent is not walked).
    Disconnected,
    /// The FIB path was blocked, the pair is still connected, and the
    /// agent's walk nevertheless ended in a drop.
    Dropped(DropReason),
}

impl FlowWalk {
    /// `true` if the flow reached its destination.
    pub fn is_delivered(&self) -> bool {
        matches!(self, FlowWalk::Clear { .. } | FlowWalk::Recovered { .. })
    }

    /// Delivered-path cost, if delivered.
    pub fn cost(&self) -> Option<u64> {
        match *self {
            FlowWalk::Clear { cost, .. } | FlowWalk::Recovered { cost, .. } => Some(cost),
            _ => None,
        }
    }
}

/// Reusable per-worker state of the batch walker: the livelock
/// detector and the per-unit suffix memo of recovery walks, plus the
/// dart buffer both paths stage a candidate path in (committed to the
/// caller's `on_dart` hook only once the flow is known to deliver — so
/// the dominant clear case chases the next-dart chain exactly once,
/// and a dropped recovery walk leaves no load behind).
///
/// Walking goes through [`FlowScratch::unit`].
#[derive(Debug)]
pub struct FlowScratch<S> {
    walk: WalkScratch<S>,
    memo: SuffixMemo<S>,
    path: Vec<Dart>,
}

impl<S> FlowScratch<S> {
    /// Fresh scratch state; buffers grow to the topology on first use.
    pub fn new() -> FlowScratch<S> {
        FlowScratch { walk: WalkScratch::new(), memo: SuffixMemo::new(), path: Vec::new() }
    }

    /// Opens the work unit of flows towards `dest` under `failed`,
    /// forwarded by `agent`: evicts whatever the previous unit
    /// memoized and returns the guard the flow walkers take. Memoized
    /// suffixes are valid for exactly one such unit, and the guard is
    /// the only way to walk, so the function that owns the destination
    /// loop cannot forget the boundary.
    pub fn unit<'a, A: ForwardingAgent<State = S>>(
        &'a mut self,
        graph: &'a Graph,
        agent: &'a A,
        dest: NodeId,
        failed: &'a LinkSet,
    ) -> FlowUnit<'a, A> {
        self.memo.begin_unit();
        FlowUnit { graph, agent, dest, failed, scratch: self }
    }
}

impl<S> Default for FlowScratch<S> {
    fn default() -> Self {
        FlowScratch::new()
    }
}

/// One open (failed set, destination) unit on a [`FlowScratch`]: what
/// every flow of the unit has in common, and therefore everything the
/// unit's suffix memo is keyed by. Obtained from [`FlowScratch::unit`].
pub struct FlowUnit<'a, A: ForwardingAgent> {
    graph: &'a Graph,
    agent: &'a A,
    dest: NodeId,
    failed: &'a LinkSet,
    scratch: &'a mut FlowScratch<A::State>,
}

/// The batch walker entry point: walks the unit's flow from `src`,
/// taking the FIB fast path when the flow's shortest path is clear and
/// falling back to the full agent walker only for blocked-but-connected
/// flows.
///
/// `live` is the survivor shortest-path tree towards the unit's
/// destination (rebuilt per scenario via incremental repair); it gates
/// the agent fallback so disconnected flows never consume a (futile)
/// full walk. `on_dart` fires for every dart of a *delivered* path, in
/// order — the per-link load accounting hook; dropped and disconnected
/// flows emit nothing.
///
/// Batching is the calling convention: the caller holds the scratch
/// (and the repaired `live` tree) across a whole destination group, so
/// the steady state allocates nothing per flow and touches the
/// livelock detector only on recovery paths.
pub fn walk_flow_with<A: ForwardingAgent>(
    unit: &mut FlowUnit<'_, A>,
    fib: &Fib,
    live: &SpTree,
    src: NodeId,
    ttl: usize,
    on_dart: impl FnMut(Dart),
) -> FlowWalk
where
    A::State: std::hash::Hash + Eq,
{
    // Fast path: one chase of the next-dart chain, staging darts in
    // the scratch buffer so they are emitted only if the whole path
    // proves clear (a partially emitted blocked path would corrupt the
    // caller's load accounting).
    let path = &mut unit.scratch.path;
    path.clear();
    if let FibScan::Clear { cost, hops } =
        fib.chase(unit.graph, src, unit.dest, unit.failed, |d| path.push(d))
    {
        path.iter().copied().for_each(on_dart);
        return FlowWalk::Clear { cost, hops };
    }

    if !live.reaches(src) {
        return FlowWalk::Disconnected;
    }
    recover_flow_with(unit, src, ttl, on_dart)
}

/// The fallback arm of [`walk_flow_with`] on its own: walks a flow
/// already known to be **blocked but connected** straight through the
/// full agent, skipping the FIB chase and the survivor gate.
///
/// The bit-parallel dataplane classifies whole destination groups
/// with word-parallel set algebra first (affected set over the staged
/// [`DenseFib`], survivor components per scenario) and only then
/// walks the few affected-but-connected flows — through this entry
/// point. The walk is the walker's one hop loop with the unit's suffix
/// memo: outcome, cost, hops and emitted darts are those of
/// [`walk_packet`](crate::walk_packet) on the same flow (see
/// [`walk_packet_spliced`](crate::walk_packet_spliced) for why a
/// splice is exact), the darts of a spliced tail read off the memoized
/// chain. Never returns [`FlowWalk::Clear`] or
/// [`FlowWalk::Disconnected`]; calling it on a flow that is not
/// actually blocked-but-connected misclassifies it.
pub fn recover_flow_with<A: ForwardingAgent>(
    unit: &mut FlowUnit<'_, A>,
    src: NodeId,
    ttl: usize,
    mut on_dart: impl FnMut(Dart),
) -> FlowWalk
where
    A::State: std::hash::Hash + Eq,
{
    let FlowScratch { walk, memo, path } = &mut *unit.scratch;
    path.clear();
    let hops = walk_hops(
        unit.graph,
        unit.agent,
        src,
        unit.dest,
        unit.failed,
        ttl,
        walk,
        Some(&mut *memo),
        |d| path.push(d),
    );
    match hops.result {
        WalkResult::Delivered => {
            path.iter().copied().for_each(&mut on_dart);
            if let Some(tail) = hops.spliced {
                memo.tail_darts(tail).for_each(on_dart);
            }
            FlowWalk::Recovered { cost: hops.cost, hops: hops.steps as u32 }
        }
        WalkResult::Dropped(reason) => FlowWalk::Dropped(reason),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generous_ttl, DiscriminatorKind, PrMode, PrNetwork};
    use pr_embedding::{CellularEmbedding, RotationSystem};
    use pr_graph::generators;

    fn ring_setup() -> (Graph, PrNetwork, AllPairs, Fib) {
        let g = generators::ring(6, 1);
        let emb = CellularEmbedding::new(&g, RotationSystem::identity(&g)).unwrap();
        let net =
            PrNetwork::compile(&g, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
        let base = AllPairs::compute_all_live(&g);
        let fib = Fib::from_base(&g, &base);
        (g, net, base, fib)
    }

    #[test]
    fn compile_and_from_base_agree() {
        let (g, net, base, fib) = ring_setup();
        let from_tables = Fib::compile(&g, net.routing());
        for dest in g.nodes() {
            for node in g.nodes() {
                assert_eq!(fib.next_dart(node, dest), from_tables.next_dart(node, dest));
                assert_eq!(fib.next_dart(node, dest), base.towards(dest).next_dart(node));
            }
        }
        assert_eq!(fib.node_count(), g.node_count());
    }

    #[test]
    fn dense_fib_frames_stage_every_tree_in_canonical_order() {
        let (g, _, base, fib) = ring_setup();
        let dense = DenseFib::from_base(&g, &base);
        assert_eq!(dense.node_count(), g.node_count());
        for dest in g.nodes() {
            let tree = base.towards(dest);
            let frames = dense.frames(dest);
            // Every reachable non-destination node appears exactly once,
            // with the FIB's next dart, parents staged before children.
            assert_eq!(frames.len(), g.node_count() - 1);
            let mut seen = vec![false; g.node_count()];
            seen[dest.index()] = true;
            for f in frames {
                let u = NodeId(f.node);
                assert!(!seen[u.index()], "node staged twice");
                seen[u.index()] = true;
                assert!(seen[f.parent as usize], "parent must be staged before its children");
                assert_eq!(Some(Dart(f.dart)), fib.next_dart(u, dest));
                assert_eq!(Dart(f.dart).link(), pr_graph::LinkId(f.link));
                assert_eq!(g.dart_head(Dart(f.dart)), NodeId(f.parent));
                assert!(tree.cost(u) > tree.cost(NodeId(f.parent)), "tree order sorts by dist");
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn affected_set_matches_path_crosses_per_source() {
        let (g, _, base, _) = ring_setup();
        let dense = DenseFib::from_base(&g, &base);
        let mut affected = Vec::new();
        for link in g.links() {
            let failed = LinkSet::from_links(g.link_count(), [link]);
            for dest in g.nodes() {
                let tree = base.towards(dest);
                dense.affected_into(dest, &failed, &mut affected);
                for src in g.nodes() {
                    assert_eq!(
                        pr_graph::bits::test(&affected, src.index()),
                        tree.path_crosses(&g, src, &failed),
                        "{link} {src}->{dest}"
                    );
                }
            }
        }
    }

    #[test]
    fn bit_scratch_group_staging_is_reusable() {
        let mut bits = BitScratch::new();
        bits.begin_group(70);
        bits.stage_demand(NodeId(3), 2.5);
        bits.stage_demand(NodeId(69), 1.0);
        assert!(pr_graph::bits::test(&bits.present, 3));
        assert!(!pr_graph::bits::test(&bits.present, 4));
        assert_eq!(pr_graph::bits::count(&bits.present), 2);
        assert_eq!(bits.demand[69], 1.0);
        assert!(bits.subtree.iter().all(|&s| s == 0.0));
        // A fresh group forgets the previous membership.
        bits.begin_group(70);
        assert_eq!(pr_graph::bits::count(&bits.present), 0);
    }

    #[test]
    fn scan_matches_base_tree_classification() {
        let (g, _, base, fib) = ring_setup();
        for link in g.links() {
            let failed = LinkSet::from_links(g.link_count(), [link]);
            for dest in g.nodes() {
                let tree = base.towards(dest);
                for src in g.nodes() {
                    if src == dest {
                        continue;
                    }
                    let crosses = tree.path_crosses(&g, src, &failed);
                    match fib.scan(&g, src, dest, &failed) {
                        FibScan::Clear { cost, hops } => {
                            assert!(!crosses);
                            assert_eq!(Some(cost), tree.cost(src));
                            assert_eq!(Some(hops), tree.hops(src));
                        }
                        FibScan::Blocked => assert!(crosses, "{link} {src}->{dest}"),
                    }
                }
            }
        }
    }

    #[test]
    fn clear_flows_never_consult_the_agent() {
        // An agent that panics on every decision: clear flows must
        // still deliver (the fast path bypasses it entirely).
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
            ) -> crate::ForwardDecision {
                panic!("agent consulted on a clear flow")
            }
            fn header_bits(&self, _: &()) -> usize {
                0
            }
        }
        let (g, _, base, fib) = ring_setup();
        let none = LinkSet::empty(g.link_count());
        let live = base.towards(NodeId(0)).clone();
        let mut scratch = FlowScratch::new();
        let mut unit = scratch.unit(&g, &Panicking, NodeId(0), &none);
        let mut darts = Vec::new();
        let walk = walk_flow_with(&mut unit, &fib, &live, NodeId(3), 10, |d| darts.push(d));
        assert_eq!(walk, FlowWalk::Clear { cost: 3, hops: 3 });
        assert_eq!(darts.len(), 3);
        assert!(walk.is_delivered());
        assert_eq!(walk.cost(), Some(3));
    }

    #[test]
    fn blocked_flows_recover_through_the_agent() {
        let (g, net, _, fib) = ring_setup();
        let agent = net.agent(&g);
        let direct = g.find_link(NodeId(1), NodeId(0)).unwrap();
        let failed = LinkSet::from_links(g.link_count(), [direct]);
        let live = SpTree::towards(&g, NodeId(0), &failed);
        let mut scratch = FlowScratch::new();
        let mut unit = scratch.unit(&g, &agent, NodeId(0), &failed);
        let mut darts = Vec::new();
        let walk =
            walk_flow_with(&mut unit, &fib, &live, NodeId(1), generous_ttl(&g), |d| darts.push(d));
        assert_eq!(walk, FlowWalk::Recovered { cost: 5, hops: 5 }, "the long way around");
        assert_eq!(darts.len(), 5);
        assert!(!darts.iter().any(|d| d.link() == direct));
    }

    #[test]
    fn disconnected_flows_are_classified_without_walking() {
        let (g, net, _, fib) = ring_setup();
        let agent = net.agent(&g);
        // Cut both sides of node 0: unreachable from everywhere.
        let l01 = g.find_link(NodeId(0), NodeId(1)).unwrap();
        let l50 = g.find_link(NodeId(5), NodeId(0)).unwrap();
        let failed = LinkSet::from_links(g.link_count(), [l01, l50]);
        let live = SpTree::towards(&g, NodeId(0), &failed);
        let mut scratch = FlowScratch::new();
        let mut unit = scratch.unit(&g, &agent, NodeId(0), &failed);
        let mut emitted = 0usize;
        let walk =
            walk_flow_with(&mut unit, &fib, &live, NodeId(3), generous_ttl(&g), |_| emitted += 1);
        assert_eq!(walk, FlowWalk::Disconnected);
        assert_eq!(emitted, 0, "no load accounted for undelivered flows");
        assert_eq!(walk.cost(), None);
    }

    #[test]
    fn batch_walker_matches_single_packet_walks() {
        let (g, net, base, fib) = ring_setup();
        let agent = net.agent(&g);
        let ttl = generous_ttl(&g);
        let mut scratch = FlowScratch::new();
        for link in g.links() {
            let failed = LinkSet::from_links(g.link_count(), [link]);
            for dest in g.nodes() {
                let live = SpTree::towards(&g, dest, &failed);
                let mut unit = scratch.unit(&g, &agent, dest, &failed);
                for src in g.nodes() {
                    if src == dest {
                        continue;
                    }
                    let mut darts = Vec::new();
                    let flow = walk_flow_with(&mut unit, &fib, &live, src, ttl, |d| darts.push(d));
                    let reference = crate::walk_packet(&g, &agent, src, dest, &failed, ttl);
                    assert_eq!(
                        flow.is_delivered(),
                        reference.result.is_delivered(),
                        "{link} {src}->{dest}"
                    );
                    if let Some(cost) = flow.cost() {
                        assert_eq!(cost, reference.cost(&g), "{link} {src}->{dest}");
                        assert_eq!(darts, reference.path.darts(), "{link} {src}->{dest}");
                    }
                    let _ = base.towards(dest);
                }
            }
        }
    }
}
