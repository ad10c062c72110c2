//! Failure-Carrying Packets (FCP) — the paper's strongest baseline.
//!
//! FCP (Lakshminarayanan et al., SIGCOMM 2007; the PR paper's
//! reference [8]) achieves the same full-coverage goal as PR with the
//! opposite trade-off: packets **carry the list of failed links they
//! have encountered**, and every router forwards along the shortest
//! path in the topology *minus* the carried failures, recomputing
//! routes on demand. Delivery is guaranteed whenever the network
//! remains connected, and paths are close to optimal — but the header
//! grows with the number of carried failures and each carried-failure
//! arrival costs a shortest-path recomputation at the router, which is
//! exactly the overhead PR's §6 comparison highlights.
//!
//! This implementation follows the FCP paper's link-state variant:
//!
//! * all routers share the same (stale, failure-free) base map;
//! * a packet's header failure list is authoritative: routers union it
//!   with locally detected failures of their own interfaces;
//! * if the destination is unreachable in `G \ carried`, the packet is
//!   dropped (FCP can *prove* unreachability, unlike PR).

use std::cell::RefCell;

use pr_core::{DropReason, ForwardDecision, ForwardingAgent};
use pr_graph::{AllPairs, Dart, Graph, LinkId, LinkSet, NodeId, SpScratch, SpTree, TreeChildren};

/// Carried failures a header holds without touching the heap. Sweeps
/// over single and small multi-failure scenarios never carry more, so
/// cloning a state into a walk's visited-triple trail or a route
/// memo entry is a fixed-size copy.
const INLINE_CARRIED: usize = 6;

/// Storage of the carried list: a fixed array until it overflows, a
/// `Vec` from then on (so any failure count still works).
#[derive(Clone)]
enum Carried {
    Inline { len: u8, links: [LinkId; INLINE_CARRIED] },
    Spilled(Vec<LinkId>),
}

/// Per-packet FCP header: the sorted list of link failures the packet
/// has learnt about. Equality and hashing are over that list.
#[derive(Clone)]
pub struct FcpState {
    carried: Carried,
}

impl FcpState {
    /// The sorted, deduplicated failed-link list (the FCP header
    /// payload).
    pub fn carried(&self) -> &[LinkId] {
        match &self.carried {
            Carried::Inline { len, links } => &links[..usize::from(*len)],
            Carried::Spilled(links) => links,
        }
    }

    /// Adds a failure to the carried list, keeping it sorted.
    pub fn learn(&mut self, link: LinkId) {
        let Err(pos) = self.carried().binary_search(&link) else { return };
        match &mut self.carried {
            Carried::Inline { len, links } => {
                let held = usize::from(*len);
                if held < INLINE_CARRIED {
                    links.copy_within(pos..held, pos + 1);
                    links[pos] = link;
                    *len += 1;
                } else {
                    let mut spilled = Vec::with_capacity(2 * INLINE_CARRIED);
                    spilled.extend_from_slice(&links[..pos]);
                    spilled.push(link);
                    spilled.extend_from_slice(&links[pos..]);
                    self.carried = Carried::Spilled(spilled);
                }
            }
            Carried::Spilled(links) => links.insert(pos, link),
        }
    }
}

impl Default for FcpState {
    fn default() -> FcpState {
        FcpState { carried: Carried::Inline { len: 0, links: [LinkId(0); INLINE_CARRIED] } }
    }
}

impl PartialEq for FcpState {
    fn eq(&self, other: &FcpState) -> bool {
        self.carried() == other.carried()
    }
}

impl Eq for FcpState {}

impl std::hash::Hash for FcpState {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.carried().hash(state);
    }
}

impl std::fmt::Debug for FcpState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FcpState").field("carried", &self.carried()).finish()
    }
}

/// One routing patch over a hoisted base tree: the node's next dart
/// under the key's failures, `None` where they cut it off.
type Patch = (NodeId, Option<Dart>);

/// Where one memoised route's patches sit in the arena.
type Span = std::ops::Range<usize>;

/// What filling the route memo cost. Plain counters, taken per unit
/// and merged like `MemoStats`; nothing reads them on the hot path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteStats {
    /// Entries filled by a miss: a cone enumeration and a cone repair
    /// of the memo's own.
    pub repaired: u64,
    /// Total cone size over those repairs.
    pub cone_nodes: u64,
}

impl RouteStats {
    /// Accumulates another stats record.
    pub fn merge(&mut self, other: &RouteStats) {
        self.repaired += other.repaired;
        self.cone_nodes += other.cone_nodes;
    }
}

/// Memoised shortest-path routes of one flow unit, keyed by
/// `(destination, carried failure list)`.
///
/// FCP's routing function depends *only* on that key, so the memo
/// changes constants, never decisions: a hit returns the route a
/// recompute would produce. A memoised route is its sorted `(node,
/// next dart)` patch list over the hoisted base tree: outside the
/// affected cone the repaired tree *is* the base tree, so patches
/// answer every query at O(cone) build cost (cone repair, bit-identical
/// to the recompute) instead of an O(n) tree. Every route's patches
/// live back to back in **one arena**, and the keys in one short list
/// searched newest first, so the consecutive hops of one walk find
/// their key at the first entry. Both are emptied with their capacity
/// kept when a unit opens, so a warm memo fills an entry without
/// calling the allocator.
///
/// The list needs no bound. A unit is one destination under one failed
/// set of k links, and a source's walk meets one key per carried list
/// it routes on: the empty list (the base tree answers it, past the
/// memo) and one more each time the list grows, at most k times. A
/// unit therefore meets at most n·(k + 1) keys, and every caller opens
/// a unit, or calls [`FcpAgent::begin_scenario`], between failed sets.
#[derive(Debug, Clone)]
struct RouteCache {
    /// The patch arena.
    patches: Vec<Patch>,
    /// `(destination, carried list, patch span)` per memoised route,
    /// oldest first.
    routes: Vec<(NodeId, FcpState, Span)>,
    /// Lazily built child index per destination's base tree (kept
    /// across units — it depends only on the base map).
    children: Vec<Option<Box<TreeChildren>>>,
    /// Reusable cone-enumeration buffers.
    cone: Vec<NodeId>,
    stack: Vec<NodeId>,
    /// Reusable `G \ carried` bitset for miss recomputes.
    failed_buf: LinkSet,
    /// Reusable Dijkstra arena for miss recomputes.
    scratch: SpScratch,
    stats: RouteStats,
}

impl RouteCache {
    fn new(graph: &Graph) -> RouteCache {
        RouteCache {
            patches: Vec::new(),
            routes: Vec::new(),
            children: vec![None; graph.node_count()],
            cone: Vec::new(),
            stack: Vec::new(),
            failed_buf: LinkSet::empty(graph.link_count()),
            scratch: SpScratch::new(),
            stats: RouteStats::default(),
        }
    }

    /// The patches of `(tree.dest, state)`: its entry, or on a miss a
    /// new one, appended by cone repair of `tree`, the base tree towards
    /// the key's destination ([`SpTree::repair_cone_labels`], then
    /// [`SpTree::cone_routes`]), bit-identical to the full recompute.
    fn route(&mut self, graph: &Graph, tree: &SpTree, state: &FcpState) -> &[Patch] {
        let dest = tree.dest;
        let span = match self.routes.iter().rev().find(|(d, key, _)| *d == dest && key == state) {
            Some((_, _, span)) => span.clone(),
            None => {
                let RouteCache { patches, children, cone, stack, failed_buf, scratch, .. } = self;
                failed_buf.clear();
                for &l in state.carried() {
                    failed_buf.insert(l);
                }
                let kids = children[dest.index()]
                    .get_or_insert_with(|| Box::new(TreeChildren::build(graph, tree)));
                tree.affected_cone(graph, kids, failed_buf, cone, stack);
                tree.repair_cone_labels(graph, failed_buf, cone, scratch);
                let start = patches.len();
                tree.cone_routes(graph, cone, scratch, patches);
                self.stats.repaired += 1;
                self.stats.cone_nodes += cone.len() as u64;
                self.routes.push((dest, state.clone(), start..patches.len()));
                start..patches.len()
            }
        };
        &self.patches[span]
    }
}

/// The FCP forwarding agent.
///
/// [`FcpAgent::new`] recomputes shortest paths per decision — the
/// honest *router cost* model that experiment E9 measures against PR's
/// table lookups. [`FcpAgent::cached_with_base`] adds a route memo
/// for *experiment harness* use: scenario sweeps only observe FCP's
/// decisions (which the memo provably does not change), so they need
/// not pay the recompute cost millions of times.
#[derive(Debug, Clone)]
pub struct FcpAgent<'a> {
    graph: &'a Graph,
    /// Bits charged per carried link id in the header accounting:
    /// `ceil(log2(link_count))`, plus [`Self::LENGTH_FIELD_BITS`] once.
    link_id_bits: usize,
    /// `Some` enables the route memo over the hoisted failure-free
    /// trees: with an empty carried list the effective topology is the
    /// base map, so the all-live tree answers without touching the
    /// memo (interior mutability keeps [`ForwardingAgent::decide`]'s
    /// `&self` signature).
    routes: Option<(&'a AllPairs, RefCell<RouteCache>)>,
}

impl<'a> FcpAgent<'a> {
    /// Bits of the header length field in the overhead accounting.
    pub const LENGTH_FIELD_BITS: usize = 8;

    /// Creates an FCP agent over the base (failure-free) map, with the
    /// honest recompute-per-decision cost model.
    pub fn new(graph: &'a Graph) -> FcpAgent<'a> {
        let m = graph.link_count().max(1) as u64;
        let link_id_bits = (64 - (m - 1).leading_zeros() as usize).max(1);
        FcpAgent { graph, link_id_bits, routes: None }
    }

    /// An agent with the route memo enabled (identical decisions,
    /// recompute cost paid once per distinct `(dest, carried)` key,
    /// by cone repair of the precomputed failure-free trees — the
    /// scenario engine hoists exactly these).
    pub fn cached_with_base(graph: &'a Graph, base: &'a AllPairs) -> FcpAgent<'a> {
        let routes = RefCell::new(RouteCache::new(graph));
        FcpAgent { routes: Some((base, routes)), ..FcpAgent::new(graph) }
    }

    /// Bits one carried link id occupies in the header.
    pub fn link_id_bits(&self) -> usize {
        self.link_id_bits
    }

    /// Evicts the route memo, as every flow unit does on opening
    /// ([`ForwardingAgent::begin_unit`]). Public for the benchmark's
    /// `baselines.walk_fcp` timing, which walks without a flow unit and
    /// calls it between scenarios. No-op on uncached agents.
    pub fn begin_scenario(&self) {
        self.begin_unit();
    }

    /// The route memo's counters since they were last taken (all zero
    /// for uncached agents).
    pub fn take_route_stats(&self) -> RouteStats {
        self.routes.as_ref().map_or_else(RouteStats::default, |(_, cache)| {
            std::mem::take(&mut cache.borrow_mut().stats)
        })
    }

    /// The routing decision FCP's shortest-path computation yields at
    /// `at` for this `(dest, carried)` key: the next dart and whether
    /// `at` reaches `dest` at all in `G \ carried`.
    fn route(&self, at: NodeId, dest: NodeId, state: &FcpState) -> (Option<Dart>, bool) {
        let Some((base, routes)) = &self.routes else {
            let carried =
                LinkSet::from_links(self.graph.link_count(), state.carried().iter().copied());
            let tree = SpTree::towards(self.graph, dest, &carried);
            return (tree.next_dart(at), tree.reaches(at));
        };
        let tree = base.towards(dest);
        if state.carried().is_empty() {
            return (tree.next_dart(at), tree.reaches(at));
        }
        let mut routes = routes.borrow_mut();
        let patches = routes.route(self.graph, tree, state);
        match patches.binary_search_by_key(&at, |p| p.0) {
            Ok(i) => (patches[i].1, patches[i].1.is_some()),
            Err(_) => (tree.next_dart(at), tree.reaches(at)),
        }
    }
}

impl<'a> ForwardingAgent for FcpAgent<'a> {
    type State = FcpState;

    fn label(&self) -> &'static str {
        "fcp"
    }

    fn decide(
        &self,
        at: NodeId,
        _ingress: Option<Dart>,
        dest: NodeId,
        state: &mut FcpState,
        failed: &LinkSet,
    ) -> ForwardDecision {
        // Learn locally visible failures eagerly: FCP routers advertise
        // their own interfaces' state into transiting packets.
        for &d in self.graph.darts_from(at) {
            if failed.contains_dart(d) {
                state.learn(d.link());
            }
        }
        // So no tree of `G \ carried` routes `at` onto a failed dart:
        // a remote failure is learnt where it is met, never ahead.
        let (next, reaches) = self.route(at, dest, state);
        let Some(out) = next else {
            return if reaches {
                // at == dest is handled by the engine; reaching here
                // with no next dart means the tree is degenerate.
                ForwardDecision::Drop(DropReason::ProtocolViolation)
            } else {
                ForwardDecision::Drop(DropReason::Unreachable)
            };
        };
        debug_assert!(!failed.contains_dart(out), "{at} routed onto a failed dart it knows");
        ForwardDecision::Forward(out)
    }

    fn header_bits(&self, state: &FcpState) -> usize {
        Self::LENGTH_FIELD_BITS + state.carried().len() * self.link_id_bits
    }

    /// The route memo lives one unit: its keys carry the destination,
    /// and a destination has one unit per failed set.
    fn begin_unit(&self) {
        if let Some((_, routes)) = &self.routes {
            let routes = &mut *routes.borrow_mut();
            routes.patches.clear();
            routes.routes.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pr_core::{generous_ttl, walk_packet, WalkResult};
    use pr_graph::generators;

    /// Memoised `(dest, carried)` route entries of `agent` (0 for an
    /// uncached one).
    fn cached_routes(agent: &FcpAgent<'_>) -> usize {
        agent.routes.as_ref().map_or(0, |(_, r)| r.borrow().routes.len())
    }

    #[test]
    fn failure_free_is_shortest_path() {
        let g = generators::ring(6, 1);
        let agent = FcpAgent::new(&g);
        let none = LinkSet::empty(g.link_count());
        let walk = walk_packet(&g, &agent, NodeId(2), NodeId(0), &none, generous_ttl(&g));
        assert!(walk.result.is_delivered());
        assert_eq!(walk.path.hop_count(), 2);
        assert_eq!(walk.peak_header_bits, FcpAgent::LENGTH_FIELD_BITS);
    }

    #[test]
    fn reroutes_and_grows_header() {
        let g = generators::ring(6, 1);
        let agent = FcpAgent::new(&g);
        let direct = g.find_link(NodeId(1), NodeId(0)).unwrap();
        let failed = LinkSet::from_links(g.link_count(), [direct]);
        let walk = walk_packet(&g, &agent, NodeId(1), NodeId(0), &failed, generous_ttl(&g));
        assert!(walk.result.is_delivered());
        assert_eq!(walk.path.hop_count(), 5, "FCP takes the survivor shortest path");
        assert_eq!(
            walk.peak_header_bits,
            FcpAgent::LENGTH_FIELD_BITS + agent.link_id_bits(),
            "one carried failure"
        );
    }

    #[test]
    fn multiple_failures_accumulate_in_header() {
        // Ring + chord 0-3. Fail 1-0 and the chord: a packet 2 -> 0
        // discovers 1-0 at node 1 (reroutes via the chord), then
        // discovers the chord dead at node 3, and finally goes the
        // long way — carrying TWO failures in its header.
        let mut g = generators::ring(6, 1);
        let chord = g.add_link(NodeId(0), NodeId(3), 1).unwrap();
        let agent = FcpAgent::new(&g);
        let f1 = g.find_link(NodeId(1), NodeId(0)).unwrap();
        let failed = LinkSet::from_links(g.link_count(), [f1, chord]);
        let walk = walk_packet(&g, &agent, NodeId(2), NodeId(0), &failed, generous_ttl(&g));
        assert!(walk.result.is_delivered(), "got {:?}", walk.result);
        assert_eq!(
            walk.peak_header_bits,
            FcpAgent::LENGTH_FIELD_BITS + 2 * agent.link_id_bits(),
            "two carried failures"
        );
        assert_eq!(walk.path.display(&g, NodeId(2)), "2 -> 1 -> 2 -> 3 -> 4 -> 5 -> 0");
    }

    #[test]
    fn proves_unreachability() {
        let g = generators::ring(4, 1);
        let agent = FcpAgent::new(&g);
        // Isolate node 0.
        let l01 = g.find_link(NodeId(0), NodeId(1)).unwrap();
        let l30 = g.find_link(NodeId(3), NodeId(0)).unwrap();
        let failed = LinkSet::from_links(g.link_count(), [l01, l30]);
        let walk = walk_packet(&g, &agent, NodeId(2), NodeId(0), &failed, generous_ttl(&g));
        assert_eq!(
            walk.result,
            WalkResult::Dropped(DropReason::Unreachable),
            "FCP must prove unreachability, not loop"
        );
    }

    #[test]
    fn fcp_state_learn_is_sorted_and_dedup() {
        let mut s = FcpState::default();
        s.learn(LinkId(5));
        s.learn(LinkId(1));
        s.learn(LinkId(5));
        s.learn(LinkId(3));
        assert_eq!(s.carried(), [LinkId(1), LinkId(3), LinkId(5)]);
        assert!(s.carried().contains(&LinkId(3)));
        assert!(!s.carried().contains(&LinkId(2)));

        // Past the inline capacity the list spills to the heap and
        // keeps its meaning: order, dedup, equality and hash are over
        // the list, whichever way it is stored.
        let mut big = FcpState::default();
        let mut reference = Vec::new();
        for i in (0..3 * INLINE_CARRIED as u32).rev() {
            big.learn(LinkId(2 * i));
            big.learn(LinkId(2 * i));
            reference.insert(0, LinkId(2 * i));
            assert_eq!(big.carried(), reference);
        }
        assert!(big.carried().contains(&LinkId(4)) && !big.carried().contains(&LinkId(5)));
        let mut copy = FcpState::default();
        copy.clone_from(&big);
        assert_eq!(copy, big);
        copy.clone_from(&s);
        assert_eq!(copy, s);
        assert_ne!(copy, big);
        let hash = |state: &FcpState| {
            use std::hash::{Hash, Hasher};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            state.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&big), hash(&big.clone()));
        let mut same = FcpState::default();
        for &l in big.carried().iter().rev() {
            same.learn(l);
        }
        assert_eq!(hash(&same), hash(&big));
    }

    #[test]
    fn cached_agent_walks_are_identical_to_uncached() {
        // Ring + chords gives multi-failure reroutes with several
        // distinct carried sets per walk.
        let mut g = generators::ring(8, 1);
        g.add_link(NodeId(0), NodeId(4), 1).unwrap();
        g.add_link(NodeId(2), NodeId(6), 1).unwrap();
        let base = pr_graph::AllPairs::compute_all_live(&g);
        let honest = FcpAgent::new(&g);
        let cached = FcpAgent::cached_with_base(&g, &base);
        let ttl = generous_ttl(&g);
        for (la, lb) in [(0u32, 4), (1, 5), (2, 9), (3, 8)] {
            let failed =
                LinkSet::from_links(g.link_count(), [pr_graph::LinkId(la), pr_graph::LinkId(lb)]);
            for src in g.nodes() {
                for dst in g.nodes() {
                    let w0 = walk_packet(&g, &honest, src, dst, &failed, ttl);
                    let w1 = walk_packet(&g, &cached, src, dst, &failed, ttl);
                    assert_eq!(w0, w1, "cached diverged on l{la},l{lb} {src}->{dst}");
                }
            }
        }
    }

    #[test]
    fn scenario_eviction_keeps_decisions_identical_and_bounds_the_memo() {
        // A sweep-shaped workload: many scenarios against one cached
        // agent. Evicting at every scenario boundary must change no
        // walk, and must keep the live entry count bounded by one
        // scenario's keys instead of growing with the sweep.
        let mut g = generators::ring(8, 1);
        g.add_link(NodeId(0), NodeId(4), 1).unwrap();
        g.add_link(NodeId(2), NodeId(6), 1).unwrap();
        let base = pr_graph::AllPairs::compute_all_live(&g);
        let unbounded = FcpAgent::cached_with_base(&g, &base);
        let evicting = FcpAgent::cached_with_base(&g, &base);
        let ttl = generous_ttl(&g);
        let mut peak_evicting = 0;
        for (la, lb) in [(0u32, 4), (1, 5), (2, 9), (3, 8), (0, 7), (2, 5)] {
            evicting.begin_scenario();
            let failed =
                LinkSet::from_links(g.link_count(), [pr_graph::LinkId(la), pr_graph::LinkId(lb)]);
            for src in g.nodes() {
                for dst in g.nodes() {
                    let w0 = walk_packet(&g, &unbounded, src, dst, &failed, ttl);
                    let w1 = walk_packet(&g, &evicting, src, dst, &failed, ttl);
                    assert_eq!(w0, w1, "eviction changed a decision on l{la},l{lb} {src}->{dst}");
                }
            }
            peak_evicting = peak_evicting.max(cached_routes(&evicting));
        }
        assert!(
            cached_routes(&evicting) < cached_routes(&unbounded),
            "evicting agent must hold fewer live entries ({} vs {})",
            cached_routes(&evicting),
            cached_routes(&unbounded)
        );
        assert!(peak_evicting <= cached_routes(&unbounded));
        // Uncached agents take the call as a no-op.
        FcpAgent::new(&g).begin_scenario();
        assert_eq!(cached_routes(&FcpAgent::new(&g)), 0);
    }

    #[test]
    fn a_flow_unit_empties_the_route_memo() {
        // The memo lives one unit: a walk fills it, and the next unit
        // the flow scratch opens starts from nothing.
        let mut g = generators::ring(8, 1);
        g.add_link(NodeId(0), NodeId(4), 1).unwrap();
        let base = AllPairs::compute_all_live(&g);
        let cached = FcpAgent::cached_with_base(&g, &base);
        let failed = LinkSet::from_links(g.link_count(), [LinkId(0), LinkId(8)]);
        walk_packet(&g, &cached, NodeId(1), NodeId(0), &failed, generous_ttl(&g));
        assert!(cached_routes(&cached) > 0, "the walk must fill the memo");
        let mut flows = pr_core::FlowScratch::new();
        let _unit = flows.unit(&g, &cached, base.towards(NodeId(3)), &failed);
        assert_eq!(cached_routes(&cached), 0);
    }

    #[test]
    fn a_unit_meets_at_most_one_key_per_carried_list_growth() {
        // K12 under three failed spokes of one destination: every
        // source's walk learns them one by one, so the unit fills many
        // keys, never more than n·(k + 1), with every decision the
        // honest agent's.
        let g = generators::complete(12, 1);
        let base = AllPairs::compute_all_live(&g);
        let honest = FcpAgent::new(&g);
        let cached = FcpAgent::cached_with_base(&g, &base);
        let ttl = generous_ttl(&g);
        let dest = NodeId(1);
        let spokes = [2, 3, 4].map(|v| g.find_link(dest, NodeId(v)).unwrap());
        let failed = LinkSet::from_links(g.link_count(), spokes);
        let mut flows = pr_core::FlowScratch::new();
        let _unit = flows.unit(&g, &cached, base.towards(dest), &failed);
        for src in g.nodes() {
            assert_eq!(
                walk_packet(&g, &cached, src, dest, &failed, ttl),
                walk_packet(&g, &honest, src, dest, &failed, ttl),
                "{src}->{dest}"
            );
        }
        let keys = cached_routes(&cached);
        assert!(keys > 1 && keys <= g.node_count() * (spokes.len() + 1), "{keys} keys");
        assert_eq!(cached.take_route_stats().repaired, keys as u64, "one repair per key");
    }

    #[test]
    fn link_id_bits_scale_with_topology() {
        let small = generators::ring(4, 1); // 4 links -> 2 bits
        let large = generators::complete(12, 1); // 66 links -> 7 bits
        assert_eq!(FcpAgent::new(&small).link_id_bits(), 2);
        assert_eq!(FcpAgent::new(&large).link_id_bits(), 7);
    }
}
