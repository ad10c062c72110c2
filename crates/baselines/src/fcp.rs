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
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use pr_core::{DropReason, ForwardDecision, ForwardingAgent, FxHasher64};
use pr_graph::{AllPairs, Dart, Graph, LinkId, LinkSet, NodeId, SpScratch, SpTree, TreeChildren};

/// Carried failures a header holds without touching the heap. Sweeps
/// over single and small multi-failure scenarios never carry more, so
/// cloning a state into a walk's visited-triple trail or the route
/// memo's probe key is a fixed-size copy.
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

    /// `true` if the packet already carries this failure.
    pub fn knows(&self, link: LinkId) -> bool {
        self.carried().binary_search(&link).is_ok()
    }
}

impl Default for FcpState {
    fn default() -> FcpState {
        FcpState { carried: Carried::Inline { len: 0, links: [LinkId(0); INLINE_CARRIED] } }
    }
}

impl Clone for FcpState {
    fn clone(&self) -> FcpState {
        FcpState { carried: self.carried.clone() }
    }

    /// Keeps a spilled destination's buffer, so the route cache's
    /// probe keys stay allocation-free past the inline capacity too.
    fn clone_from(&mut self, source: &FcpState) {
        match (&mut self.carried, &source.carried) {
            (Carried::Spilled(mine), Carried::Spilled(theirs)) => mine.clone_from(theirs),
            _ => *self = source.clone(),
        }
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

/// Memoised shortest-path trees keyed by `(destination, carried
/// failure list)`, shared by every decision an agent makes.
///
/// FCP's routing function depends *only* on that key, so the memo
/// changes constants, never decisions: a hit returns the identical
/// tree a recompute would produce. The probe key and the failure
/// bitset are reusable buffers (`clone_from` keeps allocations), so
/// cache hits allocate nothing; misses fill via incremental repair
/// from the hoisted base trees (bit-identical to the recompute) using
/// the cache's private Dijkstra arena.
///
/// A memoised route is its sorted `(node, next dart)` patch list over
/// the hoisted base tree: outside the affected cone the repaired tree
/// *is* the base tree, so patches answer every query at O(cone) build
/// cost instead of the O(n) tree materialisation. Every route's
/// patches live back to back in **one arena**, emptied with its
/// capacity kept when a unit opens or at a flush, so a warm memo
/// fills an entry without calling the allocator.
#[derive(Debug, Clone)]
struct RouteCache {
    /// The patch arena; `index` maps a key to its span.
    patches: Vec<Patch>,
    index: HashMap<(NodeId, FcpState), Span, BuildHasherDefault<FxHasher64>>,
    /// Lazily built child index per destination's base tree (kept
    /// across units — it depends only on the base map).
    children: Vec<Option<Box<TreeChildren>>>,
    /// Reusable cone-enumeration buffers.
    cone: Vec<NodeId>,
    stack: Vec<NodeId>,
    /// Key of the most recent decision: consecutive hops of one walk
    /// share their `(dest, carried)` key, so this single-entry fast
    /// path answers them with one short slice compare — no hashing,
    /// no key clone.
    last_key: (NodeId, FcpState),
    last: Option<Span>,
    /// Reusable lookup key for `index`.
    probe: (NodeId, FcpState),
    /// Reusable `G \ carried` bitset for miss recomputes.
    failed_buf: LinkSet,
    /// Reusable Dijkstra arena for miss recomputes.
    scratch: SpScratch,
    stats: RouteStats,
}

impl Default for RouteCache {
    fn default() -> Self {
        RouteCache {
            patches: Vec::new(),
            index: HashMap::default(),
            children: Vec::new(),
            cone: Vec::new(),
            stack: Vec::new(),
            last_key: (NodeId(0), FcpState::default()),
            last: None,
            probe: (NodeId(0), FcpState::default()),
            failed_buf: LinkSet::empty(0),
            scratch: SpScratch::new(),
            stats: RouteStats::default(),
        }
    }
}

impl RouteCache {
    /// Drops every entry; arena and index keep their capacity.
    fn clear(&mut self) {
        self.patches.clear();
        self.index.clear();
        self.last = None;
    }

    /// The miss path: appends to the arena the patches of the key in
    /// `probe` — `tree` being the base tree towards its destination —
    /// by cone repair (O(cone): [`SpTree::repair_cone_labels`], then
    /// [`SpTree::cone_routes`]), bit-identical to the full recompute.
    fn repair(&mut self, graph: &Graph, tree: &SpTree) {
        let RouteCache { patches, children, cone, stack, probe, failed_buf, scratch, .. } = self;
        // Rebuild the carried-failure bitset in place.
        if failed_buf.capacity() != graph.link_count() {
            *failed_buf = LinkSet::empty(graph.link_count());
        } else {
            failed_buf.clear();
        }
        for &l in probe.1.carried() {
            failed_buf.insert(l);
        }
        if children.is_empty() {
            children.resize(graph.node_count(), None);
        }
        let kids = children[probe.0.index()]
            .get_or_insert_with(|| Box::new(TreeChildren::build(graph, tree)));
        tree.affected_cone(graph, kids, failed_buf, cone, stack);
        tree.repair_cone_labels(graph, failed_buf, cone, scratch);
        tree.cone_routes(graph, cone, scratch, patches);
    }
}

/// Entry bound after which a [`RouteCache`] is flushed wholesale. The
/// keys reachable in one sweep are subsets of small failure sets, so
/// this is a backstop for adversarial workloads, not a tuning knob.
const ROUTE_CACHE_MAX_ENTRIES: usize = 1 << 16;

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
        FcpAgent { routes: Some((base, RefCell::default())), ..FcpAgent::new(graph) }
    }

    /// Bits one carried link id occupies in the header.
    pub fn link_id_bits(&self) -> usize {
        self.link_id_bits
    }

    /// Evicts the route memo, as every flow unit does on opening
    /// ([`ForwardingAgent::begin_unit`]). Public for the benchmark's
    /// `baselines.walk_fcp` probe, which walks without a flow unit and
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

    /// Number of memoised `(dest, carried)` route entries (0 for
    /// uncached agents) — observability for the eviction policy.
    pub fn cached_routes(&self) -> usize {
        self.routes.as_ref().map_or(0, |(_, r)| r.borrow().index.len())
    }

    /// The effective topology the packet routes on: base map minus
    /// carried failures.
    fn effective_failures(&self, state: &FcpState) -> LinkSet {
        LinkSet::from_links(self.graph.link_count(), state.carried().iter().copied())
    }

    /// The routing decision FCP's shortest-path computation yields at
    /// `at` for this `(dest, carried)` key: the next dart and whether
    /// `at` reaches `dest` at all in `G \ carried`.
    fn route(&self, at: NodeId, dest: NodeId, state: &FcpState) -> (Option<Dart>, bool) {
        let Some((base, routes)) = &self.routes else {
            let tree = SpTree::towards(self.graph, dest, &self.effective_failures(state));
            return (tree.next_dart(at), tree.reaches(at));
        };
        let tree = base.towards(dest);
        if state.carried().is_empty() {
            return (tree.next_dart(at), tree.reaches(at));
        }
        let cache = &mut *routes.borrow_mut();
        let span = match &cache.last {
            // Single-entry fast path: same key as the previous
            // decision (the common case: consecutive hops of one
            // walk).
            Some(span) if cache.last_key.0 == dest && cache.last_key.1 == *state => span.clone(),
            _ => {
                // Keyed lookup without allocating: the probe key is a
                // buffer refilled in place; a fresh key is cloned only
                // on a miss.
                cache.probe.0 = dest;
                cache.probe.1.clone_from(state);
                let span = match cache.index.get(&cache.probe) {
                    Some(span) => span.clone(),
                    None => {
                        // The wholesale flush, when the memo is at its
                        // bound; then the arena's tail is the entry.
                        if cache.index.len() >= ROUTE_CACHE_MAX_ENTRIES {
                            cache.clear();
                        }
                        let start = cache.patches.len();
                        cache.repair(self.graph, tree);
                        cache.stats.repaired += 1;
                        cache.stats.cone_nodes += cache.cone.len() as u64;
                        let span = start..cache.patches.len();
                        cache.index.insert(cache.probe.clone(), span.clone());
                        span
                    }
                };
                cache.last_key.0 = dest;
                cache.last_key.1.clone_from(state);
                cache.last = Some(span.clone());
                span
            }
        };
        let patches = &cache.patches[span];
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
        loop {
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
            if failed.contains_dart(out) {
                // The freshly failed link was not in the carried list
                // (e.g. a remote link we only discover on arrival):
                // learn it and recompute — the defining FCP step.
                state.learn(out.link());
                continue;
            }
            return ForwardDecision::Forward(out);
        }
    }

    fn header_bits(&self, state: &FcpState) -> usize {
        Self::LENGTH_FIELD_BITS + state.carried().len() * self.link_id_bits
    }

    /// The route memo lives one unit: its keys carry the destination,
    /// and a destination has one unit per failed set.
    fn begin_unit(&self) {
        if let Some((_, routes)) = &self.routes {
            routes.borrow_mut().clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pr_core::{generous_ttl, walk_packet, WalkResult};
    use pr_graph::generators;

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
        assert!(s.knows(LinkId(3)));
        assert!(!s.knows(LinkId(2)));

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
        assert!(big.knows(LinkId(4)) && !big.knows(LinkId(5)));
        let mut copy = FcpState::default();
        copy.clone_from(&big);
        assert_eq!(copy, big);
        copy.clone_from(&s);
        assert_eq!(copy, s);
        assert_ne!(copy, big);
        let hash = |state: &FcpState| {
            use std::hash::{Hash, Hasher};
            let mut h = FxHasher64::default();
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
            peak_evicting = peak_evicting.max(evicting.cached_routes());
        }
        assert!(
            evicting.cached_routes() < unbounded.cached_routes(),
            "evicting agent must hold fewer live entries ({} vs {})",
            evicting.cached_routes(),
            unbounded.cached_routes()
        );
        assert!(peak_evicting <= unbounded.cached_routes());
        // Uncached agents take the call as a no-op.
        FcpAgent::new(&g).begin_scenario();
        assert_eq!(FcpAgent::new(&g).cached_routes(), 0);
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
        assert!(cached.cached_routes() > 0, "the walk must fill the memo");
        let mut flows = pr_core::FlowScratch::new();
        let _unit = flows.unit(&g, &cached, base.towards(NodeId(3)), &failed);
        assert_eq!(cached.cached_routes(), 0);
    }

    #[test]
    fn the_wholesale_flush_keeps_decisions_identical() {
        // K12: 66 links, so triples of links × 12 destinations give
        // several times more distinct keys than the bound.
        let g = generators::complete(12, 1);
        let base = AllPairs::compute_all_live(&g);
        let honest = FcpAgent::new(&g);
        let cached = FcpAgent::cached_with_base(&g, &base);
        let ttl = generous_ttl(&g);
        let walks_agree = |failed: &LinkSet, dest: NodeId| {
            for src in g.nodes() {
                assert_eq!(
                    walk_packet(&g, &cached, src, dest, failed, ttl),
                    walk_packet(&g, &honest, src, dest, failed, ttl),
                    "{failed:?} {src}->{dest}"
                );
            }
        };
        // Asks for the key `(dest, {a, b, c})`: one miss each.
        let m = g.link_count() as u32;
        let mut keys = (0..m)
            .flat_map(|a| (a + 1..m).flat_map(move |b| (b + 1..m).map(move |c| [a, b, c])))
            .flat_map(|triple| g.nodes().map(move |dest| (triple, dest)));
        let mut fill_to = |entries: usize| {
            while cached.cached_routes() < entries {
                let (triple, dest) = keys.next().expect("more keys than the bound");
                let mut state = FcpState::default();
                triple.into_iter().for_each(|l| state.learn(LinkId(l)));
                let at = g.nodes().find(|&at| at != dest).unwrap();
                cached.decide(at, None, dest, &mut state, &LinkSet::empty(g.link_count()));
            }
        };

        // An early key is flushed with everything else and comes back
        // through the miss path, the same.
        let dest = NodeId(1);
        let spoke = |v| g.find_link(dest, NodeId(v)).unwrap();
        let early = LinkSet::from_links(g.link_count(), [spoke(2), spoke(3)]);
        walks_agree(&early, dest);
        fill_to(ROUTE_CACHE_MAX_ENTRIES);

        // A miss on the full memo flushes it and is the one entry left.
        let mut state = FcpState::default();
        state.learn(spoke(4));
        cached.decide(NodeId(0), None, dest, &mut state, &LinkSet::empty(g.link_count()));
        assert_eq!(cached.cached_routes(), 1);
        walks_agree(&early, dest);
        assert!(cached.take_route_stats().repaired > ROUTE_CACHE_MAX_ENTRIES as u64);
    }

    #[test]
    fn link_id_bits_scale_with_topology() {
        let small = generators::ring(4, 1); // 4 links -> 2 bits
        let large = generators::complete(12, 1); // 66 links -> 7 bits
        assert_eq!(FcpAgent::new(&small).link_id_bits(), 2);
        assert_eq!(FcpAgent::new(&large).link_id_bits(), 7);
    }
}
