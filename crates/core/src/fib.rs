//! Staged forwarding-information base (FIB) and the recovery walker of
//! traffic replay.
//!
//! Sweeps walk *single packets*; traffic replay prices *whole demand
//! matrices*, and a failure disturbs only the few flows whose shortest
//! path crossed it. This module holds the two structures replay needs
//! to touch nothing else:
//!
//! * [`DenseFib`] — every destination's failure-free tree staged as a
//!   flat run of 16-byte [`FibFrame`]s in **DFS pre-order**, each frame
//!   carrying the extent of its subtree. The sources whose path crosses
//!   a failed link are the subtrees hanging below the failed tree edges
//!   — the *cones* — and in pre-order a cone is one contiguous slice:
//!   an index from each link to the tree edges over it names the
//!   destinations a failed set touches and where their cones start
//!   ([`DenseFib::roots_into`]), and everything replay does per
//!   scenario streams over those slices.
//! * [`FlowUnit`] — one open (failed set, destination) unit on a
//!   worker's [`FlowScratch`], and the only way to walk. A unit climbs
//!   each source's failure-free path to its **point**, the first
//!   router that does anything but forward a still-unmarked packet
//!   along the tree, settles each point **once** — **priced, or
//!   walked**: priced as a chain of staged episodes and tree segments
//!   when the agent has one and the chain delivers within the budget,
//!   else walked once through the walker's one plain hop loop — and
//!   answers every source behind a point by arithmetic
//!   ([`FlowUnit::walk`], what the scenario sweeps call).
//!   Replay settles the points itself through [`recover_flow_with`],
//!   which also hands it the darts to load. Nothing here allocates per
//!   flow.
//!
//! Delivering the unaffected flows along their tree paths without ever
//! consulting the agent is sound for every scheme in this workspace
//! because all of them are **shortest-path confluent**: in the absence
//! of failures on the canonical shortest path, their decisions follow
//! the failure-free routing table exactly (PR forwards along the
//! routing table while the PR bit is unset; FCP routes on its
//! carried-failure graph, initially empty; LFA's primary next hop *is*
//! the shortest path; reconvergence's survivor path equals the base
//! path when the base path survives). The determinism suite asserts the
//! equivalence end to end against per-flow `walk_packet` references.

use std::sync::atomic::{AtomicU64, Ordering};

use pr_graph::{AllPairs, Dart, Graph, LinkId, LinkSet, NodeId, SpTree, TreeChildren};

use crate::walker::walk_hops;
use crate::{
    DropReason, ForwardDecision, ForwardingAgent, Leg, MemoStats, Recycled, StagedEpisode,
    WalkResult, WalkScratch,
};

/// Identity of one construction of a value that is expensive to
/// compare: every [`Stamp::fresh`] is different from every other in
/// the process, clones share their original's. Caches key on it
/// instead of on an address or a length, neither of which survives a
/// drop-and-rebuild (`pr-traffic`'s replay baseline is the user).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Stamp(u64);

impl Stamp {
    /// A stamp no earlier call returned.
    pub fn fresh() -> Stamp {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        Stamp(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

/// One staged hop of a destination tree: a node, its tree parent, the
/// dart between them and where the node's subtree ends — everything
/// the cone passes touch, packed into 16 bytes so a subtree streams
/// through cache linearly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FibFrame {
    /// The router this frame labels.
    pub node: u32,
    /// Head of the router's next dart (its tree parent).
    pub parent: u32,
    /// The next dart itself (`node → parent`).
    pub dart: u32,
    /// One past the last frame of this router's subtree, as an index
    /// into the destination's run: the subtree is
    /// `frames[own index..end]`, this frame first.
    pub end: u32,
}

impl FibFrame {
    /// The undirected link of the frame's dart.
    #[inline]
    pub fn link(&self) -> LinkId {
        Dart(self.dart).link()
    }
}

/// One entry of [`DenseFib`]'s link index: the frame at `at` of
/// `dest`'s run routes over the link — a cone's root when it fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TreeEdge {
    /// The destination whose tree holds the edge.
    pub dest: u32,
    /// Index of the edge's frame in the destination's run.
    pub at: u32,
}

/// Staging position of a node without a frame (the destination
/// itself, or a node the base graph cannot reach it from).
const NO_FRAME: u32 = u32::MAX;

/// Dense per-destination FIB staging for the replay dataplane.
///
/// Each destination's whole tree is a flat run of [`FibFrame`]s in
/// **DFS pre-order**, children in ascending node id: every parent
/// appears before its children and every subtree is the contiguous
/// slice `frames[i..frames[i].end]`. A link index in CSR form lists,
/// per link, the [`TreeEdge`]s over it in ascending destination (a
/// tree crosses a link in one direction: one per destination at most).
/// With these, the sources a failed set cuts off from their shortest
/// path are enumerated in O(subtree) ([`DenseFib::roots_into`]), and
/// one backward pass over a slice sums per-subtree demand and credits
/// each tree dart its subtree's load — children always sit behind
/// their parent.
///
/// Compiled once per topology from the network's failure-free trees
/// and shared read-only by every replay worker.
#[derive(Debug, Clone)]
pub struct DenseFib {
    /// All destinations' frames, destination-major; within one
    /// destination the frames are in DFS pre-order and cover exactly
    /// the reachable non-destination nodes.
    frames: Vec<FibFrame>,
    /// `frames[offsets[d] .. offsets[d + 1]]` stages destination `d`.
    offsets: Vec<u32>,
    /// Every frame once more, grouped by the link of its dart.
    edges: Vec<TreeEdge>,
    /// `edges[link_offsets[l] .. link_offsets[l + 1]]` cross link `l`.
    link_offsets: Vec<u32>,
    nodes: usize,
    stamp: Stamp,
}

impl DenseFib {
    /// Stages every destination tree of `base`.
    pub fn from_base(graph: &Graph, base: &AllPairs) -> DenseFib {
        let n = graph.node_count();
        let mut frames = Vec::with_capacity(n.saturating_sub(1) * n);
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        let mut pos = vec![NO_FRAME; n];
        let mut stack: Vec<NodeId> = Vec::new();
        for dest in graph.nodes() {
            let tree = base.towards(dest);
            let children = TreeChildren::build(graph, tree);
            let start = frames.len();
            pos.fill(NO_FRAME);
            // Children are pushed in descending id so they pop — and
            // are staged — in ascending id.
            stack.extend(children.of(dest).iter().rev());
            while let Some(u) = stack.pop() {
                let d = tree.next_dart(u).expect("a tree child routes towards the destination");
                let at = (frames.len() - start) as u32;
                pos[u.index()] = at;
                // A leaf's subtree ends right behind itself.
                frames.push(FibFrame {
                    node: u.0,
                    parent: graph.dart_head(d).0,
                    dart: d.0,
                    end: at + 1,
                });
                stack.extend(children.of(u).iter().rev());
            }
            // Subtree extents, leaves first: a frame's subtree ends
            // where its last child's does.
            let run = &mut frames[start..];
            for i in (0..run.len()).rev() {
                let p = pos[run[i].parent as usize];
                if p != NO_FRAME {
                    run[p as usize].end = run[p as usize].end.max(run[i].end);
                }
            }
            offsets.push(frames.len() as u32);
        }

        // The link index, by counting sort over ascending destinations.
        let mut link_offsets = vec![0u32; graph.link_count() + 1];
        for f in &frames {
            link_offsets[f.link().index() + 1] += 1;
        }
        for l in 0..graph.link_count() {
            link_offsets[l + 1] += link_offsets[l];
        }
        let mut cursor = link_offsets.clone();
        let mut edges = vec![TreeEdge { dest: 0, at: 0 }; frames.len()];
        for (dest, run) in offsets.windows(2).enumerate() {
            for (at, f) in frames[run[0] as usize..run[1] as usize].iter().enumerate() {
                let slot = &mut cursor[f.link().index()];
                edges[*slot as usize] = TreeEdge { dest: dest as u32, at: at as u32 };
                *slot += 1;
            }
        }
        DenseFib { frames, offsets, edges, link_offsets, nodes: n, stamp: Stamp::fresh() }
    }

    /// Number of nodes (= destinations) staged.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// The stamp of this staging (see [`Stamp`]).
    pub fn stamp(&self) -> Stamp {
        self.stamp
    }

    /// The staged frames of `dest`'s tree, in DFS pre-order (parents
    /// before children, subtrees contiguous, destination excluded).
    #[inline]
    pub fn frames(&self, dest: NodeId) -> &[FibFrame] {
        let (s, e) = (self.offsets[dest.index()] as usize, self.offsets[dest.index() + 1] as usize);
        &self.frames[s..e]
    }

    /// The tree edges over `link`, in ascending destination.
    #[inline]
    pub fn tree_edges(&self, link: LinkId) -> &[TreeEdge] {
        let (s, e) = (self.link_offsets[link.index()], self.link_offsets[link.index() + 1]);
        &self.edges[s as usize..e as usize]
    }

    /// Finds the **cones** of every destination under `failed`: the
    /// maximal subtrees hanging below a failed tree edge, as their
    /// roots — the frame of the node whose own next dart failed — in
    /// ascending `(destination, frame)` order. The cone of a root `r`
    /// is `frames(r.dest)[r.at..frames(r.dest)[r.at].end]`; a
    /// destination's cones are disjoint, and their union is exactly the
    /// set of sources whose base-tree path towards it crosses a failed
    /// link ([`DenseFib::affected_into`] computes the same set in
    /// O(n)). A destination without a root is not looked at.
    ///
    /// The roots are the failed links' index entries, sorted when there
    /// are several links; a root inside another root's subtree is
    /// dropped — its cone is covered — whichever of the two the failed
    /// set lists first. `roots` is sized once: warm, nothing allocates.
    pub fn roots_into(&self, failed: &LinkSet, roots: &mut Vec<TreeEdge>) {
        roots.clear();
        // No link has more entries than there are destinations.
        roots.reserve(failed.len() * self.nodes);
        for link in failed.iter() {
            roots.extend_from_slice(self.tree_edges(link));
        }
        if failed.len() > 1 {
            // Outermost first: pre-order puts an enclosing root before
            // everything nested in it.
            roots.sort_unstable();
            let (mut dest, mut covered) = (u32::MAX, 0);
            roots.retain(|r| {
                if r.dest != dest {
                    (dest, covered) = (r.dest, 0);
                }
                let outermost = r.at >= covered;
                if outermost {
                    covered = self.frames(NodeId(r.dest))[r.at as usize].end;
                }
                outermost
            });
        }
    }

    /// Computes the **affected set** of `dest` under `failed` into the
    /// node bitset `affected` (cleared and resized to one bit per
    /// node): bit `u` is set iff `u`'s base-tree path towards `dest`
    /// crosses a failed link — exactly
    /// [`SpTree::path_crosses`](pr_graph::SpTree::path_crosses) for
    /// every source at once, in one pass over the whole tree. Each
    /// frame ORs its parent's bit with its own dart's failure bit;
    /// pre-order guarantees the parent's bit is final by the time a
    /// child reads it. Replay enumerates the same set through
    /// [`DenseFib::roots_into`] without visiting the unaffected nodes;
    /// this full pass is what the tests hold that against.
    pub fn affected_into(&self, dest: NodeId, failed: &LinkSet, affected: &mut Vec<u64>) {
        pr_graph::bits::clear_and_resize(affected, self.nodes);
        for f in self.frames(dest) {
            if failed.contains(f.link()) || pr_graph::bits::test(affected, f.parent as usize) {
                pr_graph::bits::set(affected, f.node as usize);
            }
        }
    }
}

/// Outcome of one flow of a unit ([`FlowUnit::walk`],
/// [`recover_flow_with`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowWalk {
    /// The agent delivered the flow over a detour.
    Recovered {
        /// Weighted cost of the delivered path.
        cost: u64,
        /// Hop count of the delivered path.
        hops: u32,
    },
    /// The agent's walk ended in a drop.
    Dropped(DropReason),
}

impl FlowWalk {
    /// `true` if the flow reached its destination.
    pub fn is_delivered(&self) -> bool {
        matches!(self, FlowWalk::Recovered { .. })
    }

    /// Delivered-path cost, if delivered.
    pub fn cost(&self) -> Option<u64> {
        match *self {
            FlowWalk::Recovered { cost, .. } => Some(cost),
            FlowWalk::Dropped(_) => None,
        }
    }
}

/// A table entry that is live only while `unit` is the open unit's
/// stamp, so opening a unit forgets every entry in O(1).
#[derive(Debug, Clone, Copy)]
struct Stamped<T> {
    unit: u32,
    value: T,
}

/// Reusable per-worker state of one scheme's walks, replay's and the
/// sweeps' alike: the livelock detector, the dart buffer a walk stages
/// its path in (released to a caller's `on_dart` hook only once the
/// flow is known to deliver, so a dropped walk leaves no load behind),
/// the unit's two node-indexed tables — where each climbed router's
/// **point** is, and what each point's one settlement came to — the
/// episodes of the failed set in hand, which every unit under that set
/// chains, and the walk counters. All of it is sized to the topology
/// once.
///
/// A scratch serves one agent on one topology, as a worker's does:
/// the staged episodes are kept across units while the failed set
/// stays the same, and [`FlowScratch::begin_scenario`] forgets them.
///
/// Walking goes through [`FlowScratch::unit`].
#[derive(Debug)]
pub struct FlowScratch<S> {
    walk: WalkScratch<S>,
    path: Vec<Dart>,
    /// Per router, the point the climb from it ends at.
    point: Vec<Stamped<u32>>,
    /// Per point, the outcome of its walk.
    outcome: Vec<Stamped<FlowWalk>>,
    /// Stamp of the open unit (starts at 1: zeroed entries are stale).
    unit: u32,
    episodes: Episodes,
    /// Walks, walked steps, shared sources and chains since the counters
    /// were last taken ([`FlowUnit::take_stats`]).
    stats: MemoStats,
}

impl<S> FlowScratch<S> {
    /// Fresh scratch state; buffers grow to the topology on first use.
    pub fn new() -> FlowScratch<S> {
        FlowScratch {
            walk: WalkScratch::new(),
            path: Vec::new(),
            point: Vec::new(),
            outcome: Vec::new(),
            unit: 1,
            episodes: Episodes::new(),
            stats: MemoStats::default(),
        }
    }

    /// Scenario boundary: forgets the staged episodes, so the next
    /// chain stages its own whatever failed set it is under.
    pub fn begin_scenario(&mut self) {
        self.episodes.forget();
    }

    /// Opens the work unit of flows towards `tree.dest` under `failed`,
    /// forwarded by `agent` — `tree` being the destination's
    /// failure-free tree, the one the agent forwards along while it
    /// meets no failure. Forgets the previous unit's points and returns
    /// the guard the flow walkers take. Points and their outcomes are
    /// valid for exactly one such unit, and the guard is the only way
    /// to walk, so the function that owns the destination loop cannot
    /// forget the boundary.
    pub fn unit<'a, A: ForwardingAgent<State = S>>(
        &'a mut self,
        graph: &'a Graph,
        agent: &'a A,
        tree: &'a SpTree,
        failed: &'a LinkSet,
    ) -> FlowUnit<'a, A> {
        let n = graph.node_count();
        if self.unit == u32::MAX || self.point.len() != n {
            // A new topology, or stamp wrap-around (once per 2^32
            // units): no old entry may alias the restarted counter.
            self.point.clear();
            self.point.resize(n, Stamped { unit: 0, value: 0 });
            self.outcome.clear();
            let never = FlowWalk::Dropped(DropReason::NoRoute);
            self.outcome.resize(n, Stamped { unit: 0, value: never });
            self.unit = 0;
        }
        self.unit += 1;
        FlowUnit { graph, agent, tree, failed, scratch: self }
    }
}

/// A dart whose episode is not staged.
const UNSTAGED: u32 = u32::MAX;

/// The episodes of one failed set, staged on first need and shared by
/// every unit under that set — each one is a function of its failed
/// dart alone, whatever the destination — plus the bookkeeping of the
/// chain in hand ([`FlowUnit`], "Chains").
#[derive(Debug)]
struct Episodes {
    /// The failed set the staging is for.
    failed: LinkSet,
    /// Per dart, the slot of its staged episode, or [`UNSTAGED`].
    slot: Vec<u32>,
    /// The staged episodes; the first `used` are live.
    staged: Vec<StagedEpisode>,
    used: usize,
    /// Per slot, the chain and the stamp that last entered it.
    entered: Vec<(u32, u64)>,
    /// Counter of the chain in hand (0: none yet).
    chain: u32,
    /// The chain in hand, piece by piece, for its darts.
    pieces: Vec<Piece>,
}

/// One piece of a chain.
#[derive(Debug, Clone, Copy)]
enum Piece {
    /// The first `len` darts of the episode staged in `slot`.
    Episode { slot: u32, len: u32 },
    /// The tree path from `from` up to `to`.
    Tree { from: NodeId, to: NodeId },
}

impl Episodes {
    fn new() -> Episodes {
        Episodes {
            failed: LinkSet::empty(0),
            slot: Vec::new(),
            staged: Vec::new(),
            used: 0,
            entered: Vec::new(),
            chain: 0,
            pieces: Vec::new(),
        }
    }

    /// Un-stages every staged episode.
    fn forget(&mut self) {
        for staged in &self.staged[..self.used] {
            self.slot[staged.out().expect("a used slot holds an episode").index()] = UNSTAGED;
        }
        self.used = 0;
    }

    /// Opens a chain under `failed`: the staging is kept if it is of
    /// `failed`, and forgotten otherwise.
    fn open(&mut self, graph: &Graph, failed: &LinkSet) {
        self.pieces.clear();
        if self.slot.len() != graph.dart_count() {
            self.slot.clear();
            self.slot.resize(graph.dart_count(), UNSTAGED);
            self.used = 0;
        }
        if self.failed != *failed {
            self.forget();
            self.failed.clone_from(failed);
        }
        if self.chain == u32::MAX {
            self.entered.fill((0, 0));
            self.chain = 0;
        }
        self.chain += 1;
    }

    /// The slot of `out`'s episode, staged on first need; `None` if the
    /// agent stages none.
    fn slot<A: ForwardingAgent>(
        &mut self,
        agent: &A,
        out: Dart,
        failed: &LinkSet,
    ) -> Option<usize> {
        let slot = self.slot[out.index()];
        if slot != UNSTAGED {
            return Some(slot as usize);
        }
        if self.used == self.staged.len() {
            self.staged.push(StagedEpisode::new());
            self.entered.push((0, 0));
        }
        if !agent.stage_episode(out, failed, &mut self.staged[self.used]) {
            return None;
        }
        self.slot[out.index()] = self.used as u32;
        self.used += 1;
        Some(self.used - 1)
    }

    /// Enters `slot`'s episode under `stamp` in the chain in hand;
    /// `false` if the chain entered it under that stamp before.
    fn enter(&mut self, slot: usize, stamp: u64) -> bool {
        let fresh = self.entered[slot] != (self.chain, stamp);
        self.entered[slot] = (self.chain, stamp);
        fresh
    }
}

impl<S> Default for FlowScratch<S> {
    fn default() -> Self {
        FlowScratch::new()
    }
}

/// One open (failed set, destination) unit on a [`FlowScratch`]: what
/// every flow of the unit has in common, and therefore everything the
/// unit's point tables are keyed by. Obtained from
/// [`FlowScratch::unit`].
///
/// # One walk per failure point
///
/// A packet is forwarded along the destination's failure-free tree,
/// header untouched, until some router does anything else. That router
/// is the source's **point** ([`FlowUnit::point_of`]), and by the
/// [`ForwardingAgent::decide`] contract — a default-header decision
/// does not depend on `ingress` — what happens from there on is the
/// same for every source whose tree path reaches the point, and the
/// same as for a packet *starting* there. So a unit walks each point
/// once and answers every source behind it by arithmetic: tree cost to
/// the point plus the point's walk ([`FlowUnit::walk`]).
///
/// Why that is exact, for any deterministic agent obeying the contract:
/// from the point on, the visited triples of the source's walk are
/// those of the point's own; a delivered trajectory never re-enters
/// the clear prefix with a default header (it would meet the point
/// again in the state it left it in, and cycle); and a point that
/// drops, drops every source behind it.
///
/// # Chains: a point's walk, priced
///
/// An agent with episodes ([`ForwardingAgent::stage_episode`],
/// [`ForwardingAgent::next_episode`]: Packet Re-cycling) does not walk
/// a point hop by hop. From the point its packet follows an episode,
/// staged once per failed set on the scratch and asked for the
/// destination ([`StagedEpisode::recycle`]): delivered inside it, or
/// through it to its checkpoint, where the agent either carries on
/// along the next episode under the same stamp or resumes routing — on
/// the tree, up to the next router whose point it is
/// ([`FlowUnit::point_of`]): the destination, or a router whose tree
/// dart is failed, which opens a fresh episode. The walk is that chain
/// of episodes and tree segments, its cost and hops summed from the
/// staged prefixes and the tree's labels. Only a chain that delivers
/// within the budget is priced: a delivered trajectory never repeats a
/// (router, ingress, header) triple, so the hop loop would take exactly
/// its darts. Anything else — an (episode, stamp) the chain entered
/// before, an empty episode, a budget the chain outgrows, a router the
/// agent has no episode for — is walked (DESIGN.md §8, "The episode
/// chain").
pub struct FlowUnit<'a, A: ForwardingAgent> {
    graph: &'a Graph,
    agent: &'a A,
    tree: &'a SpTree,
    failed: &'a LinkSet,
    scratch: &'a mut FlowScratch<A::State>,
}

impl<A: ForwardingAgent> FlowUnit<'_, A>
where
    A::State: std::hash::Hash + Eq,
{
    /// The **point** of `src`: the first router on its failure-free
    /// path — `src` itself included — where the agent, asked with a
    /// default header, does anything but forward on the live tree dart
    /// and leave the header default. The destination if there is none
    /// (no failure touches the path). Not "the first failed tree link":
    /// FCP marks the header at any router *incident* to a failed link,
    /// on the tree path or not.
    ///
    /// Each router is asked once per unit: the climb stops at the first
    /// router an earlier climb passed and marks every router it passes.
    pub fn point_of(&mut self, src: NodeId) -> NodeId {
        let unit = self.scratch.unit;
        let (mut at, mut ingress) = (src, None);
        let point = loop {
            let known = self.scratch.point[at.index()];
            if known.unit == unit {
                break NodeId(known.value);
            }
            let Some(dart) = self.clear_dart(at, ingress) else { break at };
            (at, ingress) = (self.graph.dart_head(dart), Some(dart));
        };
        let mut at = src;
        loop {
            let slot = &mut self.scratch.point[at.index()];
            if slot.unit == unit {
                break;
            }
            *slot = Stamped { unit, value: point.0 };
            if at == point {
                break;
            }
            let dart = self.tree.next_dart(at).expect("the climb went over this router");
            at = self.graph.dart_head(dart);
        }
        point
    }

    /// The tree dart of `at` if `at` is **clear**: the dart is live
    /// and the agent, asked with a default header, forwards on it and
    /// leaves the header default. `ingress` is the dart the climb came
    /// in by; only the debug-build contract check reads it.
    fn clear_dart(&self, at: NodeId, ingress: Option<Dart>) -> Option<Dart> {
        let dart = self.tree.next_dart(at).filter(|&d| !self.failed.contains_dart(d))?;
        let dest = self.tree.dest;
        let mut header = A::State::default();
        let decision = self.agent.decide(at, None, dest, &mut header, self.failed);
        if cfg!(debug_assertions) && ingress.is_some() {
            let mut arrived = A::State::default();
            let again = self.agent.decide(at, ingress, dest, &mut arrived, self.failed);
            debug_assert!(
                again == decision && arrived == header,
                "{}: a default-header decision at {at} depends on the ingress",
                self.agent.label()
            );
        }
        let clear = decision == ForwardDecision::Forward(dart) && header == A::State::default();
        clear.then_some(dart)
    }

    /// Answers one packet of the unit from `src`: outcome, cost and
    /// hops of [`walk_packet`](crate::walk_packet) on the same flow,
    /// without its darts — what a sweep wants of a walk. The source's
    /// point is settled — priced as a chain, or walked — if this unit
    /// has not settled it yet, and `src` is the tree path to the point
    /// plus that walk. A dropped point drops `src` with the point's
    /// reason (the walker's own may be another one: a loop the point's
    /// walk detects can be a spent TTL from further away).
    ///
    /// Per-source walking is the **TTL fallback**: a source whose
    /// prefix plus the point's steps does not fit `ttl` is walked from
    /// where it starts.
    pub fn walk(&mut self, src: NodeId, ttl: usize) -> FlowWalk {
        let point = self.point_of(src);
        let recorded = self.scratch.outcome[point.index()];
        let settled = if recorded.unit == self.scratch.unit {
            recorded.value
        } else if let Some(priced) = self.chain(point, ttl) {
            priced
        } else {
            self.hop_walk(point, ttl, true)
        };
        let answer = match settled {
            FlowWalk::Recovered { cost, hops } => {
                let (ahead_cost, ahead_hops) = self.ahead(src, point);
                if ahead_hops as usize + hops as usize > ttl {
                    return self.hop_walk(src, ttl, false);
                }
                FlowWalk::Recovered { cost: ahead_cost + cost, hops: ahead_hops + hops }
            }
            dropped => dropped,
        };
        self.scratch.stats.shared += 1;
        answer
    }

    /// Cost and hops of the tree path from `src` to its `point`.
    fn ahead(&self, src: NodeId, point: NodeId) -> (u64, u32) {
        if src == point {
            return (0, 0);
        }
        let base =
            |v| self.tree.cost(v).zip(self.tree.hops(v)).expect("a climbed router is in the tree");
        let ((cost, hops), (point_cost, point_hops)) = (base(src), base(point));
        (cost - point_cost, hops - point_hops)
    }

    /// Prices the walk from `point`, a router its packet reaches with a
    /// default header, as a chain of episodes and tree segments (see
    /// "Chains" above), records the outcome as the point's and leaves
    /// the pieces for [`FlowUnit::chained_darts`]. `None` unless the
    /// chain delivers within `ttl`: the point is then walked.
    fn chain(&mut self, point: NodeId, ttl: usize) -> Option<FlowWalk> {
        let (graph, agent, failed, dest) = (self.graph, self.agent, self.failed, self.tree.dest);
        let mut leg = agent.next_episode(point, dest, None, failed)?;
        self.scratch.episodes.open(graph, failed);
        let (mut cost, mut hops) = (0, 0);
        loop {
            let episodes = &mut self.scratch.episodes;
            let slot = episodes.slot(agent, leg.out, failed)?;
            if !episodes.enter(slot, leg.stamp) {
                return None;
            }
            let staged = &episodes.staged[slot];
            let (len, checkpoint) = match staged.recycle(dest)? {
                Recycled::Inside { at, cost: prefix } => {
                    cost += prefix;
                    (at + 1, None)
                }
                Recycled::Through { cost: whole, checkpoint } => {
                    cost += whole;
                    (staged.darts().len(), Some(checkpoint))
                }
            };
            hops += len;
            if hops > ttl {
                return None;
            }
            episodes.pieces.push(Piece::Episode { slot: slot as u32, len: len as u32 });
            let Some(checkpoint) = checkpoint else { break };
            let at = graph.dart_tail(checkpoint);
            let cycling = Leg { out: checkpoint, stamp: leg.stamp };
            if let Some(next) = agent.next_episode(at, dest, Some(cycling), failed) {
                leg = next;
                continue;
            }
            // Resumed: on the tree up to the next point.
            let next = self.point_of(at);
            let (tree_cost, tree_hops) = self.ahead(at, next);
            (cost, hops) = (cost + tree_cost, hops + tree_hops as usize);
            if hops > ttl {
                return None;
            }
            if next != at {
                self.scratch.episodes.pieces.push(Piece::Tree { from: at, to: next });
            }
            if next == dest {
                break;
            }
            leg = agent.next_episode(next, dest, None, failed)?;
        }
        let flow = FlowWalk::Recovered { cost, hops: hops as u32 };
        self.scratch.outcome[point.index()] = Stamped { unit: self.scratch.unit, value: flow };
        self.scratch.stats.chained += 1;
        Some(flow)
    }

    /// Hands the darts of the chain [`FlowUnit::chain`] priced last to
    /// `on_dart`, in the order the packet takes them.
    fn chained_darts(&self, mut on_dart: impl FnMut(Dart)) {
        let episodes = &self.scratch.episodes;
        for &piece in &episodes.pieces {
            match piece {
                Piece::Episode { slot, len } => {
                    let darts = &episodes.staged[slot as usize].darts()[..len as usize];
                    darts.iter().copied().for_each(&mut on_dart);
                }
                Piece::Tree { from, to } => {
                    let mut at = from;
                    while at != to {
                        let d = self.tree.next_dart(at).expect("the chain climbed this router");
                        on_dart(d);
                        at = self.graph.dart_head(d);
                    }
                }
            }
        }
    }

    /// Runs the walker's one hop loop from `src`, staging the darts it
    /// takes. When `src` is its own point (`is_point`) the outcome is
    /// recorded for the sources behind it — unless the budget ran out,
    /// which says nothing about a larger one.
    fn hop_walk(&mut self, src: NodeId, ttl: usize, is_point: bool) -> FlowWalk {
        let FlowScratch { walk, path, outcome, unit, stats, .. } = &mut *self.scratch;
        path.clear();
        let hops = walk_hops(
            self.graph,
            self.agent,
            src,
            self.tree.dest,
            self.failed,
            ttl,
            walk,
            None,
            |d| path.push(d),
        );
        stats.walks += 1;
        stats.walked_steps += hops.steps as u64;
        let flow = match hops.result {
            WalkResult::Delivered => {
                FlowWalk::Recovered { cost: hops.cost, hops: hops.steps as u32 }
            }
            WalkResult::Dropped(reason) => FlowWalk::Dropped(reason),
        };
        if is_point && flow != FlowWalk::Dropped(DropReason::TtlExpired) {
            outcome[src.index()] = Stamped { unit: *unit, value: flow };
        }
        flow
    }

    /// The scratch's walk counters since they were last taken: `walks`,
    /// `walked_steps`, `shared` and `chained` (a flow unit has no memo,
    /// so the memo's counters stay 0).
    pub fn take_stats(&mut self) -> MemoStats {
        std::mem::take(&mut self.scratch.stats)
    }
}

/// Settles one flow of the unit from `src` itself and hands its darts
/// to `on_dart` — the per-link load accounting hook of the replay
/// dataplane, which calls it once per **point** of a destination's
/// cones, carrying the summed demand of the sources behind the point,
/// and per source only as its TTL fallback.
///
/// A point is priced as a chain if its agent has one and it delivers
/// within `ttl` ([`FlowUnit`], "Chains"), its darts read off the
/// staged episodes and the tree; anything else is the walker's one
/// plain hop loop. Either way outcome, cost, hops and emitted darts are
/// those of [`walk_packet`](crate::walk_packet) on the same flow. `on_dart`
/// fires for every dart of a *delivered* path, in order; a dropped
/// walk emits nothing. When `src` is its own point
/// ([`FlowUnit::point_of`]) the outcome is recorded as the point's, so
/// [`FlowUnit::walk`] answers every source behind it without another
/// walk — except a spent `ttl`, which is no verdict under a larger one.
pub fn recover_flow_with<A: ForwardingAgent>(
    unit: &mut FlowUnit<'_, A>,
    src: NodeId,
    ttl: usize,
    on_dart: impl FnMut(Dart),
) -> FlowWalk
where
    A::State: std::hash::Hash + Eq,
{
    let is_point = unit.point_of(src) == src;
    if let Some(priced) = is_point.then(|| unit.chain(src, ttl)).flatten() {
        unit.chained_darts(on_dart);
        return priced;
    }
    let flow = unit.hop_walk(src, ttl, is_point);
    if flow.is_delivered() {
        unit.scratch.path.iter().copied().for_each(on_dart);
    }
    flow
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generous_ttl, DiscriminatorKind, PrMode, PrNetwork};
    use pr_embedding::{CellularEmbedding, RotationSystem};
    use pr_graph::{bits, generators, SpTree};
    use rand::{rngs::StdRng, SeedableRng};

    /// A compiled network and the FIB staged from its trees.
    fn compile(g: &Graph) -> (PrNetwork, DenseFib) {
        let emb = CellularEmbedding::new(g, RotationSystem::identity(g)).unwrap();
        let net =
            PrNetwork::compile(g, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
        let dense = DenseFib::from_base(g, net.base());
        (net, dense)
    }

    fn ring_setup() -> (Graph, PrNetwork, DenseFib) {
        let g = generators::ring(6, 1);
        let (net, dense) = compile(&g);
        (g, net, dense)
    }

    #[test]
    fn compile_and_from_base_agree() {
        // The staged FIB holds the next darts of the compiled routing
        // tables, which are those of a tree computed from nothing.
        let (g, net, dense) = ring_setup();
        for dest in g.nodes() {
            let tree = SpTree::towards_all_live(&g, dest);
            let mut staged = vec![None; g.node_count()];
            for f in dense.frames(dest) {
                staged[f.node as usize] = Some(Dart(f.dart));
            }
            for node in g.nodes() {
                assert_eq!(staged[node.index()], net.routing().next_dart(node, dest));
                assert_eq!(staged[node.index()], tree.next_dart(node));
            }
        }
        assert_eq!(dense.node_count(), g.node_count());
        assert_ne!(
            dense.stamp(),
            DenseFib::from_base(&g, net.base()).stamp(),
            "a rebuild is a new stamp"
        );
        assert_eq!(dense.stamp(), dense.clone().stamp());
    }

    #[test]
    fn dense_fib_frames_stage_every_tree_in_canonical_order() {
        // The canonical order of the staging is DFS pre-order with
        // children in ascending id, each frame knowing its subtree.
        let mut rng = StdRng::seed_from_u64(7);
        let mesh = generators::random_two_edge_connected(14, 6, 1..=8, &mut rng);
        for g in [generators::ring(6, 1), mesh] {
            let (net, dense) = compile(&g);
            for dest in g.nodes() {
                let tree = net.base().towards(dest);
                let frames = dense.frames(dest);
                // Every reachable non-destination node appears exactly
                // once, with the tree's next dart, parents staged
                // before children.
                assert_eq!(frames.len(), g.node_count() - 1);
                let mut seen = vec![false; g.node_count()];
                seen[dest.index()] = true;
                for (i, f) in frames.iter().enumerate() {
                    let u = NodeId(f.node);
                    assert!(!seen[u.index()], "node staged twice");
                    seen[u.index()] = true;
                    assert!(seen[f.parent as usize], "parent must be staged before its children");
                    assert_eq!(Some(Dart(f.dart)), tree.next_dart(u));
                    assert_eq!(g.dart_head(Dart(f.dart)), NodeId(f.parent));
                    // The link index finds the frame from its link.
                    let edge = TreeEdge { dest: dest.0, at: i as u32 };
                    assert!(dense.tree_edges(f.link()).contains(&edge));
                    // The subtree is exactly frames[i..end]: the nodes
                    // whose tree path passes through `u`.
                    let end = f.end as usize;
                    assert!(i < end && end <= frames.len());
                    for (j, other) in frames.iter().enumerate() {
                        let through_u = tree
                            .path_nodes(&g, NodeId(other.node))
                            .is_some_and(|path| path.contains(&u));
                        assert_eq!(
                            (i..end).contains(&j),
                            through_u,
                            "{dest}: {} under {u}",
                            other.node
                        );
                    }
                    // Siblings ascend.
                    if let Some(next) = frames.get(end).filter(|next| next.parent == f.parent) {
                        assert!(next.node > f.node);
                    }
                }
                assert!(seen.iter().all(|&s| s));
            }
            // The index holds every frame once, each link's entries in
            // ascending destination, one per destination at most.
            let indexed: usize = g.links().map(|l| dense.tree_edges(l).len()).sum();
            assert_eq!(indexed, g.node_count() * (g.node_count() - 1));
            for link in g.links() {
                assert!(dense.tree_edges(link).windows(2).all(|w| w[0].dest < w[1].dest));
            }
        }
    }

    /// Fails when padding comes back into the staged hop.
    #[test]
    fn a_frame_is_sixteen_bytes_and_an_index_entry_eight() {
        assert_eq!(std::mem::size_of::<FibFrame>(), 16);
        assert_eq!(std::mem::size_of::<TreeEdge>(), 8);
    }

    #[test]
    fn affected_set_matches_path_crosses_per_source() {
        let (g, net, dense) = ring_setup();
        let mut affected = Vec::new();
        for link in g.links() {
            let failed = LinkSet::from_links(g.link_count(), [link]);
            for dest in g.nodes() {
                let tree = net.base().towards(dest);
                dense.affected_into(dest, &failed, &mut affected);
                for src in g.nodes() {
                    assert_eq!(
                        bits::test(&affected, src.index()),
                        tree.path_crosses(&g, src, &failed),
                        "{link} {src}->{dest}"
                    );
                }
            }
        }
    }

    #[test]
    fn scan_matches_base_tree_classification() {
        // The cone scan enumerates exactly the sources whose base path
        // crosses a failed link, as disjoint ascending slices — nested
        // failed tree edges included, in either listing order.
        let mut rng = StdRng::seed_from_u64(11);
        let g = generators::random_two_edge_connected(12, 5, 1..=8, &mut rng);
        let (net, dense) = compile(&g);
        let links: Vec<LinkId> = g.links().collect();
        let mut roots = Vec::new();
        let mut nested = 0;
        for (i, &a) in links.iter().enumerate() {
            for &b in &links[i..] {
                let failed = LinkSet::from_links(g.link_count(), [a, b]);
                dense.roots_into(&failed, &mut roots);
                assert!(roots.windows(2).all(|w| w[0] < w[1]), "ascending (destination, frame)");
                // Sized for any pair by the first: no later one grows it.
                assert!(roots.capacity() >= failed.len() * g.node_count());
                for dest in g.nodes() {
                    let tree = net.base().towards(dest);
                    let mut covered = 0;
                    let mut in_cone = vec![false; g.node_count()];
                    for root in roots.iter().filter(|r| r.dest == dest.0) {
                        let start = root.at;
                        let end = dense.frames(dest)[start as usize].end;
                        assert!(covered <= start && start < end, "ascending and disjoint");
                        covered = end;
                        let frames = &dense.frames(dest)[start as usize..end as usize];
                        assert!(
                            failed.contains(frames[0].link()),
                            "a cone starts at a failed edge"
                        );
                        nested += frames[1..].iter().filter(|f| failed.contains(f.link())).count();
                        for f in frames {
                            in_cone[f.node as usize] = true;
                        }
                    }
                    for src in g.nodes() {
                        assert_eq!(
                            in_cone[src.index()],
                            tree.path_crosses(&g, src, &failed),
                            "{a}+{b} {src}->{dest}"
                        );
                    }
                }
            }
        }
        assert!(nested > 0, "the fixture must nest one failed tree edge under another");
    }

    #[test]
    fn blocked_flows_recover_through_the_agent() {
        let (g, net, _) = ring_setup();
        let agent = net.agent(&g);
        let direct = g.find_link(NodeId(1), NodeId(0)).unwrap();
        let failed = LinkSet::from_links(g.link_count(), [direct]);
        let mut scratch = FlowScratch::new();
        let tree = SpTree::towards_all_live(&g, NodeId(0));
        let mut unit = scratch.unit(&g, &agent, &tree, &failed);
        let mut darts = Vec::new();
        let walk = recover_flow_with(&mut unit, NodeId(1), generous_ttl(&g), |d| darts.push(d));
        assert_eq!(walk, FlowWalk::Recovered { cost: 5, hops: 5 }, "the long way around");
        assert!(walk.is_delivered());
        assert_eq!(walk.cost(), Some(5));
        assert_eq!(darts.len(), 5);
        assert!(!darts.iter().any(|d| d.link() == direct));
    }

    #[test]
    fn a_chain_is_the_walk_from_its_point() {
        // Figure 1 under the paper's rotation (genus 0) and K4 under the
        // identity one (genus 1: walks livelock although a path
        // survives), every pair and triple of failed links, both modes:
        // a point's chain is priced exactly when `walk_packet` from the
        // point delivers, and then as it walks it, dart for dart.
        let (fig1, orders) = pr_topologies::figure1();
        let paper = RotationSystem::from_neighbor_orders(&fig1, &orders).unwrap();
        let k4 = generators::complete(4, 1);
        let identity = RotationSystem::identity(&k4);
        for (g, rotation) in [(fig1, paper), (k4, identity)] {
            let emb = CellularEmbedding::new(&g, rotation).unwrap();
            let links: Vec<LinkId> = g.links().collect();
            let mut sets = Vec::new();
            for (i, &a) in links.iter().enumerate() {
                for (j, &b) in links.iter().enumerate().skip(i + 1) {
                    sets.push(vec![a, b]);
                    sets.extend(links[j + 1..].iter().map(|&c| vec![a, b, c]));
                }
            }
            let (ttl, mut seen) = (generous_ttl(&g), [0; 2]);
            for mode in [PrMode::Basic, PrMode::DistanceDiscriminator] {
                let net = PrNetwork::compile(&g, emb.clone(), mode, DiscriminatorKind::Hops);
                let agent = net.agent(&g);
                let mut scratch = FlowScratch::new();
                for failed in &sets {
                    let failed = LinkSet::from_links(g.link_count(), failed.iter().copied());
                    for dest in g.nodes() {
                        let mut unit = scratch.unit(&g, &agent, net.base().towards(dest), &failed);
                        for v in g.nodes().filter(|&v| v != dest) {
                            if unit.point_of(v) != v {
                                continue;
                            }
                            let walk = crate::walk_packet(&g, &agent, v, dest, &failed, ttl);
                            let label = format!("{mode:?} {failed:?} {v}->{dest}");
                            let chain = unit.chain(v, ttl);
                            assert_eq!(chain.is_some(), walk.result.is_delivered(), "{label}");
                            seen[usize::from(chain.is_some())] += 1;
                            let Some(flow) = chain else { continue };
                            let hops = walk.path.hop_count() as u32;
                            assert_eq!(flow, FlowWalk::Recovered { cost: walk.cost(&g), hops });
                            let mut darts = Vec::new();
                            unit.chained_darts(|d| darts.push(d));
                            assert_eq!(darts, walk.path.darts(), "{label}");
                        }
                    }
                }
            }
            assert!(seen[0] > 0 && seen[1] > 0, "walked and priced points: {seen:?}");
        }
    }

    #[test]
    fn batch_walker_matches_single_packet_walks() {
        // Every source of every (failed link, destination) unit, one
        // scratch for all of them: the unit walker prices each flow as
        // the one-shot `walk_packet` does, dart for dart — flows that
        // are cut off included (both drop, and emit nothing).
        let (g, net, _) = ring_setup();
        let (agent, base) = (net.agent(&g), net.base());
        let ttl = generous_ttl(&g);
        let mut scratch = FlowScratch::new();
        for link in g.links() {
            let other = g.links().find(|&l| l != link).unwrap();
            for failed in [vec![link], vec![link, other]] {
                let failed = LinkSet::from_links(g.link_count(), failed);
                for dest in g.nodes() {
                    let live = SpTree::towards(&g, dest, &failed);
                    let mut unit = scratch.unit(&g, &agent, base.towards(dest), &failed);
                    for src in g.nodes().filter(|&src| src != dest) {
                        let mut darts = Vec::new();
                        let flow = recover_flow_with(&mut unit, src, ttl, |d| darts.push(d));
                        let reference = crate::walk_packet(&g, &agent, src, dest, &failed, ttl);
                        assert_eq!(
                            flow.is_delivered(),
                            reference.result.is_delivered(),
                            "{link} {src}->{dest}"
                        );
                        match flow.cost() {
                            Some(cost) => {
                                assert_eq!(cost, reference.cost(&g), "{link} {src}->{dest}");
                                assert_eq!(darts, reference.path.darts(), "{link} {src}->{dest}");
                            }
                            None => {
                                assert!(darts.is_empty());
                                assert!(
                                    !live.reaches(src),
                                    "PR delivers on a ring while a path exists"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
