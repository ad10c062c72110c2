//! Reusable Dijkstra arenas and incremental shortest-path-tree repair.
//!
//! Every experiment in this workspace bottoms out in recomputing a
//! destination-rooted [`SpTree`] per (failure scenario, destination)
//! work unit. A k-link failure perturbs only the *cone* of nodes whose
//! canonical base-tree path crosses a failed link — exactly the
//! "small perturbation of one canonical tree" regime the paper's §4.3
//! distance discriminators assume — so recomputing from scratch wastes
//! almost all of the work. This module provides:
//!
//! * [`SpScratch`] — a reusable arena: flat `u64`/`u32` label arrays
//!   invalidated by a generation stamp (no clearing between runs), a
//!   reusable binary heap and finalisation-order buffer, and a
//!   per-scenario failed-dart bitmask so the inner relaxation loop
//!   tests one word instead of calling [`LinkSet::contains_dart`] per
//!   edge.
//! * [`SpTree::towards_with`] — the full Dijkstra, allocation-free in
//!   the scratch (only the returned tree is allocated).
//! * [`SpTree::repair_from`] — incremental repair: classify the
//!   affected cone by a memoised `path_crosses`-style descent of the
//!   base tree, seed Dijkstra from the intact frontier labels, and
//!   re-run it over the cone only.
//!
//! # Bit-for-bit equivalence
//!
//! `repair_from(base, …) == towards(…)` **exactly**, including the
//! canonical `(dist, hops, parent id, dart id)` tie-break, provided
//! `base` was computed on the same graph over a failure set that is a
//! subset of `failed` (in practice: the failure-free base map). The
//! argument, which `tests/properties.rs` and the pr-topologies
//! equivalence proptests exercise:
//!
//! * Removing links can only *increase* distances, so a node whose
//!   canonical base path survives keeps its exact distance (that path
//!   still realises it).
//! * Such a node also keeps its canonical parent: every competing
//!   equal-cost candidate either lost its tie (distance grew) or kept
//!   its base key, and keys only grow lexicographically under link
//!   removal — so the base argmin stays the argmin. Inductively (in
//!   the canonical `(dist, id)` processing order) its hop label is
//!   unchanged too.
//! * Nodes whose canonical path does cross a failure are exactly the
//!   repaired cone: their labels are recomputed by a Dijkstra seeded
//!   from intact ("clean") neighbours, which sees the same distances
//!   the full run would, and the same canonical selection pass runs
//!   over them in the same relative order.
//!
//! The finalisation order of a Dijkstra over ≥1 weights *is* the
//! canonical `(dist, id)` order — every label that settles at distance
//! `d` was pushed before the first pop at `d`, and the heap breaks
//! distance ties by node id (a debug assertion keeps the claim honest).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use serde::Serialize;

use super::dijkstra::{SpTree, NO_DART, NO_DIST, NO_HOPS};
use crate::{Dart, Graph, LinkSet, NodeId};

/// Counters accumulated by a [`SpScratch`] across its lifetime, so
/// sweeps can report how much work incremental repair actually saved
/// (the `pr sweep --stats` read-out).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct RepairStats {
    /// Full Dijkstra rebuilds ([`SpTree::towards_with`] calls).
    pub full_rebuilds: u64,
    /// Incremental repairs ([`SpTree::repair_from`] and the cone
    /// kernels).
    pub repairs: u64,
    /// Total affected-cone size across all repairs (nodes whose labels
    /// had to be recomputed).
    pub cone_nodes: u64,
    /// Total node slots across all repairs (`n` summed per repair) —
    /// the denominator for the cone fraction.
    pub repaired_slots: u64,
}

impl RepairStats {
    /// Mean fraction of nodes a repair had to touch
    /// (`cone_nodes / repaired_slots`; 0 when no repairs ran).
    pub fn cone_fraction(&self) -> f64 {
        if self.repaired_slots == 0 {
            0.0
        } else {
            self.cone_nodes as f64 / self.repaired_slots as f64
        }
    }

    /// Fraction of per-node labels served straight from the base tree
    /// (`1 - cone_fraction`) — the repair hit rate.
    pub fn hit_rate(&self) -> f64 {
        1.0 - self.cone_fraction()
    }

    /// Accumulates another stats record (e.g. merging per-worker
    /// scratches after a parallel sweep).
    pub fn merge(&mut self, other: &RepairStats) {
        self.full_rebuilds += other.full_rebuilds;
        self.repairs += other.repairs;
        self.cone_nodes += other.cone_nodes;
        self.repaired_slots += other.repaired_slots;
    }
}

/// A reusable Dijkstra arena.
///
/// Holds every buffer [`SpTree::towards_with`] and
/// [`SpTree::repair_from`] need, so a worker that computes thousands of
/// trees allocates them once:
///
/// * flat `u64` distance labels with a `u32` generation stamp per node
///   (bumping the generation invalidates all labels in O(1) — no
///   `Vec<Option<_>>` clearing between runs);
/// * the binary heap and the finalisation-order buffer;
/// * a tri-state affected/clean classification array (also
///   generation-stamped) and the descent/cone buffers of the repair
///   path;
/// * a failed-**dart** bitmask rebuilt only when the failure set
///   changes (once per worker scenario-cache rebuild), so the inner
///   relaxation loop indexes one word per dart instead of mapping
///   dart → link per edge.
#[derive(Debug, Clone)]
pub struct SpScratch {
    /// Tentative distance labels; valid only where `stamp == epoch`.
    dist: Vec<u64>,
    stamp: Vec<u32>,
    epoch: u32,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    /// Non-stale pop order of the last run — the canonical
    /// `(dist, id)` order (see module docs).
    order: Vec<NodeId>,
    /// Affected/clean classification: `class >> 1 == class_epoch`
    /// means known this repair, low bit set means affected.
    class: Vec<u32>,
    class_epoch: u32,
    /// Descent stack of the cone classification.
    chain: Vec<NodeId>,
    /// The affected cone of the current repair, in node-id order.
    cone: Vec<NodeId>,
    /// One bit per dart; rebuilt only when `failed_key` changes.
    failed_darts: Vec<u64>,
    failed_key: LinkSet,
    /// Repaired hop/parent labels of the cone-restricted selection
    /// pass ([`SpTree::cone_routes`]); valid where `stamp == epoch`.
    hops_patch: Vec<u32>,
    next_patch: Vec<Dart>,
    stats: RepairStats,
}

impl Default for SpScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl SpScratch {
    /// An empty scratch; buffers grow to fit the first graph used.
    pub fn new() -> SpScratch {
        SpScratch {
            dist: Vec::new(),
            stamp: Vec::new(),
            epoch: 0,
            heap: BinaryHeap::new(),
            order: Vec::new(),
            class: Vec::new(),
            class_epoch: 0,
            chain: Vec::new(),
            cone: Vec::new(),
            failed_darts: Vec::new(),
            failed_key: LinkSet::empty(0),
            hops_patch: Vec::new(),
            next_patch: Vec::new(),
            stats: RepairStats::default(),
        }
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> RepairStats {
        self.stats
    }

    /// Returns the accumulated counters and resets them — per-unit
    /// deltas for deterministic merging in parallel sweeps.
    pub fn take_stats(&mut self) -> RepairStats {
        std::mem::take(&mut self.stats)
    }

    /// Repaired distance of `u` after the last
    /// [`SpTree::repair_cone_labels`] call: `Some(dist)` if the cone
    /// node reconnects under the failure, `None` if it is cut off.
    /// Only meaningful for nodes of that call's cone.
    #[inline]
    pub fn cone_cost(&self, u: NodeId) -> Option<u64> {
        (self.stamp[u.index()] == self.epoch).then(|| self.dist[u.index()])
    }

    /// Sizes the node-indexed arrays for `n` nodes. New slots carry
    /// stamp/class 0, which no live epoch matches.
    fn ensure(&mut self, n: usize) {
        if self.dist.len() < n {
            self.dist.resize(n, 0);
            self.stamp.resize(n, 0);
            self.class.resize(n, 0);
            self.hops_patch.resize(n, 0);
            self.next_patch.resize(n, Dart(0));
        }
    }

    /// Invalidates all distance labels.
    fn next_epoch(&mut self) {
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }

    /// Invalidates the affected/clean classification.
    fn next_class_epoch(&mut self) {
        // The class word packs `epoch << 1 | affected`, so the epoch
        // counter has 31 usable bits.
        if self.class_epoch == (1 << 31) - 1 {
            self.class.fill(0);
            self.class_epoch = 1;
        } else {
            self.class_epoch += 1;
        }
    }

    /// Rebuilds the failed-dart bitmask iff `failed` differs from the
    /// set the current mask was built from. A sweep worker visiting
    /// the same scenario for many destinations pays this once per
    /// scenario, not once per edge relaxation.
    fn refresh_failed_mask(&mut self, graph: &Graph, failed: &LinkSet) {
        let words = graph.dart_count().div_ceil(64);
        if self.failed_darts.len() == words && self.failed_key == *failed {
            return;
        }
        self.failed_darts.clear();
        self.failed_darts.resize(words, 0);
        for link in failed.iter() {
            for dart in [link.forward(), link.reverse()] {
                self.failed_darts[dart.index() >> 6] |= 1 << (dart.index() & 63);
            }
        }
        self.failed_key.clone_from(failed);
    }

    #[inline]
    fn dart_failed(&self, dart: Dart) -> bool {
        self.failed_darts[dart.index() >> 6] & (1 << (dart.index() & 63)) != 0
    }

    /// Dijkstra relaxation against the arena labels.
    #[inline]
    fn relax(&mut self, v: NodeId, nd: u64) {
        if self.stamp[v.index()] != self.epoch || nd < self.dist[v.index()] {
            self.dist[v.index()] = nd;
            self.stamp[v.index()] = self.epoch;
            self.heap.push(Reverse((nd, v.0)));
        }
    }

    #[inline]
    fn class_known(&self, u: NodeId) -> bool {
        self.class[u.index()] >> 1 == self.class_epoch
    }

    #[inline]
    fn class_affected(&self, u: NodeId) -> bool {
        self.class[u.index()] == (self.class_epoch << 1) | 1
    }

    #[inline]
    fn set_class(&mut self, u: NodeId, affected: bool) {
        self.class[u.index()] = (self.class_epoch << 1) | u32::from(affected);
    }

    /// Runs the heap to exhaustion, relaxing only nodes accepted by
    /// `admit`, and records the non-stale pop order in `self.order`.
    fn drain_heap(&mut self, graph: &Graph, admit: impl Fn(&SpScratch, NodeId) -> bool) {
        while let Some(Reverse((d, u))) = self.heap.pop() {
            let u = NodeId(u);
            if self.dist[u.index()] != d {
                continue; // stale entry
            }
            debug_assert!(
                self.order.last().is_none_or(|&p| (self.dist[p.index()], p.0) < (d, u.0)),
                "heap finalisation order must be the canonical (dist, id) order"
            );
            self.order.push(u);
            for &dart in graph.darts_from(u) {
                if self.dart_failed(dart) {
                    continue;
                }
                let v = graph.dart_head(dart);
                if !admit(self, v) {
                    continue;
                }
                self.relax(v, d + u64::from(graph.weight(dart.link())));
            }
        }
    }

    /// Re-labels `cone` — the nodes classified affected this class
    /// epoch — by a Dijkstra seeded from the intact frontier: every
    /// live dart from a cone node to a clean, `base`-reachable
    /// neighbour yields a tentative label (clean labels are already
    /// exact under the failure, so they act as settled sources), and
    /// the run admits cone nodes only (link removal cannot shorten a
    /// clean node's already-exact path).
    fn relabel_cone(&mut self, graph: &Graph, base: &SpTree, cone: &[NodeId]) {
        self.next_epoch();
        self.heap.clear();
        self.order.clear();
        for &u in cone {
            for &dart in graph.darts_from(u) {
                if self.dart_failed(dart) {
                    continue;
                }
                let v = graph.dart_head(dart);
                if self.class_affected(v) {
                    continue;
                }
                let Some(dv) = base.cost(v) else { continue };
                self.relax(u, dv + u64::from(graph.weight(dart.link())));
            }
        }
        self.drain_heap(graph, |s, v| s.class_affected(v));
    }
}

/// Canonical parent selection for `u`, finalised at distance `du`:
/// the minimum `(hops(parent) + 1, parent id, dart id)` over live
/// darts on shortest paths — the one spelling of the tie-break, shared
/// by the full rebuild, the tree repair and the cone patches, so all
/// three agree with the from-scratch [`SpTree::towards`] bit for bit.
/// `labels` gives a neighbour's finalised `(dist, hops)`, `None` where
/// it has none (cut off, or not finalised yet: a parent settles before
/// its child, so such a neighbour is no candidate).
#[inline]
fn select_parent(
    graph: &Graph,
    scratch: &SpScratch,
    u: NodeId,
    du: u64,
    labels: impl Fn(NodeId) -> Option<(u64, u32)>,
) -> (u32, Dart) {
    let mut best: Option<(u32, u32, u32, Dart)> = None;
    for &dart in graph.darts_from(u) {
        if scratch.dart_failed(dart) {
            continue;
        }
        let v = graph.dart_head(dart);
        let Some((dv, hv)) = labels(v) else { continue };
        if dv + u64::from(graph.weight(dart.link())) != du {
            continue; // not on a shortest path
        }
        let key = (hv + 1, v.0, dart.0, dart);
        if best.is_none_or(|b| (key.0, key.1, key.2) < (b.0, b.1, b.2)) {
            best = Some(key);
        }
    }
    let (h, _, _, dart) = best.expect("reachable node must have a shortest-path parent");
    (h, dart)
}

/// [`select_parent`] for every node of the last run's finalisation
/// order against the labels already written to `out`, in that order.
fn select_parents(out: &mut SpTree, graph: &Graph, scratch: &SpScratch) {
    for &u in &scratch.order {
        if u == out.dest {
            out.hops[u.index()] = 0;
            continue;
        }
        let (h, dart) = select_parent(graph, scratch, u, scratch.dist[u.index()], |v| {
            out.cost(v).zip(out.hops(v))
        });
        out.hops[u.index()] = h;
        out.next[u.index()] = dart;
    }
}

impl SpTree {
    /// [`SpTree::towards`] computed through a reusable arena: the heap,
    /// label arrays and ordering buffer live in `scratch`, so repeated
    /// calls allocate only the returned tree. Output is bit-identical
    /// to [`SpTree::towards`].
    pub fn towards_with(
        graph: &Graph,
        dest: NodeId,
        failed: &LinkSet,
        scratch: &mut SpScratch,
    ) -> SpTree {
        let n = graph.node_count();
        scratch.ensure(n);
        scratch.refresh_failed_mask(graph, failed);
        scratch.stats.full_rebuilds += 1;
        scratch.next_epoch();
        scratch.heap.clear();
        scratch.order.clear();

        scratch.relax(dest, 0);
        scratch.drain_heap(graph, |_, _| true);

        let mut out =
            SpTree { dest, dist: vec![NO_DIST; n], hops: vec![NO_HOPS; n], next: vec![NO_DART; n] };
        for &u in &scratch.order {
            out.dist[u.index()] = scratch.dist[u.index()];
        }
        select_parents(&mut out, graph, scratch);
        out
    }

    /// Incrementally repairs `base` (a tree over a subset of `failed`;
    /// in practice the failure-free base map) into the tree
    /// [`SpTree::towards`]`(graph, dest, failed)` would produce —
    /// bit-for-bit, canonical tie-breaks included (see module docs).
    /// Only the affected cone is re-labelled; everything else is
    /// copied from `base`.
    pub fn repair_from(
        base: &SpTree,
        graph: &Graph,
        dest: NodeId,
        failed: &LinkSet,
        scratch: &mut SpScratch,
    ) -> SpTree {
        assert_eq!(dest, base.dest, "repair_from must target the base tree's destination");
        let mut out = base.clone();
        let n = graph.node_count();
        scratch.ensure(n);
        scratch.stats.repairs += 1;
        scratch.stats.repaired_slots += n as u64;
        if failed.is_empty() {
            return out;
        }
        scratch.refresh_failed_mask(graph, failed);

        // 1. Classify: a node is affected iff its canonical base path
        //    to the destination crosses a failed link. Memoised
        //    descent: walk the base `next` chain until a node of known
        //    class (or a terminal), then mark the whole chain with the
        //    answer. O(n) total across all starts.
        scratch.next_class_epoch();
        for u in graph.nodes() {
            if scratch.class_known(u) {
                continue;
            }
            scratch.chain.clear();
            let mut at = u;
            let affected = loop {
                if scratch.class_known(at) {
                    break scratch.class_affected(at);
                }
                match base.next_dart(at) {
                    Some(d) if scratch.dart_failed(d) => {
                        scratch.set_class(at, true);
                        break true;
                    }
                    Some(d) => {
                        scratch.chain.push(at);
                        at = graph.dart_head(d);
                    }
                    // The destination, or a node already unreachable
                    // in `base` (it stays unreachable: repair only
                    // removes links). Either way its labels carry over
                    // unchanged.
                    None => {
                        scratch.set_class(at, false);
                        break false;
                    }
                }
            };
            while let Some(c) = scratch.chain.pop() {
                scratch.set_class(c, affected);
            }
        }
        scratch.cone.clear();
        for u in graph.nodes() {
            if scratch.class_affected(u) {
                scratch.cone.push(u);
            }
        }
        scratch.stats.cone_nodes += scratch.cone.len() as u64;
        if scratch.cone.is_empty() {
            return out; // no base path crosses a failure: out == base
        }

        // 2. Re-label the cone from its intact frontier.
        let cone = std::mem::take(&mut scratch.cone);
        scratch.relabel_cone(graph, base, &cone);

        // 3. Write back: cone labels reset, reached cone nodes
        //    re-labelled and re-parented in canonical (dist, id) order
        //    — which is the heap finalisation order.
        for &u in &cone {
            out.dist[u.index()] = NO_DIST;
            out.hops[u.index()] = NO_HOPS;
            out.next[u.index()] = NO_DART;
        }
        scratch.cone = cone;
        for &u in &scratch.order {
            out.dist[u.index()] = scratch.dist[u.index()];
        }
        select_parents(&mut out, graph, scratch);
        out
    }

    /// Collects into `out` every source whose canonical tree path to
    /// the destination crosses a failed link, in **ascending node id
    /// order** — the same set (and iteration order) as filtering
    /// `graph.nodes()` through [`SpTree::path_crosses`], but in
    /// O(cone) instead of O(n).
    ///
    /// A path crosses a failed link iff some node on it routes over
    /// that link, i.e. iff the source sits in the subtree hanging
    /// below a failed **tree edge** — so the affected set is the union
    /// of those subtrees, enumerated through the tree's precomputed
    /// [`TreeChildren`] index. `stack` is a reusable DFS buffer.
    pub fn affected_cone(
        &self,
        graph: &Graph,
        children: &TreeChildren,
        failed: &LinkSet,
        out: &mut Vec<NodeId>,
        stack: &mut Vec<NodeId>,
    ) {
        out.clear();
        stack.clear();
        for link in failed.iter() {
            let (a, b) = graph.endpoints(link);
            for u in [a, b] {
                if self.next_dart(u).is_some_and(|d| d.link() == link) {
                    stack.push(u);
                }
            }
        }
        while let Some(u) = stack.pop() {
            out.push(u);
            stack.extend_from_slice(children.of(u));
        }
        // Nested failed tree edges visit their inner subtree once per
        // enclosing root; failure sets are small, so dedup after a
        // sort (which the caller's iteration order needs anyway).
        out.sort_unstable();
        out.dedup();
    }

    /// Repairs **only the distance labels** of `cone` (the affected
    /// sources of `self`, a base tree, under `failed` — see
    /// [`SpTree::affected_cone`]), leaving results in `scratch` for
    /// [`SpScratch::cone_cost`] queries.
    ///
    /// This is [`SpTree::repair_from`] for callers that never read
    /// the repaired tree outside the cone and need no parent darts:
    /// it skips the O(n) base-tree copy, the O(n) affected/clean
    /// classification (the cone is given) and the canonical
    /// parent-selection pass, leaving O(cone) work per call. The
    /// labels it produces are bit-identical to the full repair's — the
    /// same frontier-seeded Dijkstra runs over the same admitted set.
    pub fn repair_cone_labels(
        &self,
        graph: &Graph,
        failed: &LinkSet,
        cone: &[NodeId],
        scratch: &mut SpScratch,
    ) {
        scratch.ensure(graph.node_count());
        scratch.refresh_failed_mask(graph, failed);
        scratch.stats.repairs += 1;
        scratch.stats.cone_nodes += cone.len() as u64;
        // The denominator stays `n` per repair (like the full-tree
        // paths): the hit rate reports labels served from the base
        // tree out of all node slots, not out of the cone itself.
        scratch.stats.repaired_slots += graph.node_count() as u64;

        scratch.next_class_epoch();
        for &u in cone {
            scratch.set_class(u, true);
        }
        scratch.relabel_cone(graph, self, cone);
    }

    /// The canonical parent selection over the labels the last
    /// [`SpTree::repair_cone_labels`] call on `self` left in `scratch`
    /// for `cone`: **appends** one `(node, next dart)` patch per cone
    /// node to `out`, in cone order — `None` marking nodes the failure
    /// cuts off. Outside the cone the repaired tree equals `self` (the
    /// base tree), so a patch list plus the base answers any routing
    /// query the full repaired tree could, at O(cone) cost per repair
    /// instead of O(n).
    ///
    /// The selection pass is the one `repair_from` runs — same
    /// finalisation order, same `(hops, parent id, dart id)`
    /// tie-break, with clean neighbours' labels read from the base —
    /// so patched decisions are bit-identical to the full repair's. It
    /// reads the failed-dart mask, the cone classification and the
    /// finalisation order of that label repair, so no other repair may
    /// have gone through `scratch` in between.
    pub fn cone_routes(
        &self,
        graph: &Graph,
        cone: &[NodeId],
        scratch: &mut SpScratch,
        out: &mut Vec<(NodeId, Option<Dart>)>,
    ) {
        for i in 0..scratch.order.len() {
            let u = scratch.order[i];
            // A cone neighbour's labels live in the scratch (its
            // parent settles first: dv < du keeps the pass
            // well-founded; cut off, it is no candidate); a clean
            // neighbour keeps its base labels under `failed`.
            let (h, dart) = select_parent(graph, scratch, u, scratch.dist[u.index()], |v| {
                if scratch.class_affected(v) {
                    (scratch.stamp[v.index()] == scratch.epoch)
                        .then(|| (scratch.dist[v.index()], scratch.hops_patch[v.index()]))
                } else {
                    self.cost(v).zip(self.hops(v))
                }
            });
            scratch.hops_patch[u.index()] = h;
            scratch.next_patch[u.index()] = dart;
        }
        out.extend(cone.iter().map(|&u| {
            let next =
                (scratch.stamp[u.index()] == scratch.epoch).then(|| scratch.next_patch[u.index()]);
            (u, next)
        }));
    }
}

/// Children lists of one shortest-path tree in CSR form, built once so
/// sweep workers can enumerate the subtree below a failed tree edge in
/// O(subtree) (see [`SpTree::affected_cone`]) instead of classifying
/// all `n` nodes per work unit.
#[derive(Debug, Clone)]
pub struct TreeChildren {
    /// CSR offsets: node `u`'s children sit at `kids[start[u]..start[u + 1]]`.
    start: Vec<u32>,
    kids: Vec<NodeId>,
}

impl TreeChildren {
    /// Builds the child index of `tree` by counting sort over parent
    /// pointers. Children appear in ascending node id per parent.
    pub fn build(graph: &Graph, tree: &SpTree) -> TreeChildren {
        let n = graph.node_count();
        let mut start = vec![0u32; n + 1];
        for u in graph.nodes() {
            if let Some(d) = tree.next_dart(u) {
                start[graph.dart_head(d).index() + 1] += 1;
            }
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        let mut cursor = start.clone();
        let mut kids = vec![NodeId(0); start[n] as usize];
        for u in graph.nodes() {
            if let Some(d) = tree.next_dart(u) {
                let p = graph.dart_head(d).index();
                kids[cursor[p] as usize] = u;
                cursor[p] += 1;
            }
        }
        TreeChildren { start, kids }
    }

    /// The children of `u` in the tree, ascending by node id.
    #[inline]
    pub fn of(&self, u: NodeId) -> &[NodeId] {
        &self.kids[self.start[u.index()] as usize..self.start[u.index() + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generators, AllPairs};

    fn single(graph: &Graph, link: crate::LinkId) -> LinkSet {
        LinkSet::from_links(graph.link_count(), [link])
    }

    #[test]
    fn towards_with_matches_towards() {
        let g = generators::ring(7, 1);
        let mut scratch = SpScratch::new();
        for dest in g.nodes() {
            for l in g.links() {
                let failed = single(&g, l);
                assert_eq!(
                    SpTree::towards_with(&g, dest, &failed, &mut scratch),
                    SpTree::towards(&g, dest, &failed),
                    "dest {dest} failed {l}"
                );
            }
        }
        assert_eq!(scratch.stats().repairs, 0);
        assert!(scratch.stats().full_rebuilds > 0);
    }

    #[test]
    fn repair_equals_from_scratch_on_every_single_failure() {
        // Ring + chords: plenty of equal-cost ties for the canonical
        // tie-break to matter.
        let mut g = generators::ring(9, 1);
        g.add_link(NodeId(0), NodeId(4), 2).unwrap();
        g.add_link(NodeId(2), NodeId(7), 1).unwrap();
        let mut scratch = SpScratch::new();
        let none = LinkSet::empty(g.link_count());
        for dest in g.nodes() {
            let base = SpTree::towards(&g, dest, &none);
            for l in g.links() {
                let failed = single(&g, l);
                let repaired = SpTree::repair_from(&base, &g, dest, &failed, &mut scratch);
                let scratch_free = SpTree::towards(&g, dest, &failed);
                assert_eq!(repaired, scratch_free, "dest {dest} failed {l}");
            }
        }
        assert!(scratch.stats().repairs > 0);
        assert!(scratch.stats().hit_rate() > 0.0);
    }

    #[test]
    fn repair_handles_disconnecting_failures() {
        let g = generators::ring(6, 1);
        let base = SpTree::towards_all_live(&g, NodeId(0));
        let mut scratch = SpScratch::new();
        // Two failures split the ring: some nodes become unreachable.
        let failed = LinkSet::from_links(
            g.link_count(),
            [
                g.find_link(NodeId(1), NodeId(2)).unwrap(),
                g.find_link(NodeId(4), NodeId(5)).unwrap(),
            ],
        );
        let repaired = SpTree::repair_from(&base, &g, NodeId(0), &failed, &mut scratch);
        assert_eq!(repaired, SpTree::towards(&g, NodeId(0), &failed));
        assert!(!repaired.reaches(NodeId(3)));
        assert!(repaired.reaches(NodeId(1)));
    }

    #[test]
    fn repair_with_empty_failures_is_the_base_tree() {
        let g = generators::complete(5, 1);
        let base = SpTree::towards_all_live(&g, NodeId(2));
        let mut scratch = SpScratch::new();
        let none = LinkSet::empty(g.link_count());
        let repaired = SpTree::repair_from(&base, &g, NodeId(2), &none, &mut scratch);
        assert_eq!(repaired, base);
        let s = scratch.stats();
        assert_eq!(s.cone_nodes, 0);
        assert_eq!(s.repairs, 1);
        assert_eq!(s.hit_rate(), 1.0);
    }

    #[test]
    fn all_pairs_repair_matches_compute() {
        let g = generators::ring(6, 1);
        let base = AllPairs::compute_all_live(&g);
        let mut scratch = SpScratch::new();
        for l in g.links() {
            let failed = single(&g, l);
            let repaired = base.repair_from(&g, &failed, &mut scratch);
            let fresh = AllPairs::compute(&g, &failed);
            for d in g.nodes() {
                assert_eq!(repaired.towards(d), fresh.towards(d), "dest {d} failed {l}");
            }
        }
    }

    /// The cone fast path against its definitions: `affected_cone`
    /// must equal filtering all nodes through `path_crosses`, and
    /// `repair_cone_labels` must reproduce the full repair's distance
    /// labels (including `None` for cut-off nodes) on every cone node.
    #[test]
    fn cone_enumeration_and_labels_match_the_full_repair() {
        let mut g = generators::ring(9, 1);
        g.add_link(NodeId(0), NodeId(4), 2).unwrap();
        g.add_link(NodeId(2), NodeId(7), 1).unwrap();
        let mut scratch = SpScratch::new();
        let (mut cone, mut stack) = (Vec::new(), Vec::new());
        for dest in g.nodes() {
            let base = SpTree::towards_all_live(&g, dest);
            let children = TreeChildren::build(&g, &base);
            // Single failures plus a disconnecting pair.
            let mut sets: Vec<LinkSet> = g.links().map(|l| single(&g, l)).collect();
            sets.push(LinkSet::from_links(
                g.link_count(),
                [
                    g.find_link(NodeId(1), NodeId(2)).unwrap(),
                    g.find_link(NodeId(4), NodeId(5)).unwrap(),
                ],
            ));
            for failed in &sets {
                base.affected_cone(&g, &children, failed, &mut cone, &mut stack);
                let expected: Vec<NodeId> =
                    g.nodes().filter(|&u| base.path_crosses(&g, u, failed)).collect();
                assert_eq!(cone, expected, "dest {dest}");
                let mut patches = Vec::new();
                base.repair_cone_labels(&g, failed, &cone, &mut scratch);
                base.cone_routes(&g, &cone, &mut scratch, &mut patches);
                let full = SpTree::towards(&g, dest, failed);
                for &u in &cone {
                    assert_eq!(scratch.cone_cost(u), full.cost(u), "dest {dest} node {u}");
                }
                // The patches plus the base tree answer every routing
                // query the full repaired tree answers.
                assert_eq!(patches.len(), cone.len());
                // The selection pass alone, over the labels still in
                // the scratch, appends the same list again.
                let mut twice = patches.clone();
                base.cone_routes(&g, &cone, &mut scratch, &mut twice);
                assert_eq!(twice, [&patches[..], &patches[..]].concat(), "dest {dest}");
                for u in g.nodes() {
                    let patched = match patches.binary_search_by_key(&u, |p| p.0) {
                        Ok(i) => patches[i].1,
                        Err(_) => base.next_dart(u),
                    };
                    assert_eq!(patched, full.next_dart(u), "dest {dest} node {u}");
                    let reaches = match patches.binary_search_by_key(&u, |p| p.0) {
                        Ok(i) => patches[i].1.is_some(),
                        Err(_) => base.reaches(u),
                    };
                    assert_eq!(reaches, full.reaches(u), "dest {dest} node {u}");
                }
            }
        }
    }

    /// Children lists come out CSR-complete and id-ascending.
    #[test]
    fn tree_children_index_the_parent_pointers() {
        let g = generators::complete(6, 1);
        let base = SpTree::towards_all_live(&g, NodeId(3));
        let children = TreeChildren::build(&g, &base);
        let mut seen = 0;
        for p in g.nodes() {
            let kids = children.of(p);
            assert!(kids.windows(2).all(|w| w[0] < w[1]), "ascending per parent");
            for &c in kids {
                assert_eq!(base.next_dart(c).map(|d| g.dart_head(d)), Some(p));
                seen += 1;
            }
        }
        assert_eq!(seen, g.node_count() - 1, "every non-root appears exactly once");
    }

    #[test]
    fn stats_merge_and_take() {
        let g = generators::ring(5, 1);
        let base = SpTree::towards_all_live(&g, NodeId(0));
        let mut scratch = SpScratch::new();
        let failed = single(&g, g.links().next().unwrap());
        let _ = SpTree::repair_from(&base, &g, NodeId(0), &failed, &mut scratch);
        let first = scratch.take_stats();
        assert_eq!(first.repairs, 1);
        assert_eq!(scratch.stats(), RepairStats::default(), "take_stats resets");
        let _ = SpTree::repair_from(&base, &g, NodeId(0), &failed, &mut scratch);
        let mut merged = first;
        merged.merge(&scratch.stats());
        assert_eq!(merged.repairs, 2);
        assert_eq!(merged.repaired_slots, 2 * g.node_count() as u64);
    }
}
