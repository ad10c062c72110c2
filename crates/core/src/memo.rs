//! Per-unit suffix memoization for the packet walker.
//!
//! Within one (failure set, destination) work unit the walker is a
//! deterministic function of the visited triple
//! `(router, ingress, header state)`: two walks that ever coincide on
//! a triple traverse identical darts from that point on. A unit walks
//! once per failure point ([`FlowUnit`](crate::FlowUnit)), and the
//! trajectories of its points converge onto shared suffixes
//! (downstream of their detours they follow the same darts toward the
//! destination), so a unit with several points — nested failures, or
//! FCP learning a failure at more than one router — would re-walk
//! tails an earlier point already resolved.
//!
//! [`SuffixMemo`] caches, per triple, the *remaining* cost and step
//! count to delivery, plus the dart taken from the triple and the
//! entry of the triple that dart leads to. A later walk that reaches a
//! memoized triple splices the tail instead of re-walking it — see
//! [`walk_packet_spliced`](crate::walk_packet_spliced) — and a caller
//! that needs the tail's darts (traffic replay credits link loads)
//! chases the memoized chain, one array read per dart and no agent
//! decision. Only **delivered** suffixes are memoized: a delivered
//! trajectory can never intersect a later walk's prefix (that would
//! make it periodic, contradicting delivery), so a splice reproduces
//! the plain walk dart-for-dart and the summed `u64` cost is
//! bit-identical. Dropped walks seed nothing — their drop step and
//! reason can legitimately differ per prefix, so they are always
//! walked in full.
//!
//! The table mirrors [`WalkScratch`](crate::WalkScratch): open
//! addressing over packed key words with exact triple verification,
//! generation-stamped so [`begin_unit`](SuffixMemo::begin_unit)
//! eviction is O(1) and buffers are reused across units.

use std::hash::{Hash, Hasher};

use pr_graph::{Dart, Graph, NodeId};

use crate::FxHasher64;

/// Counters describing how much walking a [`SuffixMemo`] saved.
///
/// Accumulated inside the memo and harvested per work unit via
/// [`SuffixMemo::take_stats`], so parallel sweeps can merge them in
/// deterministic unit order (the same discipline `RepairStats`
/// follows).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Triples consulted in the memo (one lookup per walked hop).
    pub lookups: u64,
    /// Lookups that resolved to a splice (found + TTL guard passed).
    pub hits: u64,
    /// Steps answered from the memo instead of being walked.
    pub spliced_steps: u64,
    /// Steps physically walked (darts actually traversed).
    pub walked_steps: u64,
    /// Walks run through the hop loop with this memo — in a sweep, one
    /// per failure point plus the TTL fallbacks.
    pub walks: u64,
    /// Sources answered from their point's one walk by arithmetic
    /// ([`FlowUnit::walk`](crate::FlowUnit::walk)), the point itself
    /// included.
    pub shared: u64,
}

impl MemoStats {
    /// Fraction of lookups that spliced. 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }

    /// Share of total steps (walked + spliced) answered by the memo.
    /// 0 when no steps were taken at all.
    pub fn spliced_share(&self) -> f64 {
        let total = self.spliced_steps + self.walked_steps;
        if total == 0 {
            0.0
        } else {
            self.spliced_steps as f64 / total as f64
        }
    }

    /// Folds `other` into `self` (plain sums).
    pub fn merge(&mut self, other: &MemoStats) {
        self.lookups += other.lookups;
        self.hits += other.hits;
        self.spliced_steps += other.spliced_steps;
        self.walked_steps += other.walked_steps;
        self.walks += other.walks;
        self.shared += other.shared;
    }
}

/// One memoized triple with its remaining-to-delivery totals and its
/// link in the delivered chain.
#[derive(Debug, Clone)]
struct MemoEntry<S> {
    node: NodeId,
    ingress: Option<Dart>,
    state: S,
    /// Weighted cost of the suffix from this triple to delivery.
    rem_cost: u64,
    /// Dart count of that suffix (≥ 1: the destination is never
    /// recorded as a triple).
    rem_steps: u32,
    /// The dart the walk takes from this triple.
    out: Dart,
    /// Entry of the triple `out` leads to; [`DELIVERED`] when `out`
    /// enters the destination.
    next: u32,
}

/// Chain terminator: the previous entry's dart entered the destination.
const DELIVERED: u32 = u32::MAX;

/// A memoized triple a walk reached: where its tail's chain starts and
/// the tail's totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MemoHit {
    /// Head of the tail's chain, for [`SuffixMemo::tail_darts`].
    pub(crate) entry: u32,
    /// Weighted cost from the triple to delivery.
    pub(crate) rem_cost: u64,
    /// Darts from the triple to delivery.
    pub(crate) rem_steps: u32,
}

/// Reusable delivered-suffix cache for one (failure set, destination)
/// work unit at a time.
///
/// Hold one per forwarding scheme per worker, call
/// [`begin_unit`](Self::begin_unit) at every unit boundary, and pass
/// it to [`walk_packet_spliced`](crate::walk_packet_spliced) for every
/// walk of the unit. Entries from different units can never mix: the
/// generation stamp invalidates the whole table in O(1).
#[derive(Debug, Clone)]
pub struct SuffixMemo<S> {
    /// Packed key words; live only when the generation stamp matches.
    slots: Vec<u64>,
    /// Generation stamp per slot (stale ⇒ empty).
    slot_gen: Vec<u32>,
    /// Index into `entries` for each occupied slot.
    slot_entry: Vec<u32>,
    /// Memoized triples of the current unit, insertion-ordered.
    entries: Vec<MemoEntry<S>>,
    /// Current unit's generation (starts at 1; zeroed stamps are stale).
    gen: u32,
    stats: MemoStats,
}

impl<S> Default for SuffixMemo<S> {
    fn default() -> Self {
        SuffixMemo::new()
    }
}

impl<S> SuffixMemo<S> {
    /// An empty memo; buffers grow on first use and are then reused.
    pub fn new() -> SuffixMemo<S> {
        SuffixMemo {
            slots: Vec::new(),
            slot_gen: Vec::new(),
            slot_entry: Vec::new(),
            entries: Vec::new(),
            gen: 1,
            stats: MemoStats::default(),
        }
    }

    /// Number of memoized triples in the current unit.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the current unit has no memoized triples.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Evicts every entry (O(1) via the generation stamp) at a unit
    /// boundary. Stats are *not* reset — harvest them with
    /// [`take_stats`](Self::take_stats).
    pub fn begin_unit(&mut self) {
        self.entries.clear();
        if self.gen == u32::MAX {
            self.slot_gen.fill(0);
            self.gen = 1;
        } else {
            self.gen += 1;
        }
    }

    /// Returns the accumulated counters and resets them, so callers
    /// can attribute stats to the unit (or batch) just finished.
    pub fn take_stats(&mut self) -> MemoStats {
        std::mem::take(&mut self.stats)
    }

    /// The darts of the memoized tail that starts at `hit`, in walk
    /// order up to and including the one entering the destination.
    pub(crate) fn tail_darts(&self, hit: MemoHit) -> impl Iterator<Item = Dart> + '_ {
        let mut at = hit.entry;
        std::iter::from_fn(move || {
            if at == DELIVERED {
                return None;
            }
            let e = &self.entries[at as usize];
            at = e.next;
            Some(e.out)
        })
    }

    /// Accounts one finished walk and the `steps` darts it physically
    /// traversed.
    #[inline]
    pub(crate) fn record_walked(&mut self, steps: u64) {
        self.stats.walks += 1;
        self.stats.walked_steps += steps;
    }

    /// Accounts one source answered from its point's walk.
    #[inline]
    pub(crate) fn record_shared(&mut self) {
        self.stats.shared += 1;
    }

    /// Accounts one splice that answered `steps` darts from the memo.
    #[inline]
    pub(crate) fn record_splice(&mut self, steps: u64) {
        self.stats.hits += 1;
        self.stats.spliced_steps += steps;
    }
}

impl<S: Clone + Hash + Eq> SuffixMemo<S> {
    /// Looks up a triple, returning its memoized tail if this unit has
    /// already resolved it. Counts one lookup either way.
    #[inline]
    pub(crate) fn lookup(
        &mut self,
        node: NodeId,
        ingress: Option<Dart>,
        state: &S,
    ) -> Option<MemoHit> {
        self.stats.lookups += 1;
        if self.entries.is_empty() {
            return None;
        }
        let key = Self::key(node, ingress, state);
        let mask = self.slots.len() - 1;
        let mut i = key as usize & mask;
        while self.slot_gen[i] == self.gen {
            if self.slots[i] == key {
                let e = &self.entries[self.slot_entry[i] as usize];
                if e.node == node && e.ingress == ingress && e.state == *state {
                    return Some(MemoHit {
                        entry: self.slot_entry[i],
                        rem_cost: e.rem_cost,
                        rem_steps: e.rem_steps,
                    });
                }
            }
            i = (i + 1) & mask;
        }
        None
    }

    /// Seeds the memo from the visited-triple trail of a delivered
    /// walk (`trail`, in visitation order, from the walk scratch; each
    /// triple's ingress is the dart its predecessor took). `last` is
    /// the dart taken from the trail's final triple and `tail` what
    /// that dart led to: `None` for the destination itself, or the
    /// memoized triple the walk was spliced onto.
    ///
    /// Entries are linked back to front, so each one's totals are its
    /// successor's plus its own dart. Values are unique per triple (the
    /// trajectory from a triple is deterministic), so insert-if-absent
    /// keeps earlier entries.
    pub(crate) fn seed(
        &mut self,
        graph: &Graph,
        trail: &[(NodeId, Option<Dart>, S)],
        last: Dart,
        tail: Option<MemoHit>,
    ) {
        let mut out = last;
        let (mut next, mut rem_cost, mut rem_steps) =
            tail.map_or((DELIVERED, 0, 0), |t| (t.entry, t.rem_cost, t.rem_steps));
        for (node, ingress, state) in trail.iter().rev() {
            // Suffixes too long for the step field stay un-memoized,
            // and so do all the longer ones before them.
            let Some(steps) = rem_steps.checked_add(1) else { return };
            rem_steps = steps;
            rem_cost += u64::from(graph.weight(out.link()));
            next = self.insert(MemoEntry {
                node: *node,
                ingress: *ingress,
                state: state.clone(),
                rem_cost,
                rem_steps,
                out,
                next,
            });
            if let Some(d) = *ingress {
                out = d;
            }
        }
    }

    /// Inserts a triple if absent and returns its entry index.
    /// Existing entries win (their values are identical by
    /// determinism; debug builds verify that).
    fn insert(&mut self, entry: MemoEntry<S>) -> u32 {
        if (self.entries.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let key = Self::key(entry.node, entry.ingress, &entry.state);
        let mask = self.slots.len() - 1;
        let mut i = key as usize & mask;
        loop {
            if self.slot_gen[i] != self.gen {
                let idx = self.entries.len() as u32;
                self.slots[i] = key;
                self.slot_gen[i] = self.gen;
                self.slot_entry[i] = idx;
                self.entries.push(entry);
                return idx;
            }
            if self.slots[i] == key {
                let e = &self.entries[self.slot_entry[i] as usize];
                if e.node == entry.node && e.ingress == entry.ingress && e.state == entry.state {
                    debug_assert_eq!(
                        (e.rem_cost, e.rem_steps, e.out, e.next),
                        (entry.rem_cost, entry.rem_steps, entry.out, entry.next),
                        "deterministic trajectories memoize one value per triple"
                    );
                    return self.slot_entry[i];
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Packed key word — identical packing to `WalkScratch`.
    #[inline]
    fn key(node: NodeId, ingress: Option<Dart>, state: &S) -> u64 {
        let mut h = FxHasher64::default();
        h.write_u32(node.0);
        h.write_u32(ingress.map_or(0, |d| d.0 + 1));
        state.hash(&mut h);
        h.finish()
    }

    /// Doubles the table (or seeds it) and re-inserts the live entries.
    fn grow(&mut self) {
        let new_len = (self.slots.len() * 2).max(16);
        self.slots.clear();
        self.slots.resize(new_len, 0);
        self.slot_gen.clear();
        self.slot_gen.resize(new_len, 0);
        self.slot_entry.clear();
        self.slot_entry.resize(new_len, 0);
        let mask = new_len - 1;
        for (idx, e) in self.entries.iter().enumerate() {
            let key = Self::key(e.node, e.ingress, &e.state);
            let mut i = key as usize & mask;
            while self.slot_gen[i] == self.gen {
                i = (i + 1) & mask;
            }
            self.slots[i] = key;
            self.slot_gen[i] = self.gen;
            self.slot_entry[i] = idx as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pr_graph::generators;

    /// Remaining `(cost, steps)` of a triple, if memoized.
    fn totals<S: Clone + Hash + Eq>(
        memo: &mut SuffixMemo<S>,
        node: NodeId,
        ingress: Option<Dart>,
        state: &S,
    ) -> Option<(u64, u32)> {
        memo.lookup(node, ingress, state).map(|h| (h.rem_cost, h.rem_steps))
    }

    #[test]
    fn lookup_misses_on_empty_and_counts() {
        let mut memo: SuffixMemo<u32> = SuffixMemo::new();
        assert_eq!(memo.lookup(NodeId(1), None, &0), None);
        assert_eq!(memo.take_stats().lookups, 1);
        assert_eq!(memo.take_stats(), MemoStats::default(), "take_stats resets");
    }

    #[test]
    fn seed_then_lookup_round_trips_remaining_totals() {
        // A delivered 3-step walk 0 -> 1 -> 2 -> 3 over a path with
        // link weights 5, 7, 2 (total 14); link `i` joins `i` and
        // `i + 1`, its forward dart is `Dart(2 * i)`.
        let mut g = Graph::new();
        let nodes: Vec<NodeId> = (0..4).map(|i| g.add_node(format!("n{i}"))).collect();
        for (i, w) in [5, 7, 2].into_iter().enumerate() {
            g.add_link(nodes[i], nodes[i + 1], w).unwrap();
        }
        let mut memo: SuffixMemo<u32> = SuffixMemo::new();
        let trail = vec![
            (NodeId(0), None, 9u32),
            (NodeId(1), Some(Dart(0)), 9),
            (NodeId(2), Some(Dart(2)), 9),
        ];
        memo.seed(&g, &trail, Dart(4), None);
        assert_eq!(memo.len(), 3);
        assert_eq!(totals(&mut memo, NodeId(0), None, &9), Some((14, 3)));
        assert_eq!(totals(&mut memo, NodeId(1), Some(Dart(0)), &9), Some((9, 2)));
        assert_eq!(totals(&mut memo, NodeId(2), Some(Dart(2)), &9), Some((2, 1)));
        // Same node, different ingress or state: distinct triples.
        assert_eq!(memo.lookup(NodeId(1), Some(Dart(1)), &9), None);
        assert_eq!(memo.lookup(NodeId(1), Some(Dart(0)), &8), None);

        // Every entry heads the chain of the darts that remain.
        let head = memo.lookup(NodeId(0), None, &9).unwrap();
        assert_eq!(memo.tail_darts(head).collect::<Vec<_>>(), [Dart(0), Dart(2), Dart(4)]);
        let mid = memo.lookup(NodeId(2), Some(Dart(2)), &9).unwrap();
        assert_eq!(memo.tail_darts(mid).collect::<Vec<_>>(), [Dart(4)]);

        // A second walk, 1 -> 2 with another header state, spliced onto
        // the first at node 2: totals and chain continue through it.
        memo.seed(&g, &[(NodeId(1), None, 3u32)], Dart(2), Some(mid));
        assert_eq!(memo.len(), 4);
        let joined = memo.lookup(NodeId(1), None, &3).unwrap();
        assert_eq!((joined.rem_cost, joined.rem_steps), (9, 2));
        assert_eq!(memo.tail_darts(joined).collect::<Vec<_>>(), [Dart(2), Dart(4)]);
    }

    #[test]
    fn begin_unit_evicts_everything() {
        let g = generators::ring(4, 3);
        let mut memo: SuffixMemo<u32> = SuffixMemo::new();
        memo.seed(&g, &[(NodeId(4), None, 1u32)], Dart(0), None);
        assert_eq!(totals(&mut memo, NodeId(4), None, &1), Some((3, 1)));
        memo.begin_unit();
        assert!(memo.is_empty());
        assert_eq!(memo.lookup(NodeId(4), None, &1), None, "stale unit must not leak");
    }

    #[test]
    fn insert_if_absent_keeps_first_value_and_survives_growth() {
        let g = generators::ring(4, 3);
        let mut memo: SuffixMemo<u64> = SuffixMemo::new();
        // Grow the table well past its initial capacity.
        for n in 0..2_000u32 {
            memo.seed(&g, &[(NodeId(n), None, u64::from(n))], Dart(n % 8), None);
        }
        for n in 0..2_000u32 {
            let hit = memo.lookup(NodeId(n), None, &u64::from(n)).expect("seeded");
            assert_eq!((hit.rem_cost, hit.rem_steps), (3, 1));
            assert_eq!(memo.tail_darts(hit).collect::<Vec<_>>(), [Dart(n % 8)]);
        }
        // Re-seeding an existing triple with the same value is a no-op.
        memo.seed(&g, &[(NodeId(7), None, 7u64)], Dart(7), None);
        assert_eq!(memo.len(), 2_000);
    }

    #[test]
    fn stats_ratios() {
        let stats = MemoStats {
            lookups: 10,
            hits: 4,
            spliced_steps: 30,
            walked_steps: 10,
            walks: 2,
            shared: 7,
        };
        assert!((stats.hit_rate() - 0.4).abs() < 1e-12);
        assert!((stats.spliced_share() - 0.75).abs() < 1e-12);
        let mut merged = MemoStats::default();
        assert_eq!(merged.hit_rate(), 0.0);
        assert_eq!(merged.spliced_share(), 0.0);
        merged.merge(&stats);
        merged.merge(&stats);
        assert_eq!(merged.lookups, 20);
        assert_eq!(merged.spliced_steps, 60);
        assert_eq!((merged.walks, merged.shared), (4, 14));
    }
}
