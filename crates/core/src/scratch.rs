//! Reusable, allocation-free scratch state for the packet walker.
//!
//! The walker's exact livelock detector needs set-of-visited-states
//! semantics per walk. A `HashSet<(NodeId, Option<Dart>, State)>`
//! provides that but allocates afresh for every packet and pays
//! SipHash on every hop — measurable overhead when an experiment walks
//! millions of packets. [`WalkScratch`] replaces it with an
//! open-addressing table whose buffers are *reused across walks*:
//! callers hold one scratch per scheme and the steady state allocates
//! nothing.
//!
//! Exactness is preserved: each slot stores a packed
//! `(node, ingress, state-hash)` key word as a fast filter, and a key
//! match is always verified against the full stored triple before a
//! repeat is reported. Hash collisions can therefore never produce a
//! false [`ForwardingLoop`](crate::DropReason::ForwardingLoop) — they
//! only cost an extra comparison.

use std::hash::{Hash, Hasher};

use pr_graph::{Dart, NodeId};

/// A deterministic, multiply-rotate hasher (FxHash-style).
///
/// `std`'s default hasher is keyed per-process, which is fine for
/// membership but wasteful in a hot loop; this one is fixed-key (the
/// detector verifies full triples, so hash quality only affects probe
/// length, never correctness) and an order of magnitude cheaper on the
/// small keys the walker hashes.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher64 {
    hash: u64,
}

impl FxHasher64 {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher64 {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add(u64::from_le_bytes(c.try_into().expect("exact 8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

/// Reusable visited-state table for one walk at a time.
///
/// Obtain one per forwarding scheme, reuse it across walks (the walker
/// resets it at the start of each walk), and the per-hop cost is a
/// fixed-key hash plus a probe over a table that stays cache-resident.
#[derive(Debug, Clone)]
pub struct WalkScratch<S> {
    /// Packed key words. A slot is live only when its generation stamp
    /// matches [`gen`](Self::gen). Power-of-two sized.
    slots: Vec<u64>,
    /// Generation stamp per slot; stale stamps mean "empty", so
    /// [`reset`](Self::reset) is O(1) instead of O(table size).
    slot_gen: Vec<u32>,
    /// Index into `entries` for each occupied slot.
    slot_entry: Vec<u32>,
    /// The visited triples, in insertion order, for exact verification.
    entries: Vec<(NodeId, Option<Dart>, S)>,
    /// Current walk's generation (starts at 1: a zeroed `slot_gen` is
    /// all-stale).
    gen: u32,
}

impl<S> Default for WalkScratch<S> {
    fn default() -> Self {
        WalkScratch::new()
    }
}

impl<S> WalkScratch<S> {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> WalkScratch<S> {
        WalkScratch {
            slots: Vec::new(),
            slot_gen: Vec::new(),
            slot_entry: Vec::new(),
            entries: Vec::new(),
            gen: 1,
        }
    }

    /// Number of distinct states recorded since the last [`reset`](Self::reset).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing has been recorded since the last reset.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The triples recorded since the last reset, in insertion order —
    /// for a packet walk this is exactly the visitation order, so
    /// entry `i` was recorded after `i` darts. The walker's suffix memo
    /// seeds from this trail.
    pub fn entries(&self) -> &[(NodeId, Option<Dart>, S)] {
        &self.entries
    }

    /// Clears the table for a new walk, keeping the buffers. O(1): one
    /// long livelocked walk may grow the table, but later short walks
    /// don't pay to re-zero it — stale slots age out via the
    /// generation stamp.
    pub fn reset(&mut self) {
        self.entries.clear();
        if self.gen == u32::MAX {
            // Stamp wrap-around (once per 2^32 walks): re-zero so old
            // generations cannot alias the restarted counter.
            self.slot_gen.fill(0);
            self.gen = 1;
        } else {
            self.gen += 1;
        }
    }
}

impl<S: Clone + Hash + Eq> WalkScratch<S> {
    /// Records the triple, returning `true` if it was *newly* recorded
    /// and `false` if an identical triple was seen earlier in this walk
    /// (mirroring `HashSet::insert`).
    pub fn record(&mut self, node: NodeId, ingress: Option<Dart>, state: &S) -> bool {
        if (self.entries.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let key = Self::key(node, ingress, state);
        let mask = self.slots.len() - 1;
        let mut i = key as usize & mask;
        loop {
            if self.slot_gen[i] != self.gen {
                self.slots[i] = key;
                self.slot_gen[i] = self.gen;
                self.slot_entry[i] = self.entries.len() as u32;
                self.entries.push((node, ingress, state.clone()));
                return true;
            }
            if self.slots[i] == key {
                let (n, ing, s) = &self.entries[self.slot_entry[i] as usize];
                if *n == node && *ing == ingress && s == state {
                    return false;
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Packed key word: a fixed-key hash of node, ingress and state.
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
        for (idx, (node, ingress, state)) in self.entries.iter().enumerate() {
            let key = Self::key(*node, *ingress, state);
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
    use std::collections::HashSet;

    #[test]
    fn record_mirrors_hashset_insert() {
        let mut scratch: WalkScratch<u64> = WalkScratch::new();
        let mut reference: HashSet<(NodeId, Option<Dart>, u64)> = HashSet::new();
        // Deterministic pseudo-random stream of triples with repeats.
        let mut x = 9_u64;
        for _ in 0..4_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let node = NodeId((x >> 33) as u32 % 50);
            let ingress =
                if x.is_multiple_of(3) { None } else { Some(Dart((x >> 11) as u32 % 40)) };
            let state = (x >> 5) % 17;
            assert_eq!(
                scratch.record(node, ingress, &state),
                reference.insert((node, ingress, state)),
                "disagreement on ({node}, {ingress:?}, {state})"
            );
        }
        assert_eq!(scratch.len(), reference.len());
    }

    #[test]
    fn reset_forgets_everything_and_keeps_working() {
        let mut scratch: WalkScratch<u32> = WalkScratch::new();
        assert!(scratch.record(NodeId(1), None, &7));
        assert!(!scratch.record(NodeId(1), None, &7));
        scratch.reset();
        assert!(scratch.is_empty());
        assert!(scratch.record(NodeId(1), None, &7), "reset must forget the triple");
        assert_eq!(scratch.len(), 1);
    }

    #[test]
    fn generations_age_out_stale_slots_across_many_walks() {
        // One huge walk grows the table; later short walks must still
        // match HashSet semantics exactly, without inheriting stale
        // entries from any earlier generation.
        let mut scratch: WalkScratch<u64> = WalkScratch::new();
        for n in 0..3_000u32 {
            assert!(scratch.record(NodeId(n), None, &0));
        }
        for walk in 0..200u64 {
            scratch.reset();
            let mut reference = HashSet::new();
            for step in 0..10u64 {
                let node = NodeId(((walk * 7 + step * 3) % 40) as u32);
                let state = (walk + step) % 5;
                assert_eq!(
                    scratch.record(node, None, &state),
                    reference.insert((node, state)),
                    "walk {walk} step {step}"
                );
            }
        }
    }

    #[test]
    fn colliding_keys_are_disambiguated_exactly() {
        // Force many entries into a tiny value domain so probe chains
        // and key collisions actually occur.
        let mut scratch: WalkScratch<u8> = WalkScratch::new();
        for n in 0..2_000u32 {
            assert!(scratch.record(NodeId(n), None, &0));
        }
        for n in 0..2_000u32 {
            assert!(!scratch.record(NodeId(n), None, &0));
        }
    }

    #[test]
    fn fx_hasher_is_deterministic_and_spreads() {
        let h = |v: u64| {
            let mut h = FxHasher64::default();
            h.write_u64(v);
            h.finish()
        };
        assert_eq!(h(42), h(42));
        assert_ne!(h(42), h(43));
        // Byte-slice path folds 8-byte chunks plus tail.
        let mut a = FxHasher64::default();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut b = FxHasher64::default();
        b.write(&[1, 2, 3, 4, 5, 6, 7, 8, 10]);
        assert_ne!(a.finish(), b.finish());
    }
}
