//! Compact sets of links, used to describe failure states.
//!
//! A failure scenario is "these links are down"; everything downstream
//! (routing recomputation, cycle following, FCP) consumes a [`LinkSet`].
//! The representation is a fixed-width bitset sized to the graph's link
//! count, so membership tests in the forwarding fast path are a single
//! word load.

use serde::{Deserialize, Serialize};

use crate::{Dart, LinkId};

/// A set of [`LinkId`]s backed by a bitset.
///
/// # Example
///
/// ```
/// use pr_graph::{LinkId, LinkSet};
///
/// let mut failed = LinkSet::empty(10);
/// failed.insert(LinkId(3));
/// assert!(failed.contains(LinkId(3)));
/// assert!(!failed.contains(LinkId(4)));
/// assert_eq!(failed.len(), 1);
/// ```
#[derive(Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LinkSet {
    /// One bit per link, little-endian within each word.
    words: Vec<u64>,
    /// Total number of links this set is sized for.
    capacity: usize,
}

impl Clone for LinkSet {
    fn clone(&self) -> Self {
        Self { words: self.words.clone(), capacity: self.capacity }
    }

    /// Reuses `self`'s buffer (a derived `Clone` would allocate a fresh
    /// one): per-worker scratch state keeps the failed set it was built
    /// for with `clone_from`, once per scenario.
    fn clone_from(&mut self, source: &Self) {
        self.words.clone_from(&source.words);
        self.capacity = source.capacity;
    }
}

impl LinkSet {
    /// An empty set sized for `capacity` links.
    pub fn empty(capacity: usize) -> Self {
        Self { words: vec![0; capacity.div_ceil(64)], capacity }
    }

    /// A set containing every link `0..capacity`.
    pub fn full(capacity: usize) -> Self {
        // Fill whole words, then mask the partial tail word instead of
        // setting bits one at a time.
        let mut words = vec![!0u64; capacity.div_ceil(64)];
        let tail = capacity % 64;
        if tail != 0 {
            if let Some(last) = words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
        Self { words, capacity }
    }

    /// Builds a set from an iterator of links.
    pub fn from_links(capacity: usize, links: impl IntoIterator<Item = LinkId>) -> Self {
        let mut s = Self::empty(capacity);
        for l in links {
            s.insert(l);
        }
        s
    }

    /// Number of links this set is sized for.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts a link. Returns `true` if it was newly inserted.
    #[inline]
    pub fn insert(&mut self, link: LinkId) -> bool {
        assert!(link.index() < self.capacity, "link {link} out of range for LinkSet");
        let (w, b) = (link.index() / 64, link.index() % 64);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !was
    }

    /// Removes a link. Returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, link: LinkId) -> bool {
        assert!(link.index() < self.capacity, "link {link} out of range for LinkSet");
        let (w, b) = (link.index() / 64, link.index() % 64);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        was
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, link: LinkId) -> bool {
        debug_assert!(link.index() < self.capacity, "link {link} out of range for LinkSet");
        let (w, b) = (link.index() / 64, link.index() % 64);
        self.words[w] & (1 << b) != 0
    }

    /// Membership test by dart (tests the dart's link; failures are
    /// bidirectional per §4 of the paper).
    #[inline]
    pub fn contains_dart(&self, dart: Dart) -> bool {
        self.contains(dart.link())
    }

    /// Number of links in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` if no link is in the set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterates over the members in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = LinkId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros();
                bits &= bits - 1;
                Some(LinkId((wi * 64) as u32 + b))
            })
        })
    }

    /// Set union (capacities must match).
    pub fn union(&self, other: &LinkSet) -> LinkSet {
        assert_eq!(self.capacity, other.capacity, "LinkSet capacity mismatch");
        LinkSet {
            words: self.words.iter().zip(&other.words).map(|(a, b)| a | b).collect(),
            capacity: self.capacity,
        }
    }

    /// In-place set union `self |= other` (capacities must match).
    /// Avoids the allocation of [`LinkSet::union`] in fold-style
    /// accumulation (e.g. assembling a node failure from its incident
    /// links, or an SRLG from its member links).
    pub fn union_in_place(&mut self, other: &LinkSet) {
        assert_eq!(self.capacity, other.capacity, "LinkSet capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Set difference `self \ other` (capacities must match).
    pub fn difference(&self, other: &LinkSet) -> LinkSet {
        assert_eq!(self.capacity, other.capacity, "LinkSet capacity mismatch");
        LinkSet {
            words: self.words.iter().zip(&other.words).map(|(a, b)| a & !b).collect(),
            capacity: self.capacity,
        }
    }

    /// Removes all members.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }
}

impl FromIterator<LinkId> for LinkSet {
    /// Collects links into a set sized exactly to the largest member.
    ///
    /// Prefer [`LinkSet::from_links`] when the graph's link count is
    /// known, so that capacities match across sets.
    fn from_iter<T: IntoIterator<Item = LinkId>>(iter: T) -> Self {
        let links: Vec<LinkId> = iter.into_iter().collect();
        let cap = links.iter().map(|l| l.index() + 1).max().unwrap_or(0);
        Self::from_links(cap, links)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = LinkSet::empty(100);
        assert!(s.is_empty());
        assert!(s.insert(LinkId(7)));
        assert!(!s.insert(LinkId(7)));
        assert!(s.insert(LinkId(64)));
        assert!(s.contains(LinkId(7)));
        assert!(s.contains(LinkId(64)));
        assert!(!s.contains(LinkId(8)));
        assert_eq!(s.len(), 2);
        assert!(s.remove(LinkId(7)));
        assert!(!s.remove(LinkId(7)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn iter_in_order() {
        let s = LinkSet::from_links(200, [LinkId(150), LinkId(3), LinkId(64), LinkId(63)]);
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v, vec![LinkId(3), LinkId(63), LinkId(64), LinkId(150)]);
    }

    #[test]
    fn union_difference_subset() {
        let a = LinkSet::from_links(10, [LinkId(1), LinkId(2)]);
        let b = LinkSet::from_links(10, [LinkId(2), LinkId(3)]);
        let u = a.union(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![LinkId(1), LinkId(2), LinkId(3)]);
        let d = a.difference(&b);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![LinkId(1)]);
    }

    #[test]
    fn union_in_place_matches_union() {
        let a = LinkSet::from_links(130, [LinkId(1), LinkId(64), LinkId(129)]);
        let b = LinkSet::from_links(130, [LinkId(2), LinkId(64)]);
        let mut c = a.clone();
        c.union_in_place(&b);
        assert_eq!(c, a.union(&b));
    }

    #[test]
    fn full_and_clear() {
        let mut s = LinkSet::full(70);
        assert_eq!(s.len(), 70);
        assert!(s.contains(LinkId(69)));
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn full_masks_the_tail_word() {
        for cap in [0usize, 1, 63, 64, 65, 128, 130] {
            let s = LinkSet::full(cap);
            assert_eq!(s.len(), cap, "capacity {cap}");
            assert_eq!(s.iter().count(), cap, "capacity {cap}");
            if cap > 0 {
                assert!(s.contains(LinkId(cap as u32 - 1)));
            }
            // No stray bits beyond the capacity: equality with the
            // one-at-a-time construction must hold exactly.
            assert_eq!(s, LinkSet::from_links(cap, (0..cap as u32).map(LinkId)));
        }
    }

    #[test]
    fn contains_dart_maps_to_link() {
        let s = LinkSet::from_links(4, [LinkId(2)]);
        assert!(s.contains_dart(LinkId(2).forward()));
        assert!(s.contains_dart(LinkId(2).reverse()));
        assert!(!s.contains_dart(LinkId(1).forward()));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics() {
        let mut s = LinkSet::empty(4);
        s.insert(LinkId(4));
    }

    #[test]
    fn clone_from_copies_members_and_capacity() {
        let source = LinkSet::from_links(130, [LinkId(0), LinkId(129)]);
        for mut target in [LinkSet::empty(3), LinkSet::full(500)] {
            target.clone_from(&source);
            assert_eq!(target, source);
            assert_eq!(target.capacity(), 130);
        }
    }

    #[test]
    fn from_iterator_sizes_to_max() {
        let s: LinkSet = [LinkId(9)].into_iter().collect();
        assert_eq!(s.capacity(), 10);
        assert!(s.contains(LinkId(9)));
    }
}
