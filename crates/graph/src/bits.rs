//! u64 word-bitset helpers for dense index sets.
//!
//! [`LinkSet`](crate::LinkSet) packs link ids into u64 words so a
//! failure test is one word load; the replay dataplane plays the same
//! trick with *node* ids — an affected-source set, the cone sources
//! that carry demand — to mark members in any order and visit them in
//! ascending id. Those sets are scratch state resized per topology, so instead of a
//! dedicated owning type they are plain `Vec<u64>` buffers driven by
//! the free functions here. Everything is `#[inline]` and
//! branch-light; the iteration helper is the same
//! `trailing_zeros` / clear-lowest-bit loop `LinkSet::iter` uses.

/// Number of u64 words needed to hold `n` bits.
#[inline]
pub fn words_for(n: usize) -> usize {
    n.div_ceil(64)
}

/// Clears `words` and resizes it to cover `n` bits.
#[inline]
pub fn clear_and_resize(words: &mut Vec<u64>, n: usize) {
    words.clear();
    words.resize(words_for(n), 0);
}

/// Tests bit `i`.
#[inline]
pub fn test(words: &[u64], i: usize) -> bool {
    words[i >> 6] & (1u64 << (i & 63)) != 0
}

/// Sets bit `i`.
#[inline]
pub fn set(words: &mut [u64], i: usize) {
    words[i >> 6] |= 1u64 << (i & 63);
}

/// Number of set bits.
#[inline]
pub fn count(words: &[u64]) -> u64 {
    words.iter().map(|w| u64::from(w.count_ones())).sum()
}

/// Invokes `f` for every set bit of `word`, offset by `base`, in
/// increasing bit order.
#[inline]
pub fn for_each_in_word(mut word: u64, base: usize, mut f: impl FnMut(usize)) {
    while word != 0 {
        let b = word.trailing_zeros() as usize;
        word &= word - 1;
        f(base + b);
    }
}

/// Invokes `f` for every set bit, in increasing index order.
#[inline]
pub fn for_each_set(words: &[u64], mut f: impl FnMut(usize)) {
    for (wi, &w) in words.iter().enumerate() {
        for_each_in_word(w, wi << 6, &mut f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_test_count_roundtrip() {
        let mut w = Vec::new();
        clear_and_resize(&mut w, 130);
        assert_eq!(w.len(), 3);
        for i in [0usize, 63, 64, 129] {
            assert!(!test(&w, i));
            set(&mut w, i);
            assert!(test(&w, i));
        }
        assert_eq!(count(&w), 4);
        let mut seen = Vec::new();
        for_each_set(&w, |i| seen.push(i));
        assert_eq!(seen, vec![0, 63, 64, 129]);
    }

    #[test]
    fn clear_and_resize_zeroes_previous_contents() {
        let mut w = vec![!0u64; 4];
        clear_and_resize(&mut w, 65);
        assert_eq!(w, vec![0, 0]);
        assert_eq!(words_for(0), 0);
        assert_eq!(words_for(64), 1);
        assert_eq!(words_for(65), 2);
    }

    #[test]
    fn word_iteration_matches_bit_scan() {
        let mut w = Vec::new();
        clear_and_resize(&mut w, 200);
        let members = [3usize, 5, 63, 66, 130, 199];
        for &i in &members {
            set(&mut w, i);
        }
        let mut word1 = Vec::new();
        for_each_in_word(w[1], 64, |i| word1.push(i));
        assert_eq!(word1, vec![66], "word 1 covers bits 64..128");
        let mut all = Vec::new();
        for_each_set(&w, |i| all.push(i));
        assert_eq!(all, members.to_vec());
    }
}
