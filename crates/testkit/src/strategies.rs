//! The proptest strategies: random 2-edge-connected graphs, failure
//! sets and rotation systems over them.
//!
//! Everything shrinks (`proptest`'s tape): node and chord counts
//! towards the low end of their ranges, a failure set by dropping its
//! picks, a rotation system to the identity, a bridge or a parallel
//! link to none.

use std::ops::{Range, RangeInclusive};

use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pr_embedding::RotationSystem;
use pr_graph::{algo, generators, Graph, LinkId, LinkSet};

/// A reproducible random 2-edge-connected graph: a ring through
/// `nodes` nodes plus up to `chords` chords, link weights in `weights`.
pub fn two_edge_connected(
    nodes: Range<usize>,
    chords: Range<usize>,
    weights: RangeInclusive<u32>,
) -> impl Strategy<Value = Graph> {
    (nodes, chords, 0u64..u64::MAX).prop_map(move |(n, chords, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        generators::random_two_edge_connected(n, chords, weights.clone(), &mut rng)
    })
}

/// A graph of `graphs`, with or without a pendant node hung off it by
/// a **bridge**, with or without one of its links **doubled** by a
/// parallel one of another weight: what a 2-edge-connected ring with
/// chords never has.
pub fn with_bridge_or_parallel(
    graphs: impl Strategy<Value = Graph>,
) -> impl Strategy<Value = Graph> {
    (graphs, any::<bool>(), any::<bool>(), 0u32..u32::MAX).prop_map(
        |(mut g, bridge, parallel, pick)| {
            if parallel {
                let link = LinkId(pick % g.link_count() as u32);
                let (a, b) = g.endpoints(link);
                g.add_link(a, b, g.weight(link) + 1 + pick % 3).expect("distinct endpoints");
            }
            if bridge {
                let at = pr_graph::NodeId(pick % g.node_count() as u32);
                let pendant = g.add_node("pendant");
                g.add_link(at, pendant, 1 + pick % 9).expect("distinct endpoints");
            }
            g
        },
    )
}

/// `k` distinct links of `g` drawn from `rng`, cuts included — for the
/// seeded batteries that are lists, not strategies.
pub fn random_links(g: &Graph, k: usize, rng: &mut StdRng) -> LinkSet {
    let mut failed = LinkSet::empty(g.link_count());
    while failed.len() < k.min(g.link_count()) {
        failed.insert(LinkId(rng.gen_range(0..g.link_count() as u32)));
    }
    failed
}

/// Up to `most` link picks for [`failure_set`].
pub fn picks(most: usize) -> impl Strategy<Value = Vec<u32>> {
    vec(0u32..u32::MAX, 0..most + 1)
}

/// The failure set `picks` name on `g`: each pick fails the link of
/// that index modulo the link count, picked twice or not. With
/// `keep_connected`, a pick that would disconnect the survivor graph
/// is skipped.
pub fn failure_set(g: &Graph, picks: &[u32], keep_connected: bool) -> LinkSet {
    let mut failed = LinkSet::empty(g.link_count());
    for pick in picks {
        let link = LinkId(pick % g.link_count() as u32);
        if !keep_connected || algo::connected_after(g, &failed, link) {
            failed.insert(link);
        }
    }
    failed
}

/// A graph of `graphs` with up to `most` of its links failed
/// ([`failure_set`]).
pub fn with_failures(
    graphs: impl Strategy<Value = Graph>,
    most: usize,
    keep_connected: bool,
) -> impl Strategy<Value = (Graph, LinkSet)> {
    (graphs, picks(most)).prop_map(move |(g, picks)| {
        let failed = failure_set(&g, &picks, keep_connected);
        (g, failed)
    })
}

/// A graph of `graphs` with a rotation system: the identity, or a
/// seeded random one (any genus).
pub fn with_rotation(
    graphs: impl Strategy<Value = Graph>,
) -> impl Strategy<Value = (Graph, RotationSystem)> {
    (graphs, any::<bool>(), 0u64..u64::MAX).prop_map(|(g, shuffle, seed)| {
        let rotation = match shuffle {
            true => RotationSystem::random(&g, &mut StdRng::seed_from_u64(seed)),
            false => RotationSystem::identity(&g),
        };
        (g, rotation)
    })
}
