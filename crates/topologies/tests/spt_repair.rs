//! Incremental SPT repair equivalence at paper-topology scale.
//!
//! `SpTree::repair_from` claims bit-for-bit equality with the
//! from-scratch `SpTree::towards` — canonical `(dist, hops, parent id,
//! dart id)` tie-breaks included — on which every determinism contract
//! downstream (engine sweeps, FCP route memo, IGP reconvergence)
//! rests. Exercise it on all three shipped ISP topologies with random
//! k ∈ 1..=4 failure sets (64 cases per topology), every destination.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use pr_graph::{AllPairs, LinkSet, SpScratch, SpTree};
use pr_testkit::strategies::random_links;
use pr_topologies::{load, Isp, Weighting};

/// Draws `k` distinct links of `graph` (disconnecting sets allowed —
/// repair must agree with from-scratch on unreachable labels too).
fn random_failures(graph: &pr_graph::Graph, k: usize, seed: u64) -> LinkSet {
    random_links(graph, k, &mut StdRng::seed_from_u64(seed))
}

fn repair_matches_everywhere(isp: Isp, k: usize, seed: u64) {
    let g = load(isp, Weighting::Distance);
    let base = AllPairs::compute_all_live(&g);
    let failed = random_failures(&g, k, seed);
    let mut scratch = SpScratch::new();
    for dest in g.nodes() {
        let repaired = SpTree::repair_from(base.towards(dest), &g, dest, &failed, &mut scratch);
        let fresh = SpTree::towards(&g, dest, &failed);
        assert_eq!(repaired, fresh, "{isp}: dest {dest}, failed {k} links, seed {seed}");
    }
    let stats = scratch.stats();
    assert_eq!(stats.repairs, g.node_count() as u64);
    assert_eq!(stats.repaired_slots, (g.node_count() * g.node_count()) as u64);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn abilene_repair_equals_towards(k in 1usize..=4, seed in 0u64..u64::MAX) {
        repair_matches_everywhere(Isp::Abilene, k, seed);
    }

    #[test]
    fn geant_repair_equals_towards(k in 1usize..=4, seed in 0u64..u64::MAX) {
        repair_matches_everywhere(Isp::Geant, k, seed);
    }

    #[test]
    fn teleglobe_repair_equals_towards(k in 1usize..=4, seed in 0u64..u64::MAX) {
        repair_matches_everywhere(Isp::Teleglobe, k, seed);
    }
}

/// The all-pairs repair view used by the reconverging IGP matches the
/// full recompute on a real topology.
#[test]
fn geant_all_pairs_repair_matches_compute() {
    let g = load(Isp::Geant, Weighting::Distance);
    let base = AllPairs::compute_all_live(&g);
    let mut scratch = SpScratch::new();
    for seed in [1u64, 2, 3] {
        let failed = random_failures(&g, 3, seed);
        let repaired = base.repair_from(&g, &failed, &mut scratch);
        let fresh = AllPairs::compute(&g, &failed);
        for dest in g.nodes() {
            assert_eq!(repaired.towards(dest), fresh.towards(dest), "seed {seed} dest {dest}");
        }
    }
    // On 52-link GÉANT a 3-link failure must leave most labels intact —
    // the locality the incremental repair exists to exploit.
    assert!(scratch.stats().hit_rate() > 0.5, "stats: {:?}", scratch.stats());
}
