//! The streaming contract of the scenario subsystem, exercised at a
//! scale a materialised `Vec<LinkSet>` is not welcome at: the
//! exhaustive k=3 space of GÉANT is C(52, 3) = 22 100 scenarios, and
//! the sweep below holds **one** `LinkSet` per worker at any instant —
//! the family is a few words, scenarios are unranked on demand inside
//! the engine's work units.

use pr_bench::engine;
use pr_graph::{algo, LinkSet};
use pr_scenarios::{ExhaustiveKFailures, ScenarioFamily, SingleLinkFailures};
use pr_topologies::{Isp, Weighting};

#[test]
fn exhaustive_k3_geant_sweeps_through_the_engine_without_materializing() {
    let g = pr_topologies::load(Isp::Geant, Weighting::Distance);
    let family = ExhaustiveKFailures::new(&g, 3);
    assert_eq!(family.len(), 22_100, "C(52, 3)");

    // One engine work unit per scenario; each unit unranks its own
    // failure set into a reusable per-worker buffer and classifies
    // connectivity. Memory: O(workers) LinkSets, never O(len).
    let count = |threads: usize| {
        let parts = engine::run_units(
            family.len(),
            threads,
            || LinkSet::empty(g.link_count()),
            |set, i| {
                *set = family.scenario(i);
                assert_eq!(set.len(), 3, "scenario {i}");
                u64::from(algo::is_connected(&g, set))
            },
        );
        parts.iter().sum::<u64>()
    };

    let serial = count(1);
    // GÉANT's cycle space has dimension 52 - 33 = 19 ≥ 3, so *some*
    // 3-subsets keep it connected; bridges-by-removal mean not all do.
    assert!(serial > 0 && serial < 22_100, "connected 3-subsets: {serial}");
    // Thread counts agree (the sum is order-invariant, but the engine
    // also merges per-unit results in index order).
    for threads in [2, 4] {
        assert_eq!(count(threads), serial, "{threads} threads");
    }

    // The connected subsets, filtered into a list, are a family too:
    // swept through the engine, every one of them stays connected.
    let connected: Vec<LinkSet> =
        family.scenarios().filter(|set| algo::is_connected(&g, set)).collect();
    assert_eq!(connected.len() as u64, serial);
    let still = engine::run_units(
        connected.len(),
        2,
        || (),
        |_, i| u64::from(algo::is_connected(&g, &connected.scenario(i))),
    );
    assert_eq!(still.iter().sum::<u64>(), serial);
}

#[test]
fn streaming_single_family_matches_the_historical_list() {
    let g = pr_topologies::load(Isp::Geant, Weighting::Distance);
    let fam = SingleLinkFailures::new(&g);
    let list: Vec<LinkSet> = fam.scenarios().collect();
    assert_eq!(fam.len(), list.len());
    for (i, expected) in list.into_iter().enumerate() {
        assert_eq!(fam.scenario(i), expected);
    }
}
