//! The unit kernel's first step against its definition.
//!
//! Every topological sweep gets its sources from
//! [`ConeOpener::open`](pr_bench::engine::ConeOpener::open). For each
//! (failed set, destination) unit the opener must yield exactly the
//! sources whose failure-free path crosses a failed link — all nodes
//! filtered through `SpTree::path_crosses`, in node order — each with
//! the cost a from-scratch Dijkstra over the survivor graph gives it
//! (`None` when the failure cut it off), and nothing for a unit no
//! path of which crosses a failure. One opener serves every unit of a
//! fixture, as a sweep worker's does.

use pr_bench::engine::{ConeOpener, ConePlan, SweepUnit};
use pr_graph::{algo, Graph, LinkId, LinkSet, NodeId, SpTree};
use pr_scenarios::{ExhaustiveKFailures, ScenarioFamily};
use pr_topologies::{Isp, Weighting};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// What the fixture exercised, so a vacuous pass cannot hide.
#[derive(Default)]
struct Seen {
    empty_cones: usize,
    cut_off_sources: usize,
    disconnecting_sets: usize,
}

fn check_scenario(
    plan: &ConePlan<'_>,
    opener: &mut ConeOpener<'_>,
    scenario: usize,
    failed: &LinkSet,
    seen: &mut Seen,
) {
    let g: &Graph = plan.graph();
    seen.disconnecting_sets += usize::from(!algo::is_connected(g, failed));
    for dst in g.nodes() {
        let base_tree = plan.base().towards(dst);
        let live = SpTree::towards(g, dst, failed);
        let expected: Vec<(NodeId, Option<u64>)> = g
            .nodes()
            .filter(|&src| base_tree.path_crosses(g, src, failed))
            .map(|src| (src, live.cost(src)))
            .collect();
        let unit = SweepUnit { scenario, failed, dst, base_tree };
        let yielded: Vec<(NodeId, Option<u64>)> = opener.open(&unit).collect();
        assert_eq!(yielded, expected, "failed {failed:?}, destination {dst}");
        let repairs = opener.take_stats().repairs;
        assert_eq!(repairs, u64::from(!expected.is_empty()), "an empty cone repairs nothing");
        seen.empty_cones += usize::from(expected.is_empty());
        seen.cut_off_sources += expected.iter().filter(|(_, cost)| cost.is_none()).count();
    }
}

#[test]
fn abilene_exhaustive_singles_and_pairs_open_to_their_definition() {
    let g = pr_topologies::load(Isp::Abilene, Weighting::Distance);
    let plan = ConePlan::new(&g);
    let mut opener = plan.opener();
    let mut seen = Seen::default();
    for k in [1, 2] {
        let family = ExhaustiveKFailures::new(&g, k);
        for i in 0..family.len() {
            check_scenario(&plan, &mut opener, i, &family.scenario(i), &mut seen);
        }
    }
    assert!(seen.empty_cones > 0, "some unit must be untouched by its failure");
    assert!(seen.disconnecting_sets > 0, "some pair of Abilene's links is a cut");
    assert!(seen.cut_off_sources > 0);
}

#[test]
fn positive_genus_mesh_sampled_sets_open_to_their_definition() {
    // The mesh `tests/determinism.rs` sweeps under the identity
    // rotation; the opener itself never sees an embedding.
    let g = pr_graph::generators::synth_from_spec("isp:24:7").expect("synth spec");
    let plan = ConePlan::new(&g);
    let mut opener = plan.opener();
    let mut rng = StdRng::seed_from_u64(2010);
    let mut seen = Seen::default();
    for scenario in 0..160 {
        // Any k-subset of the links, cuts included.
        let k = 1 + scenario % 4;
        let mut failed = LinkSet::empty(g.link_count());
        while failed.len() < k {
            failed.insert(LinkId(rng.gen_range(0..g.link_count() as u32)));
        }
        check_scenario(&plan, &mut opener, scenario, &failed, &mut seen);
    }
    assert!(seen.empty_cones > 0);
    assert!(seen.disconnecting_sets > 0, "the sample must include cuts");
    assert!(seen.cut_off_sources > 0);
}
