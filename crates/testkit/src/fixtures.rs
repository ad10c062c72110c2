//! The named fixtures: one table of (topology, failed set, flow) cases
//! that some harness once found by luck of sampling and that every
//! equivalence harness now replays on every run. A search that finds a
//! new worst case adds a row here, not a test somewhere.

use pr_graph::{generators, Graph, LinkSet};
use pr_scenarios::{ExhaustiveKFailures, OutageParams, SampledMultiFailures, ScenarioIter};
use pr_traffic::{FlowSet, GravityTraffic, UniformTraffic};

use crate::nets::{self, Net};
use crate::shapes::GroupShapes;

/// Every failure set of `g` of each size in `sizes`, smallest first.
pub fn exhaustive(g: &Graph, sizes: std::ops::RangeInclusive<usize>) -> Vec<LinkSet> {
    sizes
        .flat_map(|k| ScenarioIter::new(&ExhaustiveKFailures::new(g, k)).collect::<Vec<_>>())
        .collect()
}

/// `count` sampled failure sets of `g` of each size in `sizes` that
/// leave it connected.
pub fn sampled(
    g: &Graph,
    sizes: std::ops::RangeInclusive<usize>,
    count: usize,
    seed: u64,
) -> Vec<LinkSet> {
    sizes
        .flat_map(|k| {
            ScenarioIter::new(&SampledMultiFailures::new(g, k, count, seed)).collect::<Vec<_>>()
        })
        .collect()
}

/// Sweep-friendly outage timings — 80 ms flows at 2 kpps, 40 ms IGP
/// convergence — shared by the determinism suite, the golden CSV pin
/// and the decorator-overhead gate.
pub fn quick_outage() -> OutageParams {
    OutageParams {
        interval_ns: 500_000,
        fail_at_ns: 10_000_000,
        down_for_ns: 40_000_000,
        igp_convergence_ns: 40_000_000,
        duration_ns: 80_000_000,
        ..OutageParams::default()
    }
}

/// One named case.
pub struct Fixture {
    /// What the harnesses print when it fails.
    pub name: &'static str,
    /// The case's network, compiled afresh.
    pub net: fn() -> Net,
    /// The case's failed sets on its network's graph.
    pub failed_sets: fn(&Graph) -> Vec<LinkSet>,
    /// The case's flow set over its network.
    pub flows: fn(&Net) -> FlowSet,
    /// The one flow that shows it, when one does.
    pub pinned: Option<PinnedFlow>,
    /// The group shapes the case is here to drive, all agents of a
    /// harness taken together: a harness that iterates the table
    /// asserts it of what its observer saw.
    pub drives: fn(&GroupShapes) -> bool,
}

/// A flow by node names, with what each grouping rule prices it under
/// FCP: `cost` from where the failure is learnt, against `prefix` down
/// the tree to `tree_break` — the router above the first failed tree
/// link — plus `cost_from_break` from there.
pub struct PinnedFlow {
    /// Source.
    pub src: &'static str,
    /// Destination.
    pub dst: &'static str,
    /// The router above the first failed link of the tree path.
    pub tree_break: &'static str,
    /// What FCP delivers `src → dst` at.
    pub cost: u64,
    /// Failure-free cost from `src` to `tree_break`.
    pub prefix: u64,
    /// What FCP delivers `tree_break → dst` at.
    pub cost_from_break: u64,
}

/// The one set failing the links of `g` between these named nodes.
fn links(g: &Graph, names: &[(&str, &str)]) -> Vec<LinkSet> {
    let link = |&(a, b): &(&str, &str)| {
        let node = |name| g.node_by_name(name).expect("fixture node");
        g.find_link(node(a), node(b)).expect("fixture link")
    };
    vec![LinkSet::from_links(g.link_count(), names.iter().map(link))]
}

/// Three routers, the direct link A–C five times either leg of A–B–C.
fn lopsided_triangle() -> Graph {
    let mut g = Graph::new();
    let [a, b, c] = ["A", "B", "C"].map(|name| g.add_node(name).unwrap());
    for (u, v, weight) in [(a, b, 1), (b, c, 1), (a, c, 5)] {
        g.add_link(u, v, weight).expect("fixture link");
    }
    g
}

/// The 6-cycle 0–1–4–3–2–5–0 with unit weights: 0 and 3 are three hops
/// apart either way round. Its links are added from 0 the other way
/// round, so the forward dart of 1–4 is 4 → 1.
fn tied_hexagon() -> Graph {
    let mut g = Graph::new();
    let nodes = ["0", "1", "2", "3", "4", "5"].map(|name| g.add_node(name).unwrap());
    for (u, v) in [(0, 5), (5, 2), (2, 3), (3, 4), (4, 1), (1, 0)] {
        g.add_link(nodes[u], nodes[v], 1).expect("fixture link");
    }
    g
}

/// Unit demand on every ordered pair: the flows of a case that is about
/// paths, on a graph with no coordinates for gravity to read.
fn every_pair(net: &Net) -> FlowSet {
    FlowSet::all_pairs(&UniformTraffic::new(&net.g))
}

/// Every named case.
pub const TABLE: &[Fixture] = &[
    // Found by exhaustive k = 2 on isp:40:7. FCP marks the header at
    // any router incident to a failed link, so p3x0 has learnt its own
    // dead link before its path towards p2x1 breaks at p2x0, and
    // detours at 43 where a packet that starts at p2x0 pays 42 after a
    // prefix of 8. Grouping sources by the first failed tree link
    // mispriced 169 of 445 376 pairs, for FCP only.
    Fixture {
        name: "fcp-learns-a-failure-beside-its-path",
        net: || Net::searched(nets::synth("isp:40:7")),
        failed_sets: |g| links(g, &[("p2x0", "p2x1"), ("p3x0", "p3x1")]),
        flows: |net| FlowSet::all_pairs(&GravityTraffic::new(&net.g)),
        pinned: Some(PinnedFlow {
            src: "p3x0",
            dst: "p2x1",
            tree_break: "p2x0",
            cost: 43,
            prefix: 8,
            cost_from_break: 42,
        }),
        drives: |seen| seen.point_off_the_failed_tree,
    },
    // With two links down some destination's tree has a cone root but
    // no flow goes there; a merge of cone roots against flow groups
    // that consumed the next destination's group on such a root dropped
    // that group's demand. Only sparse flows under k >= 2 show it.
    Fixture {
        name: "sparse-flows-under-every-pair-of-abilene-links",
        net: Net::abilene,
        failed_sets: |g| exhaustive(g, 2..=2),
        // Half as many hot-spot samples as nodes: five flows to four
        // destinations, so most trees have no flow towards their root.
        flows: |net| FlowSet::sampled(&net.hotspot(2010), net.g.node_count() / 2, 2010),
        pinned: None,
        drives: |seen| seen.point_at_cone_root && seen.nested_points,
    },
    // The three cases of the single-failure PR closed form (the PR
    // lane of `pr_bench::lanes`), which prices a unit from the failed
    // dart's cycle-following episode. With A–B down, A deflects A → C towards
    // C onto the detour A–C–B and the packet is delivered at C, *inside*
    // the detour, at 5; the whole episode plus the far end's tree path
    // would read 5 + 1 + 1.
    Fixture {
        name: "pr-delivers-inside-the-detour",
        net: || Net::identity(lopsided_triangle()),
        failed_sets: |g| links(g, &[("A", "B")]),
        flows: every_pair,
        pinned: None,
        drives: |seen| seen.point_at_cone_root,
    },
    // With 0–1 down on a ring, 1 → 0 is delivered by the router where
    // cycle following meets the failed link again: the destination *is*
    // the link's far end, and nothing is left to route.
    Fixture {
        name: "pr-destination-is-the-far-end",
        net: || Net::identity(generators::ring(5, 1)),
        failed_sets: |g| links(g, &[("0", "1")]),
        flows: every_pair,
        pinned: None,
        drives: |seen| seen.point_at_cone_root,
    },
    // K4 under the identity rotation has genus 1, and both darts of 0–2
    // lie on one face: the episode 0 deflects 0 → 2 onto comes back to
    // 0 before it reaches 2, and PR livelocks although 0–1–2 survives.
    // No closed form covers it; the unit is walked.
    Fixture {
        name: "pr-episode-returns-to-the-point",
        net: || Net::identity(generators::complete(4, 1)),
        failed_sets: |g| links(g, &[("0", "2")]),
        flows: every_pair,
        pinned: None,
        drives: |seen| seen.point_at_cone_root && seen.dropped_point,
    },
    // The sweep reads a single failure's survivor distances off the
    // reverse pair's repair (`pr_bench::engine::ConeOpener`), which
    // must not assume the two trees break a tie the same way. With 1–4
    // down on the tied hexagon, the tree towards 3 routes 0 → 1 → 4 → 3
    // and crosses the link as 1 → 4, its reverse dart; the tree towards
    // 0 routes 3 → 2 → 5 → 0 and does not cross it. So 0 is in the
    // mirrored cone towards 3 while 3 is in no cone towards 0, and
    // 0 → 3 keeps its failure-free cost, 3.
    Fixture {
        name: "mirror-breaks-a-tie-the-other-way",
        net: || Net::identity(tied_hexagon()),
        failed_sets: |g| links(g, &[("1", "4")]),
        flows: every_pair,
        pinned: None,
        drives: |seen| seen.point_at_cone_root,
    },
];
