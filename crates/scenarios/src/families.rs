//! The topological failure families.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use pr_graph::{algo, Graph, LinkId, LinkSet, NodeId};

use crate::family::ScenarioFamily;

/// Every single-link failure, exhaustively — the space of the paper's
/// Figure 2(a–c) and of the §4.2 coverage claim. Streaming: scenario
/// `i` is simply `{link i}`.
#[derive(Debug, Clone, Copy)]
pub struct SingleLinkFailures {
    links: usize,
}

impl SingleLinkFailures {
    /// The single-link family of `graph`.
    pub fn new(graph: &Graph) -> SingleLinkFailures {
        SingleLinkFailures { links: graph.link_count() }
    }
}

impl ScenarioFamily for SingleLinkFailures {
    fn label(&self) -> String {
        "single-link".into()
    }

    fn link_capacity(&self) -> usize {
        self.links
    }

    fn len(&self) -> usize {
        self.links
    }

    fn scenario(&self, index: usize) -> LinkSet {
        assert!(index < self.links, "scenario {index} out of range for {} links", self.links);
        LinkSet::from_links(self.links, [LinkId(index as u32)])
    }
}

/// Node (router) failures: scenario `i` fails **every link incident to
/// node `i`** — the standard model for a PoP-wide outage (linecard,
/// power, maintenance window), per the multi-failure evaluations of
/// Chiesa et al. and the MRC literature. Streaming: the incident set
/// is rebuilt from the graph on demand.
///
/// Destinations equal to the failed node are unreachable by
/// construction; sweep harnesses already skip disconnected pairs, so
/// no special-casing is needed here.
#[derive(Debug, Clone, Copy)]
pub struct NodeFailures<'a> {
    graph: &'a Graph,
}

impl<'a> NodeFailures<'a> {
    /// The node-failure family of `graph`.
    pub fn new(graph: &'a Graph) -> NodeFailures<'a> {
        NodeFailures { graph }
    }

    /// The node whose incident links scenario `index` fails.
    pub fn node(&self, index: usize) -> NodeId {
        NodeId(index as u32)
    }
}

impl ScenarioFamily for NodeFailures<'_> {
    fn label(&self) -> String {
        "node".into()
    }

    fn link_capacity(&self) -> usize {
        self.graph.link_count()
    }

    fn len(&self) -> usize {
        self.graph.node_count()
    }

    fn scenario(&self, index: usize) -> LinkSet {
        assert!(index < self.graph.node_count(), "scenario {index} out of node range");
        let node = NodeId(index as u32);
        LinkSet::from_links(
            self.graph.link_count(),
            self.graph.darts_from(node).iter().map(|d| d.link()),
        )
    }
}

/// Geographically-correlated failures (shared-risk link groups):
/// scenario `i` takes an "epicentre" at node `i`'s PoP coordinates and
/// fails **every link with an endpoint within `radius_km`** — fibre
/// conduits, power regions and natural disasters take out
/// geographically clustered links together, not independent samples.
/// Seeded from the coordinates already shipped with
/// abilene/geant/teleglobe. Streaming: membership is recomputed by
/// haversine on demand.
#[derive(Debug, Clone, Copy)]
pub struct SrlgFailures<'a> {
    graph: &'a Graph,
    radius_km: f64,
}

impl<'a> SrlgFailures<'a> {
    /// The SRLG family of `graph` with blast radius `radius_km`.
    ///
    /// # Panics
    ///
    /// Panics unless every node carries coordinates (the shipped ISP
    /// topologies do; synthetic graphs can use
    /// `pr_graph::generators::with_synthetic_coordinates`).
    pub fn new(graph: &'a Graph, radius_km: f64) -> SrlgFailures<'a> {
        assert!(
            graph.fully_located(),
            "SRLG failures need coordinates on every node (got a partially-located graph)"
        );
        assert!(radius_km >= 0.0, "negative SRLG radius");
        SrlgFailures { graph, radius_km }
    }
}

impl ScenarioFamily for SrlgFailures<'_> {
    fn label(&self) -> String {
        format!("srlg({}km)", self.radius_km)
    }

    fn link_capacity(&self) -> usize {
        self.graph.link_count()
    }

    fn len(&self) -> usize {
        self.graph.node_count()
    }

    fn scenario(&self, index: usize) -> LinkSet {
        assert!(index < self.graph.node_count(), "scenario {index} out of node range");
        let centre =
            self.graph.coordinates(NodeId(index as u32)).expect("validated at construction");
        let mut set = LinkSet::empty(self.graph.link_count());
        for link in self.graph.links() {
            let (a, b) = self.graph.endpoints(link);
            let hit = [a, b].into_iter().any(|n| {
                let c = self.graph.coordinates(n).expect("validated at construction");
                centre.haversine_km(c) <= self.radius_km
            });
            if hit {
                set.insert(link);
            }
        }
        set
    }
}

/// Exhaustive enumeration of **every k-subset of links**, via
/// combinatorial-number-system unranking — `len()` is `C(m, k)` and
/// `scenario(i)` decodes the `i`-th subset in colexicographic order
/// without enumerating its predecessors. This is the family a
/// materialised `Vec<LinkSet>` cannot represent: on a few-hundred-node
/// generated topology, `C(m, 3)` runs into the billions while this
/// struct stays a few words.
///
/// With [`ExhaustiveKFailures::connected_only`], scenarios that
/// disconnect the graph are filtered out up front; the filter stores
/// one `u64` rank per surviving subset (never the subsets themselves),
/// so it is meant for topology sizes where `C(m, k)` itself is
/// enumerable in reasonable time. The unfiltered constructor stays
/// O(1) memory for arbitrary sizes (harnesses already skip
/// disconnected pairs downstream).
#[derive(Debug, Clone)]
pub struct ExhaustiveKFailures {
    links: usize,
    k: usize,
    total: u64,
    /// `Some(ranks)` = connectivity-filtered subfamily.
    ranks: Option<Vec<u64>>,
}

/// `C(n, k)` saturating at `u64::MAX` (a family that large is swept
/// only partially anyway).
fn binomial(n: usize, k: usize) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc * (n - i) as u128 / (i + 1) as u128;
        if acc > u64::MAX as u128 {
            return u64::MAX;
        }
    }
    acc as u64
}

impl ExhaustiveKFailures {
    /// Every k-subset of `graph`'s links, unfiltered.
    ///
    /// # Panics
    ///
    /// Panics if `C(m, k)` overflows `u64` — indices could no longer
    /// address the family, and no sweep can enumerate ~2⁶⁴ scenarios
    /// anyway. (On 64-bit targets `usize::try_from` in `len()` would
    /// otherwise accept the saturated count and decode garbage.)
    pub fn new(graph: &Graph, k: usize) -> ExhaustiveKFailures {
        let links = graph.link_count();
        let total = binomial(links, k);
        assert!(
            total < u64::MAX,
            "C({links}, {k}) overflows u64 — this family cannot be indexed (or swept)"
        );
        ExhaustiveKFailures { links, k, total, ranks: None }
    }

    /// Every k-subset whose removal leaves `graph` connected.
    ///
    /// Streams through all `C(m, k)` ranks once at construction,
    /// keeping only the passing ranks (8 bytes each).
    pub fn connected_only(graph: &Graph, k: usize) -> ExhaustiveKFailures {
        let unfiltered = Self::new(graph, k);
        let mut set = LinkSet::empty(graph.link_count());
        let ranks = (0..unfiltered.total)
            .filter(|&rank| {
                unfiltered.write_subset(rank, &mut set);
                algo::is_connected(graph, &set)
            })
            .collect();
        ExhaustiveKFailures { ranks: Some(ranks), ..unfiltered }
    }

    /// Number of failed links per scenario.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Decodes combinatorial rank `rank` into `out` (cleared first).
    ///
    /// Colex unranking: the last element is the largest `c` with
    /// `C(c, k) <= rank`, then recurse on `rank - C(c, k)` with `k-1`.
    fn write_subset(&self, mut rank: u64, out: &mut LinkSet) {
        out.clear();
        let mut k = self.k;
        let mut upper = self.links;
        while k > 0 {
            // Largest c in [k-1, upper) with C(c, k) <= rank.
            let mut c = k - 1;
            while c + 1 < upper && binomial(c + 1, k) <= rank {
                c += 1;
            }
            out.insert(LinkId(c as u32));
            rank -= binomial(c, k);
            upper = c;
            k -= 1;
        }
        debug_assert_eq!(rank, 0, "rank fully consumed");
    }
}

impl ScenarioFamily for ExhaustiveKFailures {
    fn label(&self) -> String {
        match &self.ranks {
            None => format!("exhaustive-{}", self.k),
            Some(_) => format!("exhaustive-{}-connected", self.k),
        }
    }

    fn link_capacity(&self) -> usize {
        self.links
    }

    fn len(&self) -> usize {
        match &self.ranks {
            // `total < u64::MAX` is asserted at construction; this
            // conversion only guards 32-bit targets.
            None => usize::try_from(self.total).expect("family too large to index on this target"),
            Some(r) => r.len(),
        }
    }

    fn scenario(&self, index: usize) -> LinkSet {
        let rank = match &self.ranks {
            None => {
                assert!((index as u64) < self.total, "scenario {index} out of range");
                index as u64
            }
            Some(r) => r[index],
        };
        let mut out = LinkSet::empty(self.links);
        self.write_subset(rank, &mut out);
        out
    }
}

/// One random draw of up to `k` failed links that keep the graph
/// connected, plus the bookkeeping to make a shortfall **explicit**:
/// on graphs that cannot lose `k` links (a ring can lose exactly one),
/// the drawn set is smaller than requested, and silently returning it
/// used to skew per-k statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureDraw {
    /// The drawn failure set (connectivity-preserving).
    pub links: LinkSet,
    /// The failure count that was asked for.
    pub requested: usize,
}

impl FailureDraw {
    /// How many links short of the request the draw fell
    /// (0 = the draw is complete).
    pub fn shortfall(&self) -> usize {
        self.requested.saturating_sub(self.links.len())
    }

    /// `true` if the draw reached the requested failure count.
    pub fn is_complete(&self) -> bool {
        self.shortfall() == 0
    }
}

/// Samples a random non-disconnecting failure set of up to `k` links
/// by shuffling the links and greedily failing those that keep the
/// graph connected. Deterministic in `seed`. The returned
/// [`FailureDraw`] carries the requested `k`, so callers can assert on
/// (or report) a shortfall instead of silently under-failing.
pub fn random_connected_failures(graph: &Graph, k: usize, seed: u64) -> FailureDraw {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut failed = LinkSet::empty(graph.link_count());
    let mut candidates: Vec<LinkId> = graph.links().collect();
    candidates.shuffle(&mut rng);
    for l in candidates {
        if failed.len() >= k {
            break;
        }
        if algo::connected_after(graph, &failed, l) {
            failed.insert(l);
        }
    }
    FailureDraw { links: failed, requested: k }
}

/// `count` sampled k-link failure scenarios (Figure 2(d–f) style),
/// **deduplicated**: adjacent seeds can greedily arrive at the
/// identical `LinkSet`, and duplicate scenarios double-count in the
/// stretch statistics. Duplicates are skipped and backfilled from
/// subsequent seeds so the family still holds `count` distinct
/// scenarios whenever the graph admits them (bounded by a draw budget;
/// a ring, say, has fewer distinct connected failure sets than any
/// large `count`).
#[derive(Debug, Clone)]
pub struct SampledMultiFailures {
    k: usize,
    sets: Vec<LinkSet>,
}

impl SampledMultiFailures {
    /// Draws `count` distinct scenarios of up to `k` links each,
    /// deterministic in `base_seed`.
    pub fn new(graph: &Graph, k: usize, count: usize, base_seed: u64) -> SampledMultiFailures {
        let mut seen: HashSet<LinkSet> = HashSet::with_capacity(count);
        let mut sets = Vec::with_capacity(count);
        // Seed draws follow base_seed, base_seed+1, … exactly as the
        // pre-dedup sampler did, so the first `count` distinct draws
        // match its output minus the duplicates; the budget bounds the
        // backfill on graphs with fewer than `count` distinct sets.
        let budget = (count as u64).saturating_mul(64).saturating_add(64);
        for offset in 0..budget {
            if sets.len() >= count {
                break;
            }
            let draw = random_connected_failures(graph, k, base_seed.wrapping_add(offset));
            if seen.insert(draw.links.clone()) {
                sets.push(draw.links);
            }
        }
        SampledMultiFailures { k, sets }
    }

    /// Number of **kept** scenarios that fell short of `k` failed
    /// links (the graph could not lose `k`); 0 means every scenario in
    /// the family has exactly `k`.
    pub fn incomplete_draws(&self) -> usize {
        self.sets.iter().filter(|s| s.len() < self.k).count()
    }

    /// `true` if every kept scenario has exactly `k` failed links.
    pub fn all_draws_complete(&self) -> bool {
        self.incomplete_draws() == 0
    }
}

impl ScenarioFamily for SampledMultiFailures {
    fn label(&self) -> String {
        format!("multi-{}", self.k)
    }

    fn link_capacity(&self) -> usize {
        self.sets.first().map(LinkSet::capacity).unwrap_or(0)
    }

    fn len(&self) -> usize {
        self.sets.len()
    }

    fn scenario(&self, index: usize) -> LinkSet {
        self.sets[index].clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pr_graph::generators;

    #[test]
    fn single_link_family_covers_every_link() {
        let g = generators::ring(5, 1);
        let fam = SingleLinkFailures::new(&g);
        assert_eq!(fam.len(), 5);
        assert_eq!(fam.link_capacity(), 5);
        for i in 0..fam.len() {
            let s = fam.scenario(i);
            assert_eq!(s.len(), 1);
            assert!(s.contains(LinkId(i as u32)));
        }
    }

    #[test]
    fn node_family_fails_incident_links() {
        let g = generators::wheel(6, 1); // hub = node 5, degree 5
        let fam = NodeFailures::new(&g);
        assert_eq!(fam.len(), 6);
        let hub = fam.scenario(5);
        assert_eq!(hub.len(), 5);
        for l in hub.iter() {
            let (a, b) = g.endpoints(l);
            assert!(a == NodeId(5) || b == NodeId(5));
        }
        // Rim nodes have degree 3 (two ring neighbours + hub).
        assert_eq!(fam.scenario(0).len(), 3);
    }

    #[test]
    fn srlg_radius_controls_blast_size() {
        let g = generators::with_synthetic_coordinates(generators::grid(3, 3, 1));
        // Synthetic coordinates are degrees on a 1-degree grid; 1 deg
        // of latitude ≈ 111 km.
        let tight = SrlgFailures::new(&g, 1.0);
        let wide = SrlgFailures::new(&g, 100_000.0);
        assert_eq!(tight.len(), 9);
        for i in 0..tight.len() {
            let t = tight.scenario(i);
            let w = wide.scenario(i);
            // The tight radius only catches links touching the
            // epicentre node itself; the enormous one catches all.
            assert!(t.len() <= w.len());
            assert_eq!(w.len(), g.link_count(), "100000 km covers the whole grid");
            assert_eq!(t, NodeFailures::new(&g).scenario(i), "1 km SRLG == node failure");
        }
        assert!(tight.label().starts_with("srlg("));
    }

    #[test]
    #[should_panic(expected = "coordinates")]
    fn srlg_requires_coordinates() {
        let g = generators::ring(4, 1);
        let _ = SrlgFailures::new(&g, 10.0);
    }

    #[test]
    fn binomial_table() {
        assert_eq!(binomial(52, 3), 22_100);
        assert_eq!(binomial(5, 0), 1);
        assert_eq!(binomial(5, 5), 1);
        assert_eq!(binomial(4, 7), 0);
        assert_eq!(binomial(10, 2), 45);
        // Saturates instead of overflowing.
        assert_eq!(binomial(10_000, 50), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "overflows u64")]
    fn exhaustive_k_rejects_unindexable_sizes() {
        // C(80, 40) ≈ 1e23: the family could never be addressed by
        // index, so construction must fail fast, not decode garbage.
        let g = generators::random_two_edge_connected(
            42,
            80 - 42,
            1..=1,
            &mut rand::rngs::StdRng::seed_from_u64(1),
        );
        let _ = ExhaustiveKFailures::new(&g, 40);
    }

    #[test]
    fn exhaustive_k_unranks_every_subset_exactly_once() {
        let g = generators::complete(5, 1); // 10 links
        let fam = ExhaustiveKFailures::new(&g, 3);
        assert_eq!(fam.len(), 120);
        let mut seen = HashSet::new();
        for i in 0..fam.len() {
            let s = fam.scenario(i);
            assert_eq!(s.len(), 3, "scenario {i}");
            assert!(seen.insert(s), "duplicate subset at rank {i}");
        }
        assert_eq!(seen.len(), 120);
    }

    #[test]
    fn exhaustive_connected_only_filters() {
        let g = generators::ring(6, 1);
        // A ring disconnects under any 2-link failure.
        let all = ExhaustiveKFailures::new(&g, 2);
        assert_eq!(all.len(), 15);
        let conn = ExhaustiveKFailures::connected_only(&g, 2);
        assert_eq!(conn.len(), 0, "no 2-subset leaves a ring connected");
        // K4: every 2-subset leaves it connected.
        let k4 = generators::complete(4, 1);
        let conn = ExhaustiveKFailures::connected_only(&k4, 2);
        assert_eq!(conn.len(), 15);
        for i in 0..conn.len() {
            assert!(algo::is_connected(&k4, &conn.scenario(i)));
        }
        assert_eq!(conn.label(), "exhaustive-2-connected");
    }

    #[test]
    fn failure_draw_shortfall_is_explicit() {
        // On a ring, at most one link can fail without disconnection.
        let g = generators::ring(6, 1);
        let draw = random_connected_failures(&g, 4, 1);
        assert_eq!(draw.links.len(), 1, "a ring tolerates exactly one failure");
        assert_eq!(draw.requested, 4);
        assert_eq!(draw.shortfall(), 3);
        assert!(!draw.is_complete());
        // On K8 a draw of 10 completes.
        let k8 = generators::complete(8, 1);
        let draw = random_connected_failures(&k8, 10, 1);
        assert!(draw.is_complete());
        assert!(algo::is_connected(&k8, &draw.links));
    }

    #[test]
    fn sampling_is_deterministic() {
        let g = generators::complete(7, 1);
        assert_eq!(random_connected_failures(&g, 5, 3), random_connected_failures(&g, 5, 3));
        let a = SampledMultiFailures::new(&g, 3, 10, 42);
        let b = SampledMultiFailures::new(&g, 3, 10, 42);
        assert_eq!(a.sets, b.sets);
    }

    #[test]
    fn sampled_family_is_duplicate_free_and_backfilled() {
        let g = generators::complete(8, 1);
        let fam = SampledMultiFailures::new(&g, 10, 20, 99);
        assert_eq!(fam.len(), 20, "backfill keeps the requested count");
        assert!(fam.all_draws_complete());
        let mut seen = HashSet::new();
        for i in 0..fam.len() {
            let s = fam.scenario(i);
            assert_eq!(s.len(), 10);
            assert!(algo::is_connected(&g, &s));
            assert!(seen.insert(s), "duplicate scenario at index {i}");
        }
    }

    #[test]
    fn sampled_family_settles_when_the_space_is_exhausted() {
        // A 3-ring has exactly 3 distinct single-failure sets; asking
        // for 10 must terminate with the 3 that exist.
        let g = generators::ring(3, 1);
        let fam = SampledMultiFailures::new(&g, 1, 10, 7);
        assert_eq!(fam.len(), 3);
        assert_eq!(fam.incomplete_draws(), 0);
        // And with k beyond the graph's tolerance, draws are reported
        // incomplete.
        let fam = SampledMultiFailures::new(&g, 2, 10, 7);
        assert!(fam.incomplete_draws() > 0);
        assert!(!fam.all_draws_complete());
    }
}
