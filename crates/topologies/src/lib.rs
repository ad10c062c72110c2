//! # pr-topologies — the evaluation topologies of the PR paper
//!
//! Provides the three ISP networks of the paper's §6 — **Abilene**,
//! **Teleglobe** and **GÉANT** — plus the worked example of its
//! Figure 1, as [`pr_graph::Graph`]s ready for embedding and
//! simulation.
//!
//! ## Data provenance and substitutions
//!
//! The paper's exact input files are not distributed; see `DESIGN.md`
//! at the workspace root for the substitution table. In short:
//!
//! * `abilene` — the published 11-PoP / 14-link Internet2 map
//!   (reference \[21\] of the paper), transcribed exactly.
//! * `geant` — the 2009 pan-European map at PoP level, 34 nodes /
//!   52 links, matching the Topology-Zoo "Geant2009" node/link counts.
//! * `teleglobe` — a PoP-level reconstruction of the AS 6453 global
//!   backbone (reference \[18\] pointed at Rocketfuel), 23 nodes /
//!   35 links.
//!
//! Topologies are shipped as plain-text `.topo` files (embedded with
//! `include_str!` and parsed by [`pr_graph::parser`]) so they can be
//! reviewed line by line against the published maps.
//!
//! ## Link weights
//!
//! The `.topo` files carry weight 1 on every link; [`load`] then
//! applies a [`Weighting`]:
//!
//! * [`Weighting::Hop`] — keep unit weights (hop-count routing);
//! * [`Weighting::Distance`] — great-circle distance in units of
//!   ~10 km (haversine, rounded up), the usual IGP-metric proxy.
//!
//! Distance weighting makes shortest paths — and therefore the
//! denominator of the paper's stretch metric — geographically
//! meaningful, and it is the default used by the experiment harness.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use pr_graph::{Graph, NodeId};

/// Raw text of the Abilene `.topo` file.
pub const ABILENE_TOPO: &str = include_str!("../data/abilene.topo");
/// Raw text of the GÉANT `.topo` file.
pub const GEANT_TOPO: &str = include_str!("../data/geant.topo");
/// Raw text of the Teleglobe `.topo` file.
pub const TELEGLOBE_TOPO: &str = include_str!("../data/teleglobe.topo");

/// How to assign IGP weights to the loaded links.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Weighting {
    /// Unit weight per link: routing minimises hop count.
    Hop,
    /// Great-circle distance between the endpoints' coordinates, in
    /// units of ~10 km (rounded up, minimum 1). Requires coordinates
    /// on every node.
    Distance,
}

/// One of the shipped evaluation topologies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isp {
    /// Abilene (Internet2), 11 nodes / 14 links.
    Abilene,
    /// GÉANT 2009, 34 nodes / 52 links.
    Geant,
    /// Teleglobe (AS 6453), 23 nodes / 35 links.
    Teleglobe,
}

impl Isp {
    /// All shipped ISPs, in the order the paper's Figure 2 shows them.
    pub const ALL: [Isp; 3] = [Isp::Abilene, Isp::Teleglobe, Isp::Geant];

    /// Lower-case name used in file names and experiment output.
    pub fn name(self) -> &'static str {
        match self {
            Isp::Abilene => "abilene",
            Isp::Geant => "geant",
            Isp::Teleglobe => "teleglobe",
        }
    }

    /// The raw `.topo` text for this ISP.
    pub fn topo_text(self) -> &'static str {
        match self {
            Isp::Abilene => ABILENE_TOPO,
            Isp::Geant => GEANT_TOPO,
            Isp::Teleglobe => TELEGLOBE_TOPO,
        }
    }

    /// Number of concurrent failures the paper's Figure 2(d–f) injects
    /// into this topology.
    pub fn paper_multi_failure_count(self) -> usize {
        match self {
            Isp::Abilene => 4,
            Isp::Teleglobe => 10,
            Isp::Geant => 16,
        }
    }
}

impl std::fmt::Display for Isp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Great-circle distance between two coordinate pairs, in kilometres.
///
/// Thin wrapper over [`pr_graph::Coordinates::haversine_km`] (the
/// helper moved to the graph layer so the SRLG scenario families can
/// use it too); kept here because the distance-weighting story of this
/// crate is where most callers first meet it.
pub fn haversine_km(a: pr_graph::Coordinates, b: pr_graph::Coordinates) -> f64 {
    a.haversine_km(b)
}

/// Applies a [`Weighting`] to a parsed unit-weight graph by rebuilding
/// it with the requested link weights.
fn reweight(graph: &Graph, weighting: Weighting) -> Graph {
    match weighting {
        Weighting::Hop => graph.clone(),
        Weighting::Distance => {
            let mut g = Graph::new();
            for node in graph.nodes() {
                let id = g.add_node(graph.node_name(node)).expect("reweighting preserves validity");
                if let Some(c) = graph.coordinates(node) {
                    g.set_coordinates(id, c);
                }
            }
            for link in graph.links() {
                let (a, b) = graph.endpoints(link);
                let (ca, cb) = (
                    graph.coordinates(a).expect("distance weighting requires coordinates"),
                    graph.coordinates(b).expect("distance weighting requires coordinates"),
                );
                let w = (haversine_km(ca, cb) / 10.0).ceil().max(1.0) as u32;
                g.add_link(a, b, w).expect("reweighting preserves validity");
            }
            g
        }
    }
}

/// Loads one of the shipped ISP topologies with the given weighting.
///
/// Panics only if the embedded data is corrupt, which the test suite
/// rules out.
pub fn load(isp: Isp, weighting: Weighting) -> Graph {
    let unit = pr_graph::parser::parse(isp.topo_text())
        .unwrap_or_else(|e| panic!("embedded {isp} topology is invalid: {e}"));
    reweight(&unit, weighting)
}

/// The 6-node example network of the paper's Figure 1(a), with the
/// exact cellular embedding drawn there (cycles c1–c4 plus the outer
/// face of the stereographic projection).
///
/// Returns the graph together with the per-node neighbour orders
/// inducing that embedding (feed them to
/// `pr_embedding::RotationSystem::from_neighbor_orders`).
///
/// The weights are chosen so that the shortest-path tree towards `F`
/// matches the thick edges of Figure 1(b) and the walkthroughs of
/// §4.2/§4.3: in particular `D` routes to `F` via `E` (so its stamped
/// hop-count distance discriminator is 2, as in the paper), and `A`
/// routes via `B`.
pub fn figure1() -> (Graph, Vec<Vec<NodeId>>) {
    let mut g = Graph::new();
    let [a, b, c, d, e, f] = ["A", "B", "C", "D", "E", "F"]
        .map(|name| g.add_node(name).expect("figure-1 construction is static"));
    for (x, y, w) in [
        (a, b, 1),
        (a, c, 2),
        (a, f, 5),
        (b, c, 2),
        (b, d, 1),
        (c, e, 2),
        (d, e, 1),
        (d, f, 3),
        (e, f, 1),
    ] {
        g.add_link(x, y, w).expect("figure-1 construction is static");
    }
    // Clockwise interface orders transcribed from Figure 1(a); these
    // induce exactly the cycle system c1..c4 (+ outer face) and the
    // cycle following table of the paper's Table 1.
    let orders = vec![
        vec![b, c, f], // around A
        vec![d, c, a], // around B
        vec![b, e, a], // around C
        vec![e, b, f], // around D
        vec![d, f, c], // around E
        vec![e, d, a], // around F
    ];
    (g, orders)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pr_graph::{algo, LinkSet};

    #[test]
    fn abilene_shape_matches_paper() {
        let g = load(Isp::Abilene, Weighting::Hop);
        assert_eq!(g.node_count(), 11);
        assert_eq!(g.link_count(), 14);
        assert!(g.fully_located());
    }

    #[test]
    fn geant_shape_matches_2009_map() {
        let g = load(Isp::Geant, Weighting::Hop);
        assert_eq!(g.node_count(), 34);
        assert_eq!(g.link_count(), 52);
        assert!(g.fully_located());
    }

    #[test]
    fn teleglobe_shape() {
        let g = load(Isp::Teleglobe, Weighting::Hop);
        assert_eq!(g.node_count(), 23);
        assert_eq!(g.link_count(), 35);
        assert!(g.fully_located());
    }

    #[test]
    fn all_isps_are_two_edge_connected() {
        // PR's single-failure guarantee (§4.2) assumes 2-edge-connected
        // topologies; all three evaluation networks satisfy it.
        for isp in Isp::ALL {
            let g = load(isp, Weighting::Hop);
            let none = LinkSet::empty(g.link_count());
            assert!(algo::is_two_edge_connected(&g, &none), "{isp} is not 2-edge-connected");
        }
    }

    #[test]
    fn distance_weights_are_positive_and_vary() {
        for isp in Isp::ALL {
            let g = load(isp, Weighting::Distance);
            let weights: Vec<u32> = g.links().map(|l| g.weight(l)).collect();
            assert!(weights.iter().all(|&w| w >= 1));
            assert!(
                weights.iter().any(|&w| w > 10),
                "{isp} distance weights suspiciously small: {weights:?}"
            );
            let min = weights.iter().min().unwrap();
            let max = weights.iter().max().unwrap();
            assert!(max > min, "{isp} weights do not vary");
        }
    }

    #[test]
    fn haversine_sanity() {
        // London to New York is about 5570 km.
        let london = pr_graph::Coordinates { lon: -0.13, lat: 51.51 };
        let ny = pr_graph::Coordinates { lon: -74.01, lat: 40.71 };
        let d = haversine_km(london, ny);
        assert!((5400.0..5750.0).contains(&d), "got {d}");
        // Zero distance to itself.
        assert!(haversine_km(london, london) < 1e-9);
    }

    #[test]
    fn figure1_shape_and_routing() {
        let (g, orders) = figure1();
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.link_count(), 9);
        assert_eq!(orders.len(), 6);
        // The shortest-path tree towards F matches Figure 1(b): D routes
        // via E (hop discriminator 2, as stamped in the paper's §4.3
        // walkthrough), and A routes via B.
        let f = g.node_by_name("F").unwrap();
        let tree = pr_graph::SpTree::towards_all_live(&g, f);
        let a = g.node_by_name("A").unwrap();
        let b = g.node_by_name("B").unwrap();
        let d = g.node_by_name("D").unwrap();
        let e = g.node_by_name("E").unwrap();
        let path = std::iter::successors(Some(a), |&n| tree.next_dart(n).map(|d| g.dart_head(d)));
        assert_eq!(path.collect::<Vec<_>>(), vec![a, b, d, e, f]);
        assert_eq!(tree.hops(d), Some(2));
        assert_eq!(tree.hops(e), Some(1));
        assert_eq!(tree.hops(b), Some(3));
    }

    #[test]
    fn figure1_is_biconnected() {
        let (g, _) = figure1();
        let none = LinkSet::empty(g.link_count());
        assert!(algo::is_biconnected(&g, &none));
    }

    #[test]
    fn multi_failure_counts_match_figure2() {
        assert_eq!(Isp::Abilene.paper_multi_failure_count(), 4);
        assert_eq!(Isp::Teleglobe.paper_multi_failure_count(), 10);
        assert_eq!(Isp::Geant.paper_multi_failure_count(), 16);
    }

    #[test]
    fn hop_weighting_keeps_unit_weights() {
        let g = load(Isp::Abilene, Weighting::Hop);
        assert!(g.links().all(|l| g.weight(l) == 1));
    }
}
