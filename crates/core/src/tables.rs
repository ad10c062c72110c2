//! Router state: routing tables with the DD column, and cycle
//! following tables.
//!
//! §4.1 of the paper defines two per-router structures:
//!
//! * the conventional **routing table**, extended with one column
//!   holding the *distance discriminator* to each destination (§4.3);
//! * the **cycle following table**, three columns with one row per
//!   interface: incoming interface → (outgoing interface under cycle
//!   following, outgoing interface under failure avoidance).
//!
//! Both are plain permutations/maps over darts, compiled once from the
//! shortest-path trees and the cellular embedding — no per-failure
//! state, which is the point of the scheme. [`MemoryFootprint`]
//! measures their size in bytes for the paper's §6 memory-overhead
//! argument (experiment E9).

use serde::{Deserialize, Serialize};

use pr_embedding::CellularEmbedding;
use pr_graph::{AllPairs, Dart, Graph, NodeId};

/// Which strictly-increasing path function serves as the distance
/// discriminator (§4.3 offers both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DiscriminatorKind {
    /// Number of hops to the destination along the shortest path.
    Hops,
    /// Sum of link weights along the shortest path.
    WeightedCost,
}

impl std::fmt::Display for DiscriminatorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiscriminatorKind::Hops => f.write_str("hops"),
            DiscriminatorKind::WeightedCost => f.write_str("weighted-cost"),
        }
    }
}

/// All routers' routing state, as a **view** of the failure-free
/// shortest-path trees: destination `d`'s next-hop column is the
/// next-dart column of the tree towards `d`, §4.3's "additional
/// column" that tree's hop or cost column. Nothing is copied: the table
/// PR forwards on is the map every sweep and replay reads.
///
/// Built from the **failure-free** topology: PR never recomputes these
/// at failure time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RoutingTables {
    pub(crate) base: AllPairs,
}

impl RoutingTables {
    /// Takes all-pairs shortest paths on the failure-free graph as the
    /// routing tables.
    ///
    /// # Panics
    ///
    /// Panics if the graph is disconnected: conventional routing (and
    /// the protocol's guarantees) presuppose a connected base topology.
    pub fn compile(graph: &Graph, all_pairs: AllPairs) -> RoutingTables {
        for tree in all_pairs.iter() {
            if let Some(node) = graph.nodes().find(|&node| !tree.reaches(node)) {
                let dest = tree.dest;
                panic!("routing tables require a connected graph: {node} cannot reach {dest}");
            }
        }
        RoutingTables { base: all_pairs }
    }

    /// Next dart from `node` towards `dest` (`None` when `node == dest`).
    #[inline]
    pub fn next_dart(&self, node: NodeId, dest: NodeId) -> Option<Dart> {
        self.base.towards(dest).next_dart(node)
    }

    /// The distance discriminator of `node` for `dest` under `kind`.
    #[inline]
    pub fn discriminator(&self, kind: DiscriminatorKind, node: NodeId, dest: NodeId) -> u64 {
        let tree = self.base.towards(dest);
        match kind {
            DiscriminatorKind::Hops => tree.hops(node).map(u64::from),
            DiscriminatorKind::WeightedCost => tree.cost(node),
        }
        .expect("routing tables are total: compile checked connectivity")
    }

    /// The largest discriminator value in the network under `kind` —
    /// what sizes the DD header field.
    pub fn max_discriminator(&self, kind: DiscriminatorKind) -> u64 {
        match kind {
            DiscriminatorKind::Hops => u64::from(self.base.hop_diameter()),
            DiscriminatorKind::WeightedCost => self.base.cost_diameter(),
        }
    }
}

/// One row of a router's cycle following table, in the paper's Table 1
/// layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CycleRow {
    /// Incoming interface (`I_YX`: the dart `Y → X`).
    pub incoming: Dart,
    /// Outgoing interface under cycle following (column 2).
    pub cycle_following: Dart,
    /// Outgoing interface under failure avoidance (column 3): the next
    /// hop over the complementary cycle of the link implied by
    /// column 2.
    pub complementary: Dart,
}

/// The network's cycle following tables: for every incoming dart, the
/// cycle-following and complementary outgoing darts.
///
/// Both columns are permutations over darts (footnote in §4.1), so the
/// whole structure is two flat arrays.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CycleFollowingTable {
    cf_out: Vec<Dart>,
    comp_out: Vec<Dart>,
}

impl CycleFollowingTable {
    /// Compiles the cycle following table from a cellular embedding:
    /// column 2 is `φ(incoming)` (continue the incoming dart's face),
    /// column 3 is the rotation successor of column 2 (the first hop of
    /// its complementary cycle).
    pub fn compile(graph: &Graph, embedding: &CellularEmbedding) -> CycleFollowingTable {
        let mut cf_out = Vec::with_capacity(graph.dart_count());
        let mut comp_out = Vec::with_capacity(graph.dart_count());
        for d in graph.darts() {
            let cf = embedding.cycle_continuation(d);
            cf_out.push(cf);
            comp_out.push(embedding.deflection(cf));
        }
        CycleFollowingTable { cf_out, comp_out }
    }

    /// Column 2: outgoing dart continuing the face of `incoming`.
    #[inline]
    pub fn cycle_following(&self, incoming: Dart) -> Dart {
        self.cf_out[incoming.index()]
    }

    /// Column 3: outgoing dart onto the complementary cycle of the
    /// link selected by column 2.
    #[inline]
    pub fn complementary(&self, incoming: Dart) -> Dart {
        self.comp_out[incoming.index()]
    }

    /// The rows of `node`'s local table, sorted by the incoming
    /// neighbour's name for stable display (the paper's Table 1 order).
    pub fn rows_at(&self, graph: &Graph, node: NodeId) -> Vec<CycleRow> {
        let mut rows: Vec<CycleRow> = graph
            .darts_from(node)
            .iter()
            .map(|&out| {
                let incoming = out.twin();
                CycleRow {
                    incoming,
                    cycle_following: self.cycle_following(incoming),
                    complementary: self.complementary(incoming),
                }
            })
            .collect();
        rows.sort_by(|a, b| {
            graph
                .node_name(graph.dart_tail(a.incoming))
                .cmp(graph.node_name(graph.dart_tail(b.incoming)))
        });
        rows
    }

    /// Renders `node`'s table in the paper's Table 1 notation, with the
    /// owning face of each outgoing interface in parentheses.
    pub fn display_at(&self, graph: &Graph, embedding: &CellularEmbedding, node: NodeId) -> String {
        use std::fmt::Write as _;
        let iface = |d: Dart| {
            format!(
                "I_{}{}",
                graph.node_name(graph.dart_tail(d)),
                graph.node_name(graph.dart_head(d))
            )
        };
        let mut out = format!(
            "Cycle following table at node {}.\n{:<10} {:<18} {}\n",
            graph.node_name(node),
            "Incoming",
            "Cycle Following",
            "Complementary"
        );
        for row in self.rows_at(graph, node) {
            let cf_face = embedding.main_cycle(row.cycle_following);
            let comp_face = embedding.main_cycle(row.complementary);
            let cf = format!("{} ({})", iface(row.cycle_following), cf_face);
            let comp = format!("{} ({})", iface(row.complementary), comp_face);
            writeln!(out, "{:<10} {:<18} {}", iface(row.incoming), cf, comp)
                .expect("writing to String cannot fail");
        }
        out
    }

    /// Number of rows network-wide (one per dart): of a table that came
    /// through serde with a column cut short, the rows both columns
    /// fill.
    pub fn len(&self) -> usize {
        self.cf_out.len().min(self.comp_out.len())
    }

    /// `true` for an empty (linkless) network.
    pub fn is_empty(&self) -> bool {
        self.cf_out.is_empty()
    }
}

/// Byte-level accounting of the per-router state PR adds, for the
/// paper's memory-overhead comparison (§6, experiment E9).
///
/// Counted with deliberately conservative field sizes: 4-byte interface
/// ids and 8-byte discriminators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryFootprint {
    /// Bytes of the conventional routing table (next-hop column only).
    pub routing_bytes: usize,
    /// Bytes added by the DD column (§4.3's "additional column").
    pub dd_column_bytes: usize,
    /// Bytes of the cycle following table (3 columns × interfaces).
    pub cycle_table_bytes: usize,
}

impl MemoryFootprint {
    /// Footprint of one router with `interfaces` local interfaces in a
    /// network of `destinations` routable destinations.
    pub fn per_router(interfaces: usize, destinations: usize) -> MemoryFootprint {
        MemoryFootprint {
            routing_bytes: destinations * 4,
            dd_column_bytes: destinations * 8,
            cycle_table_bytes: interfaces * 3 * 4,
        }
    }

    /// Total bytes PR adds on top of conventional routing state.
    pub fn pr_added_bytes(self) -> usize {
        self.dd_column_bytes + self.cycle_table_bytes
    }

    /// Total bytes including the conventional table.
    pub fn total_bytes(self) -> usize {
        self.routing_bytes + self.pr_added_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pr_embedding::RotationSystem;
    use pr_graph::{generators, LinkSet};

    fn ring_setup() -> (Graph, CellularEmbedding, RoutingTables) {
        let g = generators::ring(5, 1);
        let emb = CellularEmbedding::new(&g, RotationSystem::identity(&g)).unwrap();
        let ap = AllPairs::compute(&g, &LinkSet::empty(g.link_count()));
        let rt = RoutingTables::compile(&g, ap);
        (g, emb, rt)
    }

    #[test]
    fn routing_tables_match_trees() {
        let (g, _, rt) = ring_setup();
        let ap = AllPairs::compute(&g, &LinkSet::empty(g.link_count()));
        for dest in g.nodes() {
            for node in g.nodes() {
                assert_eq!(rt.next_dart(node, dest), ap.towards(dest).next_dart(node));
                if node != dest {
                    assert_eq!(
                        rt.discriminator(DiscriminatorKind::Hops, node, dest),
                        u64::from(ap.towards(dest).hops(node).unwrap())
                    );
                    assert_eq!(
                        rt.discriminator(DiscriminatorKind::WeightedCost, node, dest),
                        ap.towards(dest).cost(node).unwrap()
                    );
                }
            }
        }
    }

    #[test]
    fn discriminator_zero_at_destination() {
        let (g, _, rt) = ring_setup();
        for d in g.nodes() {
            assert_eq!(rt.discriminator(DiscriminatorKind::Hops, d, d), 0);
            assert_eq!(rt.next_dart(d, d), None);
        }
    }

    #[test]
    fn max_discriminator_is_diameter_on_unit_ring() {
        let (_, _, rt) = ring_setup();
        assert_eq!(rt.max_discriminator(DiscriminatorKind::Hops), 2);
        assert_eq!(rt.max_discriminator(DiscriminatorKind::WeightedCost), 2);
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn compile_panics_on_disconnected() {
        let mut g = Graph::new();
        g.add_node("a").unwrap();
        g.add_node("b").unwrap();
        let ap = AllPairs::compute(&g, &LinkSet::empty(0));
        let _ = RoutingTables::compile(&g, ap);
    }

    #[test]
    fn cycle_table_is_permutation_pair() {
        let (g, emb, _) = ring_setup();
        let ct = CycleFollowingTable::compile(&g, &emb);
        assert_eq!(ct.len(), g.dart_count());
        // Column 2 is a permutation over darts (§4.1 footnote)...
        let mut seen = vec![false; g.dart_count()];
        for d in g.darts() {
            let out = ct.cycle_following(d);
            assert!(!seen[out.index()]);
            seen[out.index()] = true;
            // ...whose outputs leave the node the incoming dart enters.
            assert_eq!(g.dart_tail(out), g.dart_head(d));
            // Column 3 leaves the same node and differs when degree > 1.
            assert_eq!(g.dart_tail(ct.complementary(d)), g.dart_head(d));
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn rows_are_sorted_by_incoming_neighbor_name() {
        let (g, emb, _) = ring_setup();
        let ct = CycleFollowingTable::compile(&g, &emb);
        for node in g.nodes() {
            let rows = ct.rows_at(&g, node);
            assert_eq!(rows.len(), g.degree(node));
            let names: Vec<&str> =
                rows.iter().map(|r| g.node_name(g.dart_tail(r.incoming))).collect();
            let mut sorted = names.clone();
            sorted.sort();
            assert_eq!(names, sorted);
            for r in rows {
                assert_eq!(g.dart_head(r.incoming), node);
                assert_eq!(g.dart_tail(r.cycle_following), node);
                assert_eq!(g.dart_tail(r.complementary), node);
            }
        }
    }

    #[test]
    fn display_contains_interface_notation() {
        let (g, emb, _) = ring_setup();
        let ct = CycleFollowingTable::compile(&g, &emb);
        let text = ct.display_at(&g, &emb, NodeId(0));
        assert!(text.contains("Cycle following table at node 0"));
        assert!(text.contains("I_"));
    }

    #[test]
    fn memory_footprint_scales() {
        let f = MemoryFootprint::per_router(4, 50);
        assert_eq!(f.routing_bytes, 200);
        assert_eq!(f.dd_column_bytes, 400);
        assert_eq!(f.cycle_table_bytes, 48);
        assert_eq!(f.pr_added_bytes(), 448);
        assert_eq!(f.total_bytes(), 648);
    }
}
