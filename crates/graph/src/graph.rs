//! The core undirected multigraph with half-edge (dart) structure.

use serde::{Deserialize, Serialize};

use crate::{Dart, GraphError, LinkId, NodeId};

/// Geographic coordinates attached to a node, in degrees.
///
/// Used by the geometric embedding heuristic (neighbours sorted by
/// compass bearing) and by topology pretty-printers. Longitude first to
/// match the usual `(x, y)` plotting convention.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Coordinates {
    /// Longitude in degrees, east positive.
    pub lon: f64,
    /// Latitude in degrees, north positive.
    pub lat: f64,
}

impl Coordinates {
    /// Great-circle distance to `other` in kilometres (haversine on a
    /// 6371 km sphere).
    ///
    /// Lives on the graph layer because both the distance [`Weighting`]
    /// of `pr-topologies` and the geographically-correlated (SRLG)
    /// failure families of `pr-scenarios` need it.
    ///
    /// [`Weighting`]: https://docs.rs/pr-topologies
    pub fn haversine_km(self, other: Coordinates) -> f64 {
        self.on_sphere().haversine_km(other.on_sphere())
    }

    /// What the haversine reads of a position, taken once: a caller
    /// that measures every pair of n positions converts n times, not
    /// n² times.
    pub fn on_sphere(self) -> SpherePoint {
        let (lat, lon) = (self.lat.to_radians(), self.lon.to_radians());
        SpherePoint { lat, lon, cos_lat: lat.cos() }
    }
}

/// [`Coordinates`] in radians, with the cosine of the latitude
/// ([`Coordinates::on_sphere`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SpherePoint {
    lat: f64,
    lon: f64,
    cos_lat: f64,
}

impl SpherePoint {
    /// Great-circle distance to `other` in kilometres: the one
    /// haversine of the workspace, so [`Coordinates::haversine_km`]
    /// and a caller holding points agree to the bit.
    pub fn haversine_km(self, other: SpherePoint) -> f64 {
        let dlat = other.lat - self.lat;
        let dlon = other.lon - self.lon;
        let h =
            (dlat / 2.0).sin().powi(2) + self.cos_lat * other.cos_lat * (dlon / 2.0).sin().powi(2);
        2.0 * 6371.0 * h.sqrt().asin()
    }
}

/// One undirected link record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct LinkRecord {
    /// First endpoint (tail of the forward dart).
    a: NodeId,
    /// Second endpoint (head of the forward dart).
    b: NodeId,
    /// Strictly positive routing weight (IGP metric).
    weight: u32,
}

/// An undirected multigraph of routers and links, with a half-edge
/// ("dart") view used by embeddings and forwarding tables.
///
/// * Nodes and links carry dense `u32` ids (see [`NodeId`], [`LinkId`]).
/// * Every link owns two [`Dart`]s pointing in opposite directions.
/// * Parallel links are allowed (they are distinct links with distinct
///   dart pairs); self-loops are rejected because a failed self-loop is
///   meaningless for rerouting.
/// * Link weights are strictly positive integers (IGP metrics). Using
///   integers keeps shortest-path costs and the paper's *distance
///   discriminator* exact, so the strict-decrease termination condition
///   of §4.3 never suffers from floating-point ties.
///
/// # Example
///
/// ```
/// use pr_graph::Graph;
///
/// let mut g = Graph::new();
/// let a = g.add_node("A");
/// let b = g.add_node("B");
/// let l = g.add_link(a, b, 10).unwrap();
/// assert_eq!(g.endpoints(l), (a, b));
/// assert_eq!(g.dart_tail(l.forward()), a);
/// assert_eq!(g.dart_head(l.forward()), b);
/// assert_eq!(g.degree(a), 1);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Graph {
    names: Vec<String>,
    coords: Vec<Option<Coordinates>>,
    links: Vec<LinkRecord>,
    /// All out-darts, grouped by tail node in a flat CSR layout:
    /// node `u`'s interface list is
    /// `csr_darts[csr_offsets[u] .. csr_offsets[u + 1]]`, in link
    /// insertion order. One contiguous array (instead of the former
    /// per-node `Vec<Vec<Dart>>`) keeps Dijkstra/BFS inner loops
    /// cache-linear: a whole sweep of `darts_from` walks one allocation
    /// front to back.
    csr_darts: Vec<Dart>,
    /// `node_count + 1` offsets into `csr_darts` (last entry is the
    /// total dart count).
    csr_offsets: Vec<u32>,
}

impl Default for Graph {
    fn default() -> Self {
        Self::new()
    }
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph {
            names: Vec::new(),
            coords: Vec::new(),
            links: Vec::new(),
            csr_darts: Vec::new(),
            // CSR invariant: `node_count + 1` offsets, starting at 0.
            csr_offsets: vec![0],
        }
    }

    /// Creates a graph with `n` anonymous nodes named `"0"`, `"1"`, ….
    pub fn with_nodes(n: usize) -> Self {
        let mut g = Self::new();
        for i in 0..n {
            g.add_node(i.to_string());
        }
        g
    }

    /// Adds a node and returns its id.
    ///
    /// Names are labels for humans; they are not required to be unique
    /// here (the topology parser enforces uniqueness at its level).
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        let id = NodeId(u32::try_from(self.names.len()).expect("graph exceeds u32 id space"));
        self.names.push(name.into());
        self.coords.push(None);
        // New node: empty interface segment at the end of the CSR.
        self.csr_offsets.push(*self.csr_offsets.last().expect("CSR has an initial offset"));
        id
    }

    /// Adds an undirected link between `a` and `b` with the given weight.
    ///
    /// # Errors
    ///
    /// * [`GraphError::SelfLoop`] if `a == b`;
    /// * [`GraphError::ZeroWeight`] if `weight == 0`;
    /// * [`GraphError::NodeOutOfRange`] if either endpoint is unknown.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, weight: u32) -> Result<LinkId, GraphError> {
        self.check_node(a)?;
        self.check_node(b)?;
        if a == b {
            return Err(GraphError::SelfLoop { node: a });
        }
        if weight == 0 {
            return Err(GraphError::ZeroWeight);
        }
        let id = LinkId(u32::try_from(self.links.len()).map_err(|_| GraphError::TooLarge)?);
        self.links.push(LinkRecord { a, b, weight });
        self.csr_insert(a, id.forward());
        self.csr_insert(b, id.reverse());
        Ok(id)
    }

    /// Appends `dart` to `node`'s CSR interface segment, shifting later
    /// segments right. O(total darts) per insertion, i.e. O(m²) for a
    /// full build — fine at this workspace's topology sizes (tens to
    /// hundreds of links), and construction is a one-off while the
    /// read side (`darts_from`) is the hot path. If graphs ever grow
    /// to many thousands of links, switch construction to buffering
    /// `(tail, dart)` pairs and building the CSR in one counting-sort
    /// pass on first read.
    fn csr_insert(&mut self, node: NodeId, dart: Dart) {
        let at = self.csr_offsets[node.index() + 1] as usize;
        self.csr_darts.insert(at, dart);
        for off in &mut self.csr_offsets[node.index() + 1..] {
            *off += 1;
        }
    }

    /// Attaches geographic coordinates to a node.
    pub fn set_coordinates(&mut self, node: NodeId, coords: Coordinates) {
        self.coords[node.index()] = Some(coords);
    }

    /// Coordinates of a node, if any were set.
    pub fn coordinates(&self, node: NodeId) -> Option<Coordinates> {
        self.coords[node.index()]
    }

    /// `true` if every node has coordinates.
    pub fn fully_located(&self) -> bool {
        self.coords.iter().all(Option::is_some)
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.names.len()
    }

    /// Number of undirected links.
    #[inline]
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Number of darts (always `2 * link_count`).
    #[inline]
    pub fn dart_count(&self) -> usize {
        self.links.len() * 2
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> {
        (0..self.names.len() as u32).map(NodeId)
    }

    /// Iterator over all link ids.
    pub fn links(&self) -> impl ExactSizeIterator<Item = LinkId> {
        (0..self.links.len() as u32).map(LinkId)
    }

    /// Iterator over all darts.
    pub fn darts(&self) -> impl ExactSizeIterator<Item = Dart> {
        (0..self.links.len() as u32 * 2).map(Dart)
    }

    /// Human-readable name of a node.
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.names[node.index()]
    }

    /// Looks a node up by name (linear scan; topologies are small).
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.names.iter().position(|n| n == name).map(|i| NodeId(i as u32))
    }

    /// The two endpoints of a link, in declaration order.
    #[inline]
    pub fn endpoints(&self, link: LinkId) -> (NodeId, NodeId) {
        let r = &self.links[link.index()];
        (r.a, r.b)
    }

    /// The weight (IGP metric) of a link.
    #[inline]
    pub fn weight(&self, link: LinkId) -> u32 {
        self.links[link.index()].weight
    }

    /// The node a dart points *away from*.
    #[inline]
    pub fn dart_tail(&self, dart: Dart) -> NodeId {
        let r = &self.links[dart.link().index()];
        if dart.is_forward() {
            r.a
        } else {
            r.b
        }
    }

    /// The node a dart points *to*.
    #[inline]
    pub fn dart_head(&self, dart: Dart) -> NodeId {
        let r = &self.links[dart.link().index()];
        if dart.is_forward() {
            r.b
        } else {
            r.a
        }
    }

    /// Darts leaving `node`, in link insertion order.
    ///
    /// This is the node's *interface list*: the dart `X -> Y` is the
    /// outgoing interface from `X` towards `Y`, and its twin is the
    /// paper's `I_XY` (the interface at `Y` receiving from `X`). The
    /// slice is a window into one flat CSR array shared by all nodes.
    #[inline]
    pub fn darts_from(&self, node: NodeId) -> &[Dart] {
        let lo = self.csr_offsets[node.index()] as usize;
        let hi = self.csr_offsets[node.index() + 1] as usize;
        &self.csr_darts[lo..hi]
    }

    /// Degree of a node (number of incident link endpoints).
    #[inline]
    pub fn degree(&self, node: NodeId) -> usize {
        (self.csr_offsets[node.index() + 1] - self.csr_offsets[node.index()]) as usize
    }

    /// Finds a link joining `a` and `b` (either orientation), if any.
    ///
    /// With parallel links, returns the lowest-id one.
    pub fn find_link(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        self.darts_from(a).iter().find(|&&d| self.dart_head(d) == b).map(|d| d.link())
    }

    /// Finds the dart oriented `a -> b`, if a link joins them.
    ///
    /// With parallel links, returns the one on the lowest-id link.
    pub fn find_dart(&self, a: NodeId, b: NodeId) -> Option<Dart> {
        self.darts_from(a).iter().copied().find(|&d| self.dart_head(d) == b)
    }

    /// Validates a node id.
    fn check_node(&self, node: NodeId) -> Result<(), GraphError> {
        if node.index() < self.names.len() {
            Ok(())
        } else {
            Err(GraphError::NodeOutOfRange { node, node_count: self.names.len() })
        }
    }

    /// Returns a compact one-line summary, e.g. `"abilene: 11 nodes, 14 links"`.
    pub fn summary(&self, label: &str) -> String {
        format!("{label}: {} nodes, {} links", self.node_count(), self.link_count())
    }

    /// A stable structural fingerprint of the graph: FNV-1a over node
    /// names, link endpoints, weights, and coordinates (as bit
    /// patterns).
    ///
    /// Stable across runs, processes and platforms (unlike
    /// `std::hash::RandomState`), so sweep checkpoints can record it in
    /// a manifest and a resume can verify it is merging shards of the
    /// *same* topology.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
        };
        eat(&(self.node_count() as u64).to_le_bytes());
        for node in self.nodes() {
            eat(self.node_name(node).as_bytes());
            eat(&[0]);
            match self.coordinates(node) {
                None => eat(&[0]),
                Some(c) => {
                    eat(&[1]);
                    eat(&c.lon.to_bits().to_le_bytes());
                    eat(&c.lat.to_bits().to_le_bytes());
                }
            }
        }
        eat(&(self.link_count() as u64).to_le_bytes());
        for link in self.links() {
            let (a, b) = self.endpoints(link);
            eat(&a.0.to_le_bytes());
            eat(&b.0.to_le_bytes());
            eat(&self.weight(link).to_le_bytes());
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> (Graph, [NodeId; 3], [LinkId; 3]) {
        let mut g = Graph::new();
        let a = g.add_node("A");
        let b = g.add_node("B");
        let c = g.add_node("C");
        let ab = g.add_link(a, b, 1).unwrap();
        let bc = g.add_link(b, c, 2).unwrap();
        let ca = g.add_link(c, a, 3).unwrap();
        (g, [a, b, c], [ab, bc, ca])
    }

    #[test]
    fn counts() {
        let (g, _, _) = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.link_count(), 3);
        assert_eq!(g.dart_count(), 6);
    }

    #[test]
    fn dart_orientation() {
        let (g, [a, b, _c], [ab, ..]) = triangle();
        assert_eq!(g.dart_tail(ab.forward()), a);
        assert_eq!(g.dart_head(ab.forward()), b);
        assert_eq!(g.dart_tail(ab.reverse()), b);
        assert_eq!(g.dart_head(ab.reverse()), a);
    }

    #[test]
    fn interface_lists() {
        let (g, [a, b, c], [ab, bc, ca]) = triangle();
        assert_eq!(g.darts_from(a), &[ab.forward(), ca.reverse()]);
        assert_eq!(g.darts_from(b), &[ab.reverse(), bc.forward()]);
        assert_eq!(g.darts_from(c), &[bc.reverse(), ca.forward()]);
        assert_eq!(g.degree(a), 2);
    }

    #[test]
    fn find_link_and_dart() {
        let (g, [a, b, c], [ab, bc, _]) = triangle();
        assert_eq!(g.find_link(a, b), Some(ab));
        assert_eq!(g.find_link(b, a), Some(ab));
        assert_eq!(g.find_dart(b, c), Some(bc.forward()));
        assert_eq!(g.find_dart(c, b), Some(bc.reverse()));
        let mut g2 = g.clone();
        let d = g2.add_node("D");
        assert_eq!(g2.find_link(a, d), None);
    }

    #[test]
    fn rejects_self_loop_and_zero_weight() {
        let mut g = Graph::new();
        let a = g.add_node("A");
        let b = g.add_node("B");
        assert_eq!(g.add_link(a, a, 1), Err(GraphError::SelfLoop { node: a }));
        assert_eq!(g.add_link(a, b, 0), Err(GraphError::ZeroWeight));
    }

    #[test]
    fn rejects_unknown_endpoint() {
        let mut g = Graph::new();
        let a = g.add_node("A");
        let ghost = NodeId(42);
        assert!(matches!(g.add_link(a, ghost, 1), Err(GraphError::NodeOutOfRange { .. })));
    }

    #[test]
    fn parallel_links_are_distinct() {
        let mut g = Graph::new();
        let a = g.add_node("A");
        let b = g.add_node("B");
        let l1 = g.add_link(a, b, 1).unwrap();
        let l2 = g.add_link(a, b, 5).unwrap();
        assert_ne!(l1, l2);
        assert_eq!(g.degree(a), 2);
        assert_eq!(g.find_link(a, b), Some(l1));
        assert_eq!(g.weight(l2), 5);
    }

    #[test]
    fn csr_ordering_matches_per_node_insertion_order() {
        // Regression for the flat-CSR adjacency: `darts_from` must
        // enumerate exactly what the former `Vec<Vec<Dart>>` held —
        // each node's out-darts in link insertion order. Canonical
        // tie-breaking (and hence every routing table in the
        // workspace) depends on this order.
        let mut g = Graph::new();
        let nodes: Vec<NodeId> = (0..7).map(|i| g.add_node(format!("n{i}"))).collect();
        // Deterministic but scrambled construction, incl. a parallel
        // link and interleaved add_node/add_link calls.
        let mut reference: Vec<Vec<Dart>> = vec![Vec::new(); nodes.len()];
        let pairs =
            [(0usize, 3usize), (2, 1), (0, 1), (4, 0), (2, 3), (2, 3), (5, 2), (1, 4), (3, 5)];
        for &(a, b) in &pairs {
            let l = g.add_link(nodes[a], nodes[b], 1).unwrap();
            reference[a].push(l.forward());
            reference[b].push(l.reverse());
        }
        let late = g.add_node("late");
        let l = g.add_link(late, nodes[6], 2).unwrap();
        reference.push(vec![l.forward()]);
        reference[6].push(l.reverse());
        for (i, expected) in reference.iter().enumerate() {
            assert_eq!(g.darts_from(NodeId(i as u32)), expected.as_slice(), "node {i}");
            assert_eq!(g.degree(NodeId(i as u32)), expected.len());
        }
        // The flat array is the concatenation of the per-node lists.
        let flat: Vec<Dart> = g.nodes().flat_map(|u| g.darts_from(u).to_vec()).collect();
        assert_eq!(flat.len(), g.dart_count());
    }

    #[test]
    fn names_and_lookup() {
        let (g, [a, ..], _) = triangle();
        assert_eq!(g.node_name(a), "A");
        assert_eq!(g.node_by_name("B"), Some(NodeId(1)));
        assert_eq!(g.node_by_name("Z"), None);
    }

    #[test]
    fn coordinates_roundtrip() {
        let (mut g, [a, ..], _) = triangle();
        assert!(!g.fully_located());
        g.set_coordinates(a, Coordinates { lon: -0.13, lat: 51.52 });
        let c = g.coordinates(a).unwrap();
        assert_eq!(c.lon, -0.13);
        assert_eq!(c.lat, 51.52);
    }

    #[test]
    fn haversine_on_coordinates() {
        // London to New York is about 5570 km.
        let london = Coordinates { lon: -0.13, lat: 51.51 };
        let ny = Coordinates { lon: -74.01, lat: 40.71 };
        let d = london.haversine_km(ny);
        assert!((5400.0..5750.0).contains(&d), "got {d}");
        assert!(london.haversine_km(london) < 1e-9);
        // Symmetric.
        assert!((d - ny.haversine_km(london)).abs() < 1e-9);
    }

    #[test]
    fn serde_roundtrip() {
        let (g, _, _) = triangle();
        let json = serde_json::to_string(&g).unwrap();
        let g2: Graph = serde_json::from_str(&json).unwrap();
        assert_eq!(g2.node_count(), 3);
        assert_eq!(g2.link_count(), 3);
        assert_eq!(g2.weight(LinkId(2)), 3);
    }
}
