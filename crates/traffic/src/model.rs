//! Traffic-matrix models: who sends how much to whom.
//!
//! A [`TrafficModel`] is the demand-side analogue of a
//! `ScenarioFamily`: a *deterministic, random-access* description of
//! an `n × n` demand matrix — `demand(src, dst)` is pure in its
//! arguments, so replay workers can read entries concurrently and no
//! matrix is ever materialised. Three models ship:
//!
//! * [`UniformTraffic`] — demand exactly `1.0` on every ordered pair.
//!   The *unit* matrix: demand-weighted metrics under it are
//!   bit-identical to the unweighted (scenario × pair) counts, which is
//!   the bridge between the traffic subsystem and the coverage
//!   experiment (enforced by tests).
//! * [`GravityTraffic`] — the classic gravity model over the shipped
//!   PoP data: each PoP's *mass* is its total incident link capacity
//!   (the sum of its links' IGP weights — the population proxy the
//!   topology actually carries), and demand decays with the great-circle
//!   distance between PoPs. Deterministic; no RNG involved.
//! * [`HotspotTraffic`] — a seeded skew: a few hot PoPs (chosen by a
//!   splitmix64 stream, like scenario seeding) send and receive a
//!   multiple of everyone else's demand. Models the content-heavy /
//!   eyeball-heavy sites that make "40% of traffic crosses one link"
//!   real.
//!
//! Gravity and hot-spot matrices are normalised so the total offered
//! demand equals `n · (n − 1)` — the same total as the uniform unit
//! matrix — which makes weighted metrics comparable across models.

use pr_graph::{Graph, NodeId, SpherePoint};
use pr_scenarios::scenario_seed;
use serde::Serialize;

/// Distance scale (km) of the gravity model's friction term: demand
/// between PoPs a scale apart is half the co-located demand.
const GRAVITY_SCALE_KM: f64 = 1000.0;

/// A deterministic, random-access traffic matrix.
///
/// Requirements mirror `ScenarioFamily`: `demand(src, dst)` must be
/// **pure** (replay workers read entries concurrently and in arbitrary
/// order), non-negative, and `0.0` on the diagonal. Implementations
/// are `Sync` for the same reason.
pub trait TrafficModel: Sync {
    /// Human-readable model name for reports (e.g. `"gravity"`,
    /// `"hotspot(seed=7)"`).
    fn label(&self) -> String;

    /// Number of nodes the matrix is defined over.
    fn node_count(&self) -> usize;

    /// Demand from `src` to `dst` (`0.0` when `src == dst`).
    fn demand(&self, src: NodeId, dst: NodeId) -> f64;

    /// Total demand over all ordered pairs.
    fn total_demand(&self) -> f64 {
        let n = self.node_count() as u32;
        let mut total = 0.0;
        for dst in 0..n {
            for src in 0..n {
                total += self.demand(NodeId(src), NodeId(dst));
            }
        }
        total
    }
}

/// The unit matrix: demand exactly `1.0` between every ordered pair of
/// distinct nodes.
///
/// Exactness matters: sums of unit demands are integer-valued `f64`s,
/// so every weighted metric under this model is bit-identical to its
/// unweighted counterpart.
#[derive(Debug, Clone, Serialize)]
pub struct UniformTraffic {
    nodes: usize,
}

impl UniformTraffic {
    /// Uniform unit traffic over `graph`'s nodes.
    pub fn new(graph: &Graph) -> UniformTraffic {
        UniformTraffic { nodes: graph.node_count() }
    }
}

impl TrafficModel for UniformTraffic {
    fn label(&self) -> String {
        "uniform".into()
    }

    fn node_count(&self) -> usize {
        self.nodes
    }

    fn demand(&self, src: NodeId, dst: NodeId) -> f64 {
        if src == dst {
            0.0
        } else {
            1.0
        }
    }
}

/// Gravity-model traffic from the shipped PoP data: demand
/// `∝ mass(src) · mass(dst) / (1 + (distance/1000 km)²)`, where a
/// PoP's mass is the sum of its incident link weights (the capacity
/// the ISP provisioned there — the population proxy the topology
/// carries) and distance is the great-circle distance between the
/// PoPs' coordinates.
///
/// The friction term is computed once per **unordered** pair, into a
/// lower-triangular table (1 MB at 500 nodes; the front doors drop the
/// model once their flow set is built): n(n−1)/2 haversines instead of
/// one per ordered pair for the norm and one more per read. Reading `(a, b)`
/// and `(b, a)` from one entry moves no bit, because the haversine is
/// symmetric to the bit: IEEE subtraction gives `b − a = −(a − b)`,
/// `sin` is odd and squaring drops the sign, and the cosine product
/// commutes.
#[derive(Debug, Clone, Serialize)]
pub struct GravityTraffic {
    masses: Vec<f64>,
    /// `1 + (km / 1000)²` of every pair `i > j`, row-major from row 1:
    /// entry `i (i − 1) / 2 + j` ([`GravityTraffic::friction`]).
    friction: Vec<f64>,
    /// Normalisation factor making the total demand `n · (n − 1)`.
    norm: f64,
}

impl GravityTraffic {
    /// Builds the gravity model for `graph`.
    ///
    /// # Panics
    ///
    /// Panics if any node lacks coordinates (use a shipped ISP
    /// topology, or set coordinates on every node) or if the graph has
    /// fewer than two nodes.
    pub fn new(graph: &Graph) -> GravityTraffic {
        assert!(
            graph.fully_located(),
            "gravity traffic needs PoP coordinates on every node (use a shipped ISP topology)"
        );
        let n = graph.node_count();
        assert!(n >= 2, "gravity traffic needs at least two nodes");
        let mut masses = vec![0.0; n];
        for link in graph.links() {
            let (a, b) = graph.endpoints(link);
            let w = f64::from(graph.weight(link));
            masses[a.index()] += w;
            masses[b.index()] += w;
        }
        let points: Vec<SpherePoint> = graph
            .nodes()
            .map(|v| graph.coordinates(v).expect("fully located").on_sphere())
            .collect();
        let mut friction = Vec::with_capacity(n * (n - 1) / 2);
        for (i, &a) in points.iter().enumerate() {
            friction.extend(points[..i].iter().map(|&b| {
                let km = a.haversine_km(b);
                1.0 + (km / GRAVITY_SCALE_KM) * (km / GRAVITY_SCALE_KM)
            }));
        }
        let mut model = GravityTraffic { masses, friction, norm: 1.0 };
        let raw = model.total_demand();
        assert!(raw > 0.0, "gravity masses are all zero");
        model.norm = (n * (n - 1)) as f64 / raw;
        model
    }

    /// The friction term between two distinct nodes, either order.
    #[inline]
    fn friction(&self, a: NodeId, b: NodeId) -> f64 {
        let (i, j) = if a > b { (a.index(), b.index()) } else { (b.index(), a.index()) };
        self.friction[i * (i - 1) / 2 + j]
    }
}

impl TrafficModel for GravityTraffic {
    fn label(&self) -> String {
        "gravity".into()
    }

    fn node_count(&self) -> usize {
        self.masses.len()
    }

    fn demand(&self, src: NodeId, dst: NodeId) -> f64 {
        if src == dst {
            return 0.0;
        }
        self.norm * self.masses[src.index()] * self.masses[dst.index()] / self.friction(src, dst)
    }
}

/// Seeded hot-spot skew: `hotspots` nodes (drawn without replacement
/// from a splitmix64 stream — the scenario-seeding discipline) send
/// and receive `boost ×` the base demand, compounding to `boost²` on
/// hot-to-hot pairs.
#[derive(Debug, Clone, Serialize)]
pub struct HotspotTraffic {
    nodes: usize,
    hot: Vec<bool>,
    boost: f64,
    seed: u64,
    /// Normalisation factor making the total demand `n · (n − 1)`.
    norm: f64,
}

impl HotspotTraffic {
    /// Hot-spot traffic over `graph` with `hotspots` hot nodes chosen
    /// by `seed` and the given per-endpoint `boost` factor.
    ///
    /// # Panics
    ///
    /// Panics when `hotspots` is zero or not less than the node count,
    /// or when `boost` is not positive.
    pub fn new(graph: &Graph, hotspots: usize, boost: f64, seed: u64) -> HotspotTraffic {
        let n = graph.node_count();
        assert!(hotspots > 0 && hotspots < n, "need 0 < hotspots < node count, got {hotspots}");
        assert!(boost > 0.0, "boost must be positive, got {boost}");
        let mut hot = vec![false; n];
        let mut chosen = 0usize;
        let mut draw = 0usize;
        while chosen < hotspots {
            let pick = (scenario_seed(seed, draw) % n as u64) as usize;
            draw += 1;
            if !hot[pick] {
                hot[pick] = true;
                chosen += 1;
            }
        }
        let mut model = HotspotTraffic { nodes: n, hot, boost, seed, norm: 1.0 };
        model.norm = (n * (n - 1)) as f64 / model.total_demand();
        model
    }

    /// Default skew: `max(1, n/8)` hot nodes with an 8× boost.
    pub fn with_defaults(graph: &Graph, seed: u64) -> HotspotTraffic {
        let hotspots = (graph.node_count() / 8).max(1);
        HotspotTraffic::new(graph, hotspots, 8.0, seed)
    }
}

impl TrafficModel for HotspotTraffic {
    fn label(&self) -> String {
        format!("hotspot(x{}, seed={})", self.boost, self.seed)
    }

    fn node_count(&self) -> usize {
        self.nodes
    }

    fn demand(&self, src: NodeId, dst: NodeId) -> f64 {
        if src == dst {
            return 0.0;
        }
        let mut d = self.norm;
        if self.hot[src.index()] {
            d *= self.boost;
        }
        if self.hot[dst.index()] {
            d *= self.boost;
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pr_topologies::{Isp, Weighting};

    fn geant() -> Graph {
        pr_topologies::load(Isp::Geant, Weighting::Distance)
    }

    #[test]
    fn uniform_is_exactly_unit() {
        let g = geant();
        let m = UniformTraffic::new(&g);
        let n = g.node_count();
        assert_eq!(m.node_count(), n);
        assert_eq!(m.demand(NodeId(0), NodeId(1)), 1.0);
        assert_eq!(m.demand(NodeId(3), NodeId(3)), 0.0);
        assert_eq!(m.total_demand(), (n * (n - 1)) as f64, "unit sums are exact");
    }

    #[test]
    fn gravity_demand_keeps_the_bits_of_the_per_pair_haversine() {
        // The haversine as it was spelled per pair — four conversions
        // and two cosines each time — is the reference: hoisting them
        // per node must not move a bit of any distance or demand.
        fn per_pair_km(a: pr_graph::Coordinates, b: pr_graph::Coordinates) -> f64 {
            let (lat1, lon1) = (a.lat.to_radians(), a.lon.to_radians());
            let (lat2, lon2) = (b.lat.to_radians(), b.lon.to_radians());
            let (dlat, dlon) = (lat2 - lat1, lon2 - lon1);
            let h =
                (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
            2.0 * 6371.0 * h.sqrt().asin()
        }
        let graphs = [
            geant(),
            pr_topologies::load(Isp::Abilene, Weighting::Distance),
            pr_topologies::load(Isp::Teleglobe, Weighting::Distance),
            pr_graph::generators::synth_from_spec("isp:40:7").unwrap(),
            pr_graph::generators::synth_from_spec("isp:500:2010").unwrap(),
        ];
        for g in graphs {
            let m = GravityTraffic::new(&g);
            let at = |v| g.coordinates(v).unwrap();
            let mass = |v: NodeId| m.masses[v.index()];
            let mut raw = 0.0;
            for dst in g.nodes() {
                for src in g.nodes() {
                    let km = per_pair_km(at(src), at(dst));
                    assert_eq!(at(src).haversine_km(at(dst)).to_bits(), km.to_bits());
                    let friction = 1.0 + (km / GRAVITY_SCALE_KM) * (km / GRAVITY_SCALE_KM);
                    // As `demand` spells it, the factor first: 1 while
                    // `new` takes the total, the norm afterwards.
                    let demand = |norm: f64| match src == dst {
                        true => 0.0,
                        false => norm * mass(src) * mass(dst) / friction,
                    };
                    raw += demand(1.0);
                    assert_eq!(m.demand(src, dst).to_bits(), demand(m.norm).to_bits());
                }
            }
            let n = g.node_count();
            assert_eq!(m.norm.to_bits(), ((n * (n - 1)) as f64 / raw).to_bits());
        }
    }

    /// What lets one friction entry serve both directions of a pair:
    /// `b − a = −(a − b)` in IEEE arithmetic, `sin` is odd, squaring
    /// drops the sign and the cosine product commutes, so the distance
    /// is the same to the bit either way round.
    #[test]
    fn the_haversine_is_symmetric_to_the_bit() {
        let shipped = Isp::ALL.map(|isp| pr_topologies::load(isp, Weighting::Distance));
        let synth = ["isp:40:7", "isp:40:2010", "isp:500:7", "isp:500:2010"]
            .map(|spec| pr_graph::generators::synth_from_spec(spec).unwrap());
        for g in shipped.iter().chain(&synth) {
            let points: Vec<SpherePoint> =
                g.nodes().map(|v| g.coordinates(v).unwrap().on_sphere()).collect();
            for (i, &a) in points.iter().enumerate() {
                for (j, &b) in points.iter().enumerate() {
                    let (ab, ba) = (a.haversine_km(b), b.haversine_km(a));
                    assert_eq!(ab.to_bits(), ba.to_bits(), "n{i} n{j}: {ab} against {ba}");
                }
            }
        }
    }

    #[test]
    fn gravity_is_normalised_deterministic_and_distance_sensitive() {
        let g = geant();
        let m = GravityTraffic::new(&g);
        let n = g.node_count();
        assert!((m.total_demand() - (n * (n - 1)) as f64).abs() < 1e-6);
        // Pure in (src, dst): two reads agree.
        assert_eq!(m.demand(NodeId(1), NodeId(2)), m.demand(NodeId(1), NodeId(2)));
        assert_eq!(m.demand(NodeId(5), NodeId(5)), 0.0);
        // Building the model twice gives the identical matrix.
        let m2 = GravityTraffic::new(&g);
        for dst in g.nodes() {
            for src in g.nodes() {
                assert_eq!(m.demand(src, dst), m2.demand(src, dst));
            }
        }
        // Distance sensitivity: for a fixed well-connected source, the
        // matrix is not flat (GÉANT spans Lisbon to Moscow).
        let src = NodeId(0);
        let demands: Vec<f64> = g.nodes().filter(|&d| d != src).map(|d| m.demand(src, d)).collect();
        let min = demands.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = demands.iter().cloned().fold(0.0, f64::max);
        assert!(max > min * 1.5, "gravity should spread demand (min {min}, max {max})");
    }

    #[test]
    #[should_panic(expected = "coordinates")]
    fn gravity_rejects_unlocated_graphs() {
        let g = pr_graph::generators::ring(5, 1);
        let _ = GravityTraffic::new(&g);
    }

    #[test]
    fn hotspot_is_seeded_and_skewed() {
        let g = geant();
        let n = g.node_count();
        let m = HotspotTraffic::with_defaults(&g, 2010);
        assert!((m.total_demand() - (n * (n - 1)) as f64).abs() < 1e-6);
        let hot_nodes = |m: &HotspotTraffic| -> Vec<NodeId> {
            g.nodes().filter(|v| m.hot[v.index()]).collect()
        };
        let hot = hot_nodes(&m);
        assert_eq!(hot.len(), n / 8);
        // Same seed, same hot set; different seed, (almost surely)
        // different demand on some pair.
        assert_eq!(hot_nodes(&HotspotTraffic::with_defaults(&g, 2010)), hot);
        let other = HotspotTraffic::with_defaults(&g, 2011);
        assert_ne!(hot_nodes(&other), hot, "seed must matter");
        // Hot→hot pairs carry boost² over cold→cold pairs.
        let cold: Vec<NodeId> = g.nodes().filter(|v| !hot.contains(v)).take(2).collect();
        let ratio = m.demand(hot[0], cold[0]) / m.demand(cold[0], cold[1]);
        assert!((ratio - 8.0).abs() < 1e-9, "hot endpoint boosts 8x, got {ratio}");
    }
}
