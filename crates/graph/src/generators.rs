//! Synthetic topology generators.
//!
//! ISP topologies (Abilene, GÉANT, Teleglobe) live in the
//! `pr-topologies` crate; these generators provide controlled synthetic
//! structure for the CLI, the examples and the ablation benches: small
//! fixtures of known genus (rings are planar, `K5` and Petersen have
//! genus 1) and the seeded ISP-scale families behind `synth:` specs.
//! The shapes only tests draw live in the dev-only test kit.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{Coordinates, Graph, NodeId};

/// A simple path `0 - 1 - … - (n-1)` with uniform weights.
///
/// Every link is a bridge; useful as a negative case for coverage tests.
pub fn path(n: usize, weight: u32) -> Graph {
    let mut g = Graph::with_nodes(n);
    for i in 1..n {
        g.add_link(NodeId(i as u32 - 1), NodeId(i as u32), weight).unwrap();
    }
    g
}

/// A cycle `0 - 1 - … - (n-1) - 0` with uniform weights.
///
/// The smallest 2-edge-connected family; its unique embedding is planar
/// with exactly two faces.
pub fn ring(n: usize, weight: u32) -> Graph {
    assert!(n >= 3, "a ring needs at least 3 nodes");
    let mut g = path(n, weight);
    g.add_link(NodeId(n as u32 - 1), NodeId(0), weight).unwrap();
    g
}

/// The complete graph `K_n` with uniform weights.
pub fn complete(n: usize, weight: u32) -> Graph {
    let mut g = Graph::with_nodes(n);
    for i in 0..n {
        for j in (i + 1)..n {
            g.add_link(NodeId(i as u32), NodeId(j as u32), weight).unwrap();
        }
    }
    g
}

/// The Petersen graph: 10 nodes, 15 links, 3-regular, non-planar
/// (genus 1). A stock fixture for embedding heuristics.
pub fn petersen(weight: u32) -> Graph {
    let mut g = Graph::with_nodes(10);
    // Outer 5-cycle, inner 5-star, spokes.
    for i in 0..5u32 {
        g.add_link(NodeId(i), NodeId((i + 1) % 5), weight).unwrap();
        g.add_link(NodeId(5 + i), NodeId(5 + (i + 2) % 5), weight).unwrap();
        g.add_link(NodeId(i), NodeId(5 + i), weight).unwrap();
    }
    g
}

// ---------------------------------------------------------------------------
// Synthetic ISP-scale families
// ---------------------------------------------------------------------------
//
// The three shipped ISPs top out at 34 nodes; everything below exists
// to evaluate the scheme "two orders of magnitude larger" (ROADMAP).
// Both families return graphs with coordinates on **every** node, so
// the geometric embedding heuristic, haversine SRLG scenarios and the
// gravity traffic model work on them unchanged.

/// How a synthetic generator assigns link weights.
#[derive(Debug, Clone, PartialEq)]
pub enum WeightModel {
    /// Every link weighs 1 (hop-count routing).
    Unit,
    /// Weight proportional to the great-circle distance between the
    /// endpoints' coordinates: `max(1, round(km / 10))`. The default —
    /// it matches how the shipped ISPs are weighted.
    Distance,
    /// Seeded uniform draw from an inclusive range.
    Range(u32, u32),
}

impl WeightModel {
    fn weight(&self, graph: &Graph, a: NodeId, b: NodeId, rng: &mut StdRng) -> u32 {
        match *self {
            WeightModel::Unit => 1,
            WeightModel::Distance => {
                let ca = graph.coordinates(a).expect("synthetic nodes are located");
                let cb = graph.coordinates(b).expect("synthetic nodes are located");
                ((ca.haversine_km(cb) / 10.0).round() as u32).max(1)
            }
            WeightModel::Range(lo, hi) => {
                if lo >= hi {
                    lo.max(1)
                } else {
                    rng.gen_range(lo.max(1)..=hi.max(1))
                }
            }
        }
    }
}

/// Parameters of the [`isp_mesh`] family.
#[derive(Debug, Clone, PartialEq)]
pub struct MeshParams {
    /// Node (PoP) count. Must be ≥ 4.
    pub nodes: usize,
    /// RNG seed: generation is bit-identical per seed.
    pub seed: u64,
    /// Fraction of full grid cells that receive one diagonal chord
    /// (the degree-distribution knob: 0.0 ⇒ pure grid with mean degree
    /// → 4, 1.0 ⇒ every cell chorded with mean degree → 5).
    pub diagonal_fraction: f64,
    /// Number of random long-haul shortcut links (grid distance ≥
    /// `(w + h) / 4`). Shortcuts forfeit the crossing-free guarantee —
    /// the knob that produces low-genus-but-not-planar instances.
    pub shortcuts: usize,
    /// Link weight assignment.
    pub weights: WeightModel,
}

impl MeshParams {
    /// Defaults: 35% diagonals, no shortcuts, distance weights.
    pub fn new(nodes: usize, seed: u64) -> MeshParams {
        MeshParams {
            nodes,
            seed,
            diagonal_fraction: 0.35,
            shortcuts: 0,
            weights: WeightModel::Distance,
        }
    }
}

/// Grid layout shared by [`isp_mesh`]: `nodes` cells row-major over
/// `w` columns, last row possibly partial. Chosen so the partial-row
/// 2-edge-connectivity argument below always applies: either the grid
/// has ≥ 3 rows, or it is a full `2 × w` grid plus at most one
/// overflow node.
fn mesh_dims(nodes: usize) -> (usize, usize) {
    let mut w = ((1.6 * nodes as f64).sqrt().ceil() as usize).max(2);
    let mut h = nodes.div_ceil(w);
    if h <= 2 {
        // Small n: force two full rows (plus at most one overflow
        // node), so no dangling partial-row tail exists.
        w = (nodes / 2).max(2);
        h = nodes.div_ceil(w);
    }
    (w, h)
}

/// A synthetic ISP backbone as a **jittered-grid PoP mesh**: `nodes`
/// PoPs on a `w × h` lattice (row-major, last row possibly partial),
/// each jittered inside its cell, connected by the lattice links plus
/// one seeded diagonal in a `diagonal_fraction` share of the cells.
///
/// Guarantees, for `nodes ≥ 4` and `shortcuts == 0`:
///
/// * **2-edge-connected** — every link lies on a unit-cell cycle (the
///   mesh's grid dimensions make the partial-row tail cases
///   work out; a lone last-row node is closed into a triangle by one
///   extra diagonal).
/// * **Crossing-free coordinates** — the jitter keeps every node
///   within 0.283 cells of its lattice point, and lattice links plus
///   single per-cell diagonals tolerate up to 0.35 (the closest pair
///   of non-adjacent segments in the ideal drawing is `1/√2` cells
///   apart). The geometric rotation therefore certifies genus 0.
/// * **Deterministic** per `(nodes, seed)` — bit-identical graphs,
///   coordinates and weights on every run and thread count.
///
/// With `shortcuts > 0` the long-haul chords may cross the mesh (and
/// each other): connectivity and determinism still hold, planarity
/// intentionally does not.
pub fn isp_mesh(params: &MeshParams) -> Graph {
    assert!(params.nodes >= 4, "isp_mesh needs at least 4 nodes");
    assert!((0.0..=1.0).contains(&params.diagonal_fraction), "diagonal_fraction is a probability");
    let n = params.nodes;
    let (w, h) = mesh_dims(n);
    let last_row = n - w * (h - 1);
    let mut rng = StdRng::seed_from_u64(params.seed);

    // Nodes with jittered-lattice coordinates. Cell size 1.25° lon ×
    // 1.0° lat (~110 km at the reference latitude band), anchored at
    // (-120°, 48°) going east/south — a continental-US-like canvas so
    // distance weights land in the same range as the shipped ISPs.
    let mut g = Graph::new();
    let exists = |x: usize, y: usize| y + 1 < h || x < last_row;
    let id = |x: usize, y: usize| NodeId((y * w + x) as u32);
    for y in 0..h {
        for x in 0..w {
            if !exists(x, y) {
                continue;
            }
            let node = g.add_node(format!("p{x}x{y}")).unwrap();
            let (jx, jy): (f64, f64) = (rng.gen_range(-0.2..=0.2), rng.gen_range(-0.2..=0.2));
            g.set_coordinates(
                node,
                Coordinates {
                    lon: -120.0 + (x as f64 + jx) * 1.25,
                    lat: 48.0 - (y as f64 + jy) * 1.0,
                },
            );
        }
    }

    let link = |g: &mut Graph, a: NodeId, b: NodeId, rng: &mut StdRng| {
        let weight = params.weights.weight(g, a, b, rng);
        g.add_link(a, b, weight).expect("synthetic endpoints are distinct");
    };

    // Lattice links.
    for y in 0..h {
        for x in 0..w {
            if !exists(x, y) {
                continue;
            }
            if x + 1 < w && exists(x + 1, y) {
                link(&mut g, id(x, y), id(x + 1, y), &mut rng);
            }
            if y + 1 < h && exists(x, y + 1) {
                link(&mut g, id(x, y), id(x, y + 1), &mut rng);
            }
        }
    }
    // One seeded diagonal per selected full cell (both draws always
    // consumed, so the RNG stream is independent of earlier outcomes).
    for y in 0..h.saturating_sub(1) {
        for x in 0..w.saturating_sub(1) {
            let take = rng.gen_bool(params.diagonal_fraction);
            let down_right = rng.gen_bool(0.5);
            if !take || !exists(x + 1, y + 1) {
                continue;
            }
            if down_right {
                link(&mut g, id(x, y), id(x + 1, y + 1), &mut rng);
            } else {
                link(&mut g, id(x + 1, y), id(x, y + 1), &mut rng);
            }
        }
    }
    // A lone last-row node has degree 1 (only its up link): close it
    // into a triangle with the up-right diagonal. That cell never got
    // a regular diagonal (its bottom-right corner is missing).
    if last_row == 1 && h >= 2 {
        link(&mut g, id(0, h - 1), id(1, h - 2), &mut rng);
    }
    // Long-haul shortcuts (optional, non-planar).
    let mut added = 0;
    let mut attempts = 0;
    while added < params.shortcuts && attempts < params.shortcuts * 50 + 100 {
        attempts += 1;
        let a = rng.gen_range(0..n as u32);
        let b = rng.gen_range(0..n as u32);
        let (ax, ay) = (a as usize % w, a as usize / w);
        let (bx, by) = (b as usize % w, b as usize / w);
        let span = ax.abs_diff(bx) + ay.abs_diff(by);
        if a == b || span < (w + h) / 4 || g.find_link(NodeId(a), NodeId(b)).is_some() {
            continue;
        }
        link(&mut g, NodeId(a), NodeId(b), &mut rng);
        added += 1;
    }
    g
}

/// Parameters of the [`two_tier`] family.
#[derive(Debug, Clone, PartialEq)]
pub struct TierParams {
    /// Total node count (core + regional). Must be ≥ 8.
    pub nodes: usize,
    /// RNG seed: generation is bit-identical per seed.
    pub seed: u64,
    /// Core ring size; `None` picks `max(4, round(√nodes))`.
    pub core: Option<usize>,
    /// Number of inter-region redundancy chords (adjacent regions'
    /// rim nodes); `None` picks `core / 3`. Capped at the core size.
    pub redundancy: Option<usize>,
    /// Link weight assignment.
    pub weights: WeightModel,
}

impl TierParams {
    /// Defaults: auto-sized core and redundancy, distance weights.
    pub fn new(nodes: usize, seed: u64) -> TierParams {
        TierParams { nodes, seed, core: None, redundancy: None, weights: WeightModel::Distance }
    }
}

/// A Topology-Zoo-style **two-tier hierarchy**: a core ring of `c`
/// PoPs on an inner circle, plus `c` regional chains ("petals") of
/// access PoPs on an outer circle, each chain attached to its core PoP
/// at both ends, plus optional redundancy chords between adjacent
/// regions' rim nodes.
///
/// Guarantees, for `nodes ≥ 8`:
///
/// * **2-edge-connected** — the core ring is a cycle; each petal plus
///   its two core attachments is a cycle (a single-node region is
///   dual-homed to two adjacent core PoPs instead); redundancy chords
///   only add.
/// * **Crossing-free coordinates** — regions occupy disjoint angular
///   sectors (nodes within ±0.35 of the `2π/c` sector width, radius
///   jitter ±4%), so petals never leave their sector, the ring stays
///   strictly inside the rim, and rim chords between adjacent sectors
///   dip nowhere near either.
/// * **Deterministic** per parameter set.
pub fn two_tier(params: &TierParams) -> Graph {
    let n = params.nodes;
    assert!(n >= 8, "two_tier needs at least 8 nodes");
    let c = params.core.unwrap_or_else(|| ((n as f64).sqrt().round() as usize).max(4)).min(n / 2);
    let c = c.max(4);
    assert!(c * 2 <= n || params.core.is_none(), "core must leave room for regions");
    let redundancy = params.redundancy.unwrap_or(c / 3).min(c);
    let mut rng = StdRng::seed_from_u64(params.seed);

    // Geometry: core at radius 4°, rim at ~9°, centred on (0°, 45°).
    const R1: f64 = 4.0;
    const R2: f64 = 9.0;
    let sector = std::f64::consts::TAU / c as f64;
    let place = |g: &mut Graph, node: NodeId, radius: f64, angle: f64| {
        g.set_coordinates(
            node,
            Coordinates { lon: radius * angle.cos(), lat: 45.0 + radius * angle.sin() },
        );
    };

    let mut g = Graph::new();
    // Core ring nodes, then regions round-robin over the remainder.
    for i in 0..c {
        let node = g.add_node(format!("c{i}")).unwrap();
        place(&mut g, node, R1, i as f64 * sector);
    }
    let spare = n - c;
    let region_size = |i: usize| spare / c + usize::from(i < spare % c);
    let mut regions: Vec<Vec<NodeId>> = Vec::with_capacity(c);
    for i in 0..c {
        let m = region_size(i);
        let mut members = Vec::with_capacity(m);
        for j in 0..m {
            let node = g.add_node(format!("r{i}_{j}")).unwrap();
            // Strictly increasing angles inside ±0.35 of the sector.
            let frac = (j as f64 + 0.5) / m as f64;
            let angle = i as f64 * sector + sector * (0.7 * frac - 0.35);
            let radius = R2 * (1.0 + rng.gen_range(-0.04..=0.04));
            place(&mut g, node, radius, angle);
            members.push(node);
        }
        regions.push(members);
    }

    let link = |g: &mut Graph, a: NodeId, b: NodeId, rng: &mut StdRng| {
        if g.find_link(a, b).is_none() {
            let weight = params.weights.weight(g, a, b, rng);
            g.add_link(a, b, weight).expect("synthetic endpoints are distinct");
        }
    };

    // Core ring.
    for i in 0..c {
        link(&mut g, NodeId(i as u32), NodeId(((i + 1) % c) as u32), &mut rng);
    }
    // Petals: chain + both ends on the core (single-node regions are
    // dual-homed to the next core PoP instead of a parallel link).
    for (i, members) in regions.iter().enumerate().take(c) {
        let core = NodeId(i as u32);
        match members.as_slice() {
            [] => {}
            [only] => {
                link(&mut g, core, *only, &mut rng);
                link(&mut g, *only, NodeId(((i + 1) % c) as u32), &mut rng);
            }
            chain => {
                for pair in chain.windows(2) {
                    link(&mut g, pair[0], pair[1], &mut rng);
                }
                link(&mut g, core, chain[0], &mut rng);
                link(&mut g, core, *chain.last().unwrap(), &mut rng);
            }
        }
    }
    // Redundancy chords between adjacent regions' rim nodes.
    for b in 0..redundancy {
        let here = &regions[b];
        let next = &regions[(b + 1) % c];
        if let (Some(&from), Some(&to)) = (here.last(), next.first()) {
            link(&mut g, from, to, &mut rng);
        }
    }
    g
}

/// The synthetic families [`synth_from_spec`] understands.
pub const SYNTH_FAMILIES: &[&str] = &["isp", "mesh", "tier", "hier"];

/// Builds a synthetic topology from a compact spec:
/// `<family>:<nodes>[:<seed>]`, with `-` accepted interchangeably with
/// `:` (so `isp-1000` and `isp:1000:7` both work). Families: `isp` /
/// `mesh` ⇒ [`isp_mesh`], `tier` / `hier` ⇒ [`two_tier`]. The seed
/// defaults to 2010.
pub fn synth_from_spec(spec: &str) -> Result<Graph, String> {
    let normalized = spec.replace('-', ":");
    let mut parts = normalized.split(':');
    let family = parts.next().unwrap_or_default();
    let nodes: usize = parts
        .next()
        .ok_or_else(|| format!("synthetic spec {spec:?} is missing a node count"))?
        .parse()
        .map_err(|_| format!("synthetic spec {spec:?}: node count must be a positive integer"))?;
    let seed: u64 = match parts.next() {
        None => 2010,
        Some(text) => {
            text.parse().map_err(|_| format!("synthetic spec {spec:?}: seed must be an integer"))?
        }
    };
    if let Some(extra) = parts.next() {
        return Err(format!("synthetic spec {spec:?}: unexpected trailing field {extra:?}"));
    }
    if nodes > Graph::MAX_NODES {
        return Err(format!("synthetic spec {spec:?}: at most {} nodes", Graph::MAX_NODES));
    }
    match family {
        "isp" | "mesh" => {
            if nodes < 4 {
                return Err(format!("family {family:?} needs at least 4 nodes, got {nodes}"));
            }
            Ok(isp_mesh(&MeshParams::new(nodes, seed)))
        }
        "tier" | "hier" => {
            if nodes < 8 {
                return Err(format!("family {family:?} needs at least 8 nodes, got {nodes}"));
            }
            Ok(two_tier(&TierParams::new(nodes, seed)))
        }
        other => Err(format!(
            "unknown synthetic family {other:?} (families: {})",
            SYNTH_FAMILIES.join("|")
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{algo, LinkSet};

    #[test]
    fn path_and_ring_shapes() {
        let p = path(5, 1);
        assert_eq!(p.node_count(), 5);
        assert_eq!(p.link_count(), 4);
        let r = ring(5, 1);
        assert_eq!(r.link_count(), 5);
        for n in r.nodes() {
            assert_eq!(r.degree(n), 2);
        }
    }

    #[test]
    fn complete_sizes() {
        let g = complete(6, 1);
        assert_eq!(g.link_count(), 15);
        for n in g.nodes() {
            assert_eq!(g.degree(n), 5);
        }
    }

    #[test]
    fn petersen_shape() {
        let g = petersen(1);
        assert_eq!(g.node_count(), 10);
        assert_eq!(g.link_count(), 15);
        for n in g.nodes() {
            assert_eq!(g.degree(n), 3);
        }
        assert!(algo::is_two_edge_connected(&g, &LinkSet::empty(15)));
    }

    // --- synthetic ISP families -----------------------------------

    /// Number of proper (interior) crossings between links that share
    /// no endpoint, treating (lon, lat) as planar coordinates — the
    /// same projection `RotationSystem::geometric` sorts bearings in.
    fn crossing_count(g: &Graph) -> usize {
        let orient = |a: Coordinates, b: Coordinates, c: Coordinates| -> f64 {
            (b.lon - a.lon) * (c.lat - a.lat) - (b.lat - a.lat) * (c.lon - a.lon)
        };
        let links: Vec<_> = g.links().collect();
        let mut crossings = 0;
        for (i, &l1) in links.iter().enumerate() {
            let (a, b) = g.endpoints(l1);
            let (pa, pb) = (g.coordinates(a).unwrap(), g.coordinates(b).unwrap());
            for &l2 in &links[i + 1..] {
                let (c, d) = g.endpoints(l2);
                if a == c || a == d || b == c || b == d {
                    continue;
                }
                let (pc, pd) = (g.coordinates(c).unwrap(), g.coordinates(d).unwrap());
                let proper = orient(pa, pb, pc) * orient(pa, pb, pd) < 0.0
                    && orient(pc, pd, pa) * orient(pc, pd, pb) < 0.0;
                crossings += usize::from(proper);
            }
        }
        crossings
    }

    #[test]
    fn isp_mesh_is_two_edge_connected_across_sizes() {
        for n in [4, 5, 6, 7, 9, 10, 13, 21, 50, 97, 120] {
            for seed in [0, 1, 2010] {
                let g = isp_mesh(&MeshParams::new(n, seed));
                assert_eq!(g.node_count(), n, "n={n} seed={seed}");
                assert!(g.fully_located(), "n={n} seed={seed} missing coordinates");
                assert!(
                    algo::is_two_edge_connected(&g, &LinkSet::empty(g.link_count())),
                    "n={n} seed={seed} mesh not 2-edge-connected"
                );
            }
        }
    }

    #[test]
    fn isp_mesh_coordinates_are_crossing_free() {
        for n in [4, 7, 30, 80, 200] {
            for seed in [0, 7] {
                let g = isp_mesh(&MeshParams::new(n, seed));
                assert_eq!(crossing_count(&g), 0, "n={n} seed={seed} mesh has crossings");
            }
        }
    }

    #[test]
    fn isp_mesh_shortcuts_keep_connectivity() {
        let mut params = MeshParams::new(40, 3);
        params.shortcuts = 6;
        let g = isp_mesh(&params);
        assert!(algo::is_two_edge_connected(&g, &LinkSet::empty(g.link_count())));
        // Shortcuts add links over the planar base.
        let base = isp_mesh(&MeshParams::new(40, 3));
        assert!(g.link_count() > base.link_count());
    }

    #[test]
    fn two_tier_is_two_edge_connected_across_sizes() {
        for n in [8, 9, 12, 17, 30, 64, 100, 250] {
            for seed in [0, 1, 2010] {
                let g = two_tier(&TierParams::new(n, seed));
                assert_eq!(g.node_count(), n, "n={n} seed={seed}");
                assert!(g.fully_located(), "n={n} seed={seed} missing coordinates");
                assert!(
                    algo::is_two_edge_connected(&g, &LinkSet::empty(g.link_count())),
                    "n={n} seed={seed} hierarchy not 2-edge-connected"
                );
            }
        }
    }

    #[test]
    fn two_tier_coordinates_are_crossing_free() {
        for n in [8, 12, 30, 100] {
            for seed in [0, 7] {
                let g = two_tier(&TierParams::new(n, seed));
                assert_eq!(crossing_count(&g), 0, "n={n} seed={seed} hierarchy has crossings");
            }
        }
    }

    #[test]
    fn synth_generation_is_bit_identical_across_threads() {
        // Same seed, 1 / 2 / 4 concurrent generators: every run must
        // produce the same fingerprint (generation takes no input from
        // the environment, so concurrency must not matter).
        let reference = isp_mesh(&MeshParams::new(60, 11)).fingerprint();
        let tier_reference = two_tier(&TierParams::new(60, 11)).fingerprint();
        for threads in [1usize, 2, 4] {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    std::thread::spawn(move || {
                        (
                            isp_mesh(&MeshParams::new(60, 11)).fingerprint(),
                            two_tier(&TierParams::new(60, 11)).fingerprint(),
                        )
                    })
                })
                .collect();
            for handle in handles {
                let (mesh_fp, tier_fp) = handle.join().unwrap();
                assert_eq!(mesh_fp, reference, "mesh diverged at {threads} threads");
                assert_eq!(tier_fp, tier_reference, "tier diverged at {threads} threads");
            }
        }
    }

    #[test]
    fn weight_models_behave() {
        let mut unit = MeshParams::new(12, 5);
        unit.weights = WeightModel::Unit;
        let g = isp_mesh(&unit);
        assert!(g.links().all(|l| g.weight(l) == 1));

        let mut ranged = MeshParams::new(12, 5);
        ranged.weights = WeightModel::Range(3, 9);
        let g = isp_mesh(&ranged);
        assert!(g.links().all(|l| (3..=9).contains(&g.weight(l))));

        let g = isp_mesh(&MeshParams::new(12, 5));
        // Distance weights on ~110 km cells land well above 1.
        assert!(g.links().map(|l| u64::from(g.weight(l))).sum::<u64>() > g.link_count() as u64);
    }

    #[test]
    fn synth_spec_parses_both_separators() {
        let colon = synth_from_spec("isp:24:7").unwrap();
        let dash = synth_from_spec("isp-24-7").unwrap();
        assert_eq!(colon.fingerprint(), dash.fingerprint());
        // `mesh` is an alias for `isp`.
        let alias = synth_from_spec("mesh:24:7").unwrap();
        assert_eq!(alias.fingerprint(), colon.fingerprint());
        // Default seed is 2010.
        assert_eq!(
            synth_from_spec("tier:30").unwrap().fingerprint(),
            synth_from_spec("hier:30:2010").unwrap().fingerprint(),
        );
    }

    #[test]
    fn synth_spec_rejects_malformed_input() {
        assert!(synth_from_spec("isp").is_err());
        assert!(synth_from_spec("isp:abc").is_err());
        assert!(synth_from_spec("isp:24:x").is_err());
        assert!(synth_from_spec("isp:24:7:9").is_err());
        assert!(synth_from_spec("isp:65536").is_err());
        assert!(synth_from_spec("waxman:24").is_err());
        assert!(synth_from_spec("isp:2").is_err());
        assert!(synth_from_spec("tier:5").is_err());
    }
}
