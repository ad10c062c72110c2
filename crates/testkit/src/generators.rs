//! Graphs of known shape, and random ones, that only tests draw:
//! known genus (grids are planar, toruses genus ≤ 1, `K_{3,3}` genus
//! 1), a hub of high degree, connected Erdős–Rényi samples and random
//! 2-edge-connected graphs. The generators a user can name —
//! `pr_graph::generators`' rings, complete graphs, Petersen and the
//! synthetic ISP families — stay in the product.

use rand::seq::SliceRandom;
use rand::Rng;

use pr_graph::{algo, generators, Coordinates, Graph, LinkSet, NodeId};

/// The complete bipartite graph `K_{a,b}` with uniform weights.
///
/// `K_{3,3}` is the classic non-planar graph (genus 1); a standard
/// fixture for embedding tests.
pub fn complete_bipartite(a: usize, b: usize, weight: u32) -> Graph {
    let mut g = Graph::with_nodes(a + b);
    for i in 0..a {
        for j in 0..b {
            g.add_link(NodeId(i as u32), NodeId((a + j) as u32), weight).unwrap();
        }
    }
    g
}

/// A `w × h` grid with uniform weights. Planar; 2-edge-connected for
/// `w, h ≥ 2`.
pub fn grid(w: usize, h: usize, weight: u32) -> Graph {
    let mut g = Graph::with_nodes(w * h);
    let id = |x: usize, y: usize| NodeId((y * w + x) as u32);
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                g.add_link(id(x, y), id(x + 1, y), weight).unwrap();
            }
            if y + 1 < h {
                g.add_link(id(x, y), id(x, y + 1), weight).unwrap();
            }
        }
    }
    g
}

/// A `w × h` torus (grid with wraparound). Genus ≤ 1 by construction;
/// 4-regular for `w, h ≥ 3`.
pub fn torus(w: usize, h: usize, weight: u32) -> Graph {
    assert!(w >= 3 && h >= 3, "torus wraparound needs w, h >= 3");
    let mut g = Graph::with_nodes(w * h);
    let id = |x: usize, y: usize| NodeId((y * w + x) as u32);
    for y in 0..h {
        for x in 0..w {
            g.add_link(id(x, y), id((x + 1) % w, y), weight).unwrap();
            g.add_link(id(x, y), id(x, (y + 1) % h), weight).unwrap();
        }
    }
    g
}

/// The wheel graph `W_n`: a hub connected to every node of an
/// `(n-1)`-ring. Planar, biconnected.
pub fn wheel(n: usize, weight: u32) -> Graph {
    assert!(n >= 4, "a wheel needs at least 4 nodes");
    let mut g = generators::ring(n - 1, weight);
    let hub = g.add_node("hub").unwrap();
    for i in 0..(n - 1) as u32 {
        g.add_link(hub, NodeId(i), weight).unwrap();
    }
    g
}

/// Erdős–Rényi `G(n, p)` with uniform weights, conditioned on being
/// connected: resamples (up to 1000 attempts) until connected.
///
/// Panics if `p` is too small to plausibly yield a connected graph.
pub fn connected_er(n: usize, p: f64, weight: u32, rng: &mut impl Rng) -> Graph {
    assert!((0.0..=1.0).contains(&p));
    for _ in 0..1000 {
        let mut g = Graph::with_nodes(n);
        for i in 0..n {
            for j in (i + 1)..n {
                if rng.gen_bool(p) {
                    g.add_link(NodeId(i as u32), NodeId(j as u32), weight).unwrap();
                }
            }
        }
        if algo::is_connected(&g, &LinkSet::empty(g.link_count())) {
            return g;
        }
    }
    panic!("connected_er: no connected sample in 1000 attempts (n={n}, p={p})");
}

/// A random 2-edge-connected graph: a Hamiltonian ring through a random
/// node permutation plus `chords` random chords (no parallel links).
///
/// Always 2-edge-connected by construction, which makes it the workhorse
/// for property tests of the paper's single-failure guarantee.
pub fn random_two_edge_connected(
    n: usize,
    chords: usize,
    weight_range: std::ops::RangeInclusive<u32>,
    rng: &mut impl Rng,
) -> Graph {
    assert!(n >= 3);
    let mut g = Graph::with_nodes(n);
    let mut perm: Vec<u32> = (0..n as u32).collect();
    perm.shuffle(rng);
    let w = |rng: &mut dyn rand::RngCore| -> u32 {
        let lo = *weight_range.start();
        let hi = *weight_range.end();
        if lo == hi {
            lo
        } else {
            rng.gen_range(lo..=hi)
        }
    };
    for i in 0..n {
        let a = NodeId(perm[i]);
        let b = NodeId(perm[(i + 1) % n]);
        g.add_link(a, b, w(rng)).unwrap();
    }
    let mut added = 0;
    let mut attempts = 0;
    while added < chords && attempts < chords * 50 + 100 {
        attempts += 1;
        let a = NodeId(rng.gen_range(0..n as u32));
        let b = NodeId(rng.gen_range(0..n as u32));
        if a == b || g.find_link(a, b).is_some() {
            continue;
        }
        g.add_link(a, b, w(rng)).unwrap();
        added += 1;
    }
    g
}

/// Assigns grid coordinates to any graph (row-major layout), so the
/// geometric embedding heuristic has something to chew on in tests.
pub fn with_synthetic_coordinates(mut g: Graph) -> Graph {
    let n = g.node_count();
    let cols = (n as f64).sqrt().ceil() as usize;
    for node in g.nodes() {
        let i = node.index();
        g.set_coordinates(node, Coordinates { lon: (i % cols) as f64, lat: (i / cols) as f64 });
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bipartite_shape() {
        let g = complete_bipartite(3, 3, 1);
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.link_count(), 9);
        // No link inside either side.
        for i in 0..3u32 {
            for j in 0..3u32 {
                if i != j {
                    assert!(g.find_link(NodeId(i), NodeId(j)).is_none());
                    assert!(g.find_link(NodeId(3 + i), NodeId(3 + j)).is_none());
                }
            }
        }
    }

    #[test]
    fn grid_and_torus_shapes() {
        let g = grid(3, 4, 1);
        assert_eq!(g.node_count(), 12);
        assert_eq!(g.link_count(), 3 * 4 * 2 - 3 - 4); // 2wh - w - h
        let t = torus(3, 4, 1);
        assert_eq!(t.link_count(), 24); // 2wh
        for n in t.nodes() {
            assert_eq!(t.degree(n), 4);
        }
    }

    #[test]
    fn wheel_shape() {
        let g = wheel(6, 1);
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.link_count(), 10);
        assert_eq!(g.degree(NodeId(5)), 5); // hub
    }

    #[test]
    fn er_is_connected() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = connected_er(20, 0.3, 1, &mut rng);
        assert!(algo::is_connected(&g, &LinkSet::empty(g.link_count())));
    }

    #[test]
    fn random_2ec_is_two_edge_connected() {
        let mut rng = StdRng::seed_from_u64(42);
        for n in [3, 5, 10, 25] {
            let g = random_two_edge_connected(n, n / 2, 1..=5, &mut rng);
            assert!(
                algo::is_two_edge_connected(&g, &LinkSet::empty(g.link_count())),
                "n={n} sample not 2-edge-connected"
            );
        }
    }

    #[test]
    fn synthetic_coordinates_cover_all_nodes() {
        let g = with_synthetic_coordinates(generators::ring(7, 1));
        assert!(g.fully_located());
    }

    #[test]
    fn generators_are_deterministic_under_seed() {
        let g1 = random_two_edge_connected(12, 4, 1..=3, &mut StdRng::seed_from_u64(9));
        let g2 = random_two_edge_connected(12, 4, 1..=3, &mut StdRng::seed_from_u64(9));
        assert_eq!(g1.link_count(), g2.link_count());
        for l in g1.links() {
            assert_eq!(g1.endpoints(l), g2.endpoints(l));
            assert_eq!(g1.weight(l), g2.weight(l));
        }
    }
}
