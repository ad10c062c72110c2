//! Random graphs *with a planar embedding by construction*.
//!
//! Why this module exists: our reproduction found that the paper's §5
//! delivery argument is a sphere (genus-0) argument — on embeddings of
//! genus ≥ 1, PR's cycle following can livelock even though the
//! network is connected (see the `pr-core` test
//! `k5_genus_one_counterexample_livelocks`). Property-testing the guarantee
//! therefore requires random graphs paired with certified **genus-0**
//! rotation systems, which is exactly what these generators emit.
//!
//! Two constructions, both incremental and both maintaining the
//! rotation system alongside the graph so planarity is guaranteed by
//! construction rather than searched for:
//!
//! * [`random_triangulation`] — Apollonian-style: start from a
//!   triangle, repeatedly insert a vertex inside a random triangular
//!   face and connect it to the face's corners. Dense (3-connected)
//!   planar graphs.
//! * [`random_outerplanar`] — a ring with random *non-crossing* chords
//!   (sampled by recursive interval splitting). Sparse planar graphs
//!   with many degree-2 nodes, closer in texture to ISP backbones.

use rand::Rng;

use pr_embedding::{genus, FaceStructure, RotationSystem};
use pr_graph::{Dart, Graph, NodeId};

/// Builds a random planar triangulation with `3 + insertions` nodes
/// and `3 + 3 * insertions` links, plus its genus-0 rotation system.
///
/// Link weights are drawn uniformly from `weights`. Deterministic
/// given the RNG state.
pub fn random_triangulation(
    insertions: usize,
    weights: std::ops::RangeInclusive<u32>,
    rng: &mut impl Rng,
) -> (Graph, RotationSystem) {
    let mut g = Graph::new();
    let a = g.add_node("0").unwrap();
    let b = g.add_node("1").unwrap();
    let c = g.add_node("2").unwrap();
    let w = move |rng: &mut dyn rand::RngCore| -> u32 {
        if weights.start() == weights.end() {
            *weights.start()
        } else {
            rng.gen_range(weights.clone())
        }
    };
    let ab = g.add_link(a, b, w(rng)).unwrap();
    let bc = g.add_link(b, c, w(rng)).unwrap();
    let ca = g.add_link(c, a, w(rng)).unwrap();

    // Per-node dart orders, maintained as cyclic sequences.
    let mut orders: Vec<Vec<Dart>> = vec![
        vec![ab.forward(), ca.reverse()], // at a: a->b, a->c
        vec![bc.forward(), ab.reverse()], // at b: b->c, b->a
        vec![ca.forward(), bc.reverse()], // at c: c->a, c->b
    ];
    // Triangular faces as corner darts (x->y, y->z, z->x).
    let mut faces: Vec<[Dart; 3]> = vec![
        [ab.forward(), bc.forward(), ca.forward()],
        [ca.reverse(), bc.reverse(), ab.reverse()],
    ];

    for _ in 0..insertions {
        let face_idx = rng.gen_range(0..faces.len());
        let [d1, d2, d3] = faces.swap_remove(face_idx);
        let (x, y, z) = (g.dart_tail(d1), g.dart_tail(d2), g.dart_tail(d3));
        let v = g.add_node(g.node_count().to_string()).unwrap();
        orders.push(Vec::new());
        let vx = g.add_link(v, x, w(rng)).unwrap();
        let vy = g.add_link(v, y, w(rng)).unwrap();
        let vz = g.add_link(v, z, w(rng)).unwrap();

        // Rotation at v: faces (x->y, y->v, v->x), (y->z, z->v, v->y),
        // (z->x, x->v, v->z) require rotation v->x, v->z, v->y.
        orders[v.index()] = vec![vx.forward(), vz.forward(), vy.forward()];
        // At each corner, the dart to v slots in right after the dart
        // continuing the old face into that corner:
        //   at x: x->v right after x->z's twin-side order — concretely,
        //   immediately BEFORE x->y (= d1), so that φ(z->x) = x->v and
        //   φ(v->x)... is x->y.
        insert_before(&mut orders[x.index()], d1, vx.reverse());
        insert_before(&mut orders[y.index()], d2, vy.reverse());
        insert_before(&mut orders[z.index()], d3, vz.reverse());

        faces.push([d1, vy.reverse(), vx.forward()]);
        faces.push([d2, vz.reverse(), vy.forward()]);
        faces.push([d3, vx.reverse(), vz.forward()]);
    }

    let rot = RotationSystem::from_orders(&g, &orders).expect("constructed orders are valid");
    debug_assert_eq!(
        genus(&g, &FaceStructure::trace(&g, &rot)),
        Some(0),
        "triangulation construction must stay planar"
    );
    (g, rot)
}

fn insert_before(order: &mut Vec<Dart>, anchor: Dart, new: Dart) {
    let pos = order.iter().position(|&d| d == anchor).expect("anchor in order");
    order.insert(pos, new);
}

/// Builds a ring of `n ≥ 3` nodes with random non-crossing chords and
/// its genus-0 rotation system (nodes are placed on a circle and the
/// geometric rotation is used, which is planar because the chords do
/// not cross).
///
/// `chord_bias` in `[0, 1]` controls chord density (0 = plain ring).
pub fn random_outerplanar(
    n: usize,
    chord_bias: f64,
    weights: std::ops::RangeInclusive<u32>,
    rng: &mut impl Rng,
) -> (Graph, RotationSystem) {
    assert!(n >= 3);
    let mut g = Graph::new();
    for i in 0..n {
        let angle = 2.0 * std::f64::consts::PI * i as f64 / n as f64;
        let id = g.add_node(i.to_string()).unwrap();
        g.set_coordinates(id, pr_graph::Coordinates { lon: angle.cos(), lat: angle.sin() });
    }
    let w = move |rng: &mut dyn rand::RngCore| -> u32 {
        if weights.start() == weights.end() {
            *weights.start()
        } else {
            rng.gen_range(weights.clone())
        }
    };
    for i in 0..n {
        g.add_link(NodeId(i as u32), NodeId(((i + 1) % n) as u32), w(rng)).unwrap();
    }
    // Non-crossing chords by recursive interval splitting: a chord
    // (lo, hi) may coexist with chords strictly inside (lo, hi).
    let mut stack = vec![(0usize, n - 1)];
    while let Some((lo, hi)) = stack.pop() {
        if hi - lo < 2 {
            continue;
        }
        let mid = rng.gen_range(lo + 1..hi);
        if hi - lo > 2 && rng.gen_bool(chord_bias) && !(lo == 0 && hi == n - 1) {
            // Chord (lo, hi) unless it duplicates a ring link.
            if g.find_link(NodeId(lo as u32), NodeId(hi as u32)).is_none() {
                g.add_link(NodeId(lo as u32), NodeId(hi as u32), w(rng)).unwrap();
            }
        }
        stack.push((lo, mid));
        stack.push((mid, hi));
    }
    let rot = RotationSystem::geometric(&g).expect("all nodes placed on the circle");
    debug_assert_eq!(
        genus(&g, &FaceStructure::trace(&g, &rot)),
        Some(0),
        "non-crossing chords on a circle must stay planar"
    );
    (g, rot)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn triangulations_are_planar_and_sized() {
        let mut rng = StdRng::seed_from_u64(5);
        for ins in [0, 1, 5, 20] {
            let (g, rot) = random_triangulation(ins, 1..=4, &mut rng);
            assert_eq!(g.node_count(), 3 + ins);
            assert_eq!(g.link_count(), 3 + 3 * ins);
            rot.validate(&g).unwrap();
            let faces = FaceStructure::trace(&g, &rot);
            assert_eq!(genus(&g, &faces), Some(0), "insertions={ins}");
            // Every face of a triangulation is a triangle.
            assert!(faces.sizes().iter().all(|&s| s == 3));
        }
    }

    #[test]
    fn triangulations_are_two_edge_connected() {
        let mut rng = StdRng::seed_from_u64(9);
        let (g, _) = random_triangulation(15, 1..=1, &mut rng);
        let none = pr_graph::LinkSet::empty(g.link_count());
        assert!(pr_graph::algo::is_two_edge_connected(&g, &none));
    }

    #[test]
    fn outerplanar_is_planar_with_chords() {
        let mut rng = StdRng::seed_from_u64(11);
        for n in [3, 6, 12, 30] {
            let (g, rot) = random_outerplanar(n, 0.7, 1..=5, &mut rng);
            assert_eq!(g.node_count(), n);
            assert!(g.link_count() >= n);
            rot.validate(&g).unwrap();
            assert_eq!(genus(&g, &FaceStructure::trace(&g, &rot)), Some(0), "n={n}");
            let none = pr_graph::LinkSet::empty(g.link_count());
            assert!(pr_graph::algo::is_two_edge_connected(&g, &none));
        }
    }

    #[test]
    fn zero_bias_gives_plain_ring() {
        let mut rng = StdRng::seed_from_u64(3);
        let (g, _) = random_outerplanar(8, 0.0, 1..=1, &mut rng);
        assert_eq!(g.link_count(), 8);
    }

    #[test]
    fn generators_are_seed_deterministic() {
        let (g1, r1) = random_triangulation(8, 1..=4, &mut StdRng::seed_from_u64(42));
        let (g2, r2) = random_triangulation(8, 1..=4, &mut StdRng::seed_from_u64(42));
        assert_eq!(g1.link_count(), g2.link_count());
        assert_eq!(r1, r2);
        for l in g1.links() {
            assert_eq!(g1.endpoints(l), g2.endpoints(l));
            assert_eq!(g1.weight(l), g2.weight(l));
        }
    }
}
