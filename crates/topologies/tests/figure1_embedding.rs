//! Validates that the transcribed Figure 1(a) rotation orders induce
//! exactly the cellular cycle system drawn in the paper: cycles c1–c4
//! plus the outer face of the stereographic projection, on a sphere
//! (genus 0).

use pr_embedding::{CellularEmbedding, RotationSystem};
use pr_topologies::figure1;

/// Renders a face as the cyclic node sequence starting from its
/// lexicographically smallest rotation, e.g. "B>C>E>D" for the cycle
/// E→D, D→B, B→C, C→E.
fn canonical_cycle(g: &pr_graph::Graph, darts: &[pr_graph::Dart]) -> String {
    let names: Vec<String> =
        darts.iter().map(|&d| g.node_name(g.dart_tail(d)).to_string()).collect();
    let n = names.len();
    let mut best: Option<String> = None;
    for s in 0..n {
        let rotated: Vec<&str> = (0..n).map(|i| names[(s + i) % n].as_str()).collect();
        let cand = rotated.join(">");
        if best.as_ref().is_none_or(|b| cand < *b) {
            best = Some(cand);
        }
    }
    best.unwrap()
}

#[test]
fn figure1_embedding_matches_the_paper() {
    let (g, orders) = figure1();
    let rot = RotationSystem::from_neighbor_orders(&g, &orders).unwrap();
    let emb = CellularEmbedding::new(&g, rot).unwrap();

    // Spherical embedding: V - E + F = 6 - 9 + 5 = 2, genus 0.
    assert_eq!(emb.genus(), 0, "Figure 1(a) is drawn on the sphere");
    assert_eq!(emb.faces().face_count(), 5);

    let mut cycles: Vec<String> =
        emb.faces().iter().map(|(_, boundary)| canonical_cycle(&g, boundary)).collect();
    cycles.sort();

    // The paper's cycles (as directed node sequences):
    //   c1: D→E→F→D           (triangle D,E,F)
    //   c2: E→D→B→C→E
    //   c3: B→A→C→B           (triangle A,B,C, traversed B→A→C)
    //   c4: A→B→D→F→A
    //   outer: C→A→F→E→C
    let mut expected = vec![
        "D>E>F".to_string(),
        "B>C>E>D".to_string(),
        "A>C>B".to_string(),
        "A>B>D>F".to_string(),
        "A>F>E>C".to_string(),
    ];
    expected.sort();
    assert_eq!(cycles, expected, "cycle system differs from Figure 1(a)");
}

#[test]
fn figure1_complementary_pairs_match_the_paper() {
    let (g, orders) = figure1();
    let rot = RotationSystem::from_neighbor_orders(&g, &orders).unwrap();
    let emb = CellularEmbedding::new(&g, rot).unwrap();

    let n = |s: &str| g.node_by_name(s).unwrap();
    let dart =
        |a: &str, b: &str| *g.darts_from(n(a)).iter().find(|&&d| g.dart_head(d) == n(b)).unwrap();

    // §4.2: the complementary cycle of c1 over link D→E is c2.
    let c1 = emb.main_cycle(dart("D", "E"));
    let c2 = emb.complementary_cycle(dart("D", "E"));
    assert_ne!(c1, c2);
    assert!(emb.faces().boundary(c2).contains(&dart("E", "D")));
    assert!(emb.faces().boundary(c2).contains(&dart("B", "C")));

    // §4.2 second example: the complementary of c4 over A→B is c3.
    let c4 = emb.main_cycle(dart("A", "B"));
    let c3 = emb.complementary_cycle(dart("A", "B"));
    assert!(emb.faces().boundary(c4).contains(&dart("D", "F")));
    assert!(emb.faces().boundary(c3).contains(&dart("B", "A")));
    assert!(emb.faces().boundary(c3).contains(&dart("A", "C")));
}

#[test]
fn isp_topologies_embed_with_low_genus() {
    // The geometric heuristic plus local search should find low-genus
    // embeddings for geographically drawn backbone networks. (These are
    // quality expectations, not correctness requirements: PR works on
    // any cellular embedding.)
    for isp in pr_topologies::Isp::ALL {
        let g = pr_topologies::load(isp, pr_topologies::Weighting::Distance);
        let rot = pr_embedding::heuristics::best_effort(&g, 2010);
        let emb = CellularEmbedding::new(&g, rot).unwrap();
        let bound = match isp {
            pr_topologies::Isp::Abilene => 0, // Abilene is planar
            _ => 4,
        };
        assert!(
            emb.genus() <= bound,
            "{isp}: genus {} exceeds expected bound {bound}",
            emb.genus()
        );
    }
}
