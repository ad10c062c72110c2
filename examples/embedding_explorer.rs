//! Explore cellular embeddings of any shipped or generated topology:
//! compare heuristics, inspect the cycle system, and see how genus
//! shapes the backup paths.
//!
//! ```sh
//! cargo run --release --example embedding_explorer [abilene|teleglobe|geant|figure1|petersen|k5]
//! ```

use packet_recycling::prelude::*;

fn main() {
    let choice = std::env::args().nth(1).unwrap_or_else(|| "abilene".to_string());
    let (name, graph) = match choice.as_str() {
        "abilene" => {
            ("abilene", topologies::load(topologies::Isp::Abilene, topologies::Weighting::Distance))
        }
        "teleglobe" => (
            "teleglobe",
            topologies::load(topologies::Isp::Teleglobe, topologies::Weighting::Distance),
        ),
        "geant" => {
            ("geant", topologies::load(topologies::Isp::Geant, topologies::Weighting::Distance))
        }
        "figure1" => ("figure1", topologies::figure1().0),
        "petersen" => ("petersen", generators::petersen(1)),
        "k5" => ("k5", generators::complete(5, 1)),
        other => {
            eprintln!("unknown topology {other:?}");
            std::process::exit(1);
        }
    };
    println!(
        "{name}: {} nodes, {} links (E - V + 2 = {} faces would mean genus 0)\n",
        graph.node_count(),
        graph.link_count(),
        graph.link_count() + 2 - graph.node_count()
    );

    let mut candidates: Vec<(&str, RotationSystem)> =
        vec![("identity", RotationSystem::identity(&graph))];
    if graph.fully_located() {
        candidates.push(("geometric", RotationSystem::geometric(&graph).unwrap()));
    }
    candidates.push(("best_effort", embedding::heuristics::best_effort(&graph, 1)));
    candidates.push(("thorough", embedding::heuristics::thorough(&graph, 1, 6, 40_000)));

    println!(
        "{:<12} {:>5} {:>6} {:>9} {:>10}",
        "heuristic", "genus", "faces", "max-face", "mean-face"
    );
    let mut best: Option<(u32, RotationSystem)> = None;
    for (label, rot) in candidates {
        let emb = CellularEmbedding::new(&graph, rot.clone()).unwrap();
        let sizes = emb.faces().sizes();
        let mean = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        println!(
            "{label:<12} {:>5} {:>6} {:>9} {:>10.2}",
            emb.genus(),
            emb.faces().face_count(),
            emb.faces().max_face_size(),
            mean
        );
        if best.as_ref().is_none_or(|(g, _)| emb.genus() < *g) {
            best = Some((emb.genus(), rot));
        }
    }

    let (genus, rot) = best.expect("at least one candidate");
    let emb = CellularEmbedding::new(&graph, rot).unwrap();
    println!("\nCycle system of the best embedding found (genus {genus}):");
    for (f, boundary) in emb.faces().iter() {
        if boundary.len() <= 12 {
            println!("  {}", emb.faces().display_face(&graph, f));
        } else {
            println!("  {f}: ({} darts)", boundary.len());
        }
    }
    if genus > 0 {
        println!(
            "\nNote: no genus-0 embedding found — §5's delivery guarantee does not\n\
             apply (see DESIGN.md §15 and `ablation_genus`); PR still repairs\n\
             all single failures whose complementary cycle is failure-free."
        );
    }
}
