//! A miniature of the paper's Figure 2: stretch comparison between
//! reconvergence, FCP and PR over every single-link failure of a
//! chosen topology.
//!
//! ```sh
//! cargo run --release --example stretch_experiment [abilene|teleglobe|geant]
//! ```

use packet_recycling::prelude::*;

fn main() {
    let choice = std::env::args().nth(1).unwrap_or_else(|| "abilene".to_string());
    let isp = match choice.as_str() {
        "abilene" => topologies::Isp::Abilene,
        "teleglobe" => topologies::Isp::Teleglobe,
        "geant" => topologies::Isp::Geant,
        other => {
            eprintln!("unknown topology {other:?}; use abilene | teleglobe | geant");
            std::process::exit(1);
        }
    };
    let graph = topologies::load(isp, topologies::Weighting::Distance);
    let rot = embedding::heuristics::thorough(&graph, 2010, 8, 60_000);
    let emb = CellularEmbedding::new(&graph, rot).unwrap();
    println!(
        "{isp}: {} nodes / {} links, embedding genus {}",
        graph.node_count(),
        graph.link_count(),
        emb.genus()
    );
    let net =
        PrNetwork::compile(&graph, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);

    // The plain reference of the stretch sweep: every affected pair of
    // every single-link failure, one `walk_packet` per scheme.
    let singles = scenarios::SingleLinkFailures::new(&graph);
    let panel = pr_testkit::oracle::stretch_serial(&graph, &net, &singles);
    assert_eq!(panel.undelivered_pr, 0, "PR must deliver on single failures");
    let samples = [&panel.reconvergence, &panel.fcp, &panel.packet_recycling];

    println!("\nP(stretch > x | path), {} affected pairs:", samples[0].len());
    println!("{:>7}  {:>13}  {:>8}  {:>16}", "x", "reconvergence", "fcp", "packet-recycling");
    for x in [1.0, 1.5, 2.0, 3.0, 5.0, 7.0, 9.0, 11.0, 13.0, 15.0] {
        let p = |v: &[f64]| v.iter().filter(|&&s| s > x).count() as f64 / v.len() as f64;
        println!(
            "{x:>7.1}  {:>13.4}  {:>8.4}  {:>16.4}",
            p(samples[0]),
            p(samples[1]),
            p(samples[2])
        );
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "\nmean stretch: reconvergence {:.3} <= fcp {:.3} <= pr {:.3}",
        mean(samples[0]),
        mean(samples[1]),
        mean(samples[2])
    );
}
