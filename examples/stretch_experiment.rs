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
    let pr = net.agent(&graph);
    let fcp = FcpAgent::new(&graph);
    let ttl = generous_ttl(&graph);
    let base = net.base();

    let mut samples: [Vec<f64>; 3] = [vec![], vec![], vec![]]; // reconv, fcp, pr
    for link in graph.links() {
        let failed = LinkSet::from_links(graph.link_count(), [link]);
        for dst in graph.nodes() {
            let base_tree = base.towards(dst);
            let live = SpTree::towards(&graph, dst, &failed);
            for src in graph.nodes() {
                if src == dst {
                    continue;
                }
                let path = base_tree.path_darts(&graph, src).unwrap();
                if !path.iter().any(|d| d.link() == link) || !live.reaches(src) {
                    continue;
                }
                let optimal = base_tree.cost(src).unwrap() as f64;
                samples[0].push(live.cost(src).unwrap() as f64 / optimal);
                let wf = walk_packet(&graph, &fcp, src, dst, &failed, ttl);
                samples[1].push(wf.cost(&graph) as f64 / optimal);
                let wp = walk_packet(&graph, &pr, src, dst, &failed, ttl);
                assert!(wp.result.is_delivered(), "PR must deliver on single failures");
                samples[2].push(wp.cost(&graph) as f64 / optimal);
            }
        }
    }

    println!("\nP(stretch > x | path), {} affected pairs:", samples[0].len());
    println!("{:>7}  {:>13}  {:>8}  {:>16}", "x", "reconvergence", "fcp", "packet-recycling");
    for x in [1.0, 1.5, 2.0, 3.0, 5.0, 7.0, 9.0, 11.0, 13.0, 15.0] {
        let p = |v: &Vec<f64>| v.iter().filter(|&&s| s > x).count() as f64 / v.len() as f64;
        println!(
            "{x:>7.1}  {:>13.4}  {:>8.4}  {:>16.4}",
            p(&samples[0]),
            p(&samples[1]),
            p(&samples[2])
        );
    }
    let mean = |v: &Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "\nmean stretch: reconvergence {:.3} <= fcp {:.3} <= pr {:.3}",
        mean(&samples[0]),
        mean(&samples[1]),
        mean(&samples[2])
    );
}
