//! Multi-failure resilience demo: keep killing links on GÉANT while
//! the network stays connected, and watch PR keep delivering — the
//! §4.3 guarantee in action, alongside LFA's decay for contrast.
//!
//! ```sh
//! cargo run --release --example multi_failure_resilience [seed]
//! ```

use packet_recycling::prelude::*;

fn main() {
    let seed: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(2010);
    let graph = topologies::load(topologies::Isp::Geant, topologies::Weighting::Distance);
    let rot = embedding::heuristics::thorough(&graph, seed, 8, 60_000);
    let emb = CellularEmbedding::new(&graph, rot).unwrap();
    println!(
        "GÉANT: {} nodes / {} links, embedding genus {} (guarantee requires 0)",
        graph.node_count(),
        graph.link_count(),
        emb.genus()
    );
    let net =
        PrNetwork::compile(&graph, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
    let pr = net.agent(&graph);
    let lfa = LfaAgent::compute(&graph, net.base());
    let ttl = generous_ttl(&graph);

    // Kill links one at a time (never disconnecting), measuring
    // delivery over all still-connected pairs after each failure.
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut order: Vec<LinkId> = graph.links().collect();
    order.shuffle(&mut rng);

    let mut failed = LinkSet::empty(graph.link_count());
    println!("\nfailed  pr-delivery  lfa-delivery  mean-pr-stretch");
    for link in order {
        if !algo::connected_after(&graph, &failed, link) {
            continue;
        }
        failed.insert(link);
        let mut pr_ok = 0u64;
        let mut lfa_ok = 0u64;
        let mut total = 0u64;
        let mut stretches = Vec::new();
        let base = net.base();
        for dst in graph.nodes() {
            let live = SpTree::towards(&graph, dst, &failed);
            for src in graph.nodes() {
                if src == dst || !live.reaches(src) {
                    continue;
                }
                total += 1;
                let w = walk_packet(&graph, &pr, src, dst, &failed, ttl);
                if w.result.is_delivered() {
                    pr_ok += 1;
                    stretches.push(w.cost(&graph) as f64 / base.cost(src, dst).unwrap() as f64);
                }
                if walk_packet(&graph, &lfa, src, dst, &failed, ttl).result.is_delivered() {
                    lfa_ok += 1;
                }
            }
        }
        let mean_stretch = stretches.iter().sum::<f64>() / stretches.len() as f64;
        println!(
            "{:>6}  {:>11.4}  {:>12.4}  {:>15.3}",
            failed.len(),
            pr_ok as f64 / total as f64,
            lfa_ok as f64 / total as f64,
            mean_stretch
        );
        if failed.len() >= 16 {
            break; // the paper's GÉANT panel uses 16 concurrent failures
        }
    }
    println!("\nPR delivery stays at 1.0 throughout (genus-0 embedding + connected pairs);");
    println!("LFA — the deployed IPFRR baseline — degrades with every additional failure.");
}
