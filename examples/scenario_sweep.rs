//! The scenario subsystem in one tour: streaming failure families,
//! the parallel work-unit engine, and a temporal sweep priced packet by
//! packet — all on GÉANT.
//!
//! ```sh
//! cargo run --release --example scenario_sweep [threads]
//! ```

use packet_recycling::prelude::*;
use packet_recycling::scenarios::{
    ExhaustiveKFailures, NodeFailures, OutageParams, OutageSweep, SingleLinkFailures, SrlgFailures,
};
use pr_bench::timed::SimConfig;

fn main() {
    let threads: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1));
    let graph = topologies::load(topologies::Isp::Geant, topologies::Weighting::Distance);
    let rot = embedding::heuristics::thorough(&graph, 2010, 4, 20_000);
    let emb = CellularEmbedding::new(&graph, rot).expect("GÉANT is connected");
    println!(
        "GÉANT: {} nodes / {} links, embedding genus {}, {threads} threads\n",
        graph.node_count(),
        graph.link_count(),
        emb.genus()
    );
    let net =
        PrNetwork::compile(&graph, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);

    // --- Topological families, all streamed through one engine ------
    let single = SingleLinkFailures::new(&graph);
    let nodes = NodeFailures::new(&graph);
    let srlg = SrlgFailures::new(&graph, 500.0);
    let exhaustive = ExhaustiveKFailures::new(&graph, 2);
    let families: [&dyn ScenarioFamily; 4] = [&single, &nodes, &srlg, &exhaustive];

    println!("family             scenarios  affected-pairs  undeliv  mean-pr-stretch");
    for family in families {
        let s = pr_bench::stretch::run(&graph, &net, family, threads);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        println!(
            "{:<18} {:>9}  {:>14}  {:>7}  {:>15.3}",
            family.label(),
            family.len(),
            s.evaluated_pairs,
            s.undelivered,
            mean(&s.packet_recycling),
        );
    }

    // --- A temporal family: timed outage of every link --------------
    let outages = OutageSweep::new(&graph, OutageParams::default());
    let rows = pr_bench::temporal::run(&graph, &net, &outages, &SimConfig::default(), threads)
        .expect("the default flow leaves the wire idle between packets");
    let s = pr_bench::temporal::summarize(&rows);
    println!(
        "\ntimed outages ({} scenarios): PR lost {} of {} packets; \
         reconverging IGP lost {}",
        s.scenarios, s.pr_dropped, s.injected, s.igp_dropped
    );
}
