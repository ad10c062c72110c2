//! The traffic-workload subsystem in one tour: demand matrices
//! (gravity / uniform / hot-spot), flow replay as a cone delta against
//! the failure-free baseline, and the demand-weighted resilience
//! metrics — all on GÉANT.
//!
//! ```sh
//! cargo run --release --example traffic_replay [threads]
//! ```

use packet_recycling::prelude::*;
use packet_recycling::traffic::{FlowSet, GravityTraffic, HotspotTraffic, UniformTraffic};
use pr_scenarios::SingleLinkFailures;

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

    // --- Three demand models over one failure family ----------------
    let uniform = UniformTraffic::new(&graph);
    let gravity = GravityTraffic::new(&graph);
    let hotspot = HotspotTraffic::with_defaults(&graph, 2010);
    let models: [&dyn TrafficModel; 3] = [&uniform, &gravity, &hotspot];
    let singles = SingleLinkFailures::new(&graph);

    println!("model                 flows  wcoverage  demand-lost  max-link-util  wstretch");
    let mut gravity_run = None;
    for model in models {
        let flows = FlowSet::all_pairs(model);
        let rows = pr_bench::traffic::run(&graph, &net, &singles, &flows, threads);
        let s = pr_bench::traffic::summarize(&rows);
        println!(
            "{:<20} {:>6}  {:>9.4}  {:>10.4}%  {:>13.4}  {:>8.4}",
            model.label(),
            flows.len(),
            s.weighted_coverage(),
            100.0 * s.demand_lost_fraction(),
            s.max_link_utilisation,
            s.tally.mean_weighted_stretch().unwrap_or(f64::NAN),
        );
        if model.label() == "gravity" {
            gravity_run = Some((flows, rows, s));
        }
    }

    // --- Where does the traffic concentrate while it detours? -------
    let (flows, rows, s) = gravity_run.expect("gravity is among the models");
    if let Some(i) = s.peak_scenario {
        let row = &rows[i];
        let failed = singles.scenario(row.scenario);
        let dead = failed.iter().next().expect("single-link scenario");
        let (da, db) = graph.endpoints(dead);
        let peak = row.traffic.peak_link.expect("traffic delivered");
        let (pa, pb) = graph.endpoints(peak);
        println!(
            "\nworst hot link under gravity traffic: failing {}-{} pushes {:.1}% of all \
             demand over {}-{}",
            graph.node_name(da),
            graph.node_name(db),
            100.0 * row.traffic.max_link_utilisation(),
            graph.node_name(pa),
            graph.node_name(pb),
        );
    }

    // --- Sampled flows estimate the full matrix ---------------------
    let sampled = FlowSet::sampled(&gravity, 500, 7);
    let s2 = pr_bench::traffic::summarize(&pr_bench::traffic::run(
        &graph, &net, &singles, &sampled, threads,
    ));
    println!(
        "sampled 500 flows: weighted coverage {:.4} (full matrix {:.4}), offered {:.1} ≈ {:.1}",
        s2.weighted_coverage(),
        s.weighted_coverage(),
        sampled.offered(),
        flows.offered(),
    );

    // --- Production against the oracle: flows/s ---------------------
    // Both produce the identical rows (the demand grid makes every
    // replay sum exact); only the time per replayed flow differs.
    // Serial on purpose — this compares dataplanes, not thread counts.
    let per_sweep = (flows.len() * singles.len()) as f64;
    let ladder = |label: &str, sweep: &mut dyn FnMut() -> Vec<pr_bench::traffic::TrafficRow>| {
        let reference = sweep(); // warmup
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t = std::time::Instant::now();
            std::hint::black_box(sweep());
            best = best.min(t.elapsed().as_secs_f64());
        }
        println!("  {label:<13} {:>6.1}M flows/s", per_sweep / best / 1e6);
        reference
    };
    println!(
        "\nthroughput, gravity x single failures ({} flows x {} scenarios, serial):",
        flows.len(),
        singles.len()
    );
    let production =
        ladder("production", &mut || pr_bench::traffic::run(&graph, &net, &singles, &flows, 1));
    let oracle = ladder("oracle", &mut || {
        pr_testkit::oracle::traffic_serial(&graph, &net, &singles, &flows)
    });
    assert_eq!(production, oracle, "production rows must equal the oracle's, bit for bit");
}
