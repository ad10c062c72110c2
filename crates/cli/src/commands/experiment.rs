//! `pr experiment <name>`: one row per artefact of the paper (and per
//! ablation this reproduction adds), each a short function over the
//! `pr-bench` library or over other subcommands. Every parameter is the
//! constant the published numbers were taken at; only `--threads`
//! varies, and never the bytes written under `results/`.

use pr_bench::artefact::{Artefact, Format, RowWriter};
use pr_bench::{ablation, coverage, impair, overheads, stretch};
use pr_bench::{paper_topology, paper_topology_with, write_result, EXPERIMENT_SEED};
use pr_core::{DiscriminatorKind, PrMode, PrNetwork};
use pr_embedding::CellularEmbedding;
use pr_graph::{generators, Graph, LinkId, SpScratch};
use pr_scenarios::ImpairmentProcess::{FlapStorm, GilbertElliott};
use pr_scenarios::{
    Impaired, OutageParams, OutageSweep, SampledMultiFailures, ScenarioFamily, SingleLinkFailures,
    TemporalFamily, TemporalScenario,
};
use pr_sim::{igp_for, run_scenario, Metrics, SimConfig, Static};
use pr_topologies::{Isp, Weighting};
use pr_traffic::{FlowSet, GravityTraffic};

use super::{run_line, threads, CmdResult, Usage};
use crate::args::Args;

/// Name on the command line, the artefact it regenerates, body (given
/// the thread count).
type Experiment = (&'static str, &'static str, fn(usize) -> CmdResult);

/// The experiment-to-command map (DESIGN.md §13).
pub const EXPERIMENTS: &[Experiment] = &[
    ("table1", "Table 1: cycle following table at node D", table1),
    ("fig1", "Figure 1(b)/(c): the §4.2/§4.3 walkthroughs", fig1),
    ("fig2", "Figure 2(a)-(f): stretch CCDFs", fig2),
    ("coverage", "E5: §4.2/§4.3 repair coverage", coverage),
    ("overheads", "E8: §6 header and state overheads", overheads),
    ("oc192", "E10: §1 OC-192 loss arithmetic", oc192),
    ("impair-loss", "E13: impaired loss over time", impair_loss),
    ("ablation-embedding", "E6: embedding heuristic vs genus and stretch", ablation_embedding),
    ("ablation-dd", "E7: hop vs cost discriminator", ablation_dd),
    ("ablation-genus", "E11: delivery vs genus", ablation_genus),
];

/// `pr experiment`: runs the named row on `--threads` workers.
pub fn experiment(args: &Args) -> CmdResult {
    let name = args.positional(0, "name").unwrap_or("");
    let Some((_, _, body)) = EXPERIMENTS.iter().find(|(row, ..)| *row == name) else {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(row, ..)| *row).collect();
        return Err(Usage(format!("experiment wants {}, got {name:?}", names.join("|"))).into());
    };
    body(threads(args)?)
}

fn pr_dd(graph: &Graph, embedding: CellularEmbedding) -> PrNetwork {
    PrNetwork::compile(graph, embedding, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops)
}

/// The cycle system of Figure 1(a) and the paper's Table 1, through
/// `pr embed` and `pr tables`.
fn table1(_threads: usize) -> CmdResult {
    println!("=== The cellular cycle system of Figure 1(a) ===");
    run_line("embed figure1")?;
    println!("\n=== Table 1 (paper): cycle following table at node D ===\n");
    run_line("tables figure1 D")
}

/// The §4.2/§4.3 walkthroughs, hop by hop with the PR/DD header state,
/// through `pr walk`.
fn fig1(_threads: usize) -> CmdResult {
    for (title, failures) in [
        ("Figure 1(b): single failure D-E, packet A -> F", "--fail D-E"),
        ("§4.2 second example: failures A-B and D-E, packet A -> F", "--fail D-E --fail A-B"),
        ("Figure 1(c): failures D-E and B-C, packet A -> F (DD mode)", "--fail D-E --fail B-C"),
        (
            "Figure 1(c) under basic mode: the forwarding loop §4.3 fixes",
            "--fail D-E --fail B-C --mode basic",
        ),
    ] {
        println!("=== {title} ===");
        run_line(&format!("walk figure1 A F {failures}"))?;
        println!();
    }
    Ok(())
}

/// Stretch CCDFs `P(stretch > x | path)` for reconvergence, FCP and PR
/// on the three ISP topologies: panels (a)–(c) with exhaustive single
/// failures, (d)–(f) with the paper's multi-failure counts, sampled.
/// Run under hop-count link costs (the paper's 1–15 stretch axis) and
/// under great-circle distance weights (same ordering, heavier tails).
fn fig2(threads: usize) -> CmdResult {
    // The paper does not state its sample count; 200 gives smooth CCDFs
    // at this topology size.
    const MULTI_SAMPLES: usize = 200;
    println!("=== Figure 2: stretch CCDF, P(stretch > x | path) ===");
    println!("    ({threads} worker threads)");
    let xs = stretch::figure2_xs();
    let panel =
        |name: &str, kind: &str, graph: &Graph, pr: &PrNetwork, family: &dyn ScenarioFamily| {
            // One sweep per panel: the quantiles of the table below
            // need the raw samples, and the CSV rendered from them is
            // byte for byte the one `pr sweep` renders from rows
            // (`rows_reproduce_the_raw_sample_panel_byte_for_byte`).
            let (samples, _) = stretch::run_with_stats(graph, pr, family, threads);
            write_result(name, &stretch::panel_csv(&samples, &xs));
            let summary = stretch::summarize(&samples);
            println!(
                "  [{kind}] pairs evaluated: {}, disconnected (excluded): {}, undelivered: {}",
                samples.evaluated_pairs, samples.disconnected_pairs, samples.undelivered
            );
            println!("    scheme            median   p95      max      P(stretch>1)");
            for (i, scheme) in stretch::Scheme::ALL.iter().enumerate() {
                let (label, s) = (scheme.label(), &summary);
                println!(
                    "    {label:<17} {:>7.3}  {:>7.3}  {:>7.3}  {:>7.3}",
                    s.median[i], s.p95[i], s.max[i], s.p_above_one[i]
                );
            }
        };
    for (weighting, suffix, costs) in [
        (Weighting::Hop, "", "hops (paper's 1-15 axis)"),
        (Weighting::Distance, "_distance", "great-circle distance (geographic variant)"),
    ] {
        println!("\n--- link costs: {costs} ---\n");
        for isp in Isp::ALL {
            let (graph, embedding) = paper_topology_with(isp, weighting);
            let (nodes, links, genus) = (graph.node_count(), graph.link_count(), embedding.genus());
            println!("{isp}: {nodes} nodes, {links} links, embedding genus {genus}");
            let pr = pr_dd(&graph, embedding);
            let single = SingleLinkFailures::new(&graph);
            panel(&format!("fig2_{isp}_single{suffix}.csv"), "single", &graph, &pr, &single);

            let k = isp.paper_multi_failure_count();
            let multi = SampledMultiFailures::new(&graph, k, MULTI_SAMPLES, EXPERIMENT_SEED);
            // The paper's k values all fit inside each topology's
            // cycle space, so every draw must reach k — a shortfall
            // here would silently mix failure counts into the panel.
            assert!(
                multi.all_draws_complete(),
                "{isp}: some sampled scenarios fell short of k={k}"
            );
            assert_eq!(multi.len(), MULTI_SAMPLES, "{isp}: dedup backfill fell short");
            let kind = format!("multi(k={k})");
            panel(&format!("fig2_{isp}_multi{suffix}.csv"), &kind, &graph, &pr, &multi);
            println!();
        }
    }
    println!("Done. CSV columns: stretch, P(>x) per scheme, legend order as in the paper.");
    Ok(())
}

/// Repair coverage per scheme and failure count — §4.2's "full repair
/// coverage for any single link failure", §4.3's "any number of link
/// failures ... as long as the network remains connected", and LFA's
/// partial protection for contrast.
fn coverage(threads: usize) -> CmdResult {
    println!("=== E5: delivery coverage, P(delivered | affected pair still connected) ===\n    ({threads} worker threads)\n");
    for isp in Isp::ALL {
        let (graph, embedding) = paper_topology(isp);
        let max_failures = isp.paper_multi_failure_count();
        let rows = coverage::run(&graph, &embedding, max_failures, 50, EXPERIMENT_SEED, threads);
        let (nodes, links, genus) = (graph.node_count(), graph.link_count(), embedding.genus());
        println!("{isp} ({nodes} nodes / {links} links, genus {genus}):");
        print!("{}", coverage::render(&rows));
        println!();
        write_result(
            &format!("coverage_{isp}.json"),
            &serde_json::to_string_pretty(&rows).expect("serializable"),
        );
        println!();
    }
    Ok(())
}

/// The §6 overhead comparison, measured on the real header codecs and
/// table structures.
fn overheads(threads: usize) -> CmdResult {
    println!("=== E8: header & state overheads (measured, not estimated) ===\n    ({threads} worker threads)\n");
    let reports = overheads::reports_for(&Isp::ALL, threads);
    print!("{}", overheads::render(&reports));
    println!(
        "\nReading guide: PR's header is constant (1 bit basic; 1+ceil(log2(diameter+1)) bits in\n\
         DD mode) while FCP grows linearly with carried failures; reconvergence and LFA use\n\
         no header bits but pay in loss-during-convergence and partial coverage respectively\n\
         (see E5/E10). pr-mem is the worst router's added state: DD column + 3-column cycle\n\
         following table."
    );
    write_result("overheads.json", &serde_json::to_string_pretty(&reports).expect("serializable"));
    Ok(())
}

/// OC-192 line rate in bits per second.
const OC192_BPS: u64 = 9_953_280_000;

/// The 4-node diamond of the §1 outage: `S` reaches `D` over a short
/// primary path through `P` and a longer backup through `B` — the
/// minimal topology where local reroute and global reconvergence
/// genuinely differ. Returns the graph and the primary link `P-D`.
fn diamond() -> (Graph, LinkId) {
    let mut g = Graph::new();
    let [s, p, b, d] = ["S", "P", "B", "D"].map(|name| g.add_node(name));
    g.add_link(s, p, 1).expect("distinct nodes");
    let primary = g.add_link(p, d, 1).expect("distinct nodes");
    g.add_link(s, b, 2).expect("distinct nodes");
    g.add_link(b, d, 2).expect("distinct nodes");
    (g, primary)
}

/// The §1 outage as a temporal scenario: the primary link of the
/// diamond fails at 500 ms for `outage_ns` (the IGP converging as it
/// comes back, PR detecting within 1 ms) under `duration_ns` of 1 kB
/// packets from `S` to `D` at `load` × OC-192.
fn oc192_scenario(
    g: &Graph,
    primary: LinkId,
    load: f64,
    outage_ns: u64,
    duration_ns: u64,
) -> TemporalScenario {
    let params = OutageParams {
        packet_bytes: 1024,
        interval_ns: (1024.0 * 8.0 * 1e9 / (load * OC192_BPS as f64)) as u64,
        fail_at_ns: 500_000_000,
        down_for_ns: outage_ns,
        detection_delay_ns: 1_000_000,
        igp_convergence_ns: outage_ns,
        duration_ns,
    };
    // The family observes the failed link's own endpoints; §1 is about
    // the traffic crossing it end to end.
    let mut scenario = OutageSweep::new(g, params).scenario(primary.index());
    scenario.flow.src = g.node_by_name("S").expect("diamond node");
    scenario.flow.dst = g.node_by_name("D").expect("diamond node");
    scenario
}

/// Replays `scenario` through the packet simulator at OC-192 bandwidth
/// under PR (basic mode suffices for a single failure), which deflects
/// as soon as the adjacent router detects the failure, and under a
/// reconverging IGP, which blackholes until convergence completes.
fn run_oc192(g: &Graph, scenario: &TemporalScenario, seed: u64) -> [(&'static str, Metrics); 2] {
    let emb = CellularEmbedding::new(g, pr_embedding::heuristics::best_effort(g, seed))
        .expect("diamond is connected");
    let net = PrNetwork::compile(g, emb, PrMode::Basic, DiscriminatorKind::Hops);
    let config =
        SimConfig { bandwidth_bps: OC192_BPS, queue_capacity: 1024, ..SimConfig::default() };
    let igp = igp_for(g, scenario, net.base(), &mut SpScratch::new());
    [
        ("pr", run_scenario(g, &Static(net.agent(g)), scenario, &config)),
        ("reconvergence", run_scenario(g, &igp, scenario, &config)),
    ]
}

/// §1's motivating arithmetic: "If a heavily loaded OC-192 link is down
/// for a second, more than a quarter of a million packets could be
/// lost, given an average packet size of 1 kB." — versus what PR loses
/// in the same outage.
fn oc192(_threads: usize) -> CmdResult {
    println!("=== E10: 1 s OC-192 outage, 1 kB packets (paper §1) ===\n");
    let (g, primary) = diamond();
    for load in [0.25, 0.5, 1.0] {
        let scenario = oc192_scenario(&g, primary, load, 1_000_000_000, 3_000_000_000);
        println!(
            "offered load {:.0}% of OC-192 ({:.2} Mpps):",
            load * 100.0,
            load * OC192_BPS as f64 / (1024.0 * 8.0) / 1e6
        );
        let mut rows = String::from("scheme,load,injected,delivered,lost,delivery_ratio\n");
        for (scheme, m) in run_oc192(&g, &scenario, EXPERIMENT_SEED) {
            let (injected, delivered) = (m.injected, m.delivered);
            let (lost, ratio) = (m.total_dropped(), m.delivery_ratio());
            println!(
                "  {scheme:<14} injected {injected:>9}  delivered {delivered:>9}  lost {lost:>8}  \
                 ({ratio:.4} delivered)"
            );
            for (reason, count) in &m.drops {
                println!("      {count:>9} x {reason}");
            }
            rows.push_str(&format!("{scheme},{load},{injected},{delivered},{lost},{ratio:.6}\n"));
        }
        write_result(&format!("oc192_load{}.csv", (load * 100.0) as u32), &rows);
        println!();
    }
    println!(
        "Paper check: at ≥25% load the reconverging IGP loses >250k packets in the 1 s\n\
         blackhole — \"more than a quarter of a million\" — while PR loses only the\n\
         ~1 ms detection window."
    );
    Ok(())
}

/// Demand-weighted loss over time under stochastic impairment: each
/// topology's outage sweep wrapped in a Gilbert–Elliott fault process
/// and in a correlated flap-storm layer, gravity demand replayed
/// through every impaired timeline.
fn impair_loss(threads: usize) -> CmdResult {
    println!("=== E13: stochastic impairment, gravity demand ({threads} threads) ===\n");
    let mut table = String::from(
        "topology,process,scenarios,events,offered_demand_s,pr_lost_demand_s,\
         igp_lost_demand_s,pr_loss_over_time,igp_loss_over_time,peak_pr_loss_fraction\n",
    );
    for isp in [Isp::Abilene, Isp::Geant] {
        let (g, emb) = paper_topology(isp);
        let net = pr_dd(&g, emb);
        let flows = FlowSet::all_pairs(&GravityTraffic::new(&g));
        let slug = format!("{isp:?}").to_lowercase();
        for (tag, process) in [
            ("gilbert", GilbertElliott { fail_rate_per_s: 2.0, mean_down_ns: 20_000_000 }),
            ("storm", FlapStorm { storms: 1, radius_km: 500.0, down_for_ns: 50_000_000 }),
        ] {
            let outages = OutageSweep::new(&g, OutageParams::default());
            let family = Impaired::new(&g, outages, process, EXPERIMENT_SEED);
            let mut rows =
                RowWriter::new(Artefact::create(&format!("impair_{slug}_{tag}.csv"))?, Format::Csv);
            let mut s = impair::ImpairSummary::default();
            impair::stream(&g, &net, &family, &flows, threads, |row| {
                s.add(&row);
                rows.row(&row);
            });
            let (scenarios, events, offered) = (s.scenarios, s.events, s.offered_demand_seconds);
            let (pr, igp) = (s.pr_demand_seconds_lost, s.igp_demand_seconds_lost);
            let (pr_rate, igp_rate) = (s.pr_loss_over_time(), s.igp_loss_over_time());
            println!(
                "{slug}/{tag}: {scenarios} scenarios, {events} events, PR loses {pr:.6} demand-s \
                 vs IGP {igp:.6} (loss-over-time {pr_rate:.6} vs {igp_rate:.6})"
            );
            rows.finish()?.finish()?;
            table.push_str(&format!(
                "{slug},{tag},{scenarios},{events},{offered:.6},{pr:.6},{igp:.6},{pr_rate:.6},\
                 {igp_rate:.6},{:.6}\n",
                s.peak_pr_loss_fraction
            ));
        }
        println!();
    }
    write_result("impair_summary.csv", &table);
    println!(
        "Reading: PR's loss-over-time stays pinned to the detection window even when a\n\
         Gilbert–Elliott process or a geo-correlated storm multiplies the failure count;\n\
         the reconverging IGP pays the full convergence transient on every episode."
    );
    Ok(())
}

/// Embedding heuristic vs genus, face structure and stretch (the
/// trade-off §7 gestures at: worse embeddings still work — on the
/// sphere — but cost stretch).
fn ablation_embedding(threads: usize) -> CmdResult {
    println!("=== E6: embedding heuristic ablation (single-failure PR-DD stretch) ===\n    ({threads} worker threads)\n");
    let mut all = Vec::new();
    for isp in Isp::ALL {
        let graph = pr_topologies::load(isp, Weighting::Distance);
        println!("{isp}:");
        println!(
            "  heuristic             genus  faces  max-face  mean-stretch  max-stretch  delivery"
        );
        let rows = ablation::embedding_ablation(&graph, EXPERIMENT_SEED, threads);
        for r in &rows {
            println!(
                "  {:<21} {:>5}  {:>5}  {:>8}  {:>12.3}  {:>11.3}  {:>8.4}",
                r.heuristic,
                r.genus,
                r.faces,
                r.max_face,
                r.mean_stretch,
                r.max_stretch,
                r.delivery
            );
        }
        all.push((isp.name(), rows));
        println!();
    }
    write_result(
        "ablation_embedding.json",
        &serde_json::to_string_pretty(&all).expect("serializable"),
    );
    Ok(())
}

/// Hop-count vs weighted-cost distance discriminator (§4.3 allows
/// either): both deliver identically on genus-0 embeddings; the
/// difference is header bits.
fn ablation_dd(threads: usize) -> CmdResult {
    println!(
        "=== E7: distance-discriminator function ablation ===\n    ({threads} worker threads)\n"
    );
    let mut all = Vec::new();
    for isp in Isp::ALL {
        let (graph, embedding) = paper_topology(isp);
        let k = isp.paper_multi_failure_count();
        let rows =
            ablation::discriminator_ablation(&graph, &embedding, k, 50, EXPERIMENT_SEED, threads);
        println!("{isp} (k={k} failures, 50 scenarios):");
        println!("  discriminator   header-bits  delivery  mean-stretch");
        for r in &rows {
            println!(
                "  {:<15} {:>11}  {:>8.4}  {:>12.3}",
                r.discriminator, r.header_bits, r.delivery, r.mean_stretch
            );
        }
        all.push((isp.name(), rows));
        println!();
    }
    write_result("ablation_dd.json", &serde_json::to_string_pretty(&all).expect("serializable"));
    Ok(())
}

/// A reproduction finding: PR-DD delivery rate as a function of
/// embedding genus. §5's guarantee is proved with sphere reasoning;
/// random rotation systems push the genus up and delivery down —
/// including on K5, where *no* genus-0 embedding exists.
fn ablation_genus(threads: usize) -> CmdResult {
    println!("=== E11: delivery vs embedding genus (random rotation systems) ===\n    ({threads} worker threads)\n");
    let mut all = Vec::new();
    for (name, graph, failures) in [
        ("k5", generators::complete(5, 1), 3),
        ("petersen", generators::petersen(1), 3),
        ("abilene", pr_topologies::load(Isp::Abilene, Weighting::Distance), 4),
    ] {
        let (nodes, links) = (graph.node_count(), graph.link_count());
        println!("{name} ({nodes} nodes / {links} links, {failures} failures per scenario):");
        println!("  genus  embeddings  evaluated  delivered  rate");
        let rows = ablation::genus_delivery(&graph, 60, failures, 5, EXPERIMENT_SEED, threads);
        for r in &rows {
            let rate = if r.evaluated == 0 { 1.0 } else { r.delivered as f64 / r.evaluated as f64 };
            println!(
                "  {:>5}  {:>10}  {:>9}  {:>9}  {rate:.4}",
                r.genus, r.embeddings, r.evaluated, r.delivered
            );
        }
        all.push((name.to_string(), rows));
        println!();
    }
    write_result("ablation_genus.json", &serde_json::to_string_pretty(&all).expect("serializable"));
    println!(
        "Reading guide: at genus 0 delivery is 1.0 (the paper's theorem); positive-genus\n\
         embeddings livelock on a measurable fraction of (scenario, pair) combinations.\n\
         All three paper topologies admit genus-0 embeddings, so the paper's results hold."
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_arithmetic_quarter_million_lost() {
        // At 25% load, 1 kB packets: 1 s of blackhole ≈ 0.25 × OC-192 /
        // 8192 bits ≈ 304k packets — "more than a quarter of a
        // million", as §1 says. A scaled-down-duration version of the
        // `oc192` row's scenario (the row runs the full second).
        let (g, primary) = diamond();
        let scenario = oc192_scenario(&g, primary, 0.25, 100_000_000, 800_000_000);
        let [(pr_scheme, pr), (igp_scheme, igp)] = run_oc192(&g, &scenario, 42);
        assert_eq!((pr_scheme, igp_scheme), ("pr", "reconvergence"));

        // 100 ms blackhole at ~304 kpps ≈ 30k lost for the IGP.
        let igp_lost = igp.total_dropped();
        assert!(
            (25_000..=35_000).contains(&igp_lost),
            "IGP lost {igp_lost}, expected ≈30k in a 100 ms window"
        );
        // PR loses only the ~1 ms detection window (~300 packets).
        let pr_lost = pr.total_dropped();
        assert!(pr_lost < 1_000, "PR lost {pr_lost}, expected < 1k");
        // And PR's delivery ratio stays near 1.
        assert!(pr.delivery_ratio() > 0.995);

        // Exactly what the hand-wired simulator runs this scenario
        // replaced returned for it, counter for counter.
        let pin = |delivered, blackholed, latency_sum_ns, hops_sum| Metrics {
            injected: 243_014,
            delivered,
            drops: [
                ("egress interface down".to_string(), blackholed),
                ("lost in flight on failed link".to_string(), 15),
            ]
            .into(),
            latency_sum_ns,
            latency_max_ns: 303_296,
            hops_sum,
            hops_max: 4,
        };
        assert_eq!(pr, pin(242_695, 304, 30_794_922_656, 546_144));
        assert_eq!(igp, pin(212_622, 30_377, 27_691_134_144, 425_276));
    }

    #[test]
    fn diamond_is_wired_correctly() {
        let (g, primary) = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.link_count(), 4);
        let (a, b) = g.endpoints(primary);
        assert_eq!(g.node_name(a), "P");
        assert_eq!(g.node_name(b), "D");
        let (s, d) = (g.node_by_name("S").unwrap(), g.node_by_name("D").unwrap());
        let tree = pr_graph::SpTree::towards_all_live(&g, d);
        assert_eq!(tree.cost(s), Some(2), "primary path S-P-D costs 2");
        let scenario = oc192_scenario(&g, primary, 1.0, 1, 1);
        assert_eq!((scenario.flow.src, scenario.flow.dst), (s, d), "the flow crosses end to end");
        assert_eq!(scenario.igp_failed, [primary]);
    }
}
