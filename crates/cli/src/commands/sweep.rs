//! `pr stretch | sweep`: the scenario-sweep front doors, sharded and
//! checkpointed on request.

use pr_bench::shards::{ShardKey, ShardOutcome};
use pr_bench::stretch::{self, SweepStats};
use pr_scenarios::{FlapSweep, OutageParams, OutageSweep, ScenarioSlice, TemporalFamily};

use super::{
    compile, emit, load_topology, losable, parse_format, slug, threads, topological_family,
    CmdResult,
};
use crate::args::Args;

/// `pr stretch`: `pr sweep`'s unsharded topological run under its older
/// spelling — `--failures 1` is the `single` family, `--failures K` the
/// `multi` family at `--k K` — reporting the stretch CCDF at a few of
/// the report's thresholds.
pub fn stretch(args: &Args) -> CmdResult {
    let (graph, canonical) = load_topology(args.positional(0, "topology")?)?;
    let failures: usize = args.option_or("failures", 1)?;
    // `--failures 1` is the single family; any other count is drawn.
    if failures != 1 {
        losable(&graph, "failures", failures)?;
    }
    if failures == 1 && args.option("samples").is_some() {
        return Err("--samples draws multi-failure scenarios: it wants --failures 2 or more".into());
    }
    let seed: u64 = args.option_or("seed", 2010)?;
    let threads = threads(args)?;
    let name = if failures == 1 { "single" } else { "multi" };
    let (family, notes) = topological_family(&graph, name, failures, seed, args)?;
    let net = compile(&graph, canonical, args)?;
    notes.iter().for_each(|note| println!("{note}"));
    let (rows, _) = stretch::run_rows(&graph, &net, family.as_ref(), threads, 0);
    let report = stretch::report_from_rows(&rows, &stretch::figure2_xs());
    println!(
        "affected pairs: {} ({} scenarios, {failures} failures each, {threads} threads), \
         undelivered: {}",
        report.evaluated_pairs, report.scenarios, report.undelivered
    );
    print_mean_stretch(report.mean);
    for x in [1.0, 2.0, 3.0, 5.0, 10.0, 15.0] {
        let i = report.xs.iter().position(|&t| t == x).expect("a Figure 2 threshold");
        println!(
            "P(stretch>{x:>4}): {:>12.4}  {:>8.4}  {:>8.4}",
            report.ccdf[0][i], report.ccdf[1][i], report.ccdf[2][i]
        );
    }
    Ok(())
}

/// The mean-stretch line of `pr stretch` and `pr sweep`
/// ([`pr_bench::stretch::Scheme::ALL`] order). A scheme without a
/// sample prints `NaN`, as the JSON report says `null`.
fn print_mean_stretch(mean: [f64; 3]) {
    println!(
        "mean stretch:  reconvergence {:.3}  fcp {:.3}  packet-recycling {:.3}",
        mean[0], mean[1], mean[2]
    );
}

/// `pr sweep`: one front door to the scenario subsystem — picks a
/// failure family, fans it over the `pr-bench` work-unit engine on
/// `--threads` workers, and prints a per-scheme summary. Topological
/// families run the walker-based stretch/delivery sweep, folded into
/// one row per scenario (checkpointed shard by shard on request) and
/// from there into the report and the CSV/JSON artefact; temporal ones
/// price each timed scenario's flow under PR and a reconverging IGP.
pub fn sweep(args: &Args) -> CmdResult {
    let topo_spec = args.positional(0, "topology")?;
    let (graph, canonical) = load_topology(topo_spec)?;
    let family_name = args.option("family").unwrap_or("single");
    args.check_owned("family", &[family_name])?;
    let format = parse_format(args)?;
    let threads = threads(args)?;
    let seed: u64 = args.option_or("seed", 2010)?;

    // Any of the shard flags checkpoints a topological sweep's rows on
    // their way to the artefact.
    let resume = args.flag("resume");
    let sharded = resume || args.option("shards").is_some() || args.option("max-shards").is_some();
    if resume && format.is_none() {
        return Err("--resume requires --format csv|json \
                    (resume merges persisted shards into an artefact)"
            .into());
    }
    if sharded {
        if matches!(family_name, "outage" | "flap") {
            return Err(format!(
                "--shards/--resume apply to topological sweeps only \
                 (--family {family_name} is temporal)"
            )
            .into());
        }
        if args.flag("stats") {
            return Err("--stats is not recorded in shard checkpoints; \
                        run without --shards/--resume to collect repair statistics"
                .into());
        }
    }
    let topological = match family_name {
        "outage" | "flap" => None,
        name => Some(topological_family(&graph, name, args.option_or("k", 2)?, seed, args)?),
    };
    let net = compile(&graph, canonical, args)?;
    let stem = format!("sweep_{}_{family_name}{}", slug(topo_spec), args.stem());

    match topological {
        None => {
            let params = OutageParams::default();
            let family: Box<dyn TemporalFamily + '_> = match family_name {
                "outage" => Box::new(OutageSweep::new(&graph, params)),
                _ => {
                    let holddown_ms: u64 = args.option_or("holddown-ms", 50)?;
                    Box::new(FlapSweep::new(&graph, params).with_holddown(holddown_ms * 1_000_000))
                }
            };
            let config = pr_bench::timed::SimConfig::default();
            let rows = pr_bench::temporal::run(&graph, &net, family.as_ref(), &config, threads)?;
            let s = pr_bench::temporal::summarize(&rows);
            println!(
                "family {} ({} timed scenarios, {threads} threads)",
                family.label(),
                s.scenarios
            );
            println!("scheme              injected   delivered   lost   delivery");
            for (scheme, delivered, dropped) in [
                ("packet-recycling", s.pr_delivered, s.pr_dropped),
                ("reconvergence", s.igp_delivered, s.igp_dropped),
            ] {
                let ratio = delivered as f64 / s.injected.max(1) as f64;
                println!(
                    "{scheme:<18} {:>9}  {delivered:>9}  {dropped:>6}  {ratio:>8.4}",
                    s.injected
                );
            }
            if let Some(worst) = rows.iter().max_by_key(|r| r.pr.total_dropped()) {
                let (lost, injected) = (worst.pr.total_dropped(), worst.pr.injected);
                println!("worst PR scenario: {} ({lost} lost of {injected})", worst.label);
            }
            emit(
                format,
                &stem,
                || pr_bench::temporal::rows_csv(&rows),
                || serde_json::to_string_pretty(&rows).expect("serializable rows"),
            );
        }
        Some((family, notes)) => {
            notes.iter().for_each(|note| println!("{note}"));
            let family = family.as_ref();
            println!(
                "family {} ({} scenarios, streamed, {threads} threads)",
                family.label(),
                family.len()
            );
            let (rows, stats) = if sharded {
                // Splits the scenario range into `--shards` chunks
                // (default 8) and persists each finished chunk under
                // `results/<stem>/`: resumable after a kill with
                // `--resume`, the merged rows bit-identical at any
                // thread or shard count.
                let shards = args.option_or("shards", 8usize)?.clamp(1, family.len().max(1));
                let dir = pr_bench::results_dir().join(&stem);
                let key = ShardKey {
                    topology: graph.fingerprint(),
                    nodes: graph.node_count() as u64,
                    links: graph.link_count() as u64,
                    embedding: net.embedding().rotation().fingerprint(),
                    family: family.label(),
                    seed,
                    scenarios: family.len() as u64,
                    shards: shards as u64,
                };
                let stop_after = args.optional::<usize>("max-shards")?;
                let run_slice = |shard: usize, start: usize, len: usize| {
                    println!(
                        "  shard {}/{shards}: scenarios [{start}..{})",
                        shard + 1,
                        start + len
                    );
                    let slice = ScenarioSlice::new(family, start, len);
                    stretch::run_rows(&graph, &net, &slice, threads, start).0
                };
                match pr_bench::engine::run_shards(&dir, &key, resume, stop_after, run_slice)? {
                    ShardOutcome::Partial { completed, total } => {
                        println!(
                            "checkpoint: {completed}/{total} shards complete under {}; \
                             rerun with --resume to continue",
                            dir.display()
                        );
                        return Ok(());
                    }
                    // `--stats` was refused above: checkpoints do not
                    // record the counters.
                    ShardOutcome::Complete(rows) => (rows, SweepStats::default()),
                }
            } else {
                stretch::run_rows(&graph, &net, family, threads, 0)
            };
            let xs = stretch::figure2_xs();
            let report = stretch::report_from_rows(&rows, &xs);
            println!(
                "affected connected pairs: {}, disconnected (excluded): {}, \
                 undelivered: {} (fcp {}, packet-recycling {})",
                report.evaluated_pairs,
                report.disconnected_pairs,
                report.undelivered,
                report.undelivered_fcp,
                report.undelivered_pr
            );
            print_mean_stretch(report.mean);
            if args.flag("stats") {
                let (repair, walks) = (&stats.repair, &stats.memo);
                let (cone, hit) = (100.0 * repair.cone_fraction(), 100.0 * repair.hit_rate());
                // Under one failed link a reverse unit's cone is read
                // off its link's mirror: a repair answered, not run.
                println!(
                    "spt repair:    {} repairs ({} mirrored), cone {cone:.1}% of nodes \
                     (hit rate {hit:.1}%), {} full rebuilds",
                    repair.repairs, repair.mirrored, repair.full_rebuilds
                );
                // Under two or more failures a PR point is priced as an
                // episode chain where it delivers, and walked otherwise.
                println!(
                    "walks:         {} walks, {} chains for {} sources, {} steps walked",
                    walks.walks, walks.chained, walks.shared, walks.walked_steps
                );
                let routes = &stats.routes;
                println!(
                    "fcp routes:    {} repaired (cone nodes {})",
                    routes.repaired, routes.cone_nodes
                );
                // Why a single-failure sweep reports no walk: every
                // unit with a cone — one repair each — was priced.
                let lanes = &stats.lanes;
                println!(
                    "closed forms:  fcp {} units priced, packet-recycling {} units priced \
                     ({} episodes), of {} with a cone",
                    lanes.fcp_priced, lanes.pr_priced, lanes.pr_episodes, repair.repairs
                );
            }
            emit(
                format,
                &stem,
                || stretch::panel_csv_from_rows(&rows, &xs),
                || serde_json::to_string_pretty(&report).expect("serializable report"),
            );
        }
    }
    Ok(())
}
