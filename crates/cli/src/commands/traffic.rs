//! `pr traffic | impair`: demand-weighted replays, static and over
//! impaired timelines, and the demand workload both (and the daemon)
//! are given on the command line.

use pr_bench::impair::ImpairSummary;
use pr_bench::traffic::TrafficSummary;
use pr_scenarios::{
    Impaired, ImpairmentProcess, OutageParams, OutageSweep, ScenarioFamily, TemporalFamily,
};

use super::{
    bounded, compile, load_topology, parse_failures, parse_format, positive, row_artefact, slug,
    threads, topological_family, CmdResult,
};
use crate::args::Args;

/// The demand workload the `--model/--flows/--hotspots/--boost` flags
/// describe, for `pr traffic`, `pr impair` and `pr daemon run`; built by
/// [`pr_daemon::DemandSpec::build`] (the whole matrix, or `--flows N`
/// flows sampled proportionally to demand). What is the command line's
/// own stays here: model-specific knobs given with the wrong `--model`
/// and an explicit `--flows 0` are hard errors.
pub fn demand_spec(args: &Args, model_name: &str, seed: u64) -> CmdResult<pr_daemon::DemandSpec> {
    args.check_owned("model", &[model_name])?;
    let mut spec = pr_daemon::DemandSpec::named(model_name);
    spec.flows = args.option_or("flows", 0usize)?;
    if spec.flows == 0 && args.option("flows").is_some() {
        return Err("--flows wants a positive sample count \
                    (omit it to replay the full matrix)"
            .into());
    }
    spec.hotspots = args.optional("hotspots")?;
    spec.boost = args.option_or("boost", spec.boost)?;
    spec.seed = seed;
    Ok(spec)
}

/// The first report line of `pr traffic` and `pr impair`: what is
/// replayed through what.
fn print_workload(flows: &pr_traffic::FlowSet, family: &str, scenarios: &str, threads: usize) {
    println!(
        "model {} ({} flows, {:.1} demand offered); family {family} ({scenarios}, {threads} threads)",
        flows.label(),
        flows.len(),
        flows.offered()
    );
}

/// The `replay:` line of `pr traffic --stats` and `pr impair --stats`:
/// why a replay walks little or nothing — a single failure's
/// destinations priced off their failed dart's episode, the points of
/// several failures priced as episode chains.
fn print_replay_stats(stats: &pr_traffic::ReplayStats) {
    println!(
        "replay:                replays {}, destinations {}, cone sources {}, priced {}, \
         chained {}, walks {}",
        stats.replays,
        stats.destinations,
        stats.cone_sources,
        stats.priced,
        stats.chained,
        stats.walks
    );
}

/// `pr traffic`, the traffic-weighted front door: builds a demand
/// matrix, compiles a flow set, and replays it through every scenario
/// of a topological failure family on the replay dataplane — reporting
/// weighted coverage, % demand lost, and max-link-utilisation under
/// failure.
pub fn traffic(args: &Args) -> CmdResult {
    let topo_spec = args.positional(0, "topology")?;
    let (graph, canonical) = load_topology(topo_spec)?;
    // `--fail A-B` (repeatable) replays one explicit scenario — the
    // batch twin of the daemon's link-down state, and what the CI smoke
    // compares a live `/metrics` scrape against.
    let explicit = !args.options("fail").is_empty();
    let family_name = if explicit {
        if args.option("family").is_some() {
            return Err("--fail replays one explicit scenario and conflicts with --family".into());
        }
        "explicit"
    } else {
        args.option("family").unwrap_or("single")
    };
    // Validate the family up front: the shared builder's error message
    // advertises the temporal families, which `pr traffic` (a static
    // replay) does not accept.
    if !explicit && !["single", "multi", "node", "srlg", "exhaustive"].contains(&family_name) {
        let hint = if matches!(family_name, "outage" | "flap") {
            " (pr traffic replays static failure scenarios; temporal families are pr sweep only)"
        } else {
            ""
        };
        return Err(format!(
            "--family wants single|multi|node|srlg|exhaustive, got {family_name:?}{hint}"
        )
        .into());
    }
    args.check_owned("family", &[family_name])?;
    let model_name = args.option("model").unwrap_or("gravity");
    let format = parse_format(args)?;
    let threads = threads(args)?;
    let seed: u64 = args.option_or("seed", 2010)?;
    let (family, notes): (Box<dyn ScenarioFamily + '_>, _) = if explicit {
        (Box::new(vec![parse_failures(&graph, args)?]), Vec::new())
    } else {
        topological_family(&graph, family_name, args.option_or("k", 2)?, seed, args)?
    };

    let flows = demand_spec(args, model_name, seed)?.build(&graph)?;

    let net = compile(&graph, canonical, args)?;
    notes.iter().for_each(|note| println!("{note}"));
    print_workload(&flows, &family.label(), &format!("{} scenarios", family.len()), threads);

    let stem = format!("traffic_{}_{model_name}_{family_name}{}", slug(topo_spec), args.stem());
    let mut artefact = row_artefact(format, &stem)?;
    let mut s = TrafficSummary::default();
    let stats = pr_bench::traffic::stream(&graph, &net, family.as_ref(), &flows, threads, |row| {
        s.add(&row);
        if let Some(rows) = &mut artefact {
            rows.row(&row);
        }
    });
    let (coverage, lost_pct) = (s.weighted_coverage(), 100.0 * s.demand_lost_fraction());
    println!(
        "weighted coverage:     {coverage:.6} (delivered share of affected, connected demand)"
    );
    println!(
        "demand lost:           {lost_pct:.4}% ({:.1} of {:.1} per-scenario demand units)",
        s.tally.lost(),
        s.tally.offered
    );
    print!("max link utilisation:  {:.4}", s.max_link_utilisation);
    match s.peak_scenario.zip(s.peak_link) {
        Some((scenario, link)) => {
            let (a, b) = graph.endpoints(link);
            println!(" (scenario {scenario}, link {}-{})", graph.node_name(a), graph.node_name(b));
        }
        None => println!(),
    }
    if let Some(stretch) = s.tally.mean_weighted_stretch() {
        println!("mean weighted stretch: {stretch:.4} (over delivered affected demand)");
    }
    if args.flag("stats") {
        print_replay_stats(&stats);
    }
    if let Some(rows) = artefact {
        rows.finish()?.finish()?;
    }
    Ok(())
}

/// `pr impair`, the stochastic-impairment front door: wraps the outage
/// sweep in one seeded [`ImpairmentProcess`] per `--process` (repeats
/// stack, outer last), replays the `--model` demand through every
/// impaired timeline, and reports demand-weighted loss-over-time for PR
/// versus a reconverging IGP — with the full per-interval curve behind
/// `--format`.
pub fn impair(args: &Args) -> CmdResult {
    let topo_spec = args.positional(0, "topology")?;
    let (graph, canonical) = load_topology(topo_spec)?;
    let processes: Vec<&str> = if args.options("process").is_empty() {
        vec!["gilbert"]
    } else {
        args.options("process").iter().map(String::as_str).collect()
    };
    args.check_owned("process", &processes)?;
    let model_name = args.option("model").unwrap_or("gravity");
    let format = parse_format(args)?;
    let threads = threads(args)?;
    let seed: u64 = args.option_or("seed", 2010)?;

    let flows = demand_spec(args, model_name, seed)?.build(&graph)?;

    // Stack the decorators over the outage sweep in the order given:
    // `--process gilbert --process storm` builds
    // `Impaired<storm, Impaired<gilbert, OutageSweep>>`.
    let mut family: Box<dyn TemporalFamily + '_> =
        Box::new(OutageSweep::new(&graph, OutageParams::default()));
    for name in &processes {
        let process = match *name {
            "gilbert" => {
                let rate: f64 = args.option_or("rate", 2.0)?;
                if rate < 0.0 {
                    return Err(format!("--rate wants failures/s >= 0, got {rate}").into());
                }
                let burst: u64 = args.option_or("burst", 20)?;
                ImpairmentProcess::GilbertElliott {
                    fail_rate_per_s: rate,
                    mean_down_ns: burst.max(1) * 1_000_000,
                }
            }
            "storm" => {
                if !graph.fully_located() {
                    return Err("storm needs PoP coordinates on every node \
                                (use a shipped ISP topology or a synth:isp mesh)"
                        .into());
                }
                let radius: f64 = args.option_or("radius", 500.0)?;
                if radius < 0.0 {
                    return Err(format!("--radius wants km >= 0, got {radius}").into());
                }
                ImpairmentProcess::FlapStorm {
                    storms: positive("storms", args.option_or("storms", 1)?)?,
                    radius_km: radius,
                    down_for_ns: args.option_or("burst", 20u64)?.max(1) * 1_000_000,
                }
            }
            "maintenance" => {
                let window_ms = positive("window-ms", args.option_or("window-ms", 50)?)?;
                let links = args.option_or("links", 2)?;
                let links = bounded("links", links, graph.link_count(), "links of the topology")?;
                ImpairmentProcess::Maintenance { window_ns: window_ms as u64 * 1_000_000, links }
            }
            "jitter" => {
                let jitter_ms = positive("jitter-ms", args.option_or("jitter-ms", 5)?)?;
                ImpairmentProcess::DetectionJitter { max_extra_ns: jitter_ms as u64 * 1_000_000 }
            }
            other => {
                return Err(format!(
                    "--process wants gilbert|storm|maintenance|jitter, got {other:?}"
                )
                .into())
            }
        };
        family = Box::new(Impaired::new(&graph, family, process, seed));
    }

    let net = compile(&graph, canonical, args)?;
    print_workload(&flows, &family.label(), &format!("{} timed scenarios", family.len()), threads);

    let stem =
        format!("impair_{}_{}_{model_name}{}", slug(topo_spec), processes.join("-"), args.stem());
    let mut artefact = row_artefact(format, &stem)?;
    let mut s = ImpairSummary::default();
    let stats = pr_bench::impair::stream(&graph, &net, family.as_ref(), &flows, threads, |row| {
        s.add(&row);
        if let Some(rows) = &mut artefact {
            rows.row(&row);
        }
    });
    println!("link events:           {} across {} timelines", s.events, s.scenarios);
    println!("offered demand:        {:.3} demand-seconds", s.offered_demand_seconds);
    println!(
        "demand-seconds lost:   packet-recycling {:.3}   reconvergence {:.3}",
        s.pr_demand_seconds_lost, s.igp_demand_seconds_lost
    );
    let (pr, igp) = (s.pr_loss_over_time(), s.igp_loss_over_time());
    println!("loss over time:        packet-recycling {pr:.6}   reconvergence {igp:.6}");
    match s.peak_scenario {
        Some(i) => println!(
            "peak PR loss:          {:.6} of offered demand (scenario {i})",
            s.peak_pr_loss_fraction
        ),
        None => println!("peak PR loss:          0 (no scenarios)"),
    }
    if args.flag("stats") {
        print_replay_stats(&stats);
    }
    if let Some(rows) = artefact {
        rows.finish()?.finish()?;
    }
    Ok(())
}
