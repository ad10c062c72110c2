//! `pr daemon | ctl`: lifecycle of and one-shot client to the resident
//! network twin (`pr-daemon`).

use std::path::PathBuf;

use super::traffic::demand_spec;
use super::{compile, load_topology, threads, CmdResult};
use crate::args::Args;

/// The addr file a daemon writes and clients read: `--addr-file PATH`,
/// defaulting to `results/daemon.addr`.
fn daemon_addr_file(args: &Args) -> PathBuf {
    match args.option("addr-file") {
        Some(path) => PathBuf::from(path),
        None => pr_bench::results_dir().join("daemon.addr"),
    }
}

/// `--format json` of the client subcommands: raw JSON instead of the
/// human-readable rendering.
fn wants_json(args: &Args) -> Result<bool, String> {
    match args.option("format") {
        None => Ok(false),
        Some("json") => Ok(true),
        Some(other) => Err(format!("--format wants json, got {other:?}")),
    }
}

/// `pr daemon start|run <topology>` — `run` compiles the twin and
/// serves in the foreground until a `shutdown` request; `start` spawns
/// `run` detached and waits for the addr file. `--port 0` /
/// `--metrics-port 0` (the default) bind ephemeral ports — clients
/// discover them through the addr file.
pub fn serve(args: &Args) -> CmdResult {
    if args.positional(0, "action")? == "start" {
        return daemon_start(args);
    }
    let (graph, canonical) = load_topology(args.positional(1, "topology")?)?;
    let threads = threads(args)?;
    let default_model = if graph.fully_located() { "gravity" } else { "uniform" };
    let spec = demand_spec(
        args,
        args.option("model").unwrap_or(default_model),
        args.option_or("seed", 2010)?,
    )?;
    let net = compile(&graph, canonical, args)?;
    let twin = pr_daemon::Twin::new(graph, net, spec, threads)?;
    let config = pr_daemon::DaemonConfig {
        port: args.option_or("port", 0u16)?,
        metrics_port: args.option_or("metrics-port", 0u16)?,
        addr_file: daemon_addr_file(args),
        event_log: args.option("log").map(PathBuf::from),
    };
    pr_daemon::serve(twin, &config)?;
    Ok(())
}

/// `pr daemon start <topology>`: spawn `daemon run` detached, poll for
/// the addr file (watching for early death), and report the addresses.
fn daemon_start(args: &Args) -> CmdResult {
    let topo_spec = args.positional(1, "topology")?;
    let addr_file = daemon_addr_file(args);
    if addr_file.exists() {
        if pr_daemon::request_via(&addr_file, &pr_daemon::Request::Snapshot).is_ok() {
            return Err(format!("a daemon is already serving ({})", addr_file.display()).into());
        }
        // Stale addr file from an unclean exit: clear it so the poll
        // below observes the new daemon's write, not the corpse's.
        let _ = std::fs::remove_file(&addr_file);
    }
    let out_path = addr_file.with_extension("out");
    let out = std::fs::File::create(&out_path)?;
    let mut cmd = std::process::Command::new(std::env::current_exe()?);
    cmd.arg("daemon").arg("run").arg(topo_spec);
    cmd.arg("--addr-file").arg(&addr_file);
    // Every other option it was given goes to the server verbatim.
    for opt in args.table().filter(|opt| opt.name != "addr-file") {
        if let Some(value) = args.option(opt.name) {
            cmd.arg(format!("--{}", opt.name)).arg(value);
        }
    }
    cmd.stdin(std::process::Stdio::null()).stdout(out.try_clone()?).stderr(out);
    let mut child = cmd.spawn()?;
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(300);
    while !addr_file.exists() {
        if let Some(status) = child.try_wait()? {
            let log = std::fs::read_to_string(&out_path).unwrap_or_default();
            let tail: Vec<&str> = log.lines().rev().take(5).collect();
            return Err(format!(
                "daemon exited during startup ({status}): {}",
                tail.into_iter().rev().collect::<Vec<_>>().join(" / ")
            )
            .into());
        }
        if std::time::Instant::now() >= deadline {
            let _ = child.kill();
            return Err("daemon did not become ready within 300s".into());
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    let addrs = pr_daemon::read_addr_file(&addr_file)?;
    println!("pr-daemon: pid {}", child.id());
    println!("pr-daemon: control {}", addrs.control);
    println!("pr-daemon: metrics http://{}/metrics", addrs.metrics);
    println!("pr-daemon: addr file {}", addr_file.display());
    Ok(())
}

/// `pr daemon stop|status|metrics` — `stop`/`status` speak the control
/// protocol; `metrics` scrapes the Prometheus page (so CI needs no
/// curl).
pub fn client(args: &Args) -> CmdResult {
    use pr_daemon::Request;
    let addr_file = daemon_addr_file(args);
    match args.positional(0, "action")? {
        "metrics" => {
            let addrs = pr_daemon::read_addr_file(&addr_file)?;
            print!("{}", pr_daemon::scrape_metrics(&addrs.metrics)?);
            Ok(())
        }
        "status" => print_response(
            pr_daemon::request_via(&addr_file, &Request::Snapshot)?,
            wants_json(args)?,
        ),
        _ => print_response(pr_daemon::request_via(&addr_file, &Request::Shutdown)?, false),
    }
}

/// `pr ctl <command>` — one-shot control-protocol client against the
/// daemon behind `--addr-file` (default `results/daemon.addr`).
pub fn ctl(args: &Args) -> CmdResult {
    use pr_daemon::{QueryKind, Request};
    let json = wants_json(args)?;
    let req = match args.positional(0, "command")? {
        "link-down" => Request::LinkDown { link: args.positional(1, "link")?.to_string() },
        "link-up" => Request::LinkUp { link: args.positional(1, "link")?.to_string() },
        "set-demand" => Request::SetDemand {
            model: args.positional(1, "model")?.to_string(),
            flows: args.optional("flows")?,
            hotspots: args.optional("hotspots")?,
            boost: args.optional("boost")?,
            seed: args.optional("seed")?,
        },
        "query" => Request::Query {
            what: match args.positional(1, "what")? {
                "coverage" => QueryKind::Coverage,
                "stretch" => QueryKind::Stretch,
                "traffic" => QueryKind::Traffic,
                other => {
                    return Err(
                        format!("query wants coverage|stretch|traffic, got {other:?}").into()
                    )
                }
            },
        },
        "snapshot" => Request::Snapshot,
        "shutdown" => Request::Shutdown,
        other => {
            return Err(format!(
                "ctl wants link-down|link-up|set-demand|query|snapshot|shutdown, got {other:?}"
            )
            .into())
        }
    };
    if !matches!(req, Request::SetDemand { .. }) {
        for opt in ["flows", "hotspots", "boost", "seed"] {
            if args.option(opt).is_some() {
                return Err(format!("option --{opt} only applies to ctl set-demand").into());
            }
        }
    }
    print_response(pr_daemon::request_via(&daemon_addr_file(args), &req)?, json)
}

/// Renders a daemon [`pr_daemon::Response`] — human-readable lines
/// mirroring the batch CLI's formats (so eyeballs and scripts can
/// compare them), or the raw JSON under `--format json`. An `Error`
/// response exits non-zero like any other CLI failure.
fn print_response(resp: pr_daemon::Response, json: bool) -> CmdResult {
    use pr_daemon::Response;
    if let Response::Error { message } = &resp {
        return Err(format!("daemon: {message}").into());
    }
    if json {
        println!("{}", serde_json::to_string_pretty(&resp).expect("serializable response"));
        return Ok(());
    }
    match resp {
        Response::Done { info } => println!("ok: {info}"),
        Response::Bye => println!("daemon: bye"),
        Response::Traffic(r) => {
            let tally = &r.traffic.tally;
            let (coverage, lost) = (tally.weighted_coverage(), tally.lost());
            println!("failed links:          {}", r.failed_links);
            println!(
                "weighted coverage:     {coverage:.6} (delivered share of affected, connected demand)"
            );
            println!(
                "demand lost:           {:.4}% ({lost:.1} of {:.1} demand units)",
                100.0 * tally.demand_lost_fraction(),
                tally.offered
            );
            match &r.peak_link {
                Some(link) => {
                    println!("max link utilisation:  {:.4} (link {link})", r.max_link_utilisation)
                }
                None => println!("max link utilisation:  {:.4}", r.max_link_utilisation),
            }
            if let Some(stretch) = r.mean_weighted_stretch {
                println!("mean weighted stretch: {stretch:.4} (over delivered affected demand)");
            }
        }
        Response::Coverage(r) => {
            println!("failed links:          {}", r.failed_links);
            println!("coverage:              {:.6} (uniform-unit delivered share)", r.coverage);
            let (lost_pct, lost) = (100.0 * r.demand_lost_fraction, r.tally.lost());
            println!(
                "demand lost:           {lost_pct:.4}% ({lost:.1} of {:.1} demand units)",
                r.tally.offered
            );
        }
        Response::Stretch(r) => {
            println!(
                "failed links:          {} ({} pairs evaluated, {} disconnected)",
                r.failed_links, r.evaluated_pairs, r.disconnected_pairs
            );
            println!(
                "undelivered:           fcp {}   packet-recycling {}",
                r.undelivered_fcp, r.undelivered_pr
            );
            for s in &r.schemes {
                let scheme = format!("{}:", s.scheme);
                println!(
                    "{scheme:<22} mean {:.4}   max {:.4}   ({} samples)",
                    s.mean, s.max, s.samples
                );
            }
        }
        Response::State(s) => {
            println!(
                "graph:                 {} nodes, {} links (fingerprint {})",
                s.nodes, s.links, s.fingerprint
            );
            println!("threads:               {}", s.threads);
            println!(
                "demand:                {} ({} flows, {:.1} offered)",
                s.demand, s.flows, s.offered
            );
            if s.failed.is_empty() {
                println!("failed links:          0");
            } else {
                println!("failed links:          {} ({})", s.failed.len(), s.failed.join(", "));
            }
            println!("coverage:              {:.6}", s.gauges.coverage);
            println!("weighted coverage:     {:.6}", s.gauges.weighted_coverage);
            println!("demand lost:           {:.4}%", 100.0 * s.gauges.demand_lost_fraction);
            println!("max link utilisation:  {:.4}", s.gauges.max_link_utilisation);
            let c = &s.counters;
            println!(
                "events applied:        {} ({} down, {} up, {} demand)",
                c.events, c.link_down, c.link_up, c.demand_updates
            );
            println!("queries answered:      {}", c.queries);
            println!(
                "repairs:               {} incremental, {} full rebuilds",
                c.repairs, c.full_rebuilds
            );
        }
        Response::Error { .. } => unreachable!("handled above"),
    }
    Ok(())
}
