//! The `pr` subcommands.

use pr_core::{generous_ttl, trace_packet, DiscriminatorKind, PrMode, PrNetwork, TraceOutcome};
use pr_embedding::{heuristics, CellularEmbedding, RotationSystem};
use pr_graph::{algo, Graph, LinkSet, NodeId, SpTree};
use pr_scenarios::{
    ExhaustiveKFailures, FlapSweep, Impaired, ImpairmentProcess, NodeFailures, OutageParams,
    OutageSweep, SampledMultiFailures, ScenarioFamily, SingleLinkFailures, SrlgFailures,
    TemporalFamily,
};
use pr_traffic::FlowSet;

use crate::args::Args;

/// Top-level usage text.
pub const USAGE: &str = "\
pr — Packet Re-cycling toolbox (HotNets-IX 2010 reproduction)

USAGE:
    pr info    <topology>
    pr gen     <family> --nodes N [--seed N] [--out file.topo]
    pr embed   <topology> [--seed N] [--restarts N] [--iterations N]
    pr tables  <topology> <node> [--seed N]
    pr walk    <topology> <src> <dst> [--fail A-B]... [--mode basic|dd] [--seed N]
    pr stretch <topology> [--failures K] [--samples N] [--seed N] [--threads N]
    pr sweep   <topology> --family <single|multi|node|srlg|exhaustive|outage|flap>
               [--k N] [--samples N] [--radius KM] [--holddown-ms N]
               [--seed N] [--threads N] [--stats] [--format csv|json]
               [--shards N] [--resume] [--max-shards N]
    pr traffic <topology> [--model gravity|uniform|hotspot] [--flows N]
               [--family <single|multi|node|srlg|exhaustive> | --fail A-B...]
               [--k N] [--samples N] [--radius KM] [--hotspots N] [--boost X]
               [--seed N] [--threads N] [--format csv|json]
    pr impair  <topology> [--process gilbert|storm|maintenance|jitter]...
               [--model gravity|uniform|hotspot] [--rate R] [--burst MS]
               [--storms N] [--radius KM] [--window-ms N] [--links N]
               [--jitter-ms N] [--flows N] [--hotspots N] [--boost X]
               [--seed N] [--threads N] [--format csv|json]
    pr daemon  start|run <topology> [--model <...>] [--flows N] [--threads N]
               [--port N] [--metrics-port N] [--addr-file PATH] [--log PATH]
    pr daemon  stop|status|metrics [--addr-file PATH]
    pr ctl     link-down A-B | link-up A-B | snapshot | shutdown
               | set-demand <model> [--flows N] [--hotspots N] [--boost X] [--seed N]
               | query coverage|stretch|traffic
               [--addr-file PATH] [--format json]

FAMILIES (pr sweep / pr traffic):
    single      every single-link failure (streamed exhaustively)
    multi       sampled k-link failure sets (--k, --samples; deduplicated)
    node        every node failure (all incident links)
    srlg        geographically-correlated failures around each PoP (--radius km)
    exhaustive  every k-subset of links, streamed by unranking (--k)
    outage      timed outage of each link through the packet simulator (sweep only)
    flap        timed flap trace on each link (--holddown-ms; sweep only)

TRAFFIC MODELS (pr traffic / pr impair):
    gravity     PoP-mass x PoP-mass / distance demand from the shipped coordinates
    uniform     unit demand on every ordered pair (weighted == unweighted)
    hotspot     seeded hot-PoP skew (--hotspots, --boost)

IMPAIRMENT PROCESSES (pr impair; repeat --process to stack decorators):
    gilbert     Gilbert-Elliott per-link up/down process (--rate /s, --burst ms)
    storm       geo-correlated flap storms around seeded epicentres
                (--storms, --radius km, --burst ms)
    maintenance scheduled windows taking seeded link picks down (--window-ms, --links)
    jitter      per-scenario detection-latency jitter (--jitter-ms)

SYNTHETIC FAMILIES (pr gen / synth: specs):
    isp | mesh  jittered gridded-PoP mesh with seeded diagonals (planar, 2-edge-connected)
    tier | hier two-tier core ring + regional trees with redundancy links

DAEMON (resident network twin, pr-daemon):
    start spawns a detached `daemon run` and waits for the addr file;
    run serves in the foreground. Ports default to 0 (ephemeral) —
    clients discover the live addresses through --addr-file (default
    results/daemon.addr). --log PATH appends mutating events for
    bit-identical replay on restart. pr ctl speaks the line-delimited
    JSON control protocol; pr daemon metrics scrapes the Prometheus
    /metrics page.

Family-specific flags are rejected under any other family.
`pr traffic --fail A-B` (repeatable) replays one explicit scenario —
the batch twin of the daemon's link-down state.
--format csv|json writes machine-readable rows under results/.
--shards N splits a topological sweep into checkpointable chunks under
results/<sweep>/; --resume (requires --format) continues a killed run
from its manifest, bit-identically; --max-shards N stops early after N
fresh shards (checkpoint stays resumable).

TOPOLOGY:
    abilene | teleglobe | geant | figure1
    | synth:<family>:<nodes>[:<seed>]    (e.g. synth:isp-1000, seed defaults to 2010)
    | path/to/file.topo";

type CmdResult = Result<(), Box<dyn std::error::Error>>;

/// Loads a topology by name or `.topo` file path. `figure1` comes with
/// its canonical rotation; other topologies get `None`.
fn load_topology(
    spec: &str,
) -> Result<(Graph, Option<RotationSystem>), Box<dyn std::error::Error>> {
    match spec {
        "abilene" => Ok((
            pr_topologies::load(pr_topologies::Isp::Abilene, pr_topologies::Weighting::Distance),
            None,
        )),
        "teleglobe" => Ok((
            pr_topologies::load(pr_topologies::Isp::Teleglobe, pr_topologies::Weighting::Distance),
            None,
        )),
        "geant" => Ok((
            pr_topologies::load(pr_topologies::Isp::Geant, pr_topologies::Weighting::Distance),
            None,
        )),
        "figure1" => {
            let (g, orders) = pr_topologies::figure1();
            let rot = RotationSystem::from_neighbor_orders(&g, &orders)?;
            Ok((g, Some(rot)))
        }
        synth if synth.starts_with("synth:") || synth.starts_with("synth-") => {
            Ok((pr_graph::generators::synth_from_spec(&synth["synth:".len()..])?, None))
        }
        path => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read topology file {path:?}: {e}"))?;
            Ok((pr_graph::parser::parse(&text)?, None))
        }
    }
}

/// Resolves an embedding: the canonical one when the topology ships
/// one, otherwise the thorough search.
fn resolve_embedding(
    graph: &Graph,
    canonical: Option<RotationSystem>,
    args: &Args,
) -> Result<CellularEmbedding, Box<dyn std::error::Error>> {
    let rot = match canonical {
        Some(rot) => rot,
        None => {
            let seed = args.option_or("seed", 2010u64)?;
            let restarts = args.option_or("restarts", 8u64)?;
            let iterations = args.option_or("iterations", 60_000usize)?;
            heuristics::thorough(graph, seed, restarts, iterations)
        }
    };
    Ok(CellularEmbedding::new(graph, rot)?)
}

fn node_by_name(graph: &Graph, name: &str) -> Result<NodeId, String> {
    graph.node_by_name(name).ok_or_else(|| {
        let known: Vec<&str> = graph.nodes().map(|n| graph.node_name(n)).collect();
        format!("unknown node {name:?}; nodes: {}", known.join(", "))
    })
}

/// The family-specific options and the families each applies to.
/// Anything else given alongside a family it does not belong to is a
/// hard error — a silently ignored `--radius` is how benchmark numbers
/// go wrong.
const FAMILY_OPTIONS: &[(&str, &[&str])] = &[
    ("k", &["multi", "exhaustive"]),
    ("samples", &["multi"]),
    ("radius", &["srlg"]),
    ("holddown-ms", &["flap"]),
];

/// Rejects family-specific options used with the wrong `--family`.
fn check_family_options(args: &Args, family: &str) -> Result<(), String> {
    for (opt, families) in FAMILY_OPTIONS {
        if args.option(opt).is_some() && !families.contains(&family) {
            return Err(format!(
                "option --{opt} does not apply to --family {family} (it belongs to --family {})",
                families.join("|")
            ));
        }
    }
    Ok(())
}

/// The process-specific options of `pr impair` and the impairment
/// processes each belongs to — same contract as [`FAMILY_OPTIONS`]:
/// a knob given alongside processes it does not tune is a hard error.
const PROCESS_OPTIONS: &[(&str, &[&str])] = &[
    ("rate", &["gilbert"]),
    ("burst", &["gilbert", "storm"]),
    ("storms", &["storm"]),
    ("radius", &["storm"]),
    ("window-ms", &["maintenance"]),
    ("links", &["maintenance"]),
    ("jitter-ms", &["jitter"]),
];

/// Rejects process-specific options none of the stacked `--process`
/// selections uses.
fn check_process_options(args: &Args, processes: &[&str]) -> Result<(), String> {
    for (opt, owners) in PROCESS_OPTIONS {
        if args.option(opt).is_some() && !processes.iter().any(|p| owners.contains(p)) {
            return Err(format!(
                "option --{opt} does not apply to --process {} (it belongs to --process {})",
                processes.join("+"),
                owners.join("|")
            ));
        }
    }
    Ok(())
}

/// Machine-readable output format selected by `--format`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OutputFormat {
    /// Comma-separated rows.
    Csv,
    /// Pretty-printed JSON.
    Json,
}

/// Parses `--format csv|json` (absent = human-readable stdout only).
fn parse_format(args: &Args) -> Result<Option<OutputFormat>, String> {
    match args.option("format") {
        None => Ok(None),
        Some("csv") => Ok(Some(OutputFormat::Csv)),
        Some("json") => Ok(Some(OutputFormat::Json)),
        Some(other) => Err(format!("--format wants csv|json, got {other:?}")),
    }
}

/// File-name slug for a topology spec (paths lose their separators).
fn topology_slug(spec: &str) -> String {
    spec.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '-' }).collect()
}

/// Appends each of `opts` that was explicitly given to a results-file
/// stem (`_k3_samples50`), so differently-parameterised runs of the
/// same family land in different files instead of silently clobbering
/// each other.
fn stem_params(args: &Args, opts: &[&str]) -> String {
    let mut out = String::new();
    for opt in opts {
        if let Some(value) = args.option(opt) {
            out.push('_');
            out.extend(opt.chars().filter(|c| c.is_ascii_alphanumeric()));
            out.push_str(&topology_slug(value));
        }
    }
    out
}

/// Writes a `--format` artefact under `results/` and echoes its path.
fn emit(
    format: OutputFormat,
    stem: &str,
    csv: impl FnOnce() -> String,
    json: impl FnOnce() -> String,
) {
    match format {
        OutputFormat::Csv => pr_bench::write_result(&format!("{stem}.csv"), &csv()),
        OutputFormat::Json => pr_bench::write_result(&format!("{stem}.json"), &json()),
    };
}

/// Builds a topological scenario family by name (shared by `pr sweep`
/// and `pr traffic`). Family-specific flags must already have been
/// validated via [`check_family_options`].
fn topological_family<'a>(
    graph: &'a Graph,
    name: &str,
    seed: u64,
    args: &Args,
) -> Result<Box<dyn ScenarioFamily + 'a>, Box<dyn std::error::Error>> {
    Ok(match name {
        "single" => Box::new(SingleLinkFailures::new(graph)),
        "node" => Box::new(NodeFailures::new(graph)),
        "multi" => {
            let k: usize = args.option_or("k", 2)?;
            let samples: usize = args.option_or("samples", 100)?;
            let fam = SampledMultiFailures::new(graph, k, samples, seed);
            if fam.len() < samples {
                println!("note: only {} distinct scenarios exist (asked for {samples})", fam.len());
            }
            if !fam.all_draws_complete() {
                println!("note: the graph cannot lose {k} links; draws fell short");
            }
            Box::new(fam)
        }
        "srlg" => {
            if !graph.fully_located() {
                return Err("srlg needs PoP coordinates on every node \
                            (use a shipped ISP topology)"
                    .into());
            }
            let radius: f64 = args.option_or("radius", 500.0)?;
            Box::new(SrlgFailures::new(graph, radius))
        }
        "exhaustive" => {
            let k: usize = args.option_or("k", 2)?;
            Box::new(ExhaustiveKFailures::new(graph, k))
        }
        other => {
            return Err(format!(
                "--family wants single|multi|node|srlg|exhaustive|outage|flap, got {other:?}"
            )
            .into())
        }
    })
}

/// Parses repeatable `--fail A-B` options into a LinkSet.
fn parse_failures(graph: &Graph, args: &Args) -> Result<LinkSet, String> {
    let mut failed = LinkSet::empty(graph.link_count());
    for spec in args.options("fail") {
        let (a, b) =
            spec.split_once('-').ok_or_else(|| format!("--fail wants A-B, got {spec:?}"))?;
        let (na, nb) = (node_by_name(graph, a)?, node_by_name(graph, b)?);
        let link = graph.find_link(na, nb).ok_or_else(|| format!("no link between {a} and {b}"))?;
        failed.insert(link);
    }
    Ok(failed)
}

/// The embedding-search options every command that resolves an
/// embedding accepts (see [`resolve_embedding`]).
const EMBED_OPTIONS: [&str; 3] = ["seed", "restarts", "iterations"];

/// `pr info <topology>`.
pub fn info(args: &Args) -> CmdResult {
    args.reject_unknown(&[])?;
    let (graph, _) = load_topology(args.positional(0, "topology")?)?;
    let none = LinkSet::empty(graph.link_count());
    println!("nodes:              {}", graph.node_count());
    println!("links:              {}", graph.link_count());
    println!("connected:          {}", algo::is_connected(&graph, &none));
    println!("2-edge-connected:   {}", algo::is_two_edge_connected(&graph, &none));
    println!("biconnected:        {}", algo::is_biconnected(&graph, &none));
    println!("hop diameter:       {}", algo::hop_diameter(&graph));
    let cuts = algo::cut_analysis(&graph, &none);
    println!("bridges:            {}", cuts.bridges.len());
    println!("articulation pts:   {}", cuts.articulation_points.len());
    let degrees: Vec<usize> = graph.nodes().map(|n| graph.degree(n)).collect();
    println!(
        "degree min/avg/max: {}/{:.2}/{}",
        degrees.iter().min().unwrap_or(&0),
        degrees.iter().sum::<usize>() as f64 / degrees.len().max(1) as f64,
        degrees.iter().max().unwrap_or(&0)
    );
    Ok(())
}

/// `pr gen <family> --nodes N [--seed N] [--out file.topo]`.
///
/// Generates a seeded synthetic topology (same generators the
/// `synth:` specs use) and optionally writes it in the shipped
/// `.topo` plain-text format, so generated graphs feed back into
/// every command that takes a file path.
pub fn gen(args: &Args) -> CmdResult {
    args.reject_unknown(&["nodes", "seed", "out"])?;
    let family = args.positional(0, "family")?;
    let nodes = match args.option("nodes") {
        Some(_) => args.option_or("nodes", 0usize)?,
        None => {
            return Err(format!(
                "--nodes is required (e.g. pr gen {family} --nodes 200); families: {}",
                pr_graph::generators::SYNTH_FAMILIES.join("|")
            )
            .into())
        }
    };
    let seed: u64 = args.option_or("seed", 2010)?;
    let graph = pr_graph::generators::synth_from_spec(&format!("{family}:{nodes}:{seed}"))?;
    let none = LinkSet::empty(graph.link_count());
    println!("family:            {family} (seed {seed})");
    println!("nodes:             {}", graph.node_count());
    println!("links:             {}", graph.link_count());
    println!("2-edge-connected:  {}", algo::is_two_edge_connected(&graph, &none));
    println!("fingerprint:       {:#018x}", graph.fingerprint());
    if let Some(path) = args.option("out") {
        std::fs::write(path, pr_graph::parser::write(&graph))
            .map_err(|e| format!("cannot write {path:?}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

/// `pr embed <topology>`.
pub fn embed(args: &Args) -> CmdResult {
    args.reject_unknown(&EMBED_OPTIONS)?;
    let (graph, canonical) = load_topology(args.positional(0, "topology")?)?;
    let emb = resolve_embedding(&graph, canonical, args)?;
    println!("genus:     {}", emb.genus());
    println!("faces:     {}", emb.faces().face_count());
    println!("max face:  {} darts", emb.faces().max_face_size());
    println!(
        "planar:    {}",
        if emb.genus() == 0 {
            "yes (delivery guarantee applies)"
        } else {
            "no (see DESIGN.md findings)"
        }
    );
    println!("\ncycle system:");
    for (f, boundary) in emb.faces().iter() {
        if boundary.len() <= 16 {
            println!("  {}", emb.faces().display_face(&graph, f));
        } else {
            println!("  {f}: ({} darts)", boundary.len());
        }
    }
    Ok(())
}

/// `pr tables <topology> <node>`.
pub fn tables(args: &Args) -> CmdResult {
    args.reject_unknown(&EMBED_OPTIONS)?;
    let (graph, canonical) = load_topology(args.positional(0, "topology")?)?;
    let node = node_by_name(&graph, args.positional(1, "node")?)?;
    let emb = resolve_embedding(&graph, canonical, args)?;
    let net =
        PrNetwork::compile(&graph, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
    print!("{}", net.cycle_table().display_at(&graph, net.embedding(), node));
    println!("\nrouting table extract (destination, next hop, DD[hops]):");
    for dest in graph.nodes() {
        if dest == node {
            continue;
        }
        let next = net
            .routing()
            .next_dart(node, dest)
            .map(|d| graph.node_name(graph.dart_head(d)).to_string())
            .unwrap_or_else(|| "-".into());
        println!("  {:<14} via {:<14} dd={}", graph.node_name(dest), next, net.dd(node, dest));
    }
    println!(
        "\nheader: {} bits total (PR + {} DD bits), DSCP pool 2: {}",
        net.codec().total_bits(),
        net.codec().dd_bits(),
        if net.codec().fits_in_dscp_pool2() { "fits" } else { "does not fit" }
    );
    Ok(())
}

/// `pr walk <topology> <src> <dst> [--fail A-B]... [--mode basic|dd]`.
pub fn walk(args: &Args) -> CmdResult {
    args.reject_unknown(&["fail", "mode", "seed", "restarts", "iterations"])?;
    let (graph, canonical) = load_topology(args.positional(0, "topology")?)?;
    let src = node_by_name(&graph, args.positional(1, "src")?)?;
    let dst = node_by_name(&graph, args.positional(2, "dst")?)?;
    let failed = parse_failures(&graph, args)?;
    let mode = match args.option("mode").unwrap_or("dd") {
        "basic" => PrMode::Basic,
        "dd" => PrMode::DistanceDiscriminator,
        other => return Err(format!("--mode wants basic|dd, got {other:?}").into()),
    };
    let emb = resolve_embedding(&graph, canonical, args)?;
    let net = PrNetwork::compile(&graph, emb, mode, DiscriminatorKind::Hops);
    let trace = trace_packet(&graph, &net, src, dst, &failed, generous_ttl(&graph));
    print!("{}", trace.render(&graph));
    if trace.outcome == TraceOutcome::Delivered {
        let optimal = SpTree::towards_all_live(&graph, dst).cost(src).unwrap_or(0);
        let taken: u64 = trace.darts().iter().map(|d| u64::from(graph.weight(d.link()))).sum();
        if optimal > 0 {
            println!(
                "stretch: {:.3} ({} vs optimal {})",
                taken as f64 / optimal as f64,
                taken,
                optimal
            );
        }
    }
    Ok(())
}

/// `pr stretch <topology> [--failures K] [--samples N] [--threads N]`.
///
/// Routes through the `pr-bench` scenario-sweep engine: the sweep is
/// decomposed into (scenario × destination) work units and fanned out
/// over `--threads` workers (default: all cores), with output
/// bit-identical to the single-threaded run.
pub fn stretch(args: &Args) -> CmdResult {
    args.reject_unknown(&["failures", "samples", "seed", "threads", "restarts", "iterations"])?;
    let (graph, canonical) = load_topology(args.positional(0, "topology")?)?;
    let failures: usize = args.option_or("failures", 1)?;
    let samples: usize = args.option_or("samples", 100)?;
    let seed: u64 = args.option_or("seed", 2010)?;
    let threads: usize = args.option_or("threads", pr_bench::engine::default_threads())?;
    let emb = resolve_embedding(&graph, canonical, args)?;
    println!("embedding genus {}", emb.genus());
    let net =
        PrNetwork::compile(&graph, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);

    // Build the scenario family: exhaustive singles (streamed),
    // sampled multis (deduplicated).
    let family: Box<dyn ScenarioFamily + '_> = if failures <= 1 {
        Box::new(SingleLinkFailures::new(&graph))
    } else {
        Box::new(SampledMultiFailures::new(&graph, failures, samples, seed))
    };

    let s = pr_bench::stretch::run(&graph, &net, family.as_ref(), threads.max(1));
    println!(
        "affected pairs: {} ({} scenarios, {} failures each, {} threads), undelivered: {}",
        s.evaluated_pairs,
        family.len(),
        failures,
        threads.max(1),
        s.undelivered
    );
    print_mean_stretch(s.mean());
    for x in [1.0, 2.0, 3.0, 5.0, 10.0, 15.0] {
        let p = |v: &[f64]| v.iter().filter(|&&s| s > x).count() as f64 / v.len().max(1) as f64;
        println!(
            "P(stretch>{x:>4}): {:>12.4}  {:>8.4}  {:>8.4}",
            p(&s.reconvergence),
            p(&s.fcp),
            p(&s.packet_recycling)
        );
    }
    Ok(())
}

/// The mean-stretch line of `pr stretch` and `pr sweep`, sharded or
/// not ([`pr_bench::stretch::Scheme::ALL`] order). A scheme without a
/// sample prints `NaN`, as the JSON report says `null`.
fn print_mean_stretch(mean: [f64; 3]) {
    println!(
        "mean stretch:  reconvergence {:.3}  fcp {:.3}  packet-recycling {:.3}",
        mean[0], mean[1], mean[2]
    );
}

/// The sharded, checkpointable variant of a topological `pr sweep`:
/// splits the scenario range into `--shards` chunks (default 8),
/// persists each finished chunk under `results/<stem>/`, and on
/// completion merges the per-scenario rows into the CSV/JSON artefact
/// — bit-identical at any thread or shard count, resumable after a
/// kill with `--resume`.
#[allow(clippy::too_many_arguments)]
fn run_sharded_sweep(
    graph: &Graph,
    net: &PrNetwork,
    family: &dyn ScenarioFamily,
    threads: usize,
    seed: u64,
    stem: &str,
    format: Option<OutputFormat>,
    resume: bool,
    args: &Args,
) -> CmdResult {
    use pr_bench::shards::{ShardKey, ShardOutcome};

    let shards = args.option_or("shards", 8usize)?.clamp(1, family.len().max(1));
    let stop_after = match args.option("max-shards") {
        None => None,
        Some(_) => Some(args.option_or("max-shards", 0usize)?),
    };
    let dir = pr_bench::results_dir().join(stem);
    let key = ShardKey {
        topology: graph.fingerprint(),
        nodes: graph.node_count() as u64,
        links: graph.link_count() as u64,
        family: family.label(),
        seed,
        scenarios: family.len() as u64,
        shards: shards as u64,
    };
    let outcome =
        pr_bench::engine::run_shards(&dir, &key, resume, stop_after, |shard, start, len| {
            println!("  shard {}/{shards}: scenarios [{start}..{})", shard + 1, start + len);
            let slice = pr_scenarios::ScenarioSlice::new(family, start, len);
            pr_bench::stretch::run_rows(graph, net, &slice, threads, start)
        })?;
    match outcome {
        ShardOutcome::Partial { completed, total } => {
            println!(
                "checkpoint: {completed}/{total} shards complete under {}; \
                 rerun with --resume to continue",
                dir.display()
            );
        }
        ShardOutcome::Complete(rows) => {
            let xs = pr_bench::stretch::figure2_xs();
            let report = pr_bench::stretch::report_from_rows(&rows, &xs);
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
            if let Some(format) = format {
                emit(
                    format,
                    stem,
                    || pr_bench::stretch::panel_csv_from_rows(&rows, &xs),
                    || serde_json::to_string_pretty(&report).expect("serializable report"),
                );
            }
        }
    }
    Ok(())
}

/// `pr sweep <topology> --family <...>`.
///
/// One front door to the scenario subsystem: picks a failure family
/// (topological or temporal), fans it over the `pr-bench` work-unit
/// engine on `--threads` workers, and prints a per-scheme summary.
/// Topological families run the walker-based stretch/delivery sweep;
/// temporal families replay each timed scenario through the
/// discrete-event simulator under PR and a reconverging IGP.
pub fn sweep(args: &Args) -> CmdResult {
    args.reject_unknown(&[
        "family",
        "k",
        "samples",
        "radius",
        "holddown-ms",
        "seed",
        "threads",
        "format",
        "restarts",
        "iterations",
        "stats",
        "shards",
        "resume",
        "max-shards",
    ])?;
    let topo_spec = args.positional(0, "topology")?.to_string();
    let (graph, canonical) = load_topology(&topo_spec)?;
    let family_name = args.option("family").unwrap_or("single");
    check_family_options(args, family_name)?;
    let format = parse_format(args)?;
    let threads = args.option_or("threads", pr_bench::engine::default_threads())?.max(1);
    let seed: u64 = args.option_or("seed", 2010)?;

    // Sharded, checkpointable mode: any of the shard flags selects it.
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
    let emb = resolve_embedding(&graph, canonical, args)?;
    println!("embedding genus {}", emb.genus());
    let net =
        PrNetwork::compile(&graph, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
    let stem = format!(
        "sweep_{}_{family_name}{}",
        topology_slug(&topo_spec),
        stem_params(args, &["k", "samples", "radius", "holddown-ms", "seed"])
    );

    match family_name {
        "outage" | "flap" => {
            let params = OutageParams::default();
            let family: Box<dyn TemporalFamily + '_> = match family_name {
                "outage" => Box::new(OutageSweep::new(&graph, params)),
                _ => {
                    let holddown_ms: u64 = args.option_or("holddown-ms", 50)?;
                    Box::new(FlapSweep::new(&graph, params).with_holddown(holddown_ms * 1_000_000))
                }
            };
            let config = pr_sim::SimConfig::default();
            let rows =
                pr_bench::temporal::run(&graph, &net, family.as_ref(), &config, seed, threads);
            let s = pr_bench::temporal::summarize(&rows);
            println!(
                "family {} ({} timed scenarios, {} threads)",
                family.label(),
                s.scenarios,
                threads
            );
            println!("scheme              injected   delivered   lost   delivery");
            for (scheme, delivered, dropped) in [
                ("packet-recycling", s.pr_delivered, s.pr_dropped),
                ("reconvergence", s.igp_delivered, s.igp_dropped),
            ] {
                println!(
                    "{scheme:<18} {:>9}  {:>9}  {:>6}  {:>8.4}",
                    s.injected,
                    delivered,
                    dropped,
                    delivered as f64 / s.injected.max(1) as f64
                );
            }
            if let Some(worst) = rows.iter().max_by_key(|r| r.pr.total_dropped()) {
                println!(
                    "worst PR scenario: {} ({} lost of {})",
                    worst.label,
                    worst.pr.total_dropped(),
                    worst.pr.injected
                );
            }
            if let Some(format) = format {
                emit(
                    format,
                    &stem,
                    || pr_bench::temporal::rows_csv(&rows),
                    || serde_json::to_string_pretty(&rows).expect("serializable rows"),
                );
            }
        }
        topological => {
            let family = topological_family(&graph, topological, seed, args)?;
            println!(
                "family {} ({} scenarios, streamed, {} threads)",
                family.label(),
                family.len(),
                threads
            );
            if sharded {
                return run_sharded_sweep(
                    &graph,
                    &net,
                    family.as_ref(),
                    threads,
                    seed,
                    &stem,
                    format,
                    resume,
                    args,
                );
            }
            let (s, stats) =
                pr_bench::stretch::run_with_stats(&graph, &net, family.as_ref(), threads);
            println!(
                "affected connected pairs: {}, disconnected (excluded): {}, \
                 undelivered: {} (fcp {}, packet-recycling {})",
                s.evaluated_pairs,
                s.disconnected_pairs,
                s.undelivered,
                s.undelivered_fcp,
                s.undelivered_pr
            );
            print_mean_stretch(s.mean());
            if args.flag("stats") {
                let repair = &stats.repair;
                println!(
                    "spt repair:    {} repairs, cone {:.1}% of nodes (hit rate {:.1}%), \
                     {} full rebuilds",
                    repair.repairs,
                    100.0 * repair.cone_fraction(),
                    100.0 * repair.hit_rate(),
                    repair.full_rebuilds
                );
                let memo = &stats.memo;
                println!(
                    "walk memo:     hit rate {:.1}% ({} splices / {} lookups), \
                     spliced steps {:.1}% of walk work",
                    100.0 * memo.hit_rate(),
                    memo.hits,
                    memo.lookups,
                    100.0 * memo.spliced_share()
                );
            }
            if let Some(format) = format {
                emit(
                    format,
                    &stem,
                    || pr_bench::stretch::panel_csv(&s, &pr_bench::stretch::figure2_xs()),
                    || serde_json::to_string_pretty(&s).expect("serializable samples"),
                );
            }
        }
    }
    Ok(())
}

/// The demand specification the `--model/--flows/--hotspots/--boost`
/// flags describe, for `pr traffic`, `pr impair` and `pr daemon run`.
fn demand_spec(
    args: &Args,
    model_name: &str,
    seed: u64,
) -> Result<pr_daemon::DemandSpec, Box<dyn std::error::Error>> {
    let mut spec = pr_daemon::DemandSpec::named(model_name);
    spec.flows = args.option_or("flows", 0usize)?;
    spec.hotspots = optional(args, "hotspots")?;
    spec.boost = args.option_or("boost", spec.boost)?;
    spec.seed = seed;
    Ok(spec)
}

/// Builds the demand workload shared by `pr traffic` and `pr impair`:
/// the `--model` matrix, then the whole matrix or `--flows N` flows
/// sampled proportionally to demand ([`pr_daemon::DemandSpec::build`],
/// the daemon's builder). What is the command line's own stays here:
/// model-specific knobs given with the wrong `--model` and an explicit
/// `--flows 0` are hard errors.
fn build_flow_set(
    graph: &Graph,
    model_name: &str,
    seed: u64,
    args: &Args,
) -> Result<FlowSet, Box<dyn std::error::Error>> {
    for opt in ["hotspots", "boost"] {
        if args.option(opt).is_some() && model_name != "hotspot" {
            return Err(format!(
                "option --{opt} does not apply to --model {model_name} \
                 (it belongs to --model hotspot)"
            )
            .into());
        }
    }
    let spec = demand_spec(args, model_name, seed)?;
    if spec.flows == 0 && args.option("flows").is_some() {
        return Err("--flows wants a positive sample count \
                    (omit it to replay the full matrix)"
            .into());
    }
    Ok(spec.build(graph)?)
}

/// `pr traffic <topology> [--model gravity|uniform|hotspot] [--flows N]
/// [--family <...>] [--threads N] [--format csv|json]`.
///
/// The traffic-weighted front door: builds a demand matrix, compiles a
/// flow set (the whole matrix, or `--flows N` sampled proportionally
/// to demand), and replays it through every scenario of a topological
/// failure family on the replay dataplane — reporting weighted
/// coverage, % demand lost, and max-link-utilisation under failure.
pub fn traffic(args: &Args) -> CmdResult {
    args.reject_unknown(&[
        "family",
        "fail",
        "k",
        "samples",
        "radius",
        "model",
        "flows",
        "hotspots",
        "boost",
        "seed",
        "threads",
        "format",
        "restarts",
        "iterations",
    ])?;
    let topo_spec = args.positional(0, "topology")?.to_string();
    let (graph, canonical) = load_topology(&topo_spec)?;
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
    check_family_options(args, family_name)?;
    let model_name = args.option("model").unwrap_or("gravity");
    let format = parse_format(args)?;
    let threads = args.option_or("threads", pr_bench::engine::default_threads())?.max(1);
    let seed: u64 = args.option_or("seed", 2010)?;

    let flows = build_flow_set(&graph, model_name, seed, args)?;

    let emb = resolve_embedding(&graph, canonical, args)?;
    println!("embedding genus {}", emb.genus());
    let net =
        PrNetwork::compile(&graph, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
    let family: Box<dyn ScenarioFamily + '_> = if explicit {
        Box::new(vec![parse_failures(&graph, args)?])
    } else {
        topological_family(&graph, family_name, seed, args)?
    };
    println!(
        "model {} ({} flows, {:.1} demand offered); family {} ({} scenarios, {} threads)",
        flows.label(),
        flows.len(),
        flows.offered(),
        family.label(),
        family.len(),
        threads
    );

    let rows = pr_bench::traffic::run(&graph, &net, family.as_ref(), &flows, threads);
    let s = pr_bench::traffic::summarize(&rows);
    println!(
        "weighted coverage:     {:.6} (delivered share of affected, connected demand)",
        s.weighted_coverage()
    );
    println!(
        "demand lost:           {:.4}% ({:.1} of {:.1} per-scenario demand units)",
        100.0 * s.demand_lost_fraction(),
        s.tally.lost(),
        s.tally.offered
    );
    print!("max link utilisation:  {:.4}", s.max_link_utilisation);
    match s.peak_scenario.and_then(|i| rows[i].traffic.peak_link.map(|l| (i, l))) {
        Some((scenario, link)) => {
            let (a, b) = graph.endpoints(link);
            println!(" (scenario {scenario}, link {}-{})", graph.node_name(a), graph.node_name(b));
        }
        None => println!(),
    }
    if let Some(stretch) = s.tally.mean_weighted_stretch() {
        println!("mean weighted stretch: {stretch:.4} (over delivered affected demand)");
    }
    if let Some(format) = format {
        emit(
            format,
            &format!(
                "traffic_{}_{model_name}_{family_name}{}",
                topology_slug(&topo_spec),
                stem_params(
                    args,
                    &["k", "samples", "radius", "fail", "flows", "hotspots", "boost", "seed"]
                )
            ),
            || pr_bench::traffic::rows_csv(&rows),
            || serde_json::to_string_pretty(&rows).expect("serializable rows"),
        );
    }
    Ok(())
}

/// `pr impair <topology> [--process gilbert|storm|maintenance|jitter]...
/// [--model gravity|uniform|hotspot] [--format csv|json]`.
///
/// The stochastic-impairment front door: wraps the outage sweep in one
/// seeded [`ImpairmentProcess`] per `--process` (repeats stack, outer
/// last), replays the `--model` demand through every impaired timeline,
/// and reports demand-weighted loss-over-time for PR versus a
/// reconverging IGP — with the full per-interval curve behind
/// `--format`.
pub fn impair(args: &Args) -> CmdResult {
    args.reject_unknown(&[
        "process",
        "model",
        "rate",
        "burst",
        "storms",
        "radius",
        "window-ms",
        "links",
        "jitter-ms",
        "flows",
        "hotspots",
        "boost",
        "seed",
        "threads",
        "format",
        "restarts",
        "iterations",
    ])?;
    let topo_spec = args.positional(0, "topology")?.to_string();
    let (graph, canonical) = load_topology(&topo_spec)?;
    let processes: Vec<&str> = if args.options("process").is_empty() {
        vec!["gilbert"]
    } else {
        args.options("process").iter().map(String::as_str).collect()
    };
    check_process_options(args, &processes)?;
    let model_name = args.option("model").unwrap_or("gravity");
    let format = parse_format(args)?;
    let threads = args.option_or("threads", pr_bench::engine::default_threads())?.max(1);
    let seed: u64 = args.option_or("seed", 2010)?;

    let flows = build_flow_set(&graph, model_name, seed, args)?;

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
                    storms: args.option_or("storms", 1)?,
                    radius_km: radius,
                    down_for_ns: args.option_or("burst", 20u64)?.max(1) * 1_000_000,
                }
            }
            "maintenance" => ImpairmentProcess::Maintenance {
                window_ns: args.option_or("window-ms", 50u64)? * 1_000_000,
                links: args.option_or("links", 2)?,
            },
            "jitter" => ImpairmentProcess::DetectionJitter {
                max_extra_ns: args.option_or("jitter-ms", 5u64)? * 1_000_000,
            },
            other => {
                return Err(format!(
                    "--process wants gilbert|storm|maintenance|jitter, got {other:?}"
                )
                .into())
            }
        };
        family = Box::new(Impaired::new(&graph, family, process, seed));
    }

    let emb = resolve_embedding(&graph, canonical, args)?;
    println!("embedding genus {}", emb.genus());
    let net =
        PrNetwork::compile(&graph, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
    println!(
        "model {} ({} flows, {:.1} demand offered); family {} ({} timed scenarios, {} threads)",
        flows.label(),
        flows.len(),
        flows.offered(),
        family.label(),
        family.len(),
        threads
    );

    let rows = pr_bench::impair::run(&graph, &net, family.as_ref(), &flows, threads);
    let s = pr_bench::impair::summarize(&rows);
    println!("link events:           {} across {} timelines", s.events, s.scenarios);
    println!("offered demand:        {:.3} demand-seconds", s.offered_demand_seconds);
    println!(
        "demand-seconds lost:   packet-recycling {:.3}   reconvergence {:.3}",
        s.pr_demand_seconds_lost, s.igp_demand_seconds_lost
    );
    println!(
        "loss over time:        packet-recycling {:.6}   reconvergence {:.6}",
        s.pr_loss_over_time(),
        s.igp_loss_over_time()
    );
    match s.peak_scenario {
        Some(i) => println!(
            "peak PR loss:          {:.6} of offered demand (scenario {i})",
            s.peak_pr_loss_fraction
        ),
        None => println!("peak PR loss:          0 (no scenarios)"),
    }
    if let Some(format) = format {
        emit(
            format,
            &format!(
                "impair_{}_{}_{model_name}{}",
                topology_slug(&topo_spec),
                processes.join("-"),
                stem_params(
                    args,
                    &[
                        "rate",
                        "burst",
                        "storms",
                        "radius",
                        "window-ms",
                        "links",
                        "jitter-ms",
                        "flows",
                        "hotspots",
                        "boost",
                        "seed"
                    ]
                )
            ),
            || pr_bench::impair::rows_csv(&rows),
            || serde_json::to_string_pretty(&rows).expect("serializable rows"),
        );
    }
    Ok(())
}

/// The options `pr daemon start|run` accepts; `start` forwards every
/// one it was given to the spawned `daemon run` server verbatim.
const DAEMON_OPTIONS: &[&str] = &[
    "model",
    "flows",
    "hotspots",
    "boost",
    "seed",
    "threads",
    "port",
    "metrics-port",
    "addr-file",
    "log",
    "restarts",
    "iterations",
];

/// The addr file a daemon writes and clients read: `--addr-file PATH`,
/// defaulting to `results/daemon.addr`.
fn daemon_addr_file(args: &Args) -> std::path::PathBuf {
    match args.option("addr-file") {
        Some(path) => std::path::PathBuf::from(path),
        None => pr_bench::results_dir().join("daemon.addr"),
    }
}

/// An optional typed option (no default — `None` when absent).
fn optional<T: std::str::FromStr>(args: &Args, name: &str) -> Result<Option<T>, String> {
    match args.option(name) {
        None => Ok(None),
        Some(text) => {
            text.parse().map(Some).map_err(|_| format!("bad value {text:?} for --{name}"))
        }
    }
}

/// `pr daemon start|run|stop|status|metrics` — lifecycle of the
/// resident network twin (`pr-daemon`).
///
/// `run` serves in the foreground; `start` spawns `run` detached and
/// waits for the addr file; `stop`/`status` speak the control
/// protocol; `metrics` scrapes the Prometheus page (so CI needs no
/// curl). `--port 0` / `--metrics-port 0` (the default) bind ephemeral
/// ports — clients discover them through the addr file.
pub fn daemon(args: &Args) -> CmdResult {
    match args.positional(0, "action")? {
        "run" => daemon_run(args),
        "start" => daemon_start(args),
        "stop" => {
            args.reject_unknown(&["addr-file"])?;
            print_response(
                pr_daemon::request_via(&daemon_addr_file(args), &pr_daemon::Request::Shutdown)?,
                false,
            )
        }
        "status" => {
            args.reject_unknown(&["addr-file", "format"])?;
            let json = match args.option("format") {
                None => false,
                Some("json") => true,
                Some(other) => return Err(format!("--format wants json, got {other:?}").into()),
            };
            print_response(
                pr_daemon::request_via(&daemon_addr_file(args), &pr_daemon::Request::Snapshot)?,
                json,
            )
        }
        "metrics" => {
            args.reject_unknown(&["addr-file"])?;
            let addrs = pr_daemon::read_addr_file(&daemon_addr_file(args))?;
            print!("{}", pr_daemon::scrape_metrics(&addrs.metrics)?);
            Ok(())
        }
        other => Err(format!("daemon wants start|run|stop|status|metrics, got {other:?}").into()),
    }
}

/// `pr daemon run <topology>`: compile the twin and serve until a
/// `shutdown` request (foreground).
fn daemon_run(args: &Args) -> CmdResult {
    args.reject_unknown(DAEMON_OPTIONS)?;
    let topo_spec = args.positional(1, "topology")?.to_string();
    let (graph, canonical) = load_topology(&topo_spec)?;
    let threads = args.option_or("threads", pr_bench::engine::default_threads())?.max(1);
    let default_model = if graph.fully_located() { "gravity" } else { "uniform" };
    let spec = demand_spec(
        args,
        args.option("model").unwrap_or(default_model),
        args.option_or("seed", 2010)?,
    )?;
    let emb = resolve_embedding(&graph, canonical, args)?;
    println!("embedding genus {}", emb.genus());
    let net =
        PrNetwork::compile(&graph, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
    let twin = pr_daemon::Twin::new(graph, net, spec, threads)?;
    let config = pr_daemon::DaemonConfig {
        port: args.option_or("port", 0u16)?,
        metrics_port: args.option_or("metrics-port", 0u16)?,
        addr_file: daemon_addr_file(args),
        event_log: args.option("log").map(std::path::PathBuf::from),
    };
    pr_daemon::serve(twin, &config)?;
    Ok(())
}

/// `pr daemon start <topology>`: spawn `daemon run` detached, poll for
/// the addr file (watching for early death), and report the addresses.
fn daemon_start(args: &Args) -> CmdResult {
    args.reject_unknown(DAEMON_OPTIONS)?;
    let topo_spec = args.positional(1, "topology")?.to_string();
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
    cmd.arg("daemon").arg("run").arg(&topo_spec);
    cmd.arg("--addr-file").arg(&addr_file);
    for opt in DAEMON_OPTIONS {
        if *opt == "addr-file" {
            continue;
        }
        if let Some(value) = args.option(opt) {
            cmd.arg(format!("--{opt}")).arg(value);
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

/// `pr ctl <command>` — one-shot control-protocol client against the
/// daemon behind `--addr-file` (default `results/daemon.addr`).
pub fn ctl(args: &Args) -> CmdResult {
    use pr_daemon::{QueryKind, Request};
    args.reject_unknown(&["addr-file", "flows", "hotspots", "boost", "seed", "format"])?;
    let json = match args.option("format") {
        None => false,
        Some("json") => true,
        Some(other) => return Err(format!("--format wants json, got {other:?}").into()),
    };
    let req = match args.positional(0, "command")? {
        "link-down" => Request::LinkDown { link: args.positional(1, "link")?.to_string() },
        "link-up" => Request::LinkUp { link: args.positional(1, "link")?.to_string() },
        "set-demand" => Request::SetDemand {
            model: args.positional(1, "model")?.to_string(),
            flows: optional(args, "flows")?,
            hotspots: optional(args, "hotspots")?,
            boost: optional(args, "boost")?,
            seed: optional(args, "seed")?,
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
            println!("failed links:          {}", r.failed_links);
            println!(
                "weighted coverage:     {:.6} (delivered share of affected, connected demand)",
                r.traffic.tally.weighted_coverage()
            );
            println!(
                "demand lost:           {:.4}% ({:.1} of {:.1} demand units)",
                100.0 * r.traffic.tally.demand_lost_fraction(),
                r.traffic.tally.lost(),
                r.traffic.tally.offered
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
            println!(
                "demand lost:           {:.4}% ({:.1} of {:.1} demand units)",
                100.0 * r.demand_lost_fraction,
                r.tally.lost(),
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
                println!(
                    "{:<22} mean {:.4}   max {:.4}   ({} samples)",
                    format!("{}:", s.scheme),
                    s.mean,
                    s.max,
                    s.samples
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
            println!(
                "events applied:        {} ({} down, {} up, {} demand)",
                s.counters.events,
                s.counters.link_down,
                s.counters.link_up,
                s.counters.demand_updates
            );
            println!("queries answered:      {}", s.counters.queries);
            println!(
                "repairs:               {} incremental, {} full rebuilds",
                s.counters.repairs, s.counters.full_rebuilds
            );
        }
        Response::Error { .. } => unreachable!("handled above"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn load_named_topologies() {
        for name in ["abilene", "teleglobe", "geant", "figure1"] {
            let (g, rot) = load_topology(name).unwrap();
            assert!(g.node_count() > 0, "{name}");
            assert_eq!(rot.is_some(), name == "figure1");
        }
        assert!(load_topology("/nonexistent/file.topo").is_err());
    }

    #[test]
    fn load_synth_topology_specs() {
        let (g, rot) = load_topology("synth:isp:20:7").unwrap();
        assert_eq!(g.node_count(), 20);
        assert!(rot.is_none());
        // `-` works interchangeably with `:`; the seed defaults.
        let (g2, _) = load_topology("synth-isp-20-7").unwrap();
        assert_eq!(g.fingerprint(), g2.fingerprint(), "same spec, same bytes");
        let (tier, _) = load_topology("synth:tier:16").unwrap();
        assert_eq!(tier.node_count(), 16);
        // Bad specs fail loudly, not as file-not-found noise.
        let err = load_topology("synth:banana:20").unwrap_err().to_string();
        assert!(err.contains("isp"), "family list in the error: {err}");
        assert!(load_topology("synth:isp").is_err(), "missing node count");
    }

    #[test]
    fn gen_writes_a_loadable_topo_file() {
        let path = std::env::temp_dir().join(format!("pr-gen-test-{}.topo", std::process::id()));
        let path_str = path.to_str().unwrap();
        gen(&args(&format!("isp --nodes 20 --seed 7 --out {path_str}"))).unwrap();
        let (roundtrip, _) = load_topology(path_str).unwrap();
        let (direct, _) = load_topology("synth:isp:20:7").unwrap();
        assert_eq!(
            roundtrip.fingerprint(),
            direct.fingerprint(),
            "the .topo round-trip must preserve the generated graph bit for bit"
        );
        std::fs::remove_file(&path).unwrap();
        // Without --out it just reports; missing --nodes is an error.
        gen(&args("tier --nodes 12")).unwrap();
        let err = gen(&args("isp")).unwrap_err().to_string();
        assert!(err.contains("--nodes"), "{err}");
        assert!(gen(&args("isp --nodes 20 --shards 2")).is_err(), "unknown option");
    }

    #[test]
    fn parse_failures_by_name() {
        let (g, _) = load_topology("figure1").unwrap();
        let a = args("figure1 --fail D-E --fail B-C");
        let failed = parse_failures(&g, &a).unwrap();
        assert_eq!(failed.len(), 2);
        let bad = args("figure1 --fail D_E");
        assert!(parse_failures(&g, &bad).is_err());
        let missing = args("figure1 --fail A-E");
        assert!(parse_failures(&g, &missing).is_err(), "A-E is not a link of figure 1");
    }

    #[test]
    fn commands_run_on_figure1() {
        // Smoke-test every subcommand end to end on the small fixture.
        info(&args("figure1")).unwrap();
        embed(&args("figure1")).unwrap();
        tables(&args("figure1 D")).unwrap();
        walk(&args("figure1 A F --fail D-E --fail B-C")).unwrap();
        stretch(&args("figure1 --failures 1")).unwrap();
    }

    #[test]
    fn stretch_accepts_threads_and_multi_failures() {
        stretch(&args("figure1 --failures 2 --samples 3 --threads 2")).unwrap();
        stretch(&args("figure1 --failures 1 --threads 1")).unwrap();
    }

    #[test]
    fn sweep_runs_every_topological_family_on_figure1() {
        for family in ["single", "node"] {
            sweep(&args(&format!("figure1 --family {family} --threads 2"))).unwrap();
        }
        sweep(&args("figure1 --family exhaustive --k 2 --threads 2")).unwrap();
        sweep(&args("figure1 --family multi --k 2 --samples 3")).unwrap();
    }

    #[test]
    fn sweep_rejects_family_specific_flags_under_the_wrong_family() {
        // --k belongs to multi|exhaustive.
        let err = sweep(&args("figure1 --family single --k 2")).unwrap_err().to_string();
        assert!(err.contains("--k") && err.contains("multi|exhaustive"), "{err}");
        // --radius belongs to srlg.
        let err = sweep(&args("figure1 --family single --radius 500")).unwrap_err().to_string();
        assert!(err.contains("--radius") && err.contains("srlg"), "{err}");
        // --samples belongs to multi.
        assert!(sweep(&args("figure1 --family exhaustive --k 2 --samples 5")).is_err());
        // --holddown-ms belongs to flap.
        assert!(sweep(&args("figure1 --family outage --holddown-ms 10")).is_err());
        // ...and the flags still work with their own family.
        sweep(&args("figure1 --family exhaustive --k 2")).unwrap();
    }

    #[test]
    fn sweep_and_traffic_write_format_artefacts() {
        sweep(&args("figure1 --family single --format csv")).unwrap();
        assert!(pr_bench::results_dir().join("sweep_figure1_single.csv").is_file());
        sweep(&args("figure1 --family single --format json")).unwrap();
        assert!(pr_bench::results_dir().join("sweep_figure1_single.json").is_file());
        traffic(&args("figure1 --model uniform --family single --format csv")).unwrap();
        let csv = pr_bench::results_dir().join("traffic_figure1_uniform_single.csv");
        let text = std::fs::read_to_string(csv).unwrap();
        assert!(text.starts_with("scenario,failures,"), "{text}");
        assert!(sweep(&args("figure1 --family single --format yaml")).is_err());
        // Parameterised runs land in distinct files instead of
        // clobbering each other.
        sweep(&args("figure1 --family exhaustive --k 2 --format csv")).unwrap();
        sweep(&args("figure1 --family exhaustive --k 3 --format csv")).unwrap();
        assert!(pr_bench::results_dir().join("sweep_figure1_exhaustive_k2.csv").is_file());
        assert!(pr_bench::results_dir().join("sweep_figure1_exhaustive_k3.csv").is_file());
    }

    #[test]
    fn traffic_runs_models_and_families() {
        // figure1 has no coordinates: uniform and hotspot work, gravity
        // must refuse clearly.
        traffic(&args("figure1 --model uniform --threads 2")).unwrap();
        traffic(&args("figure1 --model hotspot --hotspots 2 --boost 4 --flows 20")).unwrap();
        let err = traffic(&args("figure1")).unwrap_err().to_string();
        assert!(err.contains("coordinates"), "{err}");
        // Gravity on a located topology, sampled flows, multi family.
        traffic(&args("abilene --model gravity --flows 50 --family multi --k 2 --samples 3"))
            .unwrap();
    }

    #[test]
    fn sweep_and_traffic_reject_unknown_options() {
        // A misplaced option from the other subcommand...
        let err = sweep(&args("figure1 --family single --model gravity")).unwrap_err().to_string();
        assert!(err.contains("unknown option --model"), "{err}");
        // ...and a typo must both fail loudly, not run a silently
        // different experiment.
        let err = traffic(&args("figure1 --model uniform --flow 5")).unwrap_err().to_string();
        assert!(err.contains("unknown option --flow"), "{err}");
        assert!(traffic(&args("figure1 --model uniform --stats")).is_err());
        // Every subcommand rejects typos, not just the new ones.
        let err = stretch(&args("figure1 --thread 4")).unwrap_err().to_string();
        assert!(err.contains("unknown option --thread"), "{err}");
        assert!(info(&args("figure1 --seed 1")).is_err(), "info takes no options");
        assert!(embed(&args("figure1 --k 2")).is_err());
        assert!(walk(&args("figure1 A F --failures 1")).is_err(), "--failures is not --fail");
    }

    #[test]
    fn traffic_rejects_explicit_zero_flows() {
        let err = traffic(&args("figure1 --model uniform --flows 0")).unwrap_err().to_string();
        assert!(err.contains("--flows"), "{err}");
        assert!(err.contains("omit"), "hint at the all-pairs default: {err}");
    }

    #[test]
    fn traffic_rejects_bad_flags() {
        assert!(traffic(&args("figure1 --model banana")).is_err());
        let err =
            traffic(&args("figure1 --model uniform --family outage")).unwrap_err().to_string();
        assert!(err.contains("single|multi|node|srlg|exhaustive"), "{err}");
        assert!(err.contains("pr sweep"), "temporal hint: {err}");
        let err =
            traffic(&args("figure1 --model uniform --family banana")).unwrap_err().to_string();
        assert!(!err.contains("outage"), "must not advertise temporal families: {err}");
        assert!(traffic(&args("figure1 --model uniform --k 2")).is_err(), "wrong-family flag");
        let err = traffic(&args("figure1 --model uniform --boost 2")).unwrap_err().to_string();
        assert!(err.contains("--boost") && err.contains("hotspot"), "{err}");
        assert!(traffic(&args("figure1 --model hotspot --hotspots 99")).is_err());
        assert!(traffic(&args("figure1 --model hotspot --boost -1")).is_err());
    }

    #[test]
    fn sweep_and_traffic_accept_synth_specs() {
        sweep(&args("synth:isp:12:7 --family single --threads 2")).unwrap();
        // Synthetic meshes carry coordinates, so gravity and srlg work.
        traffic(&args("synth:isp:12:7 --model gravity --family single")).unwrap();
        sweep(&args("synth-tier-16 --family srlg --radius 400")).unwrap();
    }

    #[test]
    fn sharded_sweep_resumes_to_the_plain_artefact() {
        let results = pr_bench::results_dir();
        let stem = "sweep_figure1_single_seed7";
        let artefact = results.join(format!("{stem}.csv"));
        let _ = std::fs::remove_file(&artefact);
        let _ = std::fs::remove_dir_all(results.join(stem));

        // The reference artefact from a plain, unsharded run.
        sweep(&args("figure1 --family single --seed 7 --format csv")).unwrap();
        let plain = std::fs::read_to_string(&artefact).unwrap();
        std::fs::remove_file(&artefact).unwrap();

        // Kill after 1 of 2 shards: checkpoint exists, artefact doesn't.
        sweep(&args("figure1 --family single --seed 7 --shards 2 --max-shards 1 --format csv"))
            .unwrap();
        assert!(!artefact.is_file(), "a partial sweep must not emit the artefact");
        assert!(results.join(stem).join("manifest.json").is_file());
        assert!(results.join(stem).join("shard-000.json").is_file());

        // Resume completes the sweep; the artefact is byte-identical to
        // the plain run's.
        sweep(&args("figure1 --family single --seed 7 --shards 2 --resume --format csv")).unwrap();
        let resumed = std::fs::read_to_string(&artefact).unwrap();
        assert_eq!(resumed, plain, "sharded resume must reproduce the plain artefact");
    }

    #[test]
    fn sharded_sweep_rejects_bad_flag_combinations() {
        // --resume without --format: nothing to merge into.
        let err = sweep(&args("figure1 --family single --resume")).unwrap_err().to_string();
        assert!(err.contains("--format"), "{err}");
        // Temporal families cannot shard.
        let err = sweep(&args("figure1 --family outage --shards 2 --format csv"))
            .unwrap_err()
            .to_string();
        assert!(err.contains("topological"), "{err}");
        // --stats is not recorded in checkpoints.
        let err = sweep(&args("figure1 --family single --shards 2 --stats --format csv"))
            .unwrap_err()
            .to_string();
        assert!(err.contains("--stats"), "{err}");
        // The shard flags stay sweep-only.
        assert!(traffic(&args("figure1 --model uniform --resume --format csv")).is_err());
        assert!(traffic(&args("figure1 --model uniform --shards 2")).is_err());
    }

    #[test]
    fn sweep_accepts_the_stats_flag() {
        sweep(&args("figure1 --family single --stats --threads 2")).unwrap();
        sweep(&args("figure1 --family exhaustive --k 2 --stats")).unwrap();
    }

    #[test]
    fn sweep_runs_srlg_on_a_located_topology() {
        sweep(&args("abilene --family srlg --radius 800 --threads 2")).unwrap();
    }

    #[test]
    fn sweep_rejects_unknown_family() {
        assert!(sweep(&args("figure1 --family banana")).is_err());
        assert!(sweep(&args("figure1 --family srlg")).is_err(), "figure1 has no coordinates");
    }

    #[test]
    fn impair_runs_processes_and_writes_artefacts() {
        // Located synthetic mesh: every process applies, stacking works.
        impair(&args("synth:isp:12:7 --model uniform --process gilbert --rate 5 --burst 10"))
            .unwrap();
        impair(&args("synth:isp:12:7 --model gravity --process storm --storms 2 --radius 300"))
            .unwrap();
        impair(&args("figure1 --model uniform --process maintenance --window-ms 30 --links 1"))
            .unwrap();
        impair(&args("figure1 --model uniform --process jitter --jitter-ms 3")).unwrap();
        impair(&args(
            "synth:isp:12:7 --model uniform --process gilbert --process jitter --threads 2",
        ))
        .unwrap();
        // The acceptance artefact: a loss-over-time CSV under results/.
        impair(&args("figure1 --model uniform --process gilbert --format csv")).unwrap();
        let csv = pr_bench::results_dir().join("impair_figure1_gilbert_uniform.csv");
        let text = std::fs::read_to_string(csv).unwrap();
        assert!(text.starts_with("scenario,label,from_ms,to_ms,links_down,"), "{text}");
    }

    #[test]
    fn impair_rejects_bad_flags() {
        // Unknown process, unknown option, negative knobs.
        assert!(impair(&args("figure1 --model uniform --process banana")).is_err());
        let err = impair(&args("figure1 --model uniform --family single")).unwrap_err().to_string();
        assert!(err.contains("unknown option --family"), "{err}");
        assert!(impair(&args("figure1 --model uniform --rate -1")).is_err());
        assert!(impair(&args("abilene --process storm --radius -5")).is_err());
        // Storm needs coordinates; gravity stays coordinate-gated.
        let err = impair(&args("figure1 --model uniform --process storm")).unwrap_err().to_string();
        assert!(err.contains("coordinates"), "{err}");
        assert!(impair(&args("figure1 --process gilbert")).is_err(), "gravity needs coordinates");
        // Process-specific knobs are rejected under the wrong process.
        let err = impair(&args("figure1 --model uniform --process jitter --rate 5"))
            .unwrap_err()
            .to_string();
        assert!(err.contains("--rate") && err.contains("gilbert"), "{err}");
        let err =
            impair(&args("abilene --process gilbert --window-ms 10")).unwrap_err().to_string();
        assert!(err.contains("--window-ms") && err.contains("maintenance"), "{err}");
        assert!(impair(&args("abilene --process maintenance --storms 2")).is_err());
        // ...and accepted once their process joins the stack.
        impair(&args("figure1 --model uniform --process gilbert --process jitter --rate 1"))
            .unwrap();
    }

    #[test]
    fn impairment_knobs_stay_out_of_the_other_subcommands() {
        // `pr sweep --rate` must be an unknown-option error, not a
        // silently ignored knob.
        let err = sweep(&args("figure1 --family outage --rate 5")).unwrap_err().to_string();
        assert!(err.contains("unknown option --rate"), "{err}");
        let err = traffic(&args("figure1 --model uniform --burst 10")).unwrap_err().to_string();
        assert!(err.contains("unknown option --burst"), "{err}");
        assert!(sweep(&args("figure1 --family flap --jitter-ms 3")).is_err());
        assert!(traffic(&args("figure1 --model uniform --process gilbert")).is_err());
    }

    #[test]
    fn walk_rejects_bad_mode_and_nodes() {
        assert!(walk(&args("figure1 A F --mode turbo")).is_err());
        assert!(walk(&args("figure1 A Z")).is_err());
    }
}
