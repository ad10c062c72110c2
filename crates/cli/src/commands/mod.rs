//! The `pr` subcommands: one [`COMMANDS`] table — name, synopsis,
//! options, body — from which dispatch, unknown-option rejection, the
//! option-ownership checks, artefact stems and the usage text derive.

mod daemon;
mod experiment;
mod inspect;
mod sweep;
mod traffic;

use pr_bench::artefact::{Artefact, CsvRow, Format, RowWriter};
use pr_core::{DiscriminatorKind, PrMode, PrNetwork};
use pr_embedding::{heuristics, CellularEmbedding, RotationSystem};
use pr_graph::{Graph, LinkSet, NodeId};
use pr_scenarios::{
    ExhaustiveKFailures, NodeFailures, SampledMultiFailures, ScenarioFamily, SingleLinkFailures,
    SrlgFailures,
};

use crate::args::{slug, Args, Opt, OptTable};

type CmdResult<T = ()> = Result<T, Box<dyn std::error::Error>>;

/// One subcommand: a row of the command table.
pub struct Command {
    /// First word after `pr`.
    name: &'static str,
    /// The rest of the usage line (`\n` where it wraps); names every
    /// option of `options`. Rows sharing a `name` start theirs with the
    /// `a|b` second words they serve (`pr daemon start|run`).
    synopsis: &'static str,
    /// Everything the subcommand accepts.
    options: OptTable,
    body: fn(&Args) -> CmdResult,
}

const fn cmd(
    name: &'static str,
    synopsis: &'static str,
    options: OptTable,
    body: fn(&Args) -> CmdResult,
) -> Command {
    Command { name, synopsis, options, body }
}

/// The embedding-search knobs of every subcommand that resolves an
/// embedding ([`resolve_embedding`]). On a topology without a canonical
/// one they decide the rotation system, so they are stem options.
const EMBED: &[Opt] =
    &[Opt::new("seed").stem(), Opt::new("restarts").stem(), Opt::new("iterations").stem()];

/// The knobs of the topological failure families ([`topological_family`]).
const TOPOLOGICAL: &[Opt] = &[
    Opt::new("k").stem().of("family", &["multi", "exhaustive"]),
    Opt::new("samples").stem().of("family", &["multi"]),
    Opt::new("radius").stem().of("family", &["srlg"]),
];

/// The demand workload (`traffic::demand_spec`).
const DEMAND: &[Opt] = &[
    Opt::new("model"),
    Opt::new("flows").stem(),
    Opt::new("hotspots").stem().of("model", &["hotspot"]),
    Opt::new("boost").stem().of("model", &["hotspot"]),
];

const RUN: &[Opt] = &[Opt::new("threads"), Opt::new("format")];
const ADDR: &[Opt] = &[Opt::new("addr-file")];

/// Every subcommand, in usage order.
pub const COMMANDS: &[Command] = &[
    cmd("info", "<topology>", &[], inspect::info),
    cmd(
        "gen",
        "<family> --nodes N [--seed N] [--out file.topo]",
        &[&[Opt::new("nodes"), Opt::new("seed"), Opt::new("out")]],
        inspect::gen,
    ),
    cmd("embed", "<topology> [--seed N] [--restarts N] [--iterations N]", &[EMBED], inspect::embed),
    cmd(
        "tables",
        "<topology> <node> [--seed N] [--restarts N] [--iterations N]",
        &[EMBED],
        inspect::tables,
    ),
    cmd(
        "walk",
        "<topology> <src> <dst> [--fail A-B]... [--mode basic|dd]\n\
         [--seed N] [--restarts N] [--iterations N]",
        &[&[Opt::new("fail"), Opt::new("mode")], EMBED],
        inspect::walk,
    ),
    cmd(
        "stretch",
        "<topology> [--failures K] [--samples N]\n\
         [--seed N] [--restarts N] [--iterations N] [--threads N]",
        &[&[Opt::new("failures"), Opt::new("samples")], EMBED, &[Opt::new("threads")]],
        sweep::stretch,
    ),
    cmd(
        "sweep",
        "<topology> --family <single|multi|node|srlg|exhaustive|outage|flap>\n\
         [--k N] [--samples N] [--radius KM] [--holddown-ms N]\n\
         [--seed N] [--restarts N] [--iterations N] [--threads N]\n\
         [--format csv|json] [--stats] [--shards N] [--resume] [--max-shards N]",
        &[
            &[Opt::new("family")],
            TOPOLOGICAL,
            &[Opt::new("holddown-ms").stem().of("family", &["flap"])],
            EMBED,
            RUN,
            &[
                Opt::new("stats").flag(),
                Opt::new("shards"),
                Opt::new("resume").flag(),
                Opt::new("max-shards"),
            ],
        ],
        sweep::sweep,
    ),
    cmd(
        "traffic",
        "<topology> [--family <single|multi|node|srlg|exhaustive> | --fail A-B...]\n\
         [--k N] [--samples N] [--radius KM]\n\
         [--model gravity|uniform|hotspot] [--flows N] [--hotspots N] [--boost X]\n\
         [--seed N] [--restarts N] [--iterations N] [--threads N]\n\
         [--format csv|json] [--stats]",
        &[
            &[Opt::new("family")],
            TOPOLOGICAL,
            &[Opt::new("fail").stem()],
            DEMAND,
            EMBED,
            RUN,
            &[Opt::new("stats").flag()],
        ],
        traffic::traffic,
    ),
    cmd(
        "impair",
        "<topology> [--process gilbert|storm|maintenance|jitter]...\n\
         [--rate R] [--burst MS] [--storms N] [--radius KM] [--window-ms N]\n\
         [--links N] [--jitter-ms N]\n\
         [--model gravity|uniform|hotspot] [--flows N] [--hotspots N] [--boost X]\n\
         [--seed N] [--restarts N] [--iterations N] [--threads N]\n\
         [--format csv|json] [--stats]",
        &[
            &[
                Opt::new("process"),
                Opt::new("rate").stem().of("process", &["gilbert"]),
                Opt::new("burst").stem().of("process", &["gilbert", "storm"]),
                Opt::new("storms").stem().of("process", &["storm"]),
                Opt::new("radius").stem().of("process", &["storm"]),
                Opt::new("window-ms").stem().of("process", &["maintenance"]),
                Opt::new("links").stem().of("process", &["maintenance"]),
                Opt::new("jitter-ms").stem().of("process", &["jitter"]),
            ],
            DEMAND,
            EMBED,
            RUN,
            &[Opt::new("stats").flag()],
        ],
        traffic::impair,
    ),
    cmd(
        "daemon",
        "start|run <topology> [--model <...>] [--flows N] [--hotspots N] [--boost X]\n\
         [--seed N] [--restarts N] [--iterations N] [--threads N]\n\
         [--port N] [--metrics-port N] [--log PATH] [--addr-file PATH]",
        &[
            DEMAND,
            EMBED,
            &[Opt::new("threads"), Opt::new("port"), Opt::new("metrics-port"), Opt::new("log")],
            ADDR,
        ],
        daemon::serve,
    ),
    cmd("daemon", "stop|metrics [--addr-file PATH]", &[ADDR], daemon::client),
    cmd(
        "daemon",
        "status [--addr-file PATH] [--format json]",
        &[ADDR, &[Opt::new("format")]],
        daemon::client,
    ),
    cmd(
        "ctl",
        "link-down A-B | link-up A-B | snapshot | shutdown\n\
         | set-demand <model> [--flows N] [--hotspots N] [--boost X] [--seed N]\n\
         | query coverage|stretch|traffic\n\
         [--addr-file PATH] [--format json]",
        &[
            ADDR,
            &[Opt::new("flows"), Opt::new("hotspots"), Opt::new("boost"), Opt::new("seed")],
            &[Opt::new("format")],
        ],
        daemon::ctl,
    ),
    cmd("experiment", "<name> [--threads N]", &[&[Opt::new("threads")]], experiment::experiment),
];

/// A command line `pr` cannot start on: usage plus exit status 2,
/// where a subcommand's own failure exits 1.
#[derive(Debug)]
pub struct Usage(String);

impl std::fmt::Display for Usage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Usage {}

/// The row serving `raw` (subcommand name first); among rows sharing
/// a name, the one whose synopsis starts with the second word.
fn find(raw: &[String]) -> Result<&'static Command, Usage> {
    let name = raw.first().map_or("", String::as_str);
    let action = raw.get(1).map_or("", String::as_str);
    let named: Vec<&Command> = COMMANDS.iter().filter(|c| c.name == name).collect();
    let actions = |c: &Command| c.synopsis.split_whitespace().next().unwrap_or("");
    match named[..] {
        [] => Err(Usage(format!("unknown subcommand {name:?}"))),
        [only] => Ok(only),
        _ => named.iter().copied().find(|c| actions(c).split('|').any(|a| a == action)).ok_or_else(
            || {
                let all: Vec<&str> = named.iter().map(|c| actions(c)).collect();
                Usage(format!("{name} wants {}, got {action:?}", all.join("|")))
            },
        ),
    }
}

/// Runs one `pr` command line (without the program name): the single
/// way into a subcommand body, for `main`, the experiment rows that
/// compose other subcommands, and the tests. `help`, and `--help` or
/// `-h` anywhere on the line, print the usage to stdout instead.
pub fn invoke(raw: Vec<String>) -> CmdResult {
    if raw.first().is_some_and(|name| name == "help")
        || raw.iter().any(|a| a == "--help" || a == "-h")
    {
        println!("{}", usage());
        return Ok(());
    }
    let cmd = find(&raw)?;
    let args =
        Args::parse(raw.into_iter().skip(1), cmd.options).map_err(|e| Usage(e.to_string()))?;
    args.reject_unknown()?;
    (cmd.body)(&args)
}

/// [`invoke`] on a whitespace-separated line.
fn run_line(line: &str) -> CmdResult {
    invoke(line.split_whitespace().map(String::from).collect())
}

const USAGE_TAIL: &str = "
FAMILIES (pr sweep / pr traffic):
    single      every single-link failure (streamed exhaustively)
    multi       sampled k-link failure sets (--k, --samples; deduplicated)
    node        every node failure (all incident links)
    srlg        geographically-correlated failures around each PoP (--radius km)
    exhaustive  every k-subset of links, streamed by unranking (--k)
    outage      timed outage of each link, priced packet by packet (sweep only)
    flap        timed flap trace on each link (--holddown-ms; sweep only)

TRAFFIC MODELS (pr traffic / pr impair):
    gravity     PoP-mass x PoP-mass / distance demand from the shipped coordinates
    uniform     unit demand on every ordered pair (weighted == unweighted)
    hotspot     seeded hot-PoP skew (--hotspots, --boost)

IMPAIRMENT PROCESSES (pr impair; repeat --process to stack decorators):
    gilbert     Gilbert-Elliott per-link up/down process (--rate /s, --burst ms);
                --rate 0 replays the bare outage family
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

/// Top-level usage text: one synopsis per table row, then the
/// paper's artefacts and the reference notes.
pub fn usage() -> String {
    let mut out =
        String::from("pr — Packet Re-cycling toolbox (HotNets-IX 2010 reproduction)\n\nUSAGE:\n");
    for c in COMMANDS {
        let synopsis = c.synopsis.replace('\n', &format!("\n{:18}", ""));
        out.push_str(&format!("    pr {:<10} {synopsis}\n", c.name));
    }
    out.push_str("\nEXPERIMENTS (pr experiment; each writes its artefacts under results/):\n");
    for (name, artefact, _) in experiment::EXPERIMENTS {
        out.push_str(&format!("    {name:<19} {artefact}\n"));
    }
    out + USAGE_TAIL
}

/// Loads a topology by name or `.topo` file path. `figure1` comes with
/// its canonical rotation; other topologies get `None`.
fn load_topology(spec: &str) -> CmdResult<(Graph, Option<RotationSystem>)> {
    use pr_topologies::{load, Isp, Weighting};
    match spec {
        "abilene" => Ok((load(Isp::Abilene, Weighting::Distance), None)),
        "teleglobe" => Ok((load(Isp::Teleglobe, Weighting::Distance), None)),
        "geant" => Ok((load(Isp::Geant, Weighting::Distance), None)),
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
/// one, otherwise the thorough search under the [`EMBED`] options.
fn resolve_embedding(
    graph: &Graph,
    canonical: Option<RotationSystem>,
    args: &Args,
) -> CmdResult<CellularEmbedding> {
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

/// The first lines of every sweeping subcommand: resolve the embedding,
/// report its genus, compile the PR-DD network the sweep walks on.
fn compile(graph: &Graph, canonical: Option<RotationSystem>, args: &Args) -> CmdResult<PrNetwork> {
    let emb = resolve_embedding(graph, canonical, args)?;
    println!("embedding genus {}", emb.genus());
    Ok(PrNetwork::compile(graph, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops))
}

/// `--threads N`, defaulting to the machine's parallelism.
fn threads(args: &Args) -> Result<usize, crate::args::ArgError> {
    Ok(args.option_or("threads", pr_bench::engine::default_threads())?.max(1))
}

fn node_by_name(graph: &Graph, name: &str) -> Result<NodeId, String> {
    graph.node_by_name(name).ok_or_else(|| {
        let known: Vec<&str> = graph.nodes().map(|n| graph.node_name(n)).collect();
        format!("unknown node {name:?}; nodes: {}", known.join(", "))
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
        if !failed.insert(link) {
            return Err(format!("--fail {spec} names a link already failed"));
        }
    }
    Ok(failed)
}

/// Builds a topological scenario family by name (shared by `pr sweep`,
/// `pr traffic` and, with `k` from `--failures`, `pr stretch`); its
/// [`TOPOLOGICAL`] options must already have passed
/// [`Args::check_owned`]. It needs only the graph, so callers build it
/// before [`compile`] and refuse a bad flag before the embedding
/// search; the notes its draws leave are returned with it, for the
/// caller to print after the genus line.
fn topological_family<'a>(
    graph: &'a Graph,
    name: &str,
    k: usize,
    seed: u64,
    args: &Args,
) -> CmdResult<(Box<dyn ScenarioFamily + 'a>, Vec<String>)> {
    let mut notes = Vec::new();
    let family: Box<dyn ScenarioFamily + 'a> = match name {
        "single" => Box::new(SingleLinkFailures::new(graph)),
        "node" => Box::new(NodeFailures::new(graph)),
        "multi" => {
            let samples = positive("samples", args.option_or("samples", 100)?)?;
            let k = losable(graph, "k", k)?;
            let fam = SampledMultiFailures::new(graph, k, samples, seed);
            if fam.len() < samples {
                notes.push(format!(
                    "note: only {} distinct scenarios exist (asked for {samples})",
                    fam.len()
                ));
            }
            if !fam.all_draws_complete() {
                notes.push(format!("note: the graph cannot lose {k} links; draws fell short"));
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
            if radius < 0.0 {
                return Err(format!("--radius wants km >= 0, got {radius}").into());
            }
            Box::new(SrlgFailures::new(graph, radius))
        }
        "exhaustive" => {
            let k = bounded("k", k, graph.link_count(), "links of the topology")?;
            Box::new(ExhaustiveKFailures::new(graph, k))
        }
        other => {
            return Err(format!(
                "--family wants single|multi|node|srlg|exhaustive|outage|flap, got {other:?}"
            )
            .into())
        }
    };
    Ok((family, notes))
}

/// `count`, unless it is 0 — a sweep of no failures or no scenarios
/// would report nothing, a process of none impairs nothing — or above
/// `most`, the number of `what` there are.
fn bounded(flag: &str, count: usize, most: usize, what: &str) -> CmdResult<usize> {
    match count {
        0 => Err(format!("--{flag} wants a positive count, got 0").into()),
        _ if count > most => Err(format!("--{flag} {count} exceeds the {most} {what}").into()),
        _ => Ok(count),
    }
}

/// `count`, unless it is 0 ([`bounded`] without a bound).
fn positive(flag: &str, count: usize) -> CmdResult<usize> {
    bounded(flag, count, usize::MAX, "")
}

/// `k` failed links, unless no draw of that many can leave `graph`
/// connected: a survivor keeps a spanning tree, `nodes − 1` links.
fn losable(graph: &Graph, flag: &str, k: usize) -> CmdResult<usize> {
    let most = (graph.link_count() + 1).saturating_sub(graph.node_count());
    bounded(flag, k, most, "links a connected survivor graph can lose")
}

/// `--format csv|json` (absent = human-readable stdout only).
fn parse_format(args: &Args) -> Result<Option<Format>, String> {
    match args.option("format") {
        None => Ok(None),
        Some("csv") => Ok(Some(Format::Csv)),
        Some("json") => Ok(Some(Format::Json)),
        Some(other) => Err(format!("--format wants csv|json, got {other:?}")),
    }
}

/// Writes the `--format` artefact of a sweep that returns one result,
/// if one was asked for, under `results/` and echoes its path.
fn emit(
    format: Option<Format>,
    stem: &str,
    csv: impl FnOnce() -> String,
    json: impl FnOnce() -> String,
) {
    if let Some(format) = format {
        let contents = if format == Format::Csv { csv() } else { json() };
        pr_bench::write_result(&format!("{stem}.{}", format.ext()), &contents);
    }
}

/// The `--format` artefact of a row sweep, if one was asked for:
/// `results/<stem>.<ext>`, written row by row at the engine's sink.
fn row_artefact<R: CsvRow>(
    format: Option<Format>,
    stem: &str,
) -> std::io::Result<Option<RowWriter<Artefact, R>>> {
    let Some(format) = format else { return Ok(None) };
    let file = Artefact::create(&format!("{stem}.{}", format.ext()))?;
    Ok(Some(RowWriter::new(file, format)))
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::run_line as run;
    use super::*;

    fn args(s: &str) -> Args {
        const FAIL: OptTable = &[&[Opt::new("fail")]];
        Args::parse(s.split_whitespace().map(String::from), FAIL).unwrap()
    }

    #[test]
    fn the_table_its_synopses_and_the_usage_agree() {
        let usage = usage();
        for c in COMMANDS {
            let accepted: Vec<&str> =
                c.options.iter().flat_map(|g| g.iter()).map(|o| o.name).collect();
            let distinct: BTreeSet<&str> = accepted.iter().copied().collect();
            assert_eq!(distinct.len(), accepted.len(), "pr {}: an option is listed twice", c.name);
            let shown: BTreeSet<&str> = c
                .synopsis
                .split(|ch: char| !ch.is_ascii_alphanumeric() && ch != '-')
                .filter_map(|word| word.strip_prefix("--"))
                .collect();
            assert_eq!(distinct, shown, "pr {}: accepted options vs synopsis", c.name);
            let first_line = c.synopsis.lines().next().unwrap();
            assert!(usage.contains(&format!("pr {:<10} {first_line}\n", c.name)), "pr {}", c.name);
        }
        for (name, artefact, _) in experiment::EXPERIMENTS {
            assert!(usage.contains(&format!("{name:<19} {artefact}\n")), "experiment {name}");
        }
    }

    #[test]
    fn every_option_that_can_change_an_artefact_is_in_its_stem() {
        // The selectors are spelled out in the stem by the subcommand
        // itself; how a run is scheduled never changes its bytes.
        let stemless = ["family", "process", "model", "threads", "format"];
        let scheduling = ["stats", "shards", "resume", "max-shards"];
        for c in COMMANDS.iter().filter(|c| ["sweep", "traffic", "impair"].contains(&c.name)) {
            for opt in c.options.iter().flat_map(|g| g.iter()) {
                let expected = !stemless.contains(&opt.name) && !scheduling.contains(&opt.name);
                assert_eq!(opt.stem, expected, "pr {} --{}", c.name, opt.name);
            }
        }
        // `--restarts/--iterations` pick the embedding of a graph that
        // ships none: two such runs must not share an artefact.
        let a = Args::parse(
            "t.topo --family single --restarts 1 --iterations 10".split(' ').map(String::from),
            COMMANDS.iter().find(|c| c.name == "sweep").unwrap().options,
        );
        assert_eq!(a.unwrap().stem(), "_restarts1_iterations10");
    }

    #[test]
    fn command_lines_that_cannot_start_are_usage_errors() {
        for line in ["", "frobnicate", "daemon", "daemon frob", "experiment", "experiment fig9"] {
            let err = run(line).unwrap_err();
            assert!(err.is::<Usage>(), "{line:?}: {err}");
        }
        let err = run("experiment").unwrap_err().to_string();
        for (name, ..) in experiment::EXPERIMENTS {
            assert!(err.contains(name), "{err}");
        }
        assert!(run("sweep figure1 --seed").unwrap_err().is::<Usage>(), "missing value");
        // A subcommand's own failure is not: the rows of `pr daemon`
        // and `pr experiment` reject what they do not declare.
        for line in ["info", "experiment overheads --thread 4", "daemon status --port 1"] {
            let err = run(line).unwrap_err();
            assert!(!err.is::<Usage>(), "{line:?}: {err}");
        }
        let err = run("experiment overheads --thread 4").unwrap_err().to_string();
        assert!(err.contains("unknown option --thread"), "{err}");
    }

    #[test]
    fn help_after_any_subcommand_is_no_error() {
        // `--help` is no option of any row: it must not be parsed as
        // one that wants a value.
        for c in COMMANDS {
            for help in ["--help", "-h"] {
                let line = format!("{} {help}", c.name);
                assert!(run(&line).is_ok(), "{line:?}");
            }
        }
        assert!(run("impair geant --process gilbert --help").is_ok());
        assert!(run("help").is_ok());
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
        run(&format!("gen isp --nodes 20 --seed 7 --out {path_str}")).unwrap();
        let (roundtrip, _) = load_topology(path_str).unwrap();
        let (direct, _) = load_topology("synth:isp:20:7").unwrap();
        assert_eq!(
            roundtrip.fingerprint(),
            direct.fingerprint(),
            "the .topo round-trip must preserve the generated graph bit for bit"
        );
        std::fs::remove_file(&path).unwrap();
        // Without --out it just reports; missing --nodes is an error.
        run("gen tier --nodes 12").unwrap();
        let err = run("gen isp").unwrap_err().to_string();
        assert!(err.contains("--nodes"), "{err}");
        assert!(run("gen isp --nodes 20 --shards 2").is_err(), "unknown option");
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
        for repeated in ["figure1 --fail D-E --fail D-E", "figure1 --fail D-E --fail E-D"] {
            let err = parse_failures(&g, &args(repeated)).unwrap_err();
            assert!(err.contains("--fail") && err.contains("already failed"), "{err}");
        }
    }

    #[test]
    fn commands_run_on_figure1() {
        // Smoke-test every subcommand end to end on the small fixture.
        run("info figure1").unwrap();
        run("embed figure1").unwrap();
        run("tables figure1 D").unwrap();
        run("walk figure1 A F --fail D-E --fail B-C").unwrap();
        run("stretch figure1 --failures 1").unwrap();
    }

    #[test]
    fn stretch_accepts_threads_and_multi_failures() {
        run("stretch figure1 --failures 2 --samples 3 --threads 2").unwrap();
        run("stretch figure1 --failures 1 --threads 1").unwrap();
    }

    #[test]
    fn sweep_runs_every_topological_family_on_figure1() {
        for family in ["single", "node"] {
            run(&format!("sweep figure1 --family {family} --threads 2")).unwrap();
        }
        run("sweep figure1 --family exhaustive --k 2 --threads 2").unwrap();
        run("sweep figure1 --family multi --k 2 --samples 3").unwrap();
    }

    #[test]
    fn sweep_rejects_family_specific_flags_under_the_wrong_family() {
        // --k belongs to multi|exhaustive.
        let err = run("sweep figure1 --family single --k 2").unwrap_err().to_string();
        assert!(err.contains("--k") && err.contains("multi|exhaustive"), "{err}");
        // --radius belongs to srlg.
        let err = run("sweep figure1 --family single --radius 500").unwrap_err().to_string();
        assert!(err.contains("--radius") && err.contains("srlg"), "{err}");
        // --samples belongs to multi.
        assert!(run("sweep figure1 --family exhaustive --k 2 --samples 5").is_err());
        // --holddown-ms belongs to flap.
        assert!(run("sweep figure1 --family outage --holddown-ms 10").is_err());
        // ...and the flags still work with their own family.
        run("sweep figure1 --family exhaustive --k 2").unwrap();
    }

    #[test]
    fn sweep_and_traffic_write_format_artefacts() {
        run("sweep figure1 --family single --format csv").unwrap();
        assert!(pr_bench::results_dir().join("sweep_figure1_single.csv").is_file());
        run("sweep figure1 --family single --format json").unwrap();
        assert!(pr_bench::results_dir().join("sweep_figure1_single.json").is_file());
        run("traffic figure1 --model uniform --family single --format csv").unwrap();
        let csv = pr_bench::results_dir().join("traffic_figure1_uniform_single.csv");
        let text = std::fs::read_to_string(csv).unwrap();
        assert!(text.starts_with("scenario,failures,"), "{text}");
        assert!(run("sweep figure1 --family single --format yaml").is_err());
        // Parameterised runs land in distinct files instead of
        // clobbering each other.
        run("sweep figure1 --family exhaustive --k 2 --format csv").unwrap();
        run("sweep figure1 --family exhaustive --k 3 --format csv").unwrap();
        assert!(pr_bench::results_dir().join("sweep_figure1_exhaustive_k2.csv").is_file());
        assert!(pr_bench::results_dir().join("sweep_figure1_exhaustive_k3.csv").is_file());
    }

    #[test]
    fn traffic_runs_models_and_families() {
        // figure1 has no coordinates: uniform and hotspot work, gravity
        // must refuse clearly.
        run("traffic figure1 --model uniform --threads 2").unwrap();
        run("traffic figure1 --model hotspot --hotspots 2 --boost 4 --flows 20").unwrap();
        let err = run("traffic figure1").unwrap_err().to_string();
        assert!(err.contains("coordinates"), "{err}");
        // Gravity on a located topology, sampled flows, multi family.
        run("traffic abilene --model gravity --flows 50 --family multi --k 2 --samples 3").unwrap();
        // `--stats` adds the replay's counters and changes no artefact.
        run("traffic figure1 --model uniform --stats").unwrap();
    }

    #[test]
    fn sweep_and_traffic_reject_unknown_options() {
        // A misplaced option from the other subcommand...
        let err = run("sweep figure1 --family single --model gravity").unwrap_err().to_string();
        assert!(err.contains("unknown option --model"), "{err}");
        // ...and a typo must both fail loudly, not run a silently
        // different experiment.
        let err = run("traffic figure1 --model uniform --flow 5").unwrap_err().to_string();
        assert!(err.contains("unknown option --flow"), "{err}");
        // Every subcommand rejects typos, not just the new ones.
        let err = run("stretch figure1 --thread 4").unwrap_err().to_string();
        assert!(err.contains("unknown option --thread"), "{err}");
        assert!(run("info figure1 --seed 1").is_err(), "info takes no options");
        assert!(run("embed figure1 --k 2").is_err());
        assert!(run("walk figure1 A F --failures 1").is_err(), "--failures is not --fail");
    }

    #[test]
    fn traffic_rejects_explicit_zero_flows() {
        let err = run("traffic figure1 --model uniform --flows 0").unwrap_err().to_string();
        assert!(err.contains("--flows"), "{err}");
        assert!(err.contains("omit"), "hint at the all-pairs default: {err}");
    }

    #[test]
    fn traffic_rejects_bad_flags() {
        assert!(run("traffic figure1 --model banana").is_err());
        let err = run("traffic figure1 --model uniform --family outage").unwrap_err().to_string();
        assert!(err.contains("single|multi|node|srlg|exhaustive"), "{err}");
        assert!(err.contains("pr sweep"), "temporal hint: {err}");
        let err = run("traffic figure1 --model uniform --family banana").unwrap_err().to_string();
        assert!(!err.contains("outage"), "must not advertise temporal families: {err}");
        assert!(run("traffic figure1 --model uniform --k 2").is_err(), "wrong-family flag");
        let err = run("traffic figure1 --model uniform --boost 2").unwrap_err().to_string();
        assert!(err.contains("--boost") && err.contains("hotspot"), "{err}");
        assert!(run("traffic figure1 --model hotspot --hotspots 99").is_err());
        assert!(run("traffic figure1 --model hotspot --boost -1").is_err());
    }

    #[test]
    fn sweep_and_traffic_accept_synth_specs() {
        run("sweep synth:isp:12:7 --family single --threads 2").unwrap();
        // Synthetic meshes carry coordinates, so gravity and srlg work.
        run("traffic synth:isp:12:7 --model gravity --family single").unwrap();
        run("sweep synth-tier-16 --family srlg --radius 400").unwrap();
    }

    #[test]
    fn sharded_sweep_resumes_to_the_plain_artefact() {
        let results = pr_bench::results_dir();
        let stem = "sweep_figure1_single_seed7";
        let artefact = results.join(format!("{stem}.csv"));
        let _ = std::fs::remove_file(&artefact);
        let _ = std::fs::remove_dir_all(results.join(stem));

        // The reference artefact from a plain, unsharded run.
        run("sweep figure1 --family single --seed 7 --format csv").unwrap();
        let plain = std::fs::read_to_string(&artefact).unwrap();
        std::fs::remove_file(&artefact).unwrap();

        // Kill after 1 of 2 shards: checkpoint exists, artefact doesn't.
        run("sweep figure1 --family single --seed 7 --shards 2 --max-shards 1 --format csv")
            .unwrap();
        assert!(!artefact.is_file(), "a partial sweep must not emit the artefact");
        assert!(results.join(stem).join("manifest.json").is_file());
        assert!(results.join(stem).join("shard-000.json").is_file());

        // Resume completes the sweep; the artefact is byte-identical to
        // the plain run's.
        run("sweep figure1 --family single --seed 7 --shards 2 --resume --format csv").unwrap();
        let resumed = std::fs::read_to_string(&artefact).unwrap();
        assert_eq!(resumed, plain, "sharded resume must reproduce the plain artefact");
    }

    #[test]
    fn sharded_sweep_rejects_bad_flag_combinations() {
        // --resume without --format: nothing to merge into.
        let err = run("sweep figure1 --family single --resume").unwrap_err().to_string();
        assert!(err.contains("--format"), "{err}");
        // Temporal families cannot shard.
        let err =
            run("sweep figure1 --family outage --shards 2 --format csv").unwrap_err().to_string();
        assert!(err.contains("topological"), "{err}");
        // --stats is not recorded in checkpoints.
        let err = run("sweep figure1 --family single --shards 2 --stats --format csv")
            .unwrap_err()
            .to_string();
        assert!(err.contains("--stats"), "{err}");
        // The shard flags stay sweep-only.
        assert!(run("traffic figure1 --model uniform --resume --format csv").is_err());
        assert!(run("traffic figure1 --model uniform --shards 2").is_err());
    }

    #[test]
    fn sweep_accepts_the_stats_flag() {
        run("sweep figure1 --family single --stats --threads 2").unwrap();
        run("sweep figure1 --family exhaustive --k 2 --stats").unwrap();
    }

    #[test]
    fn sweep_runs_srlg_on_a_located_topology() {
        run("sweep abilene --family srlg --radius 800 --threads 2").unwrap();
    }

    #[test]
    fn sweep_rejects_unknown_family() {
        assert!(run("sweep figure1 --family banana").is_err());
        assert!(run("sweep figure1 --family srlg").is_err(), "figure1 has no coordinates");
    }

    #[test]
    fn impair_runs_processes_and_writes_artefacts() {
        // Located synthetic mesh: every process applies, stacking works.
        run("impair synth:isp:12:7 --model uniform --process gilbert --rate 5 --burst 10").unwrap();
        run("impair synth:isp:12:7 --model gravity --process storm --storms 2 --radius 300")
            .unwrap();
        run("impair figure1 --model uniform --process maintenance --window-ms 30 --links 1")
            .unwrap();
        run("impair figure1 --model uniform --process jitter --jitter-ms 3").unwrap();
        run("impair synth:isp:12:7 --model uniform --process gilbert --process jitter --threads 2")
            .unwrap();
        // The acceptance artefact: a loss-over-time CSV under results/.
        run("impair figure1 --model uniform --process gilbert --format csv").unwrap();
        let csv = pr_bench::results_dir().join("impair_figure1_gilbert_uniform.csv");
        let text = std::fs::read_to_string(csv).unwrap();
        assert!(text.starts_with("scenario,label,from_ms,to_ms,links_down,"), "{text}");
    }

    #[test]
    fn impair_rejects_bad_flags() {
        // Unknown process, unknown option, negative knobs.
        assert!(run("impair figure1 --model uniform --process banana").is_err());
        let err = run("impair figure1 --model uniform --family single").unwrap_err().to_string();
        assert!(err.contains("unknown option --family"), "{err}");
        assert!(run("impair figure1 --model uniform --rate -1").is_err());
        assert!(run("impair abilene --process storm --radius -5").is_err());
        // Storm needs coordinates; gravity stays coordinate-gated.
        let err = run("impair figure1 --model uniform --process storm").unwrap_err().to_string();
        assert!(err.contains("coordinates"), "{err}");
        assert!(run("impair figure1 --process gilbert").is_err(), "gravity needs coordinates");
        // Process-specific knobs are rejected under the wrong process.
        let err = run("impair figure1 --model uniform --process jitter --rate 5")
            .unwrap_err()
            .to_string();
        assert!(err.contains("--rate") && err.contains("gilbert"), "{err}");
        let err = run("impair abilene --process gilbert --window-ms 10").unwrap_err().to_string();
        assert!(err.contains("--window-ms") && err.contains("maintenance"), "{err}");
        assert!(run("impair abilene --process maintenance --storms 2").is_err());
        // ...and accepted once their process joins the stack.
        run("impair figure1 --model uniform --process gilbert --process jitter --rate 1").unwrap();
    }

    #[test]
    fn impairment_knobs_stay_out_of_the_other_subcommands() {
        // `pr sweep --rate` must be an unknown-option error, not a
        // silently ignored knob.
        let err = run("sweep figure1 --family outage --rate 5").unwrap_err().to_string();
        assert!(err.contains("unknown option --rate"), "{err}");
        let err = run("traffic figure1 --model uniform --burst 10").unwrap_err().to_string();
        assert!(err.contains("unknown option --burst"), "{err}");
        assert!(run("sweep figure1 --family flap --jitter-ms 3").is_err());
        assert!(run("traffic figure1 --model uniform --process gilbert").is_err());
    }

    #[test]
    fn walk_rejects_bad_mode_and_nodes() {
        assert!(run("walk figure1 A F --mode turbo").is_err());
        assert!(run("walk figure1 A Z").is_err());
    }

    /// The documents whose `pr …` spans must name what the table holds.
    const DOCS: [&str; 3] = ["DESIGN.md", "README.md", ".claude/skills/verify/SKILL.md"];

    /// Spans that show a command line failing on purpose.
    const DELIBERATE_FAILURES: &[&str] = &["pr sweep --rate 5"];

    /// The `pr <sub> …` inline code spans of a Markdown text outside
    /// fenced blocks, whitespace-normalised, with the line each starts
    /// on.
    fn command_spans(text: &str) -> Vec<(usize, String)> {
        let mut prose = String::new();
        let mut fenced = false;
        for line in text.lines() {
            let fence = line.trim_start().starts_with("```");
            fenced ^= fence;
            prose.push_str(if fenced || fence { "" } else { line });
            prose.push('\n');
        }
        let mut spans = Vec::new();
        let mut rest = prose.as_str();
        while let Some(open) = rest.find('`') {
            let Some(close) = rest[open + 1..].find('`') else { break };
            let line = prose[..prose.len() - rest.len() + open].matches('\n').count() + 1;
            let words: Vec<&str> = rest[open + 1..open + 1 + close].split_whitespace().collect();
            if words.len() > 1 && words[0] == "pr" {
                spans.push((line, words.join(" ")));
            }
            rest = &rest[open + close + 2..];
        }
        spans
    }

    /// What `span` (`pr <sub> …`) names that the table does not: a
    /// subcommand, a `--flag` the subcommand's rows do not own, or an
    /// experiment row. Among rows sharing a name, the ones whose
    /// synopsis starts with the span's second word, else all of them.
    fn stale_in(span: &str) -> Option<String> {
        let words: Vec<&str> = span.split_whitespace().skip(1).collect();
        let named: Vec<&Command> = COMMANDS.iter().filter(|c| c.name == words[0]).collect();
        if named.is_empty() {
            return Some(format!("no subcommand {:?}", words[0]));
        }
        let serves = |c: &&&Command| {
            let actions = c.synopsis.split_whitespace().next().unwrap_or("");
            words.get(1).is_some_and(|word| actions.split('|').any(|a| a == *word))
        };
        let rows: Vec<&Command> = match named.iter().filter(serves).copied().collect::<Vec<_>>() {
            served if served.is_empty() => named,
            served => served,
        };
        let owns = |flag: &str| {
            rows.iter().flat_map(|c| c.options.iter().copied().flatten()).any(|o| o.name == flag)
        };
        for word in &words[1..] {
            let Some(flag) = word.trim_start_matches(['[', '(']).strip_prefix("--") else {
                continue;
            };
            let flag = flag.split(|c: char| !c.is_ascii_alphanumeric() && c != '-').next().unwrap();
            if !owns(flag) {
                return Some(format!("pr {} has no --{flag}", words[0]));
            }
        }
        let row = words.get(1).filter(|w| words[0] == "experiment" && !w.starts_with(['<', '-']));
        match row {
            Some(row) if !experiment::EXPERIMENTS.iter().any(|(name, ..)| name == row) => {
                Some(format!("no experiment row {row:?}"))
            }
            _ => None,
        }
    }

    #[test]
    fn the_docs_name_only_commands_flags_and_rows_the_table_holds() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let (mut checked, mut deliberate, mut stale) = (0, 0, Vec::new());
        for doc in DOCS {
            let text = std::fs::read_to_string(root.join(doc)).expect("a readable doc");
            for (line, span) in command_spans(&text) {
                checked += 1;
                match stale_in(&span) {
                    Some(_) if DELIBERATE_FAILURES.contains(&span.as_str()) => deliberate += 1,
                    Some(why) => stale.push(format!("{doc}:{line}: `{span}`: {why}")),
                    None => {}
                }
            }
        }
        assert!(checked > 50, "only {checked} command spans checked: the scanner lost the docs");
        assert_eq!(deliberate, DELIBERATE_FAILURES.len(), "an allowed failure left the docs");
        assert!(stale.is_empty(), "doc commands the CLI does not have:\n{}", stale.join("\n"));
    }

    #[test]
    fn a_stale_command_span_is_named_by_its_line() {
        let doc = "Run `pr sweep geant --family\nsingle --stats`, then\n\
                   `pr sweep geant --memo`, `pr experiment fig9`, `pr frob x`,\n\
                   ```sh\n`pr sweep --fenced`\n```\n\
                   `pr daemon stop --addr-file x`, `pr daemon status --format json`,\n\
                   `pr daemon stop --format json`.";
        let found: Vec<(usize, Option<String>)> =
            command_spans(doc).into_iter().map(|(line, span)| (line, stale_in(&span))).collect();
        assert_eq!(
            found,
            [
                (1, None),
                (3, Some("pr sweep has no --memo".into())),
                (3, Some("no experiment row \"fig9\"".into())),
                (3, Some("no subcommand \"frob\"".into())),
                (7, None),
                (7, None),
                (8, Some("pr daemon has no --format".into())),
            ]
        );
    }
}
