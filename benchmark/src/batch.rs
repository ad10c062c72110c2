//! The three batch workloads: `pr-cli sweep`, `pr-cli traffic` and
//! `pr-cli impair`.
//!
//! End to end, each is the real `pr-cli` process, spawn → artefact on
//! disk, alternating `--threads 1` and `--threads N` until the time box
//! is used up. Layer by layer, the harness walks the same pipeline in
//! process through each crate's public functions — the very calls
//! `crates/cli/src/commands.rs` makes — with a span around every stage,
//! then re-drives sampled work units through the inner kernels.

use std::hint::black_box;
use std::time::Instant;

use pr_baselines::FcpAgent;
use pr_bench::{engine, impair, stretch, traffic};
use pr_core::{
    generous_ttl, walk_packet_spliced, DenseFib, DiscriminatorKind, PrMode, PrNetwork, SuffixMemo,
    WalkScratch,
};
use pr_embedding::{heuristics, CellularEmbedding};
use pr_graph::{AllPairs, Graph, LinkSet, NodeId, SpScratch, TreeChildren};
use pr_scenarios::{
    Impaired, ImpairmentProcess, OutageParams, OutageSweep, ScenarioFamily, SingleLinkFailures,
    TemporalFamily,
};
use pr_traffic::{
    replay_scenario_bitparallel, replay_timeline, FlowSet, GravityTraffic, ReplayScratch,
};

use crate::proc::{run_cli, Artefact, Paths};
use crate::report::{fnv64_hex, Measured, Ops};
use crate::trace::Tracer;

/// Which `pr-cli` subcommand a batch workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `pr-cli sweep <topology> --family single`.
    Sweep,
    /// `pr-cli traffic <topology> --model gravity --family single`.
    Traffic,
    /// `pr-cli impair <topology> --process gilbert --rate 5 --model gravity --seed S`.
    Impair,
}

/// Every sampled sweep unit is this many (scenario, destination) units
/// apart.
const SWEEP_UNIT_STRIDE: usize = 64;

/// Every sampled traffic scenario is this many scenarios apart.
const TRAFFIC_SCENARIO_STRIDE: usize = 16;

/// One batch workload on concrete inputs.
#[derive(Debug, Clone)]
pub struct Batch {
    /// The subcommand.
    pub kind: Kind,
    /// Topology argument, e.g. `synth:isp:500:7` or `geant`.
    pub topology: String,
    /// The run's `--seed`.
    pub seed: u64,
}

/// Loads a topology the way `pr-cli` resolves its `<topology>`
/// argument (the subset the workloads use).
pub fn load_graph(topology: &str) -> Result<Graph, String> {
    use pr_topologies::{load, Isp, Weighting};
    match topology {
        "abilene" => Ok(load(Isp::Abilene, Weighting::Distance)),
        "geant" => Ok(load(Isp::Geant, Weighting::Distance)),
        spec => match spec.strip_prefix("synth:") {
            Some(synth) => pr_graph::generators::synth_from_spec(synth),
            None => Err(format!("the benchmark has no loader for topology {topology:?}")),
        },
    }
}

/// Everything `pr-cli` compiles before it reaches the `pr-bench` entry
/// point.
pub struct Setup {
    /// The topology.
    pub graph: Graph,
    /// The compiled PR network.
    pub net: PrNetwork,
    /// The demand flow set (`None` for `sweep`, which has no demand).
    pub flows: Option<FlowSet>,
}

/// The set-up stages, one span each: load/generate, embedding search,
/// table compile, demand flow set.
pub fn setup(
    tr: &mut Tracer,
    topology: &str,
    embed_seed: u64,
    with_flows: bool,
) -> Result<Setup, String> {
    let graph = tr.span("graph.load", 1, || load_graph(topology))?;
    let emb = tr
        .span("embedding.search", 1, || {
            CellularEmbedding::new(&graph, heuristics::thorough(&graph, embed_seed, 8, 60_000))
        })
        .map_err(|e| format!("embedding {topology}: {e}"))?;
    let net = tr.span("core.compile", 1, || {
        PrNetwork::compile(&graph, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops)
    });
    let flows = with_flows.then(|| {
        tr.span("traffic.flowset", 1, || FlowSet::all_pairs(&GravityTraffic::new(&graph)))
    });
    Ok(Setup { graph, net, flows })
}

/// Repeats a set-up — `once` returns its result and how many seconds
/// it took — until it has run at least five times and for half a
/// second, or for a tenth of the time box, whichever comes first.
/// Returns the last result with every repetition's seconds.
pub fn timed_setups<T>(
    seconds: f64,
    mut once: impl FnMut() -> Result<(T, f64), String>,
) -> Result<(T, Vec<f64>), String> {
    let start = Instant::now();
    let mut samples = Vec::new();
    loop {
        let (out, sample) = once()?;
        samples.push(sample);
        let elapsed = start.elapsed().as_secs_f64();
        if (samples.len() >= 5 && elapsed >= 0.5) || elapsed >= 0.1 * seconds {
            return Ok((out, samples));
        }
    }
}

/// Runs `rep(0)`, `rep(1)`, `rep(0)`, … — each returns the seconds it
/// measured — until `seconds` since `start` are used up, and returns
/// both kinds' samples. The two kinds alternate so that slow drift of
/// the machine hits both alike. A repetition starts only if the
/// previous one of its kind would still have fitted; one of each kind
/// runs regardless.
pub fn alternate(
    start: Instant,
    seconds: f64,
    mut rep: impl FnMut(usize) -> Result<f64, String>,
) -> Result<[Vec<f64>; 2], String> {
    let mut samples: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    for turn in 0usize.. {
        let which = turn % 2;
        let estimate = samples[which].last().copied().unwrap_or(0.0);
        let have_both = samples.iter().all(|s| !s.is_empty());
        if have_both && start.elapsed().as_secs_f64() + estimate > seconds {
            break;
        }
        samples[which].push(rep(which)?);
    }
    Ok(samples)
}

/// What the entry point of a workload produced in process.
struct EntryOut {
    /// The artefact bytes `--format csv` would write.
    csv: String,
    /// Exact outputs, named as in [`Measured::outputs`].
    outputs: Vec<(&'static str, String)>,
    /// Exact work counters, named as per-layer metrics.
    counters: Vec<(&'static str, f64)>,
}

/// The spans of the three stages of [`Batch::entry_point`].
struct EntrySpans {
    run: &'static str,
    summarise: &'static str,
    serialise: &'static str,
}

const ENTRY_1T: EntrySpans =
    EntrySpans { run: "bench.run", summarise: "bench.summarise", serialise: "bench.serialise" };
const ENTRY_NT: EntrySpans = EntrySpans {
    run: "bench.run_nt",
    summarise: "bench.summarise_nt",
    serialise: "bench.serialise_nt",
};

impl Batch {
    fn with_flows(&self) -> bool {
        self.kind != Kind::Sweep
    }

    /// The embedding-search seed the CLI ends up using: its `--seed`
    /// option where the command line has one, its default otherwise.
    fn embed_seed(&self) -> u64 {
        match self.kind {
            Kind::Impair => self.seed,
            Kind::Sweep | Kind::Traffic => 2010,
        }
    }

    /// The `pr-cli` command line at `threads` worker threads.
    pub fn cli_args(&self, threads: usize) -> Vec<String> {
        let topology = &self.topology;
        let command = match self.kind {
            Kind::Sweep => format!("sweep {topology} --family single"),
            Kind::Traffic => format!("traffic {topology} --model gravity --family single"),
            Kind::Impair => format!(
                "impair {topology} --process gilbert --rate 5 --model gravity --seed {}",
                self.seed
            ),
        };
        format!("{command} --format csv --threads {threads}")
            .split_whitespace()
            .map(String::from)
            .collect()
    }

    /// The file name under `results/` that command line writes
    /// (`commands.rs`: subcommand, topology slug, then each explicitly
    /// given option).
    pub fn artefact_name(&self) -> String {
        let slug: String = self
            .topology
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        match self.kind {
            Kind::Sweep => format!("sweep_{slug}_single.csv"),
            Kind::Traffic => format!("traffic_{slug}_gravity_single.csv"),
            Kind::Impair => format!("impair_{slug}_gilbert_gravity_rate5_seed{}.csv", self.seed),
        }
    }

    /// The part of CLI stdout that names the scenario count.
    fn expected_stdout(&self, graph: &Graph) -> String {
        let links = graph.link_count();
        match self.kind {
            Kind::Sweep | Kind::Traffic => format!("family single-link ({links} scenarios, "),
            Kind::Impair => format!(" across {links} timelines"),
        }
    }

    /// Shape checks on an artefact that need no reference run: a
    /// header plus one row per CCDF threshold, per scenario, or at
    /// least per timeline.
    fn check_artefact_shape(&self, graph: &Graph, bytes: &[u8], ops: &mut Ops) {
        let lines = bytes.iter().filter(|&&b| b == b'\n').count();
        let ok = match self.kind {
            Kind::Sweep => lines == 1 + stretch::figure2_xs().len(),
            Kind::Traffic => lines == 1 + graph.link_count(),
            Kind::Impair => lines > graph.link_count(),
        };
        ops.check(ok, || format!("{}: unexpected shape, {lines} lines", self.artefact_name()));
    }

    /// The untraced run: set-up repetitions, then the real CLI at 1 and
    /// N threads in turn until `seconds` are used up.
    pub fn run_end_to_end(
        &self,
        paths: &Paths,
        threads_n: usize,
        seconds: f64,
        ops: &mut Ops,
    ) -> Result<Measured, String> {
        let start = Instant::now();
        let mut m = Measured::default();

        let (setup, setup_s) = timed_setups(seconds, || {
            let t = Instant::now();
            let done = setup(
                &mut Tracer::new(false),
                &self.topology,
                self.embed_seed(),
                self.with_flows(),
            )?;
            Ok((done, t.elapsed().as_secs_f64()))
        })?;
        m.median_of("setup_s", setup_s);

        let artefact = Artefact::claim(paths, &self.artefact_name());
        let mut rss = Vec::new();
        let mut first: Option<Vec<u8>> = None;
        let walls = alternate(start, seconds, |which| {
            let threads = [1, threads_n][which];
            let run = run_cli(&paths.cli, &self.cli_args(threads))?;
            let tag = format!("{} --threads {threads}", self.artefact_name());
            if !ops.check(run.usage.status.success(), || format!("{tag}: {}", run.usage.status)) {
                return Err(format!("pr-cli failed; its output was:\n{}", run.stdout));
            }
            if which == 1 {
                rss.push(run.peak_rss_mb);
            }
            let want = self.expected_stdout(&setup.graph);
            ops.check(run.stdout.contains(&want), || format!("{tag}: stdout lacks {want:?}"));
            if self.kind == Kind::Sweep {
                ops.check(run.stdout.contains(" undelivered: 0 "), || {
                    format!("{tag}: a genus-0 sweep left packets undelivered")
                });
            }
            let bytes = artefact.read()?;
            match &first {
                None => {
                    self.check_artefact_shape(&setup.graph, &bytes, ops);
                    first = Some(bytes);
                }
                // The determinism contract: same bytes on every
                // repetition and at every thread count.
                Some(reference) => {
                    ops.check(*reference == bytes, || format!("{tag}: artefact bytes differ"));
                }
            }
            Ok(run.wall_s)
        })?;
        let [wall_1t, wall_nt] = walls;
        m.median_of("wall_1t_s", wall_1t);
        m.median_of("wall_nt_s", wall_nt);
        m.median_of("peak_rss_mb", rss);
        if let Some(bytes) = &first {
            m.output("artefact_bytes", bytes.len());
            m.output("artefact_fnv64", fnv64_hex(bytes));
        }
        Ok(m)
    }

    /// The staged pipeline `load → embed → compile → demand →
    /// base_trees → [tree_children | fib_stage] → run → summarise →
    /// serialise` under one `pipeline` span. The hoisted stages are
    /// probes: the entry point repeats them internally, which is why
    /// they move `wall_*_s`.
    fn pipeline(&self, tr: &mut Tracer) -> Result<(Setup, EntryOut), String> {
        let root = tr.begin("pipeline");
        let setup = setup(tr, &self.topology, self.embed_seed(), self.with_flows())?;
        let graph = &setup.graph;
        let base = tr.span("graph.base_trees", 1, || AllPairs::compute_all_live(graph));
        if self.kind == Kind::Sweep {
            tr.span("graph.tree_children", graph.node_count() as u64, || {
                for d in graph.nodes() {
                    black_box(TreeChildren::build(graph, base.towards(d)));
                }
            });
        } else {
            tr.span("core.fib_stage", 1, || black_box(DenseFib::from_base(graph, &base)));
        }
        drop(base);
        let out = self.entry_point(tr, &setup, 1, &ENTRY_1T);
        tr.end(root, 1);
        Ok((setup, out))
    }

    /// What `pr-cli` does from the pr-bench entry point on: run at
    /// `threads` threads, summarise, render the CSV — one span each.
    fn entry_point(
        &self,
        tr: &mut Tracer,
        setup: &Setup,
        threads: usize,
        spans: &EntrySpans,
    ) -> EntryOut {
        let Setup { graph, net, flows } = setup;
        let mut outputs = Vec::new();
        let mut counters = Vec::new();
        let csv = match self.kind {
            Kind::Sweep => {
                let family = SingleLinkFailures::new(graph);
                let (samples, stats) =
                    tr.span(spans.run, 1, || stretch::run_with_stats(graph, net, &family, threads));
                // `pr-cli sweep` prints the three means, nothing more.
                tr.span(spans.summarise, 1, || {
                    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
                    black_box((
                        mean(&samples.reconvergence),
                        mean(&samples.fcp),
                        mean(&samples.packet_recycling),
                    ));
                });
                outputs.push(("evaluated_pairs", samples.evaluated_pairs.to_string()));
                outputs.push(("undelivered", samples.undelivered.to_string()));
                counters.extend([
                    ("bench.units", (family.len() * graph.node_count()) as f64),
                    ("bench.evaluated_pairs", samples.evaluated_pairs as f64),
                    ("graph.repairs", stats.repair.repairs as f64),
                    ("graph.cone_fraction", stats.repair.cone_fraction()),
                    ("core.memo_lookups", stats.memo.lookups as f64),
                    ("core.memo_hits", stats.memo.hits as f64),
                    ("core.memo_hit_rate", stats.memo.hit_rate()),
                    ("core.spliced_share", stats.memo.spliced_share()),
                ]);
                tr.span(spans.serialise, 1, || stretch::panel_csv(&samples, &stretch::figure2_xs()))
            }
            Kind::Traffic => {
                let flows = flows.as_ref().expect("traffic has demand");
                let family = SingleLinkFailures::new(graph);
                let rows =
                    tr.span(spans.run, 1, || traffic::run(graph, net, &family, flows, threads));
                let summary = tr.span(spans.summarise, 1, || traffic::summarize(&rows));
                let tally = &summary.tally;
                outputs.push(("flows", flows.len().to_string()));
                outputs.push(("demand_lost", format!("{:?}", tally.lost())));
                counters.extend([
                    ("bench.units", family.len() as f64),
                    (
                        "traffic.affected_demand_share",
                        (tally.evaluated + tally.disconnected) / tally.offered,
                    ),
                ]);
                tr.span(spans.serialise, 1, || traffic::rows_csv(&rows))
            }
            Kind::Impair => {
                let flows = flows.as_ref().expect("impair has demand");
                let family = self.impaired_family(graph);
                let rows =
                    tr.span(spans.run, 1, || impair::run(graph, net, &family, flows, threads));
                let summary = tr.span(spans.summarise, 1, || impair::summarize(&rows));
                let intervals: usize = rows.iter().map(|r| r.traffic.series.samples.len()).sum();
                outputs.push(("events", summary.events.to_string()));
                outputs.push(("intervals", intervals.to_string()));
                counters.extend([
                    ("bench.units", family.len() as f64),
                    ("scenarios.events", summary.events as f64),
                    ("traffic.intervals", intervals as f64),
                ]);
                tr.span(spans.serialise, 1, || impair::rows_csv(&rows))
            }
        };
        EntryOut { csv, outputs, counters }
    }

    /// The impaired family `pr-cli impair --process gilbert --rate 5`
    /// builds (20 ms mean burst is the CLI default).
    fn impaired_family<'g>(&self, graph: &'g Graph) -> Impaired<'g, OutageSweep<'g>> {
        Impaired::new(
            graph,
            OutageSweep::new(graph, OutageParams::default()),
            ImpairmentProcess::GilbertElliott { fail_rate_per_s: 5.0, mean_down_ns: 20_000_000 },
            self.seed,
        )
    }

    /// The traced run: the staged pipeline with spans, the same
    /// pipeline twice more with and without (tracing overhead), the
    /// entry point at N threads, the sampled-unit probes, engine
    /// dispatch, and one real CLI run per thread count for the
    /// process-level numbers.
    pub fn run_traced(
        &self,
        paths: &Paths,
        threads_n: usize,
        tr: &mut Tracer,
        ops: &mut Ops,
    ) -> Result<Measured, String> {
        let mut m = Measured::default();

        // The per-layer numbers come from the first pipeline, which
        // like every CLI run starts on a cold heap.
        let (setup, EntryOut { csv, outputs, counters }) = self.pipeline(tr)?;

        // Tracing overhead: the pipeline twice more, both warm, through
        // a disabled and through a recording tracer.
        let mut pipeline_s = [0.0; 2];
        for (enabled, seconds) in [false, true].into_iter().zip(&mut pipeline_s) {
            let t = Instant::now();
            let (_, again) = self.pipeline(&mut Tracer::new(enabled))?;
            *seconds = t.elapsed().as_secs_f64();
            ops.check(again.csv == csv, || "two in-process runs rendered different CSVs".into());
        }
        let [untraced_s, traced_s] = pipeline_s;
        m.set("bench.trace_overhead_pct", 100.0 * (traced_s - untraced_s) / untraced_s);

        for (span, metric) in [
            ("graph.load", "graph.load_ms"),
            ("embedding.search", "embedding.search_ms"),
            ("core.compile", "core.compile_ms"),
            ("traffic.flowset", "traffic.flowset_ms"),
            ("graph.base_trees", "graph.base_trees_ms"),
            ("graph.tree_children", "graph.tree_children_ms"),
            ("core.fib_stage", "core.fib_stage_ms"),
            (ENTRY_1T.run, "bench.run_1t_ms"),
            (ENTRY_1T.summarise, "bench.summarise_ms"),
            (ENTRY_1T.serialise, "bench.serialise_ms"),
        ] {
            m.set(metric, tr.self_ms(span));
        }
        if self.kind == Kind::Impair {
            // `impair::summarize` is nothing but the TallySeries time
            // integrals of pr-sim.
            m.set("sim.integrate_ms", tr.self_ms(ENTRY_1T.summarise));
        }
        m.set("bench.artefact_bytes", csv.len() as f64);
        for (name, value) in counters {
            m.set(name, value);
        }
        for (name, value) in outputs {
            m.output(name, value);
        }
        m.output("artefact_bytes", csv.len());
        m.output("artefact_fnv64", fnv64_hex(csv.as_bytes()));

        // The entry point again at N threads; its artefact must equal
        // the 1-thread one byte for byte.
        let nt = self.entry_point(tr, &setup, threads_n, &ENTRY_NT);
        ops.check(nt.csv == csv, || format!("in-process CSV differs at {threads_n} threads"));
        drop(nt);
        m.set("bench.run_nt_ms", tr.self_ms(ENTRY_NT.run));
        m.set("bench.speedup_nt", tr.self_ms(ENTRY_1T.run) / tr.self_ms(ENTRY_NT.run));

        let Setup { graph, net, flows } = &setup;
        let probe = tr.begin("probe");
        match self.kind {
            Kind::Sweep => probe_sweep(tr, graph, net, &mut m),
            Kind::Traffic => {
                let flows = flows.as_ref().expect("traffic has demand");
                probe_traffic(tr, graph, net, flows, &mut m);
                let pairs = (flows.len() * graph.link_count()) as f64;
                m.set("traffic.flows_per_s", pairs / (tr.self_ms(ENTRY_1T.run) * 1e-3));
            }
            Kind::Impair => {
                let flows = flows.as_ref().expect("impair has demand");
                self.probe_impair(tr, graph, net, flows, &mut m);
            }
        }
        let units = match self.kind {
            Kind::Sweep => graph.link_count() * graph.node_count(),
            Kind::Traffic | Kind::Impair => graph.link_count(),
        };
        tr.span("bench.dispatch", units as u64, || {
            black_box(engine::run_units(units, threads_n, || (), |_, i| i));
        });
        m.set("bench.dispatch_ns_per_unit", tr.self_ns_per_unit("bench.dispatch"));
        tr.end(probe, 1);

        // One real CLI run per thread count: child CPU times, and what
        // the process costs beyond the in-process stages.
        let artefact = Artefact::claim(paths, &self.artefact_name());
        let mut cli_wall_1t_ms = 0.0;
        for (threads, user, sys) in [
            (1, "cli.cpu_user_s_1t", "cli.cpu_sys_s_1t"),
            (threads_n, "cli.cpu_user_s_nt", "cli.cpu_sys_s_nt"),
        ] {
            let run = tr.span("cli.run", 1, || run_cli(&paths.cli, &self.cli_args(threads)))?;
            ops.check(run.usage.status.success(), || {
                format!("pr-cli --threads {threads}: {}", run.usage.status)
            });
            m.set(user, run.usage.user_s);
            m.set(sys, run.usage.sys_s);
            if threads == 1 {
                cli_wall_1t_ms = run.wall_s * 1e3;
            }
            // The CLI's artefact must be what the library renders.
            let bytes = artefact.read()?;
            ops.check(bytes == csv.as_bytes(), || {
                format!("pr-cli --threads {threads}: artefact differs from the in-process CSV")
            });
            let want = self.expected_stdout(graph);
            ops.check(run.stdout.contains(&want), || format!("pr-cli stdout lacks {want:?}"));
        }
        let in_process_ms: f64 = [
            "graph.load",
            "embedding.search",
            "core.compile",
            "traffic.flowset",
            ENTRY_1T.run,
            ENTRY_1T.summarise,
            ENTRY_1T.serialise,
        ]
        .iter()
        .map(|name| tr.self_ms(name))
        .sum();
        m.set("cli.overhead_ms", cli_wall_1t_ms - in_process_ms);
        Ok(m)
    }

    /// Impair probes: timeline generation, the serial timeline replay,
    /// and the small-n replay cost on this topology's single failures.
    fn probe_impair(
        &self,
        tr: &mut Tracer,
        graph: &Graph,
        net: &PrNetwork,
        flows: &FlowSet,
        m: &mut Measured,
    ) {
        let family = self.impaired_family(graph);
        let timelines: Vec<_> = tr.span("scenarios.timeline", family.len() as u64, || {
            (0..family.len()).map(|i| family.scenario(i)).collect()
        });
        m.set("scenarios.timeline_us", tr.self_ns_per_unit("scenarios.timeline") * 1e-3);

        let base = AllPairs::compute_all_live(graph);
        let dense = DenseFib::from_base(graph, &base);
        let agent = net.agent(graph);
        let ttl = generous_ttl(graph);
        let mut scratch = ReplayScratch::new();
        tr.span("traffic.timeline", timelines.len() as u64, || {
            for scenario in &timelines {
                black_box(replay_timeline(
                    graph,
                    &agent,
                    &dense,
                    &base,
                    flows,
                    scenario,
                    ttl,
                    &mut scratch,
                ));
            }
        });
        m.set("traffic.timeline_ms", tr.self_ms("traffic.timeline"));
        probe_replay(tr, graph, net, flows, &sampled_singles(graph, 1), m);
    }
}

/// Every `stride`-th single-link scenario of `graph`.
fn sampled_singles(graph: &Graph, stride: usize) -> Vec<LinkSet> {
    let family = SingleLinkFailures::new(graph);
    (0..family.len()).step_by(stride).map(|i| family.scenario(i)).collect()
}

/// Replays each of `sampled` through `replay_scenario_bitparallel`
/// with one reused scratch, and times `DenseFib::affected_into` per
/// (scenario, destination) on the same scenarios.
pub fn probe_replay(
    tr: &mut Tracer,
    graph: &Graph,
    net: &PrNetwork,
    flows: &FlowSet,
    sampled: &[LinkSet],
    m: &mut Measured,
) {
    let base = AllPairs::compute_all_live(graph);
    let dense = DenseFib::from_base(graph, &base);
    let agent = net.agent(graph);
    let ttl = generous_ttl(graph);
    let mut scratch = ReplayScratch::new();
    tr.span("traffic.replay", sampled.len() as u64, || {
        for failed in sampled {
            black_box(replay_scenario_bitparallel(
                graph,
                &agent,
                &dense,
                &base,
                flows,
                failed,
                ttl,
                &mut scratch,
            ));
        }
    });
    m.set("traffic.replay_us_per_scenario", tr.self_ns_per_unit("traffic.replay") * 1e-3);

    let mut affected = Vec::new();
    tr.span("core.affected_into", (sampled.len() * graph.node_count()) as u64, || {
        for failed in sampled {
            for dest in graph.nodes() {
                dense.affected_into(dest, failed, &mut affected);
                black_box(&affected);
            }
        }
    });
    m.set("core.affected_into_ns_per_dest", tr.self_ns_per_unit("core.affected_into"));
}

/// Traffic probes: scenario enumeration plus [`probe_replay`] on every
/// 16th scenario.
fn probe_traffic(
    tr: &mut Tracer,
    graph: &Graph,
    net: &PrNetwork,
    flows: &FlowSet,
    m: &mut Measured,
) {
    let family = SingleLinkFailures::new(graph);
    tr.span("scenarios.enumerate", family.len() as u64, || {
        for i in 0..family.len() {
            black_box(family.scenario(i));
        }
    });
    m.set("scenarios.enumerate_ns", tr.self_ns_per_unit("scenarios.enumerate"));
    probe_replay(tr, graph, net, flows, &sampled_singles(graph, TRAFFIC_SCENARIO_STRIDE), m);
}

/// Sweep probes: every 64th (scenario, destination) unit re-driven from
/// outside, one phase at a time over all sampled units — affected cone,
/// cone label repair, then every connected cone source walked with the
/// PR agent and with the cached FCP agent through the suffix memo.
fn probe_sweep(tr: &mut Tracer, graph: &Graph, net: &PrNetwork, m: &mut Measured) {
    let n = graph.node_count();
    let family = SingleLinkFailures::new(graph);
    let failed: Vec<LinkSet> = (0..family.len()).map(|i| family.scenario(i)).collect();
    let base = AllPairs::compute_all_live(graph);
    let children: Vec<TreeChildren> =
        graph.nodes().map(|d| TreeChildren::build(graph, base.towards(d))).collect();
    let units: Vec<(usize, NodeId)> = (0..family.len() * n)
        .step_by(SWEEP_UNIT_STRIDE)
        .map(|u| (u / n, NodeId((u % n) as u32)))
        .collect();

    // Cones of all sampled units, flattened: unit i owns
    // cones[starts[i]..starts[i + 1]].
    let mut cones: Vec<NodeId> = Vec::new();
    let mut starts = vec![0usize];
    let (mut cone, mut stack) = (Vec::new(), Vec::new());
    tr.span("graph.cone", units.len() as u64, || {
        for &(s, d) in &units {
            base.towards(d).affected_cone(
                graph,
                &children[d.index()],
                &failed[s],
                &mut cone,
                &mut stack,
            );
            cones.extend_from_slice(&cone);
            starts.push(cones.len());
        }
    });
    m.set("graph.cone_ns_per_unit", tr.self_ns_per_unit("graph.cone"));
    let cone_of = |i: usize| &cones[starts[i]..starts[i + 1]];
    let busy: Vec<usize> = (0..units.len()).filter(|&i| !cone_of(i).is_empty()).collect();

    let mut sp = SpScratch::new();
    tr.span("graph.repair", busy.len() as u64, || {
        for &i in &busy {
            let (s, d) = units[i];
            base.towards(d).repair_cone_labels(graph, &failed[s], cone_of(i), &mut sp);
        }
    });
    m.set("graph.repair_ns_per_unit", tr.self_ns_per_unit("graph.repair"));

    // Which cone sources stay connected (the sweep walks only those);
    // a second, unreported repair pass so the walk phases below can run
    // phase-major like the two above.
    let mut walked: Vec<(usize, NodeId)> = Vec::new();
    tr.span("probe.connectivity", busy.len() as u64, || {
        for &i in &busy {
            let (s, d) = units[i];
            base.towards(d).repair_cone_labels(graph, &failed[s], cone_of(i), &mut sp);
            walked.extend(
                cone_of(i).iter().filter(|&&src| sp.cone_cost(src).is_some()).map(|&src| (i, src)),
            );
        }
    });

    let ttl = generous_ttl(graph);
    let pr_agent = net.agent(graph);
    let mut pr_scratch = WalkScratch::new();
    let mut pr_memo = SuffixMemo::new();
    tr.span("core.walk_pr", walked.len() as u64, || {
        let mut current = usize::MAX;
        for &(i, src) in &walked {
            if i != current {
                pr_memo.begin_unit();
                current = i;
            }
            let (s, d) = units[i];
            black_box(walk_packet_spliced(
                graph,
                &pr_agent,
                src,
                d,
                &failed[s],
                ttl,
                &mut pr_scratch,
                &mut pr_memo,
            ));
        }
    });
    m.set("core.walk_pr_ns", tr.self_ns_per_unit("core.walk_pr"));

    let fcp = FcpAgent::cached_with_base(graph, &base);
    let mut fcp_scratch = WalkScratch::new();
    let mut fcp_memo = SuffixMemo::new();
    tr.span("baselines.walk_fcp", walked.len() as u64, || {
        let (mut current, mut scenario) = (usize::MAX, usize::MAX);
        for &(i, src) in &walked {
            let (s, d) = units[i];
            if s != scenario {
                fcp.begin_scenario();
                scenario = s;
            }
            if i != current {
                fcp_memo.begin_unit();
                current = i;
            }
            black_box(walk_packet_spliced(
                graph,
                &fcp,
                src,
                d,
                &failed[s],
                ttl,
                &mut fcp_scratch,
                &mut fcp_memo,
            ));
        }
    });
    m.set("baselines.walk_fcp_ns", tr.self_ns_per_unit("baselines.walk_fcp"));
}
