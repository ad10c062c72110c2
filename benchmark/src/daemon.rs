//! The daemon workload: `pr-cli daemon run` over loopback TCP, driven
//! through the product's own `pr_daemon::Client` by one caller that
//! waits for every reply (closed loop, one client — the control plane
//! is serial by design).
//!
//! The unit of work is a *pass*: for each of the first
//! [`PASS_LINKS`] links of a seeded permutation, `link-down L → query
//! traffic → link-up L`. Every query answer is compared with the batch
//! twin (`pr_bench::traffic::run` on that one-scenario family).

use std::hint::black_box;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use pr_daemon::{
    protocol, read_addr_file, scrape_metrics, Client, DaemonAddrs, DemandSpec, EventLog, QueryKind,
    Request, Response, SnapshotReport, Twin,
};
use pr_graph::{AllPairs, Graph, LinkId, LinkSet, SpScratch};
use pr_scenarios::scenario_seed;
use pr_traffic::ScenarioTraffic;

use crate::batch::{alternate, probe_replay, setup, timed_setups, Setup};
use crate::proc::{vm_hwm_mb, Paths, Reaped, TempDir, Usage};
use crate::report::{fnv64_hex, Measured, Ops};
use crate::stats::{median, percentile, tail_percentile};
use crate::trace::Tracer;

/// Links one pass takes down and up again (3 round trips each).
pub const PASS_LINKS: usize = 8;

/// Down/up cycles in the event log the restart phase replays (two
/// logged events each).
const RESTART_LOG_CYCLES: usize = 400;

/// How long a daemon gets to publish its addr file, answer a shutdown,
/// or exit.
const PATIENCE: Duration = Duration::from_secs(20);

/// The daemon workload on concrete inputs.
#[derive(Debug, Clone)]
pub struct DaemonWorkload {
    /// Topology argument (`geant`, or `abilene` for the smoke run).
    pub topology: String,
    /// The run's `--seed`: orders the links.
    pub seed: u64,
    /// Passes of the traced run against the real daemon. A fixed
    /// number, so the counters of the final snapshot repeat exactly;
    /// 42 passes are 1 008 round trips, ten beyond the 99th percentile.
    pub traced_passes: usize,
}

/// The in-process side of the workload: the link schedule and the
/// batch twin's answer under each link of a pass.
struct Reference {
    setup: Setup,
    /// All links in the seeded order; a pass uses the first
    /// [`PASS_LINKS`] of them.
    order: Vec<LinkId>,
    /// `pr_bench::traffic::run` under each link of a pass.
    answers: Vec<ScenarioTraffic>,
}

impl Reference {
    fn build(topology: &str, seed: u64) -> Result<Reference, String> {
        let setup = setup(&mut Tracer::new(false), topology, 2010, true)?;
        let Setup { graph, net, flows } = &setup;
        // Fisher–Yates over the product's own splitmix64 hash.
        let mut order: Vec<LinkId> = graph.links().collect();
        for i in (1..order.len()).rev() {
            order.swap(i, (scenario_seed(seed, i) % (i as u64 + 1)) as usize);
        }
        let flows = flows.as_ref().expect("set up with demand");
        let answers = order
            .iter()
            .take(PASS_LINKS)
            .map(|&l| {
                let family = vec![LinkSet::from_links(graph.link_count(), [l])];
                pr_bench::traffic::run(graph, net, &family, flows, 1).remove(0).traffic
            })
            .collect();
        Ok(Reference { setup, order, answers })
    }

    fn graph(&self) -> &Graph {
        &self.setup.graph
    }

    /// The `"A-B"` name the control protocol addresses `link` by.
    fn name(&self, link: LinkId) -> String {
        let (a, b) = self.graph().endpoints(link);
        format!("{}-{}", self.graph().node_name(a), self.graph().node_name(b))
    }

    /// The links of one pass.
    fn pass_links(&self) -> &[LinkId] {
        &self.order[..PASS_LINKS.min(self.order.len())]
    }

    /// One single-link scenario per pass link.
    fn pass_scenarios(&self) -> Vec<LinkSet> {
        let capacity = self.graph().link_count();
        self.pass_links().iter().map(|&l| LinkSet::from_links(capacity, [l])).collect()
    }

    /// The requests of one pass, with the index of the pass link and
    /// of the verb (down, query, up) each belongs to.
    fn pass_requests(&self) -> impl Iterator<Item = (usize, usize, Request)> + '_ {
        self.pass_links().iter().enumerate().flat_map(|(i, &link)| {
            cycle(&self.name(link)).into_iter().enumerate().map(move |(verb, req)| (i, verb, req))
        })
    }

    /// Whether `resp` is the right answer to the `verb`-th request of
    /// the cycle on pass link `i`.
    fn reply_ok(&self, i: usize, verb: usize, resp: &Response) -> bool {
        match (verb, resp) {
            (1, Response::Traffic(report)) => {
                report.failed_links == 1 && report.traffic == self.answers[i]
            }
            (0 | 2, Response::Done { .. }) => true,
            _ => false,
        }
    }

    /// Fingerprint of the batch twin's answers for the pass links: an
    /// exact output of the program for this seed.
    fn answers_fingerprint(&self) -> String {
        let encoded: Vec<String> = self.answers.iter().map(protocol::encode).collect();
        fnv64_hex(encoded.join("\n").as_bytes())
    }
}

/// The three requests of one link's cycle.
fn cycle(link: &str) -> [Request; 3] {
    [
        Request::LinkDown { link: link.to_string() },
        Request::Query { what: QueryKind::Traffic },
        Request::LinkUp { link: link.to_string() },
    ]
}

/// A running `pr-cli daemon run` with an open control connection.
struct Live {
    proc: Reaped,
    client: Client,
    addrs: DaemonAddrs,
    /// Spawn → first `query traffic` answered, in seconds.
    first_answer_s: f64,
}

impl Live {
    /// Spawns the daemon, polls for its addr file every 0.1 ms,
    /// connects and asks the first question.
    fn start(
        paths: &Paths,
        topology: &str,
        threads: usize,
        dir: &Path,
        tag: &str,
        log: &Path,
        ops: &mut Ops,
    ) -> Result<Live, String> {
        let addr_file = dir.join(format!("{tag}.addr"));
        let out_path = dir.join(format!("{tag}.out"));
        let out = std::fs::File::create(&out_path)
            .map_err(|e| format!("create {}: {e}", out_path.display()))?;
        let err = out.try_clone().map_err(|e| format!("clone daemon output handle: {e}"))?;
        let start = Instant::now();
        let child = Command::new(&paths.cli)
            .args(["daemon", "run", topology, "--model", "gravity", "--threads"])
            .arg(threads.to_string())
            .arg("--addr-file")
            .arg(&addr_file)
            .arg("--log")
            .arg(log)
            .stdin(Stdio::null())
            .stdout(out)
            .stderr(err)
            .spawn()
            .map_err(|e| format!("spawn pr-cli daemon: {e}"))?;
        let mut proc = Reaped::new(child);
        let addrs = loop {
            if let Ok(addrs) = read_addr_file(&addr_file) {
                break addrs;
            }
            let died = proc.exited()?.map(|u| format!("exited ({})", u.status));
            let late = (start.elapsed() > PATIENCE).then(|| "published no addr file".to_string());
            if let Some(why) = died.or(late) {
                let said = std::fs::read_to_string(&out_path).unwrap_or_default();
                return Err(format!("daemon {tag} {why}; it said:\n{said}"));
            }
            std::thread::sleep(Duration::from_micros(100));
        };
        let mut client = Client::connect(&addrs.control)?;
        let resp = client.request(&Request::Query { what: QueryKind::Traffic })?;
        let first_answer_s = start.elapsed().as_secs_f64();
        ops.check(matches!(resp, Response::Traffic(_)), || {
            format!("daemon {tag}: first query answered {resp:?}")
        });
        Ok(Live { proc, client, addrs, first_answer_s })
    }

    /// One pass; returns the round-trip seconds of its requests in
    /// send order (`3 × PASS_LINKS` of them).
    fn pass(&mut self, reference: &Reference, ops: &mut Ops) -> Result<Vec<f64>, String> {
        let mut rtts = Vec::with_capacity(3 * PASS_LINKS);
        for (i, verb, req) in reference.pass_requests() {
            let t = Instant::now();
            let resp = self.client.request(&req)?;
            rtts.push(t.elapsed().as_secs_f64());
            ops.check(reference.reply_ok(i, verb, &resp), || {
                format!("{req:?} answered {resp:?}, which is not the batch twin's answer")
            });
        }
        Ok(rtts)
    }

    fn snapshot(&mut self) -> Result<SnapshotReport, String> {
        match self.client.request(&Request::Snapshot)? {
            Response::State(report) => Ok(*report),
            other => Err(format!("snapshot answered {other:?}")),
        }
    }

    /// Asks the daemon to shut down and reaps it.
    fn stop(mut self, ops: &mut Ops) -> Result<Usage, String> {
        let bye = self.client.request(&Request::Shutdown);
        ops.check(matches!(bye, Ok(Response::Bye)), || format!("shutdown answered {bye:?}"));
        let usage = self.proc.finish(PATIENCE)?;
        ops.check(usage.status.success(), || format!("daemon exited with {}", usage.status));
        Ok(usage)
    }
}

/// Checks a daemon's final state: every link back up, exactly the
/// logged events it was sent, all applied by incremental repair.
fn check_final_snapshot(snap: &SnapshotReport, passes: usize, ops: &mut Ops) {
    let events = (2 * PASS_LINKS * passes) as u64;
    ops.check(snap.failed.is_empty(), || format!("links left down: {:?}", snap.failed));
    ops.check(snap.counters.events == events, || {
        format!("daemon counted {} events, {events} were sent", snap.counters.events)
    });
    ops.check(snap.counters.repairs > 0 && snap.counters.full_rebuilds == 0, || {
        format!("events were not applied by incremental repair: {:?}", snap.counters)
    });
}

/// Starts a daemon (`start` returns spawn → first answer in seconds)
/// at least three times, and up to ten while a fifth of `seconds`
/// lasts.
fn repeated_starts(
    seconds: f64,
    mut start: impl FnMut(usize) -> Result<f64, String>,
) -> Result<Vec<f64>, String> {
    let mut samples = Vec::new();
    let t = Instant::now();
    while samples.len() < 3 || (samples.len() < 10 && t.elapsed().as_secs_f64() < 0.2 * seconds) {
        samples.push(start(samples.len())?);
    }
    Ok(samples)
}

impl DaemonWorkload {
    /// The untraced run: cold starts, then passes against a
    /// `--threads 1` and a `--threads N` daemon in turn until `seconds`
    /// are used up.
    pub fn run_end_to_end(
        &self,
        paths: &Paths,
        threads_n: usize,
        seconds: f64,
        ops: &mut Ops,
    ) -> Result<Measured, String> {
        let reference = Reference::build(&self.topology, self.seed)?;
        let dir = TempDir::create(paths, "daemon")?;
        let start = Instant::now();
        let mut m = Measured::default();
        m.output("answers_fnv64", reference.answers_fingerprint());

        let mut cold = 0;
        let ((), setup_s) = timed_setups(seconds, || {
            cold += 1;
            let log = dir.0.join(format!("cold{cold}.log"));
            let live = Live::start(paths, &self.topology, 1, &dir.0, "cold", &log, ops)?;
            let sample = live.first_answer_s;
            live.stop(ops)?;
            Ok(((), sample))
        })?;
        m.median_of("setup_s", setup_s);

        let mut lives = Vec::new();
        for (tag, threads) in [("t1", 1), ("tn", threads_n)] {
            let log = dir.0.join(format!("{tag}.log"));
            lives.push(Live::start(paths, &self.topology, threads, &dir.0, tag, &log, ops)?);
        }
        let walls = alternate(start, seconds, |which| {
            Ok(lives[which].pass(&reference, ops)?.iter().sum())
        })?;
        for (live, walls) in lives.iter_mut().zip(&walls) {
            check_final_snapshot(&live.snapshot()?, walls.len(), ops);
        }
        let tn = lives.pop().expect("two daemons");
        m.set("peak_rss_mb", vm_hwm_mb(tn.proc.pid())?);
        tn.stop(ops)?;
        lives.pop().expect("two daemons").stop(ops)?;
        let [wall_1t, wall_nt] = walls;
        m.median_of("wall_1t_s", wall_1t);
        m.median_of("wall_nt_s", wall_nt);
        Ok(m)
    }

    /// A twin on this workload's topology, compiled outside any span.
    fn fresh_twin(&self, threads: usize) -> Result<Twin, String> {
        let Setup { graph, net, .. } = setup(&mut Tracer::new(false), &self.topology, 2010, false)?;
        Twin::new(graph, net, DemandSpec::gravity(), threads)
    }

    /// What `pr-cli daemon run` does before it listens, one span per
    /// stage. The demand, base-tree and FIB stages are probes of what
    /// `Twin::new` then does for real. Returns the compiled twin.
    fn probe_startup(&self, tr: &mut Tracer, m: &mut Measured) -> Result<Twin, String> {
        let root = tr.begin("pipeline");
        let Setup { graph, net, .. } = setup(tr, &self.topology, 2010, false)?;
        tr.span("traffic.flowset", 1, || DemandSpec::gravity().build(&graph))?;
        let base = tr.span("graph.base_trees", 1, || AllPairs::compute_all_live(&graph));
        tr.span("core.fib_stage", 1, || black_box(pr_core::DenseFib::from_base(&graph, &base)));
        let twin =
            tr.span("daemon.twin_new", 1, || Twin::new(graph, net, DemandSpec::gravity(), 1))?;
        tr.end(root, 1);
        for (span, metric) in [
            ("graph.load", "graph.load_ms"),
            ("embedding.search", "embedding.search_ms"),
            ("core.compile", "core.compile_ms"),
            ("traffic.flowset", "traffic.flowset_ms"),
            ("graph.base_trees", "graph.base_trees_ms"),
            ("core.fib_stage", "core.fib_stage_ms"),
            ("daemon.twin_new", "daemon.twin_new_ms"),
        ] {
            m.set(metric, tr.self_ms(span));
        }
        Ok(twin)
    }

    /// The pass in process, 50 times through `Twin::handle` on a 1- and
    /// an N-thread twin in turn: median µs per verb (1-thread twin),
    /// median ms per pass at both thread counts, and encode + decode of
    /// every message one pass exchanges. Returns what handling and
    /// codec cost per request, in µs.
    fn probe_pass(
        &self,
        tr: &mut Tracer,
        reference: &Reference,
        mut twins: [Twin; 2],
        ops: &mut Ops,
        m: &mut Measured,
    ) -> f64 {
        const PASSES: usize = 50;
        let mut per_verb: [Vec<f64>; 3] = Default::default();
        let mut pass_ms: [Vec<f64>; 2] = Default::default();
        let mut exchanged: Vec<(Request, Response)> = Vec::new();
        let span = tr.begin("daemon.handle");
        for pass in 0..PASSES {
            for (which, twin) in twins.iter_mut().enumerate() {
                let t_pass = Instant::now();
                for (i, verb, req) in reference.pass_requests() {
                    let t = Instant::now();
                    let resp = twin.handle(&req);
                    if which == 0 {
                        per_verb[verb].push(t.elapsed().as_secs_f64() * 1e6);
                    }
                    ops.check(reference.reply_ok(i, verb, &resp), || {
                        format!("in process, {req:?} answered {resp:?}")
                    });
                    if which == 0 && pass == 0 {
                        exchanged.push((req, resp));
                    }
                }
                pass_ms[which].push(t_pass.elapsed().as_secs_f64() * 1e3);
            }
        }
        tr.end(span, (PASSES * 2 * 3 * PASS_LINKS) as u64);
        let handle = per_verb.map(|v| median(&v));
        m.set("daemon.handle_down_us", handle[0]);
        m.set("daemon.handle_query_us", handle[1]);
        m.set("daemon.handle_up_us", handle[2]);
        let [run_1t, run_nt] = pass_ms.map(|v| median(&v));
        m.set("bench.run_1t_ms", run_1t);
        m.set("bench.run_nt_ms", run_nt);
        m.set("bench.speedup_nt", run_1t / run_nt);

        let mut codec_us = Vec::new();
        tr.span("daemon.codec", (20 * exchanged.len()) as u64, || {
            for _ in 0..20 {
                for (req, resp) in &exchanged {
                    let t = Instant::now();
                    let req_back: Result<Request, _> = protocol::decode(&protocol::encode(req));
                    let resp_back: Result<Response, _> = protocol::decode(&protocol::encode(resp));
                    codec_us.push(t.elapsed().as_secs_f64() * 1e6);
                    assert!(req_back.is_ok() && resp_back.is_ok(), "protocol messages round-trip");
                }
            }
        });
        let codec = median(&codec_us);
        m.set("daemon.codec_us", codec);
        handle.iter().sum::<f64>() / 3.0 + codec
    }

    /// The event log: writes the 800-event restart log through
    /// `EventLog::record` (median µs per event), replays it into a
    /// fresh twin, and returns the snapshot a daemon restarted over it
    /// must report.
    fn probe_event_log(
        &self,
        tr: &mut Tracer,
        reference: &Reference,
        path: &Path,
        ops: &mut Ops,
        m: &mut Measured,
    ) -> Result<(f64, SnapshotReport), String> {
        let mut record_us = Vec::new();
        let mut log = EventLog::open(path)?;
        let span = tr.begin("daemon.log_record");
        for i in 0..RESTART_LOG_CYCLES {
            let link = reference.order[i % reference.order.len()];
            let [down, _, up] = cycle(&reference.name(link));
            for req in [down, up] {
                let t = Instant::now();
                log.record(&req)?;
                record_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
        tr.end(span, 2 * RESTART_LOG_CYCLES as u64);
        drop(log);
        let record = median(&record_us);
        m.set("daemon.log_record_us", record);
        let size = std::fs::metadata(path).map_err(|e| format!("stat {}: {e}", path.display()))?;
        m.set("daemon.log_bytes", size.len() as f64);

        let mut twin = self.fresh_twin(1)?;
        let replayed = tr.span("daemon.log_replay", 1, || EventLog::replay(path, &mut twin))?;
        ops.check(replayed == 2 * RESTART_LOG_CYCLES, || format!("replayed {replayed} events"));
        m.set("daemon.log_replay_ms", tr.self_ms("daemon.log_replay"));
        // The replayed state after the one query `Live::start` asks.
        twin.handle(&Request::Query { what: QueryKind::Traffic });
        Ok((record, twin.snapshot()))
    }

    /// The traced run: what the daemon compiles at start, the pass
    /// replayed in process through `Twin::handle`, codec and event-log
    /// costs on their own, then the real daemon — cold starts and
    /// restarts over an 800-event log (up to a fifth of `seconds`
    /// each), `traced_passes` passes with every round trip timed, and
    /// `/metrics` scrapes.
    pub fn run_traced(
        &self,
        paths: &Paths,
        threads_n: usize,
        seconds: f64,
        tr: &mut Tracer,
        ops: &mut Ops,
    ) -> Result<Measured, String> {
        let reference = Reference::build(&self.topology, self.seed)?;
        let dir = TempDir::create(paths, "daemon")?;
        let mut m = Measured::default();
        m.output("answers_fnv64", reference.answers_fingerprint());

        let twin = self.probe_startup(tr, &mut m)?;

        let probe = tr.begin("probe");
        let twins = [twin, self.fresh_twin(threads_n)?];
        let handle_codec_us = self.probe_pass(tr, &reference, twins, ops, &mut m);
        let restart_log = dir.0.join("restart.log");
        let (record_us, want_snapshot) =
            self.probe_event_log(tr, &reference, &restart_log, ops, &mut m)?;

        // The tree repair a link event pays and the replay a query
        // pays, each on its own.
        let Setup { graph, net, flows } = &reference.setup;
        let scenarios = reference.pass_scenarios();
        let base = AllPairs::compute_all_live(graph);
        let mut sp = SpScratch::new();
        let mut repair_us = Vec::new();
        tr.span("graph.repair_from", (20 * scenarios.len()) as u64, || {
            for _ in 0..20 {
                for failed in &scenarios {
                    let t = Instant::now();
                    black_box(base.repair_from(graph, failed, &mut sp));
                    repair_us.push(t.elapsed().as_secs_f64() * 1e6);
                }
            }
        });
        m.set("graph.repair_from_us", median(&repair_us));
        let flows = flows.as_ref().expect("set up with demand");
        let repeated: Vec<LinkSet> =
            std::iter::repeat_n(&scenarios, 20).flatten().cloned().collect();
        probe_replay(tr, graph, net, flows, &repeated, &mut m);
        tr.end(probe, 1);

        // The real daemon.
        let live_span = tr.begin("daemon.live");
        let cold_s = repeated_starts(seconds, |i| {
            let log = dir.0.join(format!("cold{i}.log"));
            let live = Live::start(paths, &self.topology, 1, &dir.0, "cold", &log, ops)?;
            let sample = live.first_answer_s;
            live.stop(ops)?;
            Ok(sample)
        })?;
        let in_process_start_ms: f64 =
            ["graph.load", "embedding.search", "core.compile", "daemon.twin_new"]
                .iter()
                .map(|s| tr.self_ms(s))
                .sum();
        m.set("cli.overhead_ms", median(&cold_s) * 1e3 - in_process_start_ms);

        let log = dir.0.join("t1.log");
        let mut t1 = Live::start(paths, &self.topology, 1, &dir.0, "t1", &log, ops)?;
        let mut rtts_us: [Vec<f64>; 3] = Default::default();
        for _ in 0..self.traced_passes {
            for (k, rtt) in t1.pass(&reference, ops)?.into_iter().enumerate() {
                rtts_us[k % 3].push(rtt * 1e6);
            }
        }
        let pooled: Vec<f64> = rtts_us.iter().flatten().copied().collect();
        let rtt_p50 = median(&pooled);
        let tail = tail_percentile(pooled.len());
        m.set("daemon.rtt_p50_us", rtt_p50);
        m.set("daemon.rtt_tail_us", percentile(&pooled, tail));
        m.set("daemon.rtt_tail_pct", tail);
        m.set("daemon.rtt_samples", pooled.len() as f64);
        let [down, query, up] = rtts_us.map(|v| median(&v));
        m.set("daemon.rtt_down_p50_us", down);
        m.set("daemon.rtt_query_p50_us", query);
        m.set("daemon.rtt_up_p50_us", up);
        // What a round trip costs beyond handling, codec and logging
        // (two of a cycle's three requests are logged).
        m.set("daemon.transport_us", rtt_p50 - handle_codec_us - record_us * 2.0 / 3.0);

        let mut scrape_ms = Vec::new();
        for _ in 0..30 {
            let t = Instant::now();
            let page = scrape_metrics(&t1.addrs.metrics);
            scrape_ms.push(t.elapsed().as_secs_f64() * 1e3);
            ops.check(page.as_ref().is_ok_and(|p| p.contains("pr_demand_lost_fraction")), || {
                format!("/metrics scrape: {page:?}")
            });
        }
        m.set("daemon.scrape_p50_ms", median(&scrape_ms));
        let snap = t1.snapshot()?;
        check_final_snapshot(&snap, self.traced_passes, ops);
        m.set("daemon.events", snap.counters.events as f64);
        m.set("daemon.repairs", snap.counters.repairs as f64);
        m.set("daemon.full_rebuilds", snap.counters.full_rebuilds as f64);
        let usage = t1.stop(ops)?;
        m.set("cli.cpu_user_s_1t", usage.user_s);
        m.set("cli.cpu_sys_s_1t", usage.sys_s);

        // One pass against a --threads N daemon, for its CPU times.
        let log = dir.0.join("tn.log");
        let mut tn = Live::start(paths, &self.topology, threads_n, &dir.0, "tn", &log, ops)?;
        tn.pass(&reference, ops)?;
        let usage = tn.stop(ops)?;
        m.set("cli.cpu_user_s_nt", usage.user_s);
        m.set("cli.cpu_sys_s_nt", usage.sys_s);

        // Restarts over the 800-event log → first answer. Nothing
        // mutating is sent, so every restart replays the same log.
        let restart_s = repeated_starts(seconds, |_| {
            let mut live =
                Live::start(paths, &self.topology, 1, &dir.0, "restart", &restart_log, ops)?;
            let sample = live.first_answer_s;
            let snap = live.snapshot()?;
            ops.check(snap == want_snapshot, || {
                format!("restarted daemon reports {snap:?}, the replayed twin {want_snapshot:?}")
            });
            live.stop(ops)?;
            Ok(sample)
        })?;
        m.set("daemon.restart_ms", median(&restart_s) * 1e3);
        tr.end(live_span, 1);
        Ok(m)
    }
}
