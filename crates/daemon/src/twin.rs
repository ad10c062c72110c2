//! The resident network twin.
//!
//! A [`Twin`] is everything a batch run hoists, kept warm across
//! events: the graph, the compiled PR network (its routing tables are
//! the failure-free base trees: the twin borrows [`PrNetwork::base`]
//! and holds no copy), the staged FIB, the resident demand flow set
//! (plus a uniform-unit companion for the paper's coverage metric), and
//! the reusable scratch arenas — one replay scratch per resident flow
//! set, so each keeps its failure-free baseline across queries. Link
//! events re-derive `live`, the twin's own all-pairs view,
//! **incrementally** — [`pr_graph::SpTree::repair_from`] against the
//! base trees, never a scratch rebuild — which is
//! bit-for-bit identical to a cold `AllPairs::compute` by PR 4's
//! repair contract (the base is computed over the empty failed set, a
//! subset of every event state). Queries ride the same primitives the
//! batch harness uses (`replay_scenario_bitparallel`,
//! `pr_bench::stretch::run_totals`) with the same hoisted inputs,
//! so every answer is bit-identical to a cold batch run on the same
//! failed set and demand model — the equivalence suite enforces this
//! at 1, 2 and 4 worker threads.
//!
//! Gauges are **lazy**: a link event only repairs trees and marks the
//! gauges dirty; the uniform + demand replays that refresh them run on
//! the next query, snapshot or `/metrics` scrape. This keeps
//! event-apply latency at repair cost (the `daemon_events` bench gates
//! it at ≥ 5x under a cold recompile).

use pr_bench::stretch::{self, Scheme};
use pr_core::{generous_ttl, DenseFib, PrAgent, PrHeader, PrNetwork};
use pr_graph::{AllPairs, Graph, LinkId, LinkSet, NodeId, SpScratch, SpTree};
use pr_traffic::{
    replay_scenario_bitparallel, FlowSet, GravityTraffic, HotspotTraffic, ReplayScratch,
    ScenarioTraffic, TrafficModel, UniformTraffic,
};
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::protocol::{
    CounterReport, CoverageReport, GaugeReport, QueryKind, Request, Response, SchemeStretch,
    SnapshotReport, StretchReport, TrafficReport,
};

/// A demand-matrix specification the daemon can (re)build its resident
/// flow set from — the protocol-level mirror of the CLI's
/// `--model/--flows/--hotspots/--boost/--seed` options.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DemandSpec {
    /// `gravity` | `uniform` | `hotspot`.
    pub model: String,
    /// Flows to sample (0 = the full all-pairs matrix).
    pub flows: usize,
    /// Hot-PoP count (`hotspot` only; `None` = `n/8`, min 1).
    pub hotspots: Option<usize>,
    /// Hot-PoP demand boost (`hotspot` only).
    pub boost: f64,
    /// Seed for sampling and hotspot picks.
    pub seed: u64,
}

impl DemandSpec {
    /// The default spec for a model name (full matrix, seed 2010).
    pub fn named(model: &str) -> DemandSpec {
        DemandSpec { model: model.to_string(), flows: 0, hotspots: None, boost: 8.0, seed: 2010 }
    }

    /// The gravity default the daemon starts with on located graphs.
    pub fn gravity() -> DemandSpec {
        DemandSpec::named("gravity")
    }

    /// Uniform unit demand (works on any graph).
    pub fn uniform() -> DemandSpec {
        DemandSpec::named("uniform")
    }

    /// Builds the flow set this spec describes (same validation as the
    /// CLI's `--model` path).
    pub fn build(&self, graph: &Graph) -> Result<FlowSet, String> {
        let model: Box<dyn TrafficModel> = match self.model.as_str() {
            "uniform" => Box::new(UniformTraffic::new(graph)),
            "gravity" => {
                if !graph.fully_located() {
                    return Err("the gravity model needs PoP coordinates on every node \
                                (use uniform or hotspot)"
                        .to_string());
                }
                Box::new(GravityTraffic::new(graph))
            }
            "hotspot" => {
                let n = graph.node_count();
                let hotspots = self.hotspots.unwrap_or((n / 8).max(1));
                if hotspots == 0 || hotspots >= n {
                    return Err(format!(
                        "hotspots wants a value in 1..{n} (the node count), got {hotspots}"
                    ));
                }
                if !(self.boost.is_finite() && self.boost > 0.0) {
                    return Err(format!("boost wants a finite factor > 0, got {}", self.boost));
                }
                Box::new(HotspotTraffic::new(graph, hotspots, self.boost, self.seed))
            }
            other => return Err(format!("model wants gravity|uniform|hotspot, got {other:?}")),
        };
        Ok(match self.flows {
            0 => FlowSet::all_pairs(model.as_ref()),
            n => FlowSet::sampled(model.as_ref(), n, self.seed),
        })
    }
}

/// Event counters that are not already tracked by the repair and walk
/// stats the twin reuses.
#[derive(Debug, Clone, Copy, Default)]
struct EventCounters {
    events: u64,
    link_down: u64,
    link_up: u64,
    demand_updates: u64,
    queries: u64,
}

/// Everything a cold batch run recompiles before it can answer the
/// queries the twin answers warm — the reference side of the
/// `daemon_events` ≥ 5x gate and the equivalence tests.
pub struct ColdState {
    /// Failure-free base trees.
    pub base: AllPairs,
    /// Live all-pairs view under the failed set (scratch Dijkstra).
    pub live: AllPairs,
    /// The staged dense FIB of the replay dataplane.
    pub dense: DenseFib,
}

/// Recompiles all failure-dependent routing state from scratch, the
/// way every batch CLI invocation does before its first answer.
pub fn cold_recompile(graph: &Graph, failed: &LinkSet) -> ColdState {
    let base = AllPairs::compute_all_live(graph);
    let live = AllPairs::compute(graph, failed);
    let dense = DenseFib::from_base(graph, &base);
    ColdState { base, live, dense }
}

/// The resident network twin. See the module docs for the state it
/// holds and the determinism contract its answers keep.
pub struct Twin {
    graph: Graph,
    net: PrNetwork,
    threads: usize,
    ttl: usize,
    dense: DenseFib,
    live: AllPairs,
    failed: LinkSet,
    demand: DemandSpec,
    flows: FlowSet,
    uniform: FlowSet,
    sp: SpScratch,
    /// Replay scratch of `flows`. One per resident flow set: a scratch
    /// keeps the baseline of the set it last replayed, and `gauges`
    /// replays both sets back to back.
    replay_demand: ReplayScratch<PrHeader>,
    /// Replay scratch of `uniform`.
    replay_uniform: ReplayScratch<PrHeader>,
    repair: pr_graph::RepairStats,
    walks: pr_core::MemoStats,
    counters: EventCounters,
    gauges: Option<GaugeReport>,
}

/// One of the twin's two resident flow sets.
#[derive(Clone, Copy)]
enum Resident {
    Demand,
    Uniform,
}

impl Twin {
    /// Compiles the resident state: the FIB staged from `net`'s base
    /// trees, the demand and uniform flow sets. This is the one-off
    /// cold cost the daemon pays so every later event is incremental.
    pub fn new(
        graph: Graph,
        net: PrNetwork,
        demand: DemandSpec,
        threads: usize,
    ) -> Result<Twin, String> {
        let flows = demand.build(&graph)?;
        let uniform = FlowSet::all_pairs(&UniformTraffic::new(&graph));
        let dense = DenseFib::from_base(&graph, net.base());
        // The failure-free live view *is* the base view (repair_from
        // over the empty set is the identity) — clone, don't recompute.
        let live = net.base().clone();
        let failed = LinkSet::empty(graph.link_count());
        let ttl = generous_ttl(&graph);
        Ok(Twin {
            graph,
            net,
            threads: threads.max(1),
            ttl,
            dense,
            live,
            failed,
            demand,
            flows,
            uniform,
            sp: SpScratch::new(),
            replay_demand: ReplayScratch::new(),
            replay_uniform: ReplayScratch::new(),
            repair: pr_graph::RepairStats::default(),
            walks: pr_core::MemoStats::default(),
            counters: EventCounters::default(),
            gauges: None,
        })
    }

    /// The resident graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The current failed set.
    pub fn failed_set(&self) -> &LinkSet {
        &self.failed
    }

    /// The live (incrementally repaired) tree towards `dest` — what
    /// the equivalence tests compare against a cold scratch build.
    pub fn live_tree(&self, dest: NodeId) -> &SpTree {
        self.live.towards(dest)
    }

    /// The failure-free trees the twin repairs from and replays over:
    /// its network's own — the twin holds no copy.
    pub fn base(&self) -> &AllPairs {
        self.net.base()
    }

    /// The resident demand spec.
    pub fn demand_spec(&self) -> &DemandSpec {
        &self.demand
    }

    /// Runs `f` so that a panic inside it — returned as the error —
    /// leaves the twin as it was: the failed set and the demand spec
    /// (its whole state) and the counters are put back, and the flow
    /// set, `live` and the gauges derived from them again, on fresh
    /// scratch arenas: one a panic went through may hold half a repair.
    pub(crate) fn surviving<R>(
        &mut self,
        f: impl FnOnce(&mut Twin) -> R,
    ) -> std::thread::Result<R> {
        let (failed, demand) = (self.failed.clone(), self.demand.clone());
        let counters = (self.repair, self.walks, self.counters);
        catch_unwind(AssertUnwindSafe(|| f(self))).inspect_err(|_| {
            self.flows = demand.build(&self.graph).expect("the resident spec has built before");
            (self.failed, self.demand) = (failed, demand);
            self.sp = SpScratch::new();
            self.replay_demand = ReplayScratch::new();
            self.replay_uniform = ReplayScratch::new();
            self.relabel();
            (self.repair, self.walks, self.counters) = counters;
        })
    }

    /// Handles one protocol request. Errors leave twin state
    /// untouched; `Shutdown` answers [`Response::Bye`] and leaves the
    /// process exit to the server loop.
    pub fn handle(&mut self, req: &Request) -> Response {
        match req {
            Request::LinkDown { link } => self.link_down(link),
            Request::LinkUp { link } => self.link_up(link),
            Request::SetDemand { model, flows, hotspots, boost, seed } => {
                let mut spec = DemandSpec::named(model);
                if let Some(flows) = flows {
                    spec.flows = *flows;
                }
                spec.hotspots = *hotspots;
                if let Some(boost) = boost {
                    spec.boost = *boost;
                }
                if let Some(seed) = seed {
                    spec.seed = *seed;
                }
                self.set_demand(spec)
            }
            Request::Query { what } => {
                self.counters.queries += 1;
                match what {
                    QueryKind::Coverage => Response::Coverage(self.query_coverage()),
                    QueryKind::Traffic => Response::Traffic(self.query_traffic()),
                    QueryKind::Stretch => Response::Stretch(self.query_stretch()),
                }
            }
            Request::Snapshot => Response::State(Box::new(self.snapshot())),
            Request::Shutdown => Response::Bye,
        }
    }

    /// Replays a resident flow set through the current failed set on
    /// the production dataplane, over the network's own base trees.
    fn replay(&mut self, set: Resident) -> ScenarioTraffic {
        let (flows, scratch) = match set {
            Resident::Demand => (&self.flows, &mut self.replay_demand),
            Resident::Uniform => (&self.uniform, &mut self.replay_uniform),
        };
        let agent: PrAgent<'_> = self.net.agent(&self.graph);
        replay_scenario_bitparallel(
            &self.graph,
            &agent,
            &self.dense,
            self.net.base(),
            flows,
            &self.failed,
            self.ttl,
            scratch,
        )
    }

    fn resolve_link(&self, spec: &str) -> Result<LinkId, String> {
        let (a, b) = spec.split_once('-').ok_or_else(|| format!("link wants A-B, got {spec:?}"))?;
        let na = self.graph.node_by_name(a).ok_or_else(|| format!("unknown node {a:?}"))?;
        let nb = self.graph.node_by_name(b).ok_or_else(|| format!("unknown node {b:?}"))?;
        self.graph.find_link(na, nb).ok_or_else(|| format!("no link between {a} and {b}"))
    }

    fn link_name(&self, link: LinkId) -> String {
        let (a, b) = self.graph.endpoints(link);
        format!("{}-{}", self.graph.node_name(a), self.graph.node_name(b))
    }

    /// Re-derives the live all-pairs view from the network's base
    /// trees by incremental cone repair — never a scratch rebuild.
    fn relabel(&mut self) {
        #[cfg(test)]
        assert!(!PANIC_IN_NEXT_RELABEL.take(), "injected: relabel panics");
        self.live = self.net.base().repair_from(&self.graph, &self.failed, &mut self.sp);
        self.repair.merge(&self.sp.take_stats());
        self.gauges = None;
    }

    fn link_down(&mut self, spec: &str) -> Response {
        let link = match self.resolve_link(spec) {
            Ok(link) => link,
            Err(message) => return Response::Error { message },
        };
        if !self.failed.insert(link) {
            return Response::Error { message: format!("link {spec} is already failed") };
        }
        self.relabel();
        self.counters.events += 1;
        self.counters.link_down += 1;
        Response::Done {
            info: format!("link {} down ({} failed)", self.link_name(link), self.failed.len()),
        }
    }

    fn link_up(&mut self, spec: &str) -> Response {
        let link = match self.resolve_link(spec) {
            Ok(link) => link,
            Err(message) => return Response::Error { message },
        };
        if !self.failed.remove(link) {
            return Response::Error { message: format!("link {spec} is not failed") };
        }
        self.relabel();
        self.counters.events += 1;
        self.counters.link_up += 1;
        Response::Done {
            info: format!("link {} up ({} failed)", self.link_name(link), self.failed.len()),
        }
    }

    fn set_demand(&mut self, spec: DemandSpec) -> Response {
        let flows = match spec.build(&self.graph) {
            Ok(flows) => flows,
            Err(message) => return Response::Error { message },
        };
        self.demand = spec;
        self.flows = flows;
        self.gauges = None;
        self.counters.events += 1;
        self.counters.demand_updates += 1;
        Response::Done {
            info: format!(
                "demand {} ({} flows, {:.1} offered)",
                self.flows.label(),
                self.flows.len(),
                self.flows.offered()
            ),
        }
    }

    fn query_traffic(&mut self) -> TrafficReport {
        let traffic = self.replay(Resident::Demand);
        TrafficReport {
            failed_links: self.failed.len(),
            max_link_utilisation: traffic.max_link_utilisation(),
            peak_link: traffic.peak_link.map(|l| self.link_name(l)),
            mean_weighted_stretch: traffic.tally.mean_weighted_stretch(),
            traffic,
        }
    }

    fn query_coverage(&mut self) -> CoverageReport {
        let traffic = self.replay(Resident::Uniform);
        CoverageReport {
            failed_links: self.failed.len(),
            coverage: traffic.tally.weighted_coverage(),
            demand_lost_fraction: traffic.tally.demand_lost_fraction(),
            tally: traffic.tally,
        }
    }

    fn query_stretch(&mut self) -> StretchReport {
        let family = vec![self.failed.clone()];
        let (totals, stats) = stretch::run_totals(&self.graph, &self.net, &family, self.threads);
        self.repair.merge(&stats.repair);
        self.walks.merge(&stats.memo);
        let report = totals.report();
        let schemes = Scheme::ALL
            .iter()
            .enumerate()
            .map(|(i, scheme)| SchemeStretch {
                scheme: scheme.label().to_string(),
                samples: report.samples[i] as usize,
                mean: report.mean[i],
                max: report.max[i],
            })
            .collect();
        StretchReport {
            failed_links: self.failed.len(),
            evaluated_pairs: report.evaluated_pairs as usize,
            disconnected_pairs: report.disconnected_pairs as usize,
            undelivered_fcp: report.undelivered_fcp as usize,
            undelivered_pr: report.undelivered_pr as usize,
            schemes,
        }
    }

    /// Current gauge values, refreshed by replaying the uniform and
    /// resident demand sets if an event dirtied them.
    pub fn gauges(&mut self) -> GaugeReport {
        if let Some(g) = self.gauges {
            return g;
        }
        let uniform = self.replay(Resident::Uniform);
        let traffic = self.replay(Resident::Demand);
        let g = GaugeReport {
            coverage: uniform.tally.weighted_coverage(),
            weighted_coverage: traffic.tally.weighted_coverage(),
            demand_lost_fraction: traffic.tally.demand_lost_fraction(),
            max_link_utilisation: traffic.max_link_utilisation(),
            failed_links: self.failed.len(),
        };
        self.gauges = Some(g);
        g
    }

    /// Counters since start (repair and walk stats folded in).
    pub fn counters(&self) -> CounterReport {
        CounterReport {
            events: self.counters.events,
            link_down: self.counters.link_down,
            link_up: self.counters.link_up,
            demand_updates: self.counters.demand_updates,
            queries: self.counters.queries,
            repairs: self.repair.repairs,
            full_rebuilds: self.repair.full_rebuilds,
            repair_cone_nodes: self.repair.cone_nodes,
            repair_slots: self.repair.repaired_slots,
            memo_walked_steps: self.walks.walked_steps,
        }
    }

    /// Full state dump (refreshes gauges).
    pub fn snapshot(&mut self) -> SnapshotReport {
        let gauges = self.gauges();
        SnapshotReport {
            fingerprint: format!("{:016x}", self.graph.fingerprint()),
            nodes: self.graph.node_count(),
            links: self.graph.link_count(),
            threads: self.threads,
            demand: self.flows.label().to_string(),
            flows: self.flows.len(),
            offered: self.flows.offered(),
            failed: self.failed.iter().map(|l| self.link_name(l)).collect(),
            gauges,
            counters: self.counters(),
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Makes this thread's next [`Twin::relabel`] panic before it
    /// re-derives `live`.
    pub(crate) static PANIC_IN_NEXT_RELABEL: std::cell::Cell<bool> =
        const { std::cell::Cell::new(false) };
}
