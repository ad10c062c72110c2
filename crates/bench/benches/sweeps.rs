//! End-to-end scenario-sweep benchmarks — the numbers behind
//! `BENCH_pr2.json`.
//!
//! Three variants per topological experiment, same scenario space and
//! identical output (see `tests/determinism.rs`); the temporal sweep
//! has no separate serial form — `engine1` is its plain loop:
//!
//! * `serial` — the seed harness's nested loop (`run_serial`): honest
//!   recompute-per-decision FCP, one-shot walker allocations. This is
//!   the "before" an optimisation PR compares against. (It already
//!   includes the base-tree hoist, so it *understates* the seed's true
//!   cost — speedups reported against it are conservative.)
//! * `engine1` — the scenario-sweep engine pinned to one thread:
//!   hoisted base trees, per-worker FCP route caches, reusable walk
//!   scratches — the single-core fast path.
//! * `engine_mt` — the engine at the machine's available parallelism
//!   (identical to `engine1` on a 1-core container).

use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::OnceLock;

use pr_bench::{engine, paper_topology, EXPERIMENT_SEED};
use pr_core::{DiscriminatorKind, PrMode, PrNetwork};
use pr_embedding::CellularEmbedding;
use pr_graph::{Graph, LinkSet};
use pr_scenarios::{OutageParams, OutageSweep, ScenarioFamily, SingleLinkFailures};
use pr_sim::SimConfig;
use pr_topologies::Isp;

/// GÉANT — the largest paper topology, hence the headline sweep — with
/// its certified embedding, computed once per process.
fn geant() -> &'static (Graph, CellularEmbedding) {
    static CELL: OnceLock<(Graph, CellularEmbedding)> = OnceLock::new();
    CELL.get_or_init(|| paper_topology(Isp::Geant))
}

fn geant_pr() -> &'static PrNetwork {
    static CELL: OnceLock<PrNetwork> = OnceLock::new();
    CELL.get_or_init(|| {
        let (graph, embedding) = geant();
        PrNetwork::compile(
            graph,
            embedding.clone(),
            PrMode::DistanceDiscriminator,
            DiscriminatorKind::Hops,
        )
    })
}

fn geant_singles() -> &'static Vec<LinkSet> {
    static CELL: OnceLock<Vec<LinkSet>> = OnceLock::new();
    CELL.get_or_init(|| SingleLinkFailures::new(&geant().0).scenarios().collect())
}

/// Coverage sweep (E5 shape): all five schemes over every exhaustive
/// single-failure scenario of GÉANT.
fn sweep_coverage(c: &mut Criterion) {
    let (graph, embedding) = geant();
    let mut group = c.benchmark_group("sweep_coverage");
    group.bench_function("serial/geant", |b| {
        b.iter(|| pr_bench::coverage::run_serial(graph, embedding, 1, 50, EXPERIMENT_SEED))
    });
    group.bench_function("engine1/geant", |b| {
        b.iter(|| pr_bench::coverage::run(graph, embedding, 1, 50, EXPERIMENT_SEED, 1))
    });
    group.bench_function("engine_mt/geant", |b| {
        let threads = engine::default_threads();
        b.iter(|| pr_bench::coverage::run(graph, embedding, 1, 50, EXPERIMENT_SEED, threads))
    });
    group.finish();
}

/// Stretch sweep (Figure 2 shape): reconvergence, FCP and PR over
/// every exhaustive single-failure scenario of GÉANT.
fn sweep_stretch(c: &mut Criterion) {
    let (graph, _) = geant();
    let pr = geant_pr();
    let scenarios = geant_singles();
    let mut group = c.benchmark_group("sweep_stretch");
    group.bench_function("serial/geant", |b| {
        b.iter(|| pr_bench::stretch::run_serial(graph, pr, scenarios))
    });
    group.bench_function("engine1/geant", |b| {
        b.iter(|| pr_bench::stretch::run(graph, pr, scenarios, 1))
    });
    group.bench_function("engine_mt/geant", |b| {
        let threads = engine::default_threads();
        b.iter(|| pr_bench::stretch::run(graph, pr, scenarios, threads))
    });
    group.finish();
}

/// Temporal sweep (E10 shape generalised): the OC-192 outage family
/// across **all** single-link failures of GÉANT, replayed through the
/// discrete-event simulator under PR and a reconverging IGP. Short
/// flows keep one iteration benchmark-sized; the scenario count and
/// per-scenario work match the real experiment's shape.
fn sweep_temporal(c: &mut Criterion) {
    let (graph, _) = geant();
    let pr = geant_pr();
    let params = OutageParams {
        interval_ns: 500_000, // 2 kpps
        fail_at_ns: 10_000_000,
        down_for_ns: 40_000_000,
        igp_convergence_ns: 40_000_000,
        duration_ns: 80_000_000,
        ..OutageParams::default()
    };
    let family = OutageSweep::new(graph, params);
    let config = SimConfig::default();
    let mut group = c.benchmark_group("sweep_temporal");
    group.bench_function("engine1/geant", |b| {
        b.iter(|| pr_bench::temporal::run(graph, pr, &family, &config, EXPERIMENT_SEED, 1))
    });
    group.bench_function("engine_mt/geant", |b| {
        let threads = engine::default_threads();
        b.iter(|| pr_bench::temporal::run(graph, pr, &family, &config, EXPERIMENT_SEED, threads))
    });
    group.finish();
}

criterion_group!(sweeps, sweep_coverage, sweep_stretch, sweep_temporal);
criterion_main!(sweeps);
