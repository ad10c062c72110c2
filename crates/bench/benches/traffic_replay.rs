//! Throughput micro-benchmark for flow replay, plus the flows/s
//! regression gate.
//!
//! Two rungs per topology:
//!
//! * `naive` — the oracle: one `walk_packet` per flow, fresh scratch,
//!   per-destination from-scratch survivor trees.
//! * `bitparallel` — the production dataplane
//!   (`replay_scenario_bitparallel`): a failure-free baseline per
//!   (FIB, flow set), corrected per scenario over the affected cones
//!   only. Under these single failures every cone is priced off its
//!   failed dart's episode, staged once per scenario: nothing is
//!   walked (a multi-failure scenario walks one point per group).
//!
//! Both produce the identical `ScenarioTraffic` (asserted by the
//! pr-traffic tests, proptests and the determinism suite); only the
//! time per replayed flow differs.
//!
//! **The gate** (runs even under `--test`, so CI's bench smoke step
//! enforces it): on the GÉANT single-failure sweep the production
//! dataplane must never fall below PR 5's recorded batched median
//! (19.0M flows/s) — an absolute floor, so no slower dataplane has to
//! be kept around as a denominator.

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use pr_core::{generous_ttl, DenseFib, DiscriminatorKind, PrMode, PrNetwork};
use pr_scenarios::{ScenarioFamily, SingleLinkFailures};
use pr_topologies::{Isp, Weighting};
use pr_traffic::{
    replay_scenario_bitparallel, replay_scenario_naive, FlowSet, GravityTraffic, ReplayScratch,
};

/// PR 5's recorded GÉANT batched median (BENCH_pr5.json): the hard
/// flows/s floor for the production dataplane.
const PR5_BATCHED_FLOWS_PER_SEC: f64 = 19.0e6;

struct Setup {
    graph: pr_graph::Graph,
    net: PrNetwork,
    dense: DenseFib,
    flows: FlowSet,
    singles: SingleLinkFailures,
    ttl: usize,
}

fn setup(isp: Isp) -> Setup {
    let graph = pr_topologies::load(isp, Weighting::Distance);
    let rot = pr_embedding::heuristics::thorough(&graph, 2010, 4, 20_000);
    let emb = pr_embedding::CellularEmbedding::new(&graph, rot).expect("connected");
    let net =
        PrNetwork::compile(&graph, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
    let dense = DenseFib::from_base(&graph, net.base());
    let flows = FlowSet::all_pairs(&GravityTraffic::new(&graph));
    let singles = SingleLinkFailures::new(&graph);
    let ttl = generous_ttl(&graph);
    Setup { graph, net, dense, flows, singles, ttl }
}

/// One full single-failure sweep through the production dataplane.
fn sweep_bitparallel(
    s: &Setup,
    agent: &pr_core::PrAgent<'_>,
    scratch: &mut ReplayScratch<pr_core::PrHeader>,
) {
    for i in 0..s.singles.len() {
        let failed = s.singles.scenario(i);
        black_box(replay_scenario_bitparallel(
            &s.graph,
            agent,
            &s.dense,
            s.net.base(),
            &s.flows,
            &failed,
            s.ttl,
            scratch,
        ));
    }
}

/// The flows/s regression gate on GÉANT. Panics (failing the bench
/// run, `--test` smoke mode included) when the production dataplane
/// drops below PR 5's recorded absolute median.
///
/// Measurement discipline: the best (minimum) of 20 rounds, a stable
/// point estimate on a shared machine where a best-of-3 flaked.
fn flows_per_sec_gate() {
    let s = setup(Isp::Geant);
    let agent = s.net.agent(&s.graph);
    let flows_per_sweep = (s.flows.len() * s.singles.len()) as f64;

    let mut scratch = ReplayScratch::new();
    sweep_bitparallel(&s, &agent, &mut scratch); // warmup: baseline + buffers
    let mut secs = f64::INFINITY;
    for _ in 0..20 {
        let t = Instant::now();
        sweep_bitparallel(&s, &agent, &mut scratch);
        secs = secs.min(t.elapsed().as_secs_f64());
    }

    let fps = flows_per_sweep / secs;
    println!(
        "gate: geant replay {:.1}M flows/s (floor {:.1}M)",
        fps / 1e6,
        PR5_BATCHED_FLOWS_PER_SEC / 1e6,
    );
    assert!(
        fps >= PR5_BATCHED_FLOWS_PER_SEC,
        "flows/s gate: replay fell below PR 5's recorded batched median \
         ({:.1}M < {:.1}M flows/s)",
        fps / 1e6,
        PR5_BATCHED_FLOWS_PER_SEC / 1e6,
    );
}

fn bench_traffic_replay(c: &mut Criterion) {
    flows_per_sec_gate();

    let mut group = c.benchmark_group("traffic_replay");
    for isp in [Isp::Abilene, Isp::Geant] {
        let s = setup(isp);
        let agent = s.net.agent(&s.graph);
        let label = format!("{isp}/{}flows-x{}scenarios", s.flows.len(), s.singles.len());

        // One iteration = the full single-failure sweep of the matrix
        // (the per-scenario work unit of pr_bench::traffic::run, run
        // serially so the variants compare dataplanes, not thread
        // counts).
        group.bench_with_input(BenchmarkId::new("bitparallel", &label), &s, |b, s| {
            let mut scratch = ReplayScratch::new();
            b.iter(|| sweep_bitparallel(s, &agent, &mut scratch))
        });

        group.bench_with_input(BenchmarkId::new("naive", &label), &s, |b, s| {
            b.iter(|| {
                for i in 0..s.singles.len() {
                    let failed = s.singles.scenario(i);
                    black_box(replay_scenario_naive(
                        &s.graph,
                        &agent,
                        s.net.base(),
                        &s.flows,
                        &failed,
                        s.ttl,
                    ));
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_traffic_replay);
criterion_main!(benches);
