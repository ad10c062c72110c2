//! The engine's contract: parallel sweeps are **bit-identical** to the
//! serial reference, regardless of thread count.
//!
//! `coverage::run` / `stretch::run_with_stats` / `stretch::run_rows`
//! fan (scenario × destination) work units over a racing worker pool,
//! use per-worker FCP route caches, fold blocks of units on the
//! workers and merge the blocks in unit order while the pool runs;
//! `run_serial` is the plain nested loop with the honest
//! recompute-per-decision FCP agent, plain `walk_packet` and scratch
//! Dijkstra — nothing of the unit kernel.
//! `temporal::run` fans one discrete-event simulation pair per timed
//! scenario; it and `impair::run` are
//! held against their own one-thread run, which is the plain inline
//! loop (`tests/golden_impair.rs` pins the impaired bytes
//! independently). Any divergence — a
//! reordered sample, a cache changing a decision, a shared RNG stream,
//! a lost unit — fails these tests exactly.

use pr_bench::stretch::{ScenarioRow, StretchSamples};
use pr_core::{DiscriminatorKind, PrMode, PrNetwork};
use pr_embedding::{CellularEmbedding, RotationSystem};
use pr_graph::Graph;
use pr_scenarios::{
    DetectionDelaySweep, FlapSweep, NodeFailures, OutageParams, OutageSweep, SampledMultiFailures,
    ScenarioFamily, SingleLinkFailures, TemporalFamily,
};
use pr_sim::SimConfig;
use pr_topologies::{Isp, Weighting};

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];
/// Pools held against their sweep's own one-thread run (the inline
/// loop: no thread, no channel).
const POOLED_THREAD_COUNTS: [usize; 2] = [2, 4];
/// Pool sizes the link sweeps run at: the inline loop, even and odd
/// pools (blocks and chunks split unevenly), and more workers than
/// the machine has cores.
const SWEEP_THREAD_COUNTS: [usize; 5] = [1, 2, 3, 4, 7];
const SEEDS: [u64; 2] = [7, 2010];

/// A cheap (not necessarily genus-0) embedding: determinism must hold
/// on livelock-prone embeddings too, where walks end in loop drops.
fn identity_embedding(graph: &Graph) -> CellularEmbedding {
    CellularEmbedding::new(graph, RotationSystem::identity(graph)).expect("connected topology")
}

/// A genus-0 embedding like the experiments use (cheap search budget).
fn planar_embedding(graph: &Graph, seed: u64) -> CellularEmbedding {
    let rot = pr_embedding::heuristics::thorough(graph, seed, 4, 10_000);
    CellularEmbedding::new(graph, rot).expect("connected topology")
}

fn coverage_is_deterministic_on(graph: &Graph, embedding: &CellularEmbedding) {
    for seed in SEEDS {
        let reference = pr_bench::coverage::run_serial(graph, embedding, 2, 5, seed);
        for threads in SWEEP_THREAD_COUNTS {
            let rows = pr_bench::coverage::run(graph, embedding, 2, 5, seed, threads);
            assert_eq!(
                rows, reference,
                "coverage rows diverged from serial at seed {seed}, {threads} threads"
            );
        }
    }
}

/// The [`ScenarioRow`] of scenario `index`, aggregated here from the
/// serial oracle's samples for that scenario alone.
fn oracle_row(index: usize, failures: usize, s: &StretchSamples, xs: &[f64]) -> ScenarioRow {
    let schemes = [&s.reconvergence, &s.fcp, &s.packet_recycling];
    ScenarioRow {
        scenario: index as u64,
        failures: failures as u64,
        evaluated_pairs: s.evaluated_pairs as u64,
        disconnected_pairs: s.disconnected_pairs as u64,
        undelivered: s.undelivered as u64,
        undelivered_fcp: s.undelivered_fcp as u64,
        undelivered_pr: s.undelivered_pr as u64,
        samples: schemes.map(|v| v.len() as u64),
        sum: schemes.map(|v| v.iter().fold(0.0, |sum, &x| sum + x)),
        max: schemes.map(|v| v.iter().fold(0.0, |max: f64, &x| max.max(x))),
        above: schemes
            .iter()
            .flat_map(|v| xs.iter().map(|&x| v.iter().filter(|&&s| s > x).count() as u64))
            .collect(),
    }
}

/// Per-scenario rows from the serial oracle, one scenario at a time.
fn oracle_rows(graph: &Graph, pr: &PrNetwork, family: &dyn ScenarioFamily) -> Vec<ScenarioRow> {
    let xs = pr_bench::stretch::figure2_xs();
    (0..family.len())
        .map(|i| {
            let failed = family.scenario(i);
            let alone = pr_bench::stretch::run_serial(graph, pr, &vec![failed.clone()]);
            oracle_row(i, failed.len(), &alone, &xs)
        })
        .collect()
}

fn stretch_is_deterministic_on(graph: &Graph, pr: &PrNetwork, family: &dyn ScenarioFamily) {
    let reference = pr_bench::stretch::run_serial(graph, pr, family);
    let reference_rows = oracle_rows(graph, pr, family);
    let mut reference_stats = None;
    for threads in SWEEP_THREAD_COUNTS {
        let (samples, stats) = pr_bench::stretch::run_with_stats(graph, pr, family, threads);
        // Full struct equality: f64 sample vectors compare bit-for-bit
        // (every value is produced by the identical expression on the
        // identical walk, in the identical order).
        assert_eq!(
            samples,
            reference,
            "stretch samples diverged at {threads} threads ({})",
            family.label()
        );
        // The counters have no serial oracle; they must not depend on
        // the pool.
        assert_eq!(
            *reference_stats.get_or_insert(stats),
            stats,
            "sweep statistics diverged at {threads} threads ({})",
            family.label()
        );
        let (rows, row_stats) = pr_bench::stretch::run_rows(graph, pr, family, threads, 0);
        assert_eq!(
            rows,
            reference_rows,
            "scenario rows diverged at {threads} threads ({})",
            family.label()
        );
        // The row fold sees the blocks the panel sees: same counters.
        assert_eq!(
            row_stats,
            stats,
            "row-path statistics diverged at {threads} threads ({})",
            family.label()
        );
    }
}

#[test]
fn abilene_coverage_parallel_equals_serial() {
    let g = pr_topologies::load(Isp::Abilene, Weighting::Distance);
    coverage_is_deterministic_on(&g, &planar_embedding(&g, 2010));
}

#[test]
fn teleglobe_coverage_parallel_equals_serial() {
    let g = pr_topologies::load(Isp::Teleglobe, Weighting::Distance);
    // Identity embedding: positive genus, so PR-basic (and possibly
    // PR-DD) livelock on some pairs — drops must merge identically too.
    coverage_is_deterministic_on(&g, &identity_embedding(&g));
}

#[test]
fn abilene_stretch_parallel_equals_serial() {
    let g = pr_topologies::load(Isp::Abilene, Weighting::Distance);
    let emb = planar_embedding(&g, 2010);
    let pr = PrNetwork::compile(&g, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
    // Exhaustive single failures, streamed…
    stretch_is_deterministic_on(&g, &pr, &SingleLinkFailures::new(&g));
    // …node failures, streamed…
    stretch_is_deterministic_on(&g, &pr, &NodeFailures::new(&g));
    // …and sampled multi-failures at several seeds.
    for seed in SEEDS {
        let multi = SampledMultiFailures::new(&g, 3, 6, seed);
        stretch_is_deterministic_on(&g, &pr, &multi);
    }
}

#[test]
fn teleglobe_stretch_parallel_equals_serial() {
    let g = pr_topologies::load(Isp::Teleglobe, Weighting::Distance);
    let emb = planar_embedding(&g, 2010);
    let pr = PrNetwork::compile(&g, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
    for seed in SEEDS {
        let multi = SampledMultiFailures::new(&g, 2, 5, seed);
        stretch_is_deterministic_on(&g, &pr, &multi);
    }
}

/// A generated ISP mesh under the identity rotation: positive genus,
/// so the §5 guarantee is off, some connected pairs livelock, and the
/// drop counts have to merge identically too. 24 nodes are one
/// destination per block, like Abilene and Teleglobe.
#[test]
fn positive_genus_mesh_sweeps_parallel_equal_serial() {
    let g = pr_graph::generators::synth_from_spec("isp:24:7").expect("synth spec");
    let emb = identity_embedding(&g);
    assert!(emb.genus() > 0, "the identity rotation must not embed the mesh planar");
    coverage_is_deterministic_on(&g, &emb);
    let pr = PrNetwork::compile(&g, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
    let singles = SingleLinkFailures::new(&g);
    stretch_is_deterministic_on(&g, &pr, &singles);
    let undelivered = pr_bench::stretch::run(&g, &pr, &singles, 3).undelivered_pr;
    assert!(undelivered > 0, "the fixture must make some connected pairs drop");
    stretch_is_deterministic_on(&g, &pr, &SampledMultiFailures::new(&g, 3, 6, 2010));

    // The same family at 40 nodes, where a block folds two
    // destinations: still the serial oracle's bits.
    let g = pr_graph::generators::synth_from_spec("isp:40:7").expect("synth spec");
    let pr = PrNetwork::compile(
        &g,
        identity_embedding(&g),
        PrMode::DistanceDiscriminator,
        DiscriminatorKind::Hops,
    );
    stretch_is_deterministic_on(&g, &pr, &SingleLinkFailures::new(&g));
}

/// The PR 8 acceptance criterion in miniature: per-scenario aggregates
/// from the suffix-**memoized** walk engine (`run_rows`, what `pr
/// sweep` ships) must be bit-identical to rows aggregated from the
/// plain `walk_packet` oracle (`run_serial`) at every pool size. The
/// isp-1000 exhaustive sweep this gates is too slow for tier-1, so a
/// 120-node instance of the same synthetic ISP family stands in — and
/// of its single failures every eighth, because the oracle's honest
/// FCP agent runs a Dijkstra per hop; the equivalence argument
/// (DESIGN.md §6) is size-independent.
#[test]
fn synth_mesh_memoized_rows_equal_plain_rows() {
    let g = pr_graph::generators::isp_mesh(&pr_graph::generators::MeshParams::new(120, 2010));
    let rot = pr_embedding::RotationSystem::geometric(&g).expect("mesh has coordinates");
    let emb = CellularEmbedding::new(&g, rot).expect("connected topology");
    let pr = PrNetwork::compile(&g, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
    let singles = SingleLinkFailures::new(&g);
    let sampled: Vec<_> = (0..singles.len()).step_by(8).map(|i| singles.scenario(i)).collect();
    let reference = oracle_rows(&g, &pr, &sampled);
    assert!(reference.iter().all(|row| row.evaluated_pairs > 0 && row.undelivered == 0));
    for threads in SWEEP_THREAD_COUNTS {
        let (memoized, _) = pr_bench::stretch::run_rows(&g, &pr, &sampled, threads, 0);
        assert_eq!(
            memoized, reference,
            "memoized ScenarioRows diverged from the plain walker at {threads} threads"
        );
    }
}

/// The sweep's work, as counts: a single-failure unit repairs its cone
/// once — the opener's repair, whose labels price the FCP lane — so
/// the FCP route memo fills nothing and only the PR lane walks, once
/// per busy unit (a unit some source's failure-free path of which
/// crosses the failed link). Under two failures the FCP lane walks and
/// its memo repairs on its own.
#[test]
fn synth_mesh_single_failure_units_repair_their_cone_once() {
    let g = pr_graph::generators::isp_mesh(&pr_graph::generators::MeshParams::new(120, 2010));
    let rot = pr_embedding::RotationSystem::geometric(&g).expect("mesh has coordinates");
    let emb = CellularEmbedding::new(&g, rot).expect("connected topology");
    let pr = PrNetwork::compile(&g, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
    let singles = SingleLinkFailures::new(&g);
    let base = pr_graph::AllPairs::compute_all_live(&g);
    let on_tree = |dst, link| {
        g.nodes().any(|u| base.towards(dst).next_dart(u).is_some_and(|d| d.link() == link))
    };
    let busy: usize = g.links().map(|l| g.nodes().filter(|&dst| on_tree(dst, l)).count()).sum();
    assert!(busy > 10_000, "{busy} busy units");
    for threads in [1, 4] {
        let (_, stats) = pr_bench::stretch::run_rows(&g, &pr, &singles, threads, 0);
        assert_eq!(stats.repair.repairs, busy as u64, "{threads} threads");
        let routes = stats.routes;
        assert_eq!((routes.repaired, routes.cone_nodes), (0, 0), "{threads} threads");
        // One PR point walk per busy unit, and no FCP walk at all.
        assert_eq!(stats.memo.walks, busy as u64, "{threads} threads");
    }
    let pairs = SampledMultiFailures::new(&g, 2, 12, 2010);
    let (_, stats) = pr_bench::stretch::run_rows(&g, &pr, &pairs, 2, 0);
    assert_eq!(stats.repair.repairs, 1_031);
    assert_eq!((stats.routes.repaired, stats.routes.cone_nodes), (1_748, 10_599));
}

// ---- temporal sweeps ---------------------------------------------------

/// Abilene with its certified embedding, cheap search budget.
fn abilene_net() -> (Graph, PrNetwork) {
    let g = pr_topologies::load(Isp::Abilene, Weighting::Distance);
    let emb = planar_embedding(&g, 2010);
    let pr = PrNetwork::compile(&g, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
    (g, pr)
}

/// Sweep-friendly outage parameters (short flows keep the test quick).
fn quick_params() -> OutageParams {
    OutageParams {
        interval_ns: 500_000, // 2 kpps
        fail_at_ns: 10_000_000,
        down_for_ns: 40_000_000,
        igp_convergence_ns: 40_000_000,
        duration_ns: 80_000_000,
        ..OutageParams::default()
    }
}

fn temporal_is_deterministic_on(graph: &Graph, pr: &PrNetwork, family: &dyn TemporalFamily) {
    let config = SimConfig::default();
    let reference = pr_bench::temporal::run(graph, pr, family, &config, 1);
    assert_eq!(reference.len(), family.len());
    for threads in POOLED_THREAD_COUNTS {
        let rows = pr_bench::temporal::run(graph, pr, family, &config, threads);
        assert_eq!(
            rows,
            reference,
            "temporal rows diverged from serial at {threads} threads ({})",
            family.label()
        );
    }
}

#[test]
fn abilene_outage_sweep_parallel_equals_serial() {
    let (g, pr) = abilene_net();
    temporal_is_deterministic_on(&g, &pr, &OutageSweep::new(&g, quick_params()));
}

#[test]
fn abilene_flap_sweep_parallel_equals_serial() {
    let (g, pr) = abilene_net();
    let fam = FlapSweep::new(&g, quick_params()).with_holddown(8_000_000);
    temporal_is_deterministic_on(&g, &pr, &fam);
}

#[test]
fn abilene_detection_delay_sweep_parallel_equals_serial() {
    let (g, pr) = abilene_net();
    let link = g.links().next().unwrap();
    let fam =
        DetectionDelaySweep::new(&g, link, vec![0, 100_000, 1_000_000, 10_000_000], quick_params());
    temporal_is_deterministic_on(&g, &pr, &fam);
}

// ---- traffic replay ----------------------------------------------------

use pr_traffic::{FlowSet, GravityTraffic, HotspotTraffic, UniformTraffic};

fn traffic_is_deterministic_on(
    graph: &Graph,
    pr: &PrNetwork,
    family: &dyn ScenarioFamily,
    flows: &FlowSet,
) {
    // The serial reference replays every flow one packet at a time
    // (fresh scratch, no FIB, no SPT repair); the production engine
    // run must match it bit for bit — f64 demand sums included (the
    // demand grid makes them exact, hence independent of how the
    // dataplane groups additions and subtractions) — at any thread
    // count.
    let reference = pr_bench::traffic::run_serial(graph, pr, family, flows);
    assert_eq!(reference.len(), family.len());
    for threads in THREAD_COUNTS {
        let rows = pr_bench::traffic::run(graph, pr, family, flows, threads);
        assert_eq!(
            rows,
            reference,
            "production rows diverged from serial at {threads} threads ({}, {})",
            family.label(),
            flows.label()
        );
        assert_eq!(
            pr_bench::traffic::summarize(&rows),
            pr_bench::traffic::summarize(&reference),
            "summaries diverged at {threads} threads"
        );
    }
}

#[test]
fn abilene_traffic_replay_parallel_equals_serial() {
    let (g, pr) = abilene_net();
    let singles = SingleLinkFailures::new(&g);
    traffic_is_deterministic_on(&g, &pr, &singles, &FlowSet::all_pairs(&GravityTraffic::new(&g)));
    for seed in SEEDS {
        let multi = SampledMultiFailures::new(&g, 3, 6, seed);
        let flows = FlowSet::sampled(&HotspotTraffic::with_defaults(&g, seed), 120, seed);
        traffic_is_deterministic_on(&g, &pr, &multi, &flows);
    }
}

#[test]
fn geant_gravity_traffic_replay_parallel_equals_serial() {
    // The acceptance scenario: `pr traffic geant --model gravity
    // --family single --threads 4` must report weighted coverage, %
    // demand lost and max-link-utilisation bit-identically at 1/2/4
    // threads.
    let g = pr_topologies::load(Isp::Geant, Weighting::Distance);
    let pr = PrNetwork::compile(
        &g,
        planar_embedding(&g, 2010),
        PrMode::DistanceDiscriminator,
        DiscriminatorKind::Hops,
    );
    let flows = FlowSet::all_pairs(&GravityTraffic::new(&g));
    traffic_is_deterministic_on(&g, &pr, &SingleLinkFailures::new(&g), &flows);
}

#[test]
fn teleglobe_traffic_replay_parallel_equals_serial() {
    // Identity embedding: positive genus, so some walks end in drops —
    // lost demand must merge identically too.
    let g = pr_topologies::load(Isp::Teleglobe, Weighting::Distance);
    let pr = PrNetwork::compile(
        &g,
        identity_embedding(&g),
        PrMode::DistanceDiscriminator,
        DiscriminatorKind::Hops,
    );
    let flows = FlowSet::all_pairs(&GravityTraffic::new(&g));
    traffic_is_deterministic_on(&g, &pr, &SingleLinkFailures::new(&g), &flows);
}

// ---- impaired timelines ------------------------------------------------

use pr_scenarios::{Impaired, ImpairmentProcess};

/// Quick Gilbert–Elliott decoration of the outage sweep.
fn quick_gilbert(graph: &Graph, seed: u64) -> Impaired<'_, OutageSweep<'_>> {
    Impaired::new(
        graph,
        OutageSweep::new(graph, quick_params()),
        ImpairmentProcess::GilbertElliott { fail_rate_per_s: 25.0, mean_down_ns: 8_000_000 },
        seed,
    )
}

fn impair_is_deterministic_on(
    graph: &Graph,
    pr: &PrNetwork,
    family: &dyn TemporalFamily,
    flows: &FlowSet,
) {
    let reference = pr_bench::impair::run(graph, pr, family, flows, 1);
    assert_eq!(reference.len(), family.len());
    for threads in POOLED_THREAD_COUNTS {
        let rows = pr_bench::impair::run(graph, pr, family, flows, threads);
        assert_eq!(
            rows,
            reference,
            "impaired timeline rows diverged from serial at {threads} threads ({})",
            family.label()
        );
    }
    // Same family, same seed, fresh run: byte-identical artefact.
    let again = pr_bench::impair::run(graph, pr, family, flows, 1);
    assert_eq!(
        pr_bench::impair::rows_csv(&again),
        pr_bench::impair::rows_csv(&reference),
        "two same-seed runs must render the identical CSV"
    );
}

#[test]
fn abilene_impaired_sweep_parallel_equals_serial() {
    let (g, pr) = abilene_net();
    let flows = FlowSet::all_pairs(&GravityTraffic::new(&g));
    for seed in SEEDS {
        impair_is_deterministic_on(&g, &pr, &quick_gilbert(&g, seed), &flows);
        // Stacked decorators: Impaired<jitter, Impaired<storm, outage>>.
        let stacked = Impaired::new(
            &g,
            Impaired::new(
                &g,
                OutageSweep::new(&g, quick_params()),
                ImpairmentProcess::FlapStorm {
                    storms: 2,
                    radius_km: 800.0,
                    down_for_ns: 10_000_000,
                },
                seed,
            ),
            ImpairmentProcess::DetectionJitter { max_extra_ns: 2_000_000 },
            seed.rotate_left(17),
        );
        impair_is_deterministic_on(&g, &pr, &stacked, &flows);
    }
}

#[test]
fn geant_impaired_sweep_parallel_equals_serial() {
    // The acceptance scenario: `pr impair geant --process gilbert
    // --model gravity --format csv` must be bit-identical at 1/2/4
    // threads and across two same-seed runs.
    let g = pr_topologies::load(Isp::Geant, Weighting::Distance);
    let pr = PrNetwork::compile(
        &g,
        planar_embedding(&g, 2010),
        PrMode::DistanceDiscriminator,
        DiscriminatorKind::Hops,
    );
    let flows = FlowSet::all_pairs(&GravityTraffic::new(&g));
    impair_is_deterministic_on(&g, &pr, &quick_gilbert(&g, 2010), &flows);
}

/// The acceptance identity: weighted coverage under the uniform *unit*
/// matrix is **bit-identical** to the unweighted coverage experiment's
/// PR-DD cell, scenario family and conditioning held equal.
#[test]
fn uniform_unit_traffic_matches_unweighted_coverage_bitwise() {
    let g = pr_topologies::load(Isp::Abilene, Weighting::Distance);
    let emb = planar_embedding(&g, 2010);
    let pr =
        PrNetwork::compile(&g, emb.clone(), PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
    // Coverage row k=1 sweeps exactly the single-link family.
    let coverage = pr_bench::coverage::run(&g, &emb, 1, 0, 7, 2);
    let dd = &coverage[0].pr_dd;

    let flows = FlowSet::all_pairs(&UniformTraffic::new(&g));
    let singles = SingleLinkFailures::new(&g);
    let s = pr_bench::traffic::summarize(&pr_bench::traffic::run(&g, &pr, &singles, &flows, 2));

    assert_eq!(s.tally.evaluated, dd.evaluated as f64, "same conditioning, unit demand");
    assert_eq!(s.tally.evaluated_delivered, dd.delivered as f64);
    assert_eq!(s.weighted_coverage(), dd.ratio(), "bit-identical coverage ratio");
}
