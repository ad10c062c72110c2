//! The engine's contract: parallel sweeps are **bit-identical** to the
//! serial reference, regardless of thread count.
//!
//! `coverage::run` / `stretch::run_with_stats` / `stretch::run_rows`
//! fan scenarios over a racing worker pool, use per-worker FCP route
//! caches and single-failure mirrors, fold each scenario's units on the
//! worker that claims it and merge the scenarios in order while the
//! pool runs;
//! the kit's `coverage_serial` / `stretch_serial` are the plain nested
//! loop with the honest recompute-per-decision FCP agent, plain
//! `walk_packet` and scratch Dijkstra — nothing of the unit kernel.
//! `temporal::run` fans one discrete-event simulation pair per timed
//! scenario; it and `impair::run` are
//! held against their own one-thread run, which is the plain inline
//! loop (`tests/golden_impair.rs` pins the impaired bytes
//! independently). Any divergence — a
//! reordered sample, a cache changing a decision, a shared RNG stream,
//! a lost unit — fails these tests exactly.

use pr_bench::stretch::{ScenarioRow, StretchSamples};
use pr_core::PrNetwork;
use pr_embedding::CellularEmbedding;
use pr_graph::Graph;
use pr_scenarios::{
    FlapSweep, NodeFailures, OutageSweep, SampledMultiFailures, ScenarioFamily, SingleLinkFailures,
    TemporalFamily,
};
use pr_sim::SimConfig;
use pr_testkit::fixtures::quick_outage;
use pr_testkit::nets::{isp, synth, Net};
use pr_testkit::oracle::{coverage_serial, stretch_serial, traffic_serial};
use pr_topologies::Isp;

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];
/// Pools held against their sweep's own one-thread run (the inline
/// loop: no thread, no channel).
const POOLED_THREAD_COUNTS: [usize; 2] = [2, 4];
/// Pool sizes the link sweeps run at: the inline loop, even and odd
/// pools (chunks split unevenly), and more workers than
/// the machine has cores.
const SWEEP_THREAD_COUNTS: [usize; 5] = [1, 2, 3, 4, 7];
const SEEDS: [u64; 2] = [7, 2010];

/// `run(threads)` must be `reference`, whatever the pool size.
fn same_at_every_pool_size<T: PartialEq + std::fmt::Debug>(
    what: &str,
    reference: &T,
    pools: &[usize],
    run: impl Fn(usize) -> T,
) {
    for &threads in pools {
        assert_eq!(&run(threads), reference, "{what} diverged at {threads} threads");
    }
}

fn coverage_is_deterministic_on(graph: &Graph, embedding: &CellularEmbedding) {
    for seed in SEEDS {
        let reference = coverage_serial(graph, embedding, 2, 5, seed);
        let what = format!("coverage rows (seed {seed})");
        same_at_every_pool_size(&what, &reference, &SWEEP_THREAD_COUNTS, |threads| {
            pr_bench::coverage::run(graph, embedding, 2, 5, seed, threads)
        });
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
            let alone = stretch_serial(graph, pr, &vec![failed.clone()]);
            oracle_row(i, failed.len(), &alone, &xs)
        })
        .collect()
}

fn stretch_is_deterministic_on(graph: &Graph, pr: &PrNetwork, family: &dyn ScenarioFamily) {
    use pr_bench::stretch::{run_rows, run_with_stats};
    // Full struct equality: f64 sample vectors compare bit-for-bit
    // (every value is produced by the identical expression on the
    // identical walk, in the identical order). The counters have no
    // serial oracle; they must not depend on the pool, and the row
    // fold sees the blocks the panel sees: same counters.
    let (_, stats) = run_with_stats(graph, pr, family, 1);
    let panel = (stretch_serial(graph, pr, family), stats);
    let what = format!("stretch samples and statistics ({})", family.label());
    same_at_every_pool_size(&what, &panel, &SWEEP_THREAD_COUNTS, |threads| {
        run_with_stats(graph, pr, family, threads)
    });
    let rows = (oracle_rows(graph, pr, family), stats);
    let what = format!("scenario rows and statistics ({})", family.label());
    same_at_every_pool_size(&what, &rows, &SWEEP_THREAD_COUNTS, |threads| {
        run_rows(graph, pr, family, threads, 0)
    });
}

#[test]
fn abilene_coverage_parallel_equals_serial() {
    let net = Net::abilene();
    coverage_is_deterministic_on(&net.g, net.pr.embedding());
}

#[test]
fn teleglobe_coverage_parallel_equals_serial() {
    // Identity embedding: positive genus, so PR-basic (and possibly
    // PR-DD) livelock on some pairs — drops must merge identically too.
    let net = Net::identity(isp(Isp::Teleglobe));
    coverage_is_deterministic_on(&net.g, net.pr.embedding());
}

#[test]
fn abilene_stretch_parallel_equals_serial() {
    let Net { g, pr, .. } = Net::abilene();
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
    let Net { g, pr, .. } = Net::searched(isp(Isp::Teleglobe));
    for seed in SEEDS {
        let multi = SampledMultiFailures::new(&g, 2, 5, seed);
        stretch_is_deterministic_on(&g, &pr, &multi);
    }
}

/// A generated ISP mesh under the identity rotation: positive genus,
/// so the §5 guarantee is off, some connected pairs livelock, and the
/// drop counts have to merge identically too.
#[test]
fn positive_genus_mesh_sweeps_parallel_equal_serial() {
    let Net { g, pr, .. } = Net::identity(synth("isp:24:7"));
    assert!(pr.embedding().genus() > 0, "the identity rotation must not embed the mesh planar");
    coverage_is_deterministic_on(&g, pr.embedding());
    let singles = SingleLinkFailures::new(&g);
    stretch_is_deterministic_on(&g, &pr, &singles);
    let undelivered = pr_bench::stretch::run(&g, &pr, &singles, 3).undelivered_pr;
    assert!(undelivered > 0, "the fixture must make some connected pairs drop");
    stretch_is_deterministic_on(&g, &pr, &SampledMultiFailures::new(&g, 3, 6, 2010));

    // The same family at 40 nodes: still the serial oracle's bits.
    let Net { g, pr, .. } = Net::identity(synth("isp:40:7"));
    stretch_is_deterministic_on(&g, &pr, &SingleLinkFailures::new(&g));
}

/// The sweep's acceptance criterion in miniature: per-scenario
/// aggregates from the unit kernel (`run_rows`, what `pr sweep` ships:
/// priced lanes, episode chains, one walk per point) must be
/// bit-identical to rows aggregated from the plain `walk_packet`
/// oracle (`stretch_serial`) at every pool size. The
/// isp-1000 exhaustive sweep this gates is too slow for tier-1, so a
/// 120-node instance of the same synthetic ISP family stands in — and
/// of its single failures every eighth, because the oracle's honest
/// FCP agent runs a Dijkstra per hop; the equivalence argument
/// (DESIGN.md §6) is size-independent.
#[test]
fn synth_mesh_sweep_rows_equal_plain_rows() {
    let Net { g, pr, .. } = Net::mesh120();
    let singles = SingleLinkFailures::new(&g);
    let sampled: Vec<_> = (0..singles.len()).step_by(8).map(|i| singles.scenario(i)).collect();
    let reference = oracle_rows(&g, &pr, &sampled);
    assert!(reference.iter().all(|row| row.evaluated_pairs > 0 && row.undelivered == 0));
    for threads in SWEEP_THREAD_COUNTS {
        let (rows, _) = pr_bench::stretch::run_rows(&g, &pr, &sampled, threads, 0);
        assert_eq!(
            rows, reference,
            "sweep ScenarioRows diverged from the plain walker at {threads} threads"
        );
    }
}

/// The sweep's work, as counts: a single-failure unit has its cone
/// answered once — by the opener, whose survivor labels price the FCP
/// lane; a repair for a unit whose tree crosses the link forward, the
/// mirror of those for one that crosses it in reverse — so the FCP
/// route memo fills nothing, and neither lane walks: each busy unit (a
/// unit some source's failure-free path of which crosses the failed
/// link) is priced. Under two failures the FCP lane walks and its memo
/// repairs on its own.
#[test]
fn synth_mesh_single_failure_units_repair_their_cone_once() {
    let Net { g, pr, base, .. } = Net::mesh120();
    let singles = SingleLinkFailures::new(&g);
    let on_tree = |dst, link| {
        g.nodes().any(|u| base.towards(dst).next_dart(u).is_some_and(|d| d.link() == link))
    };
    let busy: usize = g.links().map(|l| g.nodes().filter(|&dst| on_tree(dst, l)).count()).sum();
    assert!(busy > 10_000, "{busy} busy units");
    let busy = busy as u64;
    // Of those, the units whose tree crosses the link as its reverse
    // dart read their cone off the forward units' mirror.
    let reverse = |dst, link: pr_graph::LinkId| {
        let (_, b) = g.endpoints(link);
        base.towards(dst).next_dart(b) == Some(link.reverse())
    };
    let mirrored: usize = g.links().map(|l| g.nodes().filter(|&dst| reverse(dst, l)).count()).sum();
    let mirrored = mirrored as u64;
    assert!(0 < mirrored && mirrored < busy, "{mirrored} of {busy} units mirrored");
    for threads in [1, 4] {
        let (_, stats) = pr_bench::stretch::run_rows(&g, &pr, &singles, threads, 0);
        assert_eq!(stats.repair.repairs, busy, "{threads} threads");
        assert_eq!(stats.repair.mirrored, mirrored, "{threads} threads");
        let routes = stats.routes;
        assert_eq!((routes.repaired, routes.cone_nodes), (0, 0), "{threads} threads");
        // Under one failure neither lane walks: every busy unit is
        // priced, FCP from the repaired labels and PR from one episode,
        // and no flow unit walks, chains or answers a source.
        let lanes = stats.lanes;
        let priced = (lanes.fcp_priced, lanes.pr_priced, lanes.pr_episodes);
        assert_eq!(priced, (busy, busy, busy), "{threads} threads");
        assert_eq!(stats.memo, pr_core::MemoStats::default(), "{threads} threads");
    }
    // Under two the FCP lane's walks return, and the counters say so;
    // the PR lane prices its points as episode chains (a planar
    // embedding delivers every one), and the two add up to the points.
    let pairs = SampledMultiFailures::new(&g, 2, 12, 2010);
    let (_, stats) = pr_bench::stretch::run_rows(&g, &pr, &pairs, 2, 0);
    assert_eq!(stats.repair.repairs, 1_031);
    assert_eq!((stats.routes.repaired, stats.routes.cone_nodes), (1_748, 10_599));
    assert_eq!(stats.lanes, pr_bench::stretch::LaneStats::default());
    let settled = (stats.memo.walks, stats.memo.chained);
    assert_eq!(settled, (1_483, 1_339), "{:?}", stats.memo);
}

// ---- temporal sweeps ---------------------------------------------------

fn temporal_is_deterministic_on(graph: &Graph, pr: &PrNetwork, family: &dyn TemporalFamily) {
    let config = SimConfig::default();
    let reference = pr_bench::temporal::run(graph, pr, family, &config, 1);
    assert_eq!(reference.len(), family.len());
    let what = format!("temporal rows ({})", family.label());
    same_at_every_pool_size(&what, &reference, &POOLED_THREAD_COUNTS, |threads| {
        pr_bench::temporal::run(graph, pr, family, &config, threads)
    });
}

#[test]
fn abilene_outage_sweep_parallel_equals_serial() {
    let Net { g, pr, .. } = Net::abilene();
    temporal_is_deterministic_on(&g, &pr, &OutageSweep::new(&g, quick_outage()));
}

#[test]
fn abilene_flap_sweep_parallel_equals_serial() {
    let Net { g, pr, .. } = Net::abilene();
    let fam = FlapSweep::new(&g, quick_outage()).with_holddown(8_000_000);
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
    let rows = traffic_serial(graph, pr, family, flows);
    assert_eq!(rows.len(), family.len());
    let reference = (pr_bench::traffic::summarize(&rows), rows);
    let what = format!("traffic rows and summary ({}, {})", family.label(), flows.label());
    same_at_every_pool_size(&what, &reference, &THREAD_COUNTS, |threads| {
        let rows = pr_bench::traffic::run(graph, pr, family, flows, threads);
        (pr_bench::traffic::summarize(&rows), rows)
    });
}

#[test]
fn abilene_traffic_replay_parallel_equals_serial() {
    let Net { g, pr, .. } = Net::abilene();
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
    let Net { g, pr, .. } = Net::geant();
    let flows = FlowSet::all_pairs(&GravityTraffic::new(&g));
    traffic_is_deterministic_on(&g, &pr, &SingleLinkFailures::new(&g), &flows);
}

#[test]
fn teleglobe_traffic_replay_parallel_equals_serial() {
    // Identity embedding: positive genus, so some walks end in drops —
    // lost demand must merge identically too.
    let Net { g, pr, .. } = Net::identity(isp(Isp::Teleglobe));
    let flows = FlowSet::all_pairs(&GravityTraffic::new(&g));
    traffic_is_deterministic_on(&g, &pr, &SingleLinkFailures::new(&g), &flows);
}

// ---- impaired timelines ------------------------------------------------

use pr_scenarios::{Impaired, ImpairmentProcess};

/// Quick Gilbert–Elliott decoration of the outage sweep.
fn quick_gilbert(graph: &Graph, seed: u64) -> Impaired<'_, OutageSweep<'_>> {
    Impaired::new(
        graph,
        OutageSweep::new(graph, quick_outage()),
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
    let what = format!("impaired timeline rows ({})", family.label());
    same_at_every_pool_size(&what, &reference, &POOLED_THREAD_COUNTS, |threads| {
        pr_bench::impair::run(graph, pr, family, flows, threads)
    });
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
    let Net { g, pr, .. } = Net::abilene();
    let flows = FlowSet::all_pairs(&GravityTraffic::new(&g));
    for seed in SEEDS {
        impair_is_deterministic_on(&g, &pr, &quick_gilbert(&g, seed), &flows);
        // Stacked decorators: Impaired<jitter, Impaired<storm, outage>>.
        let stacked = Impaired::new(
            &g,
            Impaired::new(
                &g,
                OutageSweep::new(&g, quick_outage()),
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
    let Net { g, pr, .. } = Net::geant();
    let flows = FlowSet::all_pairs(&GravityTraffic::new(&g));
    impair_is_deterministic_on(&g, &pr, &quick_gilbert(&g, 2010), &flows);
}

/// The acceptance identity: weighted coverage under the uniform *unit*
/// matrix is **bit-identical** to the unweighted coverage experiment's
/// PR-DD cell, scenario family and conditioning held equal.
#[test]
fn uniform_unit_traffic_matches_unweighted_coverage_bitwise() {
    let Net { g, pr, .. } = Net::abilene();
    // Coverage row k=1 sweeps exactly the single-link family.
    let coverage = pr_bench::coverage::run(&g, pr.embedding(), 1, 0, 7, 2);
    let dd = &coverage[0].pr_dd;

    let flows = FlowSet::all_pairs(&UniformTraffic::new(&g));
    let singles = SingleLinkFailures::new(&g);
    let s = pr_bench::traffic::summarize(&pr_bench::traffic::run(&g, &pr, &singles, &flows, 2));

    assert_eq!(s.tally.evaluated, dd.evaluated as f64, "same conditioning, unit demand");
    assert_eq!(s.tally.evaluated_delivered, dd.delivered as f64);
    assert_eq!(s.weighted_coverage(), dd.ratio(), "bit-identical coverage ratio");
}
