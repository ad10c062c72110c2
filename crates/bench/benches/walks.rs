//! The walk-engine micro-benchmarks, plus the unit-walk gates.
//!
//! **The gates** (run even under `--test`, so CI's bench smoke step
//! enforces them): on a 500-node synthetic ISP mesh, answering every
//! affected source of a set of single-failure (failure, destination)
//! units as the stretch sweep does — the unit's cone opened, the
//! scheme's lane opened on it, every source of the cone asked — must
//! stay under an absolute ns/source ceiling, after reproducing the
//! plain per-source `walk_packet_with` sweep's tallies. A lane that
//! walks again shows as a multiple of the ceiling, not a few percent.
//! One gate per lane (`pr_bench::lanes`), both driven by one function:
//! PR, priced from the failed dart's episode, and FCP, priced from the
//! repaired labels against the honest recompute-per-decision agent's
//! tallies.

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use pr_baselines::FcpAgent;
use pr_bench::engine::{ConeOpener, ConePlan, SweepUnit};
use pr_bench::lanes::{Lane, LaneScratch};
use pr_core::{generous_ttl, walk_packet_with, FlowScratch, ForwardingAgent, WalkScratch};
use pr_graph::{AllPairs, Graph, LinkId, LinkSet, NodeId};
use pr_testkit::nets::{synth, Net};

/// Absolute ceiling on the PR lane's time per affected source on the
/// mesh-500 fixture, timed from the opening of the unit's cone: 4x the
/// dev-container reading (60-66 ns per source over five runs, the FCP
/// lane reading 53-58 beside it; 1 272 sources of 45 units) — the
/// cone's enumeration and label repair are nearly all of it, the
/// episode and the arithmetic about 8 ns. The plain sweep reads 563 ns
/// per source there, so a lane that walks every source fails the gate.
/// One that walks every *point* again does not — the walked unit reads
/// 45 ns per source without its cone, about 100 with — which is why
/// `tests/determinism.rs` pins the walk count of a single-failure
/// sweep at zero.
const PR_NS_PER_SOURCE_CEILING: f64 = 260.0;

/// The same for the FCP lane, which is timed from the opening of the
/// unit's cone: 4x the dev-container reading (68 ns per source, the PR
/// lane reading 46 beside it; 96-98 and 69-75 over four runs on a
/// busier day) — the cone's enumeration and label repair are nearly
/// all of it. A lane that walks its points through the route memo
/// again reads 145-179 ns per source on the same units, one that
/// repairs the cone a second time over 200, and one that walks per
/// source with the honest agent several microseconds.
const FCP_NS_PER_SOURCE_CEILING: f64 = 270.0;

/// One (failure, destination) unit with its affected sources.
struct Unit {
    failed: LinkSet,
    dst: NodeId,
    sources: Vec<NodeId>,
}

/// Deterministic unit set: the first 24 links as single failures, each
/// against 4 spread-out destinations, keeping only units with a
/// non-empty affected cone.
fn build_units(graph: &Graph, base: &AllPairs) -> Vec<Unit> {
    let n = graph.node_count() as u32;
    let mut units = Vec::new();
    for l in 0..24u32 {
        let failed = LinkSet::from_links(graph.link_count(), [LinkId(l)]);
        for d in 0..4u32 {
            let dst = NodeId(d * (n / 4));
            let base_tree = base.towards(dst);
            let sources: Vec<NodeId> = graph
                .nodes()
                .filter(|&src| src != dst && base_tree.path_crosses(graph, src, &failed))
                .collect();
            if !sources.is_empty() {
                units.push(Unit { failed: failed.clone(), dst, sources });
            }
        }
    }
    units
}

/// Plain per-source walks: `(delivered, total cost)` over all units.
fn sweep_plain<A: ForwardingAgent>(
    graph: &Graph,
    agent: &A,
    units: &[Unit],
    ttl: usize,
    scratch: &mut WalkScratch<A::State>,
) -> (u64, u64)
where
    A::State: std::hash::Hash + Eq,
{
    let (mut delivered, mut cost) = (0u64, 0u64);
    for unit in units {
        for &src in &unit.sources {
            let w = walk_packet_with(graph, agent, src, unit.dst, &unit.failed, ttl, scratch);
            if w.result.is_delivered() {
                delivered += 1;
                cost += w.cost(graph);
            }
        }
    }
    (delivered, cost)
}

/// The walked unit sweep — what a unit no closed form covers runs:
/// each unit's points walked once, every source answered from its
/// point.
fn sweep_units<A: ForwardingAgent>(
    graph: &Graph,
    agent: &A,
    base: &AllPairs,
    units: &[Unit],
    ttl: usize,
    scratch: &mut FlowScratch<A::State>,
) -> (u64, u64)
where
    A::State: std::hash::Hash + Eq,
{
    let (mut delivered, mut cost) = (0u64, 0u64);
    for unit in units {
        let mut flows = scratch.unit(graph, agent, base.towards(unit.dst), &unit.failed);
        for &src in &unit.sources {
            if let Some(c) = flows.walk(src, ttl).cost() {
                delivered += 1;
                cost += c;
            }
        }
    }
    (delivered, cost)
}

/// `unit` as the engine hands it to a sweep's worker.
fn sweep_unit<'a>(base: &'a AllPairs, unit: &'a Unit) -> SweepUnit<'a> {
    let base_tree = base.towards(unit.dst);
    SweepUnit { scenario: 0, failed: &unit.failed, failures: 1, dst: unit.dst, base_tree }
}

/// One lane as the stretch sweep runs it: the unit's cone opened, the
/// lane opened on the unit, every source of the cone asked.
fn sweep_lane<L: Lane>(
    base: &AllPairs,
    units: &[Unit],
    opener: &mut ConeOpener<'_>,
    lane: &mut LaneScratch<'_, L>,
) -> (u64, u64) {
    let (mut delivered, mut cost) = (0u64, 0u64);
    for unit in units {
        let unit = sweep_unit(base, unit);
        let cone = opener.open(&unit);
        let mut answers = lane.unit(&unit, &cone);
        for (src, _) in cone {
            if let Some(c) = answers.cost(src) {
                delivered += 1;
                cost += c;
            }
        }
    }
    (delivered, cost)
}

/// One lane's unit-walk regression gate on the 500-node mesh. Panics
/// (failing the bench run, `--test` smoke mode included) when `lane` —
/// the unit sweep — does not reproduce the `plain` tallies or exceeds
/// its absolute ns/source ceiling — no in-tree denominator. The sweep
/// takes its best (minimum) of 20 rounds, which is what a shared
/// machine's throttling leaves alone.
fn lane_gate(
    label: &str,
    units: &[Unit],
    ceiling: f64,
    plain: (u64, u64),
    mut lane: impl FnMut() -> (u64, u64),
) {
    let sources: usize = units.iter().map(|u| u.sources.len()).sum();
    assert!(sources > 1_000, "mesh-500 gate needs a meaningful unit set, got {sources} sources");

    // Warmup; the tallies must agree with the plain walker's or the
    // unit is unsound and its timing meaningless.
    assert_eq!(lane(), plain, "the {label} unit sweep must reproduce plain deliveries and costs");

    let mut secs = f64::INFINITY;
    for _ in 0..20 {
        let t = Instant::now();
        black_box(lane());
        secs = secs.min(t.elapsed().as_secs_f64());
    }

    let ns_per_source = secs * 1e9 / sources as f64;
    println!(
        "gate: mesh500 {label} unit sweep {ns_per_source:.0}ns/source \
         (ceiling {ceiling:.0}ns/source, {sources} sources of {} units)",
        units.len(),
    );
    assert!(
        ns_per_source <= ceiling,
        "walk gate: the {label} unit sweep exceeded the ns/source ceiling: \
         {ns_per_source:.0}ns > {ceiling:.0}ns"
    );
}

fn bench_walks(c: &mut Criterion) {
    let Net { g: graph, pr: net, .. } = Net::geometric(synth("isp:500:2010"));
    let agent = net.agent(&graph);
    let plan = ConePlan::new(&graph, net.base());
    let base = plan.base();
    let units = build_units(&graph, base);
    let ttl = generous_ttl(&graph);

    let mut opener = plan.opener();
    let mut pr = LaneScratch::new(&plan, agent);
    let mut pr_lane = || sweep_lane(base, &units, &mut opener, &mut pr);
    let plain = sweep_plain(&graph, &agent, &units, ttl, &mut WalkScratch::new());
    lane_gate("pr", &units, PR_NS_PER_SOURCE_CEILING, plain, &mut pr_lane);

    let mut opener = plan.opener();
    let mut fcp = LaneScratch::new(&plan, FcpAgent::cached_with_base(&graph, base));
    let mut fcp_lane = || sweep_lane(base, &units, &mut opener, &mut fcp);
    let honest = sweep_plain(&graph, &FcpAgent::new(&graph), &units, ttl, &mut WalkScratch::new());
    lane_gate("fcp", &units, FCP_NS_PER_SOURCE_CEILING, honest, &mut fcp_lane);

    let mut group = c.benchmark_group("walk_sweep");
    group.bench_function(BenchmarkId::new("plain", "mesh500"), |b| {
        let mut scratch = WalkScratch::new();
        b.iter(|| black_box(sweep_plain(&graph, &agent, &units, ttl, &mut scratch)))
    });
    // What a unit of two or more failures runs: one walk per point.
    group.bench_function(BenchmarkId::new("unit", "mesh500"), |b| {
        let mut scratch = FlowScratch::new();
        b.iter(|| black_box(sweep_units(&graph, &agent, base, &units, ttl, &mut scratch)))
    });
    group.bench_function(BenchmarkId::new("unit_pr", "mesh500"), |b| {
        b.iter(|| black_box(pr_lane()))
    });
    group.bench_function(BenchmarkId::new("unit_fcp", "mesh500"), |b| {
        b.iter(|| black_box(fcp_lane()))
    });
    group.finish();
}

criterion_group!(benches, bench_walks);
criterion_main!(benches);
