//! The walk-engine micro-benchmarks, plus the suffix-memo gate.
//!
//! **The gate** (runs even under `--test`, so CI's bench smoke step
//! enforces it): on a 500-node synthetic ISP mesh, sweeping every
//! affected source of a set of (failure, destination) units through
//! `walk_packet_spliced` must stay under an absolute ns/walk ceiling,
//! after reproducing the plain per-source `walk_packet_with` sweep's
//! tallies. Shared suffixes dominate these units (all sources converge
//! downstream of the detour), so losing the memo shows as a multiple
//! of the ceiling, not a few percent.

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use pr_core::{
    generous_ttl, walk_packet_spliced, walk_packet_with, DiscriminatorKind, PrAgent, PrMode,
    PrNetwork, SuffixMemo, WalkScratch,
};
use pr_embedding::{CellularEmbedding, RotationSystem};
use pr_graph::generators::{self, MeshParams};
use pr_graph::{AllPairs, Graph, LinkId, LinkSet, NodeId};

/// Absolute ceiling on the memoized sweep's time per walk on the
/// mesh-500 fixture: 4x the dev-container reading (107-190 ns/walk
/// over four runs, median 113, at 86% spliced share). The plain sweep
/// reads 620 ns/walk there, so a lost memo fails the gate.
const NS_PER_WALK_CEILING: f64 = 450.0;

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
fn sweep_plain(
    graph: &Graph,
    agent: &PrAgent<'_>,
    units: &[Unit],
    ttl: usize,
    scratch: &mut WalkScratch<pr_core::PrHeader>,
) -> (u64, u64) {
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

/// The memoized unit sweep: identical walks, suffixes spliced.
fn sweep_memoized(
    graph: &Graph,
    agent: &PrAgent<'_>,
    units: &[Unit],
    ttl: usize,
    scratch: &mut WalkScratch<pr_core::PrHeader>,
    memo: &mut SuffixMemo<pr_core::PrHeader>,
) -> (u64, u64) {
    let (mut delivered, mut cost) = (0u64, 0u64);
    for unit in units {
        memo.begin_unit();
        for &src in &unit.sources {
            let w =
                walk_packet_spliced(graph, agent, src, unit.dst, &unit.failed, ttl, scratch, memo);
            if w.result.is_delivered() {
                delivered += 1;
                cost += w.cost;
            }
        }
    }
    (delivered, cost)
}

fn mesh500() -> (Graph, PrNetwork) {
    let graph = generators::isp_mesh(&MeshParams::new(500, 2010));
    let rot = RotationSystem::geometric(&graph).expect("mesh has coordinates");
    let emb = CellularEmbedding::new(&graph, rot).expect("connected");
    let net =
        PrNetwork::compile(&graph, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
    (graph, net)
}

/// The suffix-memo regression gate on the 500-node mesh. Panics
/// (failing the bench run, `--test` smoke mode included) when the
/// memoized unit sweep exceeds the absolute ns/walk ceiling — no
/// in-tree denominator. The sweep takes its best (minimum) of 20
/// rounds, which is what a shared machine's throttling leaves alone.
fn walk_memo_gate() {
    let (graph, net) = mesh500();
    let agent = net.agent(&graph);
    let base = AllPairs::compute_all_live(&graph);
    let units = build_units(&graph, &base);
    let walks: usize = units.iter().map(|u| u.sources.len()).sum();
    assert!(walks > 1_000, "mesh-500 gate needs a meaningful unit set, got {walks} walks");
    let ttl = generous_ttl(&graph);
    let mut scratch = WalkScratch::new();
    let mut memo = SuffixMemo::new();

    // Warmup; the tallies must agree with the plain walker's or the
    // memo is unsound and its timing meaningless.
    let plain = sweep_plain(&graph, &agent, &units, ttl, &mut scratch);
    let memoized = sweep_memoized(&graph, &agent, &units, ttl, &mut scratch, &mut memo);
    assert_eq!(plain, memoized, "memoized sweep must reproduce plain deliveries and costs");
    let stats = memo.take_stats();
    assert!(stats.hits > 0, "the mesh-500 unit set must actually splice");

    let mut memo_secs = f64::INFINITY;
    for _ in 0..20 {
        let t = Instant::now();
        black_box(sweep_memoized(&graph, &agent, &units, ttl, &mut scratch, &mut memo));
        memo_secs = memo_secs.min(t.elapsed().as_secs_f64());
    }

    let ns_per_walk = memo_secs * 1e9 / walks as f64;
    println!(
        "gate: mesh500 memoized sweep {ns_per_walk:.0}ns/walk \
         (ceiling {NS_PER_WALK_CEILING:.0}ns/walk, {walks} walks, spliced share {:.1}%)",
        100.0 * stats.spliced_share(),
    );
    assert!(
        ns_per_walk <= NS_PER_WALK_CEILING,
        "walk gate: memoized sweep exceeded the ns/walk ceiling: \
         {ns_per_walk:.0}ns > {NS_PER_WALK_CEILING:.0}ns"
    );
}

fn bench_walks(c: &mut Criterion) {
    walk_memo_gate();

    let (graph, net) = mesh500();
    let agent = net.agent(&graph);
    let base = AllPairs::compute_all_live(&graph);
    let units = build_units(&graph, &base);
    let ttl = generous_ttl(&graph);

    let mut group = c.benchmark_group("walk_sweep");
    group.bench_function(BenchmarkId::new("plain", "mesh500"), |b| {
        let mut scratch = WalkScratch::new();
        b.iter(|| black_box(sweep_plain(&graph, &agent, &units, ttl, &mut scratch)))
    });
    group.bench_function(BenchmarkId::new("memoized", "mesh500"), |b| {
        let mut scratch = WalkScratch::new();
        let mut memo = SuffixMemo::new();
        b.iter(|| black_box(sweep_memoized(&graph, &agent, &units, ttl, &mut scratch, &mut memo)))
    });
    group.finish();
}

criterion_group!(benches, bench_walks);
criterion_main!(benches);
