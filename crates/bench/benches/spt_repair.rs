//! Micro-benchmark for the incremental SPT machinery of PR 4: the
//! per-(scenario, destination) live-tree rebuild that dominates every
//! sweep's work unit.
//!
//! Three variants per topology, identical output (the equivalence
//! proptests in pr-graph and pr-topologies assert bitwise equality):
//!
//! * `towards` — the one-shot from-scratch Dijkstra (fresh
//!   allocations per call: the pre-PR 4 hot path);
//! * `towards_with` — from-scratch through a reusable [`SpScratch`]
//!   arena (no per-call label/heap allocations);
//! * `repair` — incremental repair from the hoisted failure-free base
//!   tree (`repair_from`, as the daemon runs it per link event: only
//!   the affected cone re-labelled).
//!
//! Each iteration sweeps every destination under a fixed k-failure
//! scenario — the exact shape of one scenario's work in the engine.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use pr_graph::{AllPairs, LinkId, LinkSet, SpScratch, SpTree};
use pr_topologies::{Isp, Weighting};

/// A deterministic k-link failure set (splitmix-style hashing, no RNG
/// dependency in the bench).
fn failure_set(link_count: usize, k: usize, seed: u64) -> LinkSet {
    let mut failed = LinkSet::empty(link_count);
    let mut x = seed;
    while failed.len() < k {
        x = x.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        failed.insert(LinkId((x >> 33) as u32 % link_count as u32));
    }
    failed
}

fn bench_spt_repair(c: &mut Criterion) {
    let mut group = c.benchmark_group("spt_repair");
    for isp in Isp::ALL {
        let graph = pr_topologies::load(isp, Weighting::Distance);
        let base = AllPairs::compute_all_live(&graph);
        for k in [1usize, 3] {
            let failed = failure_set(graph.link_count(), k, 2010 + k as u64);
            let label = format!("{isp}/k{k}");

            group.bench_with_input(BenchmarkId::new("towards", &label), &graph, |b, g| {
                b.iter(|| {
                    for dest in g.nodes() {
                        black_box(SpTree::towards(g, dest, &failed));
                    }
                })
            });

            group.bench_with_input(BenchmarkId::new("towards_with", &label), &graph, |b, g| {
                let mut scratch = SpScratch::new();
                b.iter(|| {
                    for dest in g.nodes() {
                        black_box(SpTree::towards_with(g, dest, &failed, &mut scratch));
                    }
                })
            });

            group.bench_with_input(BenchmarkId::new("repair", &label), &graph, |b, g| {
                let mut scratch = SpScratch::new();
                b.iter(|| black_box(base.repair_from(g, &failed, &mut scratch)))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_spt_repair);
criterion_main!(benches);
