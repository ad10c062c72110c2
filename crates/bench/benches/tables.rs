//! E9: offline table-compilation cost.
//!
//! PR's precomputation happens once per topology change (§4.3: on a
//! designated server); this bench quantifies "relatively expensive
//! computations offline" for the three paper topologies. The routing
//! table has no row of its own: `RoutingTables` is a view of the
//! all-pairs trees and copies nothing, so `full_pr_network`
//! (`PrNetwork::compile`: the all-pairs pass plus the cycle table) is
//! what compiling it costs.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use pr_core::{CycleFollowingTable, DiscriminatorKind, PrMode, PrNetwork};
use pr_embedding::CellularEmbedding;
use pr_graph::AllPairs;
use pr_topologies::{Isp, Weighting};

fn bench_tables(c: &mut Criterion) {
    let mut group = c.benchmark_group("table_compilation");
    for isp in Isp::ALL {
        let graph = pr_topologies::load(isp, Weighting::Distance);
        let rot = pr_embedding::heuristics::best_effort(&graph, 1);
        let emb = CellularEmbedding::new(&graph, rot).unwrap();

        group.bench_with_input(BenchmarkId::new("all_pairs_dijkstra", isp), &graph, |b, g| {
            b.iter(|| black_box(AllPairs::compute_all_live(g)))
        });

        group.bench_with_input(BenchmarkId::new("cycle_following_table", isp), &graph, |b, g| {
            b.iter(|| black_box(CycleFollowingTable::compile(g, &emb)))
        });

        group.bench_with_input(BenchmarkId::new("full_pr_network", isp), &graph, |b, g| {
            b.iter(|| {
                black_box(PrNetwork::compile(
                    g,
                    emb.clone(),
                    PrMode::DistanceDiscriminator,
                    DiscriminatorKind::Hops,
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_tables);
criterion_main!(benches);
