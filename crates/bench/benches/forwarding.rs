//! E9: per-packet forwarding decision latency.
//!
//! The paper's §6 claims PR adds "insignificant" packet processing
//! time: a forwarding decision is two table lookups. This bench
//! measures PR's decision (failure-free and during cycle following)
//! against LFA (also table-driven) and FCP (which runs Dijkstra per
//! decision once failures are carried).
//!
//! Kept although it gates nothing: the cost of **one decision** is the
//! paper's claim, and no traced probe of `benchmark/` reports it
//! (`core.walk_pr_ns` is a whole walk). The other ungated harnesses
//! went where their numbers already were.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use pr_baselines::{FcpAgent, FcpState, LfaAgent};
use pr_core::{DiscriminatorKind, ForwardingAgent, PrHeader, PrMode, PrNetwork};
use pr_embedding::CellularEmbedding;
use pr_graph::{LinkSet, NodeId};
use pr_topologies::{Isp, Weighting};

fn bench_forwarding(c: &mut Criterion) {
    let graph = pr_topologies::load(Isp::Geant, Weighting::Distance);
    let rot = pr_embedding::heuristics::best_effort(&graph, 1);
    let emb = CellularEmbedding::new(&graph, rot).unwrap();
    let net =
        PrNetwork::compile(&graph, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
    let pr = net.agent(&graph);
    let fcp = FcpAgent::new(&graph);
    let lfa = LfaAgent::compute(&graph, net.base());

    let none = LinkSet::empty(graph.link_count());
    let src = NodeId(0);
    let dst = NodeId((graph.node_count() - 1) as u32);
    let failed_link = net.routing().next_dart(src, dst).unwrap().link();
    let one_failed = LinkSet::from_links(graph.link_count(), [failed_link]);

    let mut group = c.benchmark_group("forwarding_decision");

    group.bench_function("pr_dd_failure_free", |b| {
        b.iter(|| {
            let mut state = PrHeader::default();
            black_box(pr.decide(black_box(src), None, black_box(dst), &mut state, &none))
        })
    });

    group.bench_function("pr_dd_deflecting", |b| {
        b.iter(|| {
            let mut state = PrHeader::default();
            black_box(pr.decide(black_box(src), None, black_box(dst), &mut state, &one_failed))
        })
    });

    group.bench_function("lfa_failure_free", |b| {
        b.iter(|| {
            let mut state = ();
            black_box(lfa.decide(black_box(src), None, black_box(dst), &mut state, &none))
        })
    });

    group.bench_function("fcp_failure_free", |b| {
        b.iter(|| {
            let mut state = FcpState::default();
            black_box(fcp.decide(black_box(src), None, black_box(dst), &mut state, &none))
        })
    });

    group.bench_function("fcp_one_carried_failure", |b| {
        b.iter(|| {
            let mut state = FcpState::default();
            black_box(fcp.decide(black_box(src), None, black_box(dst), &mut state, &one_failed))
        })
    });

    group.finish();
}

criterion_group!(benches, bench_forwarding);
criterion_main!(benches);
