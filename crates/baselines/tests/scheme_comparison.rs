//! Cross-scheme comparison tests: the structural relationships §6 of
//! the paper asserts must hold on every scenario.
//!
//! * Reconvergence ≤ FCP ≤ PR in path cost (reconvergence is the
//!   survivor optimum; FCP detours only past failures it meets; PR
//!   additionally pays for cycle walking).
//! * FCP and reconvergence deliver whenever connected; PR (genus-0
//!   embedding) too; LFA may drop.
//! * Header bits: reconvergence = LFA = 0; PR constant; FCP grows.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use pr_baselines::{FcpAgent, LfaAgent};
use pr_core::{generous_ttl, walk_packet, DiscriminatorKind, PrMode, PrNetwork, WalkResult};
use pr_embedding::CellularEmbedding;
use pr_graph::{algo, Graph, LinkId, LinkSet, SpTree};
use pr_testkit::oracle::ReconvergenceAgent;
use pr_testkit::planar;

/// Deterministic battery of planar scenarios shared by the tests.
fn scenarios() -> Vec<(Graph, pr_embedding::RotationSystem, LinkSet)> {
    let mut out = Vec::new();
    for seed in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (g, rot) = if seed % 2 == 0 {
            planar::random_triangulation(4 + seed as usize, 1..=6, &mut rng)
        } else {
            planar::random_outerplanar(6 + seed as usize, 0.5, 1..=6, &mut rng)
        };
        let mut failed = LinkSet::empty(g.link_count());
        let mut candidates: Vec<LinkId> = g.links().collect();
        candidates.shuffle(&mut rng);
        let budget = (seed % 4) as usize;
        for l in candidates {
            if failed.len() >= budget {
                break;
            }
            if algo::connected_after(&g, &failed, l) {
                failed.insert(l);
            }
        }
        out.push((g, rot, failed));
    }
    out
}

#[test]
fn cost_ordering_reconvergence_fcp_pr() {
    for (g, rot, failed) in scenarios() {
        let emb = CellularEmbedding::new(&g, rot).unwrap();
        let pr =
            PrNetwork::compile(&g, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
        let pr_agent = pr.agent(&g);
        let fcp = FcpAgent::new(&g);
        let reconv = ReconvergenceAgent::converged_on(&g, &failed);
        let ttl = generous_ttl(&g);

        for src in g.nodes() {
            for dst in g.nodes() {
                if src == dst {
                    continue;
                }
                let w_pr = walk_packet(&g, &pr_agent, src, dst, &failed, ttl);
                let w_fcp = walk_packet(&g, &fcp, src, dst, &failed, ttl);
                let w_rc = walk_packet(&g, &reconv, src, dst, &failed, ttl);
                assert!(w_pr.result.is_delivered(), "PR {src}->{dst}");
                assert!(w_fcp.result.is_delivered(), "FCP {src}->{dst}");
                assert!(w_rc.result.is_delivered(), "reconv {src}->{dst}");

                let (c_pr, c_fcp, c_rc) = (w_pr.cost(&g), w_fcp.cost(&g), w_rc.cost(&g));
                assert!(c_rc <= c_fcp, "reconvergence must lower-bound FCP: {c_rc} > {c_fcp}");
                assert!(c_rc <= c_pr, "reconvergence must lower-bound PR: {c_rc} > {c_pr}");
                // The survivor optimum equals the reconverged cost.
                let opt = SpTree::towards(&g, dst, &failed).cost(src).unwrap();
                assert_eq!(c_rc, opt);
            }
        }
    }
}

#[test]
fn header_accounting_ordering() {
    for (g, rot, failed) in scenarios() {
        let emb = CellularEmbedding::new(&g, rot).unwrap();
        let pr =
            PrNetwork::compile(&g, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
        let pr_agent = pr.agent(&g);
        let fcp = FcpAgent::new(&g);
        let reconv = ReconvergenceAgent::converged_on(&g, &failed);
        let lfa = LfaAgent::compute(&g, pr.base());
        let ttl = generous_ttl(&g);

        let pr_bits = usize::from(pr.codec().total_bits());
        for src in g.nodes() {
            for dst in g.nodes() {
                if src == dst {
                    continue;
                }
                let w_pr = walk_packet(&g, &pr_agent, src, dst, &failed, ttl);
                assert!(w_pr.peak_header_bits <= pr_bits, "PR header is a compile-time constant");

                let w_fcp = walk_packet(&g, &fcp, src, dst, &failed, ttl);
                // FCP's header grows by one link id per encountered
                // failure; with k failures it is bounded by len + k*id.
                let bound = FcpAgent::LENGTH_FIELD_BITS + failed.len() * fcp.link_id_bits();
                assert!(
                    w_fcp.peak_header_bits <= bound,
                    "FCP header {} exceeded bound {}",
                    w_fcp.peak_header_bits,
                    bound
                );

                let w_rc = walk_packet(&g, &reconv, src, dst, &failed, ttl);
                assert_eq!(w_rc.peak_header_bits, 0);
                let w_lfa = walk_packet(&g, &lfa, src, dst, &failed, ttl);
                assert_eq!(w_lfa.peak_header_bits, 0);
            }
        }
    }
}

#[test]
fn lfa_never_beats_full_coverage_schemes() {
    // LFA delivery (single failures) implies PR/FCP delivery; the
    // reverse does not hold. Count coverage over all single failures
    // of a few planar graphs and assert LFA ≤ PR = FCP = 100%.
    for (g, rot, _) in scenarios().into_iter().take(6) {
        let none = LinkSet::empty(g.link_count());
        if !algo::is_two_edge_connected(&g, &none) {
            continue;
        }
        let emb = CellularEmbedding::new(&g, rot).unwrap();
        let pr =
            PrNetwork::compile(&g, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
        let pr_agent = pr.agent(&g);
        let fcp = FcpAgent::new(&g);
        let lfa = LfaAgent::compute(&g, pr.base());
        let ttl = generous_ttl(&g);

        let mut lfa_ok = 0usize;
        let mut total = 0usize;
        for l in g.links() {
            let failed = LinkSet::from_links(g.link_count(), [l]);
            for src in g.nodes() {
                for dst in g.nodes() {
                    if src == dst {
                        continue;
                    }
                    total += 1;
                    assert!(walk_packet(&g, &pr_agent, src, dst, &failed, ttl)
                        .result
                        .is_delivered());
                    assert!(walk_packet(&g, &fcp, src, dst, &failed, ttl).result.is_delivered());
                    if let WalkResult::Delivered =
                        walk_packet(&g, &lfa, src, dst, &failed, ttl).result
                    {
                        lfa_ok += 1;
                    }
                }
            }
        }
        assert!(lfa_ok <= total);
    }
}

#[test]
fn fcp_paths_match_incremental_knowledge_not_global() {
    // FCP can be worse than reconvergence: it discovers failures only
    // when it meets them. Construct the canonical case: a path that
    // walks up to a failure and must back-track.
    let mut g = Graph::new();
    let a = g.add_node("A").unwrap();
    let b = g.add_node("B").unwrap();
    let c = g.add_node("C").unwrap();
    let d = g.add_node("D").unwrap();
    // A-B-C cheap chain, C-A expensive back edge, plus B-D-C detour.
    g.add_link(a, b, 1).unwrap();
    g.add_link(b, c, 1).unwrap();
    g.add_link(c, a, 10).unwrap();
    g.add_link(b, d, 2).unwrap();
    g.add_link(d, c, 2).unwrap();
    let bc = g.find_link(b, c).unwrap();
    let failed = LinkSet::from_links(g.link_count(), [bc]);

    let fcp = FcpAgent::new(&g);
    let w = walk_packet(&g, &fcp, a, c, &failed, generous_ttl(&g));
    assert!(w.result.is_delivered());
    // FCP walks A->B (1), discovers B-C dead at B, reroutes B->D->C (4):
    // total 5 = survivor optimum here; but crucially its path length
    // equals walking *to* the failure then detouring, never less.
    assert_eq!(w.path.display(&g, a), "A -> B -> D -> C");
    let reconv = ReconvergenceAgent::converged_on(&g, &failed);
    let w_rc = walk_packet(&g, &reconv, a, c, &failed, generous_ttl(&g));
    assert!(w_rc.cost(&g) <= w.cost(&g));
}
