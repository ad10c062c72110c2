//! The converged-reconvergence oracle, `pr_testkit::oracle::ReconvergenceAgent`:
//! survivor-optimal paths, unreachable destinations dropped, and the
//! failure-free shortest paths when nothing is down.

use pr_core::{generous_ttl, walk_packet, DropReason, WalkResult};
use pr_graph::{generators, LinkSet, NodeId};
use pr_testkit::oracle::ReconvergenceAgent;

#[test]
fn converged_paths_are_survivor_optimal() {
    let g = generators::ring(6, 1);
    let direct = g.find_link(NodeId(1), NodeId(0)).unwrap();
    let failed = LinkSet::from_links(g.link_count(), [direct]);
    let agent = ReconvergenceAgent::converged_on(&g, &failed);
    let walk = walk_packet(&g, &agent, NodeId(1), NodeId(0), &failed, generous_ttl(&g));
    assert!(walk.result.is_delivered());
    assert_eq!(walk.path.hop_count(), 5);
    assert_eq!(walk.cost(&g), agent.converged_cost(NodeId(1), NodeId(0)).unwrap());
    assert_eq!(walk.peak_header_bits, 0, "no header overhead by definition");
}

#[test]
fn unreachable_is_dropped() {
    let g = generators::ring(4, 1);
    let l01 = g.find_link(NodeId(0), NodeId(1)).unwrap();
    let l30 = g.find_link(NodeId(3), NodeId(0)).unwrap();
    let failed = LinkSet::from_links(g.link_count(), [l01, l30]);
    let agent = ReconvergenceAgent::converged_on(&g, &failed);
    let walk = walk_packet(&g, &agent, NodeId(2), NodeId(0), &failed, generous_ttl(&g));
    assert_eq!(walk.result, WalkResult::Dropped(DropReason::Unreachable));
}

#[test]
fn no_failures_means_original_shortest_paths() {
    let g = generators::complete(5, 2);
    let none = LinkSet::empty(g.link_count());
    let agent = ReconvergenceAgent::converged_on(&g, &none);
    for src in g.nodes() {
        for dst in g.nodes() {
            if src == dst {
                continue;
            }
            let walk = walk_packet(&g, &agent, src, dst, &none, generous_ttl(&g));
            assert!(walk.result.is_delivered());
            assert_eq!(walk.path.hop_count(), 1);
        }
    }
}
