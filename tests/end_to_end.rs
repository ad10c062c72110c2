//! Cross-crate integration tests: the full pipeline
//! topology → embedding → tables → forwarding → metrics, exercised the
//! way a downstream user would drive it (through the facade crate).

use packet_recycling::prelude::*;
use pr_bench::timed::SimConfig;
use pr_testkit::oracle::ReconvergenceAgent;
use pr_testkit::{simulator::Simulator, time::SimTime};

/// The complete production pipeline on every shipped ISP topology.
#[test]
fn full_pipeline_on_all_isp_topologies() {
    for isp in topologies::Isp::ALL {
        let graph = topologies::load(isp, topologies::Weighting::Distance);
        let rot = embedding::heuristics::thorough(&graph, 2010, 8, 60_000);
        let emb = CellularEmbedding::new(&graph, rot).unwrap();
        assert_eq!(emb.genus(), 0, "{isp}: all paper topologies are planar");

        let net =
            PrNetwork::compile(&graph, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
        // The header must be small — that is the paper's whole point.
        assert!(net.codec().total_bits() <= 5, "{isp}: header exploded");

        // Fail every link; every pair must still deliver.
        let ttl = generous_ttl(&graph);
        let agent = net.agent(&graph);
        for link in graph.links() {
            let failed = LinkSet::from_links(graph.link_count(), [link]);
            for src in graph.nodes() {
                for dst in graph.nodes() {
                    if src == dst {
                        continue;
                    }
                    let walk = walk_packet(&graph, &agent, src, dst, &failed, ttl);
                    assert!(
                        walk.result.is_delivered(),
                        "{isp}: {src}->{dst} with {link} down: {:?}",
                        walk.result
                    );
                }
            }
        }
    }
}

/// The timed simulator and the synchronous walker agree on steady-state
/// outcomes: what the walker says is delivered, the simulator delivers.
#[test]
fn simulator_and_walker_agree_on_delivery() {
    let graph = topologies::load(topologies::Isp::Abilene, topologies::Weighting::Distance);
    let rot = embedding::heuristics::thorough(&graph, 7, 4, 20_000);
    let emb = CellularEmbedding::new(&graph, rot).unwrap();
    let net =
        PrNetwork::compile(&graph, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
    let agent = net.agent(&graph);

    let link = graph.links().nth(3).unwrap();
    let failed = LinkSet::from_links(graph.link_count(), [link]);

    // Walker verdicts for all pairs.
    let ttl = generous_ttl(&graph);
    for src in graph.nodes() {
        for dst in graph.nodes() {
            if src == dst {
                continue;
            }
            let walk = walk_packet(&graph, &agent, src, dst, &failed, ttl);
            assert!(walk.result.is_delivered());

            // Timed simulation of the same pair under a pre-existing
            // failure (failure at t=0, instant detection).
            let mut sim = Simulator::new(&graph, &agent, SimConfig::default(), 1);
            sim.schedule_link_down(link, SimTime::ZERO);
            sim.add_cbr_flow(
                src,
                dst,
                512,
                1_000_000,
                SimTime::from_millis(1),
                SimTime::from_millis(1),
            );
            let m = sim.run_until(SimTime::from_secs(10));
            assert_eq!(m.injected, 1);
            assert_eq!(m.delivered, 1, "{src}->{dst}: simulator dropped what walker delivered");
            // Hop counts agree.
            assert_eq!(u64::from(m.hops_max), walk.path.hop_count() as u64);
        }
    }
}

/// Baselines and PR compared end to end on the same scenario, through
/// the facade's prelude only (API ergonomics check).
#[test]
fn scheme_comparison_through_facade() {
    let graph = topologies::load(topologies::Isp::Teleglobe, topologies::Weighting::Distance);
    let rot = embedding::heuristics::thorough(&graph, 2010, 8, 60_000);
    let emb = CellularEmbedding::new(&graph, rot).unwrap();
    let net =
        PrNetwork::compile(&graph, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
    let pr = net.agent(&graph);
    let fcp = FcpAgent::new(&graph);
    let lfa = LfaAgent::compute(&graph, net.base());
    let ttl = generous_ttl(&graph);

    let link = graph.links().next().unwrap();
    let failed = LinkSet::from_links(graph.link_count(), [link]);
    let reconv = ReconvergenceAgent::converged_on(&graph, &failed);

    let (a, b) = graph.endpoints(link);
    let w_pr = walk_packet(&graph, &pr, a, b, &failed, ttl);
    let w_fcp = walk_packet(&graph, &fcp, a, b, &failed, ttl);
    let w_rc = walk_packet(&graph, &reconv, a, b, &failed, ttl);
    assert!(w_pr.result.is_delivered());
    assert!(w_fcp.result.is_delivered());
    assert!(w_rc.result.is_delivered());
    assert!(w_rc.cost(&graph) <= w_fcp.cost(&graph));
    assert!(w_rc.cost(&graph) <= w_pr.cost(&graph));

    // LFA may or may not protect this pair; both outcomes are legal,
    // but it must never loop.
    let w_lfa = walk_packet(&graph, &lfa, a, b, &failed, ttl);
    assert!(!matches!(w_lfa.result, WalkResult::Dropped(DropReason::TtlExpired)));
}

/// Serde round-trip of the compiled network state: the offline server
/// can ship tables to routers as JSON (the paper's "uploaded to all
/// routers" step).
#[test]
fn compiled_state_serializes() {
    let (graph, net) = figure1_network();
    let json = serde_json::to_string(&net).expect("PrNetwork serializes");
    let back: PrNetwork = serde_json::from_str(&json).expect("PrNetwork deserializes");
    assert_eq!(back.codec(), net.codec());
    // The revived tables forward identically.
    let ttl = generous_ttl(&graph);
    let n = |s: &str| graph.node_by_name(s).unwrap();
    let failed =
        LinkSet::from_links(graph.link_count(), [graph.find_link(n("D"), n("E")).unwrap()]);
    let w1 = walk_packet(&graph, &net.agent(&graph), n("A"), n("F"), &failed, ttl);
    let w2 = walk_packet(&graph, &back.agent(&graph), n("A"), n("F"), &failed, ttl);
    assert_eq!(w1.path, w2.path);
}

/// The paper's Figure 1 under the paper's neighbour orders.
fn figure1_network() -> (Graph, PrNetwork) {
    let (graph, orders) = topologies::figure1();
    let rot = RotationSystem::from_neighbor_orders(&graph, &orders).unwrap();
    let emb = CellularEmbedding::new(&graph, rot).unwrap();
    let net =
        PrNetwork::compile(&graph, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
    (graph, net)
}

/// The message of the panic binding `net` to `graph` ends in.
fn bind_panic(net: &PrNetwork, graph: &Graph) -> String {
    let payload = std::panic::catch_unwind(|| {
        let _ = net.agent(graph);
    })
    .expect_err("a mismatched network must not bind");
    payload.downcast_ref::<String>().expect("a formatted panic message").clone()
}

/// A network binds to graphs of its own shape only — in release builds
/// too: bound to another, it would index out of range mid-walk.
#[test]
fn a_network_does_not_bind_to_a_graph_of_another_shape() {
    let (graph, net) = figure1_network();
    let abilene = topologies::load(topologies::Isp::Abilene, topologies::Weighting::Distance);
    let message = bind_panic(&net, &abilene);
    assert!(message.contains("graph/tables mismatch"), "{message}");
    assert!(message.contains("a graph of 11 nodes"), "{message}");
    assert!(message.contains("6 trees"), "{message}");

    // Figure 1 with one more link: the trees fit, the cycle table does not.
    let mut extra = graph.clone();
    extra.add_link(NodeId(0), NodeId(5), 9).unwrap();
    let message = bind_panic(&net, &extra);
    assert!(message.contains("6 nodes and 20 darts"), "{message}");
    assert!(message.contains("18 rows"), "{message}");
}

/// … and a network that came through serde with a column cut short is
/// caught where it is bound, not where a walk first reads past the end.
#[test]
fn a_truncated_tree_does_not_bind() {
    let (graph, net) = figure1_network();
    let json = serde_json::to_string(&net).unwrap();
    // Tree 2 loses the last label of its hop column.
    let whole = r#"{"dest":2,"dist":[2,2,0,3,2,3],"hops":[1,1,0,2,1,2],"#;
    let cut = r#"{"dest":2,"dist":[2,2,0,3,2,3],"hops":[1,1,0,2,1],"#;
    assert!(json.contains(whole), "fixture: {json}");
    let revived: PrNetwork = serde_json::from_str(&json.replace(whole, cut)).expect("well-formed");
    let message = bind_panic(&revived, &graph);
    assert!(message.contains("a graph of 6 nodes"), "{message}");
    assert!(message.contains("tree 2 towards n2 with [6, 5, 6] labels"), "{message}");
}

/// `json` with entry `i` of the first array under `key` after `from`
/// set to `value`.
fn with_entry(json: &str, from: &str, key: &str, i: usize, value: u32) -> String {
    let after = json.find(from).expect("fixture");
    let key = format!("\"{key}\":[");
    let open = after + json[after..].find(&key).expect("fixture") + key.len();
    let close = open + json[open..].find(']').expect("fixture");
    let mut entries: Vec<String> = json[open..close].split(',').map(String::from).collect();
    entries[i] = value.to_string();
    format!("{}{}{}", &json[..open], entries.join(","), &json[close..])
}

/// A network whose columns have the right width but whose tables hold
/// a dart of another router, or of no router, or no route at all, does
/// not bind either: a staged episode would follow such a table where
/// the walker refuses to.
#[test]
fn a_tree_dart_of_another_router_does_not_bind() {
    let (graph, net) = figure1_network();
    let json = serde_json::to_string(&net).unwrap();
    let revive = |json: String| serde_json::from_str::<PrNetwork>(&json).expect("well-formed");
    // Tree 2 routes n0 over a dart of n5's, over a dart the graph does
    // not have, and not at all.
    let of_n5 = graph.darts_from(NodeId(5))[0];
    for (value, says) in [
        (of_n5.0, format!("routes n0 over dart {of_n5}, which does not leave it")),
        (999, "routes n0 over dart d999, which does not leave it".into()),
        (u32::MAX, "has no route from n0".into()),
    ] {
        let hostile = revive(with_entry(&json, r#"{"dest":2,"#, "next", 0, value));
        let message = bind_panic(&hostile, &graph);
        assert!(
            message.contains(&format!("tables refused: tree 2 towards n2 {says}")),
            "{message}"
        );
    }
}

/// … nor one whose cycle following table sends a packet out of a
/// router it did not enter, or along another face than the
/// embedding's, or whose rotation does.
#[test]
fn a_cycle_following_row_that_is_not_the_embeddings_does_not_bind() {
    let (graph, net) = figure1_network();
    let json = serde_json::to_string(&net).unwrap();
    let revive = |json: String| serde_json::from_str::<PrNetwork>(&json).expect("well-formed");
    let (row, at) = (Dart(0), graph.dart_head(Dart(0)));
    let elsewhere = graph.darts().find(|&d| graph.dart_tail(d) != at).expect("another router");
    let cf = net.cycle_table().cycle_following(row);
    let off_face = *graph.darts_from(at).iter().find(|&&d| d != cf).expect("degree 2 or more");
    for (value, says) in [
        (elsewhere.0, format!("sends packets over dart {elsewhere}, which does not leave {at}")),
        (off_face.0, "is not the embedding's".to_string()),
    ] {
        let hostile = revive(with_entry(&json, r#""cf_out""#, "cf_out", 0, value));
        let message = bind_panic(&hostile, &graph);
        let expected = format!("tables refused: cycle following row 0 (into {at}) {says}");
        assert!(message.contains(&expected), "{message}");
    }
    let not_at_tail = graph.darts().find(|&d| graph.dart_tail(d) != graph.dart_tail(row)).unwrap();
    let hostile = revive(with_entry(&json, r#""rotation""#, "next", 0, not_at_tail.0));
    let message = bind_panic(&hostile, &graph);
    assert!(message.contains("tables refused: rotation: rotation system corrupt"), "{message}");
}
