//! Paper-anchored tests: reproduce Table 1 and the §4.2/§4.3
//! walkthroughs of Figure 1 *exactly* as printed.
//!
//! These tests pin the implementation to the paper's semantics: if a
//! refactor changes the interpretation of cycle following tables or of
//! the termination conditions, they fail with the divergent node
//! sequence.

use pr_core::{
    generous_ttl, walk_packet, DiscriminatorKind, ForwardDecision, ForwardingAgent, PrHeader,
    PrMode, PrNetwork, WalkResult,
};
use pr_embedding::{CellularEmbedding, RotationSystem};
use pr_graph::{Dart, Graph, LinkSet, NodeId};
use pr_topologies::figure1;

fn build(mode: PrMode) -> (Graph, PrNetwork) {
    let (g, orders) = figure1();
    let rot = RotationSystem::from_neighbor_orders(&g, &orders).unwrap();
    let emb = CellularEmbedding::new(&g, rot).unwrap();
    let net = PrNetwork::compile(&g, emb, mode, DiscriminatorKind::Hops);
    (g, net)
}

fn n(g: &Graph, s: &str) -> NodeId {
    g.node_by_name(s).unwrap()
}

fn dart(g: &Graph, a: &str, b: &str) -> Dart {
    *g.darts_from(n(g, a)).iter().find(|&&d| g.dart_head(d) == n(g, b)).unwrap()
}

/// Paper Table 1: the cycle following table at node D.
///
/// | Incoming | Cycle Following | Complementary |
/// |----------|-----------------|---------------|
/// | I_BD     | I_DF (c4)       | I_DE (c1)     |
/// | I_ED     | I_DB (c2)       | I_DF (c4)     |
/// | I_FD     | I_DE (c1)       | I_DB (c2)     |
#[test]
fn table1_at_node_d() {
    let (g, net) = build(PrMode::DistanceDiscriminator);
    let ct = net.cycle_table();

    let expect = [
        ("B", "F", "E"), // I_BD -> I_DF / I_DE
        ("E", "B", "F"), // I_ED -> I_DB / I_DF
        ("F", "E", "B"), // I_FD -> I_DE / I_DB
    ];
    for (from, cf_to, comp_to) in expect {
        let incoming = dart(&g, from, "D");
        assert_eq!(
            ct.cycle_following(incoming),
            dart(&g, "D", cf_to),
            "row I_{from}D cycle-following column"
        );
        assert_eq!(
            ct.complementary(incoming),
            dart(&g, "D", comp_to),
            "row I_{from}D complementary column"
        );
    }

    // The rows_at view is sorted by incoming neighbour (B, E, F) —
    // exactly the paper's row order.
    let rows = ct.rows_at(&g, n(&g, "D"));
    let incoming_names: Vec<&str> =
        rows.iter().map(|r| g.node_name(g.dart_tail(r.incoming))).collect();
    assert_eq!(incoming_names, vec!["B", "E", "F"]);

    // The paper annotates each outgoing interface with its cycle
    // (c1–c4). The c-numbers themselves are arbitrary labels, so assert
    // the structural facts they encode instead: D→E's main cycle is
    // complementary to D→B's over link D–E (the paper's c1/c2 pair),
    // and each complementary-column entry is the first hop of the
    // complementary cycle of the cycle-following column's link.
    let emb = net.embedding();
    let c1 = emb.main_cycle(dart(&g, "D", "E"));
    let c2 = emb.main_cycle(dart(&g, "E", "D"));
    assert_eq!(emb.main_cycle(dart(&g, "D", "B")), c2, "D→B lies on c2");
    assert_eq!(emb.complementary_cycle(dart(&g, "D", "E")), c2);
    assert_eq!(emb.complementary_cycle(dart(&g, "E", "D")), c1);
    for row in rows {
        let cf = row.cycle_following;
        assert_eq!(row.complementary, emb.deflection(cf));
        assert_eq!(
            emb.main_cycle(row.complementary),
            emb.complementary_cycle(cf),
            "complementary column must continue the complementary cycle"
        );
    }
}

/// §4.2 / Figure 1(b): single failure D–E, packet A → F.
///
/// "the packet would be forwarded along A → B and B → D ... since link
/// D → E is down, node D sets the PR bit ... and forwards it to IDB.
/// ... routers B and C ... forward it using their normal cycle
/// following tables, so that it follows cycle c2 ... Once the packet
/// arrives at node E ... the PR bit is cleared and the packet forwarded
/// to node F via the conventional shortest path."
#[test]
fn figure_1b_single_failure_walkthrough() {
    let (g, net) = build(PrMode::DistanceDiscriminator);
    let agent = net.agent(&g);
    let de = g.find_link(n(&g, "D"), n(&g, "E")).unwrap();
    let failed = LinkSet::from_links(g.link_count(), [de]);

    let walk = walk_packet(&g, &agent, n(&g, "A"), n(&g, "F"), &failed, generous_ttl(&g));
    assert!(walk.result.is_delivered());
    assert_eq!(
        walk.path.display(&g, n(&g, "A")),
        "A -> B -> D -> B -> C -> E -> F",
        "node sequence must match the §4.2 walkthrough"
    );
}

/// The same scenario must also work in basic (§4.2, single-bit) mode:
/// single failures need no DD bits.
#[test]
fn figure_1b_works_in_basic_mode() {
    let (g, net) = build(PrMode::Basic);
    let agent = net.agent(&g);
    let de = g.find_link(n(&g, "D"), n(&g, "E")).unwrap();
    let failed = LinkSet::from_links(g.link_count(), [de]);
    let walk = walk_packet(&g, &agent, n(&g, "A"), n(&g, "F"), &failed, generous_ttl(&g));
    assert!(walk.result.is_delivered());
    assert_eq!(walk.path.display(&g, n(&g, "A")), "A -> B -> D -> B -> C -> E -> F");
    assert_eq!(walk.peak_header_bits, 1, "basic mode uses exactly one header bit");
}

/// §4.2's second example: failures on both A–B and D–E. "packets would
/// first follow cycle c3 (complementary to c4 over A → B) to reach B,
/// where normal routing would resume - only to fail again in D."
#[test]
fn figure_1b_dual_failure_example() {
    let (g, net) = build(PrMode::DistanceDiscriminator);
    let agent = net.agent(&g);
    let de = g.find_link(n(&g, "D"), n(&g, "E")).unwrap();
    let ab = g.find_link(n(&g, "A"), n(&g, "B")).unwrap();
    let failed = LinkSet::from_links(g.link_count(), [de, ab]);

    let walk = walk_packet(&g, &agent, n(&g, "A"), n(&g, "F"), &failed, generous_ttl(&g));
    assert!(walk.result.is_delivered());
    // A deflects onto c3 (A → C), reaches B via C, resumes routing,
    // fails again at D, and recovers exactly as in Figure 1(b).
    assert_eq!(
        walk.path.display(&g, n(&g, "A")),
        "A -> C -> B -> D -> B -> C -> E -> F",
        "node sequence must match §4.2's multi-failure example"
    );
}

/// §4.3 / Figure 1(c): failures D–E and B–C, packet A → F, with the
/// decreasing-distance termination condition. The paper's walkthrough,
/// verbatim:
///
/// * D detects D→E down: PR bit set, DD := 2, forward over I_DB (c2);
/// * B cannot forward over B→C: own DD (3) ≥ 2 → cycle following over
///   I_BA (c3);
/// * A forwards (cycle following) to C;
/// * C cannot forward over I_CB: own DD (2) ≥ 2 → follow c2 to E;
/// * E cannot forward over I_ED: own DD (1) < 2 → clear PR, deliver
///   via shortest path E → F.
#[test]
fn figure_1c_multi_failure_walkthrough() {
    let (g, net) = build(PrMode::DistanceDiscriminator);
    let agent = net.agent(&g);
    let de = g.find_link(n(&g, "D"), n(&g, "E")).unwrap();
    let bc = g.find_link(n(&g, "B"), n(&g, "C")).unwrap();
    let failed = LinkSet::from_links(g.link_count(), [de, bc]);

    let walk = walk_packet(&g, &agent, n(&g, "A"), n(&g, "F"), &failed, generous_ttl(&g));
    assert!(walk.result.is_delivered(), "got {:?}", walk.result);
    assert_eq!(
        walk.path.display(&g, n(&g, "A")),
        "A -> B -> D -> B -> A -> C -> E -> F",
        "node sequence must match the §4.3 walkthrough"
    );
}

/// Step-level check of the §4.3 walkthrough: the DD stamp placed by D
/// is exactly 2, B and C decide "continue", E decides "terminate".
#[test]
fn figure_1c_dd_decisions_are_the_papers() {
    let (g, net) = build(PrMode::DistanceDiscriminator);
    let agent = net.agent(&g);
    let de = g.find_link(n(&g, "D"), n(&g, "E")).unwrap();
    let bc = g.find_link(n(&g, "B"), n(&g, "C")).unwrap();
    let failed = LinkSet::from_links(g.link_count(), [de, bc]);

    // At D (arriving from B, PR clear): D stamps its own hop count, 2.
    let mut state = PrHeader::default();
    let decision =
        agent.decide(n(&g, "D"), Some(dart(&g, "B", "D")), n(&g, "F"), &mut state, &failed);
    assert_eq!(decision, ForwardDecision::Forward(dart(&g, "D", "B")));
    assert!(state.pr);
    assert_eq!(state.dd, 2, "the paper stamps DD = 2 at D");

    // At B (arriving from D, PR set, DD=2): B's own DD is 3 ≥ 2 →
    // continue over I_BA.
    let mut state = PrHeader { pr: true, dd: 2 };
    let decision =
        agent.decide(n(&g, "B"), Some(dart(&g, "D", "B")), n(&g, "F"), &mut state, &failed);
    assert_eq!(decision, ForwardDecision::Forward(dart(&g, "B", "A")));
    assert!(state.pr);

    // At C (arriving from A, PR set): continuation I_CB failed; C's own
    // DD is 2 ≥ 2 → continue over I_CE (cycle c2).
    let mut state = PrHeader { pr: true, dd: 2 };
    let decision =
        agent.decide(n(&g, "C"), Some(dart(&g, "A", "C")), n(&g, "F"), &mut state, &failed);
    assert_eq!(decision, ForwardDecision::Forward(dart(&g, "C", "E")));
    assert!(state.pr);

    // At E (arriving from C, PR set): continuation I_ED failed; E's own
    // DD is 1 < 2 → clear PR and resume shortest path to F.
    let mut state = PrHeader { pr: true, dd: 2 };
    let decision =
        agent.decide(n(&g, "E"), Some(dart(&g, "C", "E")), n(&g, "F"), &mut state, &failed);
    assert_eq!(decision, ForwardDecision::Forward(dart(&g, "E", "F")));
    assert!(!state.pr, "E terminates cycle following");
}

/// §4.3's motivation: without DD bits (basic mode), the Figure 1(c)
/// scenario loops forever. Our walker must detect the livelock
/// *exactly* (not just via TTL).
#[test]
fn figure_1c_loops_in_basic_mode() {
    let (g, net) = build(PrMode::Basic);
    let agent = net.agent(&g);
    let de = g.find_link(n(&g, "D"), n(&g, "E")).unwrap();
    let bc = g.find_link(n(&g, "B"), n(&g, "C")).unwrap();
    let failed = LinkSet::from_links(g.link_count(), [de, bc]);

    let walk = walk_packet(&g, &agent, n(&g, "A"), n(&g, "F"), &failed, generous_ttl(&g));
    assert_eq!(
        walk.result,
        WalkResult::Dropped(pr_core::DropReason::ForwardingLoop),
        "the paper's Figure 1(c) forwarding loop must be detected"
    );
}

/// §6 header sizing on the Figure 1 network: hop diameter 4 (A is 4
/// hops from F) → 3 DD bits, `⌈log₂(4 + 1)⌉` (a power of two needs
/// the extra bit `1 + ⌈log₂ d⌉` would miss); with the PR bit, 4 bits —
/// exactly the DSCP pool-2 capacity the paper proposes using.
#[test]
fn figure_1_header_fits_dscp_pool2() {
    let (_, net) = build(PrMode::DistanceDiscriminator);
    assert_eq!(net.routing().max_discriminator(DiscriminatorKind::Hops), 4);
    assert_eq!(net.codec().dd_bits(), 3);
    assert_eq!(net.codec().total_bits(), 4);
    assert!(net.codec().fits_in_dscp_pool2());
}

/// §6 header sizing on the three evaluation maps, as `pr experiment
/// overheads` prints it (DESIGN.md §13's "DD header width" and "DSCP
/// pool-2 fit" rows): the DD field is the bit length of the largest
/// hop label, `⌈log₂(d + 1)⌉`, plus the PR bit. The width reads the
/// failure-free trees only, so any embedding compiles to it; the
/// identity rotation spares the genus search.
#[test]
fn dd_header_width_on_the_evaluation_maps() {
    use pr_topologies::{Isp, Weighting};
    let pinned =
        [(Isp::Abilene, 5, 4, true), (Isp::Teleglobe, 10, 5, false), (Isp::Geant, 12, 5, false)];
    for (isp, diameter, bits, fits) in pinned {
        let g = pr_topologies::load(isp, Weighting::Distance);
        let emb = CellularEmbedding::new(&g, RotationSystem::identity(&g)).unwrap();
        let net =
            PrNetwork::compile(&g, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
        let d = net.routing().max_discriminator(DiscriminatorKind::Hops);
        assert_eq!(d, diameter, "{isp}: hop diameter");
        assert_eq!(u32::from(net.codec().dd_bits()), u64::BITS - d.leading_zeros(), "{isp}");
        assert_eq!(net.codec().total_bits(), bits, "{isp}: 1 + ⌈log₂({d} + 1)⌉ bits");
        assert_eq!(net.codec().fits_in_dscp_pool2(), fits, "{isp}: DSCP pool 2 holds 4 bits");
    }
}

/// The rendered Table 1 mentions every interface of D in the paper's
/// notation.
#[test]
fn table1_renders_in_paper_notation() {
    let (g, net) = build(PrMode::DistanceDiscriminator);
    let text = net.cycle_table().display_at(&g, net.embedding(), n(&g, "D"));
    for iface in ["I_BD", "I_ED", "I_FD", "I_DB", "I_DE", "I_DF"] {
        assert!(text.contains(iface), "rendered table missing {iface}:\n{text}");
    }
}
