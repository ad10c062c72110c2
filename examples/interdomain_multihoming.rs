//! §7 of the paper, sketched in code: extending PR to prefixes
//! announced from *outside* the ISP.
//!
//! "Multihomed ISPs that receive several announcements for the same
//! prefix via different outgoing links can map this onto a
//! connectivity graph, and use our technique to obtain cycle following
//! routes."
//!
//! We model an external prefix as a **virtual node** attached to every
//! egress router that received an announcement for it. PR then treats
//! egress-link failures like any internal failure: packets deflect
//! along cycles to an alternative egress, with the same tiny header.
//!
//! ```sh
//! cargo run --release --example interdomain_multihoming
//! ```

use packet_recycling::prelude::*;

fn main() {
    // The intra-domain topology: Abilene.
    let mut graph = topologies::load(topologies::Isp::Abilene, topologies::Weighting::Distance);

    // An external prefix (say 198.51.100.0/24) announced via BGP at
    // three egress PoPs: Seattle, LosAngeles and NewYork. Model it as
    // a virtual node; the "links" are the egress adjacencies, weighted
    // like local exits.
    let prefix = graph.add_node("prefix:198.51.100.0/24").expect("room for a node");
    for egress in ["Seattle", "LosAngeles", "NewYork"] {
        let pop = graph.node_by_name(egress).expect("PoP exists");
        graph.add_link(pop, prefix, 1).expect("egress adjacency");
    }
    // The virtual node needs coordinates for the geometric seed; place
    // it off the east coast (any position works — it only seeds the
    // search).
    graph.set_coordinates(prefix, Coordinates { lon: -60.0, lat: 38.0 });

    println!(
        "connectivity graph: {} nodes / {} links (prefix attached at 3 egresses)",
        graph.node_count(),
        graph.link_count()
    );

    // The usual offline pipeline on the extended graph.
    let rot = embedding::heuristics::thorough(&graph, 2010, 8, 60_000);
    let emb = CellularEmbedding::new(&graph, rot).unwrap();
    println!("embedding genus: {}", emb.genus());
    let net =
        PrNetwork::compile(&graph, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
    println!("header: {} bits", net.codec().total_bits());

    // Traffic from Houston to the prefix normally exits via the
    // nearest egress.
    let houston = graph.node_by_name("Houston").unwrap();
    let ttl = generous_ttl(&graph);
    let none = LinkSet::empty(graph.link_count());
    let normal = walk_packet(&graph, &net.agent(&graph), houston, prefix, &none, ttl);
    println!("\nnormal exit:   {}", normal.path.display(&graph, houston));

    // Now the chosen egress link (the BGP session / peering link)
    // fails. PR re-cycles to another announcement point — no BGP
    // convergence, no path hunting.
    let egress_dart = *normal.path.darts().last().unwrap();
    let failed = LinkSet::from_links(graph.link_count(), [egress_dart.link()]);
    let rerouted = walk_packet(&graph, &net.agent(&graph), houston, prefix, &failed, ttl);
    assert!(rerouted.result.is_delivered());
    println!("egress failed: {}", rerouted.path.display(&graph, houston));

    // Even two simultaneous egress failures leave the third
    // announcement usable.
    let mut two_down = failed.clone();
    let second = graph
        .find_link(graph.node_by_name("Seattle").unwrap(), prefix)
        .or_else(|| graph.find_link(graph.node_by_name("LosAngeles").unwrap(), prefix))
        .unwrap();
    if !two_down.contains(second) {
        two_down.insert(second);
    } else {
        two_down
            .insert(graph.find_link(graph.node_by_name("LosAngeles").unwrap(), prefix).unwrap());
    }
    let last_resort = walk_packet(&graph, &net.agent(&graph), houston, prefix, &two_down, ttl);
    assert!(last_resort.result.is_delivered());
    println!("two egresses down: {}", last_resort.path.display(&graph, houston));
    println!("\nAll exits protected by the same {}-bit header.", net.codec().total_bits());
}
