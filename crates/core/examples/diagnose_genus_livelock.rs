//! Diagnostic: does PR-DD's delivery guarantee depend on the genus of
//! the embedding?
//!
//! Rebuilds the minimal counterexample proptest found (5 nodes, 10
//! links, 3 failures), then enumerates EVERY rotation system of the
//! graph, recording for each its genus and whether any (src, dst) pair
//! livelocks. Prints the contingency table.

use pr_core::{generous_ttl, walk_packet, DiscriminatorKind, PrMode, PrNetwork, WalkResult};
use pr_embedding::{genus, CellularEmbedding, FaceStructure, RotationSystem};
use pr_graph::{Dart, Graph, LinkSet, NodeId};

fn main() {
    let mut g = Graph::new();
    for i in 0..5 {
        g.add_node(format!("{i}")).unwrap();
    }
    let links = [
        (3, 4, 2),
        (4, 2, 4),
        (2, 0, 1),
        (0, 1, 3),
        (1, 3, 3),
        (2, 3, 2),
        (2, 1, 6),
        (0, 3, 3),
        (0, 4, 2),
        (4, 1, 5),
    ];
    for (a, b, w) in links {
        g.add_link(NodeId(a), NodeId(b), w).unwrap();
    }
    let failed = LinkSet::from_links(
        g.link_count(),
        [pr_graph::LinkId(1), pr_graph::LinkId(2), pr_graph::LinkId(4)],
    );
    assert!(pr_graph::algo::is_connected(&g, &failed));

    // Enumerate rotation systems: per node, fix the first dart and
    // permute the rest.
    let base: Vec<Vec<Dart>> = g.nodes().map(|n| g.darts_from(n).to_vec()).collect();
    let mut orders = base.clone();
    let mut stats: std::collections::BTreeMap<u32, (u64, u64)> = Default::default();
    let mut example_loop: Option<(u32, Vec<Vec<Dart>>)> = None;
    enumerate(&base, &mut orders, 0, &mut |orders| {
        let rot = RotationSystem::from_orders(&g, orders).unwrap();
        let gen = genus(&g, &FaceStructure::trace(&g, &rot)).unwrap();
        let emb = CellularEmbedding::new(&g, rot).unwrap();
        let net =
            PrNetwork::compile(&g, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
        let agent = net.agent(&g);
        let mut looped = false;
        'outer: for src in g.nodes() {
            for dst in g.nodes() {
                if src == dst {
                    continue;
                }
                let walk = walk_packet(&g, &agent, src, dst, &failed, generous_ttl(&g));
                if !matches!(walk.result, WalkResult::Delivered) {
                    looped = true;
                    break 'outer;
                }
            }
        }
        let e = stats.entry(gen).or_insert((0, 0));
        if looped {
            e.1 += 1;
            if example_loop.is_none() {
                example_loop = Some((gen, orders.clone()));
            }
        } else {
            e.0 += 1;
        }
    });

    println!("genus  delivered-all  livelocked");
    for (gen, (ok, bad)) in &stats {
        println!("{gen:>5}  {ok:>13}  {bad:>10}");
    }
    if let Some((gen, orders)) = example_loop {
        println!("\nfirst livelocking rotation (genus {gen}):");
        for (i, o) in orders.iter().enumerate() {
            let names: Vec<String> =
                o.iter().map(|&d| format!("{}->{}", g.dart_tail(d).0, g.dart_head(d).0)).collect();
            println!("  node {i}: {}", names.join(", "));
        }
    }
}

fn enumerate(
    base: &[Vec<Dart>],
    orders: &mut Vec<Vec<Dart>>,
    node: usize,
    visit: &mut impl FnMut(&Vec<Vec<Dart>>),
) {
    if node == base.len() {
        visit(orders);
        return;
    }
    let degree = base[node].len();
    if degree <= 2 {
        enumerate(base, orders, node + 1, visit);
        return;
    }
    let mut idx: Vec<usize> = (1..degree).collect();
    permute(&mut idx, 0, &mut |p| {
        orders[node][0] = base[node][0];
        for (slot, &src) in p.iter().enumerate() {
            orders[node][slot + 1] = base[node][src];
        }
        enumerate(base, orders, node + 1, visit);
    });
}

fn permute(items: &mut Vec<usize>, k: usize, visit: &mut impl FnMut(&[usize])) {
    if k == items.len() {
        visit(items);
        return;
    }
    for i in k..items.len() {
        items.swap(k, i);
        permute(items, k + 1, visit);
        items.swap(k, i);
    }
}
