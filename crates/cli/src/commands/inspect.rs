//! `pr info | gen | embed | tables | walk`: look at one topology, its
//! embedding, its tables, one packet.

use pr_core::{generous_ttl, trace_packet, DiscriminatorKind, PrMode, PrNetwork, TraceOutcome};
use pr_graph::{algo, LinkSet, SpTree};

use super::{load_topology, node_by_name, parse_failures, resolve_embedding, CmdResult};
use crate::args::Args;

/// `pr info`: size, connectivity and cut structure of a topology.
pub fn info(args: &Args) -> CmdResult {
    let (graph, _) = load_topology(args.positional(0, "topology")?)?;
    let none = LinkSet::empty(graph.link_count());
    println!("nodes:              {}", graph.node_count());
    println!("links:              {}", graph.link_count());
    println!("connected:          {}", algo::is_connected(&graph, &none));
    println!("2-edge-connected:   {}", algo::is_two_edge_connected(&graph, &none));
    println!("biconnected:        {}", algo::is_biconnected(&graph, &none));
    println!("hop diameter:       {}", algo::hop_diameter(&graph));
    let cuts = algo::cut_analysis(&graph, &none);
    println!("bridges:            {}", cuts.bridges.len());
    println!("articulation pts:   {}", cuts.articulation_points.len());
    let degrees: Vec<usize> = graph.nodes().map(|n| graph.degree(n)).collect();
    let (min, max) = (degrees.iter().min().unwrap_or(&0), degrees.iter().max().unwrap_or(&0));
    let avg = degrees.iter().sum::<usize>() as f64 / degrees.len().max(1) as f64;
    println!("degree min/avg/max: {min}/{avg:.2}/{max}");
    Ok(())
}

/// `pr gen`: generates a seeded synthetic topology (same generators
/// the `synth:` specs use) and optionally writes it in the shipped
/// `.topo` plain-text format, so generated graphs feed back into every
/// command that takes a file path.
pub fn gen(args: &Args) -> CmdResult {
    let family = args.positional(0, "family")?;
    let Some(nodes) = args.optional::<usize>("nodes")? else {
        return Err(format!(
            "--nodes is required (e.g. pr gen {family} --nodes 200); families: {}",
            pr_graph::generators::SYNTH_FAMILIES.join("|")
        )
        .into());
    };
    let seed: u64 = args.option_or("seed", 2010)?;
    let graph = pr_graph::generators::synth_from_spec(&format!("{family}:{nodes}:{seed}"))?;
    let none = LinkSet::empty(graph.link_count());
    println!("family:            {family} (seed {seed})");
    println!("nodes:             {}", graph.node_count());
    println!("links:             {}", graph.link_count());
    println!("2-edge-connected:  {}", algo::is_two_edge_connected(&graph, &none));
    println!("fingerprint:       {:#018x}", graph.fingerprint());
    if let Some(path) = args.option("out") {
        std::fs::write(path, pr_graph::parser::write(&graph))
            .map_err(|e| format!("cannot write {path:?}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

/// `pr embed`: the genus and cycle system of the resolved embedding.
pub fn embed(args: &Args) -> CmdResult {
    let (graph, canonical) = load_topology(args.positional(0, "topology")?)?;
    let emb = resolve_embedding(&graph, canonical, args)?;
    println!("genus:     {}", emb.genus());
    println!("faces:     {}", emb.faces().face_count());
    println!("max face:  {} darts", emb.faces().max_face_size());
    let name = |link| {
        let (a, b) = graph.endpoints(link);
        format!("{}-{}", graph.node_name(a), graph.node_name(b))
    };
    let single_face: Vec<String> = emb.single_face_links().into_iter().map(name).collect();
    let named = if single_face.is_empty() {
        String::new()
    } else {
        format!(" ({})", single_face.join(", "))
    };
    println!("single-face links: {}{named}", single_face.len());
    let planar = match emb.genus() {
        0 => "yes (delivery guarantee applies)",
        _ => "no (see DESIGN.md findings)",
    };
    println!("planar:    {planar}");
    println!("\ncycle system:");
    for (f, boundary) in emb.faces().iter() {
        if boundary.len() <= 16 {
            println!("  {}", emb.faces().display_face(&graph, f));
        } else {
            println!("  {f}: ({} darts)", boundary.len());
        }
    }
    Ok(())
}

/// `pr tables`: one router's cycle following and routing tables.
pub fn tables(args: &Args) -> CmdResult {
    let (graph, canonical) = load_topology(args.positional(0, "topology")?)?;
    let node = node_by_name(&graph, args.positional(1, "node")?)?;
    let emb = resolve_embedding(&graph, canonical, args)?;
    let net =
        PrNetwork::compile(&graph, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
    print!("{}", net.cycle_table().display_at(&graph, net.embedding(), node));
    println!("\nrouting table extract (destination, next hop, DD[hops]):");
    for dest in graph.nodes() {
        if dest == node {
            continue;
        }
        let next = net
            .routing()
            .next_dart(node, dest)
            .map(|d| graph.node_name(graph.dart_head(d)).to_string())
            .unwrap_or_else(|| "-".into());
        println!("  {:<14} via {:<14} dd={}", graph.node_name(dest), next, net.dd(node, dest));
    }
    let (bits, dd_bits) = (net.codec().total_bits(), net.codec().dd_bits());
    let fits = if net.codec().fits_in_dscp_pool2() { "fits" } else { "does not fit" };
    println!("\nheader: {bits} bits total (PR + {dd_bits} DD bits), DSCP pool 2: {fits}");
    Ok(())
}

/// `pr walk`: one packet, hop by hop, around the `--fail`ed links.
pub fn walk(args: &Args) -> CmdResult {
    let (graph, canonical) = load_topology(args.positional(0, "topology")?)?;
    let src = node_by_name(&graph, args.positional(1, "src")?)?;
    let dst = node_by_name(&graph, args.positional(2, "dst")?)?;
    let failed = parse_failures(&graph, args)?;
    let mode = match args.option("mode").unwrap_or("dd") {
        "basic" => PrMode::Basic,
        "dd" => PrMode::DistanceDiscriminator,
        other => return Err(format!("--mode wants basic|dd, got {other:?}").into()),
    };
    let emb = resolve_embedding(&graph, canonical, args)?;
    let net = PrNetwork::compile(&graph, emb, mode, DiscriminatorKind::Hops);
    let trace = trace_packet(&graph, &net, src, dst, &failed, generous_ttl(&graph));
    print!("{}", trace.render(&graph));
    if trace.outcome == TraceOutcome::Delivered {
        let optimal = SpTree::towards_all_live(&graph, dst).cost(src).unwrap_or(0);
        let taken: u64 = trace.darts().iter().map(|d| u64::from(graph.weight(d.link()))).sum();
        if optimal > 0 {
            let stretch = taken as f64 / optimal as f64;
            println!("stretch: {stretch:.3} ({taken} vs optimal {optimal})");
        }
    }
    Ok(())
}
