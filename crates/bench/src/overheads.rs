//! Overhead accounting (E8/E9): the paper's §6 comparison, measured on
//! the real encoders and tables rather than asserted.

use serde::Serialize;

use pr_baselines::FcpAgent;
use pr_core::{DiscriminatorKind, MemoryFootprint, PrMode, PrNetwork};
use pr_embedding::CellularEmbedding;
use pr_graph::Graph;
use pr_topologies::Isp;

/// Per-topology overhead summary.
#[derive(Debug, Clone, Serialize)]
pub struct OverheadReport {
    /// Topology label.
    pub topology: String,
    /// Nodes / links.
    pub nodes: usize,
    /// Links.
    pub links: usize,
    /// Hop diameter (drives the paper's `log2(d)` sizing).
    pub hop_diameter: u64,
    /// PR basic mode header bits (always 1).
    pub pr_basic_bits: u8,
    /// PR DD-mode header bits with the hop-count discriminator.
    pub pr_dd_hops_bits: u8,
    /// PR DD-mode header bits with the weighted-cost discriminator.
    pub pr_dd_cost_bits: u8,
    /// Whether the hop-DD header fits DSCP pool 2 (§6's deployment
    /// suggestion).
    pub pr_fits_dscp_pool2: bool,
    /// FCP header bits as a function of carried failures 1, 2, 4, 8.
    pub fcp_bits_by_failures: [usize; 4],
    /// Worst-case per-router memory PR adds (DD column + cycle table).
    pub pr_added_bytes_max: usize,
    /// Total per-router memory including the conventional table, worst
    /// router.
    pub total_bytes_max: usize,
    /// Flooding messages a reconvergence episode costs (2 LSAs per
    /// link as the standard estimate) — PR and FCP need none.
    pub reconvergence_flood_msgs: usize,
}

/// Builds the reports for a list of paper topologies, one worker per
/// topology (the embedding search inside [`crate::paper_topology`] is
/// the expensive part). Output order follows `isps` regardless of
/// thread count, via the engine's deterministic merge.
pub fn reports_for(isps: &[Isp], threads: usize) -> Vec<OverheadReport> {
    let one = |(): &mut (), i: usize| {
        let (graph, embedding) = crate::paper_topology(isps[i]);
        report(isps[i].name(), &graph, &embedding)
    };
    crate::engine::run_units(isps.len(), threads, || (), one)
}

/// Builds the overhead report for one topology.
pub fn report(name: &str, graph: &Graph, embedding: &CellularEmbedding) -> OverheadReport {
    let hops_net = PrNetwork::compile(
        graph,
        embedding.clone(),
        PrMode::DistanceDiscriminator,
        DiscriminatorKind::Hops,
    );
    let cost_net = PrNetwork::compile(
        graph,
        embedding.clone(),
        PrMode::DistanceDiscriminator,
        DiscriminatorKind::WeightedCost,
    );
    let basic_net =
        PrNetwork::compile(graph, embedding.clone(), PrMode::Basic, DiscriminatorKind::Hops);
    let fcp = FcpAgent::new(graph);
    let fcp_bits = |carried: usize| FcpAgent::LENGTH_FIELD_BITS + carried * fcp.link_id_bits();

    let footprints: Vec<MemoryFootprint> =
        graph.nodes().map(|n| hops_net.memory_footprint(graph, n)).collect();

    OverheadReport {
        topology: name.to_string(),
        nodes: graph.node_count(),
        links: graph.link_count(),
        hop_diameter: hops_net.routing().max_discriminator(DiscriminatorKind::Hops),
        pr_basic_bits: basic_net.codec().total_bits(),
        pr_dd_hops_bits: hops_net.codec().total_bits(),
        pr_dd_cost_bits: cost_net.codec().total_bits(),
        pr_fits_dscp_pool2: hops_net.codec().fits_in_dscp_pool2(),
        fcp_bits_by_failures: [fcp_bits(1), fcp_bits(2), fcp_bits(4), fcp_bits(8)],
        pr_added_bytes_max: footprints.iter().map(|f| f.pr_added_bytes()).max().unwrap_or(0),
        total_bytes_max: footprints.iter().map(|f| f.total_bytes()).max().unwrap_or(0),
        reconvergence_flood_msgs: graph.link_count() * 2,
    }
}

/// Renders the E8 table.
pub fn render(reports: &[OverheadReport]) -> String {
    let mut out = String::from(
        "topology    nodes links diam  pr-basic pr-dd(hops) pr-dd(cost) dscp2 fcp(1/2/4/8 failures)      pr-mem(B) flood-msgs\n",
    );
    for r in reports {
        out.push_str(&format!(
            "{:<11} {:>5} {:>5} {:>4}  {:>8} {:>11} {:>11} {:>5} {:>4}/{:>3}/{:>3}/{:>3} bits{:>10} {:>10}\n",
            r.topology,
            r.nodes,
            r.links,
            r.hop_diameter,
            format!("{} bit", r.pr_basic_bits),
            format!("{} bits", r.pr_dd_hops_bits),
            format!("{} bits", r.pr_dd_cost_bits),
            if r.pr_fits_dscp_pool2 { "yes" } else { "no" },
            r.fcp_bits_by_failures[0],
            r.fcp_bits_by_failures[1],
            r.fcp_bits_by_failures[2],
            r.fcp_bits_by_failures[3],
            r.pr_added_bytes_max,
            r.reconvergence_flood_msgs,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abilene_overheads_match_paper_sizing() {
        // Distance weighting so the weighted-cost discriminator really
        // differs from hop counts.
        let g =
            pr_topologies::load(pr_topologies::Isp::Abilene, pr_topologies::Weighting::Distance);
        let rot = pr_embedding::heuristics::thorough(&g, 1, 4, 10_000);
        let emb = CellularEmbedding::new(&g, rot).unwrap();
        let r = report("abilene", &g, &emb);
        assert_eq!(r.pr_basic_bits, 1, "§4.2: a single bit");
        // Abilene hop diameter is 5 → 3 DD bits + PR bit = 4 bits,
        // exactly the paper's `log2(d)` sizing, fitting DSCP pool 2.
        assert_eq!(r.hop_diameter, 5);
        assert_eq!(r.pr_dd_hops_bits, 4);
        assert!(r.pr_fits_dscp_pool2);
        // Weighted-cost DD needs far more bits — the reason the paper
        // suggests hops.
        assert!(r.pr_dd_cost_bits > r.pr_dd_hops_bits);
        // FCP grows linearly in carried failures; PR does not.
        assert!(r.fcp_bits_by_failures[3] > r.fcp_bits_by_failures[0]);
        assert_eq!(
            r.fcp_bits_by_failures[1] - r.fcp_bits_by_failures[0],
            FcpAgent::new(&g).link_id_bits()
        );
    }

    #[test]
    fn render_contains_all_topologies() {
        let g = pr_graph::generators::ring(4, 1);
        let emb = CellularEmbedding::new(&g, pr_embedding::RotationSystem::identity(&g)).unwrap();
        let reports = vec![report("ring4", &g, &emb)];
        let text = render(&reports);
        assert!(text.contains("ring4"));
        assert!(text.lines().count() == 2);
    }
}
