//! The oracle ladder: every plain reference a production path is held
//! equal to, and the one classification loop the sweep oracles share.
//!
//! | oracle | the production path it checks | held equal by |
//! |---|---|---|
//! | `pr_core::walk_packet` (one packet, hop by hop, fresh scratch) | `FlowUnit::walk`, `recover_flow_with`, `walk_packet_spliced`, `pr_bench::fcp_lane::FcpLane`, `pr_bench::pr_lane::PrLane` | `bench/tests/kernel.rs`, `bench/tests/memo.rs`, `traffic/tests/properties.rs` |
//! | `pr_traffic::replay_scenario_naive` (one `walk_packet` per flow, a scratch survivor tree per destination) | `replay_scenario_bitparallel` | `traffic/tests/properties.rs`, `traffic/tests/alloc_free.rs` |
//! | `DenseFib::affected_into` (one pass over a whole tree) | `DenseFib::roots_into` and the cones replay walks off it | `traffic/tests/properties.rs` |
//! | `SpTree::towards` (Dijkstra from scratch) | `ConeOpener::open` (cone enumeration + label repair), `SpTree::repair_from` | `bench/tests/kernel.rs`, `topologies/tests/spt_repair.rs` |
//! | [`stretch_serial`] | `pr_bench::stretch::{run_with_stats, run_rows}` | `bench/tests/determinism.rs` |
//! | [`coverage_serial`] | `pr_bench::coverage::run` | `bench/tests/determinism.rs` |
//! | `pr_bench::traffic::run_serial` (`replay_scenario_naive` per scenario) | `pr_bench::traffic::run` | `bench/tests/determinism.rs` |
//! | `pr_bench::ablation`'s `Oracle` (in-crate) | `pr_dd_sweep`, `genus_delivery` | `ablation::tests` |
//! | `pr_daemon::cold_recompile` (base + live trees + FIB from scratch) | `Twin`'s incremental event apply | `daemon/tests/equivalence.rs` |
//!
//! The first five rungs live beside the code they check — in-crate
//! unit tests and `benchmark/` call them, and a crate's own unit tests
//! cannot see this kit. The two sweep references live here.
//!
//! **Independence.** No oracle reads `PrNetwork::base()`: each computes
//! failure-free trees of its own (`AllPairs::compute_all_live`), so a
//! defect in the one copy every production path borrows cannot cancel
//! out of a comparison.

use pr_baselines::{FcpAgent, LfaAgent, NotViaAgent, ReconvergenceAgent};
use pr_bench::coverage::{self, CoverageRow};
use pr_bench::stretch::StretchSamples;
use pr_core::{generous_ttl, walk_packet, DiscriminatorKind, PrMode, PrNetwork};
use pr_embedding::CellularEmbedding;
use pr_graph::{AllPairs, Graph, LinkSet, NodeId, SpTree};
use pr_scenarios::{ScenarioFamily, ScenarioIter};

/// The classification every sweep conditions on, as the plainest loop:
/// for each scenario of `family`, destination and other node `src`
/// whose canonical failure-free path crosses a failed link, calls
/// `visit(failed, dst, src, base_tree, live_tree)` — scenarios in
/// family order, destinations then sources ascending. `live_tree` is a
/// from-scratch Dijkstra over the survivor graph; whether it still
/// reaches `src` (the paper's "| path" conditioning) is the visitor's
/// to ask.
pub fn affected_pairs(
    graph: &Graph,
    family: &dyn ScenarioFamily,
    mut visit: impl FnMut(&LinkSet, NodeId, NodeId, &SpTree, &SpTree),
) {
    let base = AllPairs::compute_all_live(graph);
    for failed in ScenarioIter::new(family) {
        for dst in graph.nodes() {
            let base_tree = base.towards(dst);
            let live_tree = SpTree::towards(graph, dst, &failed);
            for src in graph.nodes().filter(|&src| src != dst) {
                let path = base_tree.path_darts(graph, src).expect("connected base graph");
                if path.iter().any(|d| failed.contains_dart(*d)) {
                    visit(&failed, dst, src, base_tree, &live_tree);
                }
            }
        }
    }
}

/// The stretch sweep's serial reference: plain `walk_packet` under the
/// honest recompute-per-decision FCP agent and `pr`'s agent, nothing of
/// the unit kernel. `stretch::run` is bit-identical to it at every
/// thread count.
pub fn stretch_serial(
    graph: &Graph,
    pr: &PrNetwork,
    family: &dyn ScenarioFamily,
) -> StretchSamples {
    let fcp = FcpAgent::new(graph);
    let pr_agent = pr.agent(graph);
    let ttl = generous_ttl(graph);
    let mut out = StretchSamples::default();
    // Debug builds cross-check the survivor costs against the
    // reconvergence agent's own tables, converged once per scenario.
    let mut reconverged: Option<(LinkSet, ReconvergenceAgent)> = None;
    affected_pairs(graph, family, |failed, dst, src, base_tree, live_tree| {
        // Reconvergence: the survivor shortest path, by definition.
        let Some(reconv_cost) = live_tree.cost(src) else {
            out.disconnected_pairs += 1;
            return;
        };
        out.evaluated_pairs += 1;
        let optimal = base_tree.cost(src).expect("connected") as f64;
        out.reconvergence.push(reconv_cost as f64 / optimal);
        if cfg!(debug_assertions) {
            if reconverged.as_ref().is_none_or(|(of, _)| of != failed) {
                let agent = ReconvergenceAgent::converged_on(graph, failed);
                reconverged = Some((failed.clone(), agent));
            }
            let (_, agent) = reconverged.as_ref().expect("just converged");
            assert_eq!(agent.converged_cost(src, dst), Some(reconv_cost));
        }

        // FCP: incremental failure discovery. PR: cycle following.
        let walk = walk_packet(graph, &fcp, src, dst, failed, ttl);
        match walk.result.is_delivered() {
            true => out.fcp.push(walk.cost(graph) as f64 / optimal),
            false => out.undelivered_fcp += 1,
        }
        let walk = walk_packet(graph, &pr_agent, src, dst, failed, ttl);
        match walk.result.is_delivered() {
            true => out.packet_recycling.push(walk.cost(graph) as f64 / optimal),
            false => out.undelivered_pr += 1,
        }
        out.undelivered = out.undelivered_fcp + out.undelivered_pr;
    });
    out
}

/// The coverage sweep's serial reference over the families
/// `coverage::run` sweeps: all five schemes by plain `walk_packet`, on
/// every affected pair the survivor graph still connects.
/// `coverage::run` is bit-identical to it at every thread count.
pub fn coverage_serial(
    graph: &Graph,
    embedding: &CellularEmbedding,
    max_failures: usize,
    samples_per_count: usize,
    seed: u64,
) -> Vec<CoverageRow> {
    let compile =
        |mode| PrNetwork::compile(graph, embedding.clone(), mode, DiscriminatorKind::Hops);
    let (basic_net, dd_net) = (compile(PrMode::Basic), compile(PrMode::DistanceDiscriminator));
    let (basic, dd) = (basic_net.agent(graph), dd_net.agent(graph));
    let (fcp, lfa, notvia) =
        (FcpAgent::new(graph), LfaAgent::compute(graph), NotViaAgent::compute(graph));
    let ttl = generous_ttl(graph);
    (1..=max_failures)
        .map(|k| {
            let family = coverage::scenarios_for(graph, k, samples_per_count, seed);
            let mut row = CoverageRow { failures: k, ..CoverageRow::default() };
            affected_pairs(graph, family.as_ref(), |failed, dst, src, _, live_tree| {
                if !live_tree.reaches(src) {
                    return; // "| path" conditioning
                }
                let delivered = [
                    walk_packet(graph, &basic, src, dst, failed, ttl).result.is_delivered(),
                    walk_packet(graph, &dd, src, dst, failed, ttl).result.is_delivered(),
                    walk_packet(graph, &fcp, src, dst, failed, ttl).result.is_delivered(),
                    walk_packet(graph, &lfa, src, dst, failed, ttl).result.is_delivered(),
                    walk_packet(graph, &notvia, src, dst, failed, ttl).result.is_delivered(),
                ];
                let cells = [
                    &mut row.pr_basic,
                    &mut row.pr_dd,
                    &mut row.fcp,
                    &mut row.lfa,
                    &mut row.notvia,
                ];
                for (cell, delivered) in cells.into_iter().zip(delivered) {
                    cell.evaluated += 1;
                    cell.delivered += u64::from(delivered);
                }
            });
            row
        })
        .collect()
}
