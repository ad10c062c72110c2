//! Ablations: the design choices DESIGN.md calls out.
//!
//! * **E6** — embedding heuristic vs genus/faces and stretch;
//! * **E7** — hop-count vs weighted-cost distance discriminator;
//! * **E11** — delivery rate as a function of embedding genus (the
//!   reproduction finding: §5's guarantee is a genus-0 statement).
//!
//! All three sweeps are the engine's unit kernel ([`crate::engine`])
//! with one PR-DD lane ([`crate::lanes`]).

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use pr_core::{DiscriminatorKind, PrMode, PrNetwork};
use pr_embedding::{genus, CellularEmbedding, FaceStructure, RotationSystem};
use pr_graph::{Graph, LinkSet};
use pr_scenarios::{
    random_connected_failures, SampledMultiFailures, ScenarioFamily, SingleLinkFailures,
};

use crate::engine::ConePlan;
use crate::lanes::LaneScratch;

/// E6: one embedding heuristic's quality and its stretch consequences.
#[derive(Debug, Clone, Serialize)]
pub struct EmbeddingAblationRow {
    /// Heuristic label.
    pub heuristic: String,
    /// Genus achieved.
    pub genus: u32,
    /// Number of faces.
    pub faces: usize,
    /// Largest face size (worst-case single-episode detour bound).
    pub max_face: usize,
    /// Mean PR stretch over all single-failure affected pairs.
    pub mean_stretch: f64,
    /// Max PR stretch over the same set.
    pub max_stretch: f64,
    /// Delivered fraction (can dip below 1 at genus > 0).
    pub delivery: f64,
}

/// Runs E6 on one topology: identity vs geometric vs hill-climb vs
/// thorough.
pub fn embedding_ablation(graph: &Graph, seed: u64, threads: usize) -> Vec<EmbeddingAblationRow> {
    let geometric = RotationSystem::geometric(graph).ok();
    let mut candidates: Vec<(String, RotationSystem)> =
        vec![("identity".into(), RotationSystem::identity(graph))];
    if let Some(geo) = geometric {
        candidates.push(("geometric".into(), geo.clone()));
        candidates
            .push(("geometric+hillclimb".into(), pr_embedding::heuristics::hill_climb(graph, geo)));
    }
    candidates
        .push(("thorough".into(), pr_embedding::heuristics::thorough(graph, seed, 6, 40_000)));

    // Candidate-invariant state, hoisted out of the per-heuristic loop
    // (the single-link family streams — nothing to materialise).
    let scenarios = SingleLinkFailures::new(graph);

    candidates
        .into_iter()
        .map(|(name, rot)| {
            let faces = FaceStructure::trace(graph, &rot);
            let g = genus(graph, &faces).expect("connected topology");
            let emb = CellularEmbedding::new(graph, rot).expect("validated rotation");
            let (mean, max, delivery) = single_failure_stretch(graph, &emb, &scenarios, threads);
            EmbeddingAblationRow {
                heuristic: name,
                genus: g,
                faces: faces.face_count(),
                max_face: faces.max_face_size(),
                mean_stretch: mean,
                max_stretch: max,
                delivery,
            }
        })
        .collect()
}

/// What the PR-DD-only sweeps fold — a block of work units on a
/// worker, then the whole sweep on the calling thread: stretch samples
/// in unit order plus (evaluated, delivered) counts.
#[derive(Debug, Default)]
struct PrDdPartial {
    stretches: Vec<f64>,
    evaluated: u64,
    delivered: u64,
}

/// Sweeps one compiled PR-DD network over `scenarios`, collecting
/// stretch samples and delivery counts over the affected, connected
/// pairs (the shared core of E6/E7). The cone plan is per network: it
/// borrows the trees that network routes on.
fn pr_dd_sweep(
    graph: &Graph,
    net: &PrNetwork,
    scenarios: &dyn ScenarioFamily,
    threads: usize,
) -> PrDdPartial {
    let plan = ConePlan::new(graph, net.base());
    let agent = net.agent(graph);
    let mut merged = PrDdPartial::default();
    plan.sweep(scenarios, threads).fold(
        || (plan.sweep_opener(), LaneScratch::new(&plan, agent)),
        |_| PrDdPartial::default(),
        |(opener, lane), unit, out: &mut PrDdPartial| {
            let cone = opener.open(&unit);
            let mut dd = lane.unit(&unit, &cone);
            for (src, survivor) in cone {
                if survivor.is_none() {
                    continue;
                }
                out.evaluated += 1;
                if let Some(cost) = dd.cost(src) {
                    out.delivered += 1;
                    out.stretches.push(cost as f64 / unit.base_tree.cost(src).unwrap() as f64);
                }
            }
        },
        |_, block| {
            merged.stretches.extend(block.stretches);
            merged.evaluated += block.evaluated;
            merged.delivered += block.delivered;
        },
    );
    merged
}

/// Mean/max PR-DD stretch and delivery ratio over all single-failure
/// affected pairs. `scenarios` is hoisted by the caller (identical for
/// every heuristic candidate on one graph).
fn single_failure_stretch(
    graph: &Graph,
    embedding: &CellularEmbedding,
    scenarios: &dyn ScenarioFamily,
    threads: usize,
) -> (f64, f64, f64) {
    let net = PrNetwork::compile(
        graph,
        embedding.clone(),
        PrMode::DistanceDiscriminator,
        DiscriminatorKind::Hops,
    );
    let r = pr_dd_sweep(graph, &net, scenarios, threads);
    let mean = crate::stretch::mean(&r.stretches);
    let max = r.stretches.iter().copied().fold(f64::NAN, f64::max);
    let delivery = if r.evaluated == 0 { 1.0 } else { r.delivered as f64 / r.evaluated as f64 };
    (mean, max, delivery)
}

/// E7: discriminator function comparison on one topology.
#[derive(Debug, Clone, Serialize)]
pub struct DiscriminatorAblationRow {
    /// Discriminator label.
    pub discriminator: String,
    /// Header bits required.
    pub header_bits: u8,
    /// Delivery ratio over sampled multi-failure scenarios.
    pub delivery: f64,
    /// Mean stretch over delivered affected pairs.
    pub mean_stretch: f64,
}

/// Runs E7: both discriminator kinds over sampled multi-failure
/// scenarios.
pub fn discriminator_ablation(
    graph: &Graph,
    embedding: &CellularEmbedding,
    failures: usize,
    samples: usize,
    seed: u64,
    threads: usize,
) -> Vec<DiscriminatorAblationRow> {
    let scenarios = SampledMultiFailures::new(graph, failures, samples, seed);
    [DiscriminatorKind::Hops, DiscriminatorKind::WeightedCost]
        .into_iter()
        .map(|kind| {
            let net =
                PrNetwork::compile(graph, embedding.clone(), PrMode::DistanceDiscriminator, kind);
            let r = pr_dd_sweep(graph, &net, &scenarios, threads);
            DiscriminatorAblationRow {
                discriminator: kind.to_string(),
                header_bits: net.codec().total_bits(),
                delivery: if r.evaluated == 0 {
                    1.0
                } else {
                    r.delivered as f64 / r.evaluated as f64
                },
                mean_stretch: crate::stretch::mean(&r.stretches),
            }
        })
        .collect()
}

/// E11: delivery rate binned by embedding genus.
#[derive(Debug, Clone, Default, Serialize)]
pub struct GenusDeliveryRow {
    /// Embedding genus of this bin.
    pub genus: u32,
    /// Rotation systems sampled in this bin.
    pub embeddings: u64,
    /// (scenario, pair) combinations evaluated.
    pub evaluated: u64,
    /// Delivered count.
    pub delivered: u64,
}

/// Runs E11 on one graph: samples random rotation systems, bins by
/// genus, and measures PR-DD delivery over sampled non-disconnecting
/// failure sets.
pub fn genus_delivery(
    graph: &Graph,
    rotations: usize,
    failures: usize,
    scenarios_per_rotation: usize,
    seed: u64,
    threads: usize,
) -> Vec<GenusDeliveryRow> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut bins: std::collections::BTreeMap<u32, GenusDeliveryRow> = Default::default();
    for i in 0..rotations {
        let rot = RotationSystem::random(graph, &mut rng);
        let emb = CellularEmbedding::new(graph, rot).expect("connected topology");
        let g = emb.genus();
        let net =
            PrNetwork::compile(graph, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
        let agent = net.agent(graph);
        let plan = ConePlan::new(graph, net.base());
        let row =
            bins.entry(g).or_insert_with(|| GenusDeliveryRow { genus: g, ..Default::default() });
        row.embeddings += 1;
        let scenarios: Vec<LinkSet> = (0..scenarios_per_rotation)
            .map(|s| {
                let draw =
                    random_connected_failures(graph, failures, seed ^ (i as u64) << 20 ^ s as u64);
                // A shortfall here means the caller asked for more
                // concurrent failures than the graph's cycle space
                // admits — the per-genus bins would silently mix
                // failure counts.
                assert!(
                    draw.is_complete(),
                    "graph cannot lose {failures} links (drew {} — lower the failure count)",
                    draw.links.len()
                );
                draw.links
            })
            .collect();
        plan.sweep(&scenarios, threads).fold(
            || (plan.sweep_opener(), LaneScratch::new(&plan, agent)),
            |_| (0, 0),
            |(opener, lane), unit, (evaluated, delivered): &mut (u64, u64)| {
                let cone = opener.open(&unit);
                let mut dd = lane.unit(&unit, &cone);
                // A source outside the cone keeps its shortest path,
                // which PR follows to delivery while it meets no
                // failure: counted, not walked.
                let unaffected = (graph.node_count() - 1 - cone.len()) as u64;
                *evaluated += unaffected;
                *delivered += unaffected;
                for (src, survivor) in cone {
                    if survivor.is_none() {
                        continue;
                    }
                    *evaluated += 1;
                    *delivered += u64::from(dd.cost(src).is_some());
                }
            },
            |_, (evaluated, delivered)| {
                row.evaluated += evaluated;
                row.delivered += delivered;
            },
        );
    }
    bins.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pr_core::{generous_ttl, walk_packet};
    use pr_graph::{generators, AllPairs, SpTree};
    use pr_scenarios::{NodeFailures, ScenarioIter};

    /// What the plain loop finds: every source of every (scenario,
    /// destination) classified by materialising its base path and a
    /// scratch Dijkstra, each connected one walked by the one-shot
    /// walker — nothing of the unit kernel.
    #[derive(Debug, Default)]
    struct Oracle {
        /// Stretch of the delivered affected pairs, in loop order.
        stretches: Vec<f64>,
        /// (evaluated, delivered) over affected connected pairs.
        affected: (u64, u64),
        /// (evaluated, delivered) over all connected pairs.
        connected: (u64, u64),
    }

    fn oracle(graph: &Graph, net: &PrNetwork, scenarios: &dyn ScenarioFamily) -> Oracle {
        let base = AllPairs::compute_all_live(graph);
        let agent = net.agent(graph);
        let ttl = generous_ttl(graph);
        let mut out = Oracle::default();
        for failed in ScenarioIter::new(scenarios) {
            for dst in graph.nodes() {
                let live = SpTree::towards(graph, dst, &failed);
                for src in graph.nodes().filter(|&src| src != dst && live.reaches(src)) {
                    let walk = walk_packet(graph, &agent, src, dst, &failed, ttl);
                    let delivered = u64::from(walk.result.is_delivered());
                    out.connected.0 += 1;
                    out.connected.1 += delivered;
                    if base.towards(dst).path_crosses(graph, src, &failed) {
                        out.affected.0 += 1;
                        out.affected.1 += delivered;
                        if delivered == 1 {
                            let optimal = base.cost(src, dst).expect("connected");
                            out.stretches.push(walk.cost(graph) as f64 / optimal as f64);
                        }
                    }
                }
            }
        }
        out
    }

    /// The 24-node mesh `tests/determinism.rs` livelocks on.
    fn mesh() -> Graph {
        generators::synth_from_spec("isp:24:7").expect("synth spec")
    }

    #[test]
    fn pr_dd_sweep_matches_the_plain_walk_loop() {
        let g = mesh();
        let emb = CellularEmbedding::new(&g, RotationSystem::identity(&g)).unwrap();
        assert!(emb.genus() > 0, "the identity rotation must not embed the mesh planar");
        let net =
            PrNetwork::compile(&g, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
        // Singles, sampled triples, and a node failure: a cut, so some
        // affected sources are disconnected.
        let mut scenarios: Vec<LinkSet> = SingleLinkFailures::new(&g).scenarios().collect();
        scenarios.extend(SampledMultiFailures::new(&g, 3, 6, 2010).scenarios());
        scenarios.push(NodeFailures::new(&g).scenario(0));
        let expected = oracle(&g, &net, &scenarios);
        assert!(expected.affected.1 < expected.affected.0, "some walks must drop");
        assert!(expected.affected.1 > 0);
        for threads in [1, 3] {
            let got = pr_dd_sweep(&g, &net, &scenarios, threads);
            assert_eq!(got.stretches, expected.stretches, "{threads} threads");
            assert_eq!((got.evaluated, got.delivered), expected.affected, "{threads} threads");
        }
    }

    #[test]
    fn genus_delivery_matches_the_plain_walk_loop_over_all_sources() {
        // Every source walked, affected or not: what proves that the
        // sweep may count the unaffected ones instead.
        let g = mesh();
        let (rotations, failures, per_rotation, seed) = (5, 3, 3, 99u64);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut expected = std::collections::BTreeMap::<u32, (u64, u64, u64)>::new();
        for i in 0..rotations {
            let rot = RotationSystem::random(&g, &mut rng);
            let emb = CellularEmbedding::new(&g, rot).unwrap();
            let bin = expected.entry(emb.genus()).or_default();
            let net =
                PrNetwork::compile(&g, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
            let scenarios: Vec<LinkSet> = (0..per_rotation)
                .map(|s| {
                    random_connected_failures(&g, failures, seed ^ (i as u64) << 20 ^ s as u64)
                        .links
                })
                .collect();
            let walked = oracle(&g, &net, &scenarios);
            assert!(walked.affected.0 < walked.connected.0, "most sources are unaffected");
            bin.0 += 1;
            bin.1 += walked.connected.0;
            bin.2 += walked.connected.1;
        }
        for threads in [1, 3] {
            let rows = genus_delivery(&g, rotations, failures, per_rotation, seed, threads);
            let got: std::collections::BTreeMap<u32, (u64, u64, u64)> =
                rows.iter().map(|r| (r.genus, (r.embeddings, r.evaluated, r.delivered))).collect();
            assert_eq!(got, expected, "{threads} threads");
        }
        assert!(expected.keys().all(|&genus| genus > 0), "random rotations of a mesh");
        assert!(expected.values().any(|bin| bin.2 < bin.1), "some walks must drop");
    }

    #[test]
    fn embedding_ablation_orders_heuristics() {
        let g =
            pr_topologies::load(pr_topologies::Isp::Abilene, pr_topologies::Weighting::Distance);
        let rows = embedding_ablation(&g, 7, 2);
        assert!(rows.len() >= 3);
        let thorough = rows.iter().find(|r| r.heuristic == "thorough").unwrap();
        assert_eq!(thorough.genus, 0, "thorough must find Abilene's planar embedding");
        assert_eq!(thorough.delivery, 1.0);
        // More faces never hurt mean stretch ordering *on average*; at
        // minimum the thorough embedding is no worse than identity.
        let identity = rows.iter().find(|r| r.heuristic == "identity").unwrap();
        assert!(thorough.faces >= identity.faces);
    }

    #[test]
    fn discriminator_ablation_shows_bit_cost_difference() {
        let g =
            pr_topologies::load(pr_topologies::Isp::Abilene, pr_topologies::Weighting::Distance);
        let rot = pr_embedding::heuristics::thorough(&g, 1, 4, 10_000);
        let emb = CellularEmbedding::new(&g, rot).unwrap();
        let rows = discriminator_ablation(&g, &emb, 2, 5, 11, 2);
        assert_eq!(rows.len(), 2);
        let hops = &rows[0];
        let cost = &rows[1];
        assert!(hops.header_bits < cost.header_bits, "hops DD needs fewer bits");
        assert_eq!(hops.delivery, 1.0);
        assert_eq!(cost.delivery, 1.0);
    }

    #[test]
    fn genus_delivery_shows_the_finding_on_k5() {
        let g = generators::complete(5, 1);
        let rows = genus_delivery(&g, 30, 3, 3, 99, 2);
        assert!(!rows.is_empty());
        // K5 has no genus-0 rotation system.
        assert!(rows.iter().all(|r| r.genus >= 1));
        // And some bin shows imperfect delivery (the finding).
        let any_loss = rows.iter().any(|r| r.delivered < r.evaluated);
        assert!(any_loss, "expected some livelock at positive genus: {rows:?}");
    }
}
