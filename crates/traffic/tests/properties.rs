//! Property-based tests for the traffic-workload subsystem.
//!
//! The headline property — weighted coverage under a uniform *unit*
//! matrix is bit-identical to the unweighted coverage counts — is
//! checked here at the replay layer over random 2-edge-connected
//! graphs, and again end-to-end against `pr_bench::coverage` in
//! `crates/bench/tests/determinism.rs`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use pr_core::{
    generous_ttl, recover_flow_with, walk_flow_with, walk_packet, DenseFib, DiscriminatorKind,
    DropReason, Fib, FlowScratch, FlowWalk, PrMode, PrNetwork, WalkResult,
};
use pr_embedding::{CellularEmbedding, RotationSystem};
use pr_graph::{bits, generators, AllPairs, Dart, Graph, LinkSet, NodeId, SpTree};
use pr_scenarios::{ExhaustiveKFailures, ScenarioFamily, SingleLinkFailures};
use pr_traffic::{
    replay_scenario, replay_scenario_bitparallel, replay_scenario_naive, FlowSet, HotspotTraffic,
    ReplayScratch, TrafficMatrix, TrafficModel, UniformTraffic,
};

/// A reproducible random 2-edge-connected graph.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (4usize..16, 0usize..8, 0u64..u64::MAX).prop_map(|(n, chords, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        generators::random_two_edge_connected(n, chords, 1..=8, &mut rng)
    })
}

/// PR-DD over the identity rotation (any genus — drops are legitimate
/// outcomes and must be weighted like any other).
fn compile_net(g: &Graph) -> PrNetwork {
    let emb = CellularEmbedding::new(g, RotationSystem::identity(g)).expect("connected");
    PrNetwork::compile(g, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Under the uniform unit matrix, the demand-weighted tally *is*
    /// the unweighted count: weighted coverage equals
    /// delivered/evaluated computed by a plain per-pair walk loop,
    /// bit for bit.
    #[test]
    fn uniform_unit_weighted_coverage_is_bitwise_unweighted(g in arb_graph()) {
        let net = compile_net(&g);
        let agent = net.agent(&g);
        let base = AllPairs::compute_all_live(&g);
        let fib = Fib::from_base(&g, &base);
        let flows = FlowSet::all_pairs(&UniformTraffic::new(&g));
        let ttl = generous_ttl(&g);
        let mut scratch = ReplayScratch::new();
        let singles = SingleLinkFailures::new(&g);

        for i in 0..singles.len() {
            let failed = singles.scenario(i);
            let out = replay_scenario(&g, &agent, &fib, &base, &flows, &failed, ttl, &mut scratch);

            // The unweighted reference: exactly the coverage
            // experiment's conditioning and counters.
            let (mut evaluated, mut delivered) = (0u64, 0u64);
            for dst in g.nodes() {
                let base_tree = base.towards(dst);
                let live = SpTree::towards(&g, dst, &failed);
                for src in g.nodes() {
                    if src == dst || !base_tree.path_crosses(&g, src, &failed) {
                        continue;
                    }
                    if !live.reaches(src) {
                        continue; // "| path" conditioning
                    }
                    evaluated += 1;
                    if matches!(
                        walk_packet(&g, &agent, src, dst, &failed, ttl).result,
                        WalkResult::Delivered
                    ) {
                        delivered += 1;
                    }
                }
            }
            prop_assert_eq!(out.tally.evaluated, evaluated as f64, "scenario {}", i);
            prop_assert_eq!(out.tally.evaluated_delivered, delivered as f64, "scenario {}", i);
            let unweighted =
                if evaluated == 0 { 1.0 } else { delivered as f64 / evaluated as f64 };
            prop_assert_eq!(out.tally.weighted_coverage(), unweighted, "scenario {}", i);
        }
    }

    /// The batched dataplane and the per-packet reference agree
    /// bit-for-bit on arbitrary graphs and failure scenarios (the
    /// confluence contract of the FIB fast path).
    #[test]
    fn batched_replay_equals_naive_reference(g in arb_graph(), seed in 0u64..1024) {
        let net = compile_net(&g);
        let agent = net.agent(&g);
        let base = AllPairs::compute_all_live(&g);
        let fib = Fib::from_base(&g, &base);
        let n = g.node_count();
        let hot = HotspotTraffic::new(&g, (n / 4).max(1), 4.0, seed);
        let flows = FlowSet::sampled(&hot, 64, seed);
        let ttl = generous_ttl(&g);
        let mut scratch = ReplayScratch::new();
        let singles = SingleLinkFailures::new(&g);
        for i in 0..singles.len() {
            let failed = singles.scenario(i);
            let batched =
                replay_scenario(&g, &agent, &fib, &base, &flows, &failed, ttl, &mut scratch);
            let naive = replay_scenario_naive(&g, &agent, &base, &flows, &failed, ttl);
            prop_assert_eq!(&batched, &naive, "scenario {}", i);
        }
    }

    /// The u64-frontier affected-set classification agrees with the
    /// per-flow machinery on every source of every destination group:
    /// the affected bit is exactly `path_crosses`, a clear bit is
    /// exactly a [`FlowWalk::Clear`] outcome of the batched walker,
    /// and `affected ∧ ¬reach` is exactly [`FlowWalk::Disconnected`].
    #[test]
    fn bitset_classification_matches_per_flow_walks(g in arb_graph(), seed in 0u64..1024) {
        let net = compile_net(&g);
        let agent = net.agent(&g);
        let base = AllPairs::compute_all_live(&g);
        let fib = Fib::from_base(&g, &base);
        let dense = DenseFib::from_base(&g, &base);
        let n = g.node_count();
        let hot = HotspotTraffic::new(&g, (n / 4).max(1), 4.0, seed);
        let flows = FlowSet::sampled(&hot, 48, seed);
        let ttl = generous_ttl(&g);
        let (mut affected, mut reach) = (Vec::new(), Vec::new());
        let mut walk = FlowScratch::new();
        let singles = SingleLinkFailures::new(&g);
        for i in 0..singles.len() {
            let failed = singles.scenario(i);
            for (dst, group) in flows.by_destination() {
                let base_tree = base.towards(dst);
                dense.affected_into(dst, &failed, &mut affected);
                let live = SpTree::towards(&g, dst, &failed);
                live.reach_words_into(&mut reach);
                let mut unit = walk.unit(&g, &agent, dst, &failed);
                for flow in group {
                    let hit = bits::test(&affected, flow.src.index());
                    prop_assert_eq!(
                        hit,
                        base_tree.path_crosses(&g, flow.src, &failed),
                        "affected bit vs path_crosses: scenario {} dst {} src {}",
                        i, dst, flow.src
                    );
                    let outcome = walk_flow_with(&mut unit, &fib, &live, flow.src, ttl, |_| {});
                    prop_assert_eq!(
                        matches!(outcome, FlowWalk::Clear { .. }),
                        !hit,
                        "clear bit vs walker: scenario {} dst {} src {}",
                        i, dst, flow.src
                    );
                    prop_assert_eq!(
                        matches!(outcome, FlowWalk::Disconnected),
                        hit && !bits::test(&reach, flow.src.index()),
                        "disconnected class vs walker: scenario {} dst {} src {}",
                        i, dst, flow.src
                    );
                }
            }
        }
    }

    /// Subtree demand aggregation reproduces per-path accumulation
    /// **exactly**: the bit-parallel dataplane's full link-load vector
    /// — not just the peak — equals the batched per-flow dataplane's,
    /// f64-for-f64, and the whole result equals the per-packet
    /// reference (the demand grid at work: every replay sum is exact,
    /// so regrouping per subtree cannot move a bit).
    #[test]
    fn subtree_aggregated_loads_equal_per_path_accumulation(g in arb_graph(), seed in 0u64..1024) {
        let net = compile_net(&g);
        let agent = net.agent(&g);
        let base = AllPairs::compute_all_live(&g);
        let fib = Fib::from_base(&g, &base);
        let dense = DenseFib::from_base(&g, &base);
        let n = g.node_count();
        let flows = FlowSet::all_pairs(&HotspotTraffic::new(&g, (n / 4).max(1), 4.0, seed));
        let ttl = generous_ttl(&g);
        let mut scratch = ReplayScratch::new();
        let mut bp_scratch = ReplayScratch::new();
        let singles = SingleLinkFailures::new(&g);
        for i in 0..singles.len() {
            let failed = singles.scenario(i);
            let batched =
                replay_scenario(&g, &agent, &fib, &base, &flows, &failed, ttl, &mut scratch);
            let bp = replay_scenario_bitparallel(
                &g, &agent, &dense, &base, &flows, &failed, ttl, &mut bp_scratch,
            );
            prop_assert_eq!(&bp, &batched, "scenario {}", i);
            prop_assert_eq!(
                bp_scratch.link_loads(),
                scratch.link_loads(),
                "load vectors diverged in scenario {}",
                i
            );
            let naive = replay_scenario_naive(&g, &agent, &base, &flows, &failed, ttl);
            prop_assert_eq!(&bp, &naive, "scenario {} (naive)", i);
        }
    }

    /// Flow sampling conserves demand, is pure in the seed, and a
    /// materialised matrix snapshot samples identically to the live
    /// model.
    #[test]
    fn sampling_is_conservative_and_snapshot_stable(
        g in arb_graph(),
        samples in 1usize..256,
        seed in 0u64..u64::MAX,
    ) {
        let n = g.node_count();
        let model = HotspotTraffic::new(&g, (n / 4).max(1), 8.0, seed);
        let set = FlowSet::sampled(&model, samples, seed);
        prop_assert!((set.offered() - model.total_demand()).abs() < 1e-6);
        prop_assert!(set.len() <= samples.min(n * (n - 1)));
        let again = FlowSet::sampled(&model, samples, seed);
        prop_assert_eq!(set.flows(), again.flows());
        let snap = TrafficMatrix::from_model(&model);
        let from_snap = FlowSet::sampled(&snap, samples, seed);
        prop_assert_eq!(set.flows(), from_snap.flows());
        // Every flow's endpoints are distinct and demand positive.
        for f in set.flows() {
            prop_assert!(f.src != f.dst);
            prop_assert!(f.demand > 0.0);
        }
    }
}

// ---------------------------------------------------------------------
// Unit boundaries and splice equivalence of the recovery path.
//
// A worker reuses one scratch across every (failed set, destination)
// unit it is handed, in whatever order the queue deals them; within a
// unit, recovery walks splice onto suffixes earlier sources resolved.
// Neither may be observable: every flow must come out exactly as the
// one-shot `walk_packet` prices it.
// ---------------------------------------------------------------------

/// Up to `cap` scenarios of every k ∈ {1, 2, 3}, evenly strided over
/// the exhaustive families.
fn failure_sets(g: &Graph, cap: usize) -> Vec<LinkSet> {
    let mut sets = Vec::new();
    for k in 1..=3 {
        let family = ExhaustiveKFailures::new(g, k);
        let stride = family.len().div_ceil(cap).max(1);
        sets.extend((0..family.len()).step_by(stride).map(|i| family.scenario(i)));
    }
    sets
}

/// Walks every source of every (failed set, destination) unit through
/// `recover_flow_with` — units shuffled, one scratch for all of them —
/// and compares each flow with `walk_packet`: outcome, cost, hops and
/// the darts handed to the load hook. Returns how many walks delivered
/// and how many dropped although a live path existed.
fn check_walks_against_walk_packet(
    g: &Graph,
    net: &PrNetwork,
    sets: &[LinkSet],
    ttl: usize,
    seed: u64,
) -> (usize, usize) {
    let agent = net.agent(g);
    let (mut delivered, mut dropped) = (0, 0);
    let mut units: Vec<(&LinkSet, NodeId)> =
        sets.iter().flat_map(|failed| g.nodes().map(move |dst| (failed, dst))).collect();
    units.shuffle(&mut StdRng::seed_from_u64(seed));
    let mut scratch = FlowScratch::new();
    let mut darts: Vec<Dart> = Vec::new();
    for (failed, dst) in units {
        let live = SpTree::towards(g, dst, failed);
        let mut unit = scratch.unit(g, &agent, dst, failed);
        for src in g.nodes().filter(|&src| src != dst) {
            let label = format!("failed {failed:?} {src}->{dst} ttl {ttl}");
            darts.clear();
            let flow = recover_flow_with(&mut unit, src, ttl, |d| darts.push(d));
            let reference = walk_packet(g, &agent, src, dst, failed, ttl);
            match reference.result {
                WalkResult::Delivered => {
                    let expected = FlowWalk::Recovered {
                        cost: reference.cost(g),
                        hops: reference.path.hop_count() as u32,
                    };
                    assert_eq!(flow, expected, "{label}");
                    assert_eq!(darts, reference.path.darts(), "{label}");
                    delivered += 1;
                }
                WalkResult::Dropped(reason) => {
                    assert_eq!(flow, FlowWalk::Dropped(reason), "{label}");
                    assert!(darts.is_empty(), "{label}: a dropped walk must emit nothing");
                    dropped += usize::from(live.reaches(src));
                }
            }
        }
    }
    (delivered, dropped)
}

/// Replays every failed set through the bit-parallel dataplane —
/// shuffled, one scratch for all of them — against the per-packet
/// oracle and against the load vector of one `walk_packet` per flow.
/// `ttl` must cover every failure-free shortest path (the dataplane
/// delivers clear flows without counting their hops).
fn check_loads_against_walk_packet(
    g: &Graph,
    net: &PrNetwork,
    sets: &[LinkSet],
    ttl: usize,
    seed: u64,
) {
    assert!(ttl >= g.node_count());
    let agent = net.agent(g);
    let base = AllPairs::compute_all_live(g);
    let dense = DenseFib::from_base(g, &base);
    let flows = FlowSet::all_pairs(&HotspotTraffic::new(g, (g.node_count() / 4).max(1), 4.0, seed));
    let mut order: Vec<&LinkSet> = sets.iter().collect();
    order.shuffle(&mut StdRng::seed_from_u64(seed));
    let mut scratch = ReplayScratch::new();
    for failed in order {
        let out = replay_scenario_bitparallel(
            g,
            &agent,
            &dense,
            &base,
            &flows,
            failed,
            ttl,
            &mut scratch,
        );
        let naive = replay_scenario_naive(g, &agent, &base, &flows, failed, ttl);
        assert_eq!(out, naive, "failed {failed:?} ttl {ttl}");
        // The oracle's load accounting, kept whole: every delivered
        // flow adds its demand to each link of its `walk_packet` path.
        let mut loads = vec![0.0; g.link_count()];
        for flow in flows.flows() {
            let walk = walk_packet(g, &agent, flow.src, flow.dst, failed, ttl);
            if walk.result.is_delivered() {
                for d in walk.path.darts() {
                    loads[d.link().index()] += flow.demand;
                }
            }
        }
        assert_eq!(scratch.link_loads(), loads, "failed {failed:?} ttl {ttl}");
    }
}

#[test]
fn shuffled_units_through_one_scratch_equal_walk_packet_on_planar_embeddings() {
    let (figure1, orders) = pr_topologies::figure1();
    let rotation = RotationSystem::from_neighbor_orders(&figure1, &orders).expect("paper orders");
    let abilene =
        pr_topologies::load(pr_topologies::Isp::Abilene, pr_topologies::Weighting::Distance);
    let searched = pr_embedding::heuristics::thorough(&abilene, 2010, 4, 10_000);
    for (g, rotation) in [(figure1, rotation), (abilene, searched)] {
        let emb = CellularEmbedding::new(&g, rotation).expect("connected");
        assert_eq!(emb.genus(), 0);
        let net =
            PrNetwork::compile(&g, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
        let sets = failure_sets(&g, 120);
        // A generous budget, then budgets short enough that some
        // detours fit and longer ones through the same suffix do not.
        for ttl in [generous_ttl(&g), g.node_count(), 4] {
            let (delivered, _) = check_walks_against_walk_packet(&g, &net, &sets, ttl, 2010);
            assert!(delivered > 0);
        }
        for ttl in [generous_ttl(&g), g.node_count()] {
            check_loads_against_walk_packet(&g, &net, &sets, ttl, 2010);
        }
    }
}

#[test]
fn shuffled_units_through_one_scratch_equal_walk_packet_where_walks_drop() {
    // Identity rotation on a generated ISP mesh: positive genus, so the
    // §5 guarantee is off and some connected pairs livelock. Dropped
    // walks must seed nothing — a later source of the unit whose walk
    // crosses one's trail still has to be walked in full.
    let g = generators::synth_from_spec("isp:24:7").expect("synth spec");
    let net = compile_net(&g);
    assert!(net.embedding().genus() > 0, "the identity rotation must not embed the mesh planar");
    let sets = failure_sets(&g, 40);
    for ttl in [generous_ttl(&g), g.node_count()] {
        let (delivered, dropped) = check_walks_against_walk_packet(&g, &net, &sets, ttl, 7);
        assert!(delivered > 0);
        assert!(dropped > 0, "the fixture must make some connected pairs drop (ttl {ttl})");
        check_loads_against_walk_packet(&g, &net, &sets, ttl, 7);
    }
}

#[test]
fn a_splice_the_ttl_cannot_cover_is_walked_hop_by_hop() {
    // Ring of 6, destination 0, link 1-0 down. Source 1 detours the
    // long way round in exactly 5 hops and seeds the unit's memo.
    // Source 2 first runs into the failure (2 -> 1 -> 2) and then
    // stands on a triple of that detour with 4 hops still to go.
    let g = generators::ring(6, 1);
    let net = compile_net(&g);
    let agent = net.agent(&g);
    let failed = LinkSet::from_links(g.link_count(), [g.find_link(NodeId(1), NodeId(0)).unwrap()]);
    let mut scratch = FlowScratch::new();
    for (ttl, expected) in [
        // 5 - 2 < 4: the guard refuses the splice, the walk goes on hop
        // by hop and runs out of budget exactly where `walk_packet` does.
        (5, FlowWalk::Dropped(DropReason::TtlExpired)),
        // 6 - 2 >= 4: spliced.
        (6, FlowWalk::Recovered { cost: 6, hops: 6 }),
    ] {
        let mut unit = scratch.unit(&g, &agent, NodeId(0), &failed);
        let mut darts = Vec::new();
        let first = recover_flow_with(&mut unit, NodeId(1), ttl, |_| {});
        assert_eq!(first, FlowWalk::Recovered { cost: 5, hops: 5 });
        let second = recover_flow_with(&mut unit, NodeId(2), ttl, |d| darts.push(d));
        assert_eq!(second, expected, "ttl {ttl}");
        let reference = walk_packet(&g, &agent, NodeId(2), NodeId(0), &failed, ttl);
        assert_eq!(second.is_delivered(), reference.result.is_delivered(), "ttl {ttl}");
        if second.is_delivered() {
            assert_eq!(darts, reference.path.darts(), "ttl {ttl}");
        } else {
            assert_eq!(reference.path.hop_count(), ttl, "walked to the last hop of the budget");
            assert!(darts.is_empty());
        }
    }
}
