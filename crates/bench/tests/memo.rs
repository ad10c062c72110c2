//! Property-based equivalence of suffix-memoized walks and plain
//! walks — the correctness contract behind `walk_packet_spliced`.
//!
//! Over random 2-edge-connected graphs and random (scenario, dest)
//! work units, every affected source is walked both ways for both
//! stateful agents the stretch sweep runs (FCP and PR-DD). The
//! memoized walk must agree with the plain walk outcome-for-outcome
//! and cost-for-cost — including under a TTL tight enough that the
//! remaining-steps guard has to reject splices and keep walking.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pr_baselines::FcpAgent;
use pr_core::{
    generous_ttl, walk_packet_spliced, walk_packet_with, ForwardingAgent, SuffixMemo, WalkScratch,
};
use pr_graph::{Graph, LinkSet, NodeId};
use pr_testkit::nets::Net;
use pr_testkit::strategies::{random_links, two_edge_connected};

/// Walks every affected source of one unit both ways and asserts
/// bit-identical projections. Returns the longest delivered plain walk
/// (in steps), for deriving tight TTLs.
#[allow(clippy::too_many_arguments)]
fn check_unit<A: ForwardingAgent>(
    g: &Graph,
    agent: &A,
    sources: &[NodeId],
    dst: NodeId,
    failed: &LinkSet,
    ttl: usize,
    scratch: &mut WalkScratch<A::State>,
    memo: &mut SuffixMemo<A::State>,
) -> Result<usize, TestCaseError>
where
    A::State: std::hash::Hash + Eq,
{
    let mut plain_scratch = WalkScratch::new();
    let mut longest = 0;
    for &src in sources {
        let plain = walk_packet_with(g, agent, src, dst, failed, ttl, &mut plain_scratch);
        let spliced = walk_packet_spliced(g, agent, src, dst, failed, ttl, scratch, memo);
        let label = format!("{} {src}->{dst} ttl={ttl} failed={failed:?}", agent.label());
        prop_assert_eq!(&spliced.result, &plain.result, "{}", label);
        prop_assert_eq!(spliced.cost, plain.cost(g), "{}", label);
        prop_assert_eq!(spliced.steps, plain.path.hop_count(), "{}", label);
        if plain.result.is_delivered() {
            longest = longest.max(plain.path.hop_count());
        }
    }
    Ok(longest)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Memoized walks ≡ plain walks, across random (scenario, dest)
    /// units, for FCP and PR-DD, at a generous TTL and then at TTLs
    /// tight enough (longest−1, half, 1) that memo entries seeded by
    /// the generous pass fail the remaining-steps guard mid-walk.
    #[test]
    fn memoized_walks_equal_plain_walks(
        g in two_edge_connected(4..16, 0..8, 1..=8),
        seed in 0u64..u64::MAX,
    ) {
        // PR-DD over the identity rotation (any genus — livelock drops
        // are legitimate outcomes and must agree between the two
        // walkers too).
        let Net { g, pr, base, .. } = Net::identity(g);
        let pr_agent = pr.agent(&g);
        let fcp = FcpAgent::new(&g);
        let generous = generous_ttl(&g);
        let mut rng = StdRng::seed_from_u64(seed);

        let mut pr_scratch = WalkScratch::new();
        let mut fcp_scratch = WalkScratch::new();
        let mut pr_memo = SuffixMemo::new();
        let mut fcp_memo = SuffixMemo::new();
        let mut sources_walked = 0usize;

        for _ in 0..6 {
            // One random unit: 1–2 failed links, one destination.
            let failed = random_links(&g, rng.gen_range(1..=2), &mut rng);
            let dst = NodeId(rng.gen_range(0..g.node_count() as u32));
            let base_tree = base.towards(dst);
            let sources: Vec<NodeId> = g
                .nodes()
                .filter(|&src| src != dst && base_tree.path_crosses(&g, src, &failed))
                .collect();
            sources_walked += sources.len();

            // Unit boundary: evict, then reuse the memos for every
            // TTL pass of this unit (suffix facts are TTL-invariant).
            pr_memo.begin_unit();
            fcp_memo.begin_unit();
            let longest = check_unit(
                &g, &pr_agent, &sources, dst, &failed, generous, &mut pr_scratch, &mut pr_memo,
            )?;
            let longest_fcp = check_unit(
                &g, &fcp, &sources, dst, &failed, generous, &mut fcp_scratch, &mut fcp_memo,
            )?;
            for tight in [
                longest.saturating_sub(1),
                longest / 2,
                longest_fcp.saturating_sub(1),
                1,
            ] {
                check_unit(
                    &g, &pr_agent, &sources, dst, &failed, tight, &mut pr_scratch, &mut pr_memo,
                )?;
                check_unit(
                    &g, &fcp, &sources, dst, &failed, tight, &mut fcp_scratch, &mut fcp_memo,
                )?;
            }
        }

        // Guard against vacuity: whenever anything was walked, the
        // memo must at least have been consulted (every walked hop of
        // a source ≠ dest performs one lookup).
        let pr_stats = pr_memo.take_stats();
        let fcp_stats = fcp_memo.take_stats();
        if sources_walked > 0 {
            prop_assert!(pr_stats.lookups > 0);
            prop_assert!(fcp_stats.lookups > 0);
        }
    }
}
