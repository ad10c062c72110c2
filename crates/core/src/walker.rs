//! The packet walker: executes a [`ForwardingAgent`] over a static
//! failure scenario, one packet at a time.
//!
//! Stretch — the paper's evaluation metric — is purely topological: it
//! depends on which links a packet traverses, not on queueing or
//! timing. The walker is therefore the workhorse of the experiment
//! harness (the loss experiments, where time *does* matter, walk the
//! same agents hop by hop on a clock in `pr_bench::timed`).
//!
//! Besides a hop budget (TTL), the walker performs **exact livelock
//! detection**: agents are deterministic functions of
//! `(router, ingress, header state)`, so revisiting an identical
//! triple proves the packet will cycle forever. This cleanly separates
//! "basic mode loops under multi-failure" (§4.3's motivation) from
//! "path is just long".
//!
//! There is **one hop loop**, private to this crate. It takes a dart
//! sink and, for one entry point only, a [`SuffixMemo`]; the entry
//! points differ only in what they hand it and what they keep of its
//! report:
//!
//! * [`walk_packet`] / [`walk_packet_with`] — darts collected into the
//!   returned [`Walk`]'s `Path`;
//! * [`FlowUnit`](crate::FlowUnit) behind the unit guard — the entry
//!   of the sweeps and of replay. It runs the plain loop once per
//!   **point** of a unit that no episode chain prices, not once per
//!   source, staging the darts in the flow scratch;
//!   [`recover_flow_with`](crate::recover_flow_with) releases them to
//!   the caller's load accounting only once the walk has delivered;
//! * [`walk_packet_spliced`] — a caller-held per-unit memo, darts
//!   discarded. No product path calls it; it is the entry point the
//!   benchmark's walk probes time, and `crates/bench/tests/memo.rs`
//!   holds it to the plain walker.
//!
//! The detector state lives in a reusable [`WalkScratch`], so the
//! steady state of every entry point but the `Path`-returning ones
//! allocates nothing per walk.

use pr_graph::{Dart, Graph, LinkSet, NodeId, Path};

use crate::{DropReason, ForwardDecision, ForwardingAgent, SuffixMemo, WalkScratch};

/// Result of walking one packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalkResult {
    /// The packet reached its destination.
    Delivered,
    /// The packet was discarded.
    Dropped(DropReason),
}

impl WalkResult {
    /// `true` if the packet reached its destination.
    pub fn is_delivered(&self) -> bool {
        matches!(self, WalkResult::Delivered)
    }
}

/// A completed walk: outcome, the exact path taken, and the peak
/// header occupancy observed (for overhead accounting).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Walk {
    /// Delivery or drop (with reason).
    pub result: WalkResult,
    /// The darts traversed, in order (up to and including the last
    /// successful hop).
    pub path: Path,
    /// Largest `header_bits` value the agent reported along the walk.
    pub peak_header_bits: usize,
}

impl Walk {
    /// Weighted cost of the traversed path.
    pub fn cost(&self, graph: &Graph) -> u64 {
        self.path.cost(graph)
    }

    /// Stretch of this walk relative to `optimal` (the failure-free
    /// shortest-path cost). `None` if the walk did not deliver or the
    /// pair is degenerate (`optimal == 0`).
    pub fn stretch(&self, graph: &Graph, optimal: u64) -> Option<f64> {
        if !self.result.is_delivered() {
            return None;
        }
        pr_graph::stretch(self.cost(graph), optimal)
    }
}

/// A hop budget that no legitimate walk of the schemes in this
/// workspace exceeds: episodes are bounded by the node count, each
/// episode by a boundary walk over at most all darts plus a routing
/// segment.
pub fn generous_ttl(graph: &Graph) -> usize {
    graph.node_count() * (2 * graph.dart_count() + graph.node_count()) + 64
}

/// Walks one packet from `src` to `dest` under the static failure set
/// `failed`, consulting `agent` at every router.
///
/// The walker (not the agent) is responsible for: delivering at the
/// destination, enforcing `ttl`, exact livelock detection, and
/// verifying that the agent's decisions are physically possible
/// (departing the current router over a live link). Violations surface
/// as [`DropReason::ProtocolViolation`] rather than panics so that
/// property tests can flag buggy agents gracefully.
pub fn walk_packet<A: ForwardingAgent>(
    graph: &Graph,
    agent: &A,
    src: NodeId,
    dest: NodeId,
    failed: &LinkSet,
    ttl: usize,
) -> Walk
where
    A::State: std::hash::Hash + Eq,
{
    walk_packet_with(graph, agent, src, dest, failed, ttl, &mut WalkScratch::new())
}

/// [`walk_packet`] with a caller-provided [`WalkScratch`], reused
/// across walks so the livelock detector allocates nothing in the
/// steady state. The walker resets the scratch itself.
#[allow(clippy::too_many_arguments)]
pub fn walk_packet_with<A: ForwardingAgent>(
    graph: &Graph,
    agent: &A,
    src: NodeId,
    dest: NodeId,
    failed: &LinkSet,
    ttl: usize,
    scratch: &mut WalkScratch<A::State>,
) -> Walk
where
    A::State: std::hash::Hash + Eq,
{
    let mut path = Path::empty();
    let hops =
        walk_hops(graph, agent, src, dest, failed, ttl, scratch, None, |d| path.push(graph, d));
    Walk { result: hops.result, path, peak_header_bits: hops.peak_header_bits }
}

/// A memoized walk's outcome: result plus exact traversal totals,
/// without materializing the path (spliced tails have no path to
/// materialize). For the same inputs, `cost` and `steps` equal
/// `walk.cost(graph)` and `walk.path.hop_count()` of the plain walker
/// bit-for-bit — both are `u64` sums over the identical dart sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplicedWalk {
    /// Delivery or drop (with reason), identical to the plain walker's.
    pub result: WalkResult,
    /// Weighted cost of the (possibly partially spliced) traversal.
    pub cost: u64,
    /// Darts traversed, spliced tail included.
    pub steps: usize,
}

impl SplicedWalk {
    /// Stretch relative to `optimal`, mirroring [`Walk::stretch`].
    pub fn stretch(&self, optimal: u64) -> Option<f64> {
        if !self.result.is_delivered() {
            return None;
        }
        pr_graph::stretch(self.cost, optimal)
    }
}

/// [`walk_packet_with`] plus per-unit suffix memoization.
///
/// `memo` caches delivered suffixes keyed by the visited triple
/// `(router, ingress, header state)`; the caller must call
/// [`SuffixMemo::begin_unit`] whenever `(failed, dest)` changes, since
/// memoized suffixes are only valid within one such unit. When a walk
/// reaches a memoized triple and the remaining TTL covers the
/// memoized remaining steps, the tail is spliced: the walk returns
/// `Delivered` with the exact cost and step totals the plain walker
/// would have produced. When the TTL guard fails the walker keeps
/// walking, which reproduces the plain walker's behavior step for
/// step (the memo only ever shortcuts work, never changes it).
///
/// Completed *delivered* walks — spliced or not — seed the memo from
/// their visited-triple trail. Dropped walks seed nothing: only
/// delivery makes a suffix prefix-independent (see the `memo` module
/// docs for the argument).
#[allow(clippy::too_many_arguments)]
pub fn walk_packet_spliced<A: ForwardingAgent>(
    graph: &Graph,
    agent: &A,
    src: NodeId,
    dest: NodeId,
    failed: &LinkSet,
    ttl: usize,
    scratch: &mut WalkScratch<A::State>,
    memo: &mut SuffixMemo<A::State>,
) -> SplicedWalk
where
    A::State: std::hash::Hash + Eq,
{
    let hops = walk_hops(graph, agent, src, dest, failed, ttl, scratch, Some(memo), |_| {});
    SplicedWalk { result: hops.result, cost: hops.cost, steps: hops.steps }
}

/// What the hop loop reports: the outcome and the exact totals of the
/// traversal, spliced tail included.
#[derive(Debug)]
pub(crate) struct Traversal {
    pub(crate) result: WalkResult,
    /// Weighted cost of every dart traversed.
    pub(crate) cost: u64,
    /// Darts traversed.
    pub(crate) steps: usize,
    /// Largest `header_bits` the agent reported on the hops walked (a
    /// spliced tail reports none).
    pub(crate) peak_header_bits: usize,
}

/// The hop loop every walk entry point runs. Walks one packet,
/// handing every dart it traverses to `on_dart` as it goes (dropped
/// walks included, up to the last successful hop).
///
/// With a `memo` ([`walk_packet_spliced`] only), every visited triple
/// is looked up first; on a hit whose remaining steps the TTL still
/// covers, the walk ends there as `Delivered` with the memoized totals
/// added, and the darts of the spliced tail never reach `on_dart`.
/// Every delivered walk, spliced or not, seeds the memo from its trail
/// before returning. Opening the memo's unit is the caller's job.
///
/// Inlined into each entry point, so the `memo` and `on_dart` each one
/// does not use cost it nothing.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn walk_hops<A: ForwardingAgent>(
    graph: &Graph,
    agent: &A,
    src: NodeId,
    dest: NodeId,
    failed: &LinkSet,
    ttl: usize,
    scratch: &mut WalkScratch<A::State>,
    mut memo: Option<&mut SuffixMemo<A::State>>,
    mut on_dart: impl FnMut(Dart),
) -> Traversal
where
    A::State: std::hash::Hash + Eq,
{
    let mut state = A::State::default();
    let mut at = src;
    let mut ingress: Option<Dart> = None;
    let mut cost: u64 = 0;
    let mut steps: usize = 0;
    let mut peak_header_bits = agent.header_bits(&state);
    let mut spliced = None;
    scratch.reset();

    let result = loop {
        if at == dest {
            break WalkResult::Delivered;
        }
        if steps >= ttl {
            break WalkResult::Dropped(DropReason::TtlExpired);
        }
        if !scratch.record(at, ingress, &state) {
            break WalkResult::Dropped(DropReason::ForwardingLoop);
        }
        if let Some(hit) = memo.as_deref_mut().and_then(|m| m.lookup(at, ingress, &state)) {
            // Splice only when every intermediate TTL check of the
            // replayed tail would have passed: delivery at exactly
            // `ttl` steps is legal, so `remaining TTL ≥ rem_steps`
            // suffices.
            if ttl - steps >= hit.rem_steps as usize {
                spliced = Some(hit);
                break WalkResult::Delivered;
            }
        }

        match agent.decide(at, ingress, dest, &mut state, failed) {
            ForwardDecision::Forward(d) => {
                let physically_ok = graph.dart_tail(d) == at && !failed.contains_dart(d);
                if !physically_ok {
                    break WalkResult::Dropped(DropReason::ProtocolViolation);
                }
                on_dart(d);
                cost += u64::from(graph.weight(d.link()));
                steps += 1;
                at = graph.dart_head(d);
                ingress = Some(d);
                peak_header_bits = peak_header_bits.max(agent.header_bits(&state));
            }
            ForwardDecision::Drop(reason) => {
                // The decide call may have grown the header (e.g. FCP
                // learning failures) before concluding it must drop.
                peak_header_bits = peak_header_bits.max(agent.header_bits(&state));
                break WalkResult::Dropped(reason);
            }
        }
    };

    if let Some(memo) = memo {
        memo.record_walked(steps as u64);
        let mut fresh = scratch.len();
        if let Some(hit) = spliced {
            memo.record_splice(u64::from(hit.rem_steps));
            cost += hit.rem_cost;
            steps += hit.rem_steps as usize;
            // The trail ends with the triple the memo already holds.
            fresh -= 1;
        }
        // `ingress` is the dart out of the last fresh triple; a walk
        // that never left `src` has neither.
        if let (WalkResult::Delivered, Some(last)) = (&result, ingress) {
            memo.seed(graph, &scratch.entries()[..fresh], last, spliced);
        }
    }
    Traversal { result, cost, steps, peak_header_bits }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DiscriminatorKind, PrMode, PrNetwork};
    use pr_embedding::{CellularEmbedding, RotationSystem};
    use pr_graph::generators;

    fn ring_net(mode: PrMode) -> (Graph, PrNetwork) {
        let g = generators::ring(6, 1);
        let emb = CellularEmbedding::new(&g, RotationSystem::identity(&g)).unwrap();
        let net = PrNetwork::compile(&g, emb, mode, DiscriminatorKind::Hops);
        (g, net)
    }

    #[test]
    fn delivers_on_shortest_path_without_failures() {
        let (g, net) = ring_net(PrMode::DistanceDiscriminator);
        let agent = net.agent(&g);
        let none = LinkSet::empty(g.link_count());
        let walk = walk_packet(&g, &agent, NodeId(3), NodeId(0), &none, generous_ttl(&g));
        assert!(walk.result.is_delivered());
        assert_eq!(walk.path.hop_count(), 3);
        assert_eq!(walk.stretch(&g, 3), Some(1.0));
    }

    #[test]
    fn src_equals_dest_is_trivially_delivered() {
        let (g, net) = ring_net(PrMode::DistanceDiscriminator);
        let agent = net.agent(&g);
        let none = LinkSet::empty(g.link_count());
        let walk = walk_packet(&g, &agent, NodeId(2), NodeId(2), &none, 10);
        assert!(walk.result.is_delivered());
        assert!(walk.path.is_empty());
        assert_eq!(walk.stretch(&g, 0), None, "stretch undefined for src == dest");
    }

    #[test]
    fn reroutes_around_single_failure_on_ring() {
        let (g, net) = ring_net(PrMode::DistanceDiscriminator);
        let agent = net.agent(&g);
        // 1 -> 0 with link 1-0 down: must deliver the long way (5 hops).
        let direct = g.find_link(NodeId(1), NodeId(0)).unwrap();
        let failed = LinkSet::from_links(g.link_count(), [direct]);
        let walk = walk_packet(&g, &agent, NodeId(1), NodeId(0), &failed, generous_ttl(&g));
        assert!(walk.result.is_delivered(), "got {:?}", walk.result);
        assert_eq!(walk.path.hop_count(), 5);
        assert_eq!(walk.stretch(&g, 1), Some(5.0));
        assert!(!walk.path.darts().iter().any(|d| d.link() == direct));
    }

    #[test]
    fn basic_mode_handles_single_failure_too() {
        let (g, net) = ring_net(PrMode::Basic);
        let agent = net.agent(&g);
        let direct = g.find_link(NodeId(2), NodeId(1)).unwrap();
        let failed = LinkSet::from_links(g.link_count(), [direct]);
        let walk = walk_packet(&g, &agent, NodeId(2), NodeId(0), &failed, generous_ttl(&g));
        assert!(walk.result.is_delivered(), "got {:?}", walk.result);
    }

    #[test]
    fn disconnecting_failures_are_dropped_not_looped() {
        let (g, net) = ring_net(PrMode::DistanceDiscriminator);
        let agent = net.agent(&g);
        // Cut the ring on both sides of node 0's arc: 0 is unreachable
        // from 3.
        let l01 = g.find_link(NodeId(0), NodeId(1)).unwrap();
        let l50 = g.find_link(NodeId(5), NodeId(0)).unwrap();
        let failed = LinkSet::from_links(g.link_count(), [l01, l50]);
        let walk = walk_packet(&g, &agent, NodeId(3), NodeId(0), &failed, generous_ttl(&g));
        match walk.result {
            WalkResult::Dropped(DropReason::ForwardingLoop | DropReason::Isolated) => {}
            other => panic!("expected loop/isolated drop, got {other:?}"),
        }
    }

    #[test]
    fn ttl_cuts_off_runaway_agents() {
        // An adversarial agent that ping-pongs forever but mutates its
        // state each hop, defeating exact loop detection — TTL must
        // stop it.
        struct PingPong;
        impl ForwardingAgent for PingPong {
            type State = u64;
            fn label(&self) -> &'static str {
                "ping-pong"
            }
            fn decide(
                &self,
                at: NodeId,
                _ingress: Option<Dart>,
                _dest: NodeId,
                state: &mut u64,
                _failed: &LinkSet,
            ) -> ForwardDecision {
                *state += 1;
                ForwardDecision::Forward(if at == NodeId(0) {
                    pr_graph::LinkId(0).forward()
                } else {
                    pr_graph::LinkId(0).reverse()
                })
            }
            fn header_bits(&self, state: &u64) -> usize {
                *state as usize
            }
        }
        let g = generators::ring(6, 1);
        let none = LinkSet::empty(g.link_count());
        let walk = walk_packet(&g, &PingPong, NodeId(0), NodeId(3), &none, 40);
        assert_eq!(walk.result, WalkResult::Dropped(DropReason::TtlExpired));
        assert_eq!(walk.path.hop_count(), 40);
        assert_eq!(walk.peak_header_bits, 40, "peak header bits tracked per hop");
    }

    #[test]
    fn loop_detection_catches_stateless_cycles() {
        // An agent that always forwards "clockwise" can never deliver
        // against the ring's orientation... it actually can: going
        // clockwise eventually reaches any node. Use an agent that
        // bounces between two nodes with *unchanged* state instead.
        struct Bounce;
        impl ForwardingAgent for Bounce {
            type State = ();
            fn label(&self) -> &'static str {
                "bounce"
            }
            fn decide(
                &self,
                at: NodeId,
                _ingress: Option<Dart>,
                _dest: NodeId,
                _state: &mut (),
                _failed: &LinkSet,
            ) -> ForwardDecision {
                ForwardDecision::Forward(if at == NodeId(0) {
                    pr_graph::LinkId(0).forward()
                } else {
                    pr_graph::LinkId(0).reverse()
                })
            }
            fn header_bits(&self, _: &()) -> usize {
                0
            }
        }
        let g = generators::ring(6, 1);
        let none = LinkSet::empty(g.link_count());
        let walk = walk_packet(&g, &Bounce, NodeId(0), NodeId(3), &none, 1_000_000);
        assert_eq!(walk.result, WalkResult::Dropped(DropReason::ForwardingLoop));
        assert!(walk.path.hop_count() <= 4, "loop detected promptly");
    }

    #[test]
    fn agent_forwarding_into_failed_link_is_flagged() {
        struct Blind;
        impl ForwardingAgent for Blind {
            type State = ();
            fn label(&self) -> &'static str {
                "blind"
            }
            fn decide(
                &self,
                _at: NodeId,
                _ingress: Option<Dart>,
                _dest: NodeId,
                _state: &mut (),
                _failed: &LinkSet,
            ) -> ForwardDecision {
                ForwardDecision::Forward(pr_graph::LinkId(0).forward())
            }
            fn header_bits(&self, _: &()) -> usize {
                0
            }
        }
        let g = generators::ring(4, 1);
        let failed = LinkSet::from_links(g.link_count(), [pr_graph::LinkId(0)]);
        let walk = walk_packet(&g, &Blind, NodeId(0), NodeId(2), &failed, 10);
        assert_eq!(walk.result, WalkResult::Dropped(DropReason::ProtocolViolation));
    }

    #[test]
    fn scratch_reuse_matches_one_shot_walks() {
        let (g, net) = ring_net(PrMode::DistanceDiscriminator);
        let agent = net.agent(&g);
        let ttl = generous_ttl(&g);
        let mut scratch = WalkScratch::new();
        for failed_link in g.links() {
            let failed = LinkSet::from_links(g.link_count(), [failed_link]);
            for src in g.nodes() {
                for dst in g.nodes() {
                    let one_shot = walk_packet(&g, &agent, src, dst, &failed, ttl);
                    let reused = walk_packet_with(&g, &agent, src, dst, &failed, ttl, &mut scratch);
                    assert_eq!(one_shot, reused, "{failed_link} {src}->{dst}");
                }
            }
        }
    }

    #[test]
    fn spliced_walks_match_plain_walks_exactly() {
        // Every (failure, dest) unit on the ring, every source, and a
        // descending TTL ladder: the generous-TTL pass seeds the memo,
        // then tight TTLs force the remaining-steps guard to reject
        // splices and keep walking — outcomes must still match the
        // plain walker bit for bit.
        for mode in [PrMode::Basic, PrMode::DistanceDiscriminator] {
            let (g, net) = ring_net(mode);
            let agent = net.agent(&g);
            let mut scratch = WalkScratch::new();
            let mut plain_scratch = WalkScratch::new();
            let mut memo = SuffixMemo::new();
            for failed_link in g.links() {
                let failed = LinkSet::from_links(g.link_count(), [failed_link]);
                for dst in g.nodes() {
                    memo.begin_unit();
                    for ttl in [generous_ttl(&g), 6, 5, 3, 1, 0] {
                        for src in g.nodes() {
                            let plain = walk_packet_with(
                                &g,
                                &agent,
                                src,
                                dst,
                                &failed,
                                ttl,
                                &mut plain_scratch,
                            );
                            let spliced = walk_packet_spliced(
                                &g,
                                &agent,
                                src,
                                dst,
                                &failed,
                                ttl,
                                &mut scratch,
                                &mut memo,
                            );
                            let label = format!("{mode:?} {failed_link} {src}->{dst} ttl={ttl}");
                            assert_eq!(spliced.result, plain.result, "{label}");
                            assert_eq!(spliced.cost, plain.cost(&g), "{label}");
                            assert_eq!(spliced.steps, plain.path.hop_count(), "{label}");
                            assert_eq!(
                                spliced.stretch(4),
                                plain.stretch(&g, 4),
                                "{label}: stretch projection agrees"
                            );
                        }
                    }
                }
            }
            let stats = memo.take_stats();
            assert!(stats.hits > 0, "the ring sweep must actually splice ({mode:?})");
            assert!(stats.spliced_steps > 0);
            assert!(stats.hits <= stats.lookups);
        }
    }

    #[test]
    fn memo_is_scoped_to_its_unit() {
        // Seeding under one failure set, then walking another without
        // begin_unit, would be unsound; begin_unit makes it safe.
        let (g, net) = ring_net(PrMode::DistanceDiscriminator);
        let agent = net.agent(&g);
        let ttl = generous_ttl(&g);
        let mut scratch = WalkScratch::new();
        let mut memo = SuffixMemo::new();
        let l10 = g.find_link(NodeId(1), NodeId(0)).unwrap();
        let failed = LinkSet::from_links(g.link_count(), [l10]);
        memo.begin_unit();
        let detour = walk_packet_spliced(
            &g,
            &agent,
            NodeId(1),
            NodeId(0),
            &failed,
            ttl,
            &mut scratch,
            &mut memo,
        );
        assert_eq!(detour.steps, 5, "detoured the long way around");
        // New unit: no failures. The memo must not replay the detour.
        memo.begin_unit();
        let none = LinkSet::empty(g.link_count());
        let direct = walk_packet_spliced(
            &g,
            &agent,
            NodeId(1),
            NodeId(0),
            &none,
            ttl,
            &mut scratch,
            &mut memo,
        );
        assert_eq!(direct.steps, 1, "fresh unit walks the direct link");
    }

    #[test]
    fn generous_ttl_scales_with_topology() {
        let small = generators::ring(4, 1);
        let big = generators::complete(10, 1);
        assert!(generous_ttl(&big) > generous_ttl(&small));
    }
}
