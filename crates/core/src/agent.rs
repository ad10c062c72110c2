//! The forwarding abstraction and the Packet Re-cycling agent.
//!
//! A [`ForwardingAgent`] is a line card: a pure decision function from
//! *(current router, ingress interface, destination, per-packet header
//! state, set of failed links)* to *forward-on-this-dart / drop*. The
//! walker (`crate::walker`) and the event simulator (`pr-sim`) execute
//! agents; the baselines crate implements the same trait for FCP,
//! reconvergence and LFA, so every scheme runs under identical
//! machinery.
//!
//! [`PrAgent`] implements the paper's protocol (§4.2 basic mode, §4.3
//! distance-discriminator mode) over compiled [`PrNetwork`] state.

use pr_embedding::CellularEmbedding;
use pr_graph::{AllPairs, Dart, Graph, LinkSet, NodeId};
use serde::{Deserialize, Serialize};

use crate::{
    CycleFollowingTable, DiscriminatorKind, HeaderCodec, MemoryFootprint, PrHeader, RoutingTables,
};

/// Why a packet was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DropReason {
    /// The routing table has no entry (cannot happen on a connected
    /// base topology; kept for defensive completeness).
    NoRoute,
    /// Every interface at the current router leads into a failed link.
    Isolated,
    /// The agent proved the destination unreachable with the failure
    /// knowledge it carries (only agents that carry failure state, such
    /// as FCP, can do this).
    Unreachable,
    /// Hop budget exhausted by the execution engine (possible
    /// forwarding loop or pathologically long detour).
    TtlExpired,
    /// The engine observed an exact repetition of (router, ingress,
    /// header state): a guaranteed livelock.
    ForwardingLoop,
    /// The packet header was inconsistent with the protocol (e.g. PR
    /// bit set on a packet with no ingress interface).
    ProtocolViolation,
}

impl std::fmt::Display for DropReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DropReason::NoRoute => "no route",
            DropReason::Isolated => "all local interfaces failed",
            DropReason::Unreachable => "destination unreachable (carried failure state)",
            DropReason::TtlExpired => "TTL expired",
            DropReason::ForwardingLoop => "forwarding loop detected",
            DropReason::ProtocolViolation => "protocol violation",
        };
        f.write_str(s)
    }
}

/// A forwarding decision for one packet at one router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForwardDecision {
    /// Send the packet out on this dart (must leave the current router
    /// over a live link).
    Forward(Dart),
    /// Discard the packet.
    Drop(DropReason),
}

/// A forwarding scheme, usable by the walker and the event simulator.
///
/// Implementations must be deterministic: same inputs, same decision.
/// `State` is the scheme's per-packet header (e.g. [`PrHeader`] for PR,
/// a failure list for FCP); the engine threads it through the hops.
pub trait ForwardingAgent {
    /// Per-packet mutable header state carried between hops.
    type State: Clone + Default + std::fmt::Debug;

    /// Short scheme name used in experiment output ("pr-dd", "fcp", …).
    fn label(&self) -> &'static str;

    /// Decide what to do with a packet at `at` (≠ destination; the
    /// engine delivers before consulting the agent) that arrived over
    /// `ingress` (`None` at the source) and is headed for `dest`,
    /// given the currently failed links.
    ///
    /// **Contract: a default-header decision does not depend on
    /// `ingress`.** Called with `*state == Self::State::default()`, an
    /// agent must return the same decision and leave the same header
    /// whatever `ingress` is: a packet no router has marked yet is
    /// forwarded by where it is and where it is going alone (the
    /// paper's §4 "conventional" forwarding until a failure is met).
    /// [`FlowUnit`](crate::FlowUnit) rests on it — every source whose
    /// failure-free path reaches a router with the header still
    /// default shares that router's one walk — and debug builds assert
    /// it on every router a unit climbs through.
    fn decide(
        &self,
        at: NodeId,
        ingress: Option<Dart>,
        dest: NodeId,
        state: &mut Self::State,
        failed: &LinkSet,
    ) -> ForwardDecision;

    /// Number of header bits the scheme currently occupies in the
    /// packet, for overhead accounting (experiment E8). Constant for
    /// PR; grows with carried failures for FCP.
    fn header_bits(&self, state: &Self::State) -> usize;
}

/// Which protocol variant of the paper a [`PrAgent`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PrMode {
    /// §4.2: PR bit only. Clears the bit at the first failure met while
    /// cycle following. Guarantees recovery from any single link
    /// failure in 2-edge-connected networks; may livelock under
    /// multiple failures (Figure 1(c) — caught by the engine's loop
    /// detection).
    Basic,
    /// §4.3: PR bit + DD bits with the decreasing-distance termination
    /// condition. Guarantees delivery under any non-disconnecting
    /// failure combination.
    DistanceDiscriminator,
}

impl std::fmt::Display for PrMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PrMode::Basic => f.write_str("pr-basic"),
            PrMode::DistanceDiscriminator => f.write_str("pr-dd"),
        }
    }
}

/// Compiled network-wide PR state: routing tables (with DD columns),
/// cycle following tables, the embedding, and the header codec sized
/// for the worst-case discriminator.
///
/// This corresponds to the output of the paper's offline phase: "once
/// it is available, appropriate cycle following tables are uploaded to
/// all routers" (§4.3).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PrNetwork {
    mode: PrMode,
    discriminator: DiscriminatorKind,
    embedding: CellularEmbedding,
    routing: RoutingTables,
    cycle: CycleFollowingTable,
    codec: HeaderCodec,
}

impl PrNetwork {
    /// Compiles all tables for `graph` under the given embedding and
    /// protocol configuration.
    ///
    /// # Panics
    ///
    /// Panics if `graph` is disconnected (routing tables are total on
    /// connected graphs only).
    pub fn compile(
        graph: &Graph,
        embedding: CellularEmbedding,
        mode: PrMode,
        discriminator: DiscriminatorKind,
    ) -> PrNetwork {
        let routing = RoutingTables::compile(graph, AllPairs::compute_all_live(graph));
        let cycle = CycleFollowingTable::compile(graph, &embedding);
        let codec = match mode {
            PrMode::Basic => HeaderCodec::for_max_dd(0),
            PrMode::DistanceDiscriminator => {
                HeaderCodec::for_max_dd(routing.max_discriminator(discriminator))
            }
        };
        PrNetwork { mode, discriminator, embedding, routing, cycle, codec }
    }

    /// The protocol variant this network runs.
    pub fn mode(&self) -> PrMode {
        self.mode
    }

    /// The discriminator function in use.
    pub fn discriminator_kind(&self) -> DiscriminatorKind {
        self.discriminator
    }

    /// The embedding the tables were compiled from.
    pub fn embedding(&self) -> &CellularEmbedding {
        &self.embedding
    }

    /// The compiled routing tables.
    pub fn routing(&self) -> &RoutingTables {
        &self.routing
    }

    /// The failure-free shortest-path trees the network routes on: the
    /// process's **one** failure-free map. The staged FIB, a sweep's
    /// cone plan and the daemon twin borrow it, nobody recomputes it.
    pub fn base(&self) -> &AllPairs {
        &self.routing.base
    }

    /// The compiled cycle following tables.
    pub fn cycle_table(&self) -> &CycleFollowingTable {
        &self.cycle
    }

    /// The header codec (DD field sized to the worst-case
    /// discriminator, per the paper's `log2(d)` rule).
    pub fn codec(&self) -> HeaderCodec {
        self.codec
    }

    /// The discriminator of `node` towards `dest`.
    #[inline]
    pub fn dd(&self, node: NodeId, dest: NodeId) -> u64 {
        self.routing.discriminator(self.discriminator, node, dest)
    }

    /// Per-router memory footprint (experiment E9).
    pub fn memory_footprint(&self, graph: &Graph, node: NodeId) -> MemoryFootprint {
        MemoryFootprint::per_router(graph.degree(node), graph.node_count().saturating_sub(1))
    }

    /// Binds the compiled state to a graph, yielding the runnable
    /// forwarding agent. Panics if the tables are not of `graph`'s
    /// shape: a network can arrive through serde, compiled for another
    /// topology or cut short, and would index out of range mid-walk.
    pub fn agent<'a>(&'a self, graph: &'a Graph) -> PrAgent<'a> {
        let (nodes, darts, rows) = (graph.node_count(), graph.dart_count(), self.cycle.len());
        let trees = self.base().check_shape(nodes);
        assert!(
            trees.is_ok() && rows == darts,
            "graph/tables mismatch: a graph of {nodes} nodes and {darts} darts, routing tables \
             of {}, a cycle following table of {rows} rows",
            trees.err().unwrap_or(format!("{nodes} trees"))
        );
        PrAgent { net: self, graph }
    }
}

/// The Packet Re-cycling forwarding agent (one instance serves every
/// router: routers are distinguished by the `at` argument).
#[derive(Debug, Clone, Copy)]
pub struct PrAgent<'a> {
    net: &'a PrNetwork,
    graph: &'a Graph,
}

impl<'a> PrAgent<'a> {
    /// Rotates counter-clockwise from the failed dart `from` until a
    /// live interface is found: the boundary-of-the-joined-region step
    /// of §5.1. `None` if every interface at the router is failed.
    fn rotate_live(&self, from: Dart, failed: &LinkSet) -> Option<Dart> {
        let rotation = self.net.embedding.rotation();
        let mut d = rotation.next_around(from);
        while d != from {
            if !failed.contains_dart(d) {
                return Some(d);
            }
            d = rotation.next_around(d);
        }
        None
    }

    /// The cycle-following **episode** the dead routing dart
    /// `failed_out` opens at its tail, whatever the packet's
    /// destination: §4.2's detour is a function of the failed interface
    /// alone, and this is that function. See [`Episode`].
    ///
    /// # Panics
    ///
    /// Panics if `failed_out` is live: only a failed dart is sure to
    /// have a failed dart — its twin — on the face the episode follows.
    pub fn episode<'e>(&self, failed_out: Dart, failed: &'e LinkSet) -> Episode<'e>
    where
        'a: 'e,
    {
        assert!(failed.contains_dart(failed_out), "an episode starts at a failed dart");
        Episode { agent: *self, failed, out: self.rotate_live(failed_out, failed), ended_by: None }
    }

    /// Starts (or restarts) a cycle-following episode at `at` after its
    /// routing dart `failed_out` was found dead: sets the PR bit, in DD
    /// mode stamps the router's own discriminator (§4.3: "the first
    /// router that detects a failure ... will mark the packet header
    /// with the distance discriminator to the destination, as
    /// calculated by the router behind the link failure"), and deflects
    /// onto the failed dart's complementary cycle.
    fn start_episode(
        &self,
        at: NodeId,
        dest: NodeId,
        failed_out: Dart,
        state: &mut PrHeader,
        failed: &LinkSet,
    ) -> ForwardDecision {
        state.pr = true;
        state.dd = match self.net.mode {
            PrMode::Basic => 0,
            PrMode::DistanceDiscriminator => self.net.dd(at, dest),
        };
        match self.rotate_live(failed_out, failed) {
            Some(out) => ForwardDecision::Forward(out),
            None => ForwardDecision::Drop(DropReason::Isolated),
        }
    }

    /// Clears the PR bit and resumes conventional routing at `at`,
    /// starting a fresh episode on the spot if the routing dart is
    /// itself failed.
    fn resume_routing(
        &self,
        at: NodeId,
        dest: NodeId,
        state: &mut PrHeader,
        failed: &LinkSet,
    ) -> ForwardDecision {
        state.pr = false;
        state.dd = 0;
        let Some(out) = self.net.routing.next_dart(at, dest) else {
            return ForwardDecision::Drop(DropReason::NoRoute);
        };
        if !failed.contains_dart(out) {
            return ForwardDecision::Forward(out);
        }
        self.start_episode(at, dest, out, state, failed)
    }
}

/// One cycle-following episode ([`PrAgent::episode`]): the darts a
/// packet takes from the router that deflects it off a dead routing
/// dart — onto its next live interface counter-clockwise — through
/// every router that forwards it on the cycle following of its
/// ingress, up to the first router whose cycle-following dart is
/// failed. There [`decide`](ForwardingAgent::decide) runs the
/// §4.2/§4.3 termination check, the only step of an episode that reads
/// the destination; everything this iterator yields is the same for
/// every destination. Empty when every interface of the deflecting
/// router is failed.
///
/// A packet on the episode is delivered by the first router that is
/// its destination; telling is the caller's job.
#[derive(Debug, Clone)]
pub struct Episode<'a> {
    agent: PrAgent<'a>,
    failed: &'a LinkSet,
    /// The dart to yield next.
    out: Option<Dart>,
    ended_by: Option<Dart>,
}

impl Episode<'_> {
    /// The failed cycle-following dart that ended the episode, once
    /// the iterator is exhausted: its tail is the router the episode
    /// ends at. `None` before that, and for an empty episode.
    pub fn ended_by(&self) -> Option<Dart> {
        self.ended_by
    }
}

impl Iterator for Episode<'_> {
    type Item = Dart;

    fn next(&mut self) -> Option<Dart> {
        let out = self.out?;
        let following = self.agent.net.cycle.cycle_following(out);
        if self.failed.contains_dart(following) {
            (self.out, self.ended_by) = (None, Some(following));
        } else {
            self.out = Some(following);
        }
        Some(out)
    }
}

impl<'a> ForwardingAgent for PrAgent<'a> {
    type State = PrHeader;

    fn label(&self) -> &'static str {
        match self.net.mode {
            PrMode::Basic => "pr-basic",
            PrMode::DistanceDiscriminator => "pr-dd",
        }
    }

    fn decide(
        &self,
        at: NodeId,
        ingress: Option<Dart>,
        dest: NodeId,
        state: &mut PrHeader,
        failed: &LinkSet,
    ) -> ForwardDecision {
        debug_assert_ne!(at, dest, "engine must deliver before consulting the agent");
        if !state.pr {
            // Conventional shortest-path forwarding.
            return self.resume_routing(at, dest, state, failed);
        }

        // Cycle-following mode: continue the face of the ingress dart.
        let Some(ingress) = ingress else {
            return ForwardDecision::Drop(DropReason::ProtocolViolation);
        };
        debug_assert_eq!(self.graph.dart_head(ingress), at, "ingress must enter this router");
        let cf = self.net.cycle.cycle_following(ingress);
        if !failed.contains_dart(cf) {
            return ForwardDecision::Forward(cf);
        }

        // The cycle's next link is down: §4.2/§4.3 termination check.
        match self.net.mode {
            // §4.2: meeting the failure again ends cycle following.
            PrMode::Basic => self.resume_routing(at, dest, state, failed),
            PrMode::DistanceDiscriminator => {
                let own = self.net.dd(at, dest);
                if own < state.dd {
                    // §4.3: strictly closer than the stamping router —
                    // safe to resume shortest-path routing.
                    self.resume_routing(at, dest, state, failed)
                } else {
                    // Keep following the boundary: deflect onto the
                    // complementary cycle of the failed interface.
                    match self.rotate_live(cf, failed) {
                        Some(out) => ForwardDecision::Forward(out),
                        None => ForwardDecision::Drop(DropReason::Isolated),
                    }
                }
            }
        }
    }

    fn header_bits(&self, _state: &PrHeader) -> usize {
        // PR's header cost is constant by design: the PR bit plus the
        // DD field, regardless of how many failures the packet has met.
        usize::from(self.net.codec.total_bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pr_embedding::RotationSystem;
    use pr_graph::generators;

    fn ring_net(mode: PrMode) -> (Graph, PrNetwork) {
        let g = generators::ring(5, 1);
        let emb = CellularEmbedding::new(&g, RotationSystem::identity(&g)).unwrap();
        let net = PrNetwork::compile(&g, emb, mode, DiscriminatorKind::Hops);
        (g, net)
    }

    #[test]
    fn failure_free_forwarding_follows_routing_table() {
        let (g, net) = ring_net(PrMode::DistanceDiscriminator);
        let agent = net.agent(&g);
        let none = LinkSet::empty(g.link_count());
        let mut state = PrHeader::default();
        let decision = agent.decide(NodeId(2), None, NodeId(0), &mut state, &none);
        assert_eq!(
            decision,
            ForwardDecision::Forward(net.routing().next_dart(NodeId(2), NodeId(0)).unwrap())
        );
        assert!(!state.pr, "no failure: PR bit stays clear");
    }

    #[test]
    fn failure_detection_sets_pr_and_stamps_dd() {
        let (g, net) = ring_net(PrMode::DistanceDiscriminator);
        let agent = net.agent(&g);
        // Node 1 routes to 0 via link 1-0; fail it.
        let out = net.routing().next_dart(NodeId(1), NodeId(0)).unwrap();
        let failed = LinkSet::from_links(g.link_count(), [out.link()]);
        let mut state = PrHeader::default();
        let decision = agent.decide(NodeId(1), None, NodeId(0), &mut state, &failed);
        assert!(state.pr);
        assert_eq!(state.dd, 1, "node 1 is 1 hop from node 0");
        // Deflection leaves node 1 over its other interface.
        match decision {
            ForwardDecision::Forward(d) => {
                assert_eq!(g.dart_tail(d), NodeId(1));
                assert_ne!(d.link(), out.link());
            }
            other => panic!("expected Forward, got {other:?}"),
        }
    }

    #[test]
    fn basic_mode_keeps_dd_zero_and_single_header_bit() {
        let (g, net) = ring_net(PrMode::Basic);
        let agent = net.agent(&g);
        let out = net.routing().next_dart(NodeId(1), NodeId(0)).unwrap();
        let failed = LinkSet::from_links(g.link_count(), [out.link()]);
        let mut state = PrHeader::default();
        let _ = agent.decide(NodeId(1), None, NodeId(0), &mut state, &failed);
        assert!(state.pr);
        assert_eq!(state.dd, 0);
        assert_eq!(agent.header_bits(&state), 1, "basic mode spends exactly the PR bit");
    }

    #[test]
    fn pr_bit_without_ingress_is_a_protocol_violation() {
        let (g, net) = ring_net(PrMode::DistanceDiscriminator);
        let agent = net.agent(&g);
        let none = LinkSet::empty(g.link_count());
        let mut state = PrHeader { pr: true, dd: 1 };
        assert_eq!(
            agent.decide(NodeId(1), None, NodeId(0), &mut state, &none),
            ForwardDecision::Drop(DropReason::ProtocolViolation)
        );
    }

    #[test]
    fn isolated_router_drops() {
        let (g, net) = ring_net(PrMode::DistanceDiscriminator);
        let agent = net.agent(&g);
        // Fail both interfaces of node 1.
        let mut failed = LinkSet::empty(g.link_count());
        for &d in g.darts_from(NodeId(1)) {
            failed.insert(d.link());
        }
        let mut state = PrHeader::default();
        assert_eq!(
            agent.decide(NodeId(1), None, NodeId(0), &mut state, &failed),
            ForwardDecision::Drop(DropReason::Isolated)
        );
    }

    #[test]
    fn an_episode_is_the_detour_of_its_failed_dart_whatever_the_destination() {
        let (g, net) = ring_net(PrMode::DistanceDiscriminator);
        let agent = net.agent(&g);
        // 1 -> 0 is down: node 1 deflects onto 1 -> 2 and the packet
        // follows the outer face round to node 0, whose cycle-following
        // dart is the failed link's other direction.
        let out = g.find_dart(NodeId(1), NodeId(0)).unwrap();
        let failed = LinkSet::from_links(g.link_count(), [out.link()]);
        let mut episode = agent.episode(out, &failed);
        assert_eq!(episode.ended_by(), None, "not before the episode has run");
        let routers: Vec<NodeId> = episode.by_ref().map(|d| g.dart_head(d)).collect();
        assert_eq!(routers, [2, 3, 4, 0].map(NodeId));
        assert_eq!(episode.ended_by(), Some(out.twin()));
        // It is what `decide` does hop by hop towards node 0.
        let walk = crate::walk_packet(&g, &agent, NodeId(1), NodeId(0), &failed, 10);
        assert_eq!(walk.path.darts(), agent.episode(out, &failed).collect::<Vec<_>>());

        // An isolated router deflects nowhere.
        let all = LinkSet::full(g.link_count());
        let mut nowhere = agent.episode(out, &all);
        assert_eq!((nowhere.next(), nowhere.ended_by()), (None, None));
    }

    #[test]
    #[should_panic(expected = "an episode starts at a failed dart")]
    fn an_episode_of_a_live_dart_is_refused() {
        let (g, net) = ring_net(PrMode::Basic);
        let out = g.find_dart(NodeId(1), NodeId(0)).unwrap();
        let _ = net.agent(&g).episode(out, &LinkSet::empty(g.link_count()));
    }

    #[test]
    fn cycle_following_continues_over_live_links() {
        let (g, net) = ring_net(PrMode::DistanceDiscriminator);
        let agent = net.agent(&g);
        let none = LinkSet::empty(g.link_count());
        // A packet in PR mode entering node 2 from node 1 continues the
        // face of its ingress dart.
        let ingress = g.find_dart(NodeId(1), NodeId(2)).unwrap();
        let mut state = PrHeader { pr: true, dd: 3 };
        let decision = agent.decide(NodeId(2), Some(ingress), NodeId(0), &mut state, &none);
        assert_eq!(decision, ForwardDecision::Forward(net.cycle_table().cycle_following(ingress)));
        assert!(state.pr, "no failure at this hop: stay in cycle following");
    }

    #[test]
    fn dd_termination_restamps_when_routing_hits_the_same_failure() {
        let (g, net) = ring_net(PrMode::DistanceDiscriminator);
        let agent = net.agent(&g);
        // Node 1 (dd=1 towards 0) receives a PR packet stamped dd=3
        // whose cycle continuation is failed: 1 < 3 → resume routing.
        // On the ring, node 1's routing dart IS that same failed link,
        // so a fresh episode starts on the spot with the *smaller*
        // stamp — the strictly-decreasing-episode property §5.3's
        // termination argument rests on.
        let ingress = g.find_dart(NodeId(2), NodeId(1)).unwrap();
        let cf = net.cycle_table().cycle_following(ingress);
        assert_eq!(cf, net.routing().next_dart(NodeId(1), NodeId(0)).unwrap());
        let failed = LinkSet::from_links(g.link_count(), [cf.link()]);
        let mut state = PrHeader { pr: true, dd: 3 };
        let decision = agent.decide(NodeId(1), Some(ingress), NodeId(0), &mut state, &failed);
        match decision {
            ForwardDecision::Forward(d) => {
                assert!(state.pr, "fresh episode keeps the PR bit set");
                assert_eq!(state.dd, 1, "fresh episode stamps node 1's own discriminator");
                assert!(!failed.contains_dart(d));
            }
            other => panic!("expected Forward after re-stamp, got {other:?}"),
        }
    }

    #[test]
    fn dd_termination_resumes_when_strictly_closer() {
        // A 4-ring with a chord gives node 1 a live alternative after
        // termination: 0-1-2-3-0 plus chord 1-3. Routing 1→0 uses the
        // direct link; the cycle continuation entering 1 from 2 is a
        // different link, so we can fail just the continuation.
        let mut g = generators::ring(4, 1);
        g.add_link(NodeId(1), NodeId(3), 1).unwrap();
        let emb = CellularEmbedding::new(&g, RotationSystem::identity(&g)).unwrap();
        let net =
            PrNetwork::compile(&g, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
        let agent = net.agent(&g);
        let ingress = g.find_dart(NodeId(2), NodeId(1)).unwrap();
        let cf = net.cycle_table().cycle_following(ingress);
        let routing = net.routing().next_dart(NodeId(1), NodeId(0)).unwrap();
        assert_ne!(cf.link(), routing.link(), "fixture: continuation differs from routing");
        let failed = LinkSet::from_links(g.link_count(), [cf.link()]);
        let mut state = PrHeader { pr: true, dd: 3 };
        let decision = agent.decide(NodeId(1), Some(ingress), NodeId(0), &mut state, &failed);
        assert_eq!(decision, ForwardDecision::Forward(routing));
        assert!(!state.pr, "termination must clear the PR bit");
        assert_eq!(state.dd, 0);
    }

    #[test]
    fn dd_equal_continues_cycle_following() {
        let (g, net) = ring_net(PrMode::DistanceDiscriminator);
        let agent = net.agent(&g);
        // Same situation but stamped dd equal to the router's own:
        // §4.3 says "larger or equal → forward along the complementary
        // cycle of the failed interface".
        let ingress = g.find_dart(NodeId(2), NodeId(1)).unwrap();
        let cf = net.cycle_table().cycle_following(ingress);
        let failed = LinkSet::from_links(g.link_count(), [cf.link()]);
        let own = net.dd(NodeId(1), NodeId(0));
        let mut state = PrHeader { pr: true, dd: own };
        let decision = agent.decide(NodeId(1), Some(ingress), NodeId(0), &mut state, &failed);
        assert!(state.pr, "equal discriminator must continue cycle following");
        match decision {
            ForwardDecision::Forward(d) => assert!(!failed.contains_dart(d)),
            other => panic!("expected Forward, got {other:?}"),
        }
    }

    #[test]
    fn header_bits_constant_in_dd_mode() {
        let (g, net) = ring_net(PrMode::DistanceDiscriminator);
        let agent = net.agent(&g);
        // Ring of 5, hop diameter 2 → 2 DD bits + PR bit = 3 bits.
        assert_eq!(net.codec().dd_bits(), 2);
        for dd in 0..3 {
            assert_eq!(agent.header_bits(&PrHeader { pr: true, dd }), 3);
        }
        assert!(net.codec().fits_in_dscp_pool2());
    }

    #[test]
    fn memory_footprint_reflects_topology() {
        let (g, net) = ring_net(PrMode::DistanceDiscriminator);
        let f = net.memory_footprint(&g, NodeId(0));
        assert_eq!(f, MemoryFootprint::per_router(2, 4));
    }
}
