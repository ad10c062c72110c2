//! Explanatory forwarding traces: *why* each hop happened.
//!
//! [`walk_packet`](crate::walk_packet) answers *what* a packet did;
//! operators debugging a reroute want to know *why* — which protocol
//! rule fired at each router. [`trace_packet`] re-runs the PR decision
//! procedure step by step and labels every hop with the §4.2/§4.3 rule
//! that produced it. The trace is pure data (serialisable), rendered
//! by [`PacketTrace::render`] in the style of the paper's walkthrough
//! prose.

use serde::{Deserialize, Serialize};

use pr_graph::{Dart, Graph, LinkSet, NodeId};

use crate::{DropReason, ForwardDecision, ForwardingAgent, PrHeader, PrMode, PrNetwork};

/// The protocol rule that produced one hop (or drop).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HopRule {
    /// Conventional shortest-path forwarding (routing table, PR bit
    /// clear).
    ShortestPath,
    /// A fresh failure was detected at this router: PR bit set, DD
    /// stamped (in DD mode), packet deflected onto the failed link's
    /// complementary cycle (§4.2).
    FailureDetected {
        /// The failed outgoing dart the router wanted to use.
        failed: Dart,
        /// The DD value stamped into the header (0 in basic mode).
        stamped_dd: u64,
    },
    /// Cycle following: the packet continued the face of its ingress
    /// dart (§4.1, cycle following table column 2).
    CycleFollowing,
    /// A further failure was met while cycle following and the
    /// termination check said *continue*: own DD ≥ header DD (§4.3),
    /// deflect onto the complementary cycle of the failed interface.
    ContinueCycleFollowing {
        /// The failed continuation dart.
        failed: Dart,
        /// This router's own discriminator.
        own_dd: u64,
        /// The header's stamped discriminator.
        header_dd: u64,
    },
    /// Termination: own DD < header DD (§4.3) — or, in basic mode, the
    /// failure was met again (§4.2) — so the PR bit was cleared and
    /// shortest-path routing resumed.
    Terminated {
        /// This router's own discriminator (basic mode reports 0).
        own_dd: u64,
        /// The header's stamped discriminator before clearing.
        header_dd: u64,
    },
}

/// One step of a [`PacketTrace`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceStep {
    /// Router making the decision.
    pub at: NodeId,
    /// The dart taken (absent on the final drop step).
    pub out: Option<Dart>,
    /// Header state *after* the decision.
    pub header: PrHeader,
    /// The rule(s) that fired at this router, in order. Several rules
    /// can fire in one decision (e.g. `Terminated` followed by
    /// `FailureDetected` when the resumed route is itself dead).
    pub rules: Vec<HopRule>,
}

/// A fully explained walk of one packet.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PacketTrace {
    /// Source router.
    pub src: NodeId,
    /// Destination router.
    pub dst: NodeId,
    /// Steps taken, one per visited router (in order).
    pub steps: Vec<TraceStep>,
    /// Terminal outcome.
    pub outcome: TraceOutcome,
}

/// How the traced walk ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceOutcome {
    /// Reached the destination.
    Delivered,
    /// Dropped with the given reason.
    Dropped(DropReason),
    /// The engine observed a repeated (router, ingress, header) state.
    Livelock,
}

impl PacketTrace {
    /// Renders the trace in walkthrough prose, one line per step.
    pub fn render(&self, graph: &Graph) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let name = |n: NodeId| graph.node_name(n).to_string();
        writeln!(out, "packet {} -> {}:", name(self.src), name(self.dst)).unwrap();
        for step in &self.steps {
            let hop = match step.out {
                Some(d) => format!("{} -> {}", name(step.at), name(graph.dart_head(d))),
                None => format!("{} (no egress)", name(step.at)),
            };
            let mut why = Vec::new();
            for rule in &step.rules {
                why.push(match rule {
                    HopRule::ShortestPath => "shortest path".to_string(),
                    HopRule::FailureDetected { failed, stamped_dd } => format!(
                        "link {}-{} down: set PR, stamp DD={stamped_dd}, deflect onto complementary cycle",
                        name(graph.dart_tail(*failed)),
                        name(graph.dart_head(*failed)),
                    ),
                    HopRule::CycleFollowing => "cycle following".to_string(),
                    HopRule::ContinueCycleFollowing { own_dd, header_dd, .. } => format!(
                        "continuation down, own DD {own_dd} >= header {header_dd}: keep cycle following"
                    ),
                    HopRule::Terminated { own_dd, header_dd } => format!(
                        "termination: own DD {own_dd} < header {header_dd}, clear PR"
                    ),
                });
            }
            writeln!(
                out,
                "  {hop:<16} [PR={} DD={}]  {}",
                u8::from(step.header.pr),
                step.header.dd,
                why.join("; ")
            )
            .unwrap();
        }
        let tail = match self.outcome {
            TraceOutcome::Delivered => format!("DELIVERED at {}", name(self.dst)),
            TraceOutcome::Dropped(r) => format!("DROPPED: {r}"),
            TraceOutcome::Livelock => "FORWARDING LOOP (state repeated)".to_string(),
        };
        writeln!(out, "  {tail}").unwrap();
        out
    }

    /// The darts taken, in order (convenience for comparing against
    /// [`walk_packet`](crate::walk_packet)).
    pub fn darts(&self) -> Vec<Dart> {
        self.steps.iter().filter_map(|s| s.out).collect()
    }
}

/// Walks one packet like [`walk_packet`](crate::walk_packet) but
/// recording the protocol rule behind every hop.
///
/// The rule labelling re-derives the agent's control flow from the
/// same tables, so a divergence between `trace_packet` and the real
/// agent is itself a bug; the test suite asserts they always agree.
pub fn trace_packet(
    graph: &Graph,
    net: &PrNetwork,
    src: NodeId,
    dst: NodeId,
    failed: &LinkSet,
    ttl: usize,
) -> PacketTrace {
    let agent = net.agent(graph);
    let mut steps = Vec::new();
    let mut state = PrHeader::default();
    let mut at = src;
    let mut ingress: Option<Dart> = None;
    let mut seen = std::collections::HashSet::new();

    loop {
        if at == dst {
            return PacketTrace { src, dst, steps, outcome: TraceOutcome::Delivered };
        }
        if steps.len() >= ttl {
            return PacketTrace {
                src,
                dst,
                steps,
                outcome: TraceOutcome::Dropped(DropReason::TtlExpired),
            };
        }
        if !seen.insert((at, ingress, state)) {
            return PacketTrace { src, dst, steps, outcome: TraceOutcome::Livelock };
        }

        // Reconstruct the rule sequence the agent is about to apply.
        let mut rules = Vec::new();
        let pre_pr = state.pr;
        let pre_dd = state.dd;
        if !pre_pr {
            let o = net.routing().next_dart(at, dst);
            match o {
                Some(o) if !failed.contains_dart(o) => rules.push(HopRule::ShortestPath),
                Some(o) => rules.push(HopRule::FailureDetected {
                    failed: o,
                    stamped_dd: match net.mode() {
                        PrMode::Basic => 0,
                        PrMode::DistanceDiscriminator => net.dd(at, dst),
                    },
                }),
                None => {}
            }
        } else if let Some(ing) = ingress {
            let cf = net.cycle_table().cycle_following(ing);
            if !failed.contains_dart(cf) {
                rules.push(HopRule::CycleFollowing);
            } else {
                let own = net.dd(at, dst);
                let terminate = match net.mode() {
                    PrMode::Basic => true,
                    PrMode::DistanceDiscriminator => own < pre_dd,
                };
                if terminate {
                    rules.push(HopRule::Terminated { own_dd: own, header_dd: pre_dd });
                    // Resuming may hit a dead routing dart: that is a
                    // fresh detection on the spot.
                    if let Some(o) = net.routing().next_dart(at, dst) {
                        if failed.contains_dart(o) {
                            rules.push(HopRule::FailureDetected {
                                failed: o,
                                stamped_dd: match net.mode() {
                                    PrMode::Basic => 0,
                                    PrMode::DistanceDiscriminator => own,
                                },
                            });
                        }
                    }
                } else {
                    rules.push(HopRule::ContinueCycleFollowing {
                        failed: cf,
                        own_dd: own,
                        header_dd: pre_dd,
                    });
                }
            }
        }

        match agent.decide(at, ingress, dst, &mut state, failed) {
            ForwardDecision::Forward(d) => {
                steps.push(TraceStep { at, out: Some(d), header: state, rules });
                at = graph.dart_head(d);
                ingress = Some(d);
            }
            ForwardDecision::Drop(reason) => {
                steps.push(TraceStep { at, out: None, header: state, rules });
                return PacketTrace { src, dst, steps, outcome: TraceOutcome::Dropped(reason) };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generous_ttl, walk_packet, DiscriminatorKind, WalkResult};
    use pr_embedding::{heuristics, CellularEmbedding, RotationSystem};
    use pr_graph::{generators, LinkId};
    use pr_topologies::{Isp, Weighting};

    fn net_on_ring(mode: PrMode) -> (Graph, PrNetwork) {
        let g = generators::ring(6, 1);
        let emb = CellularEmbedding::new(&g, RotationSystem::identity(&g)).unwrap();
        (g.clone(), PrNetwork::compile(&g, emb, mode, DiscriminatorKind::Hops))
    }

    #[test]
    fn trace_agrees_with_walker() {
        // Every pair under every one- and two-link failure set, in both
        // modes: the 6-ring, the paper's Figure 1 under its own
        // rotation, Abilene under a searched rotation (genus 0) and
        // under the identity one (positive genus: walks livelock
        // although a path survives). The trace takes the walker's darts
        // and ends as it does.
        let ring = generators::ring(6, 1);
        let ring_rotation = RotationSystem::identity(&ring);
        let (fig1, orders) = pr_topologies::figure1();
        let paper = RotationSystem::from_neighbor_orders(&fig1, &orders).unwrap();
        let abilene = pr_topologies::load(Isp::Abilene, Weighting::Distance);
        let searched = heuristics::thorough(&abilene, 2010, 4, 10_000);
        let identity = RotationSystem::identity(&abilene);
        let embeddings = [
            (ring, ring_rotation),
            (fig1, paper),
            (abilene.clone(), searched),
            (abilene, identity),
        ];
        let (mut positive_genus, mut livelocks) = (false, 0);
        for (g, rotation) in embeddings {
            let emb = CellularEmbedding::new(&g, rotation).unwrap();
            positive_genus |= emb.genus() > 0;
            let links: Vec<LinkId> = g.links().collect();
            let sets: Vec<LinkSet> = (0..links.len())
                .flat_map(|i| (i..links.len()).map(move |j| (i, j)))
                .map(|(i, j)| LinkSet::from_links(g.link_count(), [links[i], links[j]]))
                .collect();
            let ttl = generous_ttl(&g);
            for mode in [PrMode::Basic, PrMode::DistanceDiscriminator] {
                let net = PrNetwork::compile(&g, emb.clone(), mode, DiscriminatorKind::Hops);
                let agent = net.agent(&g);
                for failed in &sets {
                    for (src, dst) in g.nodes().flat_map(|s| g.nodes().map(move |d| (s, d))) {
                        if src == dst {
                            continue;
                        }
                        let walk = walk_packet(&g, &agent, src, dst, failed, ttl);
                        let trace = trace_packet(&g, &net, src, dst, failed, ttl);
                        let label = format!("{mode:?} {failed:?} {src}->{dst}");
                        assert_eq!(trace.darts(), walk.path.darts(), "{label}");
                        match (&walk.result, &trace.outcome) {
                            (WalkResult::Delivered, TraceOutcome::Delivered) => {}
                            (
                                WalkResult::Dropped(DropReason::ForwardingLoop),
                                TraceOutcome::Livelock,
                            ) => livelocks += 1,
                            (WalkResult::Dropped(a), TraceOutcome::Dropped(b)) => {
                                assert_eq!(a, b, "{label}")
                            }
                            other => panic!("{label}: walker/trace disagree: {other:?}"),
                        }
                    }
                }
            }
        }
        assert!(positive_genus, "one embedding must be of positive genus");
        assert!(livelocks > 0, "the sets must make some walk livelock");
    }

    #[test]
    fn rules_follow_the_protocol_story() {
        let (g, net) = net_on_ring(PrMode::DistanceDiscriminator);
        // 1 -> 0 with the direct link down: detection at 1, cycle
        // following around, termination near the far side.
        let l = g.find_link(NodeId(1), NodeId(0)).unwrap();
        let failed = LinkSet::from_links(g.link_count(), [l]);
        let trace = trace_packet(&g, &net, NodeId(1), NodeId(0), &failed, generous_ttl(&g));
        assert_eq!(trace.outcome, TraceOutcome::Delivered);
        assert!(matches!(trace.steps[0].rules[0], HopRule::FailureDetected { .. }));
        assert!(trace.steps[1..]
            .iter()
            .flat_map(|s| &s.rules)
            .any(|r| matches!(r, HopRule::CycleFollowing)));
        // The DD stamp equals node 1's discriminator to 0.
        if let HopRule::FailureDetected { stamped_dd, .. } = trace.steps[0].rules[0] {
            assert_eq!(stamped_dd, net.dd(NodeId(1), NodeId(0)));
        }
    }

    #[test]
    fn figure_1c_trace_narrates_the_paper() {
        let (g, orders) = pr_topologies::figure1();
        let rot = RotationSystem::from_neighbor_orders(&g, &orders).unwrap();
        let emb = CellularEmbedding::new(&g, rot).unwrap();
        let net =
            PrNetwork::compile(&g, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
        let n = |s: &str| g.node_by_name(s).unwrap();
        let failed = LinkSet::from_links(
            g.link_count(),
            [g.find_link(n("D"), n("E")).unwrap(), g.find_link(n("B"), n("C")).unwrap()],
        );
        let trace = trace_packet(&g, &net, n("A"), n("F"), &failed, generous_ttl(&g));
        assert_eq!(trace.outcome, TraceOutcome::Delivered);
        let rendered = trace.render(&g);
        // The §4.3 story, in prose.
        assert!(rendered.contains("stamp DD=2"), "{rendered}");
        assert!(rendered.contains("keep cycle following"), "{rendered}");
        assert!(rendered.contains("clear PR"), "{rendered}");
        assert!(rendered.contains("DELIVERED at F"), "{rendered}");
        // And the continue-decisions happen at B and C with own DD 3
        // and 2 against the stamped 2.
        let continues: Vec<(u64, u64)> = trace
            .steps
            .iter()
            .flat_map(|s| &s.rules)
            .filter_map(|r| match r {
                HopRule::ContinueCycleFollowing { own_dd, header_dd, .. } => {
                    Some((*own_dd, *header_dd))
                }
                _ => None,
            })
            .collect();
        assert_eq!(continues, vec![(3, 2), (2, 2)]);
    }

    #[test]
    fn basic_mode_livelock_is_reported() {
        let (g, orders) = pr_topologies::figure1();
        let rot = RotationSystem::from_neighbor_orders(&g, &orders).unwrap();
        let emb = CellularEmbedding::new(&g, rot).unwrap();
        let net = PrNetwork::compile(&g, emb, PrMode::Basic, DiscriminatorKind::Hops);
        let n = |s: &str| g.node_by_name(s).unwrap();
        let failed = LinkSet::from_links(
            g.link_count(),
            [g.find_link(n("D"), n("E")).unwrap(), g.find_link(n("B"), n("C")).unwrap()],
        );
        let trace = trace_packet(&g, &net, n("A"), n("F"), &failed, generous_ttl(&g));
        assert_eq!(trace.outcome, TraceOutcome::Livelock);
        assert!(trace.render(&g).contains("FORWARDING LOOP"));
    }

    #[test]
    fn serde_roundtrip() {
        let (g, net) = net_on_ring(PrMode::DistanceDiscriminator);
        let l = g.find_link(NodeId(2), NodeId(1)).unwrap();
        let failed = LinkSet::from_links(g.link_count(), [l]);
        let trace = trace_packet(&g, &net, NodeId(2), NodeId(0), &failed, generous_ttl(&g));
        let json = serde_json::to_string(&trace).unwrap();
        let back: PacketTrace = serde_json::from_str(&json).unwrap();
        assert_eq!(back.darts(), trace.darts());
    }
}
