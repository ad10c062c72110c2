//! # pr-core — the Packet Re-cycling protocol
//!
//! The primary contribution of *"Packet Re-cycling: Eliminating Packet
//! Losses due to Network Failures"* (Lor, Landa & Rio, HotNets-IX
//! 2010), implemented end to end:
//!
//! * [`PrHeader`] / [`HeaderCodec`] — the bit-exact packet header
//!   field: one **PR bit** plus `ceil(log2(max_dd + 1))` **DD bits**
//!   (§4.3, §6), with the DSCP-pool-2 feasibility check the paper's
//!   deployment story relies on.
//! * [`RoutingTables`] — conventional shortest-path next hops extended
//!   with the **distance discriminator** column (§4.3): a view of the
//!   failure-free shortest-path trees, computed once per network and
//!   lent to everything else that needs them ([`PrNetwork::base`]).
//! * [`CycleFollowingTable`] — the paper's Table 1: per incoming
//!   interface, the outgoing interface under cycle following and under
//!   failure avoidance, both read off the cellular embedding.
//! * [`PrNetwork`] / [`PrAgent`] — the forwarding engine, in both
//!   protocol variants ([`PrMode::Basic`] of §4.2 and
//!   [`PrMode::DistanceDiscriminator`] of §4.3); [`Episode`] is §4.2's
//!   detour as a function of the failed interface alone, and
//!   [`StagedEpisode::recycle`] the one closed form the sweeps and the
//!   replay price it by — a whole unit under one failure, each step of
//!   a [`FlowUnit`]'s episode chain under any failed set.
//! * [`walk_packet`] — the execution engine used by experiments:
//!   walks single packets under static failure sets with exact
//!   livelock detection.
//!
//! The [`ForwardingAgent`] trait is deliberately scheme-agnostic: the
//! baselines the paper compares against (FCP, reconvergence — see
//! `pr-baselines`) implement the same trait and run under the same
//! walker and timed pricer.
//!
//! ## Example: recover from a failure the routing table cannot see
//!
//! ```
//! use pr_core::{walk_packet, generous_ttl, DiscriminatorKind, PrMode, PrNetwork};
//! use pr_embedding::{CellularEmbedding, RotationSystem};
//! use pr_graph::{generators, LinkSet, NodeId};
//!
//! let g = generators::ring(6, 1);
//! let emb = CellularEmbedding::new(&g, RotationSystem::identity(&g)).unwrap();
//! let net = PrNetwork::compile(&g, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
//!
//! // Fail the link the shortest path would use.
//! let failed = LinkSet::from_links(g.link_count(), [g.find_link(NodeId(1), NodeId(0)).unwrap()]);
//! let walk = walk_packet(&g, &net.agent(&g), NodeId(1), NodeId(0), &failed, generous_ttl(&g));
//! assert!(walk.result.is_delivered());
//! assert_eq!(walk.path.hop_count(), 5); // the long way around
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod agent;
mod fib;
mod header;
mod memo;
mod scratch;
mod tables;
pub mod trace;
mod walker;

pub use agent::{
    DropReason, Episode, ForwardDecision, ForwardingAgent, Leg, PrAgent, PrMode, PrNetwork,
    Recycled, StagedEpisode,
};
pub use fib::{
    recover_flow_with, DenseFib, FibFrame, FlowScratch, FlowUnit, FlowWalk, Stamp, TreeEdge,
};
pub use header::{HeaderCodec, PrHeader};
pub use memo::{MemoStats, SuffixMemo};
pub use scratch::{FxHasher64, WalkScratch};
pub use tables::{
    CycleFollowingTable, CycleRow, DiscriminatorKind, MemoryFootprint, RoutingTables,
};
pub use trace::{trace_packet, HopRule, PacketTrace, TraceOutcome, TraceStep};
pub use walker::{
    generous_ttl, walk_packet, walk_packet_spliced, walk_packet_with, SplicedWalk, Walk, WalkResult,
};
