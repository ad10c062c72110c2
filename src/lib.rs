//! # packet-recycling — a full reproduction of Packet Re-cycling (PR)
//!
//! *"Packet Re-cycling: Eliminating Packet Losses due to Network
//! Failures"*, S. S. Lor, R. Landa, M. Rio — HotNets-IX, 2010 —
//! rebuilt as a Rust workspace: protocol, cellular-embedding engine,
//! baselines (FCP, reconvergence, LFA), a deterministic packet-level
//! simulator, the paper's evaluation topologies, and an experiment
//! harness regenerating every table and figure.
//!
//! This crate is the facade: it re-exports the sub-crates under one
//! roof and hosts the runnable examples and cross-crate integration
//! tests. Depend on it to get everything, or on the individual
//! `pr-*` crates to slim the dependency tree.
//!
//! ## Sixty-second tour
//!
//! ```
//! use packet_recycling::prelude::*;
//!
//! // 1. A topology (Abilene, as in the paper's Figure 2(a)).
//! let graph = topologies::load(topologies::Isp::Abilene, topologies::Weighting::Distance);
//!
//! // 2. The offline step (§3): embed the graph on a surface. The
//! //    search certifies genus 0 here — the case the paper's delivery
//! //    guarantee covers.
//! let rotation = embedding::heuristics::thorough(&graph, 7, 4, 20_000);
//! let emb = CellularEmbedding::new(&graph, rotation).unwrap();
//! assert_eq!(emb.genus(), 0);
//!
//! // 3. Compile router state (§4.1): routing tables + DD column +
//! //    cycle following tables.
//! let net = PrNetwork::compile(&graph, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
//!
//! // 4. Fail any link; PR delivers along the backup cycles with no
//! //    recomputation and a constant few-bit header.
//! let link = graph.links().next().unwrap();
//! let failed = LinkSet::from_links(graph.link_count(), [link]);
//! let (a, b) = graph.endpoints(link);
//! let walk = walk_packet(&graph, &net.agent(&graph), a, b, &failed, generous_ttl(&graph));
//! assert!(walk.result.is_delivered());
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`graph`] (`pr-graph`) | half-edge multigraph, Dijkstra, connectivity, generators, parser |
//! | [`embedding`] (`pr-embedding`) | rotation systems, face tracing, genus heuristics, planar generators |
//! | [`core`] (`pr-core`) | PR protocol: header, tables, forwarding agent, packet walker |
//! | [`baselines`] (`pr-baselines`) | FCP, LFA, not-via |
//! | [`scenarios`] (`pr-scenarios`) | streaming failure families (single/multi/node/SRLG/exhaustive-k) + temporal traces + seeded impairment decorators |
//! | [`sim`] (`pr-sim`) | deterministic discrete-event packet simulator, temporal-scenario driver |
//! | [`topologies`] (`pr-topologies`) | Abilene / GÉANT / Teleglobe + the Figure 1 fixture |
//! | [`traffic`] (`pr-traffic`) | gravity/uniform/hot-spot matrices, flow sets, cone-delta replay, timeline replay, demand tallies |
//!
//! The experiment library (`pr-bench`) is not re-exported; `pr-cli`
//! runs it (`pr experiment <name>`, see `DESIGN.md` §13 for the
//! experiment-to-command map).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use pr_baselines as baselines;
pub use pr_core as core;
pub use pr_embedding as embedding;
pub use pr_graph as graph;
pub use pr_scenarios as scenarios;
pub use pr_sim as sim;
pub use pr_topologies as topologies;
pub use pr_traffic as traffic;

/// The items almost every user needs, importable in one line.
pub mod prelude {
    pub use pr_baselines::{FcpAgent, LfaAgent};
    pub use pr_core::{
        generous_ttl, walk_packet, CycleFollowingTable, DiscriminatorKind, DropReason,
        ForwardDecision, ForwardingAgent, HeaderCodec, PrAgent, PrHeader, PrMode, PrNetwork,
        RoutingTables, Walk, WalkResult,
    };
    pub use pr_embedding::{CellularEmbedding, FaceStructure, RotationSystem};
    pub use pr_graph::{
        algo, generators, stretch, AllPairs, Coordinates, Dart, Graph, LinkId, LinkSet, NodeId,
        Path, SpTree,
    };
    pub use pr_scenarios::{
        Impaired, ImpairmentProcess, ScenarioFamily, ScenarioIter, TemporalFamily, TemporalScenario,
    };
    pub use pr_sim::{SimConfig, SimTime, Simulator, Static, TimedForwarding};
    pub use pr_traffic::{
        replay_timeline, DemandTally, FlowSet, TallySample, TallySeries, TimelineTraffic,
        TrafficModel,
    };

    /// Re-exported under a named module to avoid clashing with user
    /// identifiers: `use packet_recycling::prelude::*;` then
    /// `topologies::load(...)`.
    pub use pr_embedding as embedding;
    /// Companion re-export of `pr-scenarios`; see `embedding` above.
    pub use pr_scenarios as scenarios;
    /// Companion re-export of `pr-topologies`; see `embedding` above.
    pub use pr_topologies as topologies;
    /// Companion re-export of `pr-traffic`; see `embedding` above.
    pub use pr_traffic as traffic;
}
