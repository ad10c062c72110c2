//! # pr-traffic — the traffic-workload subsystem
//!
//! The paper's headline claim is *eliminating packet losses*, but a
//! sweep that counts unweighted (scenario × destination) pairs treats
//! a dead link carrying 40% of an ISP's traffic the same as one
//! carrying none. This crate makes traffic a first-class workload:
//!
//! * [`TrafficModel`] — deterministic, random-access demand matrices:
//!   [`UniformTraffic`] (the exact unit matrix), [`GravityTraffic`]
//!   (masses from provisioned capacity, friction from the great-circle
//!   distance between the shipped PoP coordinates), and
//!   [`HotspotTraffic`] (seeded hot-PoP skew).
//! * [`FlowSet`] — destination-major batches of `(src, dst, demand)`
//!   flows: the whole matrix ([`FlowSet::all_pairs`]) or a seeded
//!   sample drawn proportionally to demand ([`FlowSet::sampled`]).
//! * [`replay_scenario_bitparallel`] — the production dataplane, a
//!   cone delta: the failure-free loads and tally of a flow set are
//!   computed once, and a scenario corrects only the subtrees that hang
//!   below a failed tree edge — their demand withdrawn bottom-up (one
//!   subtraction per tree dart), only their still-connected sources
//!   walked per flow. The test kit's `replay_scenario_naive` is the
//!   one-packet-at-a-time oracle; the two produce bit-identical results
//!   because flow demands live on a power-of-two grid that makes every
//!   replay sum and difference exact (association-free).
//! * [`ScenarioTraffic`] / [`DemandTally`] — demand-weighted
//!   resilience metrics: weighted coverage, % demand lost, per-link
//!   peak load and max-link-utilisation under failure.
//! * [`replay_timeline`] — the temporal entry: drives a [`FlowSet`]
//!   through a whole (possibly impaired) link-event timeline and
//!   returns the demand-weighted loss-over-time curve as a
//!   [`TallySeries`], one replay per distinct failed set.
//!
//! The parallel experiment over scenario families lives in
//! `pr_bench::traffic`; the CLI front door is `pr traffic`.
//!
//! ## Example
//!
//! ```
//! use pr_core::{generous_ttl, DenseFib, DiscriminatorKind, PrMode, PrNetwork};
//! use pr_embedding::{heuristics, CellularEmbedding};
//! use pr_graph::LinkSet;
//! use pr_testkit::oracle::replay_scenario_naive;
//! use pr_traffic::{replay_scenario_bitparallel, FlowSet, GravityTraffic, ReplayScratch};
//!
//! let g = pr_topologies::load(pr_topologies::Isp::Abilene, pr_topologies::Weighting::Distance);
//! let emb = CellularEmbedding::new(&g, heuristics::thorough(&g, 2010, 4, 10_000)).unwrap();
//! let net = PrNetwork::compile(&g, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
//!
//! // The failure-free trees are the network's own: borrowed, not recomputed.
//! let base = net.base();
//! let dense = DenseFib::from_base(&g, base);
//! let flows = FlowSet::all_pairs(&GravityTraffic::new(&g));
//!
//! // Fail one link and replay the whole matrix through it.
//! let failed = LinkSet::from_links(g.link_count(), [g.links().next().unwrap()]);
//! let (agent, ttl) = (net.agent(&g), generous_ttl(&g));
//! let mut scratch = ReplayScratch::new();
//! let out =
//!     replay_scenario_bitparallel(&g, &agent, &dense, base, &flows, &failed, ttl, &mut scratch);
//! assert_eq!(out.tally.lost(), 0.0); // PR-DD loses no demand to a single failure
//! assert!(out.max_link_utilisation() > 0.0);
//! // The production path against the oracle, bit for bit.
//! assert_eq!(out, replay_scenario_naive(&g, &agent, base, &flows, &failed, ttl));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod flows;
mod metrics;
mod model;
mod replay;
mod sampling;
mod timeline;

pub use flows::{Flow, FlowSet};
pub use metrics::DemandTally;
pub use model::{GravityTraffic, HotspotTraffic, TrafficModel, UniformTraffic};
pub use replay::{replay_scenario_bitparallel, ReplayScratch, ReplayStats, ScenarioTraffic};
pub use sampling::{TallySample, TallySeries};
pub use timeline::{replay_timeline, TimelineTraffic};
