//! # pr-sim — deterministic packet-level discrete-event simulator
//!
//! The stand-in for the Java simulator the paper's §6 evaluation used.
//! Two execution engines serve the two kinds of experiments:
//!
//! * **stretch** (topological) experiments use the synchronous walker
//!   in `pr-core` — timing is irrelevant to path-cost ratios;
//! * **loss** (temporal) experiments — §1's OC-192 arithmetic, link
//!   flapping (§7), detection-delay sensitivity — need queues, delays
//!   and failure timing, which is what this crate provides.
//!
//! Design goals, in order: determinism (same seed ⇒ identical trace),
//! simplicity, and honest accounting of *why* every packet died
//! ([`SimDropReason`]). The simulator is generic over
//! [`TimedForwarding`], with [`Static`] adapting any steady-state
//! [`pr_core::ForwardingAgent`] (PR, FCP, LFA) and
//! [`ReconvergingIgp`] modelling the convergence transient.
//!
//! ## Example
//!
//! ```
//! use pr_sim::{SimConfig, SimTime, Simulator, Static};
//! use pr_core::{DiscriminatorKind, PrMode, PrNetwork};
//! use pr_embedding::{CellularEmbedding, RotationSystem};
//! use pr_graph::{generators, NodeId};
//!
//! let g = generators::ring(5, 1);
//! let emb = CellularEmbedding::new(&g, RotationSystem::identity(&g)).unwrap();
//! let net = PrNetwork::compile(&g, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
//! let agent = Static(net.agent(&g));
//!
//! let mut sim = Simulator::new(&g, &agent, SimConfig::default(), 7);
//! sim.add_cbr_flow(NodeId(0), NodeId(2), 1024, 1_000_000, SimTime::ZERO, SimTime::from_millis(10));
//! sim.schedule_link_down(g.find_link(NodeId(0), NodeId(1)).unwrap(), SimTime::from_micros(5500));
//! let metrics = sim.run_until(SimTime::from_secs(1));
//! assert_eq!(metrics.injected, 11);
//! assert_eq!(metrics.delivered, 11); // PR reroutes instantly at detection
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod driver;
mod event;
mod metrics;
mod simulator;
mod time;
mod timed;

pub use driver::{igp_for, run_scenario};
pub use event::EventQueue;
pub use metrics::{Metrics, SimDropReason};
pub use simulator::{SimConfig, Simulator};
pub use time::{transmission_nanos, SimTime};
pub use timed::{ReconvergingIgp, Static, TimedForwarding};
