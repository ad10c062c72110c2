//! # pr-graph — graph substrate for Packet Re-cycling
//!
//! The foundation of the [Packet Re-cycling][paper] reproduction: an
//! undirected multigraph of routers and links with a **half-edge
//! ("dart") view**, plus the routing-adjacent algorithms every other
//! crate builds on.
//!
//! [paper]: https://conferences.sigcomm.org/hotnets/2010/papers/a2-lor.pdf
//!
//! ## Why darts?
//!
//! Packet Re-cycling derives its backup paths from a *cellular graph
//! embedding*, which is combinatorially a **rotation system**: a cyclic
//! order of half-edges around every node. The same half-edges are also
//! the router *interfaces* the paper's forwarding tables are keyed on
//! (the interface `I_YX` at node `X` receiving from `Y` is the dart
//! `Y → X`). Making darts first-class means the embedding layer and the
//! forwarding layer speak the same language, and "the forwarding table
//! is a permutation over the output interfaces" (§4.1) is literally a
//! permutation over [`Dart`]s in this codebase.
//!
//! ## Module map
//!
//! * [`Graph`] — the multigraph itself (nodes, weighted links, darts).
//! * [`LinkSet`] — bitset of failed links; every algorithm takes one.
//! * [`SpTree`] / [`AllPairs`] — deterministic destination-rooted
//!   shortest paths with exact integer costs and per-node hop counts
//!   (the two candidate *distance discriminators* of §4.3).
//! * [`algo`] — connectivity (components, bridges, articulation
//!   points), BFS metrics, and the [`Path`]/[`stretch`] vocabulary the
//!   evaluation is phrased in.
//! * [`generators`] — synthetic families with known genus and
//!   connectivity for tests and ablations.
//! * [`parser`] — the plain-text topology format used by
//!   `pr-topologies`.
//!
//! ## Example
//!
//! ```
//! use pr_graph::{generators, AllPairs, LinkSet, NodeId, SpTree};
//!
//! // A 6-node ring with unit weights.
//! let g = generators::ring(6, 1);
//!
//! // Route everything towards node 0.
//! let tree = SpTree::towards_all_live(&g, NodeId(0));
//! assert_eq!(tree.cost(NodeId(3)), Some(3));
//!
//! // Fail one link and re-route.
//! let l = g.find_link(NodeId(3), NodeId(2)).unwrap();
//! let failed = LinkSet::from_links(g.link_count(), [l]);
//! let tree = SpTree::towards(&g, NodeId(0), &failed);
//! assert_eq!(tree.cost(NodeId(3)), Some(3)); // around the other way
//!
//! // Hop diameter bounds the paper's DD field width.
//! let ap = AllPairs::compute_all_live(&g);
//! assert_eq!(ap.hop_diameter(), 3);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod algo;
pub mod bits;
mod error;
pub mod generators;
mod graph;
mod ids;
mod linkset;
pub mod parser;

pub use algo::{stretch, AllPairs, Path, RepairStats, SpScratch, SpTree, TreeChildren};
pub use error::{GraphError, ParseError};
pub use graph::{Coordinates, Graph, SpherePoint};
pub use ids::{Dart, LinkId, NodeId};
pub use linkset::LinkSet;
