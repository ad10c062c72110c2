//! # pr-embedding — cellular graph embeddings for Packet Re-cycling
//!
//! Implements §3 of the paper and the offline computation its §4.3
//! assigns to a "designated server": turning a network graph into a
//! **cellular cycle system** — a set of oriented cycles in which every
//! link is traversed by exactly two cycles, once in each direction.
//!
//! The combinatorial tool is the **rotation system** ([`RotationSystem`]):
//! a cyclic order of interfaces (darts) around every router. Tracing
//! `φ(d) = ρ(twin(d))` yields the faces of the corresponding embedding
//! ([`FaceStructure`]), and Euler's formula gives the genus of the
//! surface ([`genus`]). [`CellularEmbedding`] bundles the three with
//! validation and exposes the two O(1) operations the forwarding plane
//! needs:
//!
//! * [`CellularEmbedding::cycle_continuation`] — the next hop of a
//!   packet in cycle-following mode (paper Table 1, column 2);
//! * [`CellularEmbedding::deflection`] — the first hop of a failed
//!   dart's complementary cycle (paper Table 1, column 3).
//!
//! Minimum-genus embedding is NP-hard, so [`heuristics`] provides what
//! the paper's deployment story needs: a geometric ordering that
//! recovers planarity on drawn maps, and hill climbing and simulated
//! annealing for arbitrary graphs. The exact search that ground-truths
//! them on small fixtures, and the random graphs built with a planar
//! rotation, are the dev-only test kit's.
//!
//! ## Example
//!
//! ```
//! use pr_embedding::{CellularEmbedding, RotationSystem, heuristics};
//! use pr_graph::generators;
//!
//! let g = generators::petersen(1);
//! let rot = heuristics::best_effort(&g, 0xC0FFEE);
//! let emb = CellularEmbedding::new(&g, rot).unwrap();
//! assert_eq!(emb.genus(), 1); // Petersen's orientable genus
//!
//! // Every link lies on exactly two oriented cycles.
//! for d in g.darts() {
//!     let main = emb.main_cycle(d);
//!     let comp = emb.complementary_cycle(d);
//!     assert!(emb.faces().boundary(main).contains(&d));
//!     assert!(emb.faces().boundary(comp).contains(&d.twin()));
//! }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod embedding;
mod error;
mod faces;
pub mod heuristics;
mod rotation;
mod scratch;

pub use embedding::CellularEmbedding;
pub use error::EmbeddingError;
pub use faces::{genus, FaceId, FaceStructure};
pub use rotation::RotationSystem;
pub use scratch::FaceScratch;
