//! # pr-testkit — the workspace's one test kit
//!
//! Dev-only: reached through `[dev-dependencies]` alone, by
//! integration tests, benches and examples (a crate's own
//! `#[cfg(test)]` unit tests cannot use it — the crate under test and
//! the kit's copy of it are different crate instances). Everything a
//! harness would otherwise write a private copy of lives here once:
//!
//! * [`alloc`] — the counting allocator (per-thread call counter,
//!   process-wide live/peak byte gauge);
//! * [`strategies`] — the proptest strategies for random
//!   2-edge-connected graphs, failure sets and rotation systems;
//! * [`nets`] — [`nets::Net`], a topology with everything a harness
//!   hoists, and its named constructors;
//! * [`shapes`] — the observer of failure-point group shapes, so no
//!   equivalence harness passes vacuously;
//! * [`fixtures`] — the table of named (topology, failed set, flow)
//!   cases every equivalence harness iterates;
//! * [`oracle`] — the ladder of oracles with the production path each
//!   one checks, and the serial references of the sweeps.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod alloc;
pub mod fixtures;
pub mod nets;
pub mod oracle;
pub mod shapes;
pub mod strategies;
