//! # pr-daemon — the resident network twin
//!
//! Every other entry point in this workspace is batch: parse, embed,
//! compile, sweep, exit. This crate is the operational layer the paper
//! implies — a long-running process that compiles the routing state
//! **once**, then applies link up/down and demand updates
//! *incrementally* (PR 4's `SpTree::repair_from` applied online
//! against the compiled network's base trees) and answers coverage /
//! stretch / traffic queries from warm state over a line-delimited
//! JSON control protocol, with a Prometheus `/metrics` sidecar for
//! live gauges.
//!
//! The determinism contract of the batch harness carries over
//! unchanged: after **any** sequence of events, every answer is
//! bit-identical to a cold batch run on the same failed set and demand
//! model, and the live trees equal a scratch `AllPairs::compute` tree
//! for tree. `tests/equivalence.rs` enforces this at 1/2/4 worker
//! threads; `benches/daemon_events.rs` gates the point of it all —
//! incremental event-apply ≥ 5x faster than the cold recompile a
//! batch invocation would pay.
//!
//! Architecture and protocol grammar: `DESIGN.md` §12. The thin
//! client lives in `pr-cli` (`pr daemon …`, `pr ctl …`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod metrics;
pub mod protocol;
pub mod server;
pub mod twin;

pub use protocol::{
    CounterReport, CoverageReport, DaemonAddrs, GaugeReport, QueryKind, Request, Response,
    SchemeStretch, SnapshotReport, StretchReport, TrafficReport,
};
pub use server::{
    read_addr_file, request_via, scrape_metrics, serve, wait_for_addr_file, Client, DaemonConfig,
    EventLog,
};
pub use twin::{cold_recompile, ColdState, DemandSpec, Twin};
