//! Opt-in acceptance timing for the stretch sweep at scale: the seeded
//! 1000-node ISP mesh, exhaustive single-link failures, swept
//! single-threaded through `run_rows`, against an absolute bound. The
//! first recorded numbers live in `BENCH_pr8.json`; that the rows are
//! the plain walker's is `tests/determinism.rs`'s to prove, on a mesh
//! small enough for the serial oracle.
//!
//! Ignored by default — far too slow for tier-1. Reproduce with:
//!
//! ```text
//! cargo test --release -p pr-bench --test isp1000_timing -- --ignored --nocapture
//! ```

use std::time::Instant;

use pr_core::{DiscriminatorKind, PrMode, PrNetwork};
use pr_embedding::{CellularEmbedding, RotationSystem};
use pr_graph::generators::{self, MeshParams};
use pr_scenarios::SingleLinkFailures;

#[test]
#[ignore = "manual acceptance timing (~30 s); run --release --ignored --nocapture"]
fn isp1000_exhaustive_singles() {
    let g = generators::isp_mesh(&MeshParams::new(1000, 2010));
    let rot = RotationSystem::geometric(&g).expect("mesh has coordinates");
    let emb = CellularEmbedding::new(&g, rot).expect("connected");
    let pr = PrNetwork::compile(&g, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
    let singles = SingleLinkFailures::new(&g);

    let t = Instant::now();
    let (rows, _) = pr_bench::stretch::run_rows(&g, &pr, &singles, 1, 0);
    let secs = t.elapsed().as_secs_f64();

    println!("isp-1000 exhaustive singles, 1 thread: {secs:.1}s ({} scenarios)", rows.len());
    assert!(secs <= 30.0, "acceptance: the sweep must finish in <= 30s, got {secs:.1}s");
}
