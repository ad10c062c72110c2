//! # pr-bench — the experiment library
//!
//! Regenerates every table and figure of the Packet Re-cycling paper
//! (and the ablations this reproduction adds). It has no binary of its
//! own: `pr-cli` runs it, one `pr experiment <name>` row per artefact
//! (the map lives in `DESIGN.md` §13); in short:
//!
//! | artefact | `pr experiment` | library |
//! |---|---|---|
//! | Table 1 | `table1` | (`pr embed` + `pr tables`) |
//! | Figure 1(b)/(c) walkthroughs | `fig1` | (`pr walk`) |
//! | Figure 2(a)–(f) stretch CCDFs | `fig2` | [`stretch`] |
//! | §4.2/§4.3 coverage claims (E5) | `coverage` | [`coverage`] |
//! | §6 header/memory overheads (E8) | `overheads` | [`overheads`] |
//! | §1 OC-192 loss arithmetic (E10) | `oc192` | (`pr_sim::run_scenario`) |
//! | impaired loss-over-time (E13) | `impair-loss` | [`impair`] |
//! | embedding-heuristic ablation (E6) | `ablation-embedding` | [`ablation`] |
//! | discriminator ablation (E7) | `ablation-dd` | [`ablation`] |
//! | genus-vs-delivery finding (E11) | `ablation-genus` | [`ablation`] |
//!
//! The criterion harnesses under `benches/` are experiment E9
//! (forwarding decision latency) and the regression gates; the serial
//! oracles the sweeps are held to live in `pr-testkit`.
//!
//! Every scenario sweep routes through [`engine`] — the shared
//! work-unit decomposition, hoisting and worker-pool layer — and takes
//! its thread count as an argument (`--threads N` on the command line;
//! default [`engine::default_threads`]).
//!
//! The rows print a human-readable summary to stdout and write
//! machine-readable CSV/JSON under `results/` (created on demand,
//! through [`artefact`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ablation;
pub mod artefact;
pub mod coverage;
pub mod engine;
pub mod impair;
pub mod lanes;
pub mod overheads;
pub mod shards;
pub mod stretch;
pub mod temporal;
pub mod traffic;

use std::io::Write;
use std::path::{Path, PathBuf};

use pr_embedding::CellularEmbedding;
use pr_graph::Graph;
use pr_topologies::{Isp, Weighting};

/// Seed used by every experiment row, so published numbers are
/// reproducible byte for byte.
pub const EXPERIMENT_SEED: u64 = 2010; // HotNets year

/// Loads a paper topology with distance weights and its certified
/// genus-0 embedding (the production pipeline).
pub fn paper_topology(isp: Isp) -> (Graph, CellularEmbedding) {
    paper_topology_with(isp, Weighting::Distance)
}

/// [`paper_topology`] with an explicit weighting. The stretch figures
/// are run under both: hop weights reproduce the paper's 1–15 stretch
/// axis; distance weights show the geographically-weighted variant.
pub fn paper_topology_with(isp: Isp, weighting: Weighting) -> (Graph, CellularEmbedding) {
    let graph = pr_topologies::load(isp, weighting);
    let rot = pr_embedding::heuristics::thorough(&graph, EXPERIMENT_SEED, 8, 60_000);
    let emb = CellularEmbedding::new(&graph, rot).expect("ISP topologies are connected");
    (graph, emb)
}

/// Resolves (and creates) the `results/` output directory next to the
/// workspace root.
pub fn results_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&dir).expect("create results directory");
    dir
}

/// Writes a result artefact in one chunk and echoes its path.
pub fn write_result(name: &str, contents: &str) -> PathBuf {
    let written = artefact::Artefact::create(name).and_then(|mut file| {
        file.write_all(contents.as_bytes())?;
        file.finish()
    });
    written.unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_topologies_get_planar_embeddings() {
        let (g, emb) = paper_topology(Isp::Abilene);
        assert_eq!(g.node_count(), 11);
        assert_eq!(emb.genus(), 0);
    }

    #[test]
    fn results_dir_is_creatable() {
        let dir = results_dir();
        assert!(dir.is_dir());
    }
}
