//! Shared helpers for the daemon integration tests.
#![allow(dead_code)]

use pr_daemon::{DemandSpec, Twin};
use pr_graph::Graph;
use pr_testkit::nets::{self, Net};

/// Builds a twin over a fresh compile of `graph` (the kit's searched
/// embedding — both sides of every comparison compile through it, so
/// cold and warm answers are built from identical tables).
pub fn twin(graph: &Graph, demand: DemandSpec, threads: usize) -> Twin {
    let Net { g, pr, .. } = Net::searched(graph.clone());
    Twin::new(g, pr, demand, threads).expect("twin")
}

/// `"A-B"` endpoint names of the `i`-th link in id order.
pub fn link_name(graph: &Graph, i: usize) -> String {
    nets::link_name(graph, graph.links().nth(i).expect("link index in range"))
}

/// A unique scratch directory for one test (cleaned by the caller).
pub fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pr-daemon-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}
