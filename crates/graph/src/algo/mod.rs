//! Graph algorithms: shortest paths, connectivity, concrete paths.

mod bfs;
mod connectivity;
mod dijkstra;
mod paths;
mod repair;

pub use bfs::{hop_diameter, hop_distances};
pub use connectivity::{
    components, connected_after, cut_analysis, is_biconnected, is_connected, is_two_edge_connected,
    Components, CutAnalysis,
};
pub use dijkstra::{AllPairs, SpTree};
pub use paths::{stretch, Path};
pub use repair::{RepairStats, SpScratch, TreeChildren};
