//! Certifies that every shipped ISP topology admits a genus-0
//! (planar) cellular embedding — the precondition for the paper's §5
//! delivery guarantee (see DESIGN.md §15).
//!
//! ```sh
//! cargo run --release -p pr-topologies --example genus_check
//! ```

use pr_embedding::{genus, heuristics, FaceStructure, RotationSystem};

fn main() {
    println!("topology    start-genus(geometric)  certified-genus  faces");
    for isp in pr_topologies::Isp::ALL {
        let g = pr_topologies::load(isp, pr_topologies::Weighting::Distance);
        let geo = RotationSystem::geometric(&g).expect("ISP topologies carry coordinates");
        let start = genus(&g, &FaceStructure::trace(&g, &geo)).expect("connected");
        let best = heuristics::thorough(&g, 2010, 8, 60_000);
        let faces = FaceStructure::trace(&g, &best);
        let certified = genus(&g, &faces).expect("connected");
        println!("{:<11} {:>22}  {:>15}  {:>5}", isp.name(), start, certified, faces.face_count());
        assert_eq!(certified, 0, "{isp}: expected to certify planarity");
    }
    println!("\nAll three evaluation topologies are planar: the §5 guarantee applies.");
}
