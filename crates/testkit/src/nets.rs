//! The named networks: a topology with everything a harness hoists.
//!
//! [`Net::base`] is computed here with `AllPairs::compute_all_live`,
//! never borrowed from [`PrNetwork::base`]: an oracle that priced
//! flows off the trees of the network under test would agree with any
//! bug in them (`tests/kit.rs` holds the two apart by address).

use pr_core::{DenseFib, DiscriminatorKind, PrMode, PrNetwork};
use pr_embedding::{heuristics, CellularEmbedding, RotationSystem};
use pr_graph::generators;
use pr_graph::{AllPairs, Graph, LinkId};
use pr_topologies::{Isp, Weighting};
use pr_traffic::HotspotTraffic;

/// One topology, its PR-DD network (hop discriminator), failure-free
/// trees of its own and the FIB staged from them.
pub struct Net {
    /// The topology.
    pub g: Graph,
    /// PR in distance-discriminator mode over the chosen rotation.
    pub pr: PrNetwork,
    /// The oracle side's failure-free trees — not `pr.base()`.
    pub base: AllPairs,
    /// The replay FIB over `base`.
    pub dense: DenseFib,
}

impl Net {
    /// `g` under `rotation`.
    pub fn new(g: Graph, rotation: RotationSystem) -> Net {
        let embedding = CellularEmbedding::new(&g, rotation).expect("connected topology");
        let pr = PrNetwork::compile(
            &g,
            embedding,
            PrMode::DistanceDiscriminator,
            DiscriminatorKind::Hops,
        );
        let base = AllPairs::compute_all_live(&g);
        let dense = DenseFib::from_base(&g, &base);
        Net { g, pr, base, dense }
    }

    /// The identity rotation: cheap, and of positive genus on most
    /// graphs — walks drop although a path survives, which every
    /// harness must price like any other outcome.
    pub fn identity(g: Graph) -> Net {
        let rotation = RotationSystem::identity(&g);
        Net::new(g, rotation)
    }

    /// A searched rotation (seed 2010, a cheap budget): genus 0 on the
    /// paper's topologies and the synthetic meshes.
    pub fn searched(g: Graph) -> Net {
        let rotation = heuristics::thorough(&g, 2010, 4, 10_000);
        Net::new(g, rotation)
    }

    /// The rotation a located graph's coordinates give: planar on the
    /// synthetic meshes, and no search to pay for.
    pub fn geometric(g: Graph) -> Net {
        let rotation = RotationSystem::geometric(&g).expect("a located graph");
        Net::new(g, rotation)
    }

    /// The paper's Figure 1 under the paper's neighbour orders.
    pub fn figure1() -> Net {
        let (g, orders) = pr_topologies::figure1();
        let rotation = RotationSystem::from_neighbor_orders(&g, &orders).expect("paper orders");
        Net::new(g, rotation)
    }

    /// Abilene, searched.
    pub fn abilene() -> Net {
        Net::searched(isp(Isp::Abilene))
    }

    /// GÉANT, searched.
    pub fn geant() -> Net {
        Net::searched(isp(Isp::Geant))
    }

    /// The 120-node synthetic ISP mesh (seed 2010) under its geometric
    /// rotation: deep trees, many-word bitsets, blocks of several
    /// destinations.
    pub fn mesh120() -> Net {
        Net::geometric(synth("isp:120:2010"))
    }

    /// A hot-spot demand model over a quarter of the nodes.
    pub fn hotspot(&self, seed: u64) -> HotspotTraffic {
        HotspotTraffic::new(&self.g, (self.g.node_count() / 4).max(1), 4.0, seed)
    }
}

/// A shipped topology under distance weights.
pub fn isp(isp: Isp) -> Graph {
    pr_topologies::load(isp, Weighting::Distance)
}

/// The synthetic graph of a `synth:` spec (`"isp:24:7"`).
pub fn synth(spec: &str) -> Graph {
    generators::synth_from_spec(spec).expect("synth spec")
}

/// `"A-B"`: the endpoint names of `link`, as `--fail` and the daemon's
/// link events spell it.
pub fn link_name(g: &Graph, link: LinkId) -> String {
    let (a, b) = g.endpoints(link);
    format!("{}-{}", g.node_name(a), g.node_name(b))
}
