//! The FCP lane of the unit kernel ([`crate::engine`]).
//!
//! Under **one** failed link `l` the lane is arithmetic (DESIGN.md §8
//! has the proof). Every source of the unit's cone has the same failure
//! point `p` — the endpoint of `l` whose tree dart towards the
//! destination *is* `l` — and from `p` the packet carries `{l}`, the
//! unit's whole failed set, so it pays the survivor label the opener
//! has just repaired for `p`: `cost(src) = base(src) + survivor(p) −
//! base(p)`, delivered iff `p` survives. No flow unit is opened, no
//! route selected, no memo touched. It is FCP's alone, and one
//! failure's: under two or more the lane walks, as every scheme's does.

use pr_baselines::{FcpAgent, FcpState, RouteStats};
use pr_core::{FlowScratch, FlowUnit, MemoStats};
use pr_graph::{NodeId, SpTree};

use crate::engine::{ConePlan, OpenCone, SweepUnit};

/// One worker's FCP lane over a [`ConePlan`]: the memoising agent and
/// its flow scratch, which only units of two or more failures reach.
pub struct FcpLane<'a> {
    plan: &'a ConePlan<'a>,
    agent: FcpAgent<'a>,
    walks: FlowScratch<FcpState>,
}

impl<'a> FcpLane<'a> {
    /// The lane of one worker of sweeps over `plan`. The closed form
    /// counts no hops, so the plan's budget must be one that a tree
    /// prefix plus a simple survivor path, n − 1 hops each, never spends.
    pub fn new(plan: &'a ConePlan<'a>) -> FcpLane<'a> {
        let longest = 2 * plan.graph().node_count().saturating_sub(1);
        assert!(longest <= plan.ttl(), "the closed form needs {longest} hops to fit the ttl");
        let agent = FcpAgent::cached_with_base(plan.graph(), plan.base());
        FcpLane { plan, agent, walks: FlowScratch::new() }
    }

    /// Scenario boundary: evicts the agent's route memo.
    pub fn begin_scenario(&self) {
        self.agent.begin_scenario();
    }

    /// Opens the lane on `unit`, whose opened cone is `cone`.
    pub fn unit<'u>(&'u mut self, unit: &SweepUnit<'u>, cone: &OpenCone<'_>) -> FcpUnit<'u, 'a> {
        let (graph, tree) = (self.plan.graph(), unit.base_tree);
        if unit.failures != 1 {
            let walks = self.walks.unit(graph, &self.agent, tree, unit.failed);
            return FcpUnit::Walked(walks, self.plan.ttl());
        }
        // No endpoint routes over the link: the cone is empty and the
        // lane is not asked.
        let point = unit.broken_tree_dart(graph).map(|out| graph.dart_tail(out));
        FcpUnit::Priced(tree, point.and_then(|p| Some(cone.survivor(p)? - tree.cost(p)?)))
    }

    /// The route memo's counters since they were last taken.
    pub fn take_route_stats(&self) -> RouteStats {
        self.agent.take_route_stats()
    }
}

/// The lane opened on one unit ([`FcpLane::unit`]). It answers the
/// sources of the unit's cone, and only those.
pub enum FcpUnit<'u, 'a> {
    /// One failed link, priced: the destination's failure-free tree and
    /// the detour `survivor(p) − base(p)` (`None`: the cone is cut off).
    Priced(&'u SpTree, Option<u64>),
    /// Two or more, walked: the flow guard and the plan's hop budget.
    Walked(FlowUnit<'u, FcpAgent<'a>>, usize),
}

impl FcpUnit<'_, '_> {
    /// Cost of FCP's delivered path from `src`; `None` if it drops.
    pub fn cost(&mut self, src: NodeId) -> Option<u64> {
        match self {
            FcpUnit::Priced(tree, detour) => detour.map(|d| tree.cost(src).expect("connected") + d),
            FcpUnit::Walked(walks, ttl) => walks.walk(src, *ttl).cost(),
        }
    }

    /// The unit memo's counters (none when the unit did not walk).
    pub fn take_stats(&mut self) -> MemoStats {
        let FcpUnit::Walked(walks, _) = self else { return MemoStats::default() };
        walks.take_stats()
    }
}
