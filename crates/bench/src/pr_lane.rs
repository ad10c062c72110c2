//! The PR lane of the unit kernel ([`crate::engine`]).
//!
//! Under **one** failed link `l` the lane is arithmetic (DESIGN.md §8
//! has the proof). Every source of the unit's cone has the same failure
//! point `p` — the endpoint of `l` whose tree dart towards the
//! destination *is* `l` — and what a packet does from `p` is §4.2's
//! detour, a function of the failed interface alone: `p` deflects it
//! onto the failed dart's complementary cycle, which it follows to the
//! link's far end `far`, and there it resumes shortest-path routing.
//! The lane reads that **episode** off `pr_core::PrAgent::episode` —
//! the protocol's moves are spelled in `pr-core` only — and prices it:
//! `cost(src) = base(src) − base(p) + detour`, where the detour is the
//! episode up to the destination if the destination sits on it (a
//! packet is delivered on arrival) and the whole episode plus
//! `base(far)` otherwise. No flow unit is opened, no router decides, no
//! livelock table or memo is touched.
//!
//! It is one failure's: under two or more the lane walks, as every
//! scheme's does, and so does the single failure whose episode does not
//! end at `far` — it comes back to `p` when both darts of `l` lie on
//! one face (a bridge, or a positive-genus embedding), and it is empty
//! when `l` was `p`'s only link.

use pr_core::{DropReason, FlowScratch, FlowUnit, FlowWalk, MemoStats, PrAgent, PrHeader};
use pr_graph::{NodeId, SpTree};

use crate::engine::{ConePlan, SweepUnit};

/// One worker's PR lane over a [`ConePlan`]: the agent, and the flow
/// scratch only the units the closed form does not cover reach.
pub struct PrLane<'a> {
    plan: &'a ConePlan<'a>,
    agent: PrAgent<'a>,
    walks: FlowScratch<PrHeader>,
    episodes: u64,
}

impl<'a> PrLane<'a> {
    /// The lane of one worker of sweeps over `plan`, forwarding by
    /// `agent` — either protocol mode, any discriminator.
    pub fn new(plan: &'a ConePlan<'a>, agent: PrAgent<'a>) -> PrLane<'a> {
        PrLane { plan, agent, walks: FlowScratch::new(), episodes: 0 }
    }

    /// Opens the lane on `unit`.
    pub fn unit<'u>(&'u mut self, unit: &SweepUnit<'u>) -> PrUnit<'u, 'a> {
        let (graph, tree) = (self.plan.graph(), unit.base_tree);
        if let Some(detour) = self.detour(unit) {
            return PrUnit::Priced(tree, detour);
        }
        PrUnit::Walked(self.walks.unit(graph, &self.agent, tree, unit.failed))
    }

    /// The closed form of `unit`, if it has one: what a packet pays
    /// from the unit's failure point to the destination.
    fn detour(&mut self, unit: &SweepUnit<'_>) -> Option<Detour> {
        let (graph, tree) = (self.plan.graph(), unit.base_tree);
        let out = unit.broken_tree_dart(graph)?;
        let label = |v| tree.cost(v).zip(tree.hops(v)).expect("connected");
        let (point, far) = (label(graph.dart_tail(out)), graph.dart_head(out));

        self.episodes += 1;
        let mut episode = self.agent.episode(out, unit.failed);
        let (mut cost, mut hops) = (0u64, 0u32);
        for dart in &mut episode {
            cost += u64::from(graph.weight(dart.link()));
            hops += 1;
            if graph.dart_head(dart) == tree.dest {
                return Some(Detour { point, cost, hops });
            }
        }
        // Cycle following met the failed link again. At `far` — `p`'s
        // tree parent, strictly closer under either discriminator — the
        // packet resumes routing on a tree path that cannot cross the
        // link; anywhere else (`p` itself) it livelocks or is isolated,
        // which the walker tells apart.
        let ends_at_far = episode.ended_by().is_some_and(|d| graph.dart_tail(d) == far);
        let (far_cost, far_hops) = label(far);
        ends_at_far.then_some(Detour { point, cost: cost + far_cost, hops: hops + far_hops })
    }

    /// Episodes read since they were last taken: one per unit of one
    /// failed link with a cone, priced or not.
    pub fn take_episodes(&mut self) -> u64 {
        std::mem::take(&mut self.episodes)
    }
}

/// What the delivered path of every source of a priced unit has in
/// common: the failure point's failure-free `(cost, hops)` — the tree
/// prefix of a source ends there — and the cost and hops from the
/// point to the destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Detour {
    point: (u64, u32),
    cost: u64,
    hops: u32,
}

/// The lane opened on one unit ([`PrLane::unit`]). It answers the
/// sources of the unit's cone, and only those.
pub enum PrUnit<'u, 'a> {
    /// One failed link, priced: the destination's failure-free tree and
    /// the detour from the failure point.
    Priced(&'u SpTree, Detour),
    /// Anything else, walked: the flow guard.
    Walked(FlowUnit<'u, PrAgent<'a>>),
}

impl PrUnit<'_, '_> {
    /// Answers one packet of the unit from `src` under a budget of
    /// `ttl` hops: outcome, cost and hops of `pr_core::walk_packet` on
    /// the same flow. A priced path is loop-free, so one that does not
    /// fit the budget is dropped for that and nothing else.
    pub fn walk(&mut self, src: NodeId, ttl: usize) -> FlowWalk {
        match self {
            PrUnit::Priced(tree, detour) => {
                let (cost, hops) = tree.cost(src).zip(tree.hops(src)).expect("connected");
                let (point_cost, point_hops) = detour.point;
                let hops = hops - point_hops + detour.hops;
                if hops as usize > ttl {
                    return FlowWalk::Dropped(DropReason::TtlExpired);
                }
                FlowWalk::Recovered { cost: cost - point_cost + detour.cost, hops }
            }
            PrUnit::Walked(walks) => walks.walk(src, ttl),
        }
    }

    /// The unit memo's counters (none when the unit did not walk).
    pub fn take_stats(&mut self) -> MemoStats {
        let PrUnit::Walked(walks) = self else { return MemoStats::default() };
        walks.take_stats()
    }
}
