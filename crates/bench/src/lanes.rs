//! The scheme lanes of the unit kernel ([`crate::engine`]): one shape
//! for every recovery scheme a sweep asks.
//!
//! A [`Lane`] is what a scheme brings to a sweep: the forwarding agent
//! its units are walked with and, under **one** failed link, its closed
//! form if it has one. A worker holds each lane in a [`LaneScratch`],
//! opens it per unit with [`LaneScratch::unit`] — the unit and its
//! opened cone — and asks the [`LaneUnit`] it gets one question for
//! every source of the cone: [`LaneUnit::cost`], at the plan's hop
//! budget. What a lane prices is one shared answer, the unit's
//! failure-free tree plus one [`Detour`] from the failure point `p` —
//! the endpoint of the failed link `l` whose tree dart *is* `l`, the
//! point of every source of the cone — and what it does not price goes
//! through `pr_core`'s flow unit, once per failure point: a PR point
//! priced as an episode chain where it delivers, any other walked.
//! DESIGN.md §8 has the proofs; the closed forms are:
//!
//! * **FCP** — at `p` the packet learns `l`, the unit's whole failed
//!   set, and pays the survivor label the opener has just repaired for
//!   `p`: the detour is `survivor(p) − base(p)`, and a cut-off `p`
//!   drops the cone.
//! * **Packet Re-cycling** (either mode) — what a packet does from `p`
//!   is §4.2's detour, a function of the failed interface alone: the
//!   **episode** of `p → far`, staged once per failed dart on the
//!   lane's flow scratch and priced per unit by
//!   `pr_core::FlowScratch::detour` (the protocol's moves and its
//!   closed form are spelled in `pr-core` only, and the replay
//!   dataplane asks the same one): up to the destination if the
//!   destination sits on it, else the whole episode plus `base(far)`.
//!   An episode that does not end at `far` — it comes back to `p` when
//!   both darts of `l` lie on one face, and is empty when `l` was `p`'s
//!   only link — prices no destination off it.
//! * **LFA, not-via** — none: any agent by reference is a lane whose
//!   every unit is walked.
//!
//! Two or more failures go through the flow unit in every lane.

use std::hash::Hash;

use pr_baselines::FcpAgent;
use pr_core::{FlowScratch, FlowUnit, ForwardingAgent, PrAgent};
use pr_graph::{Dart, Graph, NodeId, SpTree};

use crate::engine::{ConePlan, OpenCone, SweepUnit};
use crate::stretch::SweepStats;

/// What every source of a priced unit pays beyond its failure-free
/// path: `cost(src) = base(src) + detour`, or `None` when the scheme
/// drops every packet at the failure point.
pub type Detour = Option<u64>;

/// One recovery scheme, as a sweep asks it.
pub trait Lane {
    /// The agent that walks every unit the closed form does not price.
    type Agent: ForwardingAgent<State: Hash + Eq>;

    /// The scheme's agent.
    fn agent(&self) -> &Self::Agent;

    /// The closed form of a unit whose failed set is one link, `out`
    /// the tree dart crossing it (`p → far`); `None` to walk the unit.
    /// `flows` is the worker's flow scratch of the lane, whose staged
    /// episodes are kept across units. A scheme without one walks every
    /// unit.
    fn detour(
        &self,
        _graph: &Graph,
        _unit: &SweepUnit<'_>,
        _out: Dart,
        _cone: &OpenCone<'_>,
        _flows: &mut Flows<Self>,
    ) -> Option<Detour> {
        None
    }

    /// Adds the scheme's own counters for one unit to `stats`: whether
    /// its closed form was `asked`, and whether it `priced` the unit.
    fn count(&self, _asked: bool, _priced: bool, _stats: &mut SweepStats) {}
}

/// Any agent by reference: a lane without a closed form.
impl<A: ForwardingAgent<State: Hash + Eq>> Lane for &A {
    type Agent = A;

    fn agent(&self) -> &A {
        self
    }
}

impl<'a> Lane for FcpAgent<'a> {
    type Agent = FcpAgent<'a>;

    fn agent(&self) -> &FcpAgent<'a> {
        self
    }

    fn detour(
        &self,
        graph: &Graph,
        unit: &SweepUnit<'_>,
        out: Dart,
        cone: &OpenCone<'_>,
        _flows: &mut Flows<Self>,
    ) -> Option<Detour> {
        let p = graph.dart_tail(out);
        let base = unit.base_tree.cost(p).expect("connected");
        Some(cone.survivor(p).map(|survivor| survivor - base))
    }

    fn count(&self, _asked: bool, priced: bool, stats: &mut SweepStats) {
        stats.lanes.fcp_priced += u64::from(priced);
        stats.routes.merge(&self.take_route_stats());
    }
}

impl<'a> Lane for PrAgent<'a> {
    type Agent = PrAgent<'a>;

    fn agent(&self) -> &PrAgent<'a> {
        self
    }

    fn detour(
        &self,
        graph: &Graph,
        unit: &SweepUnit<'_>,
        out: Dart,
        _cone: &OpenCone<'_>,
        flows: &mut Flows<Self>,
    ) -> Option<Detour> {
        flows.detour(graph, self, unit.base_tree, out, unit.failed).map(|(detour, _)| Some(detour))
    }

    fn count(&self, asked: bool, priced: bool, stats: &mut SweepStats) {
        stats.lanes.pr_priced += u64::from(priced);
        stats.lanes.pr_episodes += u64::from(asked);
    }
}

/// The flow scratch of a lane's agent.
pub type Flows<L> = FlowScratch<<<L as Lane>::Agent as ForwardingAgent>::State>;

/// One worker's lane over a [`ConePlan`]: the scheme and its flow
/// scratch, which stages the episodes the closed form prices off and
/// walks the units it does not price.
pub struct LaneScratch<'a, L: Lane> {
    plan: &'a ConePlan<'a>,
    lane: L,
    walks: Flows<L>,
}

impl<'a, L: Lane> LaneScratch<'a, L> {
    /// `lane` on one worker of sweeps over `plan`. A closed form counts
    /// no hops, so the plan's budget must be one a priced path never
    /// spends: a tree prefix and a tree suffix of n − 1 hops each around
    /// a detour of at most every dart once (a simple survivor path, or
    /// an episode, which follows one face).
    pub fn new(plan: &'a ConePlan<'a>, lane: L) -> LaneScratch<'a, L> {
        let graph = plan.graph();
        let longest = 2 * graph.node_count().saturating_sub(1) + graph.dart_count();
        assert!(longest <= plan.ttl(), "a priced path of {longest} hops must fit the ttl");
        LaneScratch { plan, lane, walks: FlowScratch::new() }
    }

    /// Opens the lane on `unit`, whose opened cone is `cone`: priced if
    /// its failed set is one link and the scheme's closed form covers
    /// it, walked otherwise.
    pub fn unit<'u>(&'u mut self, unit: &SweepUnit<'u>, cone: &OpenCone<'_>) -> LaneUnit<'u, L> {
        let LaneScratch { plan, lane, walks } = self;
        let (graph, tree, lane) = (plan.graph(), unit.base_tree, &*lane);
        let out = unit.broken_tree_dart(graph);
        let answer = match out.and_then(|out| lane.detour(graph, unit, out, cone, walks)) {
            Some(detour) => Answer::Priced(tree, detour),
            None => Answer::Walked(walks.unit(graph, lane.agent(), tree, unit.failed), plan.ttl()),
        };
        LaneUnit { lane, asked: out.is_some(), answer }
    }
}

/// A lane opened on one unit ([`LaneScratch::unit`]). It answers the
/// sources of the unit's cone, and only those.
pub struct LaneUnit<'u, L: Lane> {
    lane: &'u L,
    /// Whether the closed form was asked: one failed link, and a cone.
    asked: bool,
    answer: Answer<'u, L::Agent>,
}

enum Answer<'u, A: ForwardingAgent> {
    /// The destination's failure-free tree and the detour from the
    /// failure point.
    Priced(&'u SpTree, Detour),
    /// The flow guard and the plan's hop budget.
    Walked(FlowUnit<'u, A>, usize),
}

impl<L: Lane> LaneUnit<'_, L> {
    /// Cost of the scheme's delivered path from `src`; `None` if the
    /// packet is dropped.
    pub fn cost(&mut self, src: NodeId) -> Option<u64> {
        match &mut self.answer {
            Answer::Priced(tree, detour) => detour.map(|d| tree.cost(src).expect("connected") + d),
            Answer::Walked(walks, ttl) => walks.walk(src, *ttl).cost(),
        }
    }

    /// Whether the closed form priced the unit.
    pub fn is_priced(&self) -> bool {
        matches!(self.answer, Answer::Priced(..))
    }

    /// Moves the unit's counters into `stats`: the flow unit's walk
    /// counters, if it walked, and the scheme's own ([`Lane::count`]).
    pub fn take_stats(&mut self, stats: &mut SweepStats) {
        if let Answer::Walked(walks, _) = &mut self.answer {
            stats.memo.merge(&walks.take_stats());
        }
        self.lane.count(self.asked, self.is_priced(), stats);
    }
}
