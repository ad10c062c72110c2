//! Time-aware forwarding: how schemes behave *while* routing state is
//! in flux.
//!
//! The stretch experiments (walker-based) compare schemes in their
//! steady state; the loss experiments (E10) compare them **during the
//! failure transient**, where the differences the paper's §1
//! motivates live. [`TimedForwarding`] adds the clock to the decision
//! function; two implementations cover the schemes whose transient
//! behaviour differs from their steady state:
//!
//! * [`Static`] — wraps any [`ForwardingAgent`]: the scheme reacts to
//!   the failure information it is given at once (PR, FCP, LFA).
//! * [`ReconvergingIgp`] — a link-state IGP: routes on the *stale*
//!   shortest paths until `converged_at`, then on the survivor paths.
//!   In between, packets aimed at the failed link are lost — the §1
//!   quarter-million-packets story.

use std::sync::Arc;

use pr_core::{DropReason, ForwardDecision, ForwardingAgent};
use pr_graph::{AllPairs, Dart, Graph, LinkSet, NodeId, SpScratch};

use crate::SimTime;

/// A forwarding decision function that may also depend on the clock.
pub trait TimedForwarding {
    /// Per-packet header state threaded between hops.
    type State: Clone + Default + std::fmt::Debug;

    /// Scheme label for reports.
    fn label(&self) -> &'static str;

    /// Decide at time `now`. `visible_failed` is the failure set the
    /// control plane has *detected* (the simulator applies the
    /// detection delay); whether the chosen egress is physically up is
    /// the simulator's business, not the agent's.
    fn decide_at(
        &self,
        now: SimTime,
        at: NodeId,
        ingress: Option<Dart>,
        dest: NodeId,
        state: &mut Self::State,
        visible_failed: &LinkSet,
    ) -> ForwardDecision;

    /// Header bits currently occupied (overhead accounting).
    fn header_bits(&self, state: &Self::State) -> usize;
}

/// Adapter: any steady-state [`ForwardingAgent`] is a (time-ignoring)
/// [`TimedForwarding`].
#[derive(Debug, Clone, Copy)]
pub struct Static<A>(pub A);

impl<A: ForwardingAgent> TimedForwarding for Static<A> {
    type State = A::State;

    fn label(&self) -> &'static str {
        self.0.label()
    }

    fn decide_at(
        &self,
        _now: SimTime,
        at: NodeId,
        ingress: Option<Dart>,
        dest: NodeId,
        state: &mut Self::State,
        visible_failed: &LinkSet,
    ) -> ForwardDecision {
        self.0.decide(at, ingress, dest, state, visible_failed)
    }

    fn header_bits(&self, state: &Self::State) -> usize {
        self.0.header_bits(state)
    }
}

/// A reconverging link-state IGP (OSPF/IS-IS-like) for the loss
/// experiments: before `converged_at` it forwards on the pre-failure
/// shortest paths — straight into the failure — and afterwards on the
/// survivor shortest paths.
#[derive(Debug, Clone)]
pub struct ReconvergingIgp {
    /// Pre-failure tables, failure-invariant — shared (`Arc`) so a
    /// sweep over many scenarios hoists them once and each scenario's
    /// agent costs one pointer copy, not an all-pairs copy.
    stale: Arc<AllPairs>,
    converged: AllPairs,
    converged_at: SimTime,
}

impl ReconvergingIgp {
    /// Builds the two routing states around a failure event: `failed`
    /// is the post-failure link set; `converged_at` is when the new
    /// tables take effect network-wide (failure time + detection +
    /// flooding + SPF + FIB install, collapsed into one number as in
    /// the paper's reconvergence discussion).
    ///
    /// The pre-failure tables are failure-invariant, so a sweep over
    /// many scenarios computes them once and shares them here at one
    /// `Arc` bump per scenario. The converged (post-failure) tables
    /// are produced by **incremental repair** of the stale trees
    /// through the caller-held Dijkstra arena — bit-identical to the
    /// full `AllPairs::compute`, but touching only the cones the
    /// failure actually perturbs.
    ///
    /// **Precondition** (inherited from [`pr_graph::SpTree::repair_from`]):
    /// `stale` must have been computed over a *subset* of `failed` —
    /// in practice the failure-free base map.
    pub fn with_stale_repaired(
        stale: Arc<AllPairs>,
        graph: &Graph,
        failed: &LinkSet,
        converged_at: SimTime,
        scratch: &mut SpScratch,
    ) -> ReconvergingIgp {
        let converged = stale.repair_from(graph, failed, scratch);
        ReconvergingIgp { stale, converged, converged_at }
    }

    /// The instant the survivor tables take effect.
    pub fn converged_at(&self) -> SimTime {
        self.converged_at
    }
}

impl TimedForwarding for ReconvergingIgp {
    type State = ();

    fn label(&self) -> &'static str {
        "reconverging-igp"
    }

    fn decide_at(
        &self,
        now: SimTime,
        at: NodeId,
        _ingress: Option<Dart>,
        dest: NodeId,
        _state: &mut (),
        _visible_failed: &LinkSet,
    ) -> ForwardDecision {
        let tables = if now < self.converged_at { &self.stale } else { &self.converged };
        match tables.towards(dest).next_dart(at) {
            // Note: before convergence this may point into the failed
            // link; the simulator will count the loss.
            Some(out) => ForwardDecision::Forward(out),
            None => ForwardDecision::Drop(DropReason::Unreachable),
        }
    }

    fn header_bits(&self, _state: &()) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pr_graph::generators;

    fn igp(g: &Graph, failed: &LinkSet, converged_at: SimTime) -> ReconvergingIgp {
        let stale = Arc::new(AllPairs::compute_all_live(g));
        ReconvergingIgp::with_stale_repaired(stale, g, failed, converged_at, &mut SpScratch::new())
    }

    #[test]
    fn static_adapter_passes_through() {
        use pr_core::{DiscriminatorKind, PrMode, PrNetwork};
        use pr_embedding::{CellularEmbedding, RotationSystem};
        let g = generators::ring(5, 1);
        let emb = CellularEmbedding::new(&g, RotationSystem::identity(&g)).unwrap();
        let net =
            PrNetwork::compile(&g, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops);
        let wrapped = Static(net.agent(&g));
        assert_eq!(wrapped.label(), "pr-dd");
        let none = LinkSet::empty(g.link_count());
        let mut state = Default::default();
        let d = wrapped.decide_at(SimTime(123), NodeId(2), None, NodeId(0), &mut state, &none);
        assert!(matches!(d, ForwardDecision::Forward(_)));
    }

    #[test]
    fn igp_switches_tables_at_convergence() {
        let g = generators::ring(5, 1);
        let direct = g.find_link(NodeId(1), NodeId(0)).unwrap();
        let failed = LinkSet::from_links(g.link_count(), [direct]);
        let igp = igp(&g, &failed, SimTime::from_millis(500));

        let before =
            igp.decide_at(SimTime::from_millis(100), NodeId(1), None, NodeId(0), &mut (), &failed);
        // Stale tables still point into the failed link.
        match before {
            ForwardDecision::Forward(d) => assert_eq!(d.link(), direct),
            other => panic!("expected stale forward, got {other:?}"),
        }

        let after =
            igp.decide_at(SimTime::from_millis(500), NodeId(1), None, NodeId(0), &mut (), &failed);
        match after {
            ForwardDecision::Forward(d) => {
                assert_ne!(d.link(), direct, "converged tables avoid the failure")
            }
            other => panic!("expected converged forward, got {other:?}"),
        }
    }

    #[test]
    fn igp_detects_unreachability_after_convergence() {
        let g = generators::ring(4, 1);
        let l01 = g.find_link(NodeId(0), NodeId(1)).unwrap();
        let l30 = g.find_link(NodeId(3), NodeId(0)).unwrap();
        let failed = LinkSet::from_links(g.link_count(), [l01, l30]);
        let igp = igp(&g, &failed, SimTime::ZERO);
        let d = igp.decide_at(SimTime(1), NodeId(2), None, NodeId(0), &mut (), &failed);
        assert_eq!(d, ForwardDecision::Drop(DropReason::Unreachable));
    }
}
