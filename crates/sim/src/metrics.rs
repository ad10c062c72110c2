//! Run metrics: what happened to every packet.

use serde::{Deserialize, Serialize};

use crate::SimTime;
use pr_core::DropReason;

/// Why the simulator discarded a packet (superset of the agent-level
/// [`DropReason`]: the simulator adds physical causes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SimDropReason {
    /// The forwarding agent decided to drop (with its protocol-level
    /// reason).
    Agent(DropReason),
    /// The packet was serialised onto a link that failed before it
    /// arrived (lost in flight — fibre-cut semantics).
    LostInFlight,
    /// The chosen egress link was down at transmission time and the
    /// agent did not know (detection delay window) — the §1 loss that
    /// motivates fast reroute.
    InterfaceDown,
    /// The egress queue was full (congestion loss).
    QueueOverflow,
    /// The per-packet hop budget ran out (covers livelocks inside the
    /// timed simulator, which has no global loop detector).
    HopBudget,
}

impl std::fmt::Display for SimDropReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimDropReason::Agent(r) => write!(f, "agent: {r}"),
            SimDropReason::LostInFlight => f.write_str("lost in flight on failed link"),
            SimDropReason::InterfaceDown => f.write_str("egress interface down"),
            SimDropReason::QueueOverflow => f.write_str("egress queue overflow"),
            SimDropReason::HopBudget => f.write_str("hop budget exhausted"),
        }
    }
}

/// Aggregated outcome of a simulation run.
///
/// `PartialEq`/`Eq` compare every counter exactly — the determinism
/// tests assert parallel temporal sweeps equal their serial reference
/// bit for bit.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Metrics {
    /// Packets handed to the network by traffic sources.
    pub injected: u64,
    /// Packets that reached their destination.
    pub delivered: u64,
    /// Drops, bucketed by cause.
    pub drops: std::collections::BTreeMap<String, u64>,
    /// Sum of end-to-end latencies of delivered packets (ns).
    pub latency_sum_ns: u128,
    /// Worst delivered latency (ns).
    pub latency_max_ns: u64,
    /// Total hops traversed by delivered packets.
    pub hops_sum: u64,
    /// Worst hop count among delivered packets.
    pub hops_max: u32,
}

impl Metrics {
    /// Records a delivery.
    pub(crate) fn record_delivery(&mut self, sent: SimTime, now: SimTime, hops: u32) {
        self.delivered += 1;
        let lat = now.as_nanos().saturating_sub(sent.as_nanos());
        self.latency_sum_ns += u128::from(lat);
        self.latency_max_ns = self.latency_max_ns.max(lat);
        self.hops_sum += u64::from(hops);
        self.hops_max = self.hops_max.max(hops);
    }

    /// Records a drop.
    pub(crate) fn record_drop(&mut self, reason: SimDropReason) {
        *self.drops.entry(reason.to_string()).or_insert(0) += 1;
    }

    /// Total packets dropped, all causes.
    pub fn total_dropped(&self) -> u64 {
        self.drops.values().sum()
    }

    /// Delivered fraction of injected packets (1.0 when nothing was
    /// injected).
    pub fn delivery_ratio(&self) -> f64 {
        if self.injected == 0 {
            1.0
        } else {
            self.delivered as f64 / self.injected as f64
        }
    }

    /// Mean end-to-end latency of delivered packets, in ns.
    pub fn mean_latency_ns(&self) -> Option<f64> {
        if self.delivered == 0 {
            None
        } else {
            Some(self.latency_sum_ns as f64 / self.delivered as f64)
        }
    }

    /// Mean hop count of delivered packets.
    pub fn mean_hops(&self) -> Option<f64> {
        if self.delivered == 0 {
            None
        } else {
            Some(self.hops_sum as f64 / self.delivered as f64)
        }
    }
}

/// Demand-weighted tally of flow outcomes — the flow-level analogue of
/// [`Metrics`] used by the traffic-replay subsystem (`pr-traffic`).
///
/// Where [`Metrics`] counts packets, a `DemandTally` weighs each flow
/// by its traffic-matrix demand, so a dead link carrying 40% of an
/// ISP's traffic scores 40%, not one scenario-pair among many. The
/// conditioning mirrors the coverage experiment exactly:
///
/// * **evaluated** demand = flows whose failure-free shortest path
///   crossed a failed link *and* whose endpoints stayed connected (the
///   paper's "| path" conditioning);
/// * **disconnected** demand is excluded from coverage (no scheme can
///   deliver it) but still counts as lost;
/// * unaffected flows deliver trivially and only contribute to the
///   offered/delivered totals.
///
/// Under a uniform *unit* matrix (demand exactly 1.0 per ordered
/// pair), every sum below is an integer-valued `f64`, so
/// [`DemandTally::weighted_coverage`] is bit-identical to the
/// unweighted delivered/evaluated ratio — the determinism suite
/// enforces this.
///
/// `PartialEq` compares every accumulator exactly; the parallel
/// traffic sweep must match its serial reference bit for bit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct DemandTally {
    /// Flows tallied.
    pub flows: u64,
    /// Total demand offered by those flows.
    pub offered: f64,
    /// Demand that reached its destination (any path).
    pub delivered: f64,
    /// Demand of affected-and-still-connected flows (coverage
    /// denominator).
    pub evaluated: f64,
    /// Of [`DemandTally::evaluated`], the demand actually delivered
    /// (coverage numerator).
    pub evaluated_delivered: f64,
    /// Demand whose endpoints the scenario disconnected (lost, but
    /// excluded from coverage).
    pub disconnected: f64,
    /// Demand dropped although a survivor path existed (scheme
    /// failures: livelocks, TTL, …).
    pub dropped: f64,
    /// Sum of `demand × stretch` over delivered affected flows.
    pub stretch_weighted_sum: f64,
    /// Sum of `demand` over delivered affected flows (the denominator
    /// of the weighted mean stretch).
    pub stretch_weight: f64,
}

impl DemandTally {
    /// Records a flow delivered along its unaffected shortest path.
    pub fn record_clear(&mut self, demand: f64) {
        self.flows += 1;
        self.offered += demand;
        self.delivered += demand;
    }

    /// Records an affected-but-connected flow delivered over a detour
    /// with the given stretch.
    pub fn record_recovered(&mut self, demand: f64, stretch: f64) {
        self.flows += 1;
        self.offered += demand;
        self.delivered += demand;
        self.evaluated += demand;
        self.evaluated_delivered += demand;
        self.stretch_weighted_sum += demand * stretch;
        self.stretch_weight += demand;
    }

    /// Records a whole batch of clear flows from aggregated sums:
    /// `flows` flows carrying `demand` total, all delivered along
    /// unaffected shortest paths. Equal to `flows` calls of
    /// [`DemandTally::record_clear`] whenever the demand sums are
    /// exact (the grid-quantised demands of `pr-traffic`'s `FlowSet`
    /// guarantee this) — how the replay dataplane writes down its
    /// failure-free baseline, which the three `clear_to_*` moves below
    /// then correct flow by flow.
    pub fn record_clear_batch(&mut self, flows: u64, demand: f64) {
        self.flows += flows;
        self.offered += demand;
        self.delivered += demand;
    }

    /// Moves a flow recorded clear to *recovered with this stretch*:
    /// afterwards the tally is what [`DemandTally::record_recovered`]
    /// in place of the [`DemandTally::record_clear`] would have left
    /// (the flow is delivered either way).
    pub fn clear_to_recovered(&mut self, demand: f64, stretch: f64) {
        self.evaluated += demand;
        self.evaluated_delivered += demand;
        self.stretch_weighted_sum += demand * stretch;
        self.stretch_weight += demand;
    }

    /// Moves a flow recorded clear to *disconnected*. Exact under the
    /// contract of [`DemandTally::record_clear_batch`]: the
    /// subtraction undoes an exact addition.
    pub fn clear_to_disconnected(&mut self, demand: f64) {
        self.delivered -= demand;
        self.disconnected += demand;
    }

    /// Moves a flow recorded clear to *dropped*; exact like
    /// [`DemandTally::clear_to_disconnected`].
    pub fn clear_to_dropped(&mut self, demand: f64) {
        self.delivered -= demand;
        self.evaluated += demand;
        self.dropped += demand;
    }

    /// Records a flow whose endpoints the scenario disconnected.
    pub fn record_disconnected(&mut self, demand: f64) {
        self.flows += 1;
        self.offered += demand;
        self.disconnected += demand;
    }

    /// Records an affected, still-connected flow the scheme failed to
    /// deliver.
    pub fn record_dropped(&mut self, demand: f64) {
        self.flows += 1;
        self.offered += demand;
        self.evaluated += demand;
        self.dropped += demand;
    }

    /// Demand lost, all causes (disconnection + scheme drops).
    pub fn lost(&self) -> f64 {
        self.disconnected + self.dropped
    }

    /// Traffic-weighted coverage: delivered share of the evaluated
    /// (affected, still-connected) demand. 1.0 when nothing was
    /// evaluated, matching `CoverageCell::ratio`.
    pub fn weighted_coverage(&self) -> f64 {
        if self.evaluated == 0.0 {
            1.0
        } else {
            self.evaluated_delivered / self.evaluated
        }
    }

    /// Fraction of the offered demand that was lost (0.0 when nothing
    /// was offered).
    pub fn demand_lost_fraction(&self) -> f64 {
        if self.offered == 0.0 {
            0.0
        } else {
            self.lost() / self.offered
        }
    }

    /// Demand-weighted mean stretch over delivered affected flows
    /// (`None` when no affected flow delivered).
    pub fn mean_weighted_stretch(&self) -> Option<f64> {
        if self.stretch_weight == 0.0 {
            None
        } else {
            Some(self.stretch_weighted_sum / self.stretch_weight)
        }
    }

    /// Accumulates another tally (callers must absorb in a
    /// deterministic order for bit-identical float sums).
    pub fn absorb(&mut self, other: &DemandTally) {
        self.flows += other.flows;
        self.offered += other.offered;
        self.delivered += other.delivered;
        self.evaluated += other.evaluated;
        self.evaluated_delivered += other.evaluated_delivered;
        self.disconnected += other.disconnected;
        self.dropped += other.dropped;
        self.stretch_weighted_sum += other.stretch_weighted_sum;
        self.stretch_weight += other.stretch_weight;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting() {
        let mut m = Metrics { injected: 3, ..Default::default() };
        m.record_delivery(SimTime(100), SimTime(600), 3);
        m.record_delivery(SimTime(200), SimTime(400), 5);
        m.record_drop(SimDropReason::InterfaceDown);
        assert_eq!(m.delivered, 2);
        assert_eq!(m.total_dropped(), 1);
        assert!((m.delivery_ratio() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(m.mean_latency_ns(), Some(350.0));
        assert_eq!(m.latency_max_ns, 500);
        assert_eq!(m.mean_hops(), Some(4.0));
        assert_eq!(m.hops_max, 5);
    }

    #[test]
    fn empty_run_defaults() {
        let m = Metrics::default();
        assert_eq!(m.delivery_ratio(), 1.0);
        assert_eq!(m.mean_latency_ns(), None);
        assert_eq!(m.mean_hops(), None);
        assert_eq!(m.total_dropped(), 0);
    }

    #[test]
    fn drop_reasons_are_bucketed_by_name() {
        let mut m = Metrics::default();
        m.record_drop(SimDropReason::QueueOverflow);
        m.record_drop(SimDropReason::QueueOverflow);
        m.record_drop(SimDropReason::Agent(DropReason::NoRoute));
        assert_eq!(m.drops["egress queue overflow"], 2);
        assert_eq!(m.drops["agent: no route"], 1);
    }

    #[test]
    fn demand_tally_accounting() {
        let mut t = DemandTally::default();
        t.record_clear(2.0);
        t.record_recovered(1.0, 1.5);
        t.record_recovered(3.0, 2.0);
        t.record_disconnected(0.5);
        t.record_dropped(1.5);
        assert_eq!(t.flows, 5);
        assert_eq!(t.offered, 8.0);
        assert_eq!(t.delivered, 6.0);
        assert_eq!(t.evaluated, 5.5);
        assert_eq!(t.evaluated_delivered, 4.0);
        assert_eq!(t.lost(), 2.0);
        assert!((t.weighted_coverage() - 4.0 / 5.5).abs() < 1e-12);
        assert_eq!(t.demand_lost_fraction(), 0.25);
        assert_eq!(t.mean_weighted_stretch(), Some((1.5 + 6.0) / 4.0));
    }

    #[test]
    fn demand_tally_unit_demands_stay_integral() {
        // Under a unit matrix the accumulators are exact integers, so
        // the weighted ratio equals the unweighted count ratio bitwise.
        let mut t = DemandTally::default();
        for _ in 0..7 {
            t.record_recovered(1.0, 1.0);
        }
        for _ in 0..3 {
            t.record_dropped(1.0);
        }
        let (delivered, evaluated): (u64, u64) = (7, 10);
        assert_eq!(t.weighted_coverage(), delivered as f64 / evaluated as f64);
    }

    #[test]
    fn demand_tally_batch_constructors_match_per_flow_records() {
        // On exactly-summable demands (here: halves), an all-clear
        // batch corrected flow by flow is bitwise equal to recording
        // each flow's real outcome in the first place.
        let mut per_flow = DemandTally::default();
        per_flow.record_clear(1.5);
        per_flow.record_recovered(2.0, 1.25);
        per_flow.record_clear(0.5);
        per_flow.record_disconnected(1.0);
        per_flow.record_dropped(0.5);
        let mut batch = DemandTally::default();
        batch.record_clear_batch(5, 1.5 + 2.0 + 0.5 + 1.0 + 0.5);
        batch.clear_to_recovered(2.0, 1.25);
        batch.clear_to_disconnected(1.0);
        batch.clear_to_dropped(0.5);
        assert_eq!(batch, per_flow);
    }

    #[test]
    fn demand_tally_empty_defaults() {
        let t = DemandTally::default();
        assert_eq!(t.weighted_coverage(), 1.0);
        assert_eq!(t.demand_lost_fraction(), 0.0);
        assert_eq!(t.mean_weighted_stretch(), None);
        let mut sum = DemandTally::default();
        sum.absorb(&t);
        assert_eq!(sum, t);
    }
}
