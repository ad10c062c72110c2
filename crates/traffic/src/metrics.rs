//! Demand-weighted run metrics: what happened to every unit of demand.

use serde::{Deserialize, Serialize};

/// Demand-weighted tally of flow outcomes — the flow-level analogue of
/// the packet simulator's `Metrics`.
///
/// Where `Metrics` counts packets, a `DemandTally` weighs each flow
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
    /// exact (the grid-quantised demands of a [`crate::FlowSet`]
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
