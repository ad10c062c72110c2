//! Demand-weighted run metrics: what happened to every unit of demand.

use serde::{Deserialize, Serialize};

/// Demand-weighted tally of flow outcomes — the flow-level analogue of
/// the timed pricer's `Metrics`.
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
    /// Records a whole batch of clear flows from aggregated sums:
    /// `flows` flows carrying `demand` total, all delivered along
    /// unaffected shortest paths. Equal to recording each flow alone
    /// whenever the demand sums are exact (the grid-quantised demands
    /// of a [`crate::FlowSet`] guarantee this) — how the replay
    /// dataplane writes down its failure-free baseline, which the
    /// three `clear_to_*` moves below then correct flow by flow.
    pub fn record_clear_batch(&mut self, flows: u64, demand: f64) {
        self.flows += flows;
        self.offered += demand;
        self.delivered += demand;
    }

    /// Moves a flow recorded clear to *recovered with this stretch*: an
    /// affected, still-connected flow delivered over a detour. It is
    /// delivered either way, so only the coverage and stretch sums
    /// move.
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

    /// One flow of `demand`, recorded clear and moved to `outcome`.
    fn record(t: &mut DemandTally, demand: f64, outcome: fn(&mut DemandTally, f64)) {
        t.record_clear_batch(1, demand);
        outcome(t, demand);
    }

    #[test]
    fn demand_tally_accounting() {
        let mut t = DemandTally::default();
        record(&mut t, 2.0, |_, _| {});
        record(&mut t, 1.0, |t, d| t.clear_to_recovered(d, 1.5));
        record(&mut t, 3.0, |t, d| t.clear_to_recovered(d, 2.0));
        record(&mut t, 0.5, DemandTally::clear_to_disconnected);
        record(&mut t, 1.5, DemandTally::clear_to_dropped);
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
            record(&mut t, 1.0, |t, d| t.clear_to_recovered(d, 1.0));
        }
        for _ in 0..3 {
            record(&mut t, 1.0, DemandTally::clear_to_dropped);
        }
        let (delivered, evaluated): (u64, u64) = (7, 10);
        assert_eq!(t.weighted_coverage(), delivered as f64 / evaluated as f64);
    }

    #[test]
    fn demand_tally_batch_constructors_match_per_flow_records() {
        // On exactly-summable demands (here: halves), an all-clear
        // batch corrected flow by flow is bitwise equal to each flow's
        // real outcome written down field by field: clear 1.5 and 0.5,
        // recovered 2.0 at stretch 1.25, disconnected 1.0, dropped 0.5.
        let per_flow = DemandTally {
            flows: 5,
            offered: 5.5,
            delivered: 1.5 + 2.0 + 0.5,
            evaluated: 2.0 + 0.5,
            evaluated_delivered: 2.0,
            disconnected: 1.0,
            dropped: 0.5,
            stretch_weighted_sum: 2.0 * 1.25,
            stretch_weight: 2.0,
        };
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
