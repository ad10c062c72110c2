//! Timed metrics sampling: demand tallies as piecewise-constant
//! functions of time.
//!
//! A static replay answers *"how much demand is lost under this failed
//! set"*; an impaired timeline asks the LINC question instead — *"how
//! much demand is lost **when**, as links fail, get detected, and come
//! back"*. A [`TallySeries`] samples one [`DemandTally`] per interval
//! between timeline event boundaries; every sample also records
//! whether, at that instant, PR's local detection has caught up with
//! the most recent failure and whether a reconverging IGP has, so one
//! replay per interval prices **both** schemes' loss-over-time curves:
//!
//! * before detection, traffic keeps being forwarded into dead
//!   interfaces: every affected flow's demand is lost (`evaluated +
//!   disconnected` — the §1 blackhole window);
//! * after detection, PR delivers what its cycles recover (lost =
//!   `dropped + disconnected`);
//! * after convergence, an IGP delivers everything still connected
//!   (lost = `disconnected`).
//!
//! All derived integrals fold the samples in timeline order with the
//! exact per-interval tallies, so a series is bit-identical however
//! many threads produced the rows around it.

use serde::Serialize;

use crate::metrics::DemandTally;

/// One sampled interval of an impaired timeline: the demand tally of
/// the failed set in force over `[from_ns, to_ns)`, plus the two
/// scheme clocks (detection, convergence) at `from_ns`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TallySample {
    /// Interval start (ns).
    pub from_ns: u64,
    /// Interval end (ns, exclusive).
    pub to_ns: u64,
    /// Links actually down throughout the interval.
    pub links_down: u32,
    /// `true` once PR's local detection covers every link down at
    /// `from_ns` (detection delay elapsed since the last failure).
    pub pr_detected: bool,
    /// `true` once a reconverging IGP's survivor tables cover every
    /// link down at `from_ns` (convergence lag elapsed).
    pub igp_converged: bool,
    /// The replay tally of the interval's failed set.
    pub tally: DemandTally,
}

impl TallySample {
    /// Interval length in ns.
    pub fn duration_ns(&self) -> u64 {
        self.to_ns.saturating_sub(self.from_ns)
    }

    /// Demand lost per unit time under PR during this interval:
    /// everything affected while undetected (blackhole window), the
    /// scheme's own drops plus disconnections afterwards.
    pub fn pr_lost(&self) -> f64 {
        if self.pr_detected {
            self.tally.dropped + self.tally.disconnected
        } else {
            self.tally.evaluated + self.tally.disconnected
        }
    }

    /// Demand lost per unit time under a reconverging IGP: everything
    /// affected until convergence, only true disconnections after
    /// (shortest-path recomputation delivers all connected demand).
    pub fn igp_lost(&self) -> f64 {
        if self.igp_converged {
            self.tally.disconnected
        } else {
            self.tally.evaluated + self.tally.disconnected
        }
    }

    /// PR's lost fraction of offered demand over this interval.
    pub fn pr_lost_fraction(&self) -> f64 {
        if self.tally.offered == 0.0 {
            0.0
        } else {
            self.pr_lost() / self.tally.offered
        }
    }

    /// The IGP's lost fraction of offered demand over this interval.
    pub fn igp_lost_fraction(&self) -> f64 {
        if self.tally.offered == 0.0 {
            0.0
        } else {
            self.igp_lost() / self.tally.offered
        }
    }
}

/// A loss-over-time curve: consecutive [`TallySample`]s partitioning
/// one scenario's demand-active window, with time-integral accessors.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct TallySeries {
    /// The samples, in timeline order (contiguous, non-overlapping).
    pub samples: Vec<TallySample>,
}

impl TallySeries {
    /// Total sampled time in seconds.
    pub fn duration_s(&self) -> f64 {
        self.samples.iter().map(|s| s.duration_ns() as f64 * 1e-9).sum()
    }

    /// `∫ offered dt` — demand-seconds offered over the window.
    pub fn offered_demand_seconds(&self) -> f64 {
        self.samples.iter().map(|s| s.tally.offered * (s.duration_ns() as f64 * 1e-9)).sum()
    }

    /// `∫ lost_PR dt` — demand-seconds PR loses over the window.
    pub fn pr_demand_seconds_lost(&self) -> f64 {
        self.samples.iter().map(|s| s.pr_lost() * (s.duration_ns() as f64 * 1e-9)).sum()
    }

    /// `∫ lost_IGP dt` — demand-seconds a reconverging IGP loses.
    pub fn igp_demand_seconds_lost(&self) -> f64 {
        self.samples.iter().map(|s| s.igp_lost() * (s.duration_ns() as f64 * 1e-9)).sum()
    }

    /// Time-weighted mean of PR's lost fraction (0.0 on an empty
    /// window).
    pub fn pr_loss_over_time(&self) -> f64 {
        let offered = self.offered_demand_seconds();
        if offered == 0.0 {
            0.0
        } else {
            self.pr_demand_seconds_lost() / offered
        }
    }

    /// Time-weighted mean of the IGP's lost fraction.
    pub fn igp_loss_over_time(&self) -> f64 {
        let offered = self.offered_demand_seconds();
        if offered == 0.0 {
            0.0
        } else {
            self.igp_demand_seconds_lost() / offered
        }
    }

    /// The worst instantaneous PR loss fraction across samples.
    pub fn peak_pr_loss_fraction(&self) -> f64 {
        self.samples.iter().map(|s| s.pr_lost_fraction()).fold(0.0, f64::max)
    }

    /// Time-weighted demand-weighted mean stretch of delivered affected
    /// demand (`None` when no interval delivered affected demand) —
    /// the stretch-over-time curve's integral.
    pub fn mean_weighted_stretch_over_time(&self) -> Option<f64> {
        let (mut num, mut den) = (0.0, 0.0);
        for s in &self.samples {
            let dt = s.duration_ns() as f64 * 1e-9;
            num += s.tally.stretch_weighted_sum * dt;
            den += s.tally.stretch_weight * dt;
        }
        if den == 0.0 {
            None
        } else {
            Some(num / den)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tally(offered: f64, evaluated: f64, delivered_of_evaluated: f64) -> DemandTally {
        DemandTally {
            flows: 4,
            offered,
            delivered: offered - (evaluated - delivered_of_evaluated),
            evaluated,
            evaluated_delivered: delivered_of_evaluated,
            dropped: evaluated - delivered_of_evaluated,
            stretch_weighted_sum: delivered_of_evaluated * 1.5,
            stretch_weight: delivered_of_evaluated,
            ..Default::default()
        }
    }

    #[test]
    fn scheme_clocks_split_the_same_tally() {
        let t = tally(10.0, 4.0, 3.0);
        let undetected = TallySample {
            from_ns: 0,
            to_ns: 1_000_000,
            links_down: 1,
            pr_detected: false,
            igp_converged: false,
            tally: t,
        };
        // Blackhole window: all affected demand is lost, both schemes.
        assert_eq!(undetected.pr_lost(), 4.0);
        assert_eq!(undetected.igp_lost(), 4.0);
        let detected = TallySample { pr_detected: true, ..undetected.clone() };
        // After detection PR loses only what its cycles cannot recover.
        assert_eq!(detected.pr_lost(), 1.0);
        assert_eq!(detected.igp_lost(), 4.0, "the IGP is still reconverging");
        let converged = TallySample { igp_converged: true, ..detected.clone() };
        assert_eq!(converged.igp_lost(), 0.0, "nothing disconnected here");
        assert_eq!(converged.pr_lost_fraction(), 0.1);
    }

    #[test]
    fn integrals_weight_by_interval_duration() {
        let clean = TallySample {
            from_ns: 0,
            to_ns: 900_000_000,
            links_down: 0,
            pr_detected: true,
            igp_converged: true,
            tally: tally(10.0, 0.0, 0.0),
        };
        let broken = TallySample {
            from_ns: 900_000_000,
            to_ns: 1_000_000_000,
            links_down: 1,
            pr_detected: false,
            igp_converged: false,
            tally: tally(10.0, 5.0, 4.0),
        };
        let series = TallySeries { samples: vec![clean, broken] };
        assert!((series.duration_s() - 1.0).abs() < 1e-12);
        assert!((series.offered_demand_seconds() - 10.0).abs() < 1e-12);
        // 5 units lost for 0.1s.
        assert!((series.pr_demand_seconds_lost() - 0.5).abs() < 1e-12);
        assert!((series.pr_loss_over_time() - 0.05).abs() < 1e-12);
        assert_eq!(series.peak_pr_loss_fraction(), 0.5);
        // Only the broken interval carries stretch weight.
        let stretch = series.mean_weighted_stretch_over_time().unwrap();
        assert!((stretch - 1.5).abs() < 1e-12, "{stretch}");
    }

    #[test]
    fn empty_series_defaults() {
        let s = TallySeries::default();
        assert_eq!(s.pr_loss_over_time(), 0.0);
        assert_eq!(s.igp_loss_over_time(), 0.0);
        assert_eq!(s.peak_pr_loss_fraction(), 0.0);
        assert_eq!(s.mean_weighted_stretch_over_time(), None);
    }
}
