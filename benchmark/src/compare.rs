//! `compare BASE.json CHANGE.json`: the bound and direction of every
//! end-to-end metric applied to two result files.
//!
//! One row per (workload, metric): both medians, each side's min–max,
//! and the ratio change/base. A side's values are the metric as
//! reported by each of its runs of the workload — or, when it has only
//! one run, the repetitions inside that run. A metric is *unresolved*
//! when either side's spread is wider than the bound, unless every
//! value of the change is better than every value of the base.

use std::collections::BTreeMap;

use crate::report::{EndToEndSpec, ResultFile, RunRecord, Spec};
use crate::stats::{median, min_max, spread};

/// How one (workload, metric) pair compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, spreads within the bound.
    Ok,
    /// Better than the base by more than the bound.
    Better,
    /// Worse than the base by more than the bound.
    Regression,
    /// A spread exceeds the bound; the medians decide nothing.
    Unresolved,
}

/// Applies `bound` and direction to two sets of values.
pub fn judge(base: &[f64], change: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let (b, c) = (median(base), median(change));
    // How much worse the change is, as a share of the base median.
    let worse = if higher_is_better { (b - c) / b } else { (c - b) / b };
    let wide = |v: &[f64]| spread(v).is_some_and(|s| s > bound);
    if wide(base) || wide(change) {
        let ((b_lo, b_hi), (c_lo, c_hi)) = (min_max(base), min_max(change));
        let all_better = if higher_is_better { c_lo > b_hi } else { c_hi < b_lo };
        if !all_better {
            return Verdict::Unresolved;
        }
    }
    if worse > bound {
        Verdict::Regression
    } else if worse < -bound {
        Verdict::Better
    } else {
        Verdict::Ok
    }
}

/// The values of `metric` on one side: one per run, or the single
/// run's repetitions.
fn values(runs: &[&RunRecord], metric: &str) -> Vec<f64> {
    match runs {
        [only] => match only.samples.get(metric) {
            Some(samples) if !samples.is_empty() => samples.clone(),
            _ => only.metrics.get(metric).map(|m| vec![m.value]).unwrap_or_default(),
        },
        many => many.iter().filter_map(|r| r.metrics.get(metric)).map(|m| m.value).collect(),
    }
}

fn by_workload(file: &ResultFile, traced: bool) -> BTreeMap<&str, Vec<&RunRecord>> {
    let mut map: BTreeMap<&str, Vec<&RunRecord>> = BTreeMap::new();
    for run in file.runs.iter().filter(|r| r.traced == traced) {
        map.entry(run.workload.as_str()).or_default().push(run);
    }
    map
}

/// One side of a row: `median [min..max] n=N spread S%`.
fn side(v: &[f64]) -> String {
    let (lo, hi) = min_max(v);
    let spread = spread(v).map_or("-".to_string(), |s| format!("{:.1}%", 100.0 * s));
    format!("{:.6} [{lo:.6}..{hi:.6}] n={} spread {spread}", median(v), v.len())
}

fn row(workload: &str, spec: &EndToEndSpec, base: &[f64], change: &[f64]) -> (String, Verdict) {
    let verdict = judge(base, change, spec.better == "higher", spec.bound);
    let line = format!(
        "{workload:<16} {:<12} {:<4} base {} | change {} | ratio {:.4} of base {:.6}, bound {:.0}%: \
         {verdict:?}",
        spec.name,
        spec.unit,
        side(base),
        side(change),
        median(change) / median(base),
        median(base),
        100.0 * spec.bound,
    );
    (line, verdict)
}

/// Compares two result files; returns the report and whether the
/// change passes (no regression, no higher error rate, no unresolved
/// metric, no changed output).
pub fn compare(spec: &Spec, base: &ResultFile, change: &ResultFile) -> (String, bool) {
    let mut out = String::new();
    let mut pass = true;
    let (b_runs, c_runs) = (by_workload(base, false), by_workload(change, false));
    for (workload, b) in &b_runs {
        let Some(c) = c_runs.get(workload) else {
            out.push_str(&format!("{workload:<16} missing from the change\n"));
            pass = false;
            continue;
        };
        for e in &spec.end_to_end {
            let (bv, cv) = (values(b, &e.name), values(c, &e.name));
            if bv.is_empty() || cv.is_empty() {
                out.push_str(&format!("{workload:<16} {:<12} not measured\n", e.name));
                pass = false;
                continue;
            }
            let (line, verdict) = row(workload, e, &bv, &cv);
            out.push_str(&line);
            out.push('\n');
            pass &= matches!(verdict, Verdict::Ok | Verdict::Better);
        }
        let rate = |runs: &[&RunRecord]| {
            let failed: u64 = runs.iter().map(|r| r.failed).sum();
            failed as f64 / runs.iter().map(|r| r.attempted).sum::<u64>().max(1) as f64
        };
        let (b_rate, c_rate) = (rate(b), rate(c));
        let verdict = if c_rate > b_rate { "HIGHER" } else { "Ok" };
        out.push_str(&format!(
            "{workload:<16} {:<12} ratio base {b_rate:.6} | change {c_rate:.6}: {verdict}\n",
            "error_rate"
        ));
        pass &= c_rate <= b_rate;
    }

    // Exact outputs of runs with the same inputs must not differ, and
    // exact counters should not (a changed counter is reported, not
    // failed: a later change may do less work on purpose).
    for b in &base.runs {
        let twin = change
            .runs
            .iter()
            .find(|c| c.workload == b.workload && c.traced == b.traced && c.seed == b.seed);
        let Some(c) = twin else { continue };
        for (name, value) in &b.outputs {
            if c.outputs.get(name) != Some(value) {
                out.push_str(&format!(
                    "{:<16} output {name} differs at seed {}: {value} vs {:?}\n",
                    b.workload,
                    b.seed,
                    c.outputs.get(name)
                ));
                pass = false;
            }
        }
        for (name, bm) in b.metrics.iter().filter(|(_, m)| m.unit == "count") {
            if let Some(cm) = c.metrics.get(name).filter(|cm| cm.value != bm.value) {
                out.push_str(&format!(
                    "{:<16} counter {name} changed at seed {}: {} -> {}\n",
                    b.workload, b.seed, bm.value, cm.value
                ));
            }
        }
    }
    (out, pass)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_and_direction_decide_the_verdict() {
        let base = [10.0, 10.1, 9.9, 10.0];
        // Lower is better, bound 10 %.
        assert_eq!(judge(&base, &[10.5, 10.6, 10.4, 10.5], false, 0.10), Verdict::Ok);
        assert_eq!(judge(&base, &[11.5, 11.6, 11.4, 11.5], false, 0.10), Verdict::Regression);
        assert_eq!(judge(&base, &[8.0, 8.1, 7.9, 8.0], false, 0.10), Verdict::Better);
        // Higher is better: the same numbers flip.
        assert_eq!(judge(&base, &[8.0, 8.1, 7.9, 8.0], true, 0.10), Verdict::Regression);
        assert_eq!(judge(&base, &[11.5, 11.6, 11.4, 11.5], true, 0.10), Verdict::Better);
        // Exactly on the bound is not beyond it.
        assert_eq!(judge(&[10.0], &[11.0], false, 0.10), Verdict::Ok);
    }

    #[test]
    fn a_wide_spread_is_unresolved_unless_every_run_is_better() {
        let noisy = [10.0, 13.0, 8.0, 11.0, 9.0, 12.0];
        assert_eq!(judge(&noisy, &[10.0, 10.0, 10.0, 10.0], false, 0.10), Verdict::Unresolved);
        assert_eq!(judge(&[10.0, 10.0, 10.0, 10.0], &noisy, false, 0.10), Verdict::Unresolved);
        // Every value of the change beats every value of the base.
        assert_eq!(judge(&noisy, &[5.0, 6.0, 7.0, 5.5], false, 0.10), Verdict::Better);
        // A single value has no spread and is judged on its median.
        assert_eq!(judge(&[10.0], &[10.5], false, 0.10), Verdict::Ok);
    }
}
