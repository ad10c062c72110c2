//! What a run produces: the declared metrics (`BENCHMARK.json`), one
//! record per (workload, mode) run, and the result file they go into.

use std::collections::BTreeMap;
use std::path::Path;

use serde::{Deserialize, Serialize};

/// `BENCHMARK.json`, compiled in: the one place metric names, units,
/// directions and bounds are declared. The harness checks what it
/// emits against it and `compare` takes its bounds from it.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared workload.
#[derive(Debug, Clone, Deserialize)]
pub struct WorkloadSpec {
    /// Name, as passed to `--workload`.
    pub name: String,
}

/// One declared end-to-end metric.
#[derive(Debug, Clone, Deserialize)]
pub struct EndToEndSpec {
    /// Metric name.
    pub name: String,
    /// Unit printed next to every value.
    pub unit: String,
    /// `lower` or `higher`.
    pub better: String,
    /// Share of the base median by which the metric may get worse.
    pub bound: f64,
}

/// One declared per-layer metric.
#[derive(Debug, Clone, Deserialize)]
pub struct PerLayerSpec {
    /// Metric name, prefixed with the crate it measures.
    pub name: String,
    /// Unit printed next to every value.
    pub unit: String,
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug, Clone, Deserialize)]
pub struct Spec {
    /// Seconds one run measures for.
    pub run_seconds: u64,
    /// The workloads.
    pub workloads: Vec<WorkloadSpec>,
    /// Metrics a user of the system sees, with regression bounds.
    pub end_to_end: Vec<EndToEndSpec>,
    /// Metrics of single layers.
    pub per_layer: Vec<PerLayerSpec>,
}

impl Spec {
    /// Parses the compiled-in `BENCHMARK.json`.
    pub fn load() -> Result<Spec, String> {
        serde_json::from_str(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))
    }
}

/// One measured value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// The value, with all its digits.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

/// Operations attempted and failed during a run — the contract's
/// `attempted`/`failed` and the numerator and denominator of the error
/// rate. An operation is a CLI invocation, a daemon request or
/// lifecycle step, or a check of the program's output.
#[derive(Debug, Default)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Ops {
    /// Counts one operation; a failed one is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {}", what());
        }
        ok
    }
}

/// What one workload measured in one mode, before it is checked
/// against the declared metric set.
#[derive(Debug, Default)]
pub struct Measured {
    /// Metric name → value. Units come from `BENCHMARK.json`.
    pub values: BTreeMap<String, f64>,
    /// The repetitions behind each reported median.
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Exact outputs of the program (artefact hash, pair counts…):
    /// equal for equal seeds, on every machine and commit.
    pub outputs: BTreeMap<String, String>,
}

impl Measured {
    /// Records a metric reported as the median of `samples`.
    pub fn median_of(&mut self, name: &str, samples: Vec<f64>) {
        self.values.insert(name.to_string(), crate::stats::median(&samples));
        self.samples.insert(name.to_string(), samples);
    }

    /// Records a single-valued metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Records an exact program output.
    pub fn output(&mut self, name: &str, value: impl ToString) {
        self.outputs.insert(name.to_string(), value.to_string());
    }
}

/// One (workload, mode) run as it is stored in the result file.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// `false`: untraced, end-to-end metrics. `true`: traced, per-layer.
    pub traced: bool,
    /// The `--seed` the inputs were made from.
    pub seed: u64,
    /// The `--seconds` the run measured for.
    pub seconds: u64,
    /// Every output check passed and no operation failed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// The declared metrics of the mode, by name.
    pub metrics: BTreeMap<String, Metric>,
    /// The repetitions behind each median.
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Exact program outputs.
    pub outputs: BTreeMap<String, String>,
    /// Integer-hash spin before and after the run, in ms.
    pub calib_ms: Vec<f64>,
}

impl RunRecord {
    /// The line the benchmark contract wants last on stdout.
    pub fn contract_line(&self) -> String {
        #[derive(Serialize)]
        struct Line {
            correct: bool,
            attempted: u64,
            failed: u64,
            metrics: BTreeMap<String, Metric>,
        }
        serde_json::to_string(&Line {
            correct: self.correct,
            attempted: self.attempted,
            failed: self.failed,
            metrics: self.metrics.clone(),
        })
        .expect("run records serialize")
    }
}

/// Where and with what a result file was produced.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Env {
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_rev: String,
    /// `rustc -V`.
    pub rustc: String,
    /// Cores the harness may use.
    pub nproc: usize,
    /// `min(nproc, 4)`: the thread count of every `*_nt` measurement.
    pub threads_n: usize,
    /// Whether the small `--smoke` inputs were used.
    pub smoke: bool,
}

/// A result file: environment header plus run records.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResultFile {
    /// Environment of the (first) run.
    pub env: Env,
    /// One record per (workload, mode) run, in execution order.
    pub runs: Vec<RunRecord>,
}

impl ResultFile {
    /// Reads a result file.
    pub fn read(path: &Path) -> Result<ResultFile, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Writes the file (pretty-printed).
    pub fn write(&self, path: &Path) -> Result<(), String> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        let text = serde_json::to_string_pretty(self).map_err(|e| format!("render result: {e}"))?;
        std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
    }
}

/// Checks what a workload measured against the metrics `spec` declares
/// for the mode and returns them with their units: every declared
/// metric must be present (a per-layer metric the workload does not
/// exercise reads 0), nothing undeclared may be, and every value must
/// be a finite number. Each check is an operation in `ops`.
pub fn declared_metrics(
    spec: &Spec,
    workload: &str,
    traced: bool,
    measured: &Measured,
    ops: &mut Ops,
) -> BTreeMap<String, Metric> {
    let declared: Vec<(&str, &str)> = if traced {
        spec.per_layer.iter().map(|m| (m.name.as_str(), m.unit.as_str())).collect()
    } else {
        spec.end_to_end.iter().map(|m| (m.name.as_str(), m.unit.as_str())).collect()
    };
    let mut metrics = BTreeMap::new();
    for (name, unit) in &declared {
        let value = match measured.values.get(*name) {
            Some(v) => *v,
            // A layer this workload bypasses did no work.
            None if traced => 0.0,
            None => f64::NAN,
        };
        let usable = value.is_finite() && (traced || value != 0.0);
        ops.check(usable, || format!("{workload}: metric {name} was not measured ({value})"));
        let value = if value.is_finite() { value } else { 0.0 };
        metrics.insert(name.to_string(), Metric { value, unit: unit.to_string() });
    }
    for name in measured.values.keys() {
        let known = declared.iter().any(|(n, _)| n == name);
        ops.check(known, || format!("{workload}: metric {name} is not declared in BENCHMARK.json"));
    }
    metrics
}

/// 64-bit FNV-1a of `bytes`, as 16 hex digits: the artefact
/// fingerprint recorded in `outputs`.
pub fn fnv64_hex(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_parses_and_names_are_unique() {
        let spec = Spec::load().expect("BENCHMARK.json parses");
        assert_eq!(spec.workloads.len(), 4);
        assert!(spec.end_to_end.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
        let mut names: Vec<&str> = spec
            .end_to_end
            .iter()
            .map(|m| m.name.as_str())
            .chain(spec.per_layer.iter().map(|m| m.name.as_str()))
            .chain(spec.workloads.iter().map(|w| w.name.as_str()))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for m in &spec.end_to_end {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}: bound {}", m.name, m.bound);
            assert!(m.better == "lower" || m.better == "higher");
        }
    }

    #[test]
    fn fnv64_matches_the_reference_vectors() {
        assert_eq!(fnv64_hex(b""), "cbf29ce484222325");
        assert_eq!(fnv64_hex(b"a"), "af63dc4c8601ec8c");
    }

    #[test]
    fn declared_metrics_flags_missing_and_undeclared_ones() {
        let spec = Spec::load().expect("BENCHMARK.json parses");
        let mut m = Measured::default();
        for e in &spec.end_to_end {
            m.set(&e.name, 1.5);
        }
        let mut ops = Ops::default();
        let metrics = declared_metrics(&spec, "w", false, &m, &mut ops);
        assert_eq!((ops.failed, metrics.len()), (0, spec.end_to_end.len()));

        let mut m = Measured::default();
        m.set("not_a_metric", 1.0);
        let mut ops = Ops::default();
        declared_metrics(&spec, "w", false, &m, &mut ops);
        assert_eq!(ops.failed as usize, spec.end_to_end.len() + 1);

        // Traced: a bypassed layer reads 0 and that is not a failure.
        let mut ops = Ops::default();
        let metrics = declared_metrics(&spec, "w", true, &Measured::default(), &mut ops);
        assert_eq!(ops.failed, 0);
        assert!(metrics.values().all(|m| m.value == 0.0));
    }
}
