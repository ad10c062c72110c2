//! `pr-benchmark` — the benchmark of the Packet Re-cycling workspace.
//!
//! ```text
//! pr-benchmark run [--workload NAME] [--seed N] [--seconds N] [--trace 0|1]
//!                  [--smoke] [--out FILE] [--append]
//! pr-benchmark compare BASE.json CHANGE.json
//! ```
//!
//! `run` measures the selected workload (all four when none is named):
//! untraced for the end-to-end metrics (`--trace 0`), traced for the
//! per-layer ones (`--trace 1`), both in that order when `--trace` is
//! absent. Every metric is printed as `workload name value unit`, each
//! run's last line is the JSON object of the benchmark contract, and
//! the records go to the result file. See `README.md`.

mod batch;
mod compare;
mod daemon;
mod proc;
mod report;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use batch::{Batch, Kind};
use daemon::DaemonWorkload;
use proc::Paths;
use report::{declared_metrics, Env, Measured, Ops, ResultFile, RunRecord, Spec};
use trace::Tracer;

const USAGE: &str = "\
usage: pr-benchmark run [--workload NAME] [--seed N] [--seconds N] [--trace 0|1]
                        [--smoke] [--out FILE] [--append]
       pr-benchmark compare BASE.json CHANGE.json";

/// Options of `run`.
#[derive(Debug)]
struct RunOptions {
    workload: Option<String>,
    seed: u64,
    seconds: Option<u64>,
    trace: Option<bool>,
    smoke: bool,
    out: Option<PathBuf>,
    append: bool,
}

fn parse_run(args: &[String]) -> Result<RunOptions, String> {
    let mut o = RunOptions {
        workload: None,
        seed: 2010,
        seconds: None,
        trace: None,
        smoke: false,
        out: None,
        append: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("option {arg} needs a value"));
        let number = |text: &String| {
            text.parse::<u64>().map_err(|_| format!("{arg} wants a whole number, got {text:?}"))
        };
        match arg.as_str() {
            "--workload" => o.workload = Some(value()?.clone()),
            "--seed" => o.seed = number(value()?)?,
            "--seconds" => o.seconds = Some(number(value()?)?.max(1)),
            "--trace" => {
                o.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
                })
            }
            "--out" => o.out = Some(PathBuf::from(value()?)),
            "--smoke" => o.smoke = true,
            "--append" => o.append = true,
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(o)
}

/// A fixed integer-hash spin, timed: the same work before and after
/// every run, so a throttled machine shows up as a number.
fn calibrate() -> f64 {
    let t = Instant::now();
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for i in 0..40_000_000u64 {
        x = (x ^ i).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29);
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

/// A workload on the inputs `--seed` and `--smoke` select.
enum Workload {
    Batch(Batch),
    Daemon(DaemonWorkload),
}

/// The four workloads. The smoke inputs exercise the same code on
/// topologies small enough for a test run.
fn workload(name: &str, seed: u64, smoke: bool) -> Option<Workload> {
    let isp = if smoke { format!("synth:isp:24:{seed}") } else { format!("synth:isp:500:{seed}") };
    let shipped = if smoke { "abilene" } else { "geant" }.to_string();
    Some(match name {
        "sweep-isp500" => Workload::Batch(Batch { kind: Kind::Sweep, topology: isp, seed }),
        "traffic-isp500" => Workload::Batch(Batch { kind: Kind::Traffic, topology: isp, seed }),
        "impair-geant" => Workload::Batch(Batch { kind: Kind::Impair, topology: shipped, seed }),
        "daemon-geant" => Workload::Daemon(DaemonWorkload {
            topology: shipped,
            seed,
            traced_passes: if smoke { 3 } else { 42 },
        }),
        _ => return None,
    })
}

/// Outputs that were recorded at seed 2010 on the full inputs
/// (`pins.json`): a run at that seed must reproduce them exactly.
fn check_pins(name: &str, measured: &Measured, ops: &mut Ops) -> Result<(), String> {
    use std::collections::BTreeMap;
    type Pins = BTreeMap<String, BTreeMap<String, String>>;
    let pins: Pins = serde_json::from_str(include_str!("../pins.json"))
        .map_err(|e| format!("pins.json: {e}"))?;
    for (output, want) in pins.get(name).into_iter().flatten() {
        if let Some(got) = measured.outputs.get(output) {
            ops.check(got == want, || {
                format!("{name}: output {output} is {got}, pinned at seed 2010 as {want}")
            });
        }
    }
    Ok(())
}

/// Runs one workload in one mode and prints its metrics.
fn run_one(
    spec: &Spec,
    paths: &Paths,
    env: &Env,
    name: &str,
    opts: &RunOptions,
    traced: bool,
) -> Result<RunRecord, String> {
    let seconds = opts.seconds.unwrap_or(if opts.smoke { 1 } else { spec.run_seconds });
    let work = workload(name, opts.seed, opts.smoke)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let mut ops = Ops::default();
    let mut tracer = Tracer::new(traced);
    let calib_before = calibrate();
    let secs = seconds as f64;
    let n = env.threads_n;
    let mut measured = match (&work, traced) {
        (Workload::Batch(b), false) => b.run_end_to_end(paths, n, secs, &mut ops)?,
        (Workload::Batch(b), true) => b.run_traced(paths, n, &mut tracer, &mut ops)?,
        (Workload::Daemon(d), false) => d.run_end_to_end(paths, n, secs, &mut ops)?,
        (Workload::Daemon(d), true) => d.run_traced(paths, n, secs, &mut tracer, &mut ops)?,
    };
    let calib_after = calibrate();
    if (calib_after - calib_before).abs() > 0.05 * calib_before {
        eprintln!(
            "warning: {name}: calibration spin moved from {calib_before:.1} ms to \
             {calib_after:.1} ms during the run; the machine was not steady"
        );
    }
    if traced {
        measured.set("bench.calib_ms", (calib_before + calib_after) / 2.0);
        tracer.write_json(&paths.out.join(format!("{name}.trace.json")), name)?;
    }
    if opts.seed == 2010 && !opts.smoke {
        check_pins(name, &measured, &mut ops)?;
    }
    let metrics = declared_metrics(spec, name, traced, &measured, &mut ops);
    let record = RunRecord {
        workload: name.to_string(),
        traced,
        seed: opts.seed,
        seconds,
        correct: ops.failed == 0,
        attempted: ops.attempted,
        failed: ops.failed,
        metrics,
        samples: measured.samples,
        outputs: measured.outputs,
        calib_ms: vec![calib_before, calib_after],
    };
    for (metric, m) in &record.metrics {
        let n = record.samples.get(metric).map_or(String::new(), |s| format!(" (n={})", s.len()));
        println!("{name} {metric} {} {}{n}", m.value, m.unit);
    }
    println!(
        "{name} error_rate {} ratio ({} failed of {} attempted)",
        record.failed as f64 / record.attempted.max(1) as f64,
        record.failed,
        record.attempted
    );
    println!("{}", record.contract_line());
    Ok(record)
}

fn command_output(program: &str, args: &[&str], dir: &std::path::Path) -> Option<String> {
    let out = std::process::Command::new(program).args(args).current_dir(dir).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn run(args: &[String]) -> Result<bool, String> {
    let opts = parse_run(args)?;
    let spec = Spec::load()?;
    let names: Vec<String> = match &opts.workload {
        Some(name) => vec![name.clone()],
        None => spec.workloads.iter().map(|w| w.name.clone()).collect(),
    };
    let paths = Paths::prepare()?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let env = Env {
        git_rev: command_output("git", &["rev-parse", "HEAD"], &paths.root)
            .unwrap_or_else(|| "unknown".to_string()),
        rustc: command_output("rustc", &["-V"], &paths.root)
            .unwrap_or_else(|| "unknown".to_string()),
        nproc,
        threads_n: nproc.min(4),
        smoke: opts.smoke,
    };
    let modes: &[bool] = match opts.trace {
        Some(false) => &[false],
        Some(true) => &[true],
        None => &[false, true],
    };
    let out = opts.out.clone().unwrap_or_else(|| paths.out.join("result.json"));
    let mut file = match opts.append && out.is_file() {
        true => ResultFile::read(&out)?,
        false => ResultFile { env, runs: Vec::new() },
    };
    let mut correct = true;
    for name in &names {
        for &traced in modes {
            let record = run_one(&spec, &paths, &file.env, name, &opts, traced)?;
            correct &= record.correct;
            file.runs.push(record);
            // Written after every run, so a later failure loses nothing.
            file.write(&out)?;
        }
    }
    Ok(correct)
}

fn compare_files(args: &[String]) -> Result<bool, String> {
    let [base, change] = args else {
        return Err("compare wants exactly two result files".to_string());
    };
    let spec = Spec::load()?;
    let base = ResultFile::read(std::path::Path::new(base))?;
    let change = ResultFile::read(std::path::Path::new(change))?;
    let (report, pass) = compare::compare(&spec, &base, &change);
    print!("{report}");
    println!("{}", if pass { "PASS" } else { "FAIL" });
    Ok(pass)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run(rest),
        Some((cmd, rest)) if cmd == "compare" => compare_files(rest),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn run_options_parse_the_contract_command_line() {
        let o = parse_run(&args("--workload impair-geant --seed 7 --seconds 24 --trace 1"))
            .expect("the driver's arguments parse");
        assert_eq!(o.workload.as_deref(), Some("impair-geant"));
        assert_eq!((o.seed, o.seconds, o.trace), (7, Some(24), Some(true)));
        assert!(!o.smoke && !o.append && o.out.is_none());
        assert!(parse_run(&args("--trace 2")).is_err());
        assert!(parse_run(&args("--seed")).is_err(), "missing value");
        assert!(parse_run(&args("--seed x")).is_err());
        assert!(parse_run(&args("--bogus")).is_err());
    }

    #[test]
    fn every_declared_workload_has_full_and_smoke_inputs() {
        let spec = Spec::load().expect("BENCHMARK.json parses");
        for w in &spec.workloads {
            assert!(workload(&w.name, 1, false).is_some(), "{}", w.name);
            assert!(workload(&w.name, 1, true).is_some(), "{}", w.name);
        }
        assert!(workload("no-such-workload", 1, false).is_none());
    }

    /// The four workloads, untraced and traced, on the smoke inputs:
    /// builds and spawns the real `pr-cli`, daemon included.
    #[test]
    fn smoke_run_is_correct_and_compares_with_itself() {
        let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out/self-test.json");
        let run_args = ["--smoke".to_string(), "--out".to_string(), out.display().to_string()];
        assert_eq!(run(&run_args), Ok(true));
        let file = ResultFile::read(&out).expect("result file was written");
        assert_eq!(file.runs.len(), 8, "four workloads, two modes");
        assert!(file.env.smoke && file.runs.iter().all(|r| r.correct));
        let spec = Spec::load().expect("BENCHMARK.json parses");
        let (report, _) = compare::compare(&spec, &file, &file);
        // One row per (workload, end-to-end metric), plus error_rate.
        assert_eq!(report.lines().count(), 4 * (spec.end_to_end.len() + 1), "{report}");
        assert!(!report.contains("differs") && !report.contains("changed"), "{report}");
    }
}
