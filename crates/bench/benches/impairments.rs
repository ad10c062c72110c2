//! Impairment-layer micro-benchmarks, plus the decorator-overhead gate.
//!
//! **The gate** (runs even under `--test`, so CI's bench smoke step
//! enforces it): on Abilene with sweep-friendly outage timings, an
//! identity-configured (rate-0 Gilbert–Elliott) `Impaired` decorator
//! must replay the whole demand-weighted loss-over-time sweep within
//! 1.5x of the undecorated family. The decorator only rebuilds each
//! scenario's event timeline — the replay dominates — so the expected
//! ratio is ~1.0x; 1.5x is the hard ceiling against regressions in the
//! decorator path (event merging, seeding, label plumbing).

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use pr_bench::impair;
use pr_core::PrNetwork;
use pr_graph::Graph;
use pr_scenarios::{Impaired, ImpairmentProcess, OutageSweep};
use pr_testkit::fixtures::quick_outage;
use pr_testkit::nets::Net;
use pr_traffic::{FlowSet, GravityTraffic};

fn abilene() -> (Graph, PrNetwork, FlowSet) {
    let Net { g, pr: net, .. } = Net::abilene();
    let flows = FlowSet::all_pairs(&GravityTraffic::new(&g));
    (g, net, flows)
}

/// The decorator-overhead regression gate. Panics (failing the bench
/// run, `--test` smoke mode included) when a rate-0 `Impaired`
/// wrapper costs more than 1.5x the undecorated sweep it must be
/// bit-identical to.
///
/// Measurement discipline matches the walk gate: both sweeps are
/// timed **interleaved** and each takes its best (minimum) of 20
/// rounds, so shared-machine throttling hits both sides of the ratio
/// alike.
fn impair_overhead_gate() {
    let (g, net, flows) = abilene();
    let plain = OutageSweep::new(&g, quick_outage());
    let identity = Impaired::new(
        &g,
        OutageSweep::new(&g, quick_outage()),
        ImpairmentProcess::GilbertElliott { fail_rate_per_s: 0.0, mean_down_ns: 1 },
        pr_bench::EXPERIMENT_SEED,
    );

    // Warmup both paths; a rate-0 decorator that changes the rows
    // would make the timing comparison meaningless (and break the
    // identity contract the proptests pin).
    let plain_rows = impair::run(&g, &net, &plain, &flows, 1);
    let identity_rows = impair::run(&g, &net, &identity, &flows, 1);
    assert_eq!(plain_rows, identity_rows, "rate-0 decorator must be the identity");
    assert!(!plain_rows.is_empty(), "the gate needs a non-trivial sweep");

    let (mut plain_secs, mut decorated_secs) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..20 {
        let t = Instant::now();
        black_box(impair::run(&g, &net, &plain, &flows, 1));
        plain_secs = plain_secs.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        black_box(impair::run(&g, &net, &identity, &flows, 1));
        decorated_secs = decorated_secs.min(t.elapsed().as_secs_f64());
    }

    let ratio = decorated_secs / plain_secs;
    println!(
        "gate: abilene impair sweep decorated {:.2}ms, undecorated {:.2}ms, \
         ratio {ratio:.3}x (ceiling 1.5x, {} scenarios)",
        decorated_secs * 1e3,
        plain_secs * 1e3,
        plain_rows.len(),
    );
    assert!(
        ratio <= 1.5,
        "impairment gate: a rate-0 decorator must stay within 1.5x of the \
         undecorated sweep, got {ratio:.3}x"
    );
}

fn bench_impairments(c: &mut Criterion) {
    impair_overhead_gate();

    let (g, net, flows) = abilene();
    let plain = OutageSweep::new(&g, quick_outage());
    let gilbert = Impaired::new(
        &g,
        OutageSweep::new(&g, quick_outage()),
        ImpairmentProcess::GilbertElliott { fail_rate_per_s: 25.0, mean_down_ns: 8_000_000 },
        pr_bench::EXPERIMENT_SEED,
    );

    let mut group = c.benchmark_group("impair_sweep");
    group.bench_function(BenchmarkId::new("undecorated", "abilene"), |b| {
        b.iter(|| black_box(impair::run(&g, &net, &plain, &flows, 1)))
    });
    group.bench_function(BenchmarkId::new("gilbert_live", "abilene"), |b| {
        b.iter(|| black_box(impair::run(&g, &net, &gilbert, &flows, 1)))
    });
    group.finish();

    // Scenario generation alone — the decorator's own cost, without
    // the replay that dominates the sweep benches above.
    let mut gen = c.benchmark_group("impair_scenario_gen");
    gen.bench_function(BenchmarkId::new("gilbert", "abilene"), |b| {
        use pr_scenarios::TemporalFamily;
        b.iter(|| {
            let mut events = 0usize;
            for i in 0..gilbert.len() {
                events += black_box(gilbert.scenario(i)).events.len();
            }
            events
        })
    });
    gen.finish();
}

criterion_group!(benches, bench_impairments);
criterion_main!(benches);
