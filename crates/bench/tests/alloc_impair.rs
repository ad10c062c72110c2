//! The streamed impairment front door's memory bound, as a gate.
//!
//! `pr impair` takes each row at the engine's ordered sink, folds it
//! into the summary, renders it into the artefact and drops it
//! (DESIGN.md §8). So its peak sits below the collecting `run`'s by at
//! least the `TallySample`s `run` returns: one per sampled interval of
//! every timeline, which is what grows with the sweep.
//!
//! The byte gauge is process-wide, and a harness thread that starts or
//! ends while it measures adds to it. So this binary holds one test.

use std::mem::size_of;

use pr_bench::artefact::{Format, RowWriter};
use pr_bench::impair::{self, ImpairSummary};
use pr_scenarios::{Impaired, ImpairmentProcess, OutageParams, OutageSweep};
use pr_testkit::alloc::{peak_during, Counting};
use pr_testkit::nets::Net;
use pr_traffic::{FlowSet, GravityTraffic, TallySample};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn a_streamed_impair_run_holds_the_blocks_in_flight_not_the_rows() {
    // `pr impair geant --process gilbert --rate 5 --seed 2010`: the
    // CLI's default 20 ms burst.
    let Net { g, pr: net, .. } = Net::geant();
    let flows = FlowSet::all_pairs(&GravityTraffic::new(&g));
    let process =
        ImpairmentProcess::GilbertElliott { fail_rate_per_s: 5.0, mean_down_ns: 20_000_000 };
    let family = Impaired::new(&g, OutageSweep::new(&g, OutageParams::default()), process, 2010);
    let streamed = |threads| {
        peak_during(|| {
            let mut summary = ImpairSummary::default();
            let mut csv = RowWriter::new(std::io::sink(), Format::Csv);
            impair::stream(&g, &net, &family, &flows, threads, |row| {
                summary.add(&row);
                csv.row(&row);
            });
            csv.finish().expect("the sink takes every byte");
            summary
        })
    };

    let (rows, collected) = peak_during(|| impair::run(&g, &net, &family, &flows, 1));
    let intervals: usize = rows.iter().map(|row| row.traffic.series.samples.len()).sum();
    let samples = intervals * size_of::<TallySample>();
    assert!(samples > 1 << 20, "the sweep must be big enough to tell: {samples} B");
    let expected = impair::summarize(&rows);
    drop(rows);

    // One thread: both peaks are deterministic.
    let (summary, peak) = streamed(1);
    assert_eq!((summary.scenarios, summary.events), (expected.scenarios, expected.events));
    assert_eq!(summary.pr_demand_seconds_lost, expected.pr_demand_seconds_lost);
    assert!(
        peak + samples <= collected,
        "1 thread: the streamed run peaked at {peak} B, run at {collected} B \
         for {samples} B of samples"
    );

    // Two threads add what the workers have run ahead of the merge; no
    // schedule pins that down, so the bound is loose: below the
    // collecting run's own peak.
    let (summary, peak) = streamed(2);
    assert_eq!(summary.events, expected.events);
    assert!(
        peak < collected,
        "2 threads: the streamed run peaked at {peak} B, run at {collected} B at one thread"
    );
}
