//! Golden-file pin of the loss-over-time CSV: the artefact `pr impair`
//! writes is a published interface — plotting scripts key on its
//! header and row shape, and the determinism story promises that a
//! fixed-seed run renders the identical bytes forever. This test pins
//! the header, the first data row of a fixed-seed abilene run, and the
//! shape of every row; a change to any of them is a breaking change to
//! the artefact format and must be made consciously.

use pr_scenarios::{Impaired, ImpairmentProcess, OutageSweep};
use pr_testkit::fixtures::quick_outage;
use pr_testkit::nets::Net;
use pr_traffic::{FlowSet, GravityTraffic};

const HEADER: &str = "scenario,label,from_ms,to_ms,links_down,offered,pr_lost,igp_lost,\
                      pr_loss_fraction,igp_loss_fraction,weighted_coverage,mean_stretch";

fn fixed_seed_rows() -> Vec<pr_bench::impair::ImpairRow> {
    let Net { g, pr, .. } = Net::abilene();
    let family = Impaired::new(
        &g,
        OutageSweep::new(&g, quick_outage()),
        ImpairmentProcess::GilbertElliott { fail_rate_per_s: 25.0, mean_down_ns: 8_000_000 },
        2010,
    );
    let flows = FlowSet::all_pairs(&GravityTraffic::new(&g));
    pr_bench::impair::run(&g, &pr, &family, &flows, 2)
}

#[test]
fn loss_over_time_csv_header_and_shape_are_pinned() {
    let csv = pr_bench::impair::rows_csv(&fixed_seed_rows());
    let mut lines = csv.lines();
    assert_eq!(lines.next(), Some(HEADER), "the CSV header is a published interface");

    let first = lines.next().expect("a fixed-seed abilene run has sampled intervals");
    assert_eq!(
        first, "0,outage:Seattle-Sunnyvale+gilbert,0.000,0.825,0,110.000000,0.000000,0.000000,0.000000,0.000000,1.000000,1.000000",
        "first data row of the fixed-seed run is pinned byte for byte"
    );

    let mut rows = 1usize;
    for line in csv.lines().skip(1) {
        let fields: Vec<&str> = line.split(',').collect();
        assert_eq!(fields.len(), 12, "12 fields per row: {line}");
        fields[0].parse::<usize>().expect("scenario index");
        assert!(fields[1].contains("+gilbert"), "decorated label: {line}");
        let from: f64 = fields[2].parse().expect("from_ms");
        let to: f64 = fields[3].parse().expect("to_ms");
        // Intervals are strictly positive in ns but can collapse to
        // the same 3-decimal ms rendering.
        assert!(to >= from, "ordered interval: {line}");
        fields[4].parse::<u32>().expect("links_down");
        for f in &fields[5..] {
            let v: f64 = f.parse().expect("numeric metric");
            assert!(v.is_finite() && v >= 0.0, "finite non-negative metric: {line}");
        }
        rows += 1;
    }
    assert!(rows > 14, "more than one interval per scenario: {rows}");
}
