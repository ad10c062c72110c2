//! The streamed row artefacts are the collected ones, byte for byte.
//!
//! `pr traffic` and `pr impair` render each row at the engine's sink
//! ([`RowWriter`]) and never hold the list. What they write must be
//! what rendering the collected rows gives — `rows_csv(&run(..))`, and
//! `serde_json::to_string_pretty(&run(..))` for JSON — at any thread
//! count. And the file under `results/` is [`Artefact`]'s: an
//! unfinished one leaves nothing behind.

use std::io::Write;

use pr_bench::artefact::{self, Artefact, CsvRow, Format, RowWriter};
use pr_bench::{impair, traffic};
use pr_scenarios::{Impaired, ImpairmentProcess, OutageParams, OutageSweep, SingleLinkFailures};
use pr_testkit::nets::Net;
use pr_traffic::{FlowSet, GravityTraffic};

/// Streams one sweep into a CSV and a JSON writer at once, and returns
/// both artefacts.
fn streamed<R: CsvRow>(stream: impl FnOnce(&mut dyn FnMut(R))) -> (String, String) {
    let mut csv = RowWriter::new(Vec::new(), Format::Csv);
    let mut json = RowWriter::new(Vec::new(), Format::Json);
    stream(&mut |row: R| {
        csv.row(&row);
        json.row(&row);
    });
    let text = |writer: RowWriter<Vec<u8>, R>| {
        String::from_utf8(writer.finish().expect("a Vec takes every byte")).expect("UTF-8")
    };
    (text(csv), text(json))
}

#[test]
fn streamed_impair_and_traffic_artefacts_equal_the_collected_ones() {
    let Net { g, pr, .. } = Net::geant();
    let flows = FlowSet::all_pairs(&GravityTraffic::new(&g));
    let process =
        ImpairmentProcess::GilbertElliott { fail_rate_per_s: 5.0, mean_down_ns: 20_000_000 };
    let timelines = Impaired::new(&g, OutageSweep::new(&g, OutageParams::default()), process, 2010);
    let singles = SingleLinkFailures::new(&g);

    let rows = impair::run(&g, &pr, &timelines, &flows, 1);
    let impair_csv = impair::rows_csv(&rows);
    let impair_json = serde_json::to_string_pretty(&rows).expect("serializable rows");
    assert!(impair_csv.lines().count() > rows.len() + 1, "one line per sampled interval");
    let rows = traffic::run(&g, &pr, &singles, &flows, 1);
    let traffic_csv = traffic::rows_csv(&rows);
    let traffic_json = serde_json::to_string_pretty(&rows).expect("serializable rows");
    assert_eq!(traffic_csv.lines().count(), rows.len() + 1, "one line per scenario");

    for threads in [1, 2, 4] {
        let (csv, json) = streamed(|sink| {
            impair::stream(&g, &pr, &timelines, &flows, threads, sink);
        });
        assert!(csv == impair_csv, "impair CSV, {threads} threads");
        assert!(json == impair_json, "impair JSON, {threads} threads");
        let (csv, json) = streamed(|sink| {
            traffic::stream(&g, &pr, &singles, &flows, threads, sink);
        });
        assert_eq!(csv, traffic_csv, "traffic CSV, {threads} threads");
        assert_eq!(json, traffic_json, "traffic JSON, {threads} threads");
    }
}

#[test]
fn an_empty_sweep_renders_the_header_or_an_empty_array() {
    let none: Vec<traffic::TrafficRow> = Vec::new();
    assert_eq!(artefact::render(&none, Format::Json), serde_json::to_string_pretty(&none).unwrap());
    assert_eq!(traffic::rows_csv(&none).lines().count(), 1);
}

#[test]
fn an_artefact_is_under_its_name_only_once_finished() {
    let name = "artefact_test_unfinished.csv";
    let path = pr_bench::results_dir().join(name);
    let partial = pr_bench::results_dir().join(format!("{name}.partial"));
    let mut file = Artefact::create(name).expect("results/ is writable");
    file.write_all(b"a,b\n").unwrap();
    file.flush().unwrap();
    assert!(partial.is_file() && !path.exists(), "written under the partial name");
    drop(file);
    assert!(!partial.exists() && !path.exists(), "a dropped artefact leaves nothing behind");

    let name = "artefact_test_finished.csv";
    let mut file = Artefact::create(name).expect("results/ is writable");
    file.write_all(b"a,b\n").unwrap();
    let path = file.finish().expect("renamed");
    assert_eq!(std::fs::read(&path).unwrap(), b"a,b\n");
    assert!(!pr_bench::results_dir().join(format!("{name}.partial")).exists());
    std::fs::remove_file(path).unwrap();
}
