//! Wire-format round-trips for every protocol message variant.
//!
//! The daemon and its clients frame with the compat `serde_json`; a
//! request or response that does not survive encode → decode intact
//! would silently corrupt the event log or a query answer, so every
//! variant — including awkward floats and `None`-heavy option sets —
//! must round-trip bit-for-bit.

use pr_daemon::protocol::{decode, encode};
use pr_daemon::{
    CounterReport, CoverageReport, DaemonAddrs, GaugeReport, QueryKind, Request, Response,
    SchemeStretch, SnapshotReport, StretchReport, TrafficReport,
};
use pr_traffic::{DemandTally, ScenarioTraffic};

fn roundtrip<T>(value: &T)
where
    T: serde::Serialize + serde::Deserialize + PartialEq + std::fmt::Debug,
{
    let line = encode(value);
    assert!(!line.contains('\n'), "one message, one line: {line:?}");
    let back: T = decode(&line).expect("decode what we encoded");
    assert_eq!(&back, value, "lossy round-trip through {line}");
}

/// [`roundtrip`] for a message that may hold a non-finite float, which
/// never equals itself: the re-encoded line must be the line.
fn roundtrip_line<T: serde::Serialize + serde::Deserialize>(value: &T) -> String {
    let line = encode(value);
    let back: T = decode(&line).expect("decode what we encoded");
    assert_eq!(encode(&back), line, "lossy round-trip");
    line
}

/// A tally with awkward (non-terminating binary) float content.
fn tally() -> DemandTally {
    let mut t = DemandTally::default();
    t.record_clear(0.1 + 0.2);
    t.record_recovered(1.0 / 3.0, 1.4285714285714286);
    t.record_disconnected(0.7);
    t.record_dropped(2.0f64.sqrt());
    t
}

fn traffic() -> ScenarioTraffic {
    ScenarioTraffic { tally: tally(), max_link_load: 0.30000000000000004, peak_link: None }
}

#[test]
fn every_request_variant_round_trips() {
    let requests = vec![
        Request::LinkDown { link: "Denver-KansasCity".to_string() },
        Request::LinkUp { link: "A-B".to_string() },
        Request::SetDemand {
            model: "hotspot".to_string(),
            flows: Some(500),
            hotspots: Some(3),
            boost: Some(8.5),
            seed: Some(2010),
        },
        Request::SetDemand {
            model: "uniform".to_string(),
            flows: None,
            hotspots: None,
            boost: None,
            seed: None,
        },
        Request::Query { what: QueryKind::Coverage },
        Request::Query { what: QueryKind::Stretch },
        Request::Query { what: QueryKind::Traffic },
        Request::Snapshot,
        Request::Shutdown,
    ];
    for req in &requests {
        roundtrip(req);
    }
    // Only the first three mutate (they alone belong in the event log).
    let mutating: Vec<bool> = requests.iter().map(Request::mutates).collect();
    assert_eq!(mutating, [true, true, true, true, false, false, false, false, false]);
}

#[test]
fn every_response_variant_round_trips() {
    let responses = vec![
        Response::Done { info: "link Denver-KansasCity down (1 failed)".to_string() },
        Response::Traffic(TrafficReport {
            failed_links: 2,
            traffic: traffic(),
            max_link_utilisation: 0.1 + 0.2,
            peak_link: Some("Sunnyvale-LosAngeles".to_string()),
            mean_weighted_stretch: Some(1.25),
        }),
        Response::Coverage(CoverageReport {
            failed_links: 1,
            tally: tally(),
            coverage: 1.0,
            demand_lost_fraction: 1.0 / 7.0,
        }),
        Response::Stretch(StretchReport {
            failed_links: 1,
            evaluated_pairs: 42,
            disconnected_pairs: 0,
            undelivered_fcp: 1,
            undelivered_pr: 0,
            schemes: vec![
                SchemeStretch {
                    scheme: "reconvergence".to_string(),
                    samples: 42,
                    mean: 1.0,
                    max: 1.0,
                },
                SchemeStretch {
                    scheme: "packet-recycling".to_string(),
                    samples: 41,
                    mean: 4.0 / 3.0,
                    max: 3.5,
                },
            ],
        }),
        Response::State(Box::new(SnapshotReport {
            fingerprint: "00deadbeef001234".to_string(),
            nodes: 11,
            links: 14,
            threads: 4,
            demand: "gravity/all-pairs".to_string(),
            flows: 110,
            offered: 123.456,
            failed: vec!["Denver-KansasCity".to_string()],
            gauges: GaugeReport {
                coverage: 1.0,
                weighted_coverage: 0.9999999999999999,
                demand_lost_fraction: 0.0,
                max_link_utilisation: 0.25,
                failed_links: 1,
            },
            counters: CounterReport { events: 3, link_down: 2, link_up: 1, ..Default::default() },
        })),
        Response::Bye,
        Response::Error { message: "link A-B is already failed".to_string() },
    ];
    for resp in &responses {
        roundtrip(resp);
        assert_eq!(resp.is_error(), matches!(resp, Response::Error { .. }));
    }
    roundtrip(&DaemonAddrs {
        control: "127.0.0.1:40001".to_string(),
        metrics: "127.0.0.1:40002".to_string(),
    });
}

#[test]
fn a_scheme_without_samples_reports_null_not_zero() {
    let idle = Response::Stretch(StretchReport {
        failed_links: 0,
        evaluated_pairs: 0,
        disconnected_pairs: 0,
        undelivered_fcp: 0,
        undelivered_pr: 0,
        schemes: vec![SchemeStretch {
            scheme: "fcp".to_string(),
            samples: 0,
            mean: f64::NAN,
            max: f64::NAN,
        }],
    });
    let line = roundtrip_line(&idle);
    assert!(line.contains(r#""samples":0,"mean":null,"max":null"#), "{line}");
}

#[test]
fn wire_grammar_is_externally_tagged_json() {
    // The grammar documented in DESIGN.md §12: unit variants are bare
    // strings, data variants are single-key objects. Hand-written
    // client lines must keep parsing forever.
    let down: Request = decode(r#"{"LinkDown":{"link":"A-B"}}"#).expect("hand-written link-down");
    assert_eq!(down, Request::LinkDown { link: "A-B".to_string() });
    let snap: Request = decode(r#""Snapshot""#).expect("hand-written snapshot");
    assert_eq!(snap, Request::Snapshot);
    let query: Request = decode(r#"{"Query":{"what":"Coverage"}}"#).expect("hand-written query");
    assert_eq!(query, Request::Query { what: QueryKind::Coverage });
    // Whitespace (including the trailing newline a `lines()` reader
    // strips elsewhere) is tolerated.
    let up: Request = decode("  {\"LinkUp\":{\"link\":\"A-B\"}}\n").expect("padded line");
    assert_eq!(up, Request::LinkUp { link: "A-B".to_string() });
    // Garbage fails loudly, with context.
    assert!(decode::<Request>("{\"LinkSideways\":{}}").is_err());
    assert!(decode::<Request>("not json").unwrap_err().contains("bad protocol line"));
}
