//! The daemon's determinism contract: after any event sequence, every
//! warm answer is bit-identical to a cold batch run on the same failed
//! set and demand model, and the incrementally repaired live trees
//! equal a scratch `AllPairs::compute` — at 1, 2 and 4 worker threads,
//! on a shipped topology and a synthetic one.

mod common;

use pr_bench::stretch;
use pr_core::PrNetwork;
use pr_daemon::protocol::encode;
use pr_daemon::{cold_recompile, DemandSpec, QueryKind, Request, Response, Twin};
use pr_graph::{Graph, NodeId, SpTree};
use pr_testkit::nets::{isp, synth, Net};
use pr_topologies::Isp;

fn apply(twin: &mut Twin, req: &Request) {
    let resp = twin.handle(req);
    assert!(!resp.is_error(), "{req:?} must apply cleanly, got {resp:?}");
}

fn down(graph: &Graph, i: usize) -> Request {
    Request::LinkDown { link: common::link_name(graph, i) }
}

fn up(graph: &Graph, i: usize) -> Request {
    Request::LinkUp { link: common::link_name(graph, i) }
}

/// Drives `events` into a fresh twin, then checks every warm answer
/// against a cold batch recomputation at this thread count. Returns
/// the three query responses as encoded lines (a report may hold a
/// not-a-number) so callers can assert thread invariance.
fn assert_equivalent(
    graph: &Graph,
    net: &PrNetwork,
    demand: &DemandSpec,
    events: &[Request],
    threads: usize,
) -> Vec<String> {
    let mut twin =
        Twin::new(graph.clone(), net.clone(), demand.clone(), threads).expect("twin compiles");
    for req in events {
        apply(&mut twin, req);
    }

    // Live trees: incremental repair == scratch Dijkstra, tree for tree
    // — and the base trees the twin borrows from its network are the
    // failure-free map a cold run computes for itself.
    let cold = cold_recompile(graph, twin.failed_set());
    for dest in graph.nodes() {
        assert_eq!(twin.base().towards(dest), cold.base.towards(dest), "base tree of {dest:?}");
        assert_eq!(
            twin.live_tree(dest),
            cold.live.towards(dest),
            "live tree towards {dest:?} diverged from the cold build at {threads} threads"
        );
    }

    let family = vec![twin.failed_set().clone()];

    // Traffic: warm answer == the batch sweep row on the explicit
    // scenario (same primitives, same hoisted inputs — bit-identical).
    let flows = twin.demand_spec().build(graph).expect("resident demand rebuilds");
    let batch = pr_bench::traffic::run(graph, net, &family, &flows, threads);
    let traffic = twin.handle(&Request::Query { what: QueryKind::Traffic });
    match &traffic {
        Response::Traffic(r) => {
            assert_eq!(r.traffic, batch[0].traffic, "warm traffic != cold batch row");
            assert_eq!(r.failed_links, twin.failed_set().len());
            assert_eq!(r.max_link_utilisation, batch[0].traffic.max_link_utilisation());
        }
        other => panic!("expected a traffic report, got {other:?}"),
    }

    // Coverage: warm answer == a batch replay of the uniform matrix.
    let uniform = pr_traffic::FlowSet::all_pairs(&pr_traffic::UniformTraffic::new(graph));
    let ubatch = pr_bench::traffic::run(graph, net, &family, &uniform, threads);
    let coverage = twin.handle(&Request::Query { what: QueryKind::Coverage });
    match &coverage {
        Response::Coverage(r) => {
            assert_eq!(r.tally, ubatch[0].traffic.tally, "warm coverage tally != cold batch");
            assert_eq!(r.coverage, ubatch[0].traffic.tally.weighted_coverage());
            assert_eq!(r.demand_lost_fraction, ubatch[0].traffic.tally.demand_lost_fraction());
        }
        other => panic!("expected a coverage report, got {other:?}"),
    }

    // Stretch: warm answer == the batch report of the one-scenario
    // family, bit for bit (a scheme without samples has a NaN mean, so
    // floats compare by bits) — and, one row being summed in sample
    // order, == the mean of the raw-sample oracle form.
    let (rows, _) = stretch::run_rows(graph, net, &family, threads, 0);
    let report = stretch::RowTotals::of(&rows, &stretch::figure2_xs()).report();
    let samples = stretch::run(graph, net, &family, threads);
    let warm = twin.handle(&Request::Query { what: QueryKind::Stretch });
    match &warm {
        Response::Stretch(r) => {
            assert_eq!(r.evaluated_pairs as u64, report.evaluated_pairs);
            assert_eq!(r.disconnected_pairs as u64, report.disconnected_pairs);
            assert_eq!(r.undelivered_fcp as u64, report.undelivered_fcp);
            assert_eq!(r.undelivered_pr as u64, report.undelivered_pr);
            assert_eq!(r.schemes.len(), 3);
            for (i, (agg, scheme)) in r.schemes.iter().zip(stretch::Scheme::ALL).enumerate() {
                assert_eq!(agg.scheme, scheme.label());
                assert_eq!(agg.samples as u64, report.samples[i]);
                assert_eq!(agg.mean.to_bits(), report.mean[i].to_bits(), "{} mean", agg.scheme);
                assert_eq!(agg.max.to_bits(), report.max[i].to_bits(), "{} max", agg.scheme);
                let raw = stretch::mean(samples.of(scheme));
                assert_eq!(agg.mean.to_bits(), raw.to_bits(), "{} raw mean", agg.scheme);
            }
        }
        other => panic!("expected a stretch report, got {other:?}"),
    }

    [traffic, coverage, warm].iter().map(encode).collect()
}

/// Full suite on one graph: equivalence at each thread count, plus
/// thread-count invariance of the query answers themselves.
fn equivalence_suite(graph: &Graph, demand: DemandSpec, events: &[Request]) {
    let net = Net::searched(graph.clone()).pr;
    let mut per_threads = Vec::new();
    for threads in [1, 2, 4] {
        per_threads.push(assert_equivalent(graph, &net, &demand, events, threads));
    }
    let reference = &per_threads[0];
    for (i, answers) in per_threads.iter().enumerate().skip(1) {
        assert_eq!(
            answers,
            reference,
            "query answers must be thread-count invariant (1 vs {} threads)",
            [1, 2, 4][i]
        );
    }
}

#[test]
fn a_twin_without_a_failed_link_has_no_mean_stretch() {
    let graph = isp(Isp::Abilene);
    let net = Net::searched(graph.clone()).pr;
    let answers = assert_equivalent(&graph, &net, &DemandSpec::gravity(), &[], 1);
    // Not `"mean":0`: that would read as a stretch of zero.
    let idle = r#"{"scheme":"packet-recycling","samples":0,"mean":null,"max":null}"#;
    assert!(answers[2].contains(idle), "{}", answers[2]);
}

#[test]
fn abilene_gravity_equivalence() {
    let graph = isp(Isp::Abilene);
    let events = [down(&graph, 0), down(&graph, 3), up(&graph, 0), down(&graph, 5)];
    equivalence_suite(&graph, DemandSpec::gravity(), &events);
}

#[test]
fn synth_isp_hotspot_equivalence() {
    let graph = synth("isp:24:7");
    let events = [
        down(&graph, 1),
        down(&graph, 7),
        down(&graph, 12),
        up(&graph, 7),
        Request::SetDemand {
            model: "hotspot".to_string(),
            flows: Some(200),
            hotspots: Some(3),
            boost: None,
            seed: Some(42),
        },
    ];
    equivalence_suite(&graph, DemandSpec::uniform(), &events);
}

#[test]
fn the_twin_borrows_its_networks_trees() {
    // One failure-free map per process: the twin's base trees are the
    // allocation its network compiled, before and after events.
    let graph = isp(Isp::Abilene);
    let net = Net::searched(graph.clone()).pr;
    let compiled: *const SpTree = net.base().towards(NodeId(0));
    let mut twin = Twin::new(graph.clone(), net, DemandSpec::gravity(), 1).expect("twin");
    assert!(std::ptr::eq(twin.base().towards(NodeId(0)), compiled));
    apply(&mut twin, &down(&graph, 0));
    assert!(std::ptr::eq(twin.base().towards(NodeId(0)), compiled));
    assert_ne!(twin.live_tree(NodeId(0)), twin.base().towards(NodeId(0)), "live is the twin's own");
}

#[test]
fn strict_event_semantics_reject_noop_transitions() {
    let graph = isp(Isp::Abilene);
    let net = Net::searched(graph.clone()).pr;
    let mut twin = Twin::new(graph.clone(), net, DemandSpec::gravity(), 1).expect("twin");
    let link = common::link_name(&graph, 2);
    apply(&mut twin, &Request::LinkDown { link: link.clone() });
    // Double-down and spurious up are errors, and errors leave state
    // untouched — the event log stays an exact replayable history.
    assert!(twin.handle(&Request::LinkDown { link: link.clone() }).is_error());
    assert_eq!(twin.failed_set().len(), 1);
    apply(&mut twin, &Request::LinkUp { link: link.clone() });
    assert!(twin.handle(&Request::LinkUp { link }).is_error());
    assert_eq!(twin.failed_set().len(), 0);
    assert!(twin.handle(&Request::LinkDown { link: "A-Nowhere".to_string() }).is_error());
    assert!(twin
        .handle(&Request::SetDemand {
            model: "banana".to_string(),
            flows: None,
            hotspots: None,
            boost: None,
            seed: None,
        })
        .is_error());
    // The rejected demand update left the resident spec in place.
    assert_eq!(twin.demand_spec().model, "gravity");
}

#[test]
fn a_hotspot_boost_that_is_not_a_finite_positive_factor_is_refused() {
    let graph = isp(Isp::Abilene);
    for boost in [f64::NAN, f64::INFINITY, 0.0, -2.0] {
        let spec = DemandSpec { boost, ..DemandSpec::named("hotspot") };
        let err = spec.build(&graph).expect_err("refused");
        assert!(err.contains("boost"), "{boost}: {err}");
    }
    assert!(DemandSpec { boost: 2.0, ..DemandSpec::named("hotspot") }.build(&graph).is_ok());
}
