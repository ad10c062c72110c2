//! Server-level behaviour: ephemeral ports + addr-file discovery, the
//! Prometheus text exposition, protocol error paths, and clean
//! shutdown.

mod common;

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use pr_daemon::server::MAX_REQUEST_LINE;
use pr_daemon::{
    scrape_metrics, serve, wait_for_addr_file, Client, DaemonConfig, DemandSpec, QueryKind,
    Request, Response,
};
use pr_testkit::nets::isp;
use pr_topologies::Isp;

/// Parses a metrics page into `(name, value)` samples — the
/// "parseable text exposition" contract: every non-comment line is
/// `name<space>value` with a float value, and every sample is preceded
/// by its `# HELP` and `# TYPE` comments.
fn parse_samples(page: &str) -> Vec<(String, f64)> {
    let mut documented = std::collections::BTreeSet::new();
    for line in page.lines().filter(|l| l.starts_with('#')) {
        let mut parts = line.split_whitespace();
        let marker = parts.next().unwrap_or("");
        let kind = parts.next().unwrap_or("");
        let name = parts.next().unwrap_or("");
        assert_eq!(marker, "#", "comment grammar: {line}");
        assert!(matches!(kind, "HELP" | "TYPE"), "comment grammar: {line}");
        if kind == "TYPE" {
            let family = parts.next().unwrap_or("");
            assert!(matches!(family, "gauge" | "counter"), "metric type: {line}");
        }
        documented.insert(name.to_string());
    }
    page.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| {
            let (name, value) = l.split_once(' ').unwrap_or_else(|| panic!("sample line {l:?}"));
            assert!(documented.contains(name), "undocumented sample {name}");
            (name.to_string(), value.parse().unwrap_or_else(|_| panic!("numeric sample {l:?}")))
        })
        .collect()
}

fn sample(samples: &[(String, f64)], name: &str) -> f64 {
    samples.iter().find(|(n, _)| n == name).unwrap_or_else(|| panic!("missing metric {name}")).1
}

#[test]
fn ephemeral_daemon_serves_control_and_metrics() {
    let graph = isp(Isp::Abilene);
    let dir = common::scratch_dir("server");
    let addr_file = dir.join("daemon.addr");
    let twin = common::twin(&graph, DemandSpec::gravity(), 2);
    let config =
        DaemonConfig { port: 0, metrics_port: 0, addr_file: addr_file.clone(), event_log: None };
    let handle = {
        let config = config.clone();
        std::thread::spawn(move || serve(twin, &config).expect("serve"))
    };
    let addrs = wait_for_addr_file(&addr_file, Duration::from_secs(30)).expect("daemon up");
    assert_ne!(addrs.control, addrs.metrics, "two listeners, two ports");

    // Failure-free scrape: full coverage, nothing failed, no events.
    let page = scrape_metrics(&addrs.metrics).expect("scrape");
    let samples = parse_samples(&page);
    assert_eq!(sample(&samples, "pr_failed_links"), 0.0);
    assert_eq!(sample(&samples, "pr_coverage"), 1.0);
    assert_eq!(sample(&samples, "pr_weighted_coverage"), 1.0);
    assert_eq!(sample(&samples, "pr_events_total"), 0.0);
    assert_eq!(sample(&samples, "pr_repair_full_rebuilds_total"), 0.0);

    let mut client = Client::connect(&addrs.control).expect("connect");
    let link = common::link_name(&graph, 5);
    let resp = client.request(&Request::LinkDown { link: link.clone() }).expect("link-down");
    assert!(matches!(resp, Response::Done { .. }), "{resp:?}");
    // Protocol errors come back as Error responses, state intact.
    let resp = client.request(&Request::LinkDown { link }).expect("double down answers");
    assert!(resp.is_error(), "{resp:?}");
    let resp = client.request(&Request::Query { what: QueryKind::Coverage }).expect("query");
    let coverage = match resp {
        Response::Coverage(r) => {
            assert_eq!(r.failed_links, 1);
            r.coverage
        }
        other => panic!("expected coverage, got {other:?}"),
    };

    // Post-event scrape: the failed-link gauge moved, the coverage
    // gauge agrees exactly with the query answer (same replay, and the
    // page renders f64 by shortest round-trip).
    let page = scrape_metrics(&addrs.metrics).expect("scrape after event");
    let samples = parse_samples(&page);
    assert_eq!(sample(&samples, "pr_failed_links"), 1.0);
    assert_eq!(sample(&samples, "pr_coverage"), coverage, "gauge != query answer");
    assert_eq!(sample(&samples, "pr_events_total"), 1.0);
    assert_eq!(sample(&samples, "pr_link_down_total"), 1.0);
    assert!(sample(&samples, "pr_repairs_total") >= 1.0);

    // Every control connection has a thread of its own: the raw one
    // below is served while ours stays open.
    // A raw malformed control line answers an Error without killing
    // the connection.
    let stream = TcpStream::connect(&addrs.control).expect("raw connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    writer.write_all(b"this is not json\n\"Snapshot\"\n").expect("send");
    let mut line = String::new();
    reader.read_line(&mut line).expect("error reply");
    assert!(line.contains("Error"), "{line}");
    line.clear();
    reader.read_line(&mut line).expect("snapshot reply after error");
    assert!(line.contains("State"), "the connection survives bad lines: {line}");
    // The longest line the cap admits is a bad line like any other;
    // one byte more, its newline still outstanding, is refused and the
    // connection closed — the daemon buffers no line without bound.
    let longest = [vec![b'a'; MAX_REQUEST_LINE - 1], vec![b'\n']].concat();
    writer.write_all(&longest).expect("send");
    line.clear();
    reader.read_line(&mut line).expect("error reply");
    assert!(line.contains("bad protocol line"), "{line}");
    writer.write_all(&vec![b'a'; MAX_REQUEST_LINE + 1]).expect("send");
    line.clear();
    reader.read_line(&mut line).expect("refusal");
    assert!(line.contains("request line exceeds 65536 bytes"), "{line}");
    line.clear();
    assert_eq!(reader.read_line(&mut line).expect("end of stream"), 0, "closed: {line}");
    drop(writer);

    // Non-/metrics paths and non-GET methods are rejected politely.
    for (request, expect) in [("GET /nope HTTP/1.1", "404"), ("POST /metrics HTTP/1.1", "405")] {
        let mut stream = TcpStream::connect(&addrs.metrics).expect("connect metrics");
        write!(stream, "{request}\r\nHost: x\r\nConnection: close\r\n\r\n").expect("send");
        let mut reply = String::new();
        stream.read_to_string(&mut reply).expect("receive");
        assert!(reply.starts_with("HTTP/1.1"), "{reply}");
        assert!(reply.contains(expect), "expected {expect} for {request:?}: {reply}");
    }

    let resp = Client::connect(&addrs.control)
        .expect("reconnect")
        .request(&Request::Shutdown)
        .expect("shutdown");
    assert!(matches!(resp, Response::Bye), "{resp:?}");
    handle.join().expect("clean exit");
    assert!(!addr_file.exists(), "clean shutdown removes the addr file");
    std::fs::remove_dir_all(&dir).ok();
}

/// A reply leaves in one segment on a no-delay socket: with the reply
/// split in two (`writeln!` on the raw stream) every round trip waited
/// ~44 ms for the client's delayed ACK, and this loop took ~4.4 s.
#[test]
fn a_hundred_round_trips_on_one_connection_take_under_a_second() {
    let graph = isp(Isp::Abilene);
    let dir = common::scratch_dir("round-trips");
    let addr_file = dir.join("daemon.addr");
    let twin = common::twin(&graph, DemandSpec::gravity(), 1);
    let config =
        DaemonConfig { port: 0, metrics_port: 0, addr_file: addr_file.clone(), event_log: None };
    let handle = std::thread::spawn(move || serve(twin, &config).expect("serve"));
    let addrs = wait_for_addr_file(&addr_file, Duration::from_secs(30)).expect("daemon up");

    let mut client = Client::connect(&addrs.control).expect("connect");
    let started = std::time::Instant::now();
    for i in 0..100 {
        let resp = client.request(&Request::Snapshot).expect("snapshot");
        assert!(matches!(resp, Response::State(_)), "request {i}: {resp:?}");
    }
    let elapsed = started.elapsed();
    assert!(elapsed < Duration::from_secs(1), "100 round trips took {elapsed:?}");

    let resp = client.request(&Request::Shutdown).expect("shutdown");
    assert!(matches!(resp, Response::Bye), "{resp:?}");
    handle.join().expect("clean exit");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fixed_port_conflict_fails_loudly() {
    let graph = isp(Isp::Abilene);
    let dir = common::scratch_dir("port-conflict");
    // Occupy a port, then ask the daemon for exactly it.
    let occupied = std::net::TcpListener::bind(("127.0.0.1", 0)).expect("occupy");
    let port = occupied.local_addr().expect("addr").port();
    let twin = common::twin(&graph, DemandSpec::gravity(), 1);
    let err = serve(
        twin,
        &DaemonConfig {
            port,
            metrics_port: 0,
            addr_file: dir.join("daemon.addr"),
            event_log: None,
        },
    )
    .unwrap_err();
    assert!(err.contains(&port.to_string()), "error names the port: {err}");
    std::fs::remove_dir_all(&dir).ok();
}
