//! Kill-and-restart durability: a daemon restarted over its event log
//! reaches the identical twin state — snapshot-exactly and tree-
//! exactly — because the log records exactly the successful mutations
//! in order, and replay applies them through the same handler.

mod common;

use std::time::Duration;

use pr_daemon::{
    serve, wait_for_addr_file, Client, DaemonConfig, DemandSpec, EventLog, QueryKind, Request,
    Response, Twin,
};
use pr_testkit::nets::{isp, synth, Net};
use pr_topologies::Isp;

fn apply(twin: &mut Twin, req: &Request) {
    let resp = twin.handle(req);
    assert!(!resp.is_error(), "{req:?} must apply cleanly, got {resp:?}");
}

#[test]
fn event_log_replay_reaches_identical_state() {
    let graph = isp(Isp::Abilene);
    let dir = common::scratch_dir("replay");
    let log_path = dir.join("events.log");

    let events = [
        Request::LinkDown { link: common::link_name(&graph, 0) },
        Request::LinkDown { link: common::link_name(&graph, 4) },
        Request::SetDemand {
            model: "hotspot".to_string(),
            flows: Some(50),
            hotspots: Some(2),
            boost: Some(4.0),
            seed: Some(7),
        },
        Request::LinkUp { link: common::link_name(&graph, 0) },
    ];

    // First life: apply and record, as the serving loop would.
    let mut first = common::twin(&graph, DemandSpec::gravity(), 2);
    let mut log = EventLog::open(&log_path).expect("open log");
    for req in &events {
        apply(&mut first, req);
        log.record(req).expect("record");
    }
    drop(log);

    // Second life: fresh twin, same compile, replayed log.
    let mut second = common::twin(&graph, DemandSpec::gravity(), 2);
    let replayed = EventLog::replay(&log_path, &mut second).expect("replay");
    assert_eq!(replayed, events.len(), "every recorded event replays");

    assert_eq!(first.snapshot(), second.snapshot(), "restart must be state-identical");
    for dest in graph.nodes() {
        assert_eq!(first.live_tree(dest), second.live_tree(dest), "tree towards {dest:?}");
    }

    // A log from a different topology fails the restart loudly instead
    // of silently diverging.
    let other = synth("isp:24:7");
    let mut wrong = common::twin(&other, DemandSpec::uniform(), 1);
    let err = EventLog::replay(&log_path, &mut wrong).unwrap_err();
    assert!(err.contains("line 1"), "error names the offending line: {err}");

    // A missing log is an empty history, not an error.
    let mut fresh = common::twin(&graph, DemandSpec::gravity(), 1);
    assert_eq!(EventLog::replay(&dir.join("absent.log"), &mut fresh).expect("missing log"), 0);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_torn_tail_is_cut_off_and_anything_else_undecodable_refuses() {
    let graph = isp(Isp::Abilene);
    let dir = common::scratch_dir("torn-tail");
    let log_path = dir.join("events.log");
    let down = |i| Request::LinkDown { link: common::link_name(&graph, i) };
    let line = |req: &Request| pr_daemon::protocol::encode(req) + "\n";
    let whole = line(&down(0)) + &line(&down(4));
    let replay = |twin: &mut Twin| EventLog::replay(&log_path, twin);

    // The prefix alone: what every surviving start must reach.
    std::fs::write(&log_path, &whole).unwrap();
    let mut prefix = common::twin(&graph, DemandSpec::gravity(), 1);
    assert_eq!(replay(&mut prefix), Ok(2));

    // Killed mid-write: half a record and no newline after the prefix.
    let third = line(&down(8));
    std::fs::write(&log_path, whole.clone() + &third[..third.len() / 2]).unwrap();
    let mut survivor = common::twin(&graph, DemandSpec::gravity(), 1);
    assert_eq!(replay(&mut survivor), Ok(2), "the prefix replays, the torn record does not");
    assert_eq!(survivor.snapshot(), prefix.snapshot());
    assert_eq!(std::fs::read_to_string(&log_path).unwrap(), whole, "cut at the last newline");
    // The next event lands on a line of its own, and the log replays.
    EventLog::open(&log_path).unwrap().record(&down(8)).unwrap();
    assert_eq!(std::fs::read_to_string(&log_path).unwrap(), whole.clone() + &third);
    assert_eq!(replay(&mut common::twin(&graph, DemandSpec::gravity(), 1)), Ok(3));

    // Whole but for its newline: no more acknowledged than half of it.
    std::fs::write(&log_path, whole.clone() + third.trim_end()).unwrap();
    assert_eq!(replay(&mut common::twin(&graph, DemandSpec::gravity(), 1)), Ok(2));
    assert_eq!(std::fs::read_to_string(&log_path).unwrap(), whole);

    // A terminated line that does not decode is not a crash's doing,
    // last or in the middle, torn bytes included.
    for (damaged, at) in [
        (whole.clone() + "{\"LinkDown\":\n", "line 3"),
        (line(&down(0)) + "garbage\n" + &line(&down(4)), "line 2"),
        (line(&down(0)) + &third[..third.len() / 2] + "\n" + &line(&down(4)), "line 2"),
    ] {
        std::fs::write(&log_path, &damaged).unwrap();
        let err = replay(&mut common::twin(&graph, DemandSpec::gravity(), 1)).unwrap_err();
        assert!(err.contains(at), "{err}");
        assert_eq!(std::fs::read_to_string(&log_path).unwrap(), damaged, "left as found");
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_log_cut_at_any_byte_restarts_to_the_events_it_holds_whole() {
    // A kill can leave the log cut at any byte. Restarted from every
    // cut, the daemon replays exactly the complete lines — the events
    // whose record reached its newline — reaches the state of applying
    // them directly, and leaves the file cut at its last newline.
    let graph = isp(Isp::Abilene);
    let Net { g, pr, .. } = Net::searched(graph.clone());
    let twin = || Twin::new(g.clone(), pr.clone(), DemandSpec::gravity(), 1).expect("twin");
    let down = |i| Request::LinkDown { link: common::link_name(&graph, i) };
    let up = |i| Request::LinkUp { link: common::link_name(&graph, i) };
    let demand = |model: &str, seed| Request::SetDemand {
        model: model.to_string(),
        flows: Some(40),
        hotspots: None,
        boost: None,
        seed: Some(seed),
    };
    let events =
        [down(0), down(4), demand("uniform", 3), up(0), down(8), demand("gravity", 5), up(4)];
    let dir = common::scratch_dir("every-cut");
    let log_path = dir.join("events.log");

    // The state after each prefix, applied directly, as the log records it.
    let mut log = EventLog::open(&log_path).expect("open log");
    let mut direct = twin();
    let mut states = vec![direct.snapshot()];
    for req in &events {
        apply(&mut direct, req);
        log.record(req).expect("record");
        states.push(direct.snapshot());
    }
    drop(log);
    let whole = std::fs::read(&log_path).expect("the log");
    let newlines = |bytes: &[u8]| bytes.iter().filter(|&&b| b == b'\n').count();
    assert_eq!(newlines(&whole), events.len(), "one line per event");

    for cut in 0..=whole.len() {
        std::fs::write(&log_path, &whole[..cut]).expect("cut the log");
        let complete = newlines(&whole[..cut]);
        let mut restarted = twin();
        assert_eq!(EventLog::replay(&log_path, &mut restarted), Ok(complete), "cut at byte {cut}");
        assert_eq!(restarted.snapshot(), states[complete], "cut at byte {cut}");
        let kept = whole[..cut].iter().rposition(|&b| b == b'\n').map_or(0, |at| at + 1);
        let left = std::fs::read(&log_path).expect("the log");
        assert_eq!(left, &whole[..kept], "cut at byte {cut}: left cut at its last newline");
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn daemon_restart_over_tcp_resumes_bit_identically() {
    let graph = isp(Isp::Abilene);
    let net = Net::searched(graph.clone()).pr;
    let dir = common::scratch_dir("restart-tcp");
    let log_path = dir.join("events.log");
    let addr_file = dir.join("daemon.addr");

    let serve_once = |twin: Twin| {
        let config = DaemonConfig {
            port: 0,
            metrics_port: 0,
            addr_file: addr_file.clone(),
            event_log: Some(log_path.clone()),
        };
        std::thread::spawn(move || serve(twin, &config).expect("serve"))
    };

    // First life: two mutations, then a clean shutdown.
    let twin = Twin::new(graph.clone(), net.clone(), DemandSpec::gravity(), 2).expect("twin");
    let handle = serve_once(twin);
    let addrs = wait_for_addr_file(&addr_file, Duration::from_secs(30)).expect("first life up");
    let mut client = Client::connect(&addrs.control).expect("connect");
    let failed_link = common::link_name(&graph, 3);
    for req in [
        Request::LinkDown { link: failed_link.clone() },
        Request::LinkDown { link: common::link_name(&graph, 8) },
    ] {
        let resp = client.request(&req).expect("request");
        assert!(!resp.is_error(), "{resp:?}");
    }
    let first_traffic = client.request(&Request::Query { what: QueryKind::Traffic }).unwrap();
    assert!(matches!(client.request(&Request::Shutdown), Ok(Response::Bye)));
    handle.join().expect("first life exits cleanly");
    assert!(!addr_file.exists(), "clean shutdown removes the addr file");

    // Second life: same log, fresh twin — queries answer identically
    // and the failed set survived the restart.
    let twin = Twin::new(graph.clone(), net, DemandSpec::gravity(), 2).expect("twin");
    let handle = serve_once(twin);
    let addrs = wait_for_addr_file(&addr_file, Duration::from_secs(30)).expect("second life up");
    let mut client = Client::connect(&addrs.control).expect("reconnect");
    match client.request(&Request::Snapshot).expect("snapshot") {
        Response::State(snap) => {
            assert_eq!(snap.counters.events, 2, "both events replayed");
            assert_eq!(snap.failed.len(), 2);
            assert!(snap.failed.contains(&failed_link), "{:?}", snap.failed);
        }
        other => panic!("expected state, got {other:?}"),
    }
    let second_traffic = client.request(&Request::Query { what: QueryKind::Traffic }).unwrap();
    assert_eq!(first_traffic, second_traffic, "answers survive the restart bit-for-bit");
    assert!(matches!(client.request(&Request::Shutdown), Ok(Response::Bye)));
    handle.join().expect("second life exits cleanly");

    std::fs::remove_dir_all(&dir).ok();
}
