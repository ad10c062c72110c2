//! Hostile inputs never panic and never allocate unbounded.
//!
//! One mutation corpus — byte flips, truncations, duplicated lines, a
//! 1 MiB line, deep nesting, numbers at the edge of their types —
//! grown from a valid document of each format that enters the programs
//! from outside: the `.topo` parser, the JSON stand-in, the daemon's
//! wire protocol, the shard checkpoint, the event log and a compiled
//! network. Every mutant is accepted or refused with an error that
//! says where: a syntax error names its byte or line, a well-formed
//! document of the wrong shape the field, variant or type that was
//! expected (the JSON stand-in keeps no spans), under the file and line
//! its loader adds. A network is the one exception that panics: it is
//! refused where it is bound to a graph, by a panic that says why.

use std::path::PathBuf;

use pr_bench::shards::{run_shards, shard_file, ShardKey, ShardOutcome};
use pr_bench::stretch::{self, ScenarioRow};
use pr_core::{generous_ttl, PrNetwork};
use pr_daemon::protocol::{decode, encode};
use pr_daemon::{DemandSpec, EventLog, Request, Twin};
use pr_graph::{parser, Graph, LinkSet};
use pr_scenarios::{ScenarioFamily, ScenarioSlice, SingleLinkFailures};
use pr_testkit::alloc::{peak_during, turn, Counting};
use pr_testkit::fixtures;
use pr_testkit::nets::{link_name, Net};
use pr_testkit::oracle::replay_scenario_naive;
use pr_traffic::{replay_scenario_bitparallel, FlowSet, ReplayScratch, UniformTraffic};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const MIB: usize = 1 << 20;

/// The corpus grown from `valid`.
fn mutants(valid: &str) -> Vec<String> {
    let bytes = valid.as_bytes();
    let stride = (bytes.len() / 97).max(1);
    let mut out = vec![String::new(), valid.to_string()];
    let lossy = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    for at in (0..bytes.len()).step_by(stride) {
        out.push(lossy(&bytes[..at]));
        for hostile in [b'"', b'\\', b'{', b'[', b']', b'-', b'9', b'e', b'\n', b' ', 0, 0xFF] {
            let mut flipped = bytes.to_vec();
            flipped[at] = hostile;
            out.push(lossy(&flipped));
        }
        let mut flipped = bytes.to_vec();
        flipped[at] ^= 0x20;
        out.push(lossy(&flipped));
    }
    let lines: Vec<&str> = valid.lines().collect();
    for at in 0..lines.len().min(40) {
        let mut doubled = lines.clone();
        doubled.insert(at, lines[at]);
        out.push(doubled.join("\n"));
        let mut long = lines.clone();
        long.insert(at, "");
        let long = long.join("\n");
        out.push(long.replacen("\n\n", &format!("\n{}\n", "a".repeat(MIB)), 1));
    }
    for filler in ["a", "9", "[", "{\"a\":", "\"", "\\", "-"] {
        out.push(filler.repeat(MIB / filler.len()));
        out.push(format!("{valid}{}", filler.repeat(MIB / filler.len())));
    }
    for number in ["-170141183460469231731687303715884105728", "1e999999", "-0", "1e-999999"] {
        out.push(number.to_string());
        out.push(valid.replacen(|c: char| c.is_ascii_digit(), number, 1));
    }
    out
}

/// Runs `load` on `input` under the byte gauge: the live heap may rise
/// by a small multiple of the input, whatever the input says.
fn bounded<T>(what: &str, input: &str, load: impl FnOnce() -> T) -> T {
    let (out, peak) = peak_during(load);
    assert!(peak <= 64 * input.len() + 4 * MIB, "{what}: {peak} B live for {} B", input.len());
    out
}

/// Whether an error says where it is.
fn located(message: &str) -> bool {
    let position = |word: &str| {
        message
            .match_indices(word)
            .any(|(at, _)| message[at + word.len()..].starts_with(|c: char| c.is_ascii_digit()))
    };
    let shape = [
        "field `",
        "variant",
        "expected ",
        "overflows",
        "does not match the shard plan",
        "belongs to a different sweep (recorded: ",
    ];
    position("byte ") || position("line ") || shape.iter().any(|s| message.contains(s))
}

fn head(input: &str) -> &str {
    &input[..input.char_indices().nth(80).map_or(input.len(), |(at, _)| at)]
}

#[test]
fn the_topo_parser_refuses_with_a_line() {
    let _turn = turn();
    let valid = parser::write(&Net::abilene().g);
    // One node past the node limit, one unit of weight past the weight
    // limit: both are refused on the line that crosses it.
    let crowded: String = (0..=Graph::MAX_NODES).map(|i| format!("node n{i}\n")).collect();
    let heavy = format!("node A\nnode B\nlink A B {}\nlink B A 1", u32::MAX - 1);
    let limits = [crowded, heavy];
    let extra = [&"node A nan 0".into(), &"node A 0 inf".into(), &limits[0], &limits[1]];
    for input in mutants(&valid).iter().chain(extra) {
        match bounded("topo", input, || parser::parse(input)) {
            Ok(g) => assert!(g.node_count() <= input.lines().count()),
            Err(e) => {
                let message = e.to_string();
                assert!(message.starts_with("line "), "{message:.200} for {:?}", head(input));
            }
        }
    }
    assert!(parser::parse("node A nan 0").is_err() && parser::parse("node A 0 inf").is_err());
    for (input, line) in limits.iter().zip([Graph::MAX_NODES + 1, 4]) {
        let message = parser::parse(input).expect_err("a limit is refused").to_string();
        assert!(message.starts_with(&format!("line {line}: ")), "{message}");
    }
}

#[test]
fn json_and_the_wire_protocol_refuse_with_a_byte() {
    let _turn = turn();
    let net = Net::figure1();
    let documents = [
        serde_json::to_string_pretty(&net.pr).expect("serialises"),
        encode(&Request::SetDemand {
            model: "hotspot".into(),
            flows: Some(200),
            hotspots: Some(3),
            boost: Some(4.5),
            seed: Some(42),
        }),
        encode(&Request::LinkDown { link: "Denver-KansasCity".into() }),
    ];
    for valid in &documents {
        assert!(serde_json::from_str::<serde::Value>(valid).is_ok());
        for input in &mutants(valid) {
            let as_value = bounded("json", input, || serde_json::from_str::<serde::Value>(input));
            let as_request = bounded("protocol", input, || decode::<Request>(input));
            let errors = [as_value.err().map(|e| e.to_string()), as_request.err()];
            for message in errors.iter().flatten() {
                assert!(located(message), "{message:.200} for {:?}", head(input));
            }
        }
    }
}

#[test]
fn a_network_binds_and_replays_as_the_oracle_or_is_refused_where_it_is_bound() {
    // A compiled network that arrives through serde: every mutant that
    // deserialises either binds — and then its episode chains price
    // what its walks deliver, against trees of the replay's own — or is
    // refused where it is bound, by a panic that names the tree or row.
    let _turn = turn();
    let net = Net::figure1();
    let valid = serde_json::to_string(&net.pr).expect("serialises");
    let flows = FlowSet::all_pairs(&UniformTraffic::new(&net.g));
    let sets: Vec<LinkSet> = fixtures::exhaustive(&net.g, 2..=3).into_iter().step_by(11).collect();
    let ttl = generous_ttl(&net.g);
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let (mut bound, mut refused) = (0, [0, 0]);
    for input in &mutants(&valid) {
        let Ok(hostile) = bounded("network", input, || serde_json::from_str::<PrNetwork>(input))
        else {
            continue;
        };
        let agent = match std::panic::catch_unwind(|| hostile.agent(&net.g)) {
            Ok(agent) => agent,
            Err(payload) => {
                // A column of the wrong width, or a value no router
                // can forward by.
                let message = payload.downcast_ref::<String>().map_or("", String::as_str);
                let by_value = message.starts_with("tables refused: ");
                let refusal = by_value || message.starts_with("graph/tables mismatch: ");
                assert!(refusal, "{message:.300} for {:?}", head(input));
                refused[usize::from(by_value)] += 1;
                continue;
            }
        };
        bound += 1;
        let mut scratch = ReplayScratch::new();
        for failed in &sets {
            let Net { g, base, dense, .. } = &net;
            let replayed = replay_scenario_bitparallel(
                g,
                &agent,
                dense,
                base,
                &flows,
                failed,
                ttl,
                &mut scratch,
            );
            let oracle = replay_scenario_naive(g, &agent, base, &flows, failed, ttl);
            assert_eq!(replayed, oracle, "{failed:?} under {:?}", head(input));
        }
    }
    std::panic::set_hook(hook);
    assert!(bound > 1 && refused[0] > 0 && refused[1] > 0, "{bound} bound, {refused:?} refused");
}

#[test]
fn a_network_whose_costs_do_not_add_up_is_refused_where_it_is_bound() {
    // Every label present and in range, and every dart leaving its
    // router: only the cost of B towards A is one too high.
    let _turn = turn();
    let net = Net::figure1();
    let valid = serde_json::to_string(&net.pr).expect("serialises");
    let column = "\"dist\":[";
    let at = valid.find(column).expect("tree 0's cost column") + column.len();
    let (own, rest) = valid[at..].split_once(',').expect("a cost per node");
    let (cost, tail) = rest.split_once(',').expect("a cost per node");
    let cost: u64 = cost.parse().expect("B's cost");
    let off = format!("{}{own},{},{tail}", &valid[..at], cost + 1);
    let hostile: PrNetwork = serde_json::from_str(&off).expect("still a network");
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let payload = std::panic::catch_unwind(|| hostile.agent(&net.g)).err();
    std::panic::set_hook(hook);
    let payload = payload.expect("refused where it is bound");
    let message = payload.downcast_ref::<String>().map_or("", String::as_str);
    let node = |name| net.g.node_by_name(name).expect("a figure-1 router");
    let (a, b) = (node("A"), node("B"));
    let names = format!("tables refused: tree 0 towards {a} labels {b} ({}, 1 hops)", cost + 1);
    assert!(message.starts_with(&names), "{message}");
}

#[test]
fn the_shard_checkpoint_refuses_with_its_file_and_a_position() {
    let _turn = turn();
    let Net { g, pr, .. } = Net::figure1();
    let family = SingleLinkFailures::new(&g);
    let run_slice = |_: usize, start: usize, len: usize| -> Vec<ScenarioRow> {
        stretch::run_rows(&g, &pr, &ScenarioSlice::new(&family, start, len), 1, start).0
    };
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("hostile-shards");
    let _ = std::fs::remove_dir_all(&dir);
    let key = ShardKey {
        topology: g.fingerprint(),
        nodes: g.node_count() as u64,
        links: g.link_count() as u64,
        embedding: pr.embedding().rotation().fingerprint(),
        family: family.label(),
        seed: 2010,
        scenarios: family.len() as u64,
        shards: 2,
    };
    let clean = run_shards(&dir, &key, false, None, run_slice).expect("clean run");
    let ShardOutcome::Complete(clean) = clean else { panic!("{clean:?}") };
    let xs = stretch::figure2_xs();
    for path in [dir.join("manifest.json"), shard_file(&dir, 1)] {
        let valid = std::fs::read_to_string(&path).expect("checkpoint file");
        // A row whose CCDF counts are one short of the thresholds.
        let short = valid.replacen("\"above\": [\n        0,", "\"above\": [", 1);
        assert_eq!(short == valid, path.ends_with("manifest.json"), "the mutant must bite");
        for input in mutants(&valid).iter().chain([&short]) {
            std::fs::write(&path, input).expect("plant the mutant");
            match bounded("shards", input, || run_shards(&dir, &key, true, None, run_slice)) {
                // Whatever loads must be usable: a report renders.
                Ok(ShardOutcome::Complete(rows)) => {
                    assert_eq!(rows.len(), clean.len());
                    stretch::report_from_rows(&rows, &xs);
                }
                Ok(partial) => panic!("{partial:?} for {:?}", head(input)),
                Err(message) => {
                    let names_the_file = message.contains(&path.display().to_string())
                        || message.contains(&dir.display().to_string());
                    assert!(names_the_file && located(&message), "{message:.300}");
                }
            }
            // A refused or recomputed checkpoint is repaired from the
            // clean bytes before the next mutant.
            std::fs::write(&path, &valid).expect("restore");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_event_log_refuses_with_its_line() {
    let _turn = turn();
    let Net { g, pr, .. } = Net::figure1();
    let twin = || Twin::new(g.clone(), pr.clone(), DemandSpec::uniform(), 1).expect("twin");
    let events: Vec<Request> = g
        .links()
        .take(3)
        .map(|l| Request::LinkDown { link: link_name(&g, l) })
        .chain([Request::LinkUp { link: link_name(&g, g.links().next().expect("a link")) }])
        .collect();
    let valid: String = events.iter().map(|e| encode(e) + "\n").collect();
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("hostile-events.log");
    for input in &mutants(&valid) {
        std::fs::write(&path, input).expect("plant the mutant");
        let mut fresh = twin();
        match bounded("event log", input, || EventLog::replay(&path, &mut fresh)) {
            Ok(replayed) => assert!(replayed <= input.lines().count()),
            Err(message) => {
                let line = format!("{} line ", path.display());
                assert!(message.contains(&line) && located(&message), "{message:.300}");
            }
        }
    }
    std::fs::remove_file(&path).ok();
}
