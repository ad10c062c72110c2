//! Smoke tests invoking the real `pr-cli` binary: exit codes, help
//! text, error paths, and one end-to-end walk on the Figure 1 fixture.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pr-cli")).args(args).output().expect("pr-cli binary runs")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[test]
fn help_prints_usage_and_exits_zero() {
    let lines: [&[&str]; 6] = [
        &["--help"],
        &["-h"],
        &["help"],
        &["impair", "--help"],
        &["daemon", "-h"],
        &["sweep", "-h"],
    ];
    for line in lines {
        let out = run(line);
        assert!(out.status.success(), "{line:?} must exit 0");
        assert!(stdout(&out).contains("USAGE"), "{line:?} must print usage");
        assert!(stdout(&out).contains("pr info"), "{line:?} must list subcommands");
        assert!(stderr(&out).is_empty(), "{line:?}: {}", stderr(&out));
    }
}

#[test]
fn a_closed_stdout_ends_the_process_quietly() {
    for args in [&["help"][..], &["info", "abilene"], &["tables", "figure1", "D"]] {
        // The read end is gone before the binary starts: its first
        // write meets a broken pipe.
        let (reader, writer) = std::io::pipe().expect("a pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_pr-cli"))
            .args(args)
            .stdout(writer)
            .output()
            .expect("pr-cli binary runs");
        let err = stderr(&out);
        assert!(!err.contains("panicked") && err.is_empty(), "{args:?}: {err}");
        assert_eq!(out.status.code(), Some(141), "{args:?}");
    }
}

#[test]
fn a_closed_stderr_ends_the_process_quietly() {
    // `pr 2>&1 | head -1` and the like: the usage or the error is
    // written to a pipe whose reader is gone.
    for args in [&[][..], &["traffic", "abilene", "--seed", "-1"]] {
        let (reader, writer) = std::io::pipe().expect("a pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_pr-cli"))
            .args(args)
            .stderr(writer)
            .output()
            .expect("pr-cli binary runs");
        assert!(out.stdout.is_empty(), "{args:?}: {}", stdout(&out));
        assert_eq!(out.status.code(), Some(141), "{args:?}");
    }
}

#[test]
fn no_arguments_is_an_error_with_usage() {
    let out = run(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("USAGE"));
}

#[test]
fn unknown_subcommand_is_an_error_with_usage() {
    let out = run(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("unknown subcommand"));
    assert!(err.contains("USAGE"));
}

#[test]
fn missing_positional_is_an_error_with_usage() {
    let out = run(&["info"]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("missing required argument"));
    assert!(err.contains("USAGE"));
}

#[test]
fn unknown_node_is_an_error_with_usage() {
    let out = run(&["walk", "figure1", "A", "Z"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("unknown node"));
}

#[test]
fn bad_option_value_is_an_error() {
    let out = run(&["walk", "figure1", "A", "F", "--mode", "turbo"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("turbo"));
}

#[test]
fn non_finite_and_negative_float_options_are_errors_not_panics() {
    let cases: [(&[&str], &str); 6] = [
        (&["traffic", "geant", "--model", "hotspot", "--boost", "nan"], "--boost"),
        (&["traffic", "geant", "--model", "hotspot", "--boost", "inf"], "--boost"),
        (&["impair", "geant", "--process", "gilbert", "--rate", "nan"], "--rate"),
        (&["impair", "geant", "--process", "storm", "--radius", "nan"], "--radius"),
        (&["sweep", "geant", "--family", "srlg", "--radius", "-5"], "--radius"),
        (&["sweep", "geant", "--family", "srlg", "--radius", "nan"], "--radius"),
    ];
    for (args, flag) in cases {
        let out = run(args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(err.contains(flag), "{args:?} must name {flag}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
}

#[test]
fn degenerate_sweep_sizes_are_errors_naming_the_flag() {
    // Abilene has 11 nodes and 14 links, so a connected survivor graph
    // loses 4 at most. Each of these would sweep one empty scenario or
    // none, (`pr stretch`) ignore the flag, draw fewer failures than its
    // label says, or (`pr impair`) replay the bare outage sweep under a
    // decorated label or clamp `--links` to the 14 there are. A link
    // failed twice, in either orientation, would fail once under a
    // label that names it twice. Every one of these needs only the
    // graph, so it is refused before the embedding search prints its
    // genus.
    let cases: [(&[&str], &str); 17] = [
        (&["stretch", "abilene", "--failures", "0"], "--failures"),
        (&["stretch", "abilene", "--samples", "5"], "--samples"),
        (&["sweep", "abilene", "--family", "multi", "--k", "0"], "--k"),
        (&["sweep", "abilene", "--family", "exhaustive", "--k", "0"], "--k"),
        (&["sweep", "abilene", "--family", "multi", "--samples", "0"], "--samples"),
        (&["traffic", "abilene", "--family", "exhaustive", "--k", "20"], "--k"),
        (&["sweep", "abilene", "--family", "multi", "--k", "5"], "--k"),
        (&["stretch", "abilene", "--failures", "20"], "--failures"),
        (&["impair", "abilene", "--process", "maintenance", "--links", "0"], "--links"),
        (&["impair", "abilene", "--process", "maintenance", "--window-ms", "0"], "--window-ms"),
        (&["impair", "abilene", "--process", "storm", "--storms", "0"], "--storms"),
        (&["impair", "abilene", "--process", "jitter", "--jitter-ms", "0"], "--jitter-ms"),
        (&["impair", "abilene", "--process", "maintenance", "--links", "500"], "--links"),
        (
            &[
                "walk",
                "abilene",
                "Seattle",
                "Atlanta",
                "--fail",
                "Seattle-Denver",
                "--fail",
                "Denver-Seattle",
            ],
            "--fail",
        ),
        (&["traffic", "abilene", "--fail", "Seattle-Denver", "--fail", "Seattle-Denver"], "--fail"),
        (&["traffic", "abilene", "--fail", "Seattle-Denver", "--fail", "Denver-Seattle"], "--fail"),
        (&["sweep", "synth:isp:500", "--family", "multi", "--k", "5000"], "--k"),
    ];
    for (args, flag) in cases {
        let out = run(args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{args:?} must fail: {}", stdout(&out));
        assert!(err.contains(flag), "{args:?} must name {flag}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        let text = stdout(&out);
        assert!(!text.contains("embedding genus"), "{args:?} searched first:\n{text}");
    }
    // The bound itself is a sweep, four failures each and none short;
    // `--rate 0` is the documented bare outage replay.
    for args in [
        &["sweep", "abilene", "--family", "multi", "--k", "4", "--samples", "5"][..],
        &["stretch", "abilene", "--failures", "4", "--samples", "5"],
        &["impair", "abilene", "--rate", "0"],
    ] {
        let out = run(args);
        assert!(out.status.success(), "{args:?} failed: {}", stderr(&out));
        assert!(!stdout(&out).contains("fell short"), "{args:?}: {}", stdout(&out));
    }
}

#[test]
fn info_runs_on_every_named_topology() {
    for topo in ["abilene", "teleglobe", "geant", "figure1"] {
        let out = run(&["info", topo]);
        assert!(out.status.success(), "info {topo} failed: {}", stderr(&out));
        assert!(stdout(&out).contains("2-edge-connected:   true"), "{topo} must be protectable");
    }
}

#[test]
fn sweep_runs_topological_and_temporal_families() {
    // Topological family, streamed.
    let out = run(&["sweep", "figure1", "--family", "node", "--threads", "2"]);
    assert!(out.status.success(), "sweep node failed: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("family node"), "family header missing:\n{text}");
    assert!(text.contains("mean stretch"), "stretch summary missing:\n{text}");

    // Exhaustive k=2, streamed by unranking.
    let out = run(&["sweep", "figure1", "--family", "exhaustive", "--k", "2"]);
    assert!(out.status.success(), "sweep exhaustive failed: {}", stderr(&out));
    assert!(stdout(&out).contains("family exhaustive-2 (36 scenarios"), "{}", stdout(&out));

    // Temporal family through the discrete-event simulator.
    let out = run(&["sweep", "figure1", "--family", "outage", "--threads", "2"]);
    assert!(out.status.success(), "sweep outage failed: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("packet-recycling"), "scheme table missing:\n{text}");
    assert!(text.contains("worst PR scenario"), "worst-case line missing:\n{text}");
}

#[test]
fn sweep_stats_reports_repair_and_walks() {
    let out = run(&["sweep", "figure1", "--family", "single", "--stats", "--threads", "2"]);
    assert!(out.status.success(), "sweep --stats failed: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("spt repair:"), "repair stats line missing:\n{text}");
    // Single failures are priced: nothing is walked or chained.
    assert!(
        text.contains("walks:         0 walks, 0 chains for 0 sources, 0 steps walked"),
        "walks line missing or a single failure was walked:\n{text}"
    );
    assert!(!text.contains("memo:"), "no walk memo is left to report:\n{text}");
    // Single failures: every busy unit's cone is repaired once, by the
    // opener, and the FCP lane is priced from those labels.
    assert!(
        text.contains("spt repair:    30 repairs")
            && text.contains("fcp routes:    0 repaired (cone nodes 0)"),
        "route memo line missing or the memo repaired a cone again:\n{text}"
    );
    // Per-scheme undelivered attribution rides along on the summary.
    assert!(text.contains("(fcp 0, packet-recycling 0)"), "undelivered split missing:\n{text}");
}

#[test]
fn plain_and_sharded_sweeps_leave_the_same_artefacts_and_stats_lines() {
    let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    // A seed of its own: no other test writes this stem.
    let sweep = ["sweep", "figure1", "--family", "exhaustive", "--k", "2", "--seed", "17"];
    let stem = "sweep_figure1_exhaustive_k2_seed17";
    let artefact = |extra: &[&str], ext: &str| {
        let out = run(&[&sweep[..], extra, &["--format", ext]].concat());
        assert!(out.status.success(), "sweep {extra:?} {ext} failed: {}", stderr(&out));
        std::fs::read_to_string(results.join(format!("{stem}.{ext}"))).unwrap()
    };
    for ext in ["csv", "json"] {
        let plain = artefact(&[], ext);
        let sharded = artefact(&["--shards", "3"], ext);
        assert_eq!(plain, sharded, "plain vs --shards 3, {ext}");
        std::fs::remove_file(results.join(format!("{stem}.{ext}"))).unwrap();
        // One JSON schema: the report, never the raw samples.
        assert_eq!(ext == "json", plain.contains("\"ccdf\""), "{plain}");
        assert!(!plain.contains("\"reconvergence\""), "{plain}");
    }
    std::fs::remove_dir_all(results.join(stem)).unwrap();

    // The statistics ride along with the rows: the lines the
    // raw-sample run printed, to the digit.
    let out = run(&[&sweep[..], &["--stats", "--threads", "2"]].concat());
    assert!(out.status.success(), "sweep --stats failed: {}", stderr(&out));
    let text = stdout(&out);
    let tail = "\
affected connected pairs: 398, disconnected (excluded): 0, undelivered: 0 (fcp 0, packet-recycling 0)
mean stretch:  reconvergence 2.274  fcp 2.590  packet-recycling 3.612
spt repair:    180 repairs (0 mirrored), cone 36.9% of nodes (hit rate 63.1%), 0 full rebuilds
walks:         288 walks, 240 chains for 796 sources, 789 steps walked
fcp routes:    357 repaired (cone nodes 662)
closed forms:  fcp 0 units priced, packet-recycling 0 units priced (0 episodes), of 180 with a cone
";
    assert!(text.ends_with(tail), "{text}");
}

#[test]
fn stretch_reads_the_sweep_report() {
    let out =
        run(&["stretch", "teleglobe", "--failures", "2", "--samples", "200", "--threads", "2"]);
    assert!(out.status.success(), "stretch failed: {}", stderr(&out));
    let expected = "\
embedding genus 0
affected pairs: 19714 (200 scenarios, 2 failures each, 2 threads), undelivered: 0
mean stretch:  reconvergence 1.401  fcp 1.475  packet-recycling 3.921
P(stretch>   1):       1.0000    1.0000    1.0000
P(stretch>   2):       0.0765    0.1029    0.3956
P(stretch>   3):       0.0398    0.0448    0.2525
P(stretch>   5):       0.0239    0.0247    0.1466
P(stretch>  10):       0.0092    0.0099    0.0670
P(stretch>  15):       0.0017    0.0017    0.0391
";
    assert_eq!(stdout(&out), expected);
}

#[test]
fn a_sweep_without_samples_has_no_mean_stretch_sharded_or_not() {
    // On a path every link is a bridge: each single failure
    // disconnects every pair it affects, so no scheme gets a sample.
    let topo = std::env::temp_dir().join("pr-cli-smoke-path3.topo");
    std::fs::write(&topo, "node A\nnode B\nnode C\nlink A B 1\nlink B C 1\n").unwrap();
    let topo = topo.to_str().unwrap();
    // The sharded run's checkpoint directory under results/ is named
    // after the topology path.
    let slug: String =
        topo.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '-' }).collect();
    let checkpoints = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(format!("sweep_{slug}_single"));
    for command in [
        vec!["sweep", topo, "--family", "single"],
        vec!["sweep", topo, "--family", "single", "--shards", "2"],
        vec!["stretch", topo],
    ] {
        let out = run(&command);
        assert!(out.status.success(), "{command:?} failed: {}", stderr(&out));
        let text = stdout(&out);
        assert!(
            text.contains("mean stretch:  reconvergence NaN  fcp NaN  packet-recycling NaN"),
            "{command:?} must not print a mean it does not have:\n{text}"
        );
    }
    std::fs::remove_file(topo).unwrap();
    std::fs::remove_dir_all(checkpoints).unwrap();
}

#[test]
fn sweep_rejects_unknown_family_and_srlg_without_coordinates() {
    let out = run(&["sweep", "figure1", "--family", "cosmic-rays"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("cosmic-rays"));

    // figure1 carries no PoP coordinates, so srlg must refuse clearly.
    let out = run(&["sweep", "figure1", "--family", "srlg"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("coordinates"));
}

#[test]
fn traffic_reports_weighted_metrics_end_to_end() {
    let out =
        run(&["traffic", "abilene", "--model", "gravity", "--family", "single", "--threads", "2"]);
    assert!(out.status.success(), "traffic failed: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("model gravity/all-pairs"), "model header missing:\n{text}");
    assert!(text.contains("weighted coverage:"), "coverage line missing:\n{text}");
    assert!(text.contains("demand lost:"), "loss line missing:\n{text}");
    assert!(text.contains("max link utilisation:"), "utilisation line missing:\n{text}");
}

#[test]
fn traffic_and_sweep_reject_misplaced_family_flags() {
    let out = run(&["sweep", "figure1", "--family", "single", "--radius", "500"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("--radius"), "{}", stderr(&out));

    let out = run(&["traffic", "figure1", "--model", "uniform", "--k", "3"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("--k"), "{}", stderr(&out));
}

#[test]
fn walk_delivers_around_a_failure_end_to_end() {
    // The paper's §4.3 walkthrough: A -> F on Figure 1 with D-E down.
    let out = run(&["walk", "figure1", "A", "F", "--fail", "D-E"]);
    assert!(out.status.success(), "walk failed: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("DELIVERED at F"), "packet must be delivered:\n{text}");
    assert!(text.contains("stretch:"), "stretch must be reported:\n{text}");
}

#[test]
fn a_basic_mode_walk_states_the_rule_it_terminates_by() {
    // §4.2 stamps no discriminator: basic mode ends cycle following
    // where the failure is met again, and the trace says so rather than
    // comparing a DD it never read.
    let out = run(&[
        "walk",
        "abilene",
        "Seattle",
        "Atlanta",
        "--fail",
        "Seattle-Denver",
        "--fail",
        "Sunnyvale-LosAngeles",
        "--mode",
        "basic",
    ]);
    assert!(out.status.success(), "walk failed: {}", stderr(&out));
    let text = stdout(&out);
    assert!(
        text.contains("Sunnyvale -> Denver [PR=0 DD=0]  termination: failure met again, clear PR"),
        "{text}"
    );
    assert!(!text.contains("own DD"), "basic mode has no DD to compare:\n{text}");
    assert!(text.contains("DELIVERED at Atlanta"), "{text}");
}

#[test]
fn experiment_without_a_known_name_lists_the_rows_and_exits_2() {
    let rows = [
        "table1",
        "fig1",
        "fig2",
        "coverage",
        "overheads",
        "oc192",
        "impair-loss",
        "ablation-embedding",
        "ablation-dd",
        "ablation-genus",
    ];
    for command in [vec!["experiment"], vec!["experiment", "fig3"]] {
        let out = run(&command);
        assert_eq!(out.status.code(), Some(2), "{command:?}");
        let err = stderr(&out);
        assert!(err.contains(&format!("experiment wants {}", rows.join("|"))), "{err}");
        assert!(err.contains("EXPERIMENTS"), "usage must list the rows:\n{err}");
    }
    // The second argv parser let `--thread 4` through in silence.
    let out = run(&["experiment", "overheads", "--thread", "4"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("unknown option --thread"), "{}", stderr(&out));
}

#[test]
fn experiment_rows_run_and_leave_their_artefacts() {
    let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    for (row, says, artefact) in [
        ("table1", "I_BD       I_DF (c0)          I_DE (c4)", None),
        ("fig1", "link D-E down: set PR, stamp DD=2", None),
        ("overheads", "E8: header & state overheads", Some("overheads.json")),
        ("ablation-dd", "E7: distance-discriminator", Some("ablation_dd.json")),
    ] {
        if let Some(artefact) = artefact {
            let _ = std::fs::remove_file(results.join(artefact));
        }
        let out = run(&["experiment", row, "--threads", "2"]);
        assert!(out.status.success(), "experiment {row} failed: {}", stderr(&out));
        assert!(stdout(&out).contains(says), "experiment {row}:\n{}", stdout(&out));
        if let Some(artefact) = artefact {
            assert!(results.join(artefact).is_file(), "experiment {row} must write {artefact}");
        }
    }
}
