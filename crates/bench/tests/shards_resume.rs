//! The sharding contract: a sweep killed after k shards — or at any
//! write boundary of a shard — and resumed from its checkpoint merges
//! to output **byte-identical** to a clean, uninterrupted run — at any
//! shard count — on a shipped topology and on a synthetic ISP mesh.

use std::path::PathBuf;

use pr_bench::shards::{run_shards, shard_file, ShardKey, ShardManifest, ShardOutcome};
use pr_bench::stretch::{self, ScenarioRow};
use pr_core::PrNetwork;
use pr_graph::Graph;
use pr_scenarios::{ScenarioFamily, ScenarioSlice, SingleLinkFailures};
use pr_testkit::nets::{synth, Net};

/// A scratch checkpoint directory under the test-private tmp dir.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("shards").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn key_for(graph: &Graph, pr: &PrNetwork, family: &dyn ScenarioFamily, shards: u64) -> ShardKey {
    ShardKey {
        topology: graph.fingerprint(),
        nodes: graph.node_count() as u64,
        links: graph.link_count() as u64,
        embedding: pr.embedding().rotation().fingerprint(),
        family: family.label(),
        seed: 2010,
        scenarios: family.len() as u64,
        shards,
    }
}

/// Kill-after-k-shards on one topology: every merged output (rows, CSV
/// artefact, JSON report) must be byte-identical to the clean run's.
fn kill_and_resume_is_byte_identical(Net { g: graph, pr, .. }: &Net, name: &str) {
    let family = SingleLinkFailures::new(graph);
    let xs = stretch::figure2_xs();
    let run_slice = |_shard: usize, start: usize, len: usize| {
        let slice = ScenarioSlice::new(&family, start, len);
        stretch::run_rows(graph, pr, &slice, 2, start).0
    };

    // The reference: a plain, unsharded sweep over raw samples.
    let plain_csv = stretch::panel_csv(&stretch::run(graph, pr, &family, 2), &xs);

    // Clean sharded run.
    let clean_dir = scratch_dir(&format!("{name}-clean"));
    let key = key_for(graph, pr, &family, 3);
    let clean = match run_shards(&clean_dir, &key, false, None, run_slice).unwrap() {
        ShardOutcome::Complete(rows) => rows,
        partial => panic!("clean run stopped early: {partial:?}"),
    };
    assert_eq!(
        stretch::RowTotals::of(&clean, &xs).panel_csv(),
        plain_csv,
        "sharded CSV must equal the plain unsharded artefact byte for byte"
    );

    // Killed after 1 of 3 shards, then resumed.
    let dir = scratch_dir(&format!("{name}-killed"));
    match run_shards(&dir, &key, false, Some(1), run_slice).unwrap() {
        ShardOutcome::Partial { completed, total } => {
            assert_eq!((completed, total), (1, 3));
        }
        done => panic!("expected a partial checkpoint, got {done:?}"),
    }
    assert!(shard_file(&dir, 0).is_file(), "the finished shard must be checkpointed");
    assert!(!shard_file(&dir, 2).is_file(), "unreached shards must not exist");
    let resumed = match run_shards(&dir, &key, true, None, run_slice).unwrap() {
        ShardOutcome::Complete(rows) => rows,
        partial => panic!("resume did not complete: {partial:?}"),
    };
    assert_eq!(resumed, clean, "resumed rows must equal the clean run's");
    let report = |rows: &[ScenarioRow]| {
        serde_json::to_string_pretty(&stretch::RowTotals::of(rows, &xs).report()).unwrap()
    };
    assert_eq!(report(&resumed), report(&clean), "JSON report byte-identical");
    assert_eq!(stretch::RowTotals::of(&resumed, &xs).panel_csv(), plain_csv);

    // Resuming an already-complete checkpoint recomputes nothing and
    // merges identically.
    let again = match run_shards(&dir, &key, true, Some(0), run_slice).unwrap() {
        ShardOutcome::Complete(rows) => rows,
        partial => panic!("complete checkpoint reported {partial:?}"),
    };
    assert_eq!(again, clean);
}

#[test]
fn abilene_kill_and_resume_is_byte_identical() {
    kill_and_resume_is_byte_identical(&Net::abilene(), "abilene");
}

#[test]
fn synthetic_mesh_kill_and_resume_is_byte_identical() {
    kill_and_resume_is_byte_identical(&Net::searched(synth("isp:24:2010")), "mesh24");
}

#[test]
fn merged_rows_are_shard_count_invariant() {
    let Net { g, pr, .. } = Net::abilene();
    let family = SingleLinkFailures::new(&g);
    let run_slice = |_shard: usize, start: usize, len: usize| {
        let slice = ScenarioSlice::new(&family, start, len);
        stretch::run_rows(&g, &pr, &slice, 2, start).0
    };
    let mut merged: Vec<Vec<ScenarioRow>> = Vec::new();
    for shards in [1u64, 4, 7] {
        let dir = scratch_dir(&format!("abilene-{shards}shards"));
        let key = key_for(&g, &pr, &family, shards);
        match run_shards(&dir, &key, false, None, run_slice).unwrap() {
            ShardOutcome::Complete(rows) => merged.push(rows),
            partial => panic!("{partial:?}"),
        }
    }
    assert_eq!(merged[0], merged[1], "1 vs 4 shards");
    assert_eq!(merged[0], merged[2], "1 vs 7 shards");
}

#[test]
fn resume_rejects_a_mismatched_checkpoint() {
    let Net { g, pr, .. } = Net::abilene();
    let family = SingleLinkFailures::new(&g);
    let run_slice = |_shard: usize, start: usize, len: usize| {
        let slice = ScenarioSlice::new(&family, start, len);
        stretch::run_rows(&g, &pr, &slice, 1, start).0
    };
    let dir = scratch_dir("abilene-mismatch");
    let key = key_for(&g, &pr, &family, 3);
    match run_shards(&dir, &key, false, Some(1), run_slice).unwrap() {
        ShardOutcome::Partial { .. } => {}
        done => panic!("{done:?}"),
    }
    // Same directory, different shard plan: refuse to mix.
    let other = ShardKey { shards: 5, ..key.clone() };
    let err = run_shards(&dir, &other, true, None, run_slice).unwrap_err();
    assert!(err.contains("different sweep"), "{err}");
    // …different topology: refuse too.
    let other = ShardKey { topology: key.topology ^ 1, ..key.clone() };
    let err = run_shards(&dir, &other, true, None, run_slice).unwrap_err();
    assert!(err.contains("different sweep"), "{err}");
    // …different embedding (on an unlocated graph `--restarts` and
    // `--iterations` pick it, and every PR walk follows from it):
    // shards walked on two embeddings merge into neither's answer.
    let other = ShardKey { embedding: key.embedding ^ 1, ..key.clone() };
    let err = run_shards(&dir, &other, true, None, run_slice).unwrap_err();
    assert!(err.contains("different sweep") && err.contains("embedding"), "{err}");
    // A manifest from before the embedding was recorded cannot vouch
    // for its shards: the error names the missing field.
    let manifest = dir.join("manifest.json");
    let text = std::fs::read_to_string(&manifest).unwrap();
    let legacy: String = text.lines().filter(|l| !l.contains("\"embedding\"")).collect();
    assert_ne!(legacy.len(), text.len());
    std::fs::write(&manifest, legacy).unwrap();
    let err = run_shards(&dir, &key, true, None, run_slice).unwrap_err();
    assert!(err.contains("missing field `embedding`"), "{err}");
    // Without resume the stale checkpoint is cleared, not mixed in.
    let other = ShardKey { shards: 5, ..key };
    match run_shards(&dir, &other, false, None, run_slice).unwrap() {
        ShardOutcome::Complete(rows) => assert_eq!(rows.len(), family.len()),
        partial => panic!("{partial:?}"),
    }
}

#[test]
fn resume_recovers_from_a_lost_shard_file() {
    let Net { g, pr, .. } = Net::abilene();
    let family = SingleLinkFailures::new(&g);
    let run_slice = |_shard: usize, start: usize, len: usize| {
        let slice = ScenarioSlice::new(&family, start, len);
        stretch::run_rows(&g, &pr, &slice, 1, start).0
    };
    let dir = scratch_dir("abilene-lostfile");
    let key = key_for(&g, &pr, &family, 3);
    let clean = match run_shards(&dir, &key, false, None, run_slice).unwrap() {
        ShardOutcome::Complete(rows) => rows,
        partial => panic!("{partial:?}"),
    };
    // A shard file vanishes (manifest still lists it): resume must
    // recompute that shard, not fail or skip it.
    std::fs::remove_file(shard_file(&dir, 1)).unwrap();
    let recovered = match run_shards(&dir, &key, true, None, run_slice).unwrap() {
        ShardOutcome::Complete(rows) => rows,
        partial => panic!("{partial:?}"),
    };
    assert_eq!(recovered, clean);
}

#[test]
fn a_kill_at_every_write_boundary_resumes_to_the_clean_run() {
    // `run_shards` lands a shard in four writes: the payload to
    // `shard-NNN.tmp`, its rename to `shard-NNN.json`, the manifest
    // listing it to `manifest.tmp`, that rename to `manifest.json`. A
    // kill right after any of them — or halfway through a temp file —
    // leaves the directory built here from a clean run's files, and a
    // resume from it must merge to the clean run's rows, CSV and JSON.
    let Net { g, pr, .. } = Net::abilene();
    let family = SingleLinkFailures::new(&g);
    let xs = stretch::figure2_xs();
    let run_slice = |_shard: usize, start: usize, len: usize| {
        let slice = ScenarioSlice::new(&family, start, len);
        stretch::run_rows(&g, &pr, &slice, 2, start).0
    };
    let key = key_for(&g, &pr, &family, 3);
    let clean_dir = scratch_dir("abilene-boundaries-clean");
    let clean = match run_shards(&clean_dir, &key, false, None, run_slice).unwrap() {
        ShardOutcome::Complete(rows) => rows,
        partial => panic!("clean run stopped early: {partial:?}"),
    };
    let payload = |shard: usize| std::fs::read(shard_file(&clean_dir, shard)).unwrap();
    let manifest = |done: usize| {
        let completed = (0..done as u64).collect();
        let manifest = ShardManifest { key: key.clone(), completed };
        serde_json::to_string_pretty(&manifest).unwrap().into_bytes()
    };
    let half = |bytes: Vec<u8>| bytes[..bytes.len() / 2].to_vec();
    let artefacts = |rows: &[ScenarioRow]| {
        let report =
            serde_json::to_string_pretty(&stretch::RowTotals::of(rows, &xs).report()).unwrap();
        (stretch::RowTotals::of(rows, &xs).panel_csv(), report)
    };

    let mut resumed_from = 0;
    for shard in 0..key.shards as usize {
        let payload_tmp = format!("shard-{shard:03}.tmp");
        let manifest_tmp = "manifest.tmp".to_string();
        // Each boundary of this shard: how many payloads have landed,
        // and the one file written past the earlier shards' manifest.
        let landed = [shard, shard, shard + 1, shard + 1, shard + 1, shard + 1];
        let written = [
            ("payload half written", Some((payload_tmp.clone(), half(payload(shard))))),
            ("payload written", Some((payload_tmp, payload(shard)))),
            ("payload renamed", None),
            ("manifest half written", Some((manifest_tmp.clone(), half(manifest(shard + 1))))),
            ("manifest written", Some((manifest_tmp, manifest(shard + 1)))),
            ("manifest renamed", Some(("manifest.json".to_string(), manifest(shard + 1)))),
        ];
        for (payloads, (boundary, file)) in landed.into_iter().zip(written) {
            let dir =
                scratch_dir(&format!("abilene-boundary-{shard}-{}", boundary.replace(' ', "-")));
            std::fs::create_dir_all(&dir).unwrap();
            for earlier in 0..payloads {
                std::fs::write(shard_file(&dir, earlier), payload(earlier)).unwrap();
            }
            if shard > 0 {
                std::fs::write(dir.join("manifest.json"), manifest(shard)).unwrap();
            }
            if let Some((name, contents)) = file {
                std::fs::write(dir.join(name), contents).unwrap();
            }
            let at = format!("killed at shard {shard}, {boundary}");
            let resumed = match run_shards(&dir, &key, true, None, run_slice) {
                Ok(ShardOutcome::Complete(rows)) => rows,
                other => panic!("{at}: {other:?}"),
            };
            assert_eq!(resumed, clean, "{at}: rows");
            assert_eq!(artefacts(&resumed), artefacts(&clean), "{at}: CSV and JSON");
            resumed_from += 1;
        }
    }
    assert_eq!(resumed_from, 18, "every boundary of every shard");
}
