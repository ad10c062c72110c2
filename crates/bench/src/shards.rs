//! Checkpointable sweep sharding.
//!
//! An ISP-scale sweep (1,000 nodes × every single-link failure) runs
//! for minutes; a killed run that restarts from scratch wastes all of
//! it. This module splits a [`ScenarioFamily`](pr_scenarios::ScenarioFamily)
//! index range into contiguous shards, runs each shard as an ordinary
//! engine sweep (full thread parallelism *inside* the shard), and
//! persists each finished shard as `results/<sweep>/shard-NNN.json`
//! next to a `manifest.json` recording the sweep identity and the
//! completed shard set. A resumed run re-reads the manifest, skips the
//! finished shards, and merges everything in index order — so the
//! merged output is bit-identical to an uninterrupted run at any
//! thread or shard count.
//!
//! ## Manifest format
//!
//! `manifest.json` holds a [`ShardManifest`]: the [`ShardKey`]
//! identity (topology fingerprint + node/link counts, embedding
//! fingerprint, family label, seed, scenario total, shard count) and
//! the sorted list of completed shard indices. A resume against a
//! manifest whose key differs — different topology bytes, embedding,
//! family parameters, seed or shard plan — is a hard error rather than
//! a silently mixed result. Each shard
//! file holds a [`ShardPayload`]: its index range plus one
//! [`ScenarioRow`] per scenario (O(1) size per scenario — integer
//! CCDF counts, sums and maxima — so checkpoints stay kilobytes at any
//! scale).
//!
//! Both files are written via temp-file-then-rename, so a kill mid
//! write leaves either the previous state or the new one, never a
//! torn file. The manifest is rewritten *after* its shard file lands,
//! so a crash between the two at worst forgets one finished shard.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::stretch::ScenarioRow;

/// Identity of a sharded sweep: everything that must match for a
/// checkpoint to be resumable.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardKey {
    /// [`pr_graph::Graph::fingerprint`] of the swept topology.
    pub topology: u64,
    /// Node count (redundant with the fingerprint; kept for humans).
    pub nodes: u64,
    /// Link count (ditto).
    pub links: u64,
    /// [`pr_embedding::RotationSystem::fingerprint`] of the embedding
    /// the sweep walks on: on a graph without a canonical embedding the
    /// search parameters decide it, and with it every PR walk.
    pub embedding: u64,
    /// Scenario-family label, including its parameters.
    pub family: String,
    /// Experiment seed the sweep ran under.
    pub seed: u64,
    /// Total number of scenarios in the family.
    pub scenarios: u64,
    /// Number of shards the scenario range is split into.
    pub shards: u64,
}

impl ShardKey {
    /// The identity as the mismatch error prints it.
    fn describe(&self) -> String {
        format!(
            "topology {:#018x}, embedding {:#018x}, family {:?}, seed {}, {} scenarios / {} shards",
            self.topology, self.embedding, self.family, self.seed, self.scenarios, self.shards
        )
    }
}

/// `manifest.json`: the sweep identity plus the completed shard set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardManifest {
    /// Sweep identity; must match exactly for a resume.
    pub key: ShardKey,
    /// Completed shard indices, sorted ascending.
    pub completed: Vec<u64>,
}

/// One `shard-NNN.json` checkpoint: the shard's scenario range and its
/// per-scenario rows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardPayload {
    /// Shard index.
    pub shard: u64,
    /// First scenario index covered.
    pub start: u64,
    /// Number of scenarios covered.
    pub len: u64,
    /// One row per scenario, in scenario order.
    pub rows: Vec<ScenarioRow>,
}

/// What [`run_shards`] left behind.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardOutcome {
    /// Every shard is done; the merged rows, in scenario order.
    Complete(Vec<ScenarioRow>),
    /// Stopped early (`stop_after`); rerun with resume to continue.
    Partial {
        /// Shards finished so far (including previously checkpointed
        /// ones).
        completed: usize,
        /// Total shards in the plan.
        total: usize,
    },
}

/// Splits `scenarios` indices into `shards` contiguous near-equal
/// ranges `(start, len)`; the first `scenarios % shards` ranges get
/// one extra scenario.
pub fn shard_ranges(scenarios: usize, shards: usize) -> Vec<(usize, usize)> {
    let shards = shards.max(1);
    let (base, rem) = (scenarios / shards, scenarios % shards);
    let mut out = Vec::with_capacity(shards);
    let mut start = 0;
    for i in 0..shards {
        let len = base + usize::from(i < rem);
        out.push((start, len));
        start += len;
    }
    out
}

/// Path of shard `i`'s checkpoint file under `dir`.
pub fn shard_file(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard:03}.json"))
}

fn manifest_file(dir: &Path) -> PathBuf {
    dir.join("manifest.json")
}

/// Write-then-rename so a kill mid-write never leaves a torn file.
fn write_atomic(path: &Path, contents: &str) -> Result<(), String> {
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, contents).map_err(|e| format!("write {}: {e}", tmp.display()))?;
    fs::rename(&tmp, path)
        .map_err(|e| format!("rename {} -> {}: {e}", tmp.display(), path.display()))
}

/// Removes any previous checkpoint state under `dir` (manifest, shard
/// files, stray temp files) so a fresh run cannot mix with stale
/// shards.
fn clear_checkpoint(dir: &Path) -> Result<(), String> {
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(_) => return Ok(()), // nothing to clear
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let stale = name == "manifest.json"
            || name == "manifest.tmp"
            || (name.starts_with("shard-") && (name.ends_with(".json") || name.ends_with(".tmp")));
        if stale {
            fs::remove_file(entry.path())
                .map_err(|e| format!("remove stale {}: {e}", entry.path().display()))?;
        }
    }
    Ok(())
}

/// Runs a sharded, checkpointable sweep under `dir`.
///
/// `run_slice(shard, start, len)` sweeps scenarios `[start, start+len)`
/// and returns one [`ScenarioRow`] per scenario (see
/// `stretch::run_rows` with a
/// [`ScenarioSlice`](pr_scenarios::ScenarioSlice)); it is called
/// sequentially per shard, with the engine's thread parallelism inside.
///
/// * `resume = false`: any existing checkpoint under `dir` is cleared
///   and every shard runs.
/// * `resume = true`: a matching manifest's completed shards are
///   skipped; a manifest for a *different* sweep (topology,
///   embedding, family, seed or shard plan changed) is a hard error.
/// * `stop_after = Some(k)`: stop after `k` newly computed shards (the
///   checkpoint stays resumable) — this is the kill-injection hook the
///   resume tests and the CI smoke use.
///
/// Completion merges every shard file in index order; the merge
/// re-reads even freshly written shards, so clean and resumed runs
/// traverse the identical serialise/parse path and their merged rows
/// are byte-identical.
pub fn run_shards(
    dir: &Path,
    key: &ShardKey,
    resume: bool,
    stop_after: Option<usize>,
    mut run_slice: impl FnMut(usize, usize, usize) -> Vec<ScenarioRow>,
) -> Result<ShardOutcome, String> {
    fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let manifest_path = manifest_file(dir);

    let mut done: BTreeSet<u64> = BTreeSet::new();
    if !resume {
        clear_checkpoint(dir)?;
    } else if manifest_path.exists() {
        let text = fs::read_to_string(&manifest_path)
            .map_err(|e| format!("read {}: {e}", manifest_path.display()))?;
        let manifest: ShardManifest = serde_json::from_str(&text).map_err(|e| {
            format!(
                "corrupt checkpoint manifest {} ({e}); delete the directory to start fresh",
                manifest_path.display()
            )
        })?;
        if manifest.key != *key {
            return Err(format!(
                "checkpoint at {} belongs to a different sweep (recorded: {}; requested: {}) — \
                 rerun without --resume to start fresh",
                dir.display(),
                manifest.key.describe(),
                key.describe(),
            ));
        }
        done.extend(manifest.completed.iter().copied().filter(|&s| s < key.shards));
    }

    let ranges = shard_ranges(key.scenarios as usize, key.shards as usize);
    let mut fresh = 0usize;
    for (i, &(start, len)) in ranges.iter().enumerate() {
        if done.contains(&(i as u64)) {
            if shard_file(dir, i).exists() {
                continue; // checkpointed; validated at merge time
            }
            done.remove(&(i as u64)); // manifest ahead of a lost file
        }
        if stop_after.is_some_and(|cap| fresh >= cap) {
            break;
        }
        let rows = run_slice(i, start, len);
        if rows.len() != len {
            return Err(format!("shard {i} produced {} rows for {len} scenarios", rows.len()));
        }
        let payload = ShardPayload { shard: i as u64, start: start as u64, len: len as u64, rows };
        let text = serde_json::to_string_pretty(&payload)
            .map_err(|e| format!("serialise shard {i}: {e}"))?;
        write_atomic(&shard_file(dir, i), &text)?;
        done.insert(i as u64);
        let manifest =
            ShardManifest { key: key.clone(), completed: done.iter().copied().collect() };
        let text = serde_json::to_string_pretty(&manifest)
            .map_err(|e| format!("serialise manifest: {e}"))?;
        write_atomic(&manifest_path, &text)?;
        fresh += 1;
    }

    if done.len() < ranges.len() {
        return Ok(ShardOutcome::Partial { completed: done.len(), total: ranges.len() });
    }

    // Merge in index order, validating every payload against the plan
    // and the row shape every reader of the merged rows asserts.
    let thresholds = 3 * crate::stretch::figure2_xs().len();
    let mut rows = Vec::with_capacity(key.scenarios as usize);
    for (i, &(start, len)) in ranges.iter().enumerate() {
        let path = shard_file(dir, i);
        let text =
            fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let payload: ShardPayload = serde_json::from_str(&text).map_err(|e| {
            format!("corrupt shard file {} ({e}); delete it and rerun with resume", path.display())
        })?;
        if payload.shard != i as u64
            || payload.start != start as u64
            || payload.len != len as u64
            || payload.rows.len() != len
            || payload
                .rows
                .iter()
                .enumerate()
                .any(|(j, r)| r.scenario != (start + j) as u64 || r.above.len() != thresholds)
        {
            return Err(format!(
                "shard file {} does not match the shard plan (expected shard {i} covering \
                 [{start}, {})); delete it and rerun with resume",
                path.display(),
                start + len
            ));
        }
        rows.extend(payload.rows);
    }
    Ok(ShardOutcome::Complete(rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_partition_contiguously() {
        for (scenarios, shards) in [(10, 3), (7, 7), (5, 8), (0, 4), (100, 1)] {
            let ranges = shard_ranges(scenarios, shards);
            assert_eq!(ranges.len(), shards);
            let mut next = 0;
            for &(start, len) in &ranges {
                assert_eq!(start, next, "{scenarios}/{shards}");
                next += len;
            }
            assert_eq!(next, scenarios, "{scenarios}/{shards}");
            let lens: Vec<usize> = ranges.iter().map(|&(_, l)| l).collect();
            let (lo, hi) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
            assert!(hi - lo <= 1, "near-equal split: {lens:?}");
        }
        assert_eq!(shard_ranges(5, 0), vec![(0, 5)], "zero shards clamps to one");
    }

    #[test]
    fn manifest_round_trips() {
        let manifest = ShardManifest {
            key: ShardKey {
                topology: 0xDEAD_BEEF,
                nodes: 11,
                links: 14,
                embedding: 0xFACE,
                family: "single-link".into(),
                seed: 2010,
                scenarios: 14,
                shards: 4,
            },
            completed: vec![0, 2],
        };
        let text = serde_json::to_string_pretty(&manifest).unwrap();
        let back: ShardManifest = serde_json::from_str(&text).unwrap();
        assert_eq!(back, manifest);
    }
}
