//! The parallel scenario-sweep engine.
//!
//! Every quantitative experiment in this harness is the same shape: a
//! huge loop over (failure scenario × destination × source) triples,
//! walking packets under several schemes. This module factors that
//! shape out once, so every experiment gets the same three
//! optimisations:
//!
//! * **Failure-invariant hoisting** — the failure-free shortest-path
//!   trees ([`AllPairs`]), compiled agents and the TTL do not depend on
//!   the scenario, so the engine computes them once per sweep instead
//!   of once per scenario (the seed harness rebuilt
//!   `SpTree::towards_all_live` inside the scenario loop).
//! * **Work-unit parallelism** — the sweep decomposes into independent
//!   `(scenario, destination)` units, fanned out over a hand-rolled
//!   [`std::thread::scope`] worker pool: a chunked work queue over an
//!   [`AtomicUsize`] cursor (the container has no crates.io access, so
//!   no rayon). Each worker owns private scratch state (walk scratches,
//!   FCP route caches) created by a caller-supplied factory.
//! * **Deterministic merge** — every unit result is tagged with its
//!   unit index and merged in index order, so the output is
//!   bit-identical to the serial scenario-major/destination-minor loop
//!   regardless of thread count. `tests/determinism.rs` enforces this.
//!
//! The engine takes its thread count as an argument. `pr-cli` reads it
//! from `--threads N` on `stretch`, `sweep`, `traffic`, `impair` and
//! `daemon run`,
//! the experiment binaries through [`threads_from_args`]; both fall
//! back to [`default_threads`] (`PR_THREADS`, else the machine's
//! available parallelism).
//!
//! Workers only scale if a work closure leaves the allocator alone in
//! the steady state: per-worker scratch is reset in place and the
//! unit's result is the only allocation (DESIGN.md, "allocator
//! discipline", has the measurement that made this a rule).

use std::sync::atomic::{AtomicUsize, Ordering};

use pr_graph::{AllPairs, Graph, LinkSet, NodeId, SpTree};
use pr_scenarios::ScenarioFamily;

pub use crate::shards::run_shards;

/// Largest number of work units a worker claims per queue
/// interaction. Units are coarse (a destination's whole source fan
/// under one scenario), so a small cap keeps the tail balanced while
/// the atomic traffic stays negligible.
const MAX_CHUNK: usize = 4;

/// Chunk size for a queue of `count` units over `workers` workers:
/// capped so small inputs (e.g. three topologies over eight workers)
/// still spread one unit per worker instead of letting the first
/// fetch-add swallow the whole queue.
fn chunk_size(count: usize, workers: usize) -> usize {
    (count / (workers * 4)).clamp(1, MAX_CHUNK)
}

/// The machine's parallelism, overridable via `PR_THREADS`. A
/// malformed `PR_THREADS` is reported on stderr (and ignored) rather
/// than silently changing the thread count a benchmark was meant to
/// run at.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("PR_THREADS") {
        match v.trim().parse::<usize>() {
            Ok(n) => return n.max(1),
            Err(_) => eprintln!(
                "warning: ignoring invalid PR_THREADS={v:?} (expected a positive integer)"
            ),
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Parses `--threads N` from an argument stream (`--threads=N` also
/// accepted). `Ok(None)` when absent; `Err` on a missing or
/// non-numeric value — callers must not guess a thread count the user
/// visibly tried to pin.
pub fn parse_threads(args: impl IntoIterator<Item = String>) -> Result<Option<usize>, String> {
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        let value = if arg == "--threads" {
            Some(iter.next().ok_or("option --threads needs a value".to_string())?)
        } else {
            arg.strip_prefix("--threads=").map(str::to_string)
        };
        if let Some(v) = value {
            return match v.trim().parse::<usize>() {
                Ok(n) => Ok(Some(n.max(1))),
                Err(_) => {
                    Err(format!("bad value {v:?} for --threads: expected a positive integer"))
                }
            };
        }
    }
    Ok(None)
}

/// Thread count for an experiment binary: `--threads` from the process
/// arguments, else [`default_threads`]. Exits with usage status 2 on a
/// malformed `--threads` (benchmark numbers recorded at a silently
/// wrong thread count are worse than no numbers).
pub fn threads_from_args() -> usize {
    match parse_threads(std::env::args().skip(1)) {
        Ok(Some(n)) => n,
        Ok(None) => default_threads(),
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    }
}

/// Runs `f` over every item of `items` on `threads` workers, returning
/// the results in item order (bit-identical to a serial `map`).
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    run_indexed(items.len(), threads, &|| (), &|(), idx| f(idx, &items[idx]))
}

/// The generic work-unit entry point: runs `work` over unit indices
/// `0..count` on `threads` workers, each owning private state built by
/// `init`, with results merged back in unit order (bit-identical to
/// the serial loop `(0..count).map(...)` at any thread count).
///
/// [`ScenarioSweep`] specialises this to `(scenario × destination)`
/// link-sweep units; temporal sweeps use it directly with one unit per
/// timed scenario; any future experiment shape plugs in the same way.
pub fn run_units<W, R, I, F>(count: usize, threads: usize, init: I, work: F) -> Vec<R>
where
    R: Send,
    I: Fn() -> W + Sync,
    F: Fn(&mut W, usize) -> R + Sync,
{
    run_indexed(count, threads, &init, &|w, idx| work(w, idx))
}

/// One unit of sweep work: every source towards `dst` under scenario
/// `scenario`, with the hoisted failure-free tree already in hand.
#[derive(Debug, Clone, Copy)]
pub struct SweepUnit<'a> {
    /// Index of the scenario in the sweep's scenario family.
    pub scenario: usize,
    /// The scenario's failed links.
    pub failed: &'a LinkSet,
    /// The destination this unit covers.
    pub dst: NodeId,
    /// Failure-free shortest-path tree towards `dst` (hoisted: shared
    /// by every scenario).
    pub base_tree: &'a SpTree,
}

/// A sweep over (scenario × destination) work units, **streaming** its
/// scenarios from a [`ScenarioFamily`]: scenario `s` is constructed on
/// the worker that claims its units (and cached while that worker
/// stays on `s` — the chunked queue hands out contiguous unit ranges,
/// so a scenario is typically built once per worker, not once per
/// unit). No `Vec<LinkSet>` ever exists, which is what lets exhaustive
/// k≥3 spaces and large generated topologies sweep at O(workers)
/// scenario memory.
///
/// Construction hoists nothing by itself — the caller supplies the
/// [`AllPairs`] base trees so sweeps sharing a topology can also share
/// the hoisted state (e.g. coverage's per-failure-count rounds).
#[derive(Clone, Copy)]
pub struct ScenarioSweep<'a> {
    graph: &'a Graph,
    family: &'a dyn ScenarioFamily,
    base: &'a AllPairs,
    threads: usize,
}

impl<'a> ScenarioSweep<'a> {
    /// A sweep of `family`'s scenarios on `graph` using `threads`
    /// workers. An explicit `Vec<LinkSet>` works too (it implements
    /// [`ScenarioFamily`]).
    pub fn new(
        graph: &'a Graph,
        family: &'a dyn ScenarioFamily,
        base: &'a AllPairs,
        threads: usize,
    ) -> ScenarioSweep<'a> {
        ScenarioSweep { graph, family, base, threads: threads.max(1) }
    }

    /// The topology under sweep.
    pub fn graph(&self) -> &'a Graph {
        self.graph
    }

    /// The scenario family under sweep.
    pub fn family(&self) -> &'a dyn ScenarioFamily {
        self.family
    }

    /// The hoisted failure-free trees.
    pub fn base(&self) -> &'a AllPairs {
        self.base
    }

    /// Worker count this sweep fans out to.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Total number of (scenario × destination) work units.
    pub fn unit_count(&self) -> usize {
        self.family.len() * self.graph.node_count()
    }

    /// Executes the sweep. `init` builds one worker-local state (walk
    /// scratches, cached agents, …) per worker thread; `work` maps one
    /// unit to its partial result. Results come back in unit order —
    /// scenario-major, destination-minor — exactly as the serial
    /// nested loop would produce them.
    pub fn run<W, R, I, F>(&self, init: I, work: F) -> Vec<R>
    where
        R: Send,
        I: Fn() -> W + Sync,
        F: Fn(&mut W, SweepUnit<'_>) -> R + Sync,
    {
        self.run_with(init, |_, _| (), work)
    }

    /// [`ScenarioSweep::run`] with a scenario-boundary hook: the engine
    /// already tracks when a worker's claimed unit crosses into a new
    /// scenario (to rebuild its cached [`LinkSet`]), so `on_scenario`
    /// fires exactly there — once per (worker, scenario) visit, before
    /// any of that scenario's units run on the worker. This is where
    /// per-scenario worker state gets evicted (e.g. the FCP route
    /// memo, whose live keys are subsets of the current scenario — see
    /// `FcpAgent::begin_scenario` in pr-baselines).
    pub fn run_with<W, R, I, B, F>(&self, init: I, on_scenario: B, work: F) -> Vec<R>
    where
        R: Send,
        I: Fn() -> W + Sync,
        B: Fn(&mut W, usize) + Sync,
        F: Fn(&mut W, SweepUnit<'_>) -> R + Sync,
    {
        let n = self.graph.node_count();
        // Worker state = caller state + the worker's current scenario
        // (rebuilt only when the claimed unit crosses a scenario
        // boundary).
        let worker_init = || (init(), usize::MAX, LinkSet::empty(self.family.link_capacity()));
        run_indexed(self.unit_count(), self.threads, &worker_init, &|state, idx| {
            let (w, cached_scenario, failed) = state;
            let (scenario, dst) = (idx / n, NodeId((idx % n) as u32));
            if *cached_scenario != scenario {
                *failed = self.family.scenario(scenario);
                *cached_scenario = scenario;
                on_scenario(w, scenario);
            }
            work(w, SweepUnit { scenario, failed, dst, base_tree: self.base.towards(dst) })
        })
    }
}

/// The shared work-queue core: `count` indices, `threads` workers with
/// private `init()` state, results merged back in index order.
fn run_indexed<W, R>(
    count: usize,
    threads: usize,
    init: &(dyn Fn() -> W + Sync),
    work: &(dyn Fn(&mut W, usize) -> R + Sync),
) -> Vec<R>
where
    R: Send,
{
    let workers = threads.max(1).min(count.max(1));
    if workers <= 1 {
        let mut w = init();
        return (0..count).map(|idx| work(&mut w, idx)).collect();
    }

    let cursor = AtomicUsize::new(0);
    let chunk = chunk_size(count, workers);
    let mut tagged: Vec<(usize, R)> = Vec::with_capacity(count);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = init();
                    let mut out = Vec::new();
                    loop {
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start >= count {
                            break;
                        }
                        for idx in start..(start + chunk).min(count) {
                            out.push((idx, work(&mut local, idx)));
                        }
                    }
                    out
                })
            })
            .collect();
        for handle in handles {
            tagged.extend(handle.join().expect("sweep worker panicked"));
        }
    });

    // Deterministic merge: unit order, independent of which worker ran
    // what. Indices are distinct by construction, so the sort is total.
    tagged.sort_unstable_by_key(|&(idx, _)| idx);
    debug_assert!(tagged.iter().enumerate().all(|(pos, &(idx, _))| pos == idx));
    tagged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pr_graph::generators;

    #[test]
    fn parallel_map_is_order_preserving_for_any_thread_count() {
        let items: Vec<u64> = (0..103).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 3, 8, 64] {
            assert_eq!(parallel_map(&items, threads, |_, &x| x * x), expected, "{threads}");
        }
    }

    #[test]
    fn parallel_map_handles_empty_and_tiny_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(&empty, 4, |_, &x| x).is_empty());
        assert_eq!(parallel_map(&[7u32], 4, |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn sweep_enumerates_units_in_scenario_major_order() {
        let g = generators::ring(5, 1);
        let base = AllPairs::compute_all_live(&g);
        let scenarios: Vec<LinkSet> =
            g.links().map(|l| LinkSet::from_links(g.link_count(), [l])).collect();
        let expected: Vec<(usize, u32)> = (0..scenarios.len())
            .flat_map(|s| (0..g.node_count() as u32).map(move |d| (s, d)))
            .collect();
        for threads in [1, 2, 4] {
            let sweep = ScenarioSweep::new(&g, &scenarios, &base, threads);
            assert_eq!(sweep.unit_count(), expected.len());
            let got = sweep.run(|| (), |_, u| (u.scenario, u.dst.0));
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn sweep_units_carry_the_hoisted_base_tree() {
        let g = generators::ring(6, 1);
        let base = AllPairs::compute_all_live(&g);
        let scenarios = vec![LinkSet::empty(g.link_count())];
        let sweep = ScenarioSweep::new(&g, &scenarios, &base, 2);
        let costs = sweep.run(|| (), |_, u| u.base_tree.cost(NodeId(0)));
        for (dst, cost) in costs.into_iter().enumerate() {
            assert_eq!(cost, base.towards(NodeId(dst as u32)).cost(NodeId(0)));
        }
    }

    #[test]
    fn worker_local_state_is_threaded_through() {
        // Each worker counts the units it ran; the counts must sum to
        // the unit total even though workers race on the queue.
        let items: Vec<u32> = (0..57).collect();
        let results = parallel_map(&items, 3, |idx, _| idx);
        assert_eq!(results.len(), 57);
        let g = generators::ring(4, 1);
        let base = AllPairs::compute_all_live(&g);
        let scenarios = vec![LinkSet::empty(g.link_count()); 9];
        let sweep = ScenarioSweep::new(&g, &scenarios, &base, 3);
        let per_unit: Vec<usize> = sweep.run(
            || 0usize,
            |seen, _| {
                *seen += 1;
                *seen
            },
        );
        // Every worker's local counter starts at 1 and never exceeds
        // the unit total.
        assert!(per_unit.iter().all(|&c| c >= 1 && c <= sweep.unit_count()));
    }

    #[test]
    fn scenario_hook_fires_once_per_worker_scenario_visit() {
        let g = generators::ring(4, 1);
        let base = AllPairs::compute_all_live(&g);
        let scenarios = vec![LinkSet::empty(g.link_count()); 6];
        // Serial worker: contiguous units, so the hook must fire
        // exactly once per scenario, before that scenario's units.
        let sweep = ScenarioSweep::new(&g, &scenarios, &base, 1);
        let log = sweep.run_with(
            Vec::new,
            |seen: &mut Vec<usize>, s| seen.push(s),
            |seen, u| (seen.clone(), u.scenario),
        );
        for (boundaries, scenario) in &log {
            // Every unit has already seen its own scenario's boundary…
            assert_eq!(boundaries.last(), Some(scenario));
            // …and boundaries arrive in order, without repeats.
            assert_eq!(*boundaries, (0..=*scenario).collect::<Vec<_>>());
        }
        // Parallel workers: each worker sees a boundary before any unit
        // of a scenario it claims; unit order is still deterministic.
        for threads in [2, 4] {
            let sweep = ScenarioSweep::new(&g, &scenarios, &base, threads);
            let got = sweep.run_with(
                || None,
                |current: &mut Option<usize>, s| *current = Some(s),
                |current, u| (*current, u.scenario),
            );
            assert_eq!(got.len(), sweep.unit_count());
            for (seen, scenario) in got {
                assert_eq!(seen, Some(scenario), "{threads} threads");
            }
        }
    }

    #[test]
    fn chunk_size_spreads_small_queues_across_workers() {
        // Three heavy items over many workers must not be swallowed by
        // the first fetch-add.
        assert_eq!(chunk_size(3, 8), 1);
        assert_eq!(chunk_size(1, 2), 1);
        // Large queues amortise queue traffic up to the cap.
        assert_eq!(chunk_size(10_000, 8), MAX_CHUNK);
    }

    #[test]
    fn parse_threads_accepts_both_spellings_and_rejects_garbage() {
        fn args(s: &str) -> Vec<String> {
            s.split_whitespace().map(String::from).collect()
        }
        assert_eq!(parse_threads(args("--threads 3")), Ok(Some(3)));
        assert_eq!(parse_threads(args("--seed 1 --threads=5")), Ok(Some(5)));
        assert_eq!(parse_threads(args("--threads 0")), Ok(Some(1)), "clamped to 1");
        assert_eq!(parse_threads(args("--seed 1")), Ok(None));
        // A user who visibly tried to pin the count must get an error,
        // not a silent all-cores fallback.
        assert!(parse_threads(args("--threads banana")).is_err());
        assert!(parse_threads(args("--threads=1x")).is_err());
        assert!(parse_threads(args("--threads")).is_err(), "missing value");
        assert!(default_threads() >= 1);
    }
}
