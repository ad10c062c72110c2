//! The parallel scenario-sweep engine.
//!
//! Every quantitative experiment in this harness is the same shape: a
//! huge loop over (failure scenario × destination × source) triples,
//! walking packets under several schemes. This module factors that
//! shape out once, so every experiment gets the same optimisations:
//!
//! * **Failure-invariant hoisting** — the failure-free shortest-path
//!   trees ([`AllPairs`]), a child index per destination tree and the
//!   TTL do not depend on the scenario: a [`ConePlan`] borrows the
//!   network's own trees (`PrNetwork::base`), builds the rest once per
//!   topology, and every sweep over it shares them.
//! * **The unit kernel** — a `(scenario, destination)` unit is the
//!   same three steps in every topological sweep. A worker's
//!   [`ConeOpener`] yields the unit's *affected* sources — the
//!   subtrees below failed tree edges, O(cone) instead of classifying
//!   all n nodes — in ascending node order, each with its survivor
//!   cost (`None`: the failure disconnected it). That is the unit's
//!   one cone repair — distance labels only — or, under one failed
//!   link, its **mirror**: survivor distances are symmetric, so only
//!   the units whose tree crosses the link one way run a repair, and
//!   the others read theirs off those. The opened cone answers for any
//!   of its nodes ([`OpenCone::survivor`]). Then the
//!   sweep opens each scheme's lane on the unit and asks it the cost
//!   of every connected source — one shape for every scheme
//!   ([`crate::lanes`]). Under **one** failed link FCP and PR are
//!   priced, not walked: a cone has one failure point, and what either
//!   scheme pays from there is known without a hop loop. Under two or
//!   more, and for every other scheme, a lane walks through
//!   `pr_core`'s flow unit, which settles each **failure point** once
//!   — the router where the scheme first does anything but forward
//!   along the failure-free tree; PR's as an episode chain where one
//!   delivers, any other with one plain hop loop — answering every
//!   source behind a point by arithmetic. Sources outside the cone are never
//!   asked: their shortest path survives and every scheme here
//!   delivers along it (`pr_core`'s `fib` module has the argument).
//! * **Work-unit parallelism** — units fan out over a hand-rolled
//!   [`std::thread::scope`] worker pool: a chunked work queue over an
//!   [`AtomicUsize`] cursor (the container has no crates.io access, so
//!   no rayon). Each worker owns private scratch state (a cone opener
//!   and its scheme lanes) created by a caller-supplied factory, and
//!   never told where a scenario ends (DESIGN.md §8). A sweep's queue
//!   item is a **block**: one whole scenario, every
//!   destination of it, so each scenario meets one worker once and its
//!   mirror is built once.
//! * **Ordered streaming merge** — a worker folds each block into one
//!   accumulator and hands it to the calling thread, which delivers
//!   blocks to the caller's sink in scenario order through a small
//!   reorder buffer while the pool is still running. A block is a
//!   scenario whatever the thread count, and a cone is enumerated in
//!   node order, so what a block folds — and in which order — is the
//!   same on any worker: the output is bit-identical to the serial
//!   scenario-major, destination-minor, source-ascending loop
//!   regardless of thread count (`tests/determinism.rs` enforces
//!   this), and nothing of size O(units) is ever held: memory is the
//!   caller's own result plus the blocks in flight, which the stretch
//!   sweep folds into a per-scenario row on the worker.
//!
//! The engine takes its thread count as an argument. `pr-cli` reads it
//! from `--threads N` on every subcommand that sweeps and falls back
//! to [`default_threads`], the machine's available parallelism. One
//! thread is the plain inline loop — no spawn, no channel — so
//! `run(…, 1)` of any sweep *is* its serial form.
//!
//! Workers only scale if a work closure leaves the allocator alone in
//! the steady state: per-worker scratch is reset in place and the
//! block's accumulator is the only allocation (DESIGN.md, "allocator
//! discipline", has the measurements that made this a rule).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use pr_core::generous_ttl;
use pr_graph::{
    AllPairs, Dart, Graph, LinkId, LinkSet, NodeId, RepairStats, SpScratch, SpTree, TreeChildren,
};
use pr_scenarios::ScenarioFamily;

pub use crate::shards::run_shards;

/// Largest number of queue items (work units, or scenarios of a
/// sweep) a worker claims per queue interaction. Items are coarse (at
/// least a destination's whole source fan under one scenario), so a
/// small cap keeps the tail balanced while the atomic traffic stays
/// negligible.
const MAX_CHUNK: usize = 4;

/// Chunk size for a queue of `count` items over `workers` workers:
/// capped so small inputs (e.g. three topologies over eight workers)
/// still spread one unit per worker instead of letting the first
/// fetch-add swallow the whole queue.
fn chunk_size(count: usize, workers: usize) -> usize {
    (count / (workers * 4)).clamp(1, MAX_CHUNK)
}

/// The machine's available parallelism: the thread count every front
/// door falls back to when `--threads` is not given.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The generic work-unit entry point: runs `work` over unit indices
/// `0..count` on `threads` workers, each owning private state built by
/// `init`, with results merged back in unit order (bit-identical to
/// the serial loop `(0..count).map(...)` at any thread count).
///
/// Temporal and traffic sweeps use it with one unit per scenario;
/// [`ScenarioSweep::fold`] is the form for `(scenario × destination)`
/// link sweeps, whose units are too many to keep one result each.
pub fn run_units<W, R, I, F>(count: usize, threads: usize, init: I, work: F) -> Vec<R>
where
    R: Send,
    I: Fn() -> W + Sync,
    F: Fn(&mut W, usize) -> R + Sync,
{
    let mut out = Vec::with_capacity(count);
    run_ordered(count, threads, &init, &work, &mut |r| out.push(r));
    out
}

/// One unit of sweep work: every source towards `dst` under scenario
/// `scenario`, with the hoisted failure-free tree already in hand.
#[derive(Debug, Clone, Copy)]
pub struct SweepUnit<'a> {
    /// Index of the scenario in the sweep's scenario family.
    pub scenario: usize,
    /// The scenario's failed links.
    pub failed: &'a LinkSet,
    /// How many they are: `failed.len()`, counted once per scenario,
    /// not once per unit.
    pub failures: usize,
    /// The destination this unit covers.
    pub dst: NodeId,
    /// Failure-free shortest-path tree towards `dst` (hoisted: shared
    /// by every scenario).
    pub base_tree: &'a SpTree,
}

impl SweepUnit<'_> {
    /// Under exactly **one** failed link, the tree dart that crosses
    /// it: its tail is the failure point of every source of the unit's
    /// cone, its head the link's far end. `None` under any other
    /// failure count, and when neither endpoint routes over the link —
    /// the cone is empty and no lane is asked.
    pub fn broken_tree_dart(&self, graph: &Graph) -> Option<Dart> {
        if self.failures != 1 {
            return None;
        }
        let link = self.failed.iter().next().expect("one failed link");
        let (a, b) = graph.endpoints(link);
        [a, b].into_iter().filter_map(|v| self.base_tree.next_dart(v)).find(|d| d.link() == link)
    }
}

/// The failure-invariant state of a topological sweep, hoisted out of
/// every loop level: the failure-free trees (the network's, borrowed),
/// a child index per destination tree (what lets a unit enumerate its
/// affected sources in O(cone)) and the TTL. Built once per topology;
/// sweeps that share the topology share the plan.
pub struct ConePlan<'a> {
    graph: &'a Graph,
    base: &'a AllPairs,
    children: Vec<TreeChildren>,
    ttl: usize,
}

impl<'a> ConePlan<'a> {
    /// Hoists the failure-invariant state of sweeps over `graph`,
    /// whose failure-free trees are `base`.
    pub fn new(graph: &'a Graph, base: &'a AllPairs) -> ConePlan<'a> {
        let children = graph.nodes().map(|d| TreeChildren::build(graph, base.towards(d))).collect();
        ConePlan { graph, base, children, ttl: generous_ttl(graph) }
    }

    /// The topology under sweep.
    pub fn graph(&self) -> &'a Graph {
        self.graph
    }

    /// The failure-free trees the plan was given.
    pub fn base(&self) -> &'a AllPairs {
        self.base
    }

    /// The hop budget of every walk of the sweep.
    pub fn ttl(&self) -> usize {
        self.ttl
    }

    /// The sweep of `family`'s scenarios over this plan's trees on
    /// `threads` workers.
    pub fn sweep<'s>(
        &'s self,
        family: &'s dyn ScenarioFamily,
        threads: usize,
    ) -> ScenarioSweep<'s> {
        ScenarioSweep::new(self.graph, family, self.base, threads)
    }

    /// A cone opener that repairs every unit it opens on its own: for
    /// a caller that opens a few units of many failed sets. Its buffers
    /// grow to the topology on first use and are reused across every
    /// unit it opens.
    pub fn opener(&self) -> ConeOpener<'_> {
        ConeOpener {
            plan: self,
            cone: Vec::new(),
            stack: Vec::new(),
            labels: SpScratch::new(),
            opened: Vec::new(),
            mirror: None,
            stats: RepairStats::default(),
        }
    }

    /// One sweep worker's cone opener, for a caller that opens every
    /// unit of each scenario it meets (a sweep's block): under one
    /// failed link it repairs only the units whose tree crosses the
    /// link forward, and answers the others from those (`Mirror`).
    /// Opening a few units of a link instead pays for all of that
    /// link's forward units; [`ConePlan::opener`] does not.
    pub fn sweep_opener(&self) -> ConeOpener<'_> {
        ConeOpener { mirror: Some(Mirror::default()), ..self.opener() }
    }
}

/// An affected source with its survivor cost: `None` when the failure
/// cut it off from the destination.
type Survivor = (NodeId, Option<u64>);

/// Per-worker state of the unit kernel's first step: the affected
/// sources of the current unit, the arena their survivor distances are
/// repaired in, and a sweep's mirror of the last single failed link.
pub struct ConeOpener<'a> {
    plan: &'a ConePlan<'a>,
    /// Affected sources of the current unit, ascending node id.
    cone: Vec<NodeId>,
    /// DFS stack of the cone enumeration.
    stack: Vec<NodeId>,
    labels: SpScratch,
    /// The current unit's pairs, where the mirror does not hold them.
    opened: Vec<Survivor>,
    /// A sweep opener's mirror ([`ConePlan::sweep_opener`]).
    mirror: Option<Mirror>,
    /// Counted per unit opened, never per mirror built: what a unit
    /// counts does not depend on which worker opens it or how often a
    /// mirror is rebuilt.
    stats: RepairStats,
}

impl ConeOpener<'_> {
    /// Opens `unit`: the cone it returns yields every source whose
    /// failure-free path towards `unit.dst` crosses a failed link, in
    /// ascending node order, with the cost of its shortest surviving
    /// path — `None` when the failure cut it off from the destination.
    /// The destination is never among them (it is the tree root), and
    /// an empty cone — no base path crosses a failure — yields nothing
    /// and repairs nothing.
    ///
    /// The unit's cone is repaired here: only its distance labels,
    /// O(cone). A sweep opener ([`ConePlan::sweep_opener`]) does that
    /// under **one** failed link `l` only for the units whose tree
    /// crosses `l` as `l.forward()`, all of them when it first meets
    /// `l`; a unit whose tree crosses it as `l.reverse()` is read off
    /// their transpose (`Mirror`). A warm opener does not call the
    /// allocator.
    pub fn open<'o>(&'o mut self, unit: &SweepUnit<'o>) -> OpenCone<'o> {
        let ConeOpener { plan, cone, stack, labels, opened, mirror, stats } = self;
        let (graph, tree) = (plan.graph, unit.base_tree);
        let children = &plan.children[unit.dst.index()];
        let pairs: &[Survivor] = match (unit.broken_tree_dart(graph), mirror) {
            (Some(out), Some(mirror)) => {
                mirror.build(plan, out.link(), unit.failed, cone, stack, labels);
                if out.is_forward() {
                    mirror.cone_of(unit.dst)
                } else {
                    tree.affected_cone(graph, children, unit.failed, cone, stack);
                    mirror.gather(tree, cone, opened);
                    stats.mirrored += 1;
                    opened
                }
            }
            // One failed link no tree dart crosses: an empty cone.
            (None, _) if unit.failures == 1 => &[],
            _ => {
                tree.affected_cone(graph, children, unit.failed, cone, stack);
                opened.clear();
                if !cone.is_empty() {
                    tree.repair_cone_labels(graph, unit.failed, cone, labels);
                    opened.extend(cone.iter().map(|&src| (src, labels.cone_cost(src))));
                }
                opened
            }
        };
        if !pairs.is_empty() {
            stats.repairs += 1;
            stats.cone_nodes += pairs.len() as u64;
            stats.repaired_slots += graph.node_count() as u64;
        }
        OpenCone { cone: pairs, pairs: pairs.iter() }
    }

    /// The repair counters since they were last taken: one repair per
    /// unit with a cone, `mirrored` the ones read off a mirror.
    pub fn take_stats(&mut self) -> RepairStats {
        std::mem::take(&mut self.stats)
    }
}

/// The repaired cones of one failed link `l`'s **forward units** — the
/// destinations whose tree crosses `l` as `l.forward()` — and their
/// transpose, which answers every **reverse unit**. Link weights are
/// undirected, so `dist_{G−l}(x, d) = dist_{G−l}(d, x)`; and for a
/// source `x` of reverse unit `d`, either forward unit `x` holds `d` as
/// a source, or `x`'s tree path from `d` avoids `l` and survives, so
/// the distance is the failure-free one (DESIGN.md §8 has the proof).
/// O(the link's forward affected pairs); a warm rebuild does not call
/// the allocator.
#[derive(Default)]
struct Mirror {
    /// The failed link mirrored, once there is one.
    link: Option<LinkId>,
    /// Forward unit `d`'s pairs, ascending source, at
    /// `cones[cone_start[d]..cone_start[d + 1]]`.
    cones: Vec<Survivor>,
    cone_start: Vec<usize>,
    /// The transpose: source `s`'s `(destination, survivor)` pairs,
    /// one per forward unit whose cone holds `s`, ascending destination,
    /// at `rows[row_start[s]..row_start[s + 1]]`.
    rows: Vec<Survivor>,
    row_start: Vec<usize>,
}

impl Mirror {
    /// Mirrors `link`, the one link of `failed`: repairs each of its
    /// forward units once, in destination order, and transposes them.
    /// Nothing to do if `link` is mirrored already.
    fn build(
        &mut self,
        plan: &ConePlan<'_>,
        link: LinkId,
        failed: &LinkSet,
        cone: &mut Vec<NodeId>,
        stack: &mut Vec<NodeId>,
        labels: &mut SpScratch,
    ) {
        if self.link == Some(link) {
            return;
        }
        let (graph, forward) = (plan.graph, link.forward());
        let (n, tail) = (graph.node_count(), graph.dart_tail(forward));
        let Mirror { cones, cone_start, rows, row_start, .. } = self;
        cones.clear();
        cone_start.clear();
        cone_start.push(0);
        row_start.clear();
        row_start.resize(n + 1, 0);
        for dst in graph.nodes() {
            let tree = plan.base.towards(dst);
            if tree.next_dart(tail) == Some(forward) {
                tree.affected_cone(graph, &plan.children[dst.index()], failed, cone, stack);
                tree.repair_cone_labels(graph, failed, cone, labels);
                for &src in cone.iter() {
                    cones.push((src, labels.cone_cost(src)));
                    row_start[src.index() + 1] += 1;
                }
            }
            cone_start.push(cones.len());
        }
        // A counting sort by source. The prefix sums are the rows'
        // starts; filling moves each to its row's end, which is the
        // next row's start, so one shift restores them. Destinations
        // are dealt in ascending order, so every row is ascending.
        for s in 1..=n {
            row_start[s] += row_start[s - 1];
        }
        rows.resize(cones.len(), (NodeId(0), None));
        for dst in graph.nodes() {
            for &(src, survivor) in &cones[cone_start[dst.index()]..cone_start[dst.index() + 1]] {
                let at = &mut row_start[src.index()];
                rows[*at] = (dst, survivor);
                *at += 1;
            }
        }
        row_start.copy_within(0..n, 1);
        row_start[0] = 0;
        self.link = Some(link);
    }

    /// Forward unit `dst`'s pairs.
    fn cone_of(&self, dst: NodeId) -> &[Survivor] {
        &self.cones[self.cone_start[dst.index()]..self.cone_start[dst.index() + 1]]
    }

    /// Reverse unit `tree.dest`'s pairs into `out`, for its `cone`
    /// (ascending), merged with `tree.dest`'s row: source `x` costs
    /// what forward unit `x` repaired for source `tree.dest`. A source
    /// the row lacks is one whose own tree path from `tree.dest` avoids
    /// the link, and costs its failure-free distance.
    fn gather(&self, tree: &SpTree, cone: &[NodeId], out: &mut Vec<Survivor>) {
        let d = tree.dest.index();
        let mut row = self.rows[self.row_start[d]..self.row_start[d + 1]].iter().peekable();
        out.clear();
        out.extend(cone.iter().map(|&x| {
            while row.next_if(|&&(y, _)| y < x).is_some() {}
            match row.next_if(|&&(y, _)| y == x) {
                Some(&(_, survivor)) => (x, survivor),
                None => (x, tree.cost(x)),
            }
        }));
    }
}

/// The opened cone of one unit ([`ConeOpener::open`]): an iterator
/// over its `(affected source, survivor cost)` pairs that also answers
/// for any one of them by node.
#[derive(Clone)]
pub struct OpenCone<'a> {
    /// Every pair of the unit, ascending source.
    cone: &'a [Survivor],
    pairs: std::slice::Iter<'a, Survivor>,
}

impl OpenCone<'_> {
    /// The survivor cost of `node`, which must be in this cone: what
    /// the iterator yields beside it.
    pub fn survivor(&self, node: NodeId) -> Option<u64> {
        let at = self.cone.binary_search_by_key(&node, |&(src, _)| src);
        self.cone[at.expect("a node of the cone")].1
    }
}

impl Iterator for OpenCone<'_> {
    type Item = Survivor;

    fn next(&mut self) -> Option<Survivor> {
        self.pairs.next().copied()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.pairs.size_hint()
    }
}

impl ExactSizeIterator for OpenCone<'_> {}

/// A sweep over (scenario × destination) work units, **streaming** its
/// scenarios from a [`ScenarioFamily`]: scenario `s` is constructed on
/// the worker that claims it, once, and every unit of it runs there.
/// No `Vec<LinkSet>` ever exists, which is what lets exhaustive k≥3
/// spaces and large generated topologies sweep at O(workers) scenario
/// memory.
///
/// Construction hoists nothing by itself — the base trees are the
/// caller's, normally a [`ConePlan`]'s ([`ConePlan::sweep`]), so sweeps
/// sharing a topology also share the hoisted state (e.g. coverage's
/// per-failure-count rounds).
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

    /// Total number of (scenario × destination) work units.
    pub fn unit_count(&self) -> usize {
        self.family.len() * self.graph.node_count()
    }

    /// Executes the sweep as an ordered streaming reduce. `init`
    /// builds one worker-local state (walk scratches, cached agents,
    /// …) per worker thread. A queue item is a **block**: one whole
    /// scenario, so a worker meets each scenario once and whatever it
    /// builds per scenario (the cone opener's mirror) is built once.
    /// `start` returns a block's accumulator, given its scenario index
    /// and no worker state: what a worker keeps is keyed on the failed
    /// set (DESIGN.md §8). `work` folds each unit of the scenario into
    /// it, destination-ascending; `sink` receives every finished block
    /// with its scenario index, on the calling thread, in scenario
    /// order, while the workers are still running. A caller that
    /// concatenates or sums what `sink` is handed gets the same bits at
    /// any thread count; one that drops it holds nothing.
    pub fn fold<W, A, I, B, F, S>(&self, init: I, start: B, work: F, mut sink: S)
    where
        A: Send,
        I: Fn() -> W + Sync,
        B: Fn(usize) -> A + Sync,
        F: Fn(&mut W, SweepUnit<'_>, &mut A) + Sync,
        S: FnMut(usize, A),
    {
        run_ordered(
            self.family.len(),
            self.threads,
            &init,
            &|w, scenario| {
                let failed = self.family.scenario(scenario);
                let failures = failed.len();
                let mut acc = start(scenario);
                for dst in self.graph.nodes() {
                    let base_tree = self.base.towards(dst);
                    let unit = SweepUnit { scenario, failed: &failed, failures, dst, base_tree };
                    work(w, unit, &mut acc);
                }
                (scenario, acc)
            },
            &mut |(scenario, acc)| sink(scenario, acc),
        );
    }
}

/// The worker-pool core, an ordered streaming reduce: `work` runs over
/// indices `0..count` on `threads` workers with private `init()`
/// state, and `sink` receives every result on the calling thread, in
/// index order, while the pool is still running. One worker is the
/// plain inline loop: no thread, no channel.
///
/// Workers claim contiguous chunks off an atomic cursor and send each
/// finished chunk to the calling thread, which parks out-of-order
/// chunks in a reorder buffer until their turn. The buffer holds what
/// the workers have run ahead of the slowest outstanding chunk — a few
/// chunks when items cost alike; at worst (the first item outlasts all
/// the others) every other result, which is what collecting them all
/// before merging always held.
fn run_ordered<W, R>(
    count: usize,
    threads: usize,
    init: &(dyn Fn() -> W + Sync),
    work: &(dyn Fn(&mut W, usize) -> R + Sync),
    sink: &mut dyn FnMut(R),
) where
    R: Send,
{
    let workers = threads.max(1).min(count.max(1));
    if workers <= 1 {
        let mut w = init();
        for idx in 0..count {
            sink(work(&mut w, idx));
        }
        return;
    }

    let cursor = AtomicUsize::new(0);
    let chunk = chunk_size(count, workers);
    let (done, finished) = mpsc::channel::<(usize, Vec<R>)>();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let done = done.clone();
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut local = init();
                    loop {
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start >= count {
                            break;
                        }
                        let results: Vec<R> = (start..(start + chunk).min(count))
                            .map(|idx| work(&mut local, idx))
                            .collect();
                        if done.send((start, results)).is_err() {
                            break; // the merging thread is unwinding
                        }
                    }
                })
            })
            .collect();
        drop(done);

        // Deterministic merge: index order, independent of which
        // worker ran what. The loop ends when every worker has dropped
        // its sender — normally or by unwinding, so a panicking unit
        // cannot hang it.
        let mut parked: BTreeMap<usize, Vec<R>> = BTreeMap::new();
        let mut next = 0;
        for (start, results) in finished {
            parked.insert(start, results);
            while let Some(results) = parked.remove(&next) {
                next += results.len();
                results.into_iter().for_each(&mut *sink);
            }
        }
        for handle in handles {
            handle.join().expect("sweep worker panicked");
        }
        debug_assert_eq!(next, count, "every chunk was delivered");
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use pr_graph::generators;

    #[test]
    fn run_units_is_order_preserving_for_any_thread_count() {
        let expected: Vec<usize> = (0..103).map(|x| x * x).collect();
        for threads in [1, 2, 3, 8, 64] {
            assert_eq!(run_units(103, threads, || (), |(), x| x * x), expected, "{threads}");
        }
    }

    #[test]
    fn run_units_handles_empty_and_tiny_inputs() {
        assert!(run_units(0, 4, || (), |(), x| x).is_empty());
        assert_eq!(run_units(1, 4, || (), |(), x| x + 8), vec![8]);
    }

    /// One result per unit, in sink order: what the sweeps' callers
    /// fold away, kept here to observe the order.
    fn per_unit<W, R: Send>(
        sweep: &ScenarioSweep<'_>,
        init: impl Fn() -> W + Sync,
        work: impl Fn(&mut W, SweepUnit<'_>) -> R + Sync,
    ) -> Vec<R> {
        let mut out = Vec::new();
        sweep.fold(
            init,
            |_| Vec::new(),
            |w, unit, block: &mut Vec<R>| block.push(work(w, unit)),
            |_, block| out.extend(block),
        );
        out
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
            let got = per_unit(&sweep, || (), |_, u| (u.scenario, u.dst.0));
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn sweep_units_carry_the_hoisted_base_tree() {
        let g = generators::ring(6, 1);
        let base = AllPairs::compute_all_live(&g);
        let scenarios = vec![LinkSet::empty(g.link_count())];
        let sweep = ScenarioSweep::new(&g, &scenarios, &base, 2);
        let costs = per_unit(&sweep, || (), |_, u| u.base_tree.cost(NodeId(0)));
        for (dst, cost) in costs.into_iter().enumerate() {
            assert_eq!(cost, base.towards(NodeId(dst as u32)).cost(NodeId(0)));
        }
    }

    #[test]
    fn worker_local_state_is_threaded_through() {
        // Each worker counts the units it ran; the counts must sum to
        // the unit total even though workers race on the queue.
        assert_eq!(run_units(57, 3, || (), |(), idx| idx).len(), 57);
        let g = generators::ring(4, 1);
        let base = AllPairs::compute_all_live(&g);
        let scenarios = vec![LinkSet::empty(g.link_count()); 9];
        let sweep = ScenarioSweep::new(&g, &scenarios, &base, 3);
        let per_unit: Vec<usize> = per_unit(
            &sweep,
            || 0usize,
            |seen, _| {
                *seen += 1;
                *seen
            },
        );
        assert_eq!(per_unit.len(), sweep.unit_count());
        // Every worker's local counter starts at 1 and never exceeds
        // the unit total.
        assert!(per_unit.iter().all(|&c| c >= 1 && c <= sweep.unit_count()));
    }

    #[test]
    fn scenario_hook_fires_once_per_worker_scenario_visit() {
        // `start` is the one scenario hook: it fires once per scenario,
        // before that scenario's units, and the accumulator it returns
        // is the one every unit of the scenario folds into.
        let g = generators::ring(4, 1);
        let base = AllPairs::compute_all_live(&g);
        let scenarios = vec![LinkSet::empty(g.link_count()); 6];
        for threads in [1, 2, 4] {
            let sweep = ScenarioSweep::new(&g, &scenarios, &base, threads);
            let started = std::sync::Mutex::new(Vec::new());
            let mut units = 0;
            sweep.fold(
                || (),
                |scenario| {
                    started.lock().unwrap().push(scenario);
                    (scenario, 0)
                },
                |_, unit, (scenario, seen): &mut (usize, usize)| {
                    assert_eq!(unit.scenario, *scenario, "{threads} threads");
                    *seen += 1;
                },
                |scenario, (started, seen)| {
                    assert_eq!(started, scenario, "{threads} threads");
                    assert_eq!(seen, g.node_count(), "{threads} threads");
                    units += seen;
                },
            );
            assert_eq!(units, sweep.unit_count(), "{threads} threads");
            let mut started = started.into_inner().unwrap();
            // A serial worker meets the scenarios in order; a pool in
            // any order, but each once.
            if threads > 1 {
                started.sort_unstable();
            }
            assert_eq!(started, (0..scenarios.len()).collect::<Vec<_>>(), "{threads} threads");
        }
    }

    /// Thread counts the ordering tests run at: the inline loop, even
    /// and odd pools, and more workers than this machine has cores.
    const POOLS: [usize; 5] = [1, 2, 3, 4, 7];

    #[test]
    fn results_arrive_in_order_when_the_earliest_chunks_finish_last() {
        // The adversarial schedule, forced rather than slept for: the
        // first `workers - 1` chunks each hold their worker until every
        // later unit has completed, so they finish in reverse order and
        // the one free worker runs the whole rest of the queue ahead of
        // them. That is also the reorder buffer's worst case: every
        // result but the first chunk's is parked when the sink first
        // runs.
        const COUNT: usize = 203;
        for threads in POOLS {
            let workers = threads.min(COUNT);
            let chunk = chunk_size(COUNT, workers);
            let completed = AtomicUsize::new(0);
            let caller = std::thread::current().id();
            let mut seen = Vec::new();
            run_ordered(
                COUNT,
                threads,
                &|| (),
                &|(), idx| {
                    if workers > 1 && idx % chunk == 0 && idx / chunk < workers - 1 {
                        let later = COUNT - (idx / chunk + 1) * chunk;
                        while completed.load(Ordering::SeqCst) < later {
                            std::thread::yield_now();
                        }
                    }
                    completed.fetch_add(1, Ordering::SeqCst);
                    idx
                },
                &mut |idx| {
                    assert_eq!(std::thread::current().id(), caller, "sink left the caller");
                    if workers > 1 && seen.is_empty() {
                        let parked = completed.load(Ordering::SeqCst) - chunk;
                        assert!(parked >= COUNT - workers * chunk, "{threads} threads");
                        assert!(parked < COUNT, "never more than one result per unit");
                    }
                    seen.push(idx);
                },
            );
            assert_eq!(seen, (0..COUNT).collect::<Vec<_>>(), "{threads} threads");
            assert_eq!(run_units(COUNT, threads, || (), |(), idx| idx), seen);
        }
    }

    #[test]
    fn blocks_reach_the_sink_once_in_order_and_never_straddle_a_scenario() {
        let g = generators::ring(37, 1);
        let n = g.node_count();
        let base = AllPairs::compute_all_live(&g);
        let one = vec![LinkSet::empty(g.link_count())];
        let five = vec![LinkSet::empty(g.link_count()); 5];
        let caller = std::thread::current().id();
        for scenarios in [&one, &five] {
            for threads in POOLS {
                let sweep = ScenarioSweep::new(&g, scenarios, &base, threads);
                let mut next = 0;
                sweep.fold(
                    || (),
                    |_| Vec::new(),
                    |_, unit, block: &mut Vec<(usize, usize)>| {
                        block.push((unit.scenario, unit.dst.index()))
                    },
                    |scenario, block| {
                        assert_eq!(std::thread::current().id(), caller, "sink left the caller");
                        for unit in block {
                            assert_eq!(unit, (scenario, next % n), "{threads} threads");
                            assert_eq!(next / n, scenario, "block straddles a scenario");
                            next += 1;
                        }
                    },
                );
                assert_eq!(next, sweep.unit_count(), "{threads} threads");
            }
        }
    }

    #[test]
    fn a_block_is_one_whole_scenario() {
        // One scenario (the daemon's `query stretch`) and several, on
        // every pool: the sink sees one block per scenario, in order,
        // each with every destination of it, ascending.
        let g = generators::ring(37, 1);
        let base = AllPairs::compute_all_live(&g);
        let every_destination: Vec<u32> = (0..g.node_count() as u32).collect();
        for scenarios in [1, 5, 13] {
            let family = vec![LinkSet::empty(g.link_count()); scenarios];
            for threads in POOLS {
                let sweep = ScenarioSweep::new(&g, &family, &base, threads);
                let mut blocks = Vec::new();
                sweep.fold(
                    || (),
                    |scenario| (scenario, Vec::new()),
                    |_, unit, (scenario, block): &mut (usize, Vec<u32>)| {
                        assert_eq!(unit.scenario, *scenario, "{threads} threads");
                        block.push(unit.dst.0);
                    },
                    |scenario, (started, block)| {
                        assert_eq!(started, scenario, "{threads} threads");
                        assert_eq!(block, every_destination, "{threads} threads");
                        blocks.push(scenario);
                    },
                );
                assert_eq!(blocks, (0..family.len()).collect::<Vec<_>>(), "{threads} threads");
            }
        }
    }

    #[test]
    fn a_panicking_unit_surfaces_and_does_not_hang_the_merge() {
        for threads in [2, 3, 7] {
            let outcome = std::panic::catch_unwind(|| {
                run_units(
                    64,
                    threads,
                    || (),
                    |(), idx| {
                        assert_ne!(idx, 5, "unit 5 fails");
                        idx
                    },
                )
            });
            let payload = outcome.expect_err("the unit's panic must reach the caller");
            let message = payload.downcast_ref::<String>().expect("an `expect` message");
            assert!(message.contains("sweep worker panicked"), "{message}");
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
}
