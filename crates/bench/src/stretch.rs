//! The stretch experiment — the paper's Figure 2.
//!
//! For each failure scenario and each (src, dst) pair whose
//! failure-free shortest path is *affected* (crosses a failed link)
//! and which remains connected, record the **stretch**: the ratio of
//! the cost of the path the scheme actually delivers over to the
//! failure-free shortest-path cost (§6). Per panel and scheme, the
//! paper plots the complementary CDF `P(stretch > x | path)`.
//!
//! The sweep is the engine's unit kernel ([`crate::engine`]): a worker's
//! cone opener yields a unit's affected sources with their survivor
//! cost — which *is* the reconvergence sample — and the FCP and PR
//! lanes ([`crate::lanes`]) answer each connected one: by arithmetic
//! under a single failure, where neither lane walks, and once per
//! failure point under two or more — PR's points priced as episode
//! chains where they deliver, the rest walked. A block of the sweep is
//! one whole scenario, folded on the worker that claims it through
//! [`StretchFold`]; blocks reach the calling thread in scenario order
//! while the pool runs.
//!
//! The **result form** is the per-scenario [`ScenarioRow`]:
//! [`stream_rows`] has each worker fold its scenario's samples into the
//! scenario's row as the units produce them (`RowFold`), so no raw
//! sample leaves a worker, and hands the rows over in scenario order.
//! The front doors (`pr sweep`, `pr stretch`, the daemon's `query
//! stretch`) fold each into one running [`RowTotals`] as it arrives
//! ([`run_totals`]), so a sweep holds O(1) rows whatever its length;
//! the shard path collects a shard's rows ([`run_rows`]) to checkpoint
//! them and folds them the same way ([`RowTotals::of`]). The fold sums
//! the stretch sums in row order and the CCDF numerators as integers,
//! so streamed and held rows report the same bits. Raw samples are
//! the **library and oracle form**: [`run_with_stats`] folds each
//! scenario into a [`StretchBlock`] and appends it to a
//! [`StretchSamples`] panel, so [`run`] is bit-identical to the
//! independent oracle (`pr_testkit::oracle::stretch_serial`: plain
//! `walk_packet`, scratch Dijkstra, all n sources classified) at any
//! thread count (enforced by `tests/determinism.rs`). Quantiles need it
//! ([`summarize`], for `pr experiment fig2`); no sweep front door
//! holds it.

use serde::{Deserialize, Serialize};

use pr_baselines::{FcpAgent, RouteStats};
use pr_core::{MemoStats, PrAgent, PrNetwork};
use pr_graph::{AllPairs, Graph, RepairStats};
use pr_scenarios::ScenarioFamily;

use crate::engine::{ConeOpener, ConePlan, SweepUnit};
use crate::lanes::LaneScratch;

/// Scheme identifiers used in experiment output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Scheme {
    /// Post-convergence shortest paths (survivor optimum).
    Reconvergence,
    /// Failure-Carrying Packets.
    Fcp,
    /// Packet Re-cycling (distance-discriminator mode).
    PacketRecycling,
}

impl Scheme {
    /// All schemes, in the paper's legend order.
    pub const ALL: [Scheme; 3] = [Scheme::Reconvergence, Scheme::Fcp, Scheme::PacketRecycling];

    /// Label used in CSV headers (matches the paper's legend).
    pub fn label(self) -> &'static str {
        match self {
            Scheme::Reconvergence => "reconvergence",
            Scheme::Fcp => "fcp",
            Scheme::PacketRecycling => "packet-recycling",
        }
    }
}

/// Raw stretch samples per scheme, plus bookkeeping on conditioning.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StretchSamples {
    /// Delivered-path stretch values, one per (scenario, affected pair).
    pub reconvergence: Vec<f64>,
    /// FCP stretch values.
    pub fcp: Vec<f64>,
    /// PR stretch values.
    pub packet_recycling: Vec<f64>,
    /// (scenario, pair) combinations whose endpoints were disconnected
    /// by the scenario (excluded by the paper's "| path" conditioning).
    pub disconnected_pairs: usize,
    /// Affected-and-connected pairs evaluated.
    pub evaluated_pairs: usize,
    /// Deliveries that failed although a path existed (should be zero
    /// for all three schemes on genus-0 embeddings; reported honestly).
    /// Always `undelivered_fcp + undelivered_pr` — reconvergence is a
    /// shortest-path computation and cannot fail on a connected pair.
    pub undelivered: usize,
    /// FCP walks that failed to deliver although a path existed.
    pub undelivered_fcp: usize,
    /// PR walks that failed to deliver although a path existed.
    pub undelivered_pr: usize,
}

impl StretchSamples {
    /// The sample vector for one scheme.
    pub fn of(&self, scheme: Scheme) -> &[f64] {
        match scheme {
            Scheme::Reconvergence => &self.reconvergence,
            Scheme::Fcp => &self.fcp,
            Scheme::PacketRecycling => &self.packet_recycling,
        }
    }

    /// Appends another partial result (work-unit order must be
    /// preserved by the caller for bit-identical output).
    fn absorb(&mut self, part: &StretchSamples) {
        // `extend_from_slice` reserves before it copies, and `Vec`
        // reserves geometrically: the panel grows by a handful of
        // large reallocations the allocator serves by remapping pages,
        // not by one copy per block.
        self.reconvergence.extend_from_slice(&part.reconvergence);
        self.fcp.extend_from_slice(&part.fcp);
        self.packet_recycling.extend_from_slice(&part.packet_recycling);
        self.disconnected_pairs += part.disconnected_pairs;
        self.evaluated_pairs += part.evaluated_pairs;
        self.undelivered += part.undelivered;
        self.undelivered_fcp += part.undelivered_fcp;
        self.undelivered_pr += part.undelivered_pr;
    }

    fn drop_fcp(&mut self) {
        self.undelivered += 1;
        self.undelivered_fcp += 1;
    }

    fn drop_pr(&mut self) {
        self.undelivered += 1;
        self.undelivered_pr += 1;
    }
}

/// Runs the stretch experiment for one topology over a failure
/// family's scenarios on `threads` workers, using a precompiled PR
/// network (its embedding is the expensive part — compile once, reuse
/// across panels). Scenarios stream from the family; an explicit
/// `Vec<LinkSet>` works too (it implements [`ScenarioFamily`]).
pub fn run(
    graph: &Graph,
    pr: &PrNetwork,
    family: &dyn ScenarioFamily,
    threads: usize,
) -> StretchSamples {
    run_with_stats(graph, pr, family, threads).0
}

/// Auxiliary statistics of one stretch sweep: the cone opener's repair
/// counters, the walk counters of the lanes' flow units (FCP and PR
/// summed), the FCP route memo's, which fills under two or more
/// failures only, and what the lanes priced instead of walking, which
/// is every unit under one.
/// Integer counters, so totals are thread-count invariant. This is what
/// `pr sweep --stats` prints.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SweepStats {
    /// Shortest-path-tree repair counters.
    pub repair: RepairStats,
    /// Walk counters of the lanes' flow units: walks, walked steps,
    /// chains and shared sources. No sweep opens a suffix memo, so its
    /// counters (`lookups`, `hits`, `spliced_steps`) stay 0.
    pub memo: MemoStats,
    /// Fill counters of the FCP route memo.
    pub routes: RouteStats,
    /// Closed-form counters of the two scheme lanes.
    pub lanes: LaneStats,
}

impl SweepStats {
    /// Accumulates another stats record.
    pub fn merge(&mut self, other: &SweepStats) {
        self.repair.merge(&other.repair);
        self.memo.merge(&other.memo);
        self.routes.merge(&other.routes);
        self.lanes.merge(&other.lanes);
    }
}

/// What the scheme lanes answered by arithmetic where they used to
/// walk — the counters that say why a single-failure sweep reports no
/// walk. They count units with a cone: an empty one opens no lane.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneStats {
    /// Units the FCP lane priced from the opener's repaired labels.
    pub fcp_priced: u64,
    /// Units the PR lane priced from their failed dart's episode
    /// (`pr_core::FlowScratch::detour`).
    pub pr_priced: u64,
    /// Units the PR lane asked its failed dart's episode: one per unit
    /// of one failed link (a worker stages each dart's episode once and
    /// asks it for every destination, so this does not depend on how
    /// units fall to workers). An episode that does not reach the
    /// unit's destination or the link's far end leaves the unit to the
    /// walker.
    pub pr_episodes: u64,
}

impl LaneStats {
    /// Accumulates another stats record.
    pub fn merge(&mut self, other: &LaneStats) {
        self.fcp_priced += other.fcp_priced;
        self.pr_priced += other.pr_priced;
        self.pr_episodes += other.pr_episodes;
    }
}

/// [`run`], additionally reporting the sweep's auxiliary statistics
/// ([`SweepStats`]): the repair cone fraction is the share of
/// per-destination labels a scenario actually forced us to recompute,
/// and the walk counters say how many failure points were walked
/// rather than priced.
pub fn run_with_stats(
    graph: &Graph,
    pr: &PrNetwork,
    family: &dyn ScenarioFamily,
    threads: usize,
) -> (StretchSamples, SweepStats) {
    let mut out = StretchSamples::default();
    let mut stats = SweepStats::default();
    StretchPlan::new(graph, pr).fold(
        family,
        threads,
        |_| StretchBlock::default(),
        |_, block| {
            out.absorb(&block.samples);
            stats.merge(&block.stats);
        },
    );
    (out, stats)
}

/// What a worker folds a unit's pairs into, one at a time: a block of
/// raw samples ([`StretchBlock`], the library and oracle form) or a
/// scenario's growing row (`RowFold`, what [`stream_rows`] ships).
pub trait StretchFold {
    /// Records that the unit's scenario fails `failures` links.
    fn failures(&mut self, failures: usize);
    /// One affected source the failure cut off.
    fn disconnected(&mut self);
    /// One affected, connected source: its reconvergence stretch and
    /// what FCP and PR deliver it at (`None`: the scheme dropped it).
    fn evaluated(&mut self, reconvergence: f64, fcp: Option<f64>, pr: Option<f64>);
    /// The counters the unit adds to.
    fn stats(&mut self) -> &mut SweepStats;
}

/// What a worker folds one block of the sweep's work units into: the
/// units' samples in unit order, their summed statistics, and the
/// scenario's failure count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StretchBlock {
    /// Samples and conditioning counts of the block's units.
    pub samples: StretchSamples,
    /// Repair and walk counters of the block's units.
    pub stats: SweepStats,
    /// Links the block's scenario fails.
    pub failures: usize,
}

impl StretchFold for StretchBlock {
    fn failures(&mut self, failures: usize) {
        self.failures = failures;
    }

    fn disconnected(&mut self) {
        self.samples.disconnected_pairs += 1;
    }

    fn evaluated(&mut self, reconvergence: f64, fcp: Option<f64>, pr: Option<f64>) {
        let samples = &mut self.samples;
        samples.evaluated_pairs += 1;
        samples.reconvergence.push(reconvergence);
        match fcp {
            Some(stretch) => samples.fcp.push(stretch),
            None => samples.drop_fcp(),
        }
        match pr {
            Some(stretch) => samples.packet_recycling.push(stretch),
            None => samples.drop_pr(),
        }
    }

    fn stats(&mut self) -> &mut SweepStats {
        &mut self.stats
    }
}

/// The failure-invariant state of one stretch sweep: the engine's
/// [`ConePlan`] over the network's own trees, plus the compiled PR agent.
pub struct StretchPlan<'a> {
    cones: ConePlan<'a>,
    pr_agent: PrAgent<'a>,
}

impl<'a> StretchPlan<'a> {
    /// Hoists the sweep's failure-invariant state.
    pub fn new(graph: &'a Graph, pr: &'a PrNetwork) -> StretchPlan<'a> {
        StretchPlan { cones: ConePlan::new(graph, pr.base()), pr_agent: pr.agent(graph) }
    }

    /// The failure-free trees every lane reads: `pr`'s, not a copy.
    pub fn base(&self) -> &'a AllPairs {
        self.cones.base()
    }

    /// One worker's private state.
    pub fn worker(&self) -> StretchWorker<'_> {
        let fcp = FcpAgent::cached_with_base(self.cones.graph(), self.base());
        StretchWorker {
            opener: self.cones.sweep_opener(),
            fcp: LaneScratch::new(&self.cones, fcp),
            pr: LaneScratch::new(&self.cones, self.pr_agent),
        }
    }

    /// The engine-parallel sweep: each scenario of `family` is folded
    /// on a worker into the accumulator `start` gives it, which reaches
    /// `sink` with its scenario index, in scenario order.
    fn fold<A: StretchFold + Send>(
        &self,
        family: &dyn ScenarioFamily,
        threads: usize,
        start: impl Fn(usize) -> A + Sync,
        sink: impl FnMut(usize, A),
    ) {
        self.cones.sweep(family, threads).fold(
            || self.worker(),
            start,
            |w, unit, acc| w.fold_unit(unit, acc),
            sink,
        );
    }
}

/// Per-worker mutable state of the stretch sweep, reused across every
/// unit the worker runs: the cone opener and the two scheme lanes.
pub struct StretchWorker<'a> {
    opener: ConeOpener<'a>,
    fcp: LaneScratch<'a, FcpAgent<'a>>,
    pr: LaneScratch<'a, PrAgent<'a>>,
}

impl StretchWorker<'_> {
    /// Folds one (scenario, destination) unit — every affected source
    /// towards `unit.dst` — into `out`, samples in ascending source
    /// order. A unit no path of which crosses a failure, more than half
    /// of a single-failure sweep's, opens no lane and counts nothing.
    /// Once the worker's buffers have grown to the topology and `out`
    /// has the room, this does not call the allocator
    /// (`tests/alloc_sweep.rs`).
    pub fn fold_unit(&mut self, unit: SweepUnit<'_>, out: &mut impl StretchFold) {
        let StretchWorker { opener, fcp, pr } = self;
        out.failures(unit.failures);
        let cone = opener.open(&unit);
        if cone.len() == 0 {
            return;
        }
        let mut fcp_unit = fcp.unit(&unit, &cone);
        let mut pr_unit = pr.unit(&unit, &cone);
        // The debug-build cross-check of the survivor costs against
        // the reconvergence agent's own tables is per scenario in the
        // serial oracle; here it would recompute per unit.
        for (src, survivor) in cone {
            // Reconvergence: the survivor shortest path, by
            // definition — no need to walk it.
            let Some(reconv_cost) = survivor else {
                out.disconnected();
                continue;
            };
            let optimal = unit.base_tree.cost(src).expect("connected") as f64;
            let stretch = |cost: u64| cost as f64 / optimal;
            // FCP: incremental failure discovery; PR: cycle following.
            let (fcp_cost, pr_cost) = (fcp_unit.cost(src), pr_unit.cost(src));
            out.evaluated(stretch(reconv_cost), fcp_cost.map(stretch), pr_cost.map(stretch));
        }
        let stats = out.stats();
        stats.repair.merge(&opener.take_stats());
        fcp_unit.take_stats(stats);
        pr_unit.take_stats(stats);
    }
}

/// Per-scenario aggregate of the stretch sweep — the unit of sharded
/// checkpointing (see [`crate::shards`]). A row carries everything the
/// CSV/report artefacts need — integer CCDF counts at [`figure2_xs`],
/// per-scheme sums and maxima — at O(1) size per scenario, so
/// checkpoints of 1,000-node sweeps stay kilobytes where raw sample
/// vectors would be hundreds of megabytes.
///
/// Determinism: a row is folded from its scenario's work units in unit
/// order, on one worker, entirely within one shard (shards split on
/// scenario boundaries), so rows are invariant to thread *and* shard
/// counts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioRow {
    /// Index of the scenario in the (unsliced) family.
    pub scenario: u64,
    /// Number of links the scenario fails.
    pub failures: u64,
    /// Affected-and-connected pairs evaluated.
    pub evaluated_pairs: u64,
    /// Affected pairs excluded because the scenario disconnected them.
    pub disconnected_pairs: u64,
    /// Deliveries that failed although a path existed (FCP + PR).
    pub undelivered: u64,
    /// FCP walks that failed to deliver although a path existed.
    pub undelivered_fcp: u64,
    /// PR walks that failed to deliver although a path existed.
    pub undelivered_pr: u64,
    /// Sample count per scheme ([`Scheme::ALL`] order).
    pub samples: [u64; 3],
    /// Sum of stretch values per scheme, added in sample order.
    pub sum: [f64; 3],
    /// Maximum stretch per scheme (0 when the scheme has no samples).
    pub max: [f64; 3],
    /// CCDF counts, scheme-major: `above[s * xs + i]` is the number of
    /// scheme-`s` samples strictly above `figure2_xs()[i]`.
    pub above: Vec<u64>,
}

impl ScenarioRow {
    /// The row of scenario `scenario` with nothing in it, at `xs`
    /// thresholds.
    fn empty(scenario: u64, xs: usize) -> ScenarioRow {
        ScenarioRow {
            scenario,
            failures: 0,
            evaluated_pairs: 0,
            disconnected_pairs: 0,
            undelivered: 0,
            undelivered_fcp: 0,
            undelivered_pr: 0,
            samples: [0; 3],
            sum: [0.0; 3],
            max: [0.0; 3],
            above: vec![0; 3 * xs],
        }
    }
}

/// A scenario's [`ScenarioRow`], folded on the worker that sweeps the
/// scenario, sample by sample as the units produce them: per scheme
/// the count, the sum in sample order and the maximum, and a histogram
/// of how many thresholds lie strictly below each sample, which
/// `RowFold::finish` turns into the CCDF counts. Its bits are those
/// of one pass over the scenario's samples in unit order.
struct RowFold<'x> {
    row: ScenarioRow,
    grid: Grid<'x>,
    /// `bins[s * (xs + 1) + k]`: scheme-`s` samples with `k` thresholds
    /// strictly below them.
    bins: Vec<u64>,
    stats: SweepStats,
}

impl<'x> RowFold<'x> {
    /// The empty row of scenario `scenario`, at the ascending CCDF
    /// thresholds `xs`.
    fn new(scenario: u64, xs: &'x [f64]) -> RowFold<'x> {
        RowFold {
            row: ScenarioRow::empty(scenario, xs.len()),
            grid: Grid::of(xs),
            bins: vec![0; 3 * (xs.len() + 1)],
            stats: SweepStats::default(),
        }
    }

    /// One sample of scheme `scheme` ([`Scheme::ALL`] order).
    fn add(&mut self, scheme: usize, value: f64) {
        let row = &mut self.row;
        row.samples[scheme] += 1;
        row.sum[scheme] += value;
        row.max[scheme] = row.max[scheme].max(value);
        self.bins[scheme * (self.grid.xs.len() + 1) + self.grid.below(value)] += 1;
    }

    /// The finished row and the counters of the scenario's units. The
    /// count above threshold `j` is the bins past `j` summed.
    fn finish(self) -> (ScenarioRow, SweepStats) {
        let RowFold { mut row, grid, bins, stats } = self;
        let m = grid.xs.len();
        for (above, bins) in row.above.chunks_mut(m.max(1)).zip(bins.chunks(m + 1)) {
            let mut count = 0;
            for (j, slot) in above.iter_mut().enumerate().rev() {
                count += bins[j + 1];
                *slot = count;
            }
        }
        (row, stats)
    }
}

impl StretchFold for RowFold<'_> {
    fn failures(&mut self, failures: usize) {
        self.row.failures = failures as u64;
    }

    fn disconnected(&mut self) {
        self.row.disconnected_pairs += 1;
    }

    fn evaluated(&mut self, reconvergence: f64, fcp: Option<f64>, pr: Option<f64>) {
        self.row.evaluated_pairs += 1;
        self.add(0, reconvergence);
        match fcp {
            Some(stretch) => self.add(1, stretch),
            None => {
                self.row.undelivered += 1;
                self.row.undelivered_fcp += 1;
            }
        }
        match pr {
            Some(stretch) => self.add(2, stretch),
            None => {
                self.row.undelivered += 1;
                self.row.undelivered_pr += 1;
            }
        }
    }

    fn stats(&mut self) -> &mut SweepStats {
        &mut self.stats
    }
}

/// Ascending thresholds with a first guess at where a value falls among
/// them: exact on any ascending grid, one step on an evenly spaced one
/// ([`figure2_xs`]).
struct Grid<'a> {
    xs: &'a [f64],
    /// Reciprocal of the grid's first step (0 when it has none).
    per_step: f64,
}

impl Grid<'_> {
    fn of(xs: &[f64]) -> Grid<'_> {
        let per_step = match xs {
            [first, second, ..] if second > first => 1.0 / (second - first),
            _ => 0.0,
        };
        Grid { xs, per_step }
    }

    /// How many thresholds lie strictly below `value`: the `k` with
    /// `xs[k − 1] < value ≤ xs[k]`. The arithmetic guess only decides
    /// where the search starts (a float-to-integer cast truncates —
    /// on an even grid one step short of `k` at most, and no `ceil`
    /// call per sample — saturates, and sends not-a-number to 0); the
    /// two loops settle it against the thresholds themselves.
    fn below(&self, value: f64) -> usize {
        let xs = self.xs;
        let guess = xs.first().map_or(0.0, |first| (value - first) * self.per_step);
        let mut k = (guess as usize).min(xs.len());
        while k > 0 && xs[k - 1] >= value {
            k -= 1;
        }
        while k < xs.len() && xs[k] < value {
            k += 1;
        }
        k
    }
}

/// Runs the stretch sweep over `family` and hands `sink` one
/// [`ScenarioRow`] per scenario, in scenario order, with row indices
/// offset by `first_scenario` (pass a [`pr_scenarios::ScenarioSlice`]
/// plus its start to sweep one shard of a larger family); returns the
/// sweep's auxiliary statistics. Each row is folded on the worker that
/// sweeps its scenario (`RowFold`); no raw sample reaches the calling
/// thread, and a sink that folds each row into a [`RowTotals`] holds
/// O(1) for the whole sweep.
pub fn stream_rows(
    graph: &Graph,
    pr: &PrNetwork,
    family: &dyn ScenarioFamily,
    threads: usize,
    first_scenario: usize,
    mut sink: impl FnMut(ScenarioRow),
) -> SweepStats {
    let xs = figure2_xs();
    let mut stats = SweepStats::default();
    let start = |scenario| RowFold::new((first_scenario + scenario) as u64, &xs);
    StretchPlan::new(graph, pr).fold(family, threads, start, |_, fold| {
        let (row, row_stats) = fold.finish();
        sink(row);
        stats.merge(&row_stats);
    });
    stats
}

/// [`stream_rows`] folded into one running [`RowTotals`] as the rows
/// arrive: what `pr sweep`, `pr stretch` and the daemon's `query
/// stretch` run. It holds one row's worth of totals, whatever the
/// family's length.
pub fn run_totals(
    graph: &Graph,
    pr: &PrNetwork,
    family: &dyn ScenarioFamily,
    threads: usize,
) -> (RowTotals, SweepStats) {
    let mut totals = RowTotals::new(&figure2_xs());
    let stats = stream_rows(graph, pr, family, threads, 0, |row| totals.add(&row));
    (totals, stats)
}

/// [`stream_rows`], collected: what a shard checkpoints.
pub fn run_rows(
    graph: &Graph,
    pr: &PrNetwork,
    family: &dyn ScenarioFamily,
    threads: usize,
    first_scenario: usize,
) -> (Vec<ScenarioRow>, SweepStats) {
    let mut rows = Vec::with_capacity(family.len());
    let stats = stream_rows(graph, pr, family, threads, first_scenario, |row| rows.push(row));
    (rows, stats)
}

/// The running total of a sweep's rows, folded in scenario order: the
/// counts and CCDF numerators summed as integers, the stretch sums
/// added in row order and the maxima taken, so what it reports is the
/// same bits whether the rows streamed past it or were held. Both
/// artefacts come from it: [`RowTotals::report`] and
/// [`RowTotals::panel_csv`].
#[derive(Debug, Clone)]
pub struct RowTotals {
    xs: Vec<f64>,
    scenarios: u64,
    /// Every row added, summed (`max` the largest of each scheme's).
    total: ScenarioRow,
}

impl RowTotals {
    /// No rows yet, at the CCDF thresholds `xs` the rows were
    /// aggregated at ([`figure2_xs`]).
    pub fn new(xs: &[f64]) -> RowTotals {
        RowTotals { xs: xs.to_vec(), scenarios: 0, total: ScenarioRow::empty(0, xs.len()) }
    }

    /// `rows`, in scenario order, folded.
    pub fn of(rows: &[ScenarioRow], xs: &[f64]) -> RowTotals {
        let mut totals = RowTotals::new(xs);
        rows.iter().for_each(|row| totals.add(row));
        totals
    }

    /// Folds the next row in.
    pub fn add(&mut self, row: &ScenarioRow) {
        let total = &mut self.total;
        assert_eq!(
            row.above.len(),
            total.above.len(),
            "rows were aggregated at a different threshold set"
        );
        self.scenarios += 1;
        total.evaluated_pairs += row.evaluated_pairs;
        total.disconnected_pairs += row.disconnected_pairs;
        total.undelivered += row.undelivered;
        total.undelivered_fcp += row.undelivered_fcp;
        total.undelivered_pr += row.undelivered_pr;
        #[allow(clippy::needless_range_loop)]
        for s in 0..3 {
            total.samples[s] += row.samples[s];
            total.sum[s] += row.sum[s];
            total.max[s] = total.max[s].max(row.max[s]);
        }
        for (above, n) in total.above.iter_mut().zip(&row.above) {
            *above += n;
        }
    }

    /// `P(stretch > xs[i])` for scheme `s`: 0 when it has no samples.
    fn ccdf(&self, s: usize, i: usize) -> f64 {
        match self.total.samples[s] {
            0 => 0.0,
            samples => self.total.above[s * self.xs.len() + i] as f64 / samples as f64,
        }
    }

    /// The [`SweepReport`] of the rows added.
    pub fn report(&self) -> SweepReport {
        let total = &self.total;
        let or_nan = |s: usize, value: f64| if total.samples[s] > 0 { value } else { f64::NAN };
        SweepReport {
            scenarios: self.scenarios,
            evaluated_pairs: total.evaluated_pairs,
            disconnected_pairs: total.disconnected_pairs,
            undelivered: total.undelivered,
            undelivered_fcp: total.undelivered_fcp,
            undelivered_pr: total.undelivered_pr,
            samples: total.samples,
            mean: std::array::from_fn(|s| or_nan(s, total.sum[s] / total.samples[s] as f64)),
            max: std::array::from_fn(|s| or_nan(s, total.max[s])),
            xs: self.xs.clone(),
            ccdf: std::array::from_fn(|s| (0..self.xs.len()).map(|i| self.ccdf(s, i)).collect()),
        }
    }

    /// The CSV panel of the rows added: byte-identical to [`panel_csv`]
    /// of their raw samples, because the CCDF numerators are exact
    /// integer sums and the denominators the exact totals.
    pub fn panel_csv(&self) -> String {
        let mut out = String::from("stretch,reconvergence,fcp,packet-recycling\n");
        for (i, &x) in self.xs.iter().enumerate() {
            let p = |s| self.ccdf(s, i);
            out.push_str(&format!("{},{:.6},{:.6},{:.6}\n", x, p(0), p(1), p(2)));
        }
        out
    }
}

/// The merged result of a sweep: totals, per-scheme means and maxima,
/// and the CCDF curves — what `pr sweep --format json` writes and what
/// `pr stretch` and the daemon's `query stretch` read. Derived from
/// rows in scenario order, so it is bit-identical at any thread or
/// shard count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepReport {
    /// Scenarios swept.
    pub scenarios: u64,
    /// Affected-and-connected pairs evaluated.
    pub evaluated_pairs: u64,
    /// Affected pairs excluded as disconnected.
    pub disconnected_pairs: u64,
    /// Deliveries that failed although a path existed (FCP + PR).
    pub undelivered: u64,
    /// FCP walks that failed to deliver although a path existed.
    pub undelivered_fcp: u64,
    /// PR walks that failed to deliver although a path existed.
    pub undelivered_pr: u64,
    /// Sample count per scheme ([`Scheme::ALL`] order).
    pub samples: [u64; 3],
    /// Mean stretch per scheme (null when the scheme has no samples).
    pub mean: [f64; 3],
    /// Maximum stretch per scheme (null when the scheme has no
    /// samples).
    pub max: [f64; 3],
    /// CCDF thresholds (the x axis of the paper's Figure 2).
    pub xs: Vec<f64>,
    /// `P(stretch > x)` per scheme at each threshold.
    pub ccdf: [Vec<f64>; 3],
}

/// The mean of `samples`, summed in order; not-a-number when there are
/// none (an empty sweep has no mean stretch, and `0.000` would read as
/// one).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Evaluates `P(sample > x)` at each of `xs` — the paper's CCDF.
pub fn ccdf(samples: &[f64], xs: &[f64]) -> Vec<(f64, f64)> {
    if samples.is_empty() {
        return xs.iter().map(|&x| (x, 0.0)).collect();
    }
    let n = samples.len() as f64;
    xs.iter()
        .map(|&x| {
            let above = samples.iter().filter(|&&s| s > x).count() as f64;
            (x, above / n)
        })
        .collect()
}

/// The x-axis of the paper's Figure 2: stretch 1 to 15.
pub fn figure2_xs() -> Vec<f64> {
    (0..=28).map(|i| 1.0 + i as f64 * 0.5).collect()
}

/// Renders one panel as CSV: `x, reconvergence, fcp, packet-recycling`.
pub fn panel_csv(samples: &StretchSamples, xs: &[f64]) -> String {
    let r = ccdf(&samples.reconvergence, xs);
    let f = ccdf(&samples.fcp, xs);
    let p = ccdf(&samples.packet_recycling, xs);
    let mut out = String::from("stretch,reconvergence,fcp,packet-recycling\n");
    for i in 0..xs.len() {
        out.push_str(&format!("{},{:.6},{:.6},{:.6}\n", r[i].0, r[i].1, f[i].1, p[i].1));
    }
    out
}

/// Summary statistics for the EXPERIMENTS.md table.
#[derive(Debug, Clone, Serialize)]
pub struct PanelSummary {
    /// Median stretch per scheme.
    pub median: [f64; 3],
    /// 95th-percentile stretch per scheme.
    pub p95: [f64; 3],
    /// Maximum stretch per scheme.
    pub max: [f64; 3],
    /// Probability that stretch exceeds 1 (i.e. the scheme pays any
    /// detour at all), per scheme.
    pub p_above_one: [f64; 3],
}

/// Computes the summary for one panel (schemes in [`Scheme::ALL`]
/// order).
pub fn summarize(samples: &StretchSamples) -> PanelSummary {
    fn quantile(sorted: &[f64], q: f64) -> f64 {
        if sorted.is_empty() {
            return f64::NAN;
        }
        let pos = q * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
    let mut median = [0.0; 3];
    let mut p95 = [0.0; 3];
    let mut max = [0.0; 3];
    let mut p_above_one = [0.0; 3];
    for (i, scheme) in Scheme::ALL.iter().enumerate() {
        let mut v = samples.of(*scheme).to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("stretch values are finite"));
        median[i] = quantile(&v, 0.5);
        p95[i] = quantile(&v, 0.95);
        max[i] = v.last().copied().unwrap_or(f64::NAN);
        p_above_one[i] = if v.is_empty() {
            f64::NAN
        } else {
            v.iter().filter(|&&s| s > 1.0 + 1e-12).count() as f64 / v.len() as f64
        };
    }
    PanelSummary { median, p95, max, p_above_one }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pr_core::{DiscriminatorKind, PrMode};
    use pr_embedding::CellularEmbedding;

    fn compile_pr(graph: &Graph) -> PrNetwork {
        let rot = pr_embedding::heuristics::thorough(graph, 2010, 4, 10_000);
        let emb = CellularEmbedding::new(graph, rot).unwrap();
        PrNetwork::compile(graph, emb, PrMode::DistanceDiscriminator, DiscriminatorKind::Hops)
    }

    #[test]
    fn abilene_single_failures_have_expected_shape() {
        let g =
            pr_topologies::load(pr_topologies::Isp::Abilene, pr_topologies::Weighting::Distance);
        let pr = compile_pr(&g);
        let scenarios: Vec<_> = pr_scenarios::SingleLinkFailures::new(&g).scenarios().collect();
        let samples = run(&g, &pr, &scenarios, 2);

        assert_eq!(samples.undelivered, 0, "all three schemes must deliver");
        assert_eq!(samples.undelivered_fcp, 0);
        assert_eq!(samples.undelivered_pr, 0);
        assert_eq!(samples.disconnected_pairs, 0, "Abilene is 2-edge-connected");
        assert!(samples.evaluated_pairs > 0);
        assert_eq!(samples.reconvergence.len(), samples.packet_recycling.len());

        // Shape: reconvergence ≤ FCP ≤ PR in the mean.
        let (mr, mf, mp) =
            (mean(&samples.reconvergence), mean(&samples.fcp), mean(&samples.packet_recycling));
        assert!(mr <= mf + 1e-12, "reconvergence {mr} > fcp {mf}");
        assert!(mf <= mp + 1e-12, "fcp {mf} > pr {mp}");
        assert!(mr >= 1.0);
    }

    #[test]
    fn the_plan_borrows_the_networks_trees() {
        // One failure-free map per process: a plan that computed trees
        // of its own would hand out another address.
        let g =
            pr_topologies::load(pr_topologies::Isp::Abilene, pr_topologies::Weighting::Distance);
        let pr = compile_pr(&g);
        assert!(std::ptr::eq(StretchPlan::new(&g, &pr).base(), pr.base()));
    }

    #[test]
    fn ccdf_is_monotone_decreasing_from_at_most_one() {
        let samples = vec![1.0, 1.5, 2.0, 2.0, 7.5];
        let xs = figure2_xs();
        let curve = ccdf(&samples, &xs);
        assert_eq!(curve.len(), xs.len());
        assert!(curve[0].1 <= 1.0);
        for w in curve.windows(2) {
            assert!(w[1].1 <= w[0].1);
        }
        // P(stretch > 15) = 0 in this sample set.
        assert_eq!(curve.last().unwrap().1, 0.0);
    }

    #[test]
    fn ccdf_of_empty_is_zero() {
        let xs = [1.0, 2.0];
        assert_eq!(ccdf(&[], &xs), vec![(1.0, 0.0), (2.0, 0.0)]);
    }

    #[test]
    fn panel_csv_has_header_and_rows() {
        let s = StretchSamples {
            reconvergence: vec![1.0, 1.2],
            fcp: vec![1.1, 1.4],
            packet_recycling: vec![1.3, 2.0],
            ..Default::default()
        };
        let xs = [1.0, 1.5];
        let csv = panel_csv(&s, &xs);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "stretch,reconvergence,fcp,packet-recycling");
        assert!(lines[1].starts_with("1,"));
    }

    #[test]
    fn rows_reproduce_the_raw_sample_panel_byte_for_byte() {
        let g =
            pr_topologies::load(pr_topologies::Isp::Abilene, pr_topologies::Weighting::Distance);
        let pr = compile_pr(&g);
        let family = pr_scenarios::SingleLinkFailures::new(&g);
        let xs = figure2_xs();

        let samples = run(&g, &pr, &family, 2);
        let (rows, _) = run_rows(&g, &pr, &family, 2, 0);
        assert_eq!(rows.len(), family.len());
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.scenario, i as u64);
            assert_eq!(row.failures, 1);
        }
        // The CSV artefact reconstructed from rows is byte-identical to
        // the raw-sample rendering (integer CCDF numerators, exact
        // totals).
        assert_eq!(RowTotals::of(&rows, &xs).panel_csv(), panel_csv(&samples, &xs));
        // Totals line up with the folded panel.
        let report = RowTotals::of(&rows, &xs).report();
        assert_eq!(report.evaluated_pairs, samples.evaluated_pairs as u64);
        assert_eq!(report.samples[0], samples.reconvergence.len() as u64);
        assert_eq!(report.undelivered, samples.undelivered as u64);
        assert_eq!(report.undelivered_fcp + report.undelivered_pr, report.undelivered);

        assert!((report.mean[2] - mean(&samples.packet_recycling)).abs() < 1e-12);

        // Rows survive the JSON checkpoint round-trip bit-for-bit
        // (shortest-roundtrip f64 rendering).
        let text = serde_json::to_string_pretty(&rows).unwrap();
        let back: Vec<ScenarioRow> = serde_json::from_str(&text).unwrap();
        assert_eq!(back, rows);
    }

    #[test]
    fn a_row_folds_its_samples_in_one_pass_as_thirty_passes_would() {
        // The thirty-pass form: per scheme, one count per threshold.
        fn above_by_definition(block: &StretchBlock, xs: &[f64]) -> Vec<u64> {
            let mut above = Vec::new();
            for scheme in Scheme::ALL {
                let v = block.samples.of(scheme);
                above.extend(xs.iter().map(|&x| v.iter().filter(|&&s| s > x).count() as u64));
            }
            above
        }
        // Samples on every threshold, just beside each, below the first
        // and beyond the last; an even grid, an uneven one (the guess
        // from the first step is wrong nearly everywhere), a flat step,
        // one threshold and none.
        let grids: [Vec<f64>; 5] = [
            figure2_xs(),
            vec![1.0, 1.1, 1.5, 4.0, 4.0, 9.0, 100.0],
            vec![2.0, 2.0, 3.0],
            vec![1.5],
            vec![],
        ];
        for xs in grids {
            let mut on_and_beside: Vec<f64> = xs
                .iter()
                .flat_map(|&x| [x, x - 1e-9, x + 1e-9, x - 0.25, x + 0.25])
                .chain([0.0, 0.5, 1.0, 15.0, 16.0, 1e9, f64::INFINITY])
                .collect();
            let reconvergence = on_and_beside.clone();
            on_and_beside.reverse();
            let fcp = on_and_beside.clone();
            let packet_recycling = on_and_beside.iter().map(|v| v * 1.5).collect();
            let samples =
                StretchSamples { reconvergence, fcp, packet_recycling, ..Default::default() };
            let block = StretchBlock { samples, ..Default::default() };
            let mut fold = RowFold::new(0, &xs);
            // Twice: counts accumulate across a scenario's units.
            for _ in 0..2 {
                for (i, scheme) in Scheme::ALL.iter().enumerate() {
                    block.samples.of(*scheme).iter().for_each(|&value| fold.add(i, value));
                }
            }
            let (row, _) = fold.finish();
            let once = above_by_definition(&block, &xs);
            assert_eq!(row.above, once.iter().map(|n| 2 * n).collect::<Vec<_>>(), "{xs:?}");
            let n = block.samples.reconvergence.len() as u64;
            assert_eq!(row.samples, [2 * n; 3]);
            assert_eq!(row.max[0], f64::INFINITY);
        }
    }

    #[test]
    fn rows_offset_and_slice_like_shards_do() {
        let g =
            pr_topologies::load(pr_topologies::Isp::Abilene, pr_topologies::Weighting::Distance);
        let pr = compile_pr(&g);
        let family = pr_scenarios::SingleLinkFailures::new(&g);
        let whole = run_rows(&g, &pr, &family, 1, 0).0;
        // Sweeping two slices and concatenating gives the same rows.
        let mid = family.len() / 2;
        let left = pr_scenarios::ScenarioSlice::new(&family, 0, mid);
        let right = pr_scenarios::ScenarioSlice::new(&family, mid, family.len() - mid);
        let mut stitched = run_rows(&g, &pr, &left, 2, 0).0;
        stitched.extend(run_rows(&g, &pr, &right, 2, mid).0);
        assert_eq!(stitched, whole);
    }

    #[test]
    fn report_of_empty_rows_is_well_formed() {
        let xs = figure2_xs();
        let report = RowTotals::of(&[], &xs).report();
        assert_eq!(report.scenarios, 0);
        assert!(report.mean[0].is_nan());
        assert!(report.ccdf[1].iter().all(|&p| p == 0.0));
        let csv = RowTotals::of(&[], &xs).panel_csv();
        assert_eq!(csv.lines().count(), xs.len() + 1);
    }

    #[test]
    fn summary_quantiles() {
        let s = StretchSamples {
            reconvergence: vec![1.0; 100],
            fcp: (0..100).map(|i| 1.0 + i as f64 / 100.0).collect(),
            packet_recycling: vec![3.0; 100],
            ..Default::default()
        };
        let sum = summarize(&s);
        assert_eq!(sum.median[0], 1.0);
        assert!((sum.median[1] - 1.495).abs() < 0.01);
        assert_eq!(sum.max[2], 3.0);
        assert_eq!(sum.p_above_one[0], 0.0);
        assert_eq!(sum.p_above_one[2], 1.0);
    }
}
