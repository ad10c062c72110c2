//! The stretch experiment — the paper's Figure 2.
//!
//! For each failure scenario and each (src, dst) pair whose
//! failure-free shortest path is *affected* (crosses a failed link)
//! and which remains connected, record the **stretch**: the ratio of
//! the cost of the path the scheme actually delivers over to the
//! failure-free shortest-path cost (§6). Per panel and scheme, the
//! paper plots the complementary CDF `P(stretch > x | path)`.
//!
//! The sweep is the engine's unit kernel ([`crate::engine`]) with three
//! lanes: a worker's cone opener yields a unit's affected sources with
//! their survivor cost — which *is* the reconvergence sample — and the
//! FCP ([`crate::fcp_lane`]) and PR ([`crate::pr_lane`]) lanes answer
//! each connected one: by arithmetic under a single failure, where
//! neither lane walks, and by one walk per failure point under two or
//! more. Workers fold blocks of consecutive destinations into
//! [`StretchBlock`]s, which reach the calling thread in work-unit order
//! while the pool runs.
//!
//! The **result form** is the per-scenario [`ScenarioRow`]:
//! [`run_rows`] folds each scenario's blocks into its row and drops
//! them, holding O(1) per scenario, and every front door (`pr sweep`,
//! `pr stretch`, the daemon's `query stretch`, shard checkpoints)
//! reads rows through [`report_from_rows`] / [`panel_csv_from_rows`].
//! Raw samples are the **library and oracle form**:
//! [`run_with_stats`] appends the same blocks straight into a
//! [`StretchSamples`] panel, so [`run`] is bit-identical to the
//! independent oracle (`pr_testkit::oracle::stretch_serial`: plain
//! `walk_packet`, scratch Dijkstra, all n sources classified) at any
//! thread count (enforced by `tests/determinism.rs`). Quantiles need it
//! ([`summarize`], for `pr experiment fig2`); no sweep front door
//! holds it.

use serde::{Deserialize, Serialize};

use pr_baselines::RouteStats;
use pr_core::{MemoStats, PrAgent, PrNetwork};
use pr_graph::{AllPairs, Graph, RepairStats};
use pr_scenarios::ScenarioFamily;

use crate::engine::{ConeOpener, ConePlan, SweepUnit};
use crate::fcp_lane::{FcpLane, FcpUnit};
use crate::pr_lane::{PrLane, PrUnit};

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
/// counters, walk-memo counters (FCP and PR memos summed), the FCP
/// route memo's, which fills under two or more failures only, and what
/// the lanes priced instead of walking, which is every unit under one.
/// Integer counters, so totals are thread-count invariant. This is what
/// `pr sweep --stats` prints.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SweepStats {
    /// Shortest-path-tree repair counters.
    pub repair: RepairStats,
    /// Suffix-memo counters of the walk engine.
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
    /// Units the PR lane priced from their failed dart's episode.
    pub pr_priced: u64,
    /// Episodes the PR lane read: one per unit of one failed link. An
    /// episode that prices nothing (it does not reach the link's far
    /// end) leaves its unit to the walker.
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
/// and the memo hit rate / spliced share say how much walking the
/// suffix memo answered from cache.
pub fn run_with_stats(
    graph: &Graph,
    pr: &PrNetwork,
    family: &dyn ScenarioFamily,
    threads: usize,
) -> (StretchSamples, SweepStats) {
    let mut out = StretchSamples::default();
    let mut stats = SweepStats::default();
    StretchPlan::new(graph, pr).fold(family, threads, |_, block| {
        out.absorb(&block.samples);
        stats.merge(&block.stats);
    });
    (out, stats)
}

/// What a worker folds one block of the sweep's work units into: the
/// units' samples in unit order, their summed statistics, and the
/// scenario's failure count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StretchBlock {
    /// Samples and conditioning counts of the block's units.
    pub samples: StretchSamples,
    /// Repair and memo counters of the block's units.
    pub stats: SweepStats,
    /// Links the block's scenario fails.
    pub failures: usize,
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
        StretchWorker {
            plan: self,
            opener: self.cones.opener(),
            fcp: FcpLane::new(&self.cones),
            pr: PrLane::new(&self.cones, self.pr_agent),
        }
    }

    /// The engine-parallel sweep: every block of `family`'s work units
    /// reaches `sink` with its scenario index, in unit order.
    fn fold(
        &self,
        family: &dyn ScenarioFamily,
        threads: usize,
        sink: impl FnMut(usize, StretchBlock),
    ) {
        self.cones.sweep(family, threads).fold(
            || self.worker(),
            |w, _| w.begin_scenario(),
            |w, unit, block| w.fold_unit(unit, block),
            sink,
        );
    }
}

/// Per-worker mutable state of the stretch sweep, reused across every
/// unit the worker runs: the cone opener and the two scheme lanes.
pub struct StretchWorker<'a> {
    plan: &'a StretchPlan<'a>,
    opener: ConeOpener<'a>,
    fcp: FcpLane<'a>,
    pr: PrLane<'a>,
}

impl StretchWorker<'_> {
    /// Scenario boundary: evicts the FCP route memo (its keys are
    /// subsets of the departing scenario's failures).
    pub fn begin_scenario(&self) {
        self.fcp.begin_scenario();
    }

    /// Folds one (scenario, destination) unit — every affected source
    /// towards `unit.dst` — into `out`, samples in ascending source
    /// order. A unit no path of which crosses a failure, more than half
    /// of a single-failure sweep's, opens no lane and counts nothing.
    /// Once the worker's buffers have grown to the topology and `out`
    /// has the room, this does not call the allocator
    /// (`tests/alloc_sweep.rs`).
    pub fn fold_unit(&mut self, unit: SweepUnit<'_>, out: &mut StretchBlock) {
        let StretchWorker { plan, opener, fcp, pr } = self;
        let ttl = plan.cones.ttl();
        out.failures = unit.failures;
        let cone = opener.open(&unit);
        if cone.len() == 0 {
            return;
        }
        let mut fcp_unit = fcp.unit(&unit, &cone);
        let mut pr_unit = pr.unit(&unit);
        let lanes = &mut out.stats.lanes;
        lanes.fcp_priced += u64::from(matches!(fcp_unit, FcpUnit::Priced(..)));
        lanes.pr_priced += u64::from(matches!(pr_unit, PrUnit::Priced(..)));
        let samples = &mut out.samples;
        // The debug-build cross-check of the survivor costs against
        // the reconvergence agent's own tables is per scenario in the
        // serial oracle; here it would recompute per unit.
        for (src, survivor) in cone {
            let Some(reconv_cost) = survivor else {
                samples.disconnected_pairs += 1;
                continue;
            };
            samples.evaluated_pairs += 1;
            let optimal = unit.base_tree.cost(src).expect("connected");

            // Reconvergence: the survivor shortest path, by
            // definition — no need to walk it.
            samples.reconvergence.push(reconv_cost as f64 / optimal as f64);

            // FCP: incremental failure discovery.
            match fcp_unit.cost(src) {
                Some(cost) => samples.fcp.push(cost as f64 / optimal as f64),
                None => samples.drop_fcp(),
            }

            // PR: cycle following.
            match pr_unit.walk(src, ttl).cost() {
                Some(cost) => samples.packet_recycling.push(cost as f64 / optimal as f64),
                None => samples.drop_pr(),
            }
        }
        out.stats.repair.merge(&opener.take_stats());
        out.stats.memo.merge(&fcp_unit.take_stats());
        out.stats.routes.merge(&fcp.take_route_stats());
        out.stats.memo.merge(&pr_unit.take_stats());
        out.stats.lanes.pr_episodes += pr.take_episodes();
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
/// order, entirely within one shard (shards split on scenario
/// boundaries), so rows are invariant to thread *and* shard counts.
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
    /// The row of a scenario none of whose blocks has arrived yet.
    fn empty(scenario: u64, thresholds: usize) -> ScenarioRow {
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
            above: vec![0; 3 * thresholds],
        }
    }

    /// Folds the scenario's next block in, at the ascending CCDF
    /// thresholds `xs`. Sums run sample by sample, so a row's bits do
    /// not depend on where the block boundaries fell. Each sample is
    /// read once: it is binned by how many thresholds lie strictly
    /// below it, and the count above threshold `j` is the bins past
    /// `j` summed.
    fn absorb(&mut self, block: &StretchBlock, xs: &[f64]) {
        let s = &block.samples;
        self.failures = block.failures as u64;
        self.evaluated_pairs += s.evaluated_pairs as u64;
        self.disconnected_pairs += s.disconnected_pairs as u64;
        self.undelivered += s.undelivered as u64;
        self.undelivered_fcp += s.undelivered_fcp as u64;
        self.undelivered_pr += s.undelivered_pr as u64;
        let grid = Grid::of(xs);
        let mut bins = vec![0u64; xs.len() + 1];
        for (i, scheme) in Scheme::ALL.iter().enumerate() {
            let v = s.of(*scheme);
            self.samples[i] += v.len() as u64;
            bins.fill(0);
            for &value in v {
                self.sum[i] += value;
                self.max[i] = self.max[i].max(value);
                bins[grid.below(value)] += 1;
            }
            let mut above = 0;
            for (j, count) in self.above[i * xs.len()..][..xs.len()].iter_mut().enumerate().rev() {
                above += bins[j + 1];
                *count += above;
            }
        }
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
    /// where the search starts (a float-to-integer cast saturates, and
    /// sends not-a-number to 0); the two loops settle it against the
    /// thresholds themselves.
    fn below(&self, value: f64) -> usize {
        let xs = self.xs;
        let guess = xs.first().map_or(0.0, |first| ((value - first) * self.per_step).ceil());
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

/// Runs the stretch sweep over `family` and folds it into one
/// [`ScenarioRow`] per scenario, with row indices offset by
/// `first_scenario` (pass a [`pr_scenarios::ScenarioSlice`] plus its
/// start to sweep one shard of a larger family), plus the sweep's
/// auxiliary statistics.
pub fn run_rows(
    graph: &Graph,
    pr: &PrNetwork,
    family: &dyn ScenarioFamily,
    threads: usize,
    first_scenario: usize,
) -> (Vec<ScenarioRow>, SweepStats) {
    let xs = figure2_xs();
    let mut rows: Vec<ScenarioRow> = Vec::with_capacity(family.len());
    let mut stats = SweepStats::default();
    StretchPlan::new(graph, pr).fold(family, threads, |scenario, block| {
        // Blocks arrive in unit order: a new scenario index opens the
        // next row.
        let absolute = (first_scenario + scenario) as u64;
        if rows.last().is_none_or(|row| row.scenario != absolute) {
            rows.push(ScenarioRow::empty(absolute, xs.len()));
        }
        rows.last_mut().expect("just pushed").absorb(&block, &xs);
        stats.merge(&block.stats);
    });
    (rows, stats)
}

/// [`panel_csv`] reconstructed from per-scenario rows: byte-identical
/// to the raw-sample rendering, because the CCDF numerators are exact
/// integer sums over rows and the denominators are the exact totals.
/// `xs` must be the thresholds the rows were aggregated at
/// ([`figure2_xs`]).
pub fn panel_csv_from_rows(rows: &[ScenarioRow], xs: &[f64]) -> String {
    assert!(
        rows.iter().all(|r| r.above.len() == 3 * xs.len()),
        "rows were aggregated at a different threshold set"
    );
    let mut totals = [0u64; 3];
    for row in rows {
        for (total, &n) in totals.iter_mut().zip(&row.samples) {
            *total += n;
        }
    }
    let mut out = String::from("stretch,reconvergence,fcp,packet-recycling\n");
    for (i, &x) in xs.iter().enumerate() {
        let p = |s: usize| {
            if totals[s] == 0 {
                0.0
            } else {
                let above: u64 = rows.iter().map(|r| r.above[s * xs.len() + i]).sum();
                above as f64 / totals[s] as f64
            }
        };
        out.push_str(&format!("{},{:.6},{:.6},{:.6}\n", x, p(0), p(1), p(2)));
    }
    out
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

/// Folds merged rows (in scenario order) into a [`SweepReport`].
pub fn report_from_rows(rows: &[ScenarioRow], xs: &[f64]) -> SweepReport {
    assert!(
        rows.iter().all(|r| r.above.len() == 3 * xs.len()),
        "rows were aggregated at a different threshold set"
    );
    let mut report = SweepReport {
        scenarios: rows.len() as u64,
        evaluated_pairs: 0,
        disconnected_pairs: 0,
        undelivered: 0,
        undelivered_fcp: 0,
        undelivered_pr: 0,
        samples: [0; 3],
        mean: [f64::NAN; 3],
        max: [f64::NAN; 3],
        xs: xs.to_vec(),
        ccdf: [Vec::new(), Vec::new(), Vec::new()],
    };
    let mut sum = [0.0f64; 3];
    for row in rows {
        report.evaluated_pairs += row.evaluated_pairs;
        report.disconnected_pairs += row.disconnected_pairs;
        report.undelivered += row.undelivered;
        report.undelivered_fcp += row.undelivered_fcp;
        report.undelivered_pr += row.undelivered_pr;
        #[allow(clippy::needless_range_loop)]
        for s in 0..3 {
            report.samples[s] += row.samples[s];
            sum[s] += row.sum[s];
        }
    }
    #[allow(clippy::needless_range_loop)]
    for s in 0..3 {
        if report.samples[s] > 0 {
            report.mean[s] = sum[s] / report.samples[s] as f64;
            report.max[s] = rows.iter().map(|r| r.max[s]).fold(0.0, f64::max);
        }
        report.ccdf[s] = (0..xs.len())
            .map(|i| {
                if report.samples[s] == 0 {
                    0.0
                } else {
                    let above: u64 = rows.iter().map(|r| r.above[s * xs.len() + i]).sum();
                    above as f64 / report.samples[s] as f64
                }
            })
            .collect();
    }
    report
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
        assert_eq!(panel_csv_from_rows(&rows, &xs), panel_csv(&samples, &xs));
        // Totals line up with the folded panel.
        let report = report_from_rows(&rows, &xs);
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
            let mut row = ScenarioRow::empty(0, xs.len());
            // Twice: counts accumulate across a scenario's blocks.
            row.absorb(&block, &xs);
            row.absorb(&block, &xs);
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
        let report = report_from_rows(&[], &xs);
        assert_eq!(report.scenarios, 0);
        assert!(report.mean[0].is_nan());
        assert!(report.ccdf[1].iter().all(|&p| p == 0.0));
        let csv = panel_csv_from_rows(&[], &xs);
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
