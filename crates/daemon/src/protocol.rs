//! The daemon control protocol: line-delimited JSON over TCP.
//!
//! One request per line, one response line back, in order. Both sides
//! frame with the compat `serde_json` (externally tagged enums — unit
//! variants as strings, data variants as `{"Variant": {...}}`), so the
//! wire format is exactly what real serde would emit and every numeric
//! field survives the hop bit-for-bit (shortest-round-trip `f64`
//! rendering).
//!
//! Links are addressed by endpoint names (`"Denver-KansasCity"`), the
//! same grammar as the CLI's `--fail` option; the daemon resolves them
//! against its resident graph so clients never need link ids.

use pr_traffic::{DemandTally, ScenarioTraffic};
use serde::{Deserialize, Serialize};

/// A control request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Fails a live link (error if already failed or unknown).
    LinkDown {
        /// `"A-B"` endpoint-name pair.
        link: String,
    },
    /// Restores a failed link (error if not currently failed).
    LinkUp {
        /// `"A-B"` endpoint-name pair.
        link: String,
    },
    /// Replaces the resident demand matrix.
    SetDemand {
        /// `gravity` | `uniform` | `hotspot`.
        model: String,
        /// Sample this many flows instead of the full matrix.
        flows: Option<usize>,
        /// Hot-PoP count (`hotspot` only; default `n/8`, min 1).
        hotspots: Option<usize>,
        /// Hot-PoP demand boost (`hotspot` only; default 8.0).
        boost: Option<f64>,
        /// Seed for sampling / hotspot picks (default 2010).
        seed: Option<u64>,
    },
    /// Evaluates the current failed set against the resident demand.
    Query {
        /// Which evaluation to run.
        what: QueryKind,
    },
    /// Full state dump: identity, failed set, gauges, counters.
    Snapshot,
    /// Clean shutdown (the daemon replies [`Response::Bye`] first).
    Shutdown,
}

impl Request {
    /// Whether this request changes twin state (and therefore belongs
    /// in the event log that restart replay consumes).
    pub fn mutates(&self) -> bool {
        matches!(
            self,
            Request::LinkDown { .. } | Request::LinkUp { .. } | Request::SetDemand { .. }
        )
    }
}

/// The evaluations `Request::Query` can ask for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueryKind {
    /// Uniform-unit-demand delivery coverage (the paper's §4 metric).
    Coverage,
    /// Three-scheme stretch panel over the current failed set.
    Stretch,
    /// Demand-weighted replay of the resident flow set.
    Traffic,
}

/// A control response (one line, mirroring the request order).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// The request was applied.
    Done {
        /// Human-readable outcome summary.
        info: String,
    },
    /// Answer to `Query { what: Traffic }`.
    Traffic(TrafficReport),
    /// Answer to `Query { what: Coverage }`.
    Coverage(CoverageReport),
    /// Answer to `Query { what: Stretch }`.
    Stretch(StretchReport),
    /// Answer to `Snapshot`.
    State(Box<SnapshotReport>),
    /// Acknowledges `Shutdown`; the daemon exits after sending it.
    Bye,
    /// The request failed; twin state is unchanged.
    Error {
        /// What went wrong.
        message: String,
    },
}

impl Response {
    /// Whether this is an error response.
    pub fn is_error(&self) -> bool {
        matches!(self, Response::Error { .. })
    }
}

/// Demand-weighted replay outcome for the current failed set —
/// bit-identical to the `pr traffic --fail …` batch row on the same
/// scenario (the equivalence suite enforces this).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficReport {
    /// Links currently failed.
    pub failed_links: usize,
    /// The raw replay outcome (tally + peak link load).
    pub traffic: ScenarioTraffic,
    /// Peak link load as a fraction of offered demand.
    pub max_link_utilisation: f64,
    /// Endpoint names of the peak link, if anything was delivered.
    pub peak_link: Option<String>,
    /// Demand-weighted mean stretch over delivered affected flows.
    pub mean_weighted_stretch: Option<f64>,
}

/// Uniform-unit-demand coverage for the current failed set. Under a
/// unit matrix the weighted tally is integral, so `coverage` equals
/// the paper's unweighted delivered/evaluated ratio bit-for-bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoverageReport {
    /// Links currently failed.
    pub failed_links: usize,
    /// The uniform-unit replay tally.
    pub tally: DemandTally,
    /// Delivered share of affected-and-connected demand.
    pub coverage: f64,
    /// Lost share of all offered demand.
    pub demand_lost_fraction: f64,
}

/// Per-scheme stretch aggregate within a [`StretchReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchemeStretch {
    /// Scheme label (`reconvergence` | `fcp` | `packet-recycling`).
    pub scheme: String,
    /// Delivered affected-pair samples.
    pub samples: usize,
    /// Mean stretch over the samples (`null` on the wire, not-a-number
    /// here, when none: an idle network has no stretch, not a stretch
    /// of zero).
    pub mean: f64,
    /// Worst stretch over the samples (`null` when none).
    pub max: f64,
}

/// Three-scheme stretch panel over the current failed set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StretchReport {
    /// Links currently failed.
    pub failed_links: usize,
    /// Affected-and-connected pairs evaluated.
    pub evaluated_pairs: usize,
    /// Pairs the failed set disconnected (excluded by conditioning).
    pub disconnected_pairs: usize,
    /// FCP walks that failed although a path existed.
    pub undelivered_fcp: usize,
    /// PR walks that failed although a path existed.
    pub undelivered_pr: usize,
    /// Aggregates in the paper's legend order.
    pub schemes: Vec<SchemeStretch>,
}

/// The live gauge values the `/metrics` endpoint also exports.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GaugeReport {
    /// Uniform-unit coverage (the paper's delivery-coverage cell).
    pub coverage: f64,
    /// Weighted coverage of the resident demand model.
    pub weighted_coverage: f64,
    /// Lost share of the resident offered demand.
    pub demand_lost_fraction: f64,
    /// Peak link load under the resident demand, as a share of it.
    pub max_link_utilisation: f64,
    /// Links currently failed.
    pub failed_links: usize,
}

/// Monotonic counters since daemon start (event-log replay included).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterReport {
    /// Mutating requests applied (link events + demand updates).
    pub events: u64,
    /// `LinkDown` requests applied.
    pub link_down: u64,
    /// `LinkUp` requests applied.
    pub link_up: u64,
    /// `SetDemand` requests applied.
    pub demand_updates: u64,
    /// Queries answered (coverage + stretch + traffic).
    pub queries: u64,
    /// Incremental SPT repairs run ([`pr_graph::SpTree::repair_from`]).
    pub repairs: u64,
    /// Full Dijkstra rebuilds (should stay 0 after startup).
    pub full_rebuilds: u64,
    /// Nodes re-labelled across all repairs (total cone size).
    pub repair_cone_nodes: u64,
    /// Node slots across all repairs (cone-fraction denominator).
    pub repair_slots: u64,
    /// Walk-memo lookups across stretch queries.
    pub memo_lookups: u64,
    /// Walk-memo hits.
    pub memo_hits: u64,
    /// Walk steps answered by splicing.
    pub memo_spliced_steps: u64,
    /// Walk steps physically walked.
    pub memo_walked_steps: u64,
}

/// Everything `Snapshot` reports: enough for a client to verify it is
/// talking to the twin it expects, and for the restart test to prove
/// two daemons reached identical state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnapshotReport {
    /// Hex graph fingerprint (`Graph::fingerprint`).
    pub fingerprint: String,
    /// Node count.
    pub nodes: usize,
    /// Link count.
    pub links: usize,
    /// Worker threads used by stretch queries.
    pub threads: usize,
    /// Resident flow-set label (e.g. `gravity/all-pairs`).
    pub demand: String,
    /// Resident flow count.
    pub flows: usize,
    /// Total offered demand.
    pub offered: f64,
    /// Failed links as `"A-B"` names, in link-id order.
    pub failed: Vec<String>,
    /// Current gauge values.
    pub gauges: GaugeReport,
    /// Counters since start.
    pub counters: CounterReport,
}

/// Where a running daemon listens, as written to the addr file
/// (`--port 0` binds an ephemeral port; clients discover it here).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DaemonAddrs {
    /// Control listener, `host:port`.
    pub control: String,
    /// Metrics listener, `host:port` (serves `GET /metrics`).
    pub metrics: String,
}

/// Encodes one protocol message as a single JSON line (no trailing
/// newline; compact rendering never embeds raw newlines).
pub fn encode<T: Serialize>(msg: &T) -> String {
    serde_json::to_string(msg).expect("protocol types serialize")
}

/// Decodes one protocol line.
pub fn decode<T: Deserialize>(line: &str) -> Result<T, String> {
    serde_json::from_str(line.trim()).map_err(|e| format!("bad protocol line: {e}"))
}
