//! # pr-scenarios — the failure-scenario subsystem
//!
//! The paper's claim is that Packet Re-cycling delivers under *any*
//! failure pattern that leaves the graph connected; this crate is the
//! vocabulary for "any failure pattern". It defines one scenario model
//! that every execution engine consumes:
//!
//! * [`ScenarioFamily`] — an **indexed, streaming** enumeration of
//!   topological failure scenarios (`len()` + `scenario(i)`), so sweep
//!   engines can fan work units over a family without ever
//!   materialising a `Vec<LinkSet>`. Exhaustive families (every single
//!   link, every node, every k-subset of links) stay O(1) memory no
//!   matter how large the topology.
//! * [`TemporalFamily`] — the analogous enumeration of **timed**
//!   scenarios ([`TemporalScenario`]: a link-event trace plus the flow
//!   it disturbs) for the timed pricer and replay, pure in the
//!   scenario index ([`scenario_seed`] where a family draws), so
//!   parallel temporal sweeps are bit-identical to serial at any
//!   thread count.
//!
//! ## Family taxonomy
//!
//! | family | kind | enumeration |
//! |---|---|---|
//! | [`SingleLinkFailures`] | topological | streaming, exhaustive |
//! | [`NodeFailures`] | topological | streaming, exhaustive |
//! | [`SrlgFailures`] | topological | streaming, one SRLG per epicentre |
//! | [`ExhaustiveKFailures`] | topological | streaming k-subset unranking |
//! | [`SampledMultiFailures`] | topological | sampled (deduplicated, backfilled) |
//! | `Vec<LinkSet>` | topological | explicit list (adapter impl) |
//! | [`OutageSweep`] | temporal | one outage per link |
//! | [`FlapSweep`] | temporal | one flap trace per link |
//! | [`Impaired`] | temporal decorator | wraps any temporal family with a seeded fault process |
//!
//! Sampled families materialise their (user-bounded) sample list at
//! construction; enumerable families never materialise anything.
//!
//! The [`Impaired`] decorator injects a seeded [`ImpairmentProcess`]
//! (Gilbert–Elliott per-link loss, correlated flap storms, maintenance
//! windows, detection jitter) into any temporal family's event
//! timeline — pure in `(scenario index, seed)`, stackable, and the
//! exact identity when configured to its natural zero.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod families;
mod family;
mod impairments;
mod temporal;

pub use families::{
    random_connected_failures, ExhaustiveKFailures, FailureDraw, NodeFailures,
    SampledMultiFailures, SingleLinkFailures, SrlgFailures,
};
pub use family::{ScenarioFamily, ScenarioIter, ScenarioSlice};
pub use impairments::{Impaired, ImpairmentProcess};
pub use temporal::{
    scenario_seed, FlapSweep, FlowSpec, LinkEvent, OutageParams, OutageSweep, TemporalFamily,
    TemporalScenario,
};
