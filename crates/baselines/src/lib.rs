//! # pr-baselines — the schemes Packet Re-cycling is compared against
//!
//! §6 of the PR paper benchmarks against **Failure-Carrying Packets**
//! and **full routing reconvergence** ("since they are among the few
//! techniques that can handle multiple failures"); we additionally
//! implement **Loop-Free Alternates** (RFC 5286, the paper's reference
//! \[2\]) as the deployed-IPFRR ablation point.
//!
//! The agents here implement the same [`pr_core::ForwardingAgent`]
//! trait as PR itself, so every scheme runs under the identical walker
//! and timed pricer — differences in the experiment outputs come from the
//! schemes, not the machinery. LFA and not-via borrow the failure-free
//! trees they are handed — a sweep lends them `PrNetwork::base`, the
//! process's one tree set — so their primaries are those trees' next
//! darts, and each keeps only what it cannot derive from them: LFA its
//! alternates, not-via its detour trees. Converged reconvergence needs
//! no agent on a product path: its path is the survivor graph's
//! shortest path, which the sweeps read off the repaired trees, and its
//! timed loss is `pr_bench::timed::ReconvergingIgp`'s. The agent that walks it
//! hop by hop is an oracle, `pr_testkit::oracle::ReconvergenceAgent`.
//!
//! | scheme | header bits | router work on failure | coverage |
//! |---|---|---|---|
//! | [`FcpAgent`] | grows with carried failures | shortest-path recompute per carried-failure arrival | full (proves unreachability) |
//! | reconvergence | 0 | global recompute + flooding (modelled as converged state) | full, after convergence |
//! | [`LfaAgent`] | 0 | none (precomputed) | partial |
//! | [`NotViaAgent`] | 160 while repairing (IP-in-IP) | none (precomputed detours) | all single failures |
//! | `pr_core::PrAgent` | 1 + ⌈log₂(max DD + 1)⌉ (constant) | none (precomputed) | full on genus-0 embeddings |

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod fcp;
mod lfa;
mod notvia;

pub use fcp::{FcpAgent, FcpState, RouteStats};
pub use lfa::LfaAgent;
pub use notvia::{NotViaAgent, NotViaState, ENCAP_BITS};
