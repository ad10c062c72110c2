//! Run metrics: what happened to every packet.

use serde::{Deserialize, Serialize};

use crate::SimTime;
use pr_core::DropReason;

/// Why the simulator discarded a packet (superset of the agent-level
/// [`DropReason`]: the simulator adds physical causes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SimDropReason {
    /// The forwarding agent decided to drop (with its protocol-level
    /// reason).
    Agent(DropReason),
    /// The packet was serialised onto a link that failed before it
    /// arrived (lost in flight — fibre-cut semantics).
    LostInFlight,
    /// The chosen egress link was down at transmission time and the
    /// agent did not know (detection delay window) — the §1 loss that
    /// motivates fast reroute.
    InterfaceDown,
    /// The egress queue was full (congestion loss).
    QueueOverflow,
    /// The per-packet hop budget ran out (covers livelocks inside the
    /// timed simulator, which has no global loop detector).
    HopBudget,
}

impl std::fmt::Display for SimDropReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimDropReason::Agent(r) => write!(f, "agent: {r}"),
            SimDropReason::LostInFlight => f.write_str("lost in flight on failed link"),
            SimDropReason::InterfaceDown => f.write_str("egress interface down"),
            SimDropReason::QueueOverflow => f.write_str("egress queue overflow"),
            SimDropReason::HopBudget => f.write_str("hop budget exhausted"),
        }
    }
}

/// Aggregated outcome of a simulation run.
///
/// `PartialEq`/`Eq` compare every counter exactly — the determinism
/// tests assert parallel temporal sweeps equal their serial reference
/// bit for bit.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Metrics {
    /// Packets handed to the network by traffic sources.
    pub injected: u64,
    /// Packets that reached their destination.
    pub delivered: u64,
    /// Drops, bucketed by cause.
    pub drops: std::collections::BTreeMap<String, u64>,
    /// Sum of end-to-end latencies of delivered packets (ns).
    pub latency_sum_ns: u128,
    /// Worst delivered latency (ns).
    pub latency_max_ns: u64,
    /// Total hops traversed by delivered packets.
    pub hops_sum: u64,
    /// Worst hop count among delivered packets.
    pub hops_max: u32,
}

impl Metrics {
    /// Records a delivery.
    pub(crate) fn record_delivery(&mut self, sent: SimTime, now: SimTime, hops: u32) {
        self.delivered += 1;
        let lat = now.as_nanos().saturating_sub(sent.as_nanos());
        self.latency_sum_ns += u128::from(lat);
        self.latency_max_ns = self.latency_max_ns.max(lat);
        self.hops_sum += u64::from(hops);
        self.hops_max = self.hops_max.max(hops);
    }

    /// Records a drop.
    pub(crate) fn record_drop(&mut self, reason: SimDropReason) {
        *self.drops.entry(reason.to_string()).or_insert(0) += 1;
    }

    /// Total packets dropped, all causes.
    pub fn total_dropped(&self) -> u64 {
        self.drops.values().sum()
    }

    /// Delivered fraction of injected packets (1.0 when nothing was
    /// injected).
    pub fn delivery_ratio(&self) -> f64 {
        if self.injected == 0 {
            1.0
        } else {
            self.delivered as f64 / self.injected as f64
        }
    }

    /// Mean end-to-end latency of delivered packets, in ns.
    pub fn mean_latency_ns(&self) -> Option<f64> {
        if self.delivered == 0 {
            None
        } else {
            Some(self.latency_sum_ns as f64 / self.delivered as f64)
        }
    }

    /// Mean hop count of delivered packets.
    pub fn mean_hops(&self) -> Option<f64> {
        if self.delivered == 0 {
            None
        } else {
            Some(self.hops_sum as f64 / self.delivered as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting() {
        let mut m = Metrics { injected: 3, ..Default::default() };
        m.record_delivery(SimTime(100), SimTime(600), 3);
        m.record_delivery(SimTime(200), SimTime(400), 5);
        m.record_drop(SimDropReason::InterfaceDown);
        assert_eq!(m.delivered, 2);
        assert_eq!(m.total_dropped(), 1);
        assert!((m.delivery_ratio() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(m.mean_latency_ns(), Some(350.0));
        assert_eq!(m.latency_max_ns, 500);
        assert_eq!(m.mean_hops(), Some(4.0));
        assert_eq!(m.hops_max, 5);
    }

    #[test]
    fn empty_run_defaults() {
        let m = Metrics::default();
        assert_eq!(m.delivery_ratio(), 1.0);
        assert_eq!(m.mean_latency_ns(), None);
        assert_eq!(m.mean_hops(), None);
        assert_eq!(m.total_dropped(), 0);
    }

    #[test]
    fn drop_reasons_are_bucketed_by_name() {
        let mut m = Metrics::default();
        m.record_drop(SimDropReason::QueueOverflow);
        m.record_drop(SimDropReason::QueueOverflow);
        m.record_drop(SimDropReason::Agent(DropReason::NoRoute));
        assert_eq!(m.drops["egress queue overflow"], 2);
        assert_eq!(m.drops["agent: no route"], 1);
    }
}
