//! What happened to every packet of a timed run.

use serde::Serialize;

use pr_core::DropReason;

/// Why a packet of a timed run was lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LossCause {
    /// The forwarding agent dropped it, for this reason.
    Agent(DropReason),
    /// It was on a link's wire when the link was cut.
    LostInFlight,
    /// Its egress was down at transmit, undetected: §1's loss window.
    InterfaceDown,
    /// Its hop budget ran out (a livelock).
    HopBudget,
}

impl std::fmt::Display for LossCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LossCause::Agent(r) => write!(f, "agent: {r}"),
            LossCause::LostInFlight => f.write_str("lost in flight on failed link"),
            LossCause::InterfaceDown => f.write_str("egress interface down"),
            LossCause::HopBudget => f.write_str("hop budget exhausted"),
        }
    }
}

/// Aggregated outcome of a timed run; `Eq` compares every counter.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct Metrics {
    /// Packets handed to the network by traffic sources.
    pub injected: u64,
    /// Packets that reached their destination.
    pub delivered: u64,
    /// Drops, keyed by their [`LossCause`]'s text.
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
    /// Records `packets` deliveries, each `latency_ns` after its send
    /// and `hops` hops long.
    pub fn deliver(&mut self, packets: u64, latency_ns: u64, hops: u32) {
        self.delivered += packets;
        self.latency_sum_ns += u128::from(latency_ns) * u128::from(packets);
        self.latency_max_ns = self.latency_max_ns.max(latency_ns);
        self.hops_sum += u64::from(hops) * packets;
        self.hops_max = self.hops_max.max(hops);
    }

    /// Records `packets` losses to `cause`.
    pub fn lose(&mut self, packets: u64, cause: LossCause) {
        *self.drops.entry(cause.to_string()).or_insert(0) += packets;
    }

    /// Total packets dropped, all causes.
    pub fn total_dropped(&self) -> u64 {
        self.drops.values().sum()
    }

    /// Delivered share of injected packets, 1.0 when none was injected.
    pub fn delivery_ratio(&self) -> f64 {
        if self.injected == 0 {
            1.0
        } else {
            self.delivered as f64 / self.injected as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting() {
        let mut m = Metrics { injected: 4, ..Default::default() };
        m.deliver(1, 500, 3);
        m.deliver(2, 200, 5);
        m.lose(1, LossCause::InterfaceDown);
        assert_eq!(m.delivered, 3);
        assert_eq!(m.total_dropped(), 1);
        assert!((m.delivery_ratio() - 3.0 / 4.0).abs() < 1e-12);
        assert_eq!(m.latency_sum_ns, 900);
        assert_eq!(m.latency_max_ns, 500);
        assert_eq!(m.hops_sum, 13);
        assert_eq!(m.hops_max, 5);
    }

    #[test]
    fn empty_run_defaults() {
        let m = Metrics::default();
        assert_eq!(m.delivery_ratio(), 1.0);
        assert_eq!(m.total_dropped(), 0);
    }

    #[test]
    fn drop_reasons_are_bucketed_by_name() {
        let mut m = Metrics::default();
        m.lose(1, LossCause::LostInFlight);
        m.lose(2, LossCause::LostInFlight);
        m.lose(1, LossCause::Agent(DropReason::NoRoute));
        assert_eq!(m.drops["lost in flight on failed link"], 3);
        assert_eq!(m.drops["agent: no route"], 1);
    }
}
