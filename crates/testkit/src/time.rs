//! Simulation time: integer nanoseconds.
//!
//! Integer time keeps the event queue totally ordered and replays
//! bit-identically across platforms — float time accumulates rounding
//! differences that break deterministic regression tests.

/// A point in simulated time, in nanoseconds from simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// Builds from whole seconds.
    pub fn from_secs(s: u64) -> SimTime {
        SimTime(s * 1_000_000_000)
    }

    /// Builds from milliseconds.
    pub fn from_millis(ms: u64) -> SimTime {
        SimTime(ms * 1_000_000)
    }

    /// Builds from microseconds.
    pub fn from_micros(us: u64) -> SimTime {
        SimTime(us * 1_000)
    }

    /// Nanoseconds since simulation start.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since start, as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating addition of a duration in nanoseconds.
    pub fn after(self, nanos: u64) -> SimTime {
        SimTime(self.0.saturating_add(nanos))
    }
}

impl std::ops::Add<u64> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: u64) -> SimTime {
        self.after(rhs)
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pr_bench::timed::transmission_nanos;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(1), SimTime(1_000_000_000));
        assert_eq!(SimTime::from_millis(1500), SimTime(1_500_000_000));
        assert_eq!(SimTime::from_micros(7), SimTime(7_000));
    }

    #[test]
    fn ordering_and_arithmetic() {
        let a = SimTime::from_millis(1);
        let b = a + 500;
        assert!(b > a);
        assert_eq!(b.as_nanos(), 1_000_500);
        assert_eq!(SimTime(u64::MAX).after(10), SimTime(u64::MAX), "saturates");
    }

    #[test]
    fn oc192_serialization_time() {
        // A 1 kB packet on OC-192 (9.953 Gb/s) serialises in ~823 ns.
        let t = transmission_nanos(1024, 9_953_000_000);
        assert!((820..=830).contains(&t), "got {t}");
    }

    #[test]
    fn transmission_rounds_up() {
        // 1 byte at 3 bps = 8/3 s: must round up to the next ns.
        let t = transmission_nanos(1, 3);
        assert_eq!(t, 2_666_666_667);
        assert_eq!(transmission_nanos(0, 1_000), 0);
    }

    #[test]
    fn display_format() {
        assert_eq!(SimTime::from_millis(1250).to_string(), "1.250000s");
    }
}
