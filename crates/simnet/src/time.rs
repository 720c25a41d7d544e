//! Simulated time: nanosecond-resolution instants and durations.
//!
//! Experiments span from microseconds (a trie lookup) to five simulated
//! weeks (Table 5), so `u64` nanoseconds — good for ~584 simulated years —
//! covers everything with a single representation.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// A span of simulated time.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// From nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// From microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// From milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// From seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// From whole minutes.
    pub const fn from_mins(m: u64) -> Self {
        SimDuration::from_secs(m * 60)
    }

    /// From whole hours.
    pub const fn from_hours(h: u64) -> Self {
        SimDuration::from_secs(h * 3600)
    }

    /// From whole days.
    pub const fn from_days(d: u64) -> Self {
        SimDuration::from_hours(d * 24)
    }

    /// From fractional seconds (workload generators produce these).
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0 && s.is_finite());
        SimDuration((s * 1e9).round() as u64)
    }

    /// Total nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Total milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating multiply by an integer factor.
    pub const fn saturating_mul(self, k: u64) -> Self {
        SimDuration(self.0.saturating_mul(k))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}µs", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

/// An instant in simulated time (nanoseconds since simulation start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// From nanoseconds since epoch.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Nanoseconds since epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds since epoch.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration since an earlier instant.
    ///
    /// # Panics
    /// Panics (in debug) if `earlier` is later than `self`.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(self.0 >= earlier.0, "time went backwards");
        SimDuration(self.0 - earlier.0)
    }

    /// Saturating duration since `earlier` (zero if later).
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimDuration::from_micros(1), SimDuration::from_nanos(1_000));
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1_000));
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1_000));
        assert_eq!(SimDuration::from_mins(2), SimDuration::from_secs(120));
        assert_eq!(SimDuration::from_hours(1), SimDuration::from_mins(60));
        assert_eq!(SimDuration::from_days(1), SimDuration::from_hours(24));
    }

    #[test]
    fn float_roundtrip() {
        let d = SimDuration::from_secs_f64(1.5);
        assert_eq!(d.as_millis(), 1500);
        assert!((d.as_secs_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn time_arithmetic() {
        let t0 = SimTime::ZERO;
        let t1 = t0 + SimDuration::from_secs(2);
        assert_eq!(t1.since(t0), SimDuration::from_secs(2));
        assert_eq!(t1 - t0, SimDuration::from_secs(2));
        assert_eq!(t0.saturating_since(t1), SimDuration::ZERO);
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(SimDuration::from_nanos(5).to_string(), "5ns");
        assert_eq!(SimDuration::from_micros(5).to_string(), "5.000µs");
        assert_eq!(SimDuration::from_millis(5).to_string(), "5.000ms");
        assert_eq!(SimDuration::from_secs(5).to_string(), "5.000s");
    }

    #[test]
    fn five_simulated_weeks_fit() {
        let five_weeks = SimDuration::from_days(35);
        let t = SimTime::ZERO + five_weeks;
        assert!(t.as_nanos() > 0);
        assert_eq!(t.since(SimTime::ZERO), five_weeks);
    }
}
