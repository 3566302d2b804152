//! Logical simulation time.
//!
//! One tick is one simulated second. Deadlines in Crowd4U ("unless all
//! suggested workers start the task by the specified deadline…") are about
//! event ordering, not wall-clock accuracy, so a u64 tick counter suffices
//! and keeps every run deterministic.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An absolute point in simulated time, in ticks (seconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, in ticks (seconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);

    pub fn ticks(self) -> u64 {
        self.0
    }

    /// Duration elapsed since `earlier`; saturates at zero.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    pub fn secs(n: u64) -> SimDuration {
        SimDuration(n)
    }

    pub const fn minutes(n: u64) -> SimDuration {
        SimDuration(n * 60)
    }

    pub fn hours(n: u64) -> SimDuration {
        SimDuration(n * 3600)
    }

    pub fn days(n: u64) -> SimDuration {
        SimDuration(n * 86_400)
    }

    pub fn ticks(self) -> u64 {
        self.0
    }

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 = self.0.saturating_add(d.0);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, other: SimTime) -> SimDuration {
        self.since(other)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, d: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(d.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0;
        if s >= 86_400 {
            write!(f, "{}d{}h", s / 86_400, (s % 86_400) / 3600)
        } else if s >= 3600 {
            write!(f, "{}h{}m", s / 3600, (s % 3600) / 60)
        } else if s >= 60 {
            write!(f, "{}m{}s", s / 60, s % 60)
        } else {
            write!(f, "{s}s")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime(100) + SimDuration::secs(20);
        assert_eq!(t, SimTime(120));
        assert_eq!(t - SimTime(100), SimDuration(20));
        // saturating: no underflow going backwards
        assert_eq!(SimTime(5) - SimTime(10), SimDuration::ZERO);
        let mut u = SimTime::ZERO;
        u += SimDuration::minutes(2);
        assert_eq!(u.ticks(), 120);
        assert_eq!(SimDuration::secs(1) + SimDuration::secs(2), SimDuration(3));
    }

    #[test]
    fn unit_helpers() {
        assert_eq!(SimDuration::minutes(1).ticks(), 60);
        assert_eq!(SimDuration::hours(2).ticks(), 7200);
        assert_eq!(SimDuration::days(1).ticks(), 86_400);
        assert_eq!(SimDuration::hours(1).as_secs_f64(), 3600.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimDuration::secs(42).to_string(), "42s");
        assert_eq!(SimDuration::secs(90).to_string(), "1m30s");
        assert_eq!(SimDuration::hours(2).to_string(), "2h0m");
        assert_eq!(SimDuration::days(1).to_string(), "1d0h");
        assert_eq!(SimTime(7).to_string(), "t=7");
    }

    #[test]
    fn ordering() {
        assert!(SimTime(1) < SimTime(2));
        assert!(SimDuration::minutes(1) < SimDuration::hours(1));
    }
}
