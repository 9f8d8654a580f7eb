//! Virtual time for the discrete-event simulator.
//!
//! Time is measured in integer microseconds from the start of the
//! simulation. Integer ticks keep event ordering exact (no floating-point
//! drift across the multi-minute experiments in the paper, which simulate
//! 5-minute video sessions packet by packet).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant in virtual time, in microseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// A time later than any event in practice; used as an "infinite" deadline.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Construct from fractional seconds (rounds to the nearest microsecond).
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0, "SimTime cannot be negative");
        SimTime((s * 1e6).round() as u64)
    }

    /// Raw microsecond tick count.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Time as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating difference `self - earlier` (zero if `earlier` is later).
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// Largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Construct from fractional seconds (rounds to the nearest microsecond).
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0, "SimDuration cannot be negative");
        SimDuration((s * 1e6).round() as u64)
    }

    /// Raw microsecond count.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Duration as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> Self {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// The time it takes to serialize `bytes` at `rate_bps` bits/second.
    ///
    /// This is the single conversion every link and queue in `voxel-netem`
    /// relies on, so it lives here next to the time types.
    pub fn serialization(bytes: u64, rate_bps: f64) -> Self {
        debug_assert!(rate_bps > 0.0, "rate must be positive");
        SimDuration::from_secs_f64(bytes as f64 * 8.0 / rate_bps)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self >= rhs, "SimTime subtraction underflow");
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        debug_assert!(self >= rhs, "SimDuration subtraction underflow");
        SimDuration(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}us", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_roundtrips_units() {
        assert_eq!(SimTime::from_secs(3).as_micros(), 3_000_000);
        assert_eq!(SimTime::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimTime::from_micros(3).as_micros(), 3);
        assert!((SimTime::from_secs_f64(1.5).as_secs_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_millis(30);
        let b = SimDuration::from_millis(12);
        assert_eq!((a + b).as_micros(), 42_000);
        assert_eq!((a - b).as_micros(), 18_000);
        assert_eq!(
            a.saturating_sub(SimDuration::from_secs(1)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn time_plus_duration() {
        let t = SimTime::from_secs(1) + SimDuration::from_millis(500);
        assert_eq!(t.as_micros(), 1_500_000);
        assert_eq!((t - SimTime::from_secs(1)).as_micros(), 500_000);
    }

    #[test]
    fn saturating_since_clamps() {
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(2);
        assert_eq!(late.saturating_since(early).as_micros(), 1_000_000);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
    }

    #[test]
    fn serialization_delay_matches_rate() {
        // 1500 bytes at 12 Mbps = 1 ms.
        let d = SimDuration::serialization(1500, 12_000_000.0);
        assert_eq!(d.as_micros(), 1_000);
    }

    #[test]
    fn display_picks_sane_units() {
        assert_eq!(format!("{}", SimDuration::from_micros(5)), "5us");
        assert_eq!(format!("{}", SimDuration::from_millis(5)), "5.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(5)), "5.000s");
    }
}
