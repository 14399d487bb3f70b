//! Virtual time primitives used by the discrete-event simulator and by every
//! cost model in the framework.
//!
//! [`SimTime`] is an absolute instant (nanoseconds since the start of the
//! simulation) and [`SimDuration`] a span between two instants. Both are plain
//! `u64` nanosecond counts: cheap to copy, totally ordered, exact, and free of
//! the platform-dependence of `std::time::Instant`. Wall-clock measurements
//! (`gnf_benchmark`, the `exp_e*` host timings) never use these — they
//! exist so that control-plane latencies such as container start time or
//! migration downtime are deterministic and reproducible from a seed.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A span of virtual time, stored as whole nanoseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct SimDuration {
    nanos: u64,
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration { nanos: 0 };

    /// Creates a duration from nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        Self { nanos }
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        Self {
            nanos: micros * 1_000,
        }
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        Self {
            nanos: millis * 1_000_000,
        }
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        Self {
            nanos: secs * 1_000_000_000,
        }
    }

    /// Creates a duration from fractional seconds, saturating at zero for
    /// negative inputs.
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs <= 0.0 || !secs.is_finite() {
            return Self::ZERO;
        }
        Self {
            nanos: (secs * 1e9).round() as u64,
        }
    }

    /// Whole nanoseconds in this duration.
    pub const fn as_nanos(&self) -> u64 {
        self.nanos
    }

    /// Whole milliseconds (truncated).
    pub const fn as_millis(&self) -> u64 {
        self.nanos / 1_000_000
    }

    /// Fractional seconds.
    pub fn as_secs_f64(&self) -> f64 {
        self.nanos as f64 / 1e9
    }

    /// Fractional milliseconds.
    pub fn as_millis_f64(&self) -> f64 {
        self.nanos as f64 / 1e6
    }

    /// True if the duration is zero.
    pub const fn is_zero(&self) -> bool {
        self.nanos == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration {
            nanos: self.nanos.saturating_sub(other.nanos),
        }
    }

    /// Multiplies the duration by a non-negative floating factor, rounding to
    /// the nearest nanosecond.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.as_secs_f64() * factor)
    }

    /// Returns the larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self.nanos >= other.nanos {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self.nanos <= other.nanos {
            self
        } else {
            other
        }
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration {
            nanos: self.nanos + rhs.nanos,
        }
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.nanos += rhs.nanos;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration {
            nanos: self.nanos - rhs.nanos,
        }
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.nanos -= rhs.nanos;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration {
            nanos: self.nanos * rhs,
        }
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration {
            nanos: self.nanos / rhs,
        }
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |acc, d| acc + d)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.nanos >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.nanos >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.nanos >= 1_000 {
            write!(f, "{:.3}us", self.nanos as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.nanos)
        }
    }
}

/// An absolute instant of virtual time (nanoseconds since simulation start).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct SimTime {
    nanos: u64,
}

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime { nanos: 0 };

    /// The largest representable instant; used as an "infinitely far in the
    /// future" sentinel.
    pub const MAX: SimTime = SimTime { nanos: u64::MAX };

    /// Creates an instant from nanoseconds since the epoch.
    pub const fn from_nanos(nanos: u64) -> Self {
        Self { nanos }
    }

    /// Creates an instant from milliseconds since the epoch.
    pub const fn from_millis(millis: u64) -> Self {
        Self {
            nanos: millis * 1_000_000,
        }
    }

    /// Creates an instant from seconds since the epoch.
    pub const fn from_secs(secs: u64) -> Self {
        Self {
            nanos: secs * 1_000_000_000,
        }
    }

    /// Creates an instant from fractional seconds since the epoch.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime::ZERO + SimDuration::from_secs_f64(secs)
    }

    /// Nanoseconds since the epoch.
    pub const fn as_nanos(&self) -> u64 {
        self.nanos
    }

    /// Fractional seconds since the epoch.
    pub fn as_secs_f64(&self) -> f64 {
        self.nanos as f64 / 1e9
    }

    /// Fractional milliseconds since the epoch.
    pub fn as_millis_f64(&self) -> f64 {
        self.nanos as f64 / 1e6
    }

    /// Duration elapsed since an earlier instant, saturating at zero if
    /// `earlier` is actually later.
    pub fn duration_since(&self, earlier: SimTime) -> SimDuration {
        SimDuration {
            nanos: self.nanos.saturating_sub(earlier.nanos),
        }
    }

    /// Checked addition of a duration; `None` on overflow.
    pub fn checked_add(&self, d: SimDuration) -> Option<SimTime> {
        self.nanos
            .checked_add(d.as_nanos())
            .map(SimTime::from_nanos)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime {
            nanos: self.nanos + rhs.as_nanos(),
        }
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.nanos += rhs.as_nanos();
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime {
            nanos: self.nanos - rhs.as_nanos(),
        }
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
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
    fn duration_conversions_are_consistent() {
        let d = SimDuration::from_millis(1500);
        assert_eq!(d.as_nanos(), 1_500_000_000);
        assert_eq!(d.as_millis(), 1500);
        assert!((d.as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn duration_from_fractional_seconds() {
        let d = SimDuration::from_secs_f64(0.25);
        assert_eq!(d.as_millis(), 250);
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_millis(100);
        let b = SimDuration::from_millis(40);
        assert_eq!((a + b).as_millis(), 140);
        assert_eq!((a - b).as_millis(), 60);
        assert_eq!((a * 3).as_millis(), 300);
        assert_eq!((a / 2).as_millis(), 50);
        assert_eq!(b.saturating_sub(a), SimDuration::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
        let total: SimDuration = [a, b, b].into_iter().sum();
        assert_eq!(total.as_millis(), 180);
    }

    #[test]
    fn time_and_duration_interact() {
        let t0 = SimTime::from_secs(1);
        let t1 = t0 + SimDuration::from_millis(500);
        assert_eq!(t1.as_nanos(), 1_500_000_000);
        assert_eq!(t1.duration_since(t0).as_millis(), 500);
        assert_eq!(t0.duration_since(t1), SimDuration::ZERO);
        assert_eq!((t1 - t0).as_millis(), 500);
    }

    #[test]
    fn display_formats_use_sensible_units() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_micros(3).to_string(), "3.000us");
        assert_eq!(SimDuration::from_millis(7).to_string(), "7.000ms");
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000s");
        assert_eq!(SimTime::from_secs(2).to_string(), "t=2.000000s");
    }

    #[test]
    fn checked_add_detects_overflow() {
        assert!(SimTime::MAX
            .checked_add(SimDuration::from_nanos(1))
            .is_none());
        assert!(SimTime::ZERO
            .checked_add(SimDuration::from_secs(10))
            .is_some());
    }

    #[test]
    fn mul_f64_scales_duration() {
        let d = SimDuration::from_millis(200);
        assert_eq!(d.mul_f64(2.5).as_millis(), 500);
        assert_eq!(d.mul_f64(0.0), SimDuration::ZERO);
    }
}
