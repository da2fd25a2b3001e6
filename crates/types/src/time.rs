//! Simulated time.
//!
//! The simulator and scheduler exchange instants (`SimTime`) and spans
//! (`SimDuration`), both integer milliseconds. Millisecond resolution is
//! fine-grained enough for the paper's delays (seconds to minutes) while
//! keeping all arithmetic exact.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub};

use serde::{Deserialize, Serialize};

const MILLIS_PER_SEC: u64 = 1_000;
const MILLIS_PER_MIN: u64 = 60 * MILLIS_PER_SEC;
const MILLIS_PER_HOUR: u64 = 60 * MILLIS_PER_MIN;

/// A span of simulated time (integer milliseconds).
///
/// # Examples
///
/// ```
/// use eva_types::SimDuration;
///
/// let round = SimDuration::from_mins(5);
/// assert_eq!(round.as_secs(), 300);
/// assert_eq!((round * 12).as_hours_f64(), 1.0);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimDuration {
    /// Zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Builds from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms)
    }

    /// Builds from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * MILLIS_PER_SEC)
    }

    /// Builds from fractional seconds (clamped at zero).
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((secs * MILLIS_PER_SEC as f64).round() as u64)
    }

    /// Builds from whole minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * MILLIS_PER_MIN)
    }

    /// Builds from whole hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * MILLIS_PER_HOUR)
    }

    /// Builds from fractional hours (clamped at zero).
    pub fn from_hours_f64(hours: f64) -> Self {
        if hours <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration((hours * MILLIS_PER_HOUR as f64).round() as u64)
    }

    /// Raw milliseconds.
    pub const fn as_millis(&self) -> u64 {
        self.0
    }

    /// Whole seconds (truncating).
    pub const fn as_secs(&self) -> u64 {
        self.0 / MILLIS_PER_SEC
    }

    /// Fractional seconds.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / MILLIS_PER_SEC as f64
    }

    /// Fractional hours.
    pub fn as_hours_f64(&self) -> f64 {
        self.0 as f64 / MILLIS_PER_HOUR as f64
    }

    /// True for the zero span.
    pub const fn is_zero(&self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(&self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Scales by a non-negative float factor (used for the migration-delay
    /// sweeps of Figure 5, e.g. "2× delay"). A factor of 1 returns a
    /// duration of at most 2⁵³ ms as it is, which the float round trip
    /// reproduces exactly.
    pub fn scale(&self, factor: f64) -> SimDuration {
        if factor <= 0.0 {
            return SimDuration::ZERO;
        }
        if factor == 1.0 && self.0 <= 1 << 53 {
            return *self;
        }
        SimDuration((self.0 as f64 * factor).round() as u64)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;

    fn sub(self, rhs: SimDuration) -> SimDuration {
        self.saturating_sub(rhs)
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;

    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |acc, d| acc + d)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total_secs = self.as_secs_f64();
        if total_secs < 60.0 {
            write!(f, "{total_secs:.1}s")
        } else if total_secs < 3600.0 {
            write!(f, "{:.1}m", total_secs / 60.0)
        } else {
            write!(f, "{:.2}h", total_secs / 3600.0)
        }
    }
}

/// An instant of simulated time, measured from the start of the experiment.
///
/// # Examples
///
/// ```
/// use eva_types::{SimDuration, SimTime};
///
/// let t0 = SimTime::ZERO;
/// let t1 = t0 + SimDuration::from_mins(20);
/// assert_eq!(t1.duration_since(t0), SimDuration::from_secs(1200));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

impl SimTime {
    /// The experiment epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// Builds from milliseconds since the epoch.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms)
    }

    /// Builds from seconds since the epoch.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * MILLIS_PER_SEC)
    }

    /// Builds from fractional hours since the epoch.
    pub fn from_hours_f64(hours: f64) -> Self {
        SimTime::ZERO + SimDuration::from_hours_f64(hours)
    }

    /// Milliseconds since the epoch.
    pub const fn as_millis(&self) -> u64 {
        self.0
    }

    /// Fractional hours since the epoch.
    pub fn as_hours_f64(&self) -> f64 {
        self.0 as f64 / MILLIS_PER_HOUR as f64
    }

    /// Span since an earlier instant (saturating at zero).
    pub fn duration_since(&self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.as_millis())
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.as_millis();
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;

    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.as_millis()))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_conversions() {
        assert_eq!(SimDuration::from_mins(5).as_secs(), 300);
        assert_eq!(SimDuration::from_hours(2).as_hours_f64(), 2.0);
        assert_eq!(SimDuration::from_secs_f64(1.5).as_millis(), 1500);
        assert_eq!(SimDuration::from_hours_f64(0.5).as_secs(), 1800);
    }

    #[test]
    fn negative_float_inputs_clamp() {
        assert_eq!(SimDuration::from_secs_f64(-3.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_hours_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::from_secs(100);
        let later = t + SimDuration::from_secs(50);
        assert_eq!(later.duration_since(t), SimDuration::from_secs(50));
        // Saturating in both directions.
        assert_eq!(t.duration_since(later), SimDuration::ZERO);
        assert_eq!(t - SimDuration::from_secs(500), SimTime::ZERO);
    }

    #[test]
    fn scale_duration() {
        let d = SimDuration::from_secs(100);
        assert_eq!(d.scale(2.0), SimDuration::from_secs(200));
        assert_eq!(d.scale(0.5), SimDuration::from_secs(50));
        assert_eq!(d.scale(-1.0), SimDuration::ZERO);
        // A factor of 1 keeps every duration the float round trip keeps.
        let slow = |d: SimDuration| SimDuration((d.0 as f64).round() as u64);
        for ms in [0, 1, 999, (1 << 53) - 1, 1 << 53, (1 << 53) + 1, u64::MAX] {
            let d = SimDuration::from_millis(ms);
            assert_eq!(d.scale(1.0), slow(d), "{ms} ms");
        }
    }

    #[test]
    fn display_picks_units() {
        assert_eq!(SimDuration::from_secs(30).to_string(), "30.0s");
        assert_eq!(SimDuration::from_mins(5).to_string(), "5.0m");
        assert_eq!(SimDuration::from_hours(3).to_string(), "3.00h");
    }

    #[test]
    fn sum_durations() {
        let total: SimDuration = [1u64, 2, 3].into_iter().map(SimDuration::from_secs).sum();
        assert_eq!(total, SimDuration::from_secs(6));
    }
}
