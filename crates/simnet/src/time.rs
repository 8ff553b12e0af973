//! Virtual time for discrete-event simulation.
//!
//! The simulator measures time in whole microseconds. Two newtypes keep
//! instants and durations from being mixed up ([`SimTime`] is a point on the
//! virtual clock, [`SimDuration`] is a span), while still being cheap `Copy`
//! values.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in virtual time, measured in microseconds since simulation start.
///
/// # Examples
///
/// ```
/// use integrade_simnet::time::{SimTime, SimDuration};
///
/// let t = SimTime::ZERO + SimDuration::from_secs(90);
/// assert_eq!(t.as_micros(), 90_000_000);
/// assert_eq!(format!("{t}"), "1m30s");
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of virtual time, measured in microseconds.
///
/// # Examples
///
/// ```
/// use integrade_simnet::time::SimDuration;
///
/// let d = SimDuration::from_millis(1500);
/// assert_eq!(d.as_secs_f64(), 1.5);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from whole microseconds since the epoch.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Creates an instant from whole milliseconds since the epoch.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Creates an instant from whole seconds since the epoch.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Returns the number of whole microseconds since the epoch.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the instant as fractional seconds since the epoch.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns the duration elapsed since `earlier`.
    ///
    /// Returns [`SimDuration::ZERO`] when `earlier` is in the future, so the
    /// result is always well-defined.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating instant + duration (clamps at [`SimTime::MAX`]).
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }

    /// Splits the instant into (whole days, time-of-day), with a day defined
    /// as 24 virtual hours. Useful for diurnal workload generation.
    pub fn day_and_offset(self) -> (u64, SimDuration) {
        const DAY: u64 = 24 * 3600 * 1_000_000;
        (self.0 / DAY, SimDuration(self.0 % DAY))
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a span from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Creates a span from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Creates a span from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Creates a span from whole minutes.
    pub const fn from_mins(m: u64) -> Self {
        SimDuration(m * 60 * 1_000_000)
    }

    /// Creates a span from whole hours.
    pub const fn from_hours(h: u64) -> Self {
        SimDuration(h * 3600 * 1_000_000)
    }

    /// Creates a span from whole 24-hour days.
    pub const fn from_days(d: u64) -> Self {
        SimDuration(d * 24 * 3600 * 1_000_000)
    }

    /// Creates a span from fractional seconds, rounding to the nearest
    /// microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration seconds must be finite and non-negative, got {secs}"
        );
        SimDuration((secs * 1e6).round() as u64)
    }

    /// Returns the number of whole microseconds in the span.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the span as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns true if the span is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction of two spans.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiplies the span by a non-negative factor, rounding to the nearest
    /// microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "duration factor must be finite and non-negative, got {factor}"
        );
        SimDuration((self.0 as f64 * factor).round() as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction underflow"),
        )
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("SimDuration underflow"))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&SimDuration(self.0), f)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total_us = self.0;
        if total_us == 0 {
            return write!(f, "0s");
        }
        let days = total_us / 86_400_000_000;
        let hours = (total_us / 3_600_000_000) % 24;
        let mins = (total_us / 60_000_000) % 60;
        let secs = (total_us / 1_000_000) % 60;
        let micros = total_us % 1_000_000;
        let mut wrote = false;
        if days > 0 {
            write!(f, "{days}d")?;
            wrote = true;
        }
        if hours > 0 {
            write!(f, "{hours}h")?;
            wrote = true;
        }
        if mins > 0 {
            write!(f, "{mins}m")?;
            wrote = true;
        }
        if secs > 0 || micros > 0 || !wrote {
            if micros == 0 {
                write!(f, "{secs}s")?;
            } else if micros.is_multiple_of(1000) {
                write!(f, "{secs}.{:03}s", micros / 1000)?;
            } else {
                write!(f, "{secs}.{micros:06}s")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimTime::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimDuration::from_mins(2).as_micros(), 120_000_000);
        assert_eq!(SimDuration::from_hours(1).as_micros(), 3_600_000_000);
        assert_eq!(SimDuration::from_days(1).as_micros(), 86_400_000_000);
    }

    #[test]
    fn arithmetic_is_consistent() {
        let t0 = SimTime::from_secs(10);
        let t1 = t0 + SimDuration::from_secs(5);
        assert_eq!(t1 - t0, SimDuration::from_secs(5));
        assert_eq!(t1 - SimDuration::from_secs(5), t0);
        assert_eq!(t0.duration_since(t1), SimDuration::ZERO);
        assert_eq!(t1.duration_since(t0), SimDuration::from_secs(5));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn instant_subtraction_underflow_panics() {
        let _ = SimTime::from_secs(1) - SimDuration::from_secs(2);
    }

    #[test]
    fn saturating_ops_clamp() {
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_secs(1)),
            SimTime::MAX
        );
        assert_eq!(
            SimDuration::from_secs(1).saturating_sub(SimDuration::from_secs(2)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn fractional_seconds_round_trip() {
        let d = SimDuration::from_secs_f64(1.25);
        assert_eq!(d.as_micros(), 1_250_000);
        assert!((d.as_secs_f64() - 1.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_fractional_duration_panics() {
        let _ = SimDuration::from_secs_f64(-0.5);
    }

    #[test]
    fn mul_f64_rounds() {
        let d = SimDuration::from_micros(3).mul_f64(0.5);
        assert_eq!(d.as_micros(), 2); // 1.5 rounds to 2
    }

    #[test]
    fn day_and_offset_splits() {
        let t = SimTime::from_secs(86_400 * 2 + 3600);
        let (day, off) = t.day_and_offset();
        assert_eq!(day, 2);
        assert_eq!(off, SimDuration::from_hours(1));
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimDuration::ZERO.to_string(), "0s");
        assert_eq!(SimDuration::from_secs(90).to_string(), "1m30s");
        assert_eq!(SimDuration::from_millis(1500).to_string(), "1.500s");
        assert_eq!(
            (SimDuration::from_days(1) + SimDuration::from_hours(2)).to_string(),
            "1d2h"
        );
        assert_eq!(SimDuration::from_micros(1).to_string(), "0.000001s");
    }

    #[test]
    fn ordering_follows_micros() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert!(SimDuration::from_millis(999) < SimDuration::from_secs(1));
    }
}
