//! Time primitives shared by the road network, the dispatcher and the
//! simulator.
//!
//! The paper discretises the day into 24 one-hour slots: edge travel times
//! and restaurant preparation times are both learned per slot (§V-A). The
//! simulation itself runs in continuous time. We therefore provide:
//!
//! * [`TimePoint`] — an absolute instant measured in seconds from the start
//!   of the simulated day (midnight). Values may exceed 24h when a scenario
//!   spans several days; slot lookups wrap around.
//! * [`Duration`] — a non-negative span of seconds.
//! * [`HourSlot`] — one of the 24 hour-of-day buckets.
//!
//! All three are thin wrappers over `f64` seconds. Floating-point seconds are
//! the natural unit here: travel times come out of divisions of edge lengths
//! by speeds, and the matching cost matrices are floating point anyway.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Number of seconds in one hour.
pub const SECS_PER_HOUR: f64 = 3_600.0;
/// Number of seconds in one day.
pub const SECS_PER_DAY: f64 = 24.0 * SECS_PER_HOUR;

/// An absolute instant, in seconds since the simulated day's midnight.
#[derive(Clone, Copy, PartialEq, Default)]
pub struct TimePoint(f64);

/// A non-negative span of time, in seconds.
#[derive(Clone, Copy, PartialEq, Default)]
pub struct Duration(f64);

/// One of the 24 hour-of-day slots used for congestion and prep-time models.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct HourSlot(u8);

impl TimePoint {
    /// The start of the simulated day.
    pub const MIDNIGHT: TimePoint = TimePoint(0.0);

    /// Creates a time point from raw seconds since midnight.
    ///
    /// # Panics
    /// Panics if `secs` is not finite.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite(), "TimePoint must be finite, got {secs}");
        TimePoint(secs)
    }

    /// Creates a time point from an hour/minute/second triple.
    pub fn from_hms(hour: u32, minute: u32, second: u32) -> Self {
        TimePoint(f64::from(hour) * SECS_PER_HOUR + f64::from(minute) * 60.0 + f64::from(second))
    }

    /// Seconds since midnight as a raw `f64`.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0
    }

    /// The hour-of-day slot this instant falls into (wrapping across days).
    #[inline]
    pub fn hour_slot(self) -> HourSlot {
        let day_secs = self.0.rem_euclid(SECS_PER_DAY);
        let hour = (day_secs / SECS_PER_HOUR).floor() as u8;
        HourSlot(hour.min(23))
    }

    /// Elapsed time since `earlier`, saturating at zero if `earlier` is later.
    #[inline]
    pub fn saturating_since(self, earlier: TimePoint) -> Duration {
        Duration::from_secs_f64((self.0 - earlier.0).max(0.0))
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: TimePoint) -> TimePoint {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: TimePoint) -> TimePoint {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl Duration {
    /// The zero-length duration.
    pub const ZERO: Duration = Duration(0.0);

    /// Creates a duration from raw seconds.
    ///
    /// # Panics
    /// Panics if `secs` is negative, NaN or infinite.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "Duration must be finite and non-negative, got {secs}"
        );
        Duration(secs)
    }

    /// Creates a duration from whole minutes.
    #[inline]
    pub fn from_mins(mins: f64) -> Self {
        Duration::from_secs_f64(mins * 60.0)
    }

    /// Creates a duration from whole hours.
    #[inline]
    pub fn from_hours(hours: f64) -> Self {
        Duration::from_secs_f64(hours * SECS_PER_HOUR)
    }

    /// The duration in seconds as a raw `f64`.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0
    }

    /// The duration expressed in minutes.
    #[inline]
    pub fn as_mins_f64(self) -> f64 {
        self.0 / 60.0
    }

    /// The duration expressed in hours.
    #[inline]
    pub fn as_hours_f64(self) -> f64 {
        self.0 / SECS_PER_HOUR
    }

    /// The larger of two durations.
    #[inline]
    pub fn max(self, other: Duration) -> Duration {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The smaller of two durations.
    #[inline]
    pub fn min(self, other: Duration) -> Duration {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Subtraction that clamps at zero rather than panicking on underflow.
    #[inline]
    pub fn saturating_sub(self, other: Duration) -> Duration {
        Duration((self.0 - other.0).max(0.0))
    }
}

impl HourSlot {
    /// Number of slots in a day.
    pub const COUNT: usize = 24;

    /// Creates a slot from an hour in `0..24`.
    ///
    /// # Panics
    /// Panics if `hour >= 24`.
    #[inline]
    pub fn new(hour: u8) -> Self {
        assert!(hour < 24, "hour slot must be in 0..24, got {hour}");
        HourSlot(hour)
    }

    /// The hour of day in `0..24`.
    #[inline]
    pub fn hour(self) -> u8 {
        self.0
    }

    /// The slot as an array index.
    #[inline]
    pub fn index(self) -> usize {
        usize::from(self.0)
    }

    /// Iterates over all 24 slots of the day in order.
    pub fn all() -> impl Iterator<Item = HourSlot> {
        (0u8..24).map(HourSlot)
    }

    /// True for the lunch (12:00–14:59) and dinner (19:00–21:59) peaks used
    /// by the paper's "peak slot" experiments (Fig. 6(g)).
    #[inline]
    pub fn is_peak(self) -> bool {
        matches!(self.0, 12..=14 | 19..=21)
    }
}

impl Add<Duration> for TimePoint {
    type Output = TimePoint;
    #[inline]
    fn add(self, rhs: Duration) -> TimePoint {
        TimePoint(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for TimePoint {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Duration> for TimePoint {
    type Output = TimePoint;
    #[inline]
    fn sub(self, rhs: Duration) -> TimePoint {
        TimePoint(self.0 - rhs.0)
    }
}

impl Sub<TimePoint> for TimePoint {
    type Output = Duration;
    /// Elapsed time between two instants.
    ///
    /// # Panics
    /// Panics (in debug builds, via the `Duration` constructor) if `rhs` is
    /// later than `self`; use [`TimePoint::saturating_since`] when the order
    /// is not guaranteed.
    #[inline]
    fn sub(self, rhs: TimePoint) -> Duration {
        Duration::from_secs_f64(self.0 - rhs.0)
    }
}

impl Add for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl SubAssign for Duration {
    #[inline]
    fn sub_assign(&mut self, rhs: Duration) {
        *self = self.saturating_sub(rhs);
    }
}

impl Mul<f64> for Duration {
    type Output = Duration;
    #[inline]
    fn mul(self, rhs: f64) -> Duration {
        Duration::from_secs_f64(self.0 * rhs)
    }
}

impl Div<f64> for Duration {
    type Output = Duration;
    #[inline]
    fn div(self, rhs: f64) -> Duration {
        Duration::from_secs_f64(self.0 / rhs)
    }
}

impl Eq for TimePoint {}
impl Ord for TimePoint {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.partial_cmp(&other.0).expect("TimePoint is never NaN")
    }
}

impl PartialOrd for TimePoint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Eq for Duration {}
impl Ord for Duration {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.partial_cmp(&other.0).expect("Duration is never NaN")
    }
}

impl PartialOrd for Duration {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for TimePoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let day_secs = self.0.rem_euclid(SECS_PER_DAY);
        let h = (day_secs / 3600.0).floor() as u32;
        let m = ((day_secs % 3600.0) / 60.0).floor() as u32;
        let s = day_secs % 60.0;
        write!(f, "{h:02}:{m:02}:{s:04.1}")
    }
}

impl fmt::Display for TimePoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}s", self.0)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hour_slot_of_midday() {
        assert_eq!(TimePoint::from_hms(12, 30, 0).hour_slot(), HourSlot::new(12));
        assert_eq!(TimePoint::from_hms(0, 0, 0).hour_slot(), HourSlot::new(0));
        assert_eq!(TimePoint::from_hms(23, 59, 59).hour_slot(), HourSlot::new(23));
    }

    #[test]
    fn hour_slot_wraps_across_days() {
        let t = TimePoint::from_secs_f64(SECS_PER_DAY + 3.0 * SECS_PER_HOUR + 10.0);
        assert_eq!(t.hour_slot(), HourSlot::new(3));
    }

    #[test]
    fn arithmetic_roundtrips() {
        let t = TimePoint::from_hms(10, 0, 0);
        let d = Duration::from_mins(45.0);
        let later = t + d;
        assert_eq!(later - t, d);
        assert_eq!((later - d).as_secs_f64(), t.as_secs_f64());
    }

    #[test]
    fn saturating_since_clamps() {
        let a = TimePoint::from_hms(9, 0, 0);
        let b = TimePoint::from_hms(10, 0, 0);
        assert_eq!(a.saturating_since(b), Duration::ZERO);
        assert_eq!(b.saturating_since(a), Duration::from_hours(1.0));
    }

    #[test]
    fn duration_conversions() {
        let d = Duration::from_hours(1.5);
        assert!((d.as_mins_f64() - 90.0).abs() < 1e-9);
        assert!((d.as_secs_f64() - 5400.0).abs() < 1e-9);
    }

    #[test]
    fn duration_saturating_sub() {
        let a = Duration::from_secs_f64(10.0);
        let b = Duration::from_secs_f64(25.0);
        assert_eq!(a.saturating_sub(b), Duration::ZERO);
        assert_eq!(b.saturating_sub(a).as_secs_f64(), 15.0);
    }

    #[test]
    fn peak_slots_cover_lunch_and_dinner() {
        let peaks: Vec<u8> = HourSlot::all().filter(|s| s.is_peak()).map(|s| s.hour()).collect();
        assert_eq!(peaks, vec![12, 13, 14, 19, 20, 21]);
    }

    #[test]
    #[should_panic(expected = "Duration must be finite and non-negative")]
    fn negative_duration_panics() {
        let _ = Duration::from_secs_f64(-1.0);
    }

    #[test]
    fn time_point_display_is_clock_like() {
        assert_eq!(format!("{}", TimePoint::from_hms(9, 5, 30)), "09:05:30.0");
    }
}
