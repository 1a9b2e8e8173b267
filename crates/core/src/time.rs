//! Simulated time.
//!
//! MPROS experiments must be deterministic and must be able to compress
//! months of machinery degradation into milliseconds of wall time, so all
//! components run against a simulated clock rather than `std::time`.
//!
//! [`SimTime`] is an absolute instant measured in seconds from the start of
//! a scenario; [`SimDuration`] is a span between instants. Both are backed
//! by `f64` seconds, which is exact for the integer tick counts the data
//! concentrator scheduler uses and has femtosecond resolution over the
//! multi-month horizons prognostic vectors describe.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// Seconds in one minute.
pub const MINUTE: f64 = 60.0;
/// Seconds in one hour.
pub const HOUR: f64 = 3_600.0;
/// Seconds in one day.
pub const DAY: f64 = 86_400.0;
/// Seconds in one week.
pub const WEEK: f64 = 7.0 * DAY;
/// Seconds in one (average, 30-day) month — the unit the paper's prognostic
/// examples are phrased in ("3 months, .01").
pub const MONTH: f64 = 30.0 * DAY;

/// An absolute simulated instant, in seconds since scenario start.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct SimTime(f64);

/// A span of simulated time, in seconds. Durations are always finite; they
/// may be negative as the result of subtracting a later time from an
/// earlier one.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct SimDuration(f64);

impl SimTime {
    /// The scenario origin (t = 0).
    pub const ZERO: SimTime = SimTime(0.0);

    /// Construct from seconds since scenario start.
    pub fn from_secs(secs: f64) -> Self {
        debug_assert!(secs.is_finite(), "SimTime must be finite");
        SimTime(secs)
    }

    /// Seconds since scenario start.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// The span from `earlier` to `self`.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0 - earlier.0)
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// A zero-length span.
    pub const ZERO: SimDuration = SimDuration(0.0);

    /// Construct from seconds.
    pub fn from_secs(secs: f64) -> Self {
        debug_assert!(secs.is_finite(), "SimDuration must be finite");
        SimDuration(secs)
    }

    /// Construct from milliseconds.
    pub fn from_millis(ms: f64) -> Self {
        Self::from_secs(ms / 1_000.0)
    }

    /// Construct from minutes.
    pub fn from_minutes(m: f64) -> Self {
        Self::from_secs(m * MINUTE)
    }

    /// Construct from hours.
    pub fn from_hours(h: f64) -> Self {
        Self::from_secs(h * HOUR)
    }

    /// Construct from days.
    pub fn from_days(d: f64) -> Self {
        Self::from_secs(d * DAY)
    }

    /// Construct from weeks.
    pub fn from_weeks(w: f64) -> Self {
        Self::from_secs(w * WEEK)
    }

    /// Construct from 30-day months, the unit of the paper's prognostic
    /// worked examples.
    pub fn from_months(m: f64) -> Self {
        Self::from_secs(m * MONTH)
    }

    /// The span in seconds.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// The span in days.
    pub fn as_days(self) -> f64 {
        self.0 / DAY
    }

    /// The span in 30-day months.
    pub fn as_months(self) -> f64 {
        self.0 / MONTH
    }

    /// True if the span is negative.
    pub fn is_negative(self) -> bool {
        self.0 < 0.0
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

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<f64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: f64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Div for SimDuration {
    type Output = f64;
    fn div(self, rhs: SimDuration) -> f64 {
        self.0 / rhs.0
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0.abs();
        let sign = if self.0 < 0.0 { "-" } else { "" };
        if s >= MONTH {
            write!(f, "{sign}{:.2}mo", s / MONTH)
        } else if s >= DAY {
            write!(f, "{sign}{:.2}d", s / DAY)
        } else if s >= HOUR {
            write!(f, "{sign}{:.2}h", s / HOUR)
        } else if s >= 1.0 {
            write!(f, "{sign}{:.3}s", s)
        } else {
            write!(f, "{sign}{:.3}ms", s * 1_000.0)
        }
    }
}

/// A monotonically advancing simulated clock.
///
/// Components that need "now" (the DC scheduler, the PDME timestamping
/// incoming reports) share one `SimClock` per scenario and advance it from
/// the scenario driver. The clock refuses to move backwards.
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now: SimTime,
}

impl SimClock {
    /// A clock at the scenario origin.
    pub fn new() -> Self {
        Self { now: SimTime::ZERO }
    }

    /// A clock starting at the given instant.
    pub fn starting_at(now: SimTime) -> Self {
        Self { now }
    }

    /// The current instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advance by `dt`. Panics (in debug builds) on negative spans.
    pub fn advance(&mut self, dt: SimDuration) {
        debug_assert!(!dt.is_negative(), "clock cannot run backwards");
        self.now += dt;
    }

    /// Jump forward to `t` if it is later than now; otherwise leave the
    /// clock unchanged. Returns the (possibly unchanged) current instant.
    pub fn advance_to(&mut self, t: SimTime) -> SimTime {
        self.now = self.now.max(t);
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn arithmetic_roundtrips() {
        let t0 = SimTime::from_secs(10.0);
        let dt = SimDuration::from_secs(5.0);
        let t1 = t0 + dt;
        assert_eq!(t1.as_secs(), 15.0);
        assert_eq!((t1 - t0).as_secs(), 5.0);
        assert_eq!((t0 - t1).as_secs(), -5.0);
        assert!((t0 - t1).is_negative());
    }

    #[test]
    fn unit_constructors_agree_with_constants() {
        assert_eq!(SimDuration::from_months(1.0).as_secs(), MONTH);
        assert_eq!(SimDuration::from_weeks(1.0).as_secs(), WEEK);
        assert_eq!(SimDuration::from_days(1.0).as_secs(), DAY);
        assert_eq!(SimDuration::from_hours(2.0).as_secs(), 2.0 * HOUR);
        assert_eq!(SimDuration::from_minutes(3.0).as_secs(), 180.0);
        assert_eq!(SimDuration::from_millis(250.0).as_secs(), 0.25);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimDuration::from_months(3.0).to_string(), "3.00mo");
        assert_eq!(SimDuration::from_days(2.0).to_string(), "2.00d");
        assert_eq!(SimDuration::from_secs(1.5).to_string(), "1.500s");
        assert_eq!(SimDuration::from_millis(4.0).to_string(), "4.000ms");
        assert_eq!(SimDuration::from_secs(-1.5).to_string(), "-1.500s");
    }

    #[test]
    fn clock_is_monotone() {
        let mut clk = SimClock::new();
        clk.advance(SimDuration::from_secs(1.0));
        assert_eq!(clk.now().as_secs(), 1.0);
        clk.advance_to(SimTime::from_secs(0.5)); // earlier: no-op
        assert_eq!(clk.now().as_secs(), 1.0);
        clk.advance_to(SimTime::from_secs(2.0));
        assert_eq!(clk.now().as_secs(), 2.0);
    }

    #[test]
    fn duration_ratio() {
        let a = SimDuration::from_days(1.0);
        let b = SimDuration::from_hours(6.0);
        assert_eq!(a / b, 4.0);
    }

    proptest! {
        #[test]
        fn add_then_subtract_is_identity(t in -1.0e9..1.0e9f64, d in -1.0e9..1.0e9f64) {
            let t0 = SimTime::from_secs(t);
            let dt = SimDuration::from_secs(d);
            let back = (t0 + dt) - dt;
            prop_assert!((back.as_secs() - t).abs() <= 1e-6 * t.abs().max(d.abs()).max(1.0));
        }

        #[test]
        fn since_is_antisymmetric(a in -1.0e9..1.0e9f64, b in -1.0e9..1.0e9f64) {
            let (ta, tb) = (SimTime::from_secs(a), SimTime::from_secs(b));
            prop_assert_eq!(ta.since(tb).as_secs(), -(tb.since(ta).as_secs()));
        }

        #[test]
        fn max_min_are_ordered(a in -1.0e9..1.0e9f64, b in -1.0e9..1.0e9f64) {
            let (ta, tb) = (SimTime::from_secs(a), SimTime::from_secs(b));
            prop_assert!(ta.min(tb) <= ta.max(tb));
        }
    }
}
