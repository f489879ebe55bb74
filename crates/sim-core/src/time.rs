//! Virtual time for the simulator.
//!
//! [`SimTime`] is an instant (nanoseconds since simulated boot) and
//! [`SimDuration`] a span. Both are thin wrappers over `u64` nanoseconds with
//! saturating arithmetic: a simulation that somehow exceeds ~584 years of
//! virtual time pins at the maximum rather than wrapping, which would corrupt
//! positional device state silently.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Nanoseconds per second.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

/// A span of virtual time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us.saturating_mul(1_000))
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms.saturating_mul(1_000_000))
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s.saturating_mul(NANOS_PER_SEC))
    }

    /// Creates a duration from fractional seconds.
    ///
    /// Negative and NaN inputs clamp to zero; overflow clamps to
    /// [`SimDuration::MAX`]. Device models produce durations from floating
    /// point math, so defensive clamping here keeps one bad parameter from
    /// poisoning the whole clock.
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            if s.is_infinite() && s > 0.0 {
                return SimDuration::MAX;
            }
            return SimDuration::ZERO;
        }
        let ns = s * NANOS_PER_SEC as f64;
        if ns >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(ns as u64)
        }
    }

    /// Returns the duration in whole nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the duration in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Saturating addition.
    pub const fn saturating_add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction (clamps at zero).
    pub const fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Returns true if this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        self.saturating_add(rhs)
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
        self.saturating_sub(rhs)
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
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs.max(1))
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= NANOS_PER_SEC {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

/// An instant of virtual time: nanoseconds since simulated boot.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The instant of simulated boot.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant from nanoseconds since boot.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Returns nanoseconds since boot.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns seconds since boot as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Time elapsed since `earlier`, or zero if `earlier` is in the future.
    pub const fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.as_nanos()))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T+{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T+{}", SimDuration(self.0))
    }
}

/// The simulator's clock.
///
/// Exactly one clock exists per simulated machine; the kernel owns it and
/// advances it as device operations and CPU work complete. Components that
/// need the current time are passed a [`SimTime`] by value.
#[derive(Debug, Clone, Default)]
pub struct Clock {
    now: SimTime,
}

impl Clock {
    /// Creates a clock at simulated boot.
    pub fn new() -> Self {
        Clock { now: SimTime::ZERO }
    }

    /// A clock resumed at `t` — used when swapping in a saved timeline
    /// (the multi-tenant kernel keeps one timeline per tenant and resumes
    /// whichever tenant is active). Each clock instance still only moves
    /// forward via [`Clock::advance`].
    pub fn resume_at(t: SimTime) -> Self {
        Clock { now: t }
    }

    /// Returns the current instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances the clock by `d` and returns the new instant.
    pub fn advance(&mut self, d: SimDuration) -> SimTime {
        self.now += d;
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(2).as_nanos(), 2 * NANOS_PER_SEC);
        assert_eq!(SimDuration::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimDuration::from_micros(5).as_nanos(), 5_000);
        assert_eq!(
            SimDuration::from_secs_f64(1.5),
            SimDuration::from_millis(1_500)
        );
    }

    #[test]
    fn from_secs_f64_clamps_garbage() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::MAX);
        assert_eq!(
            SimDuration::from_secs_f64(f64::NEG_INFINITY),
            SimDuration::ZERO
        );
    }

    #[test]
    fn arithmetic_saturates() {
        assert_eq!(
            SimDuration::MAX + SimDuration::from_secs(1),
            SimDuration::MAX
        );
        assert_eq!(
            SimDuration::from_secs(1) - SimDuration::from_secs(2),
            SimDuration::ZERO
        );
        assert_eq!(SimDuration::from_secs(1) * u64::MAX, SimDuration::MAX);
    }

    #[test]
    fn division_by_zero_is_defensive() {
        assert_eq!(SimDuration::from_secs(4) / 0, SimDuration::from_secs(4));
        assert_eq!(SimDuration::from_secs(4) / 2, SimDuration::from_secs(2));
    }

    #[test]
    fn instants_and_spans_compose() {
        let t0 = SimTime::ZERO;
        let t1 = t0 + SimDuration::from_millis(10);
        assert_eq!(t1 - t0, SimDuration::from_millis(10));
        assert_eq!(t0.duration_since(t1), SimDuration::ZERO);
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut c = Clock::new();
        assert_eq!(c.now(), SimTime::ZERO);
        c.advance(SimDuration::from_micros(7));
        c.advance(SimDuration::from_micros(3));
        assert_eq!(c.now().as_nanos(), 10_000);
    }

    #[test]
    fn display_picks_sane_units() {
        assert_eq!(format!("{}", SimDuration::from_nanos(17)), "17ns");
        assert_eq!(format!("{}", SimDuration::from_micros(17)), "17.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(17)), "17.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(17)), "17.000s");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_secs).sum();
        assert_eq!(total, SimDuration::from_secs(10));
    }
}
