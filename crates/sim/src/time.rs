//! Simulated time, kept in integer picoseconds for exact determinism.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

/// A point in (or duration of) simulated time, measured in picoseconds.
///
/// Integer picoseconds make the discrete-event engine exactly deterministic:
/// no floating-point accumulation error, no platform-dependent rounding. At
/// picosecond resolution a `u64` covers ~213 days of simulated time, far more
/// than any kernel timeline here.
///
/// # Examples
///
/// ```
/// use cusync_sim::SimTime;
///
/// let t = SimTime::from_micros(6.0);
/// assert_eq!(t.as_micros(), 6.0);
/// let cycles = SimTime::from_cycles(1380, 1.38e9); // 1380 cycles at 1.38 GHz
/// assert_eq!(cycles.as_micros(), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The zero time, origin of every simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable time, used as the clamp target of checked
    /// conversions from untrusted floating-point durations.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from raw picoseconds.
    pub const fn from_picos(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Creates a time from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns * 1_000)
    }

    /// Creates a time from milliseconds — the natural unit of serving
    /// horizons and SLO budgets (`crates/serve`).
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000_000)
    }

    /// Creates a time from (possibly fractional) microseconds.
    pub fn from_micros(us: f64) -> Self {
        SimTime((us * 1e6) as u64)
    }

    /// Converts a cycle count at `clock_hz` into simulated time, rounding to
    /// the nearest picosecond.
    pub fn from_cycles(cycles: u64, clock_hz: f64) -> Self {
        SimTime::from_picos_rounded((cycles as f64) * 1e12 / clock_hz)
    }

    /// Creates a time from a floating-point picosecond count, rounding
    /// half away from zero. Bit-identical to `SimTime::from_picos(ps.round()
    /// as u64)`, saturating cast included (NaN and negatives → zero, beyond
    /// `u64::MAX` → [`SimTime::MAX`]), but without the libm `round` call:
    /// every `f64` at or above 2⁵² is already an integer, and below it the
    /// truncation and its fraction are exact. The truncation goes through
    /// `i64` (one signed conversion each way instead of the multi-step
    /// unsigned ones); clamping it at zero sends every negative input,
    /// `-∞` included, to zero exactly as the unsigned cast did.
    pub fn from_picos_rounded(ps: f64) -> Self {
        if ps < (1u64 << 52) as f64 {
            let whole = (ps as i64).max(0); // truncates; negatives clamp to 0
            SimTime(whole as u64 + u64::from(ps - whole as f64 >= 0.5))
        } else {
            SimTime(ps as u64) // already integral, clamped, or NaN → 0
        }
    }

    /// Raw picosecond value.
    pub const fn as_picos(self) -> u64 {
        self.0
    }

    /// Time in microseconds (lossy, for reporting only).
    pub fn as_micros(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Time in nanoseconds (lossy, for reporting only).
    pub fn as_nanos(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Time in seconds (lossy, for rate reporting: requests per second of
    /// *virtual* time in the serving layer).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Saturating subtraction; useful for durations that may be negative due
    /// to zero-width intervals.
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }

    /// Saturating addition; arrival generators use it so a clamped-huge gap
    /// pins the next arrival at [`SimTime::MAX`] (past any horizon) instead
    /// of wrapping around to early virtual time in release builds.
    pub fn saturating_add(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(other.0))
    }

    /// Checked conversion from a duration in seconds. Returns `None` for
    /// NaN or negative inputs; values beyond the representable range clamp
    /// to [`SimTime::MAX`]. This is the safe form of the `(secs * 1e12) as
    /// u64` cast, whose silent NaN→0 / negative→0 saturation turned bad
    /// workload rates into zero-length gaps.
    pub fn try_from_secs_f64(secs: f64) -> Option<SimTime> {
        if secs.is_nan() || secs < 0.0 {
            return None;
        }
        Some(SimTime::from_picos_rounded(secs * 1e12))
    }

    /// Larger of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Smaller of two times.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_roundtrip() {
        assert_eq!(SimTime::from_nanos(5).as_picos(), 5_000);
        assert_eq!(SimTime::from_micros(2.5).as_nanos(), 2_500.0);
        assert_eq!(SimTime::from_millis(3), SimTime::from_micros(3_000.0));
        assert_eq!(SimTime::from_millis(250).as_secs_f64(), 0.25);
    }

    #[test]
    fn cycles_at_clock() {
        // 1000 cycles at 1 GHz is exactly 1 us.
        assert_eq!(SimTime::from_cycles(1_000, 1e9).as_micros(), 1.0);
        // 1 cycle at 1.38 GHz is ~725 ps, rounded to nearest.
        assert_eq!(SimTime::from_cycles(1, 1.38e9).as_picos(), 725);
    }

    #[test]
    fn arithmetic_and_ordering() {
        let a = SimTime::from_nanos(10);
        let b = SimTime::from_nanos(4);
        assert_eq!((a + b).as_picos(), 14_000);
        assert_eq!((a - b).as_picos(), 6_000);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert!(a > b);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimTime = (1..=3).map(SimTime::from_nanos).sum();
        assert_eq!(total, SimTime::from_nanos(6));
    }

    #[test]
    fn display_in_microseconds() {
        assert_eq!(SimTime::from_micros(12.5).to_string(), "12.500us");
    }

    #[test]
    fn saturating_add_pins_at_max() {
        assert_eq!(
            SimTime::MAX.saturating_add(SimTime::from_nanos(1)),
            SimTime::MAX
        );
        assert_eq!(
            SimTime::from_nanos(1).saturating_add(SimTime::from_nanos(2)),
            SimTime::from_nanos(3)
        );
    }

    #[test]
    fn picos_rounded_matches_libm_round_cast() {
        let libm = |x: f64| x.round() as u64;
        for x in [
            0.0,
            -0.0,
            0.5,
            1.5,
            2.5,
            0.49999999999999994,
            (1u64 << 52) as f64 - 0.5,
            (1u64 << 52) as f64 + 0.5,
            (1u64 << 53) as f64,
            u64::MAX as f64,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -0.7,
            -2.5,
            f64::MIN_POSITIVE,
        ] {
            assert_eq!(SimTime::from_picos_rounded(x).as_picos(), libm(x), "{x:e}");
        }
        // A seeded sweep: random mantissas in every binade from 2^-2 to
        // past 2^64, plus exact halves above each draw's integer part.
        let mut state = 0x5EED_u64;
        for _ in 0..100_000 {
            state = crate::splitmix64(state);
            let exponent = 1021 + (state >> 52) % 67;
            let x = f64::from_bits((exponent << 52) | (state & ((1 << 52) - 1)));
            assert_eq!(SimTime::from_picos_rounded(x).as_picos(), libm(x), "{x:e}");
            let half = (x as u64) as f64 + 0.5;
            assert_eq!(
                SimTime::from_picos_rounded(half).as_picos(),
                libm(half),
                "{half:e}"
            );
        }
        // The truncation is signed, so sweep what it handles differently
        // from an unsigned one: negatives in every binade from -2^-2 down
        // to the largest finite magnitude (sign-bit NaNs included), the
        // open interval (-1, 0), both signs of every subnormal binade, and
        // the neighbours of ±2^63, where `as i64` saturates.
        let mut state = 0x51_6E_ED_u64;
        for _ in 0..100_000 {
            state = crate::splitmix64(state);
            let mantissa = state & ((1 << 52) - 1);
            let sign = 1 << 63;
            let negative = f64::from_bits(sign | ((1021 + (state >> 52) % 1027) << 52) | mantissa);
            let unit = f64::from_bits(sign | (((state >> 52) % 1023) << 52) | mantissa);
            let subnormal = f64::from_bits((state & sign) | (mantissa >> ((state >> 52) % 52)));
            for x in [negative, unit, subnormal] {
                assert_eq!(SimTime::from_picos_rounded(x).as_picos(), libm(x), "{x:e}");
            }
        }
        for edge in [i64::MAX as f64, i64::MIN as f64] {
            for step in -64i64..=64 {
                let x = f64::from_bits((edge.to_bits() as i64 + step) as u64);
                assert_eq!(SimTime::from_picos_rounded(x).as_picos(), libm(x), "{x:e}");
            }
        }
    }

    #[test]
    fn try_from_secs_rejects_non_finite_and_negative() {
        assert_eq!(SimTime::try_from_secs_f64(f64::NAN), None);
        assert_eq!(SimTime::try_from_secs_f64(-1.0), None);
        assert_eq!(SimTime::try_from_secs_f64(-0.0), Some(SimTime::ZERO));
        assert_eq!(
            SimTime::try_from_secs_f64(1e-12),
            Some(SimTime::from_picos(1))
        );
        assert_eq!(
            SimTime::try_from_secs_f64(f64::INFINITY),
            Some(SimTime::MAX)
        );
        assert_eq!(SimTime::try_from_secs_f64(1e30), Some(SimTime::MAX));
        assert_eq!(
            SimTime::try_from_secs_f64(0.25),
            Some(SimTime::from_millis(250))
        );
    }
}
