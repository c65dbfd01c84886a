//! Shared unit newtypes used across the vTrain workspace.
//!
//! Simulation timestamps and durations are integer nanoseconds ([`TimeNs`]),
//! data sizes are integer bytes ([`Bytes`]), and floating-point operation
//! counts are [`Flops`] (an `f64`, since LLM training easily exceeds 1e23
//! FLOPs which overflows `u64`).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A point in simulated time or a duration, in nanoseconds.
///
/// Nanosecond integer resolution keeps the discrete-event replay of
/// Algorithm 1 exactly deterministic (no floating-point drift across
/// platforms) while comfortably covering both ~1 µs kernel launches and
/// multi-day training runs (u64 nanoseconds span ~584 years).
///
/// # Examples
///
/// ```
/// use vtrain_model::TimeNs;
///
/// let a = TimeNs::from_micros(3);
/// let b = TimeNs::from_nanos(500);
/// assert_eq!((a + b).as_nanos(), 3_500);
/// assert!(a > b);
/// ```
#[derive(
    Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct TimeNs(u64);

impl TimeNs {
    /// The zero instant / empty duration.
    pub const ZERO: TimeNs = TimeNs(0);

    /// Creates a time value from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        TimeNs(ns)
    }

    /// Creates a time value from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        TimeNs(us * 1_000)
    }

    /// Creates a time value from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        TimeNs(ms * 1_000_000)
    }

    /// Creates a time value from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        TimeNs(s * 1_000_000_000)
    }

    /// Creates a time value from fractional seconds, rounding to the nearest
    /// nanosecond. Negative and non-finite inputs clamp to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        if !secs.is_finite() || secs <= 0.0 {
            return TimeNs(0);
        }
        TimeNs((secs * 1e9).round() as u64)
    }

    /// Raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This value expressed in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// This value expressed in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction: returns zero instead of underflowing.
    pub fn saturating_sub(self, rhs: TimeNs) -> TimeNs {
        TimeNs(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition.
    pub fn checked_add(self, rhs: TimeNs) -> Option<TimeNs> {
        self.0.checked_add(rhs.0).map(TimeNs)
    }

    /// Scales the duration by a non-negative factor, rounding to the nearest
    /// nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or NaN.
    pub fn scale(self, factor: f64) -> TimeNs {
        assert!(factor.is_finite() && factor >= 0.0, "scale factor must be non-negative");
        TimeNs((self.0 as f64 * factor).round() as u64)
    }

    /// The larger of `self` and `other`.
    // Inlined across crates: the replays call it once per relaxed edge,
    // and an out-of-line call there also forces their running tallies
    // out of registers.
    #[inline]
    pub fn max(self, other: TimeNs) -> TimeNs {
        TimeNs(self.0.max(other.0))
    }

    /// The smaller of `self` and `other`.
    pub fn min(self, other: TimeNs) -> TimeNs {
        TimeNs(self.0.min(other.0))
    }
}

impl Add for TimeNs {
    type Output = TimeNs;
    fn add(self, rhs: TimeNs) -> TimeNs {
        TimeNs(self.0 + rhs.0)
    }
}

impl AddAssign for TimeNs {
    fn add_assign(&mut self, rhs: TimeNs) {
        self.0 += rhs.0;
    }
}

impl Sub for TimeNs {
    type Output = TimeNs;
    fn sub(self, rhs: TimeNs) -> TimeNs {
        TimeNs(self.0 - rhs.0)
    }
}

impl SubAssign for TimeNs {
    fn sub_assign(&mut self, rhs: TimeNs) {
        self.0 -= rhs.0;
    }
}

impl Sum for TimeNs {
    fn sum<I: Iterator<Item = TimeNs>>(iter: I) -> TimeNs {
        iter.fold(TimeNs::ZERO, Add::add)
    }
}

impl fmt::Display for TimeNs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
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

/// A data size in bytes.
///
/// # Examples
///
/// ```
/// use vtrain_model::Bytes;
///
/// let b = Bytes::from_mib(64);
/// assert_eq!(b.as_u64(), 64 * 1024 * 1024);
/// assert_eq!((b + Bytes::from_bytes(1)).as_u64(), 64 * 1024 * 1024 + 1);
/// ```
#[derive(
    Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct Bytes(u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);

    /// Creates a size from a raw byte count.
    pub const fn from_bytes(b: u64) -> Self {
        Bytes(b)
    }

    /// Creates a size from kibibytes.
    pub const fn from_kib(k: u64) -> Self {
        Bytes(k * 1024)
    }

    /// Creates a size from mebibytes.
    pub const fn from_mib(m: u64) -> Self {
        Bytes(m * 1024 * 1024)
    }

    /// Creates a size from gibibytes.
    pub const fn from_gib(g: u64) -> Self {
        Bytes(g * 1024 * 1024 * 1024)
    }

    /// Raw byte count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Size as a float (useful for bandwidth arithmetic).
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Size in fractional gibibytes.
    pub fn as_gib_f64(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0 * 1024.0)
    }

    /// Saturating subtraction: returns zero instead of underflowing.
    pub fn saturating_sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Bytes {
    type Output = Bytes;
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl AddAssign for Bytes {
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 += rhs.0;
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    fn sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 - rhs.0)
    }
}

impl Mul<u64> for Bytes {
    type Output = Bytes;
    fn mul(self, rhs: u64) -> Bytes {
        Bytes(self.0 * rhs)
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        iter.fold(Bytes::ZERO, Add::add)
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0 as f64;
        if b >= 1024.0 * 1024.0 * 1024.0 {
            write!(f, "{:.2}GiB", b / (1024.0 * 1024.0 * 1024.0))
        } else if b >= 1024.0 * 1024.0 {
            write!(f, "{:.2}MiB", b / (1024.0 * 1024.0))
        } else if b >= 1024.0 {
            write!(f, "{:.2}KiB", b / 1024.0)
        } else {
            write!(f, "{}B", self.0)
        }
    }
}

/// A count of floating-point operations.
///
/// Stored as `f64` because end-to-end LLM training budgets reach 1e24+ FLOPs.
///
/// # Examples
///
/// ```
/// use vtrain_model::Flops;
///
/// let c = Flops::from_tflops(312.0); // one second of peak A100 FP16
/// assert!((c.as_f64() - 312e12).abs() < 1.0);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Flops(f64);

impl Flops {
    /// Zero FLOPs.
    pub const ZERO: Flops = Flops(0.0);

    /// Creates a count from a raw operation count.
    pub fn new(flops: f64) -> Self {
        assert!(flops.is_finite() && flops >= 0.0, "FLOP count must be finite and non-negative");
        Flops(flops)
    }

    /// Creates a count from teraFLOPs.
    pub fn from_tflops(t: f64) -> Self {
        Flops::new(t * 1e12)
    }

    /// Raw operation count.
    pub fn as_f64(self) -> f64 {
        self.0
    }

    /// Count in petaFLOPs.
    pub fn as_pflops(self) -> f64 {
        self.0 / 1e15
    }
}

impl Add for Flops {
    type Output = Flops;
    fn add(self, rhs: Flops) -> Flops {
        Flops(self.0 + rhs.0)
    }
}

impl AddAssign for Flops {
    fn add_assign(&mut self, rhs: Flops) {
        self.0 += rhs.0;
    }
}

impl Sub for Flops {
    type Output = Flops;
    fn sub(self, rhs: Flops) -> Flops {
        Flops((self.0 - rhs.0).max(0.0))
    }
}

impl Mul<f64> for Flops {
    type Output = Flops;
    fn mul(self, rhs: f64) -> Flops {
        Flops::new(self.0 * rhs)
    }
}

impl Div<Flops> for Flops {
    type Output = f64;
    fn div(self, rhs: Flops) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Flops {
    fn sum<I: Iterator<Item = Flops>>(iter: I) -> Flops {
        iter.fold(Flops::ZERO, Add::add)
    }
}

impl fmt::Display for Flops {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = self.0;
        if v >= 1e15 {
            write!(f, "{:.3}PFLOPs", v / 1e15)
        } else if v >= 1e12 {
            write!(f, "{:.3}TFLOPs", v / 1e12)
        } else if v >= 1e9 {
            write!(f, "{:.3}GFLOPs", v / 1e9)
        } else {
            write!(f, "{v:.0}FLOPs")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_constructors_agree() {
        assert_eq!(TimeNs::from_micros(1), TimeNs::from_nanos(1_000));
        assert_eq!(TimeNs::from_millis(1), TimeNs::from_micros(1_000));
        assert_eq!(TimeNs::from_secs(1), TimeNs::from_millis(1_000));
    }

    #[test]
    fn time_secs_roundtrip() {
        let t = TimeNs::from_secs_f64(1.234_567_891);
        assert!((t.as_secs_f64() - 1.234_567_891).abs() < 1e-9);
    }

    #[test]
    fn time_from_secs_f64_clamps_negative_and_nan() {
        assert_eq!(TimeNs::from_secs_f64(-1.0), TimeNs::ZERO);
        assert_eq!(TimeNs::from_secs_f64(f64::NAN), TimeNs::ZERO);
    }

    #[test]
    fn time_saturating_sub_never_underflows() {
        let a = TimeNs::from_nanos(5);
        let b = TimeNs::from_nanos(10);
        assert_eq!(a.saturating_sub(b), TimeNs::ZERO);
        assert_eq!(b.saturating_sub(a), TimeNs::from_nanos(5));
    }

    #[test]
    fn time_scale_rounds() {
        assert_eq!(TimeNs::from_nanos(10).scale(1.5), TimeNs::from_nanos(15));
        assert_eq!(TimeNs::from_nanos(3).scale(0.5), TimeNs::from_nanos(2)); // 1.5 rounds to 2
    }

    #[test]
    #[should_panic]
    fn time_scale_rejects_negative() {
        let _ = TimeNs::from_nanos(1).scale(-1.0);
    }

    #[test]
    fn time_display_picks_unit() {
        assert_eq!(TimeNs::from_nanos(12).to_string(), "12ns");
        assert_eq!(TimeNs::from_micros(12).to_string(), "12.000us");
        assert_eq!(TimeNs::from_millis(12).to_string(), "12.000ms");
        assert_eq!(TimeNs::from_secs(12).to_string(), "12.000s");
    }

    #[test]
    fn bytes_constructors_and_display() {
        assert_eq!(Bytes::from_kib(1).as_u64(), 1024);
        assert_eq!(Bytes::from_mib(1).as_u64(), 1024 * 1024);
        assert_eq!(Bytes::from_gib(1).as_u64(), 1 << 30);
        assert_eq!(Bytes::from_bytes(512).to_string(), "512B");
        assert_eq!(Bytes::from_gib(2).to_string(), "2.00GiB");
    }

    #[test]
    fn bytes_arithmetic() {
        let b = Bytes::from_mib(1) + Bytes::from_kib(1);
        assert_eq!(b.as_u64(), 1024 * 1024 + 1024);
        assert_eq!((b - Bytes::from_kib(1)).as_u64(), 1024 * 1024);
        assert_eq!((Bytes::from_kib(2) * 3).as_u64(), 6 * 1024);
    }

    #[test]
    fn flops_arithmetic_and_ratio() {
        let a = Flops::from_tflops(100.0);
        let b = Flops::from_tflops(50.0);
        assert!(((a + b).as_f64() - 150e12).abs() < 1.0);
        assert!((a / b - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn flops_rejects_negative() {
        let _ = Flops::new(-1.0);
    }

    #[test]
    fn sums_work() {
        let ts: TimeNs = (1..=4).map(TimeNs::from_nanos).sum();
        assert_eq!(ts, TimeNs::from_nanos(10));
        let bs: Bytes = (1..=4).map(Bytes::from_bytes).sum();
        assert_eq!(bs, Bytes::from_bytes(10));
    }
}
