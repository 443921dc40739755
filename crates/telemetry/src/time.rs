//! The simulated clock's one unit.

use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

/// An instant or a duration on the simulated clock: whole picoseconds.
/// A cost model's `f64` nanoseconds become a `SimTime` once, where they
/// are charged ([`SimTime::from_ns`]); every device clock, ledger, event
/// loop and span instant then adds integers, so two books over the same
/// charges agree exactly. Reports convert back with [`SimTime::as_ns`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The clock's origin (and the empty duration).
    pub const ZERO: Self = Self(0);

    /// `ns` rounded to the nearest picosecond, or `None` when `ns` is
    /// negative, NaN, or past the clock's range (2^64 ps, about 213
    /// days).
    pub fn try_from_ns(ns: f64) -> Option<Self> {
        let ps = (ns * 1e3).round();
        // 2^64 as f64; `ns >= 0.0` is false for NaN.
        (ns >= 0.0 && ps < 18_446_744_073_709_551_616.0).then_some(Self(ps as u64))
    }

    /// `ns` rounded to the nearest picosecond.
    ///
    /// # Panics
    ///
    /// Panics when [`try_from_ns`](Self::try_from_ns) would return `None`.
    pub fn from_ns(ns: f64) -> Self {
        Self::try_from_ns(ns)
            .unwrap_or_else(|| panic!("{ns} ns is not a simulated time (finite, >= 0, < 2^64 ps)"))
    }

    /// The value in nanoseconds, for reports.
    pub fn as_ns(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// `self - rhs`, or zero when `rhs` is later.
    pub fn saturating_sub(self, rhs: Self) -> Self {
        Self(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimTime {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self(self.0.checked_add(rhs.0).expect("simulated clock overflow"))
    }
}

impl Sub for SimTime {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Self(
            self.0
                .checked_sub(rhs.0)
                .expect("negative simulated duration"),
        )
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, Add::add)
    }
}
