//! Simulation time.
//!
//! ROSS uses `double` virtual time; we use unsigned 64-bit **nanoseconds**
//! instead so that event ordering is exact and bit-identical across the
//! sequential and parallel schedulers. At 1 ns resolution a
//! `u64` covers ~584 years of virtual time, far beyond any network simulation.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, in nanoseconds since the start of the simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of virtual time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The beginning of virtual time.
    pub const ZERO: SimTime = SimTime(0);
    /// The end of virtual time; used as "run until the event queue drains".
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Nanoseconds since time zero.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Time as floating-point microseconds (for reporting only).
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Saturating difference between two times.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Duration in nanoseconds.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Duration as floating-point microseconds (for reporting only).
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// The serialization delay of `bytes` over a link of `gib_per_s` GiB/s,
    /// rounded up to whole nanoseconds (never zero for nonzero payloads).
    pub fn transfer_time(bytes: u64, gib_per_s: f64) -> SimDuration {
        if bytes == 0 {
            return SimDuration::ZERO;
        }
        let bytes_per_ns = gib_per_s * (1u64 << 30) as f64 / 1e9;
        // Round up without `f64::ceil`, which baseline x86_64 (no SSE4.1)
        // lowers to a library call: truncate, then add one if that lost a
        // fraction. Exact, so equal to `.ceil() as u64` for every input.
        let x = bytes as f64 / bytes_per_ns;
        let q = x as u64;
        SimDuration((q + ((q as f64) < x) as u64).max(1))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Panics on negative spans in debug builds; use
    /// [`SimTime::saturating_since`] when the ordering is not guaranteed.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "negative SimDuration: {self:?} - {rhs:?}");
        SimDuration(self.0 - rhs.0)
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "+{}ns", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_us(3), SimTime::from_ns(3_000));
        assert_eq!(SimTime::from_ms(2), SimTime::from_us(2_000));
        assert_eq!(SimDuration::from_ms(1).as_ns(), 1_000_000);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_ns(100) + SimDuration::from_ns(50);
        assert_eq!(t.as_ns(), 150);
        assert_eq!((t - SimTime::from_ns(100)).as_ns(), 50);
        assert_eq!(SimTime::from_ns(5).saturating_since(SimTime::from_ns(9)), SimDuration::ZERO);
    }

    #[test]
    fn transfer_time_matches_bandwidth() {
        // 16 GiB/s terminal link: 1 GiB should take ~1/16 s = 62.5 ms.
        let d = SimDuration::transfer_time(1 << 30, 16.0);
        assert!((d.as_ns() as f64 - 62.5e6).abs() < 1e3, "{d:?}");
        // Zero bytes is free, tiny payloads are never free.
        assert_eq!(SimDuration::transfer_time(0, 16.0), SimDuration::ZERO);
        assert!(SimDuration::transfer_time(1, 1000.0).as_ns() >= 1);
    }

    #[test]
    fn transfer_time_rounds_up_exactly_like_ceil() {
        let big = [(1u64 << 32) + 1, (1 << 33) + 12_345, (1 << 40) + 7, 1 << 52, u64::MAX >> 8];
        // The dragonfly configs' terminal, local and global links.
        for gib_s in [16.0, 4.69, 5.25] {
            let bytes_per_ns = gib_s * (1u64 << 30) as f64 / 1e9;
            for bytes in (1..=8192).chain(big) {
                let want = ((bytes as f64 / bytes_per_ns).ceil() as u64).max(1);
                let got = SimDuration::transfer_time(bytes, gib_s).as_ns();
                assert_eq!(got, want, "{bytes} B at {gib_s} GiB/s");
            }
        }
    }
}
