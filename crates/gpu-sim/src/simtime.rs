//! Simulated time and bandwidth newtypes.
//!
//! All durations produced by the cost model are [`SimTime`] values in
//! seconds.  Keeping a dedicated type (rather than bare `f64`) makes the
//! units explicit at API boundaries and lets us attach convenience
//! constructors (`from_millis`, `from_micros`) and formatting.

use serde::{Deserialize, Serialize};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A simulated duration in seconds.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct SimTime(pub f64);

impl SimTime {
    /// The zero duration.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates a duration from seconds.
    pub fn from_secs(secs: f64) -> Self {
        SimTime(secs)
    }

    /// Creates a duration from milliseconds.
    pub fn from_millis(ms: f64) -> Self {
        SimTime(ms / 1e3)
    }

    /// Creates a duration from microseconds.
    pub fn from_micros(us: f64) -> Self {
        SimTime(us / 1e6)
    }

    /// The duration in seconds.
    pub fn secs(self) -> f64 {
        self.0
    }

    /// The duration in milliseconds.
    pub fn millis(self) -> f64 {
        self.0 * 1e3
    }

    /// The duration in microseconds.
    pub fn micros(self) -> f64 {
        self.0 * 1e6
    }

    /// Returns the larger of two durations.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Returns the smaller of two durations.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }

    /// Computes the rate (bytes per second) achieved when moving `bytes`
    /// bytes within this duration. Returns 0 for a zero duration.
    pub fn rate_for_bytes(self, bytes: f64) -> Bandwidth {
        if self.0 <= 0.0 {
            Bandwidth(0.0)
        } else {
            Bandwidth(bytes / self.0)
        }
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

impl Mul<f64> for SimTime {
    type Output = SimTime;
    fn mul(self, rhs: f64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<f64> for SimTime {
    type Output = SimTime;
    fn div(self, rhs: f64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |a, b| a + b)
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0 >= 1.0 {
            write!(f, "{:.3} s", self.0)
        } else if self.0 >= 1e-3 {
            write!(f, "{:.3} ms", self.0 * 1e3)
        } else {
            write!(f, "{:.3} us", self.0 * 1e6)
        }
    }
}

/// A bandwidth (bytes per second).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Bandwidth(pub f64);

impl Bandwidth {
    /// Creates a bandwidth from gigabytes per second (decimal GB).
    pub fn from_gb_per_s(gb: f64) -> Self {
        Bandwidth(gb * 1e9)
    }

    /// Bytes per second.
    pub fn bytes_per_sec(self) -> f64 {
        self.0
    }

    /// Gigabytes per second (decimal GB).
    pub fn gb_per_s(self) -> f64 {
        self.0 / 1e9
    }

    /// Time needed to move `bytes` bytes at this bandwidth.
    pub fn time_for_bytes(self, bytes: f64) -> SimTime {
        if self.0 <= 0.0 {
            SimTime(f64::INFINITY)
        } else {
            SimTime(bytes / self.0)
        }
    }

    /// Scales the bandwidth by an efficiency factor in `[0, 1]`.
    pub fn derate(self, efficiency: f64) -> Bandwidth {
        Bandwidth(self.0 * efficiency.clamp(0.0, 1.0))
    }
}

impl std::fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.2} GB/s", self.gb_per_s())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simtime_conversions_round_trip() {
        let t = SimTime::from_millis(62.6);
        assert!((t.secs() - 0.0626).abs() < 1e-12);
        assert!((t.millis() - 62.6).abs() < 1e-9);
        assert!((t.micros() - 62_600.0).abs() < 1e-6);
    }

    #[test]
    fn simtime_arithmetic() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(0.5);
        assert_eq!((a + b).secs(), 1.5);
        assert_eq!((a - b).secs(), 0.5);
        assert_eq!((a * 2.0).secs(), 2.0);
        assert_eq!((a / 2.0).secs(), 0.5);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
        let total: SimTime = vec![a, b, b].into_iter().sum();
        assert_eq!(total.secs(), 2.0);
    }

    #[test]
    fn bandwidth_time_for_bytes() {
        let bw = Bandwidth::from_gb_per_s(369.17);
        // Reading 2 GB at 369.17 GB/s takes ~5.4 ms.
        let t = bw.time_for_bytes(2.0 * 1e9);
        assert!(t.millis() > 5.0 && t.millis() < 6.0);
    }

    #[test]
    fn bandwidth_derate_clamps() {
        let bw = Bandwidth::from_gb_per_s(100.0);
        assert_eq!(bw.derate(2.0).gb_per_s(), 100.0);
        assert_eq!(bw.derate(-1.0).gb_per_s(), 0.0);
        assert!((bw.derate(0.8).gb_per_s() - 80.0).abs() < 1e-9);
    }

    #[test]
    fn rate_for_bytes_inverse_of_time_for_bytes() {
        let bw = Bandwidth::from_gb_per_s(40.0);
        let bytes = 3.5e9;
        let t = bw.time_for_bytes(bytes);
        let back = t.rate_for_bytes(bytes);
        assert!((back.gb_per_s() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", SimTime::from_secs(2.0)), "2.000 s");
        assert_eq!(format!("{}", SimTime::from_millis(5.0)), "5.000 ms");
        assert_eq!(format!("{}", SimTime::from_micros(7.0)), "7.000 us");
    }

    #[test]
    fn zero_duration_rate_is_zero() {
        assert_eq!(SimTime::ZERO.rate_for_bytes(1e9).bytes_per_sec(), 0.0);
        assert!(Bandwidth(0.0).time_for_bytes(1.0).secs().is_infinite());
    }
}
