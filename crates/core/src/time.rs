//! Simulated time: a global picosecond timeline and clock domains.
//!
//! All timing in netfpga-rs derives from one `u64` picosecond counter. A
//! clock domain (see `netfpga_core::sim`) is a period on that timeline;
//! modules are ticked on their domain's rising edges. Picosecond resolution represents every rate on the
//! SUME board exactly (a 13.1 Gb/s serial lane moves one bit every ~76 ps;
//! the 500 MHz QDRII+ clock has a 2000 ps period).

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// A point on (or duration of) the simulated timeline, in picoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

impl Time {
    /// Time zero.
    pub const ZERO: Time = Time(0);

    /// The end of the timeline: later than any instant a run reaches.
    pub const MAX: Time = Time(u64::MAX);

    /// Construct from picoseconds.
    pub const fn from_ps(ps: u64) -> Time {
        Time(ps)
    }

    /// Construct from nanoseconds.
    pub const fn from_ns(ns: u64) -> Time {
        Time(ns * 1_000)
    }

    /// Construct from microseconds.
    pub const fn from_us(us: u64) -> Time {
        Time(us * 1_000_000)
    }

    /// Construct from milliseconds.
    pub const fn from_ms(ms: u64) -> Time {
        Time(ms * 1_000_000_000)
    }

    /// The value in picoseconds.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// The value in (truncated) nanoseconds.
    pub const fn as_ns(self) -> u64 {
        self.0 / 1_000
    }

    /// The value as fractional microseconds.
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The value as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Time) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Time {
    type Output = Time;
    fn add(self, rhs: Time) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign for Time {
    fn add_assign(&mut self, rhs: Time) {
        self.0 += rhs.0;
    }
}

impl Sub for Time {
    type Output = Time;
    fn sub(self, rhs: Time) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e9)
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ns", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ps", self.0)
        }
    }
}

const PS_PER_S: u64 = 1_000_000_000_000;

/// A clock frequency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Frequency {
    hz: u64,
}

impl Frequency {
    /// Construct from hertz. Panics on zero.
    pub fn hz(hz: u64) -> Frequency {
        assert!(hz > 0, "zero frequency");
        Frequency { hz }
    }

    /// Construct from kilohertz.
    pub fn khz(khz: u64) -> Frequency {
        Self::hz(khz * 1_000)
    }

    /// Construct from megahertz.
    pub fn mhz(mhz: u64) -> Frequency {
        Self::hz(mhz * 1_000_000)
    }

    /// Construct from gigahertz.
    pub fn ghz(ghz: u64) -> Frequency {
        Self::hz(ghz * 1_000_000_000)
    }

    /// The frequency in hertz.
    pub const fn as_hz(self) -> u64 {
        self.hz
    }

    /// The period, rounded to the nearest picosecond (a 1 THz+ clock would
    /// round to 1 ps; no modelled clock is near that).
    pub fn period(self) -> Time {
        Time((PS_PER_S + self.hz / 2) / self.hz)
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.hz.is_multiple_of(1_000_000_000) {
            write!(f, "{}GHz", self.hz / 1_000_000_000)
        } else if self.hz.is_multiple_of(1_000_000) {
            write!(f, "{}MHz", self.hz / 1_000_000)
        } else {
            write!(f, "{}Hz", self.hz)
        }
    }
}

/// A data rate in bits per second, with exact byte-time arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BitRate {
    bps: u64,
}

impl BitRate {
    /// Construct from bits per second. Panics on zero.
    pub fn bps(bps: u64) -> BitRate {
        assert!(bps > 0, "zero bit rate");
        BitRate { bps }
    }

    /// Construct from megabits per second.
    pub fn mbps(mbps: u64) -> BitRate {
        Self::bps(mbps * 1_000_000)
    }

    /// Construct from gigabits per second.
    pub fn gbps(gbps: u64) -> BitRate {
        Self::bps(gbps * 1_000_000_000)
    }

    /// The rate in bits per second.
    pub const fn as_bps(self) -> u64 {
        self.bps
    }

    /// The rate as fractional Gb/s.
    pub fn as_gbps_f64(self) -> f64 {
        self.bps as f64 / 1e9
    }

    /// Time to serialize `bytes` at this rate, rounded up to whole
    /// picoseconds (rounding up keeps a paced sender from exceeding the
    /// nominal rate).
    pub fn time_for_bytes(self, bytes: u64) -> Time {
        let bits = bytes * 8;
        // ps = bits * 1e12 / bps: in u64 while the product fits (any frame:
        // up to 2.3 MB), in u128 past that — no 128-bit division per frame.
        let ps = match bits.checked_mul(PS_PER_S) {
            Some(n) => n.div_ceil(self.bps),
            None => (u128::from(bits) * u128::from(PS_PER_S)).div_ceil(u128::from(self.bps)) as u64,
        };
        Time(ps)
    }

    /// Bytes fully serialized in `dur` at this rate (rounded down).
    pub fn bytes_in(self, dur: Time) -> u64 {
        let bits = match self.bps.checked_mul(dur.as_ps()) {
            Some(n) => n / PS_PER_S,
            None => (u128::from(self.bps) * u128::from(dur.as_ps()) / u128::from(PS_PER_S)) as u64,
        };
        bits / 8
    }
}

impl fmt::Display for BitRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.bps.is_multiple_of(1_000_000_000) {
            write!(f, "{}Gb/s", self.bps / 1_000_000_000)
        } else if self.bps.is_multiple_of(1_000_000) {
            write!(f, "{}Mb/s", self.bps / 1_000_000)
        } else {
            write!(f, "{}b/s", self.bps)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_constructors_agree() {
        assert_eq!(Time::from_ns(1), Time::from_ps(1_000));
        assert_eq!(Time::from_us(1), Time::from_ns(1_000));
        assert_eq!(Time::from_ms(1), Time::from_us(1_000));
        assert_eq!(Time::from_us(3).as_ns(), 3_000);
    }

    #[test]
    fn time_arithmetic() {
        let a = Time::from_ns(10);
        let b = Time::from_ns(4);
        assert_eq!(a + b, Time::from_ns(14));
        assert_eq!(a - b, Time::from_ns(6));
        assert_eq!(b.saturating_sub(a), Time::ZERO);
        let mut c = a;
        c += b;
        assert_eq!(c, Time::from_ns(14));
    }

    #[test]
    fn time_display_units() {
        assert_eq!(Time::from_ps(5).to_string(), "5ps");
        assert_eq!(Time::from_ns(5).to_string(), "5.000ns");
        assert_eq!(Time::from_us(5).to_string(), "5.000us");
        assert_eq!(Time::from_ms(5).to_string(), "5.000ms");
    }

    #[test]
    fn frequency_period() {
        assert_eq!(Frequency::mhz(200).period(), Time::from_ps(5_000));
        assert_eq!(Frequency::mhz(500).period(), Time::from_ps(2_000));
        assert_eq!(Frequency::ghz(1).period(), Time::from_ps(1_000));
        // 156.25 MHz (the classic 10G MAC clock) rounds to 6400 ps exactly.
        assert_eq!(Frequency::hz(156_250_000).period(), Time::from_ps(6_400));
    }

    #[test]
    #[should_panic(expected = "zero frequency")]
    fn frequency_rejects_zero() {
        let _ = Frequency::hz(0);
    }

    #[test]
    fn bitrate_byte_times() {
        // 10 Gb/s: one byte every 0.8 ns.
        let r = BitRate::gbps(10);
        assert_eq!(r.time_for_bytes(1), Time::from_ps(800));
        assert_eq!(r.time_for_bytes(1500), Time::from_ps(1_200_000));
        assert_eq!(r.bytes_in(Time::from_ns(800)), 1000);
        // Rounding up: 3 bytes at 7 Gb/s is 24e12/7e9 = 3428.57.. -> 3429 ps.
        assert_eq!(BitRate::gbps(7).time_for_bytes(3), Time::from_ps(3_429));
    }

    proptest::proptest! {
        /// The `u64` and `u128` paths are one function. Each case takes a
        /// frame-sized length (`bits * 1e12` fits `u64`) and a bulk one
        /// (past 2.3 MB it does not).
        #[test]
        fn prop_bitrate_paths_agree(bps in 1_000_000u64..=100_000_000_000, bulk in 1u64..=16 << 20) {
            let rate = BitRate::bps(bps);
            for bytes in [bulk % 9600 + 1, bulk] {
                let ps = (u128::from(bytes) * 8 * 1_000_000_000_000).div_ceil(u128::from(bps));
                let t = rate.time_for_bytes(bytes);
                proptest::prop_assert_eq!(u128::from(t.as_ps()), ps);
                let fit = u128::from(bps) * ps / 1_000_000_000_000 / 8;
                proptest::prop_assert_eq!(u128::from(rate.bytes_in(t)), fit);
                proptest::prop_assert!(fit >= u128::from(bytes), "rounded up, so the bytes fit");
            }
        }
    }

    #[test]
    fn bitrate_display() {
        assert_eq!(BitRate::gbps(100).to_string(), "100Gb/s");
        assert_eq!(BitRate::mbps(100).to_string(), "100Mb/s");
    }

    #[test]
    fn frequency_display() {
        assert_eq!(Frequency::mhz(200).to_string(), "200MHz");
        assert_eq!(Frequency::ghz(2).to_string(), "2GHz");
    }
}
