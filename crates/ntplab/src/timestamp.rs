//! NTP timestamp formats (RFC 5905 §6).
//!
//! [`NtpTimestamp`] is the 64-bit era format: 32 bits of seconds since
//! 1900-01-01, 32 bits of binary fraction. [`NtpShort`] is the 32-bit
//! (16.16) format used for root delay and dispersion. The simulation epoch
//! (`SimTime::ZERO`) is pinned to 2020-01-01 00:00:00 in the NTP era.

use core::fmt;
use netsim::time::SimTime;

/// NTP seconds at the simulation epoch (2020-01-01, incl. 29 leap days).
pub const SIM_EPOCH_NTP_SECS: u64 = 3_786_825_600;

/// Simulation times representable within the current NTP era: the 32-bit
/// seconds field rolls over in 2036, ~16.1 years past the 2020 epoch. The
/// longest experiments here span days; era handling (RFC 5905 §6) is out
/// of scope.
pub const MAX_ERA_SIM_SECS: u64 = u32::MAX as u64 - SIM_EPOCH_NTP_SECS;

/// A 64-bit NTP timestamp (seconds since 1900 + 32-bit fraction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NtpTimestamp(u64);

impl NtpTimestamp {
    /// The zero timestamp, conventionally meaning "unset".
    pub const ZERO: NtpTimestamp = NtpTimestamp(0);

    /// Builds from raw 64-bit wire value.
    pub const fn from_bits(bits: u64) -> Self {
        NtpTimestamp(bits)
    }

    /// The raw 64-bit wire value.
    pub const fn to_bits(self) -> u64 {
        self.0
    }

    /// Whole seconds since the 1900 era.
    pub const fn seconds(self) -> u32 {
        (self.0 >> 32) as u32
    }

    /// The 32-bit binary fraction.
    pub const fn fraction(self) -> u32 {
        self.0 as u32
    }

    /// `true` for the conventional "unset" value.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Converts a simulation instant (a clock *reading*) to NTP format.
    pub fn from_sim(t: SimTime) -> Self {
        let secs = SIM_EPOCH_NTP_SECS + t.as_secs();
        // sub_ns < 10⁹ < 2³⁰, so the shifted value stays below 2⁶²: the
        // division fits in u64 and needs no 128-bit routine.
        let sub_ns = t.as_nanos() % 1_000_000_000;
        let frac = (sub_ns << 32) / 1_000_000_000;
        NtpTimestamp((secs << 32) | frac)
    }

    /// Converts back to the simulation time domain.
    ///
    /// Values before the simulation epoch saturate to [`SimTime::ZERO`].
    pub fn to_sim(self) -> SimTime {
        let secs = u64::from(self.seconds());
        if secs < SIM_EPOCH_NTP_SECS {
            return SimTime::ZERO;
        }
        let ns = ((u128::from(self.fraction())) * 1_000_000_000) >> 32;
        SimTime::from_nanos((secs - SIM_EPOCH_NTP_SECS) * 1_000_000_000 + ns as u64)
    }

    /// Signed difference `self - other` in nanoseconds.
    ///
    /// Truncates toward zero, so `a.diff_nanos(b) == -b.diff_nanos(a)`
    /// exactly (an arithmetic shift would floor and break antisymmetry by
    /// one nanosecond).
    pub fn diff_nanos(self, other: NtpTimestamp) -> i64 {
        let d = self.0 as i128 - other.0 as i128;
        let mag = (d.unsigned_abs() * 1_000_000_000) >> 32;
        let mag = mag.min(i64::MAX as u128) as i64;
        if d < 0 {
            -mag
        } else {
            mag
        }
    }
}

impl fmt::Display for NtpTimestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{:08x}", self.seconds(), self.fraction())
    }
}

/// A 32-bit NTP short (16.16 fixed point), for root delay/dispersion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NtpShort(u32);

impl NtpShort {
    /// The zero value.
    pub const ZERO: NtpShort = NtpShort(0);

    /// Builds from the raw wire value.
    pub const fn from_bits(bits: u32) -> Self {
        NtpShort(bits)
    }

    /// The raw wire value.
    pub const fn to_bits(self) -> u32 {
        self.0
    }

    /// Converts from seconds (clamped to the representable range).
    pub fn from_secs_f64(secs: f64) -> Self {
        let clamped = secs.clamp(0.0, 65_535.999);
        NtpShort((clamped * 65_536.0).round() as u32)
    }

    /// The value in seconds.
    pub fn as_secs_f64(self) -> f64 {
        f64::from(self.0) / 65_536.0
    }

    /// Converts from nanoseconds.
    pub fn from_nanos(nanos: u64) -> Self {
        NtpShort::from_secs_f64(nanos as f64 / 1e9)
    }

    /// The value in nanoseconds.
    pub fn as_nanos(self) -> u64 {
        (self.as_secs_f64() * 1e9).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::time::SimDuration;

    #[test]
    fn sim_round_trip_is_nanosecond_accurate() {
        for t in [
            SimTime::ZERO,
            SimTime::from_millis(1),
            SimTime::from_secs(3600),
            SimTime::from_secs(86_400 * 2) + SimDuration::from_nanos(123_456_789),
        ] {
            let ntp = NtpTimestamp::from_sim(t);
            let back = ntp.to_sim();
            let err = back.signed_nanos_since(t).abs();
            assert!(err <= 1, "round trip error {err}ns at {t}");
        }
    }

    /// The u64 division gives bit for bit what the 128-bit formula gives.
    #[test]
    fn from_sim_matches_the_128_bit_formula() {
        let reference = |t: SimTime| {
            let secs = SIM_EPOCH_NTP_SECS + t.as_secs();
            let sub_ns = t.as_nanos() % 1_000_000_000;
            let frac = ((sub_ns as u128) << 32) / 1_000_000_000;
            (secs << 32) | frac as u64
        };
        let mut instants: Vec<SimTime> = [0, 1, 999_999_999, 1_000_000_000, 1_999_999_999]
            .into_iter()
            .map(SimTime::from_nanos)
            .collect();
        // A splitmix64 sweep over every instant of the NTP era.
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let era_ns = MAX_ERA_SIM_SECS * 1_000_000_000;
        for _ in 0..100_000 {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            instants.push(SimTime::from_nanos((z ^ (z >> 31)) % era_ns));
        }
        for t in instants {
            assert_eq!(NtpTimestamp::from_sim(t).to_bits(), reference(t), "at {t}");
        }
    }

    #[test]
    fn epoch_maps_to_2020() {
        let ntp = NtpTimestamp::from_sim(SimTime::ZERO);
        assert_eq!(u64::from(ntp.seconds()), SIM_EPOCH_NTP_SECS);
        assert_eq!(ntp.fraction(), 0);
    }

    #[test]
    fn pre_epoch_values_saturate() {
        let ntp = NtpTimestamp::from_bits(1u64 << 32);
        assert_eq!(ntp.to_sim(), SimTime::ZERO);
    }

    #[test]
    fn diff_nanos_signed() {
        let a = NtpTimestamp::from_sim(SimTime::from_secs(10));
        let b = NtpTimestamp::from_sim(SimTime::from_millis(10_500));
        assert_eq!(b.diff_nanos(a), 500_000_000);
        assert_eq!(a.diff_nanos(b), -500_000_000);
    }

    #[test]
    fn diff_nanos_subsecond_precision() {
        let a = NtpTimestamp::from_sim(SimTime::from_nanos(1_000));
        let b = NtpTimestamp::from_sim(SimTime::from_nanos(2_500));
        let d = b.diff_nanos(a);
        assert!((d - 1_500).abs() <= 1, "got {d}");
    }

    #[test]
    fn short_round_trip() {
        for secs in [0.0, 0.5, 1.0 / 65_536.0, 12.345, 1000.0] {
            let s = NtpShort::from_secs_f64(secs);
            assert!((s.as_secs_f64() - secs).abs() < 1.0 / 65_536.0);
        }
        assert_eq!(NtpShort::from_secs_f64(-5.0), NtpShort::ZERO);
    }

    #[test]
    fn short_nanos_round_trip() {
        let s = NtpShort::from_nanos(25_000_000); // 25 ms
        let back = s.as_nanos();
        assert!((back as i64 - 25_000_000i64).abs() < 20_000);
    }

    #[test]
    fn wire_bits_round_trip() {
        let t = NtpTimestamp::from_bits(0x0123_4567_89ab_cdef);
        assert_eq!(NtpTimestamp::from_bits(t.to_bits()), t);
        let s = NtpShort::from_bits(0xdead_beef);
        assert_eq!(NtpShort::from_bits(s.to_bits()), s);
    }

    #[test]
    fn display_is_informative() {
        let t = NtpTimestamp::from_bits((5u64 << 32) | 0xff);
        assert_eq!(t.to_string(), "5.000000ff");
    }
}
