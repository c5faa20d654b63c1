//! The NTPv4 packet format (RFC 5905 §7.3): a genuine 48-byte codec.

use crate::timestamp::{NtpShort, NtpTimestamp};
use core::fmt;
use std::error::Error;

/// The well-known NTP port.
pub const NTP_PORT: u16 = 123;

/// Length of the base NTP packet (no extensions / MAC).
pub const NTP_PACKET_LEN: usize = 48;

/// Leap indicator field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LeapIndicator {
    /// No warning.
    NoWarning,
    /// Last minute of the day has 61 seconds.
    LastMinute61,
    /// Last minute of the day has 59 seconds.
    LastMinute59,
    /// Clock unsynchronised.
    Unsynchronized,
}

impl LeapIndicator {
    fn bits(self) -> u8 {
        match self {
            LeapIndicator::NoWarning => 0,
            LeapIndicator::LastMinute61 => 1,
            LeapIndicator::LastMinute59 => 2,
            LeapIndicator::Unsynchronized => 3,
        }
    }

    fn from_bits(b: u8) -> Self {
        match b & 0x3 {
            0 => LeapIndicator::NoWarning,
            1 => LeapIndicator::LastMinute61,
            2 => LeapIndicator::LastMinute59,
            _ => LeapIndicator::Unsynchronized,
        }
    }
}

/// Protocol mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Symmetric active (1).
    SymmetricActive,
    /// Symmetric passive (2).
    SymmetricPassive,
    /// Client request (3).
    Client,
    /// Server response (4).
    Server,
    /// Broadcast (5).
    Broadcast,
    /// Other mode value.
    Other(u8),
}

impl Mode {
    fn bits(self) -> u8 {
        match self {
            Mode::SymmetricActive => 1,
            Mode::SymmetricPassive => 2,
            Mode::Client => 3,
            Mode::Server => 4,
            Mode::Broadcast => 5,
            Mode::Other(b) => b & 0x7,
        }
    }

    fn from_bits(b: u8) -> Self {
        match b & 0x7 {
            1 => Mode::SymmetricActive,
            2 => Mode::SymmetricPassive,
            3 => Mode::Client,
            4 => Mode::Server,
            5 => Mode::Broadcast,
            other => Mode::Other(other),
        }
    }
}

/// An NTPv4 packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NtpPacket {
    /// Leap indicator.
    pub leap: LeapIndicator,
    /// Protocol version (4).
    pub version: u8,
    /// Protocol mode.
    pub mode: Mode,
    /// Stratum (1 = primary, 16 = unsynchronised).
    pub stratum: u8,
    /// log2 of the poll interval in seconds.
    pub poll: i8,
    /// log2 of the clock precision in seconds.
    pub precision: i8,
    /// Total round-trip delay to the reference clock.
    pub root_delay: NtpShort,
    /// Total dispersion to the reference clock.
    pub root_dispersion: NtpShort,
    /// Reference identifier.
    pub reference_id: u32,
    /// When the system clock was last set.
    pub reference_ts: NtpTimestamp,
    /// T1 as echoed by the server (originate).
    pub originate_ts: NtpTimestamp,
    /// T2: server receive time.
    pub receive_ts: NtpTimestamp,
    /// T3: server transmit time.
    pub transmit_ts: NtpTimestamp,
}

/// Errors from [`NtpPacket::decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NtpPacketError {
    /// Fewer than 48 bytes of input.
    Truncated,
    /// Version outside 1..=4.
    BadVersion {
        /// The version seen.
        version: u8,
    },
}

impl fmt::Display for NtpPacketError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NtpPacketError::Truncated => write!(f, "ntp packet shorter than 48 bytes"),
            NtpPacketError::BadVersion { version } => {
                write!(f, "unsupported ntp version {version}")
            }
        }
    }
}

impl Error for NtpPacketError {}

impl NtpPacket {
    /// A client (mode 3) request with `transmit_ts` = T1.
    pub fn client_request(t1: NtpTimestamp) -> Self {
        NtpPacket {
            leap: LeapIndicator::NoWarning,
            version: 4,
            mode: Mode::Client,
            stratum: 0,
            poll: 6,
            precision: -20,
            root_delay: NtpShort::ZERO,
            root_dispersion: NtpShort::ZERO,
            reference_id: 0,
            reference_ts: NtpTimestamp::ZERO,
            originate_ts: NtpTimestamp::ZERO,
            receive_ts: NtpTimestamp::ZERO,
            transmit_ts: t1,
        }
    }

    /// Serialises to the 48-byte wire format.
    pub fn encode(&self) -> [u8; NTP_PACKET_LEN] {
        let mut out = [0u8; NTP_PACKET_LEN];
        out[0] = (self.leap.bits() << 6) | ((self.version & 0x7) << 3) | self.mode.bits();
        out[1] = self.stratum;
        out[2] = self.poll as u8;
        out[3] = self.precision as u8;
        out[4..8].copy_from_slice(&self.root_delay.to_bits().to_be_bytes());
        out[8..12].copy_from_slice(&self.root_dispersion.to_bits().to_be_bytes());
        out[12..16].copy_from_slice(&self.reference_id.to_be_bytes());
        out[16..24].copy_from_slice(&self.reference_ts.to_bits().to_be_bytes());
        out[24..32].copy_from_slice(&self.originate_ts.to_bits().to_be_bytes());
        out[32..40].copy_from_slice(&self.receive_ts.to_bits().to_be_bytes());
        out[40..48].copy_from_slice(&self.transmit_ts.to_bits().to_be_bytes());
        out
    }

    /// Parses a packet (extra trailing bytes are ignored, as real
    /// implementations do for extensions they don't understand).
    ///
    /// # Errors
    ///
    /// [`NtpPacketError::Truncated`] for short input,
    /// [`NtpPacketError::BadVersion`] for versions outside 1..=4.
    pub fn decode(bytes: &[u8]) -> Result<NtpPacket, NtpPacketError> {
        if bytes.len() < NTP_PACKET_LEN {
            return Err(NtpPacketError::Truncated);
        }
        let version = (bytes[0] >> 3) & 0x7;
        if !(1..=4).contains(&version) {
            return Err(NtpPacketError::BadVersion { version });
        }
        let u32_at = |i: usize| u32::from_be_bytes(bytes[i..i + 4].try_into().expect("4 bytes"));
        let u64_at = |i: usize| u64::from_be_bytes(bytes[i..i + 8].try_into().expect("8 bytes"));
        Ok(NtpPacket {
            leap: LeapIndicator::from_bits(bytes[0] >> 6),
            version,
            mode: Mode::from_bits(bytes[0]),
            stratum: bytes[1],
            poll: bytes[2] as i8,
            precision: bytes[3] as i8,
            root_delay: NtpShort::from_bits(u32_at(4)),
            root_dispersion: NtpShort::from_bits(u32_at(8)),
            reference_id: u32_at(12),
            reference_ts: NtpTimestamp::from_bits(u64_at(16)),
            originate_ts: NtpTimestamp::from_bits(u64_at(24)),
            receive_ts: NtpTimestamp::from_bits(u64_at(32)),
            transmit_ts: NtpTimestamp::from_bits(u64_at(40)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::time::SimTime;

    fn sample() -> NtpPacket {
        NtpPacket {
            leap: LeapIndicator::NoWarning,
            version: 4,
            mode: Mode::Server,
            stratum: 2,
            poll: 6,
            precision: -23,
            root_delay: NtpShort::from_secs_f64(0.015),
            root_dispersion: NtpShort::from_secs_f64(0.002),
            reference_id: 0x0A20_0001,
            reference_ts: NtpTimestamp::from_sim(SimTime::from_secs(100)),
            originate_ts: NtpTimestamp::from_sim(SimTime::from_secs(200)),
            receive_ts: NtpTimestamp::from_sim(SimTime::from_millis(200_020)),
            transmit_ts: NtpTimestamp::from_sim(SimTime::from_millis(200_021)),
        }
    }

    #[test]
    fn round_trip() {
        let pkt = sample();
        let wire = pkt.encode();
        assert_eq!(wire.len(), 48);
        assert_eq!(NtpPacket::decode(&wire).unwrap(), pkt);
    }

    #[test]
    fn client_request_shape() {
        let t1 = NtpTimestamp::from_sim(SimTime::from_secs(5));
        let req = NtpPacket::client_request(t1);
        assert_eq!(req.mode, Mode::Client);
        assert_eq!(req.version, 4);
        assert_eq!(req.transmit_ts, t1);
        let back = NtpPacket::decode(&req.encode()).unwrap();
        assert_eq!(back.mode, Mode::Client);
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(
            NtpPacket::decode(&[0u8; 47]),
            Err(NtpPacketError::Truncated)
        );
    }

    #[test]
    fn bad_version_rejected() {
        let mut wire = sample().encode();
        wire[0] = (wire[0] & !0x38) | (7 << 3);
        assert_eq!(
            NtpPacket::decode(&wire),
            Err(NtpPacketError::BadVersion { version: 7 })
        );
        wire[0] &= !0x38; // version 0
        assert_eq!(
            NtpPacket::decode(&wire),
            Err(NtpPacketError::BadVersion { version: 0 })
        );
    }

    #[test]
    fn trailing_bytes_ignored() {
        let pkt = sample();
        let mut wire = pkt.encode().to_vec();
        wire.extend_from_slice(&[0xde, 0xad]);
        assert_eq!(NtpPacket::decode(&wire).unwrap(), pkt);
    }

    #[test]
    fn all_modes_round_trip() {
        for mode in [
            Mode::SymmetricActive,
            Mode::SymmetricPassive,
            Mode::Client,
            Mode::Server,
            Mode::Broadcast,
        ] {
            let mut pkt = sample();
            pkt.mode = mode;
            assert_eq!(NtpPacket::decode(&pkt.encode()).unwrap().mode, mode);
        }
    }

    #[test]
    fn all_leap_indicators_round_trip() {
        for leap in [
            LeapIndicator::NoWarning,
            LeapIndicator::LastMinute61,
            LeapIndicator::LastMinute59,
            LeapIndicator::Unsynchronized,
        ] {
            let mut pkt = sample();
            pkt.leap = leap;
            assert_eq!(NtpPacket::decode(&pkt.encode()).unwrap().leap, leap);
        }
    }

    #[test]
    fn negative_poll_and_precision_survive() {
        let mut pkt = sample();
        pkt.poll = -6;
        pkt.precision = -29;
        let back = NtpPacket::decode(&pkt.encode()).unwrap();
        assert_eq!(back.poll, -6);
        assert_eq!(back.precision, -29);
    }
}
