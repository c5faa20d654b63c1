//! UDP datagrams with genuine RFC 768 checksums.
//!
//! The checksum matters here: defragmentation poisoning must craft a spoofed
//! tail whose ones-complement sum matches the tail it displaces, otherwise
//! the reassembled datagram fails validation at the victim and the attack
//! fizzles. [`checksum_compensation`] computes exactly that fix-up.
//!
//! # Examples
//!
//! ```
//! use netsim::udp::UdpDatagram;
//! use bytes::Bytes;
//!
//! let src = "10.0.0.1".parse()?;
//! let dst = "10.0.0.2".parse()?;
//! let dgram = UdpDatagram::new(5300, 53, Bytes::from_static(b"hello"));
//! let wire = dgram.encode(src, dst);
//! let back = UdpDatagram::decode(src, dst, &wire, true)?;
//! assert_eq!(back.payload, dgram.payload);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use bytes::Bytes;
use core::fmt;
use std::error::Error;
use std::net::Ipv4Addr;

/// Length of the UDP header in bytes.
pub const UDP_HEADER_LEN: usize = 8;

/// A UDP datagram (header fields plus payload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdpDatagram {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Application payload.
    pub payload: Bytes,
}

/// Errors from [`UdpDatagram::decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UdpError {
    /// Fewer than 8 bytes of input.
    Truncated,
    /// The length field disagrees with the actual byte count.
    LengthMismatch,
    /// Checksum validation failed.
    BadChecksum,
}

impl fmt::Display for UdpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UdpError::Truncated => write!(f, "datagram shorter than the UDP header"),
            UdpError::LengthMismatch => write!(f, "UDP length field disagrees with data"),
            UdpError::BadChecksum => write!(f, "UDP checksum validation failed"),
        }
    }
}

impl Error for UdpError {}

impl UdpDatagram {
    /// Creates a datagram.
    pub fn new(src_port: u16, dst_port: u16, payload: Bytes) -> Self {
        UdpDatagram {
            src_port,
            dst_port,
            payload,
        }
    }

    /// Total encoded length (header + payload).
    pub fn len(&self) -> usize {
        UDP_HEADER_LEN + self.payload.len()
    }

    /// `true` when the payload is empty (the header is still 8 bytes).
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }

    /// Serialises header + payload, computing the checksum over the IPv4
    /// pseudo-header as RFC 768 requires.
    pub fn encode(&self, src: Ipv4Addr, dst: Ipv4Addr) -> Bytes {
        encode(src, self.src_port, dst, self.dst_port, &self.payload)
    }

    /// Parses a datagram from wire bytes. The payload is a zero-copy
    /// slice of `wire`, and the checksum is verified in place.
    ///
    /// # Errors
    ///
    /// Returns [`UdpError`] on truncation, a bad length field, or (when
    /// `verify_checksum` is set and the checksum field is non-zero) a
    /// checksum mismatch.
    pub fn decode(
        src: Ipv4Addr,
        dst: Ipv4Addr,
        wire: &Bytes,
        verify_checksum: bool,
    ) -> Result<UdpDatagram, UdpError> {
        let bytes: &[u8] = wire;
        if bytes.len() < UDP_HEADER_LEN {
            return Err(UdpError::Truncated);
        }
        let len = u16::from_be_bytes([bytes[4], bytes[5]]) as usize;
        if len != bytes.len() || len < UDP_HEADER_LEN {
            return Err(UdpError::LengthMismatch);
        }
        let wire_sum = u16::from_be_bytes([bytes[6], bytes[7]]);
        if verify_checksum && wire_sum != 0 {
            // Sum around the checksum field: it sits at an even offset, so
            // skipping its two bytes is summing them as zero.
            let sum = ones_complement_sum(&bytes[..6]) + ones_complement_sum(&bytes[8..]);
            if pseudo_header_checksum(src, dst, len, sum) != wire_sum {
                return Err(UdpError::BadChecksum);
            }
        }
        Ok(UdpDatagram {
            src_port: u16::from_be_bytes([bytes[0], bytes[1]]),
            dst_port: u16::from_be_bytes([bytes[2], bytes[3]]),
            payload: wire.slice(UDP_HEADER_LEN..),
        })
    }
}

/// Writes a datagram's header, `payload` and checksum into one buffer,
/// which the packet, its fragments and the received payload all share.
pub fn encode(src: Ipv4Addr, src_port: u16, dst: Ipv4Addr, dst_port: u16, payload: &[u8]) -> Bytes {
    let len = UDP_HEADER_LEN + payload.len();
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(&src_port.to_be_bytes());
    out.extend_from_slice(&dst_port.to_be_bytes());
    out.extend_from_slice(&(len as u16).to_be_bytes());
    out.extend_from_slice(&[0, 0]); // checksum placeholder
    out.extend_from_slice(payload);
    let sum = udp_checksum(src, dst, &out);
    out[6..8].copy_from_slice(&sum.to_be_bytes());
    Bytes::from(out)
}

/// Ones-complement sum of 16-bit words (the "Internet checksum" kernel),
/// folded to at most 17 bits.
///
/// Odd-length data is padded with a trailing zero byte, per RFC 1071. The
/// data is summed as big-endian 8-byte words with end-around carry: since
/// 2¹⁶, 2³² and 2⁶⁴ are all 1 modulo 0xffff, that sum and the fold to 17
/// bits keep the 16-bit word sum's residue, and each is zero only when
/// every byte is, so [`fold_checksum`] of the result equals the fold of
/// the plain 16-bit word sum. At most 17 bits, a few such sums added
/// together cannot overflow a `u32`.
pub fn ones_complement_sum(data: &[u8]) -> u32 {
    let add = |sum: u64, word: u64| {
        let (sum, carry) = sum.overflowing_add(word);
        sum + u64::from(carry)
    };
    let mut sum = 0;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        sum = add(sum, u64::from_be_bytes(chunk.try_into().expect("8 bytes")));
    }
    let rest = chunks.remainder();
    let mut tail = [0u8; 8];
    tail[..rest.len()].copy_from_slice(rest);
    let sum = add(sum, u64::from_be_bytes(tail));
    let sum = (sum & 0xffff_ffff) + (sum >> 32); // < 2^33
    let sum = ((sum & 0xffff_ffff) + (sum >> 32)) as u32; // < 2^32
    (sum & 0xffff) + (sum >> 16)
}

/// Folds carries into 16 bits.
pub fn fold_checksum(mut sum: u32) -> u16 {
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    sum as u16
}

/// UDP checksum over the IPv4 pseudo-header + UDP header + payload.
///
/// The checksum field inside `segment` must be zeroed. Per RFC 768 a
/// computed value of zero is transmitted as `0xffff`.
pub fn udp_checksum(src: Ipv4Addr, dst: Ipv4Addr, segment: &[u8]) -> u16 {
    pseudo_header_checksum(src, dst, segment.len(), ones_complement_sum(segment))
}

/// Adds the IPv4 pseudo-header of a `len`-byte segment to the segment's
/// ones-complement `sum` and folds the total into the transmitted form.
fn pseudo_header_checksum(src: Ipv4Addr, dst: Ipv4Addr, len: usize, sum: u32) -> u16 {
    let sum = sum
        + ones_complement_sum(&src.octets())
        + ones_complement_sum(&dst.octets())
        + 17 // protocol
        + len as u32;
    let folded = !fold_checksum(sum);
    if folded == 0 {
        0xffff
    } else {
        folded
    }
}

/// Computes a 16-bit compensation word so that replacing `original_tail`
/// with `forged_tail ++ compensation` preserves the datagram's checksum.
///
/// Both tails must start at the same (even) byte offset within the datagram.
/// The returned word should be placed at an even offset inside bytes the
/// attacker controls (e.g. the TTL field of a trailing forged record).
///
/// # Panics
///
/// Panics if `forged_tail` is not exactly 2 bytes shorter than the slot it
/// must fill, i.e. `forged_tail.len() + 2 != original_tail.len()`.
pub fn checksum_compensation(original_tail: &[u8], forged_tail: &[u8]) -> [u8; 2] {
    assert_eq!(
        forged_tail.len() + 2,
        original_tail.len(),
        "forged tail must leave exactly two bytes for compensation"
    );
    let want = fold_checksum(ones_complement_sum(original_tail));
    let have = fold_checksum(ones_complement_sum(forged_tail));
    // compensation = want - have  (ones-complement arithmetic)
    let comp = fold_checksum(u32::from(want) + u32::from(!have));
    comp.to_be_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs() -> (Ipv4Addr, Ipv4Addr) {
        (
            Ipv4Addr::new(198, 51, 100, 7),
            Ipv4Addr::new(203, 0, 113, 9),
        )
    }

    #[test]
    fn encode_decode_round_trip() {
        let (s, d) = addrs();
        let dgram = UdpDatagram::new(12345, 53, Bytes::from(vec![1, 2, 3, 4, 5]));
        let wire = dgram.encode(s, d);
        assert_eq!(wire.len(), 13);
        let back = UdpDatagram::decode(s, d, &wire, true).unwrap();
        assert_eq!(back, dgram);
    }

    #[test]
    fn empty_payload_round_trip() {
        let (s, d) = addrs();
        let dgram = UdpDatagram::new(1, 2, Bytes::new());
        let wire = dgram.encode(s, d);
        assert_eq!(wire.len(), UDP_HEADER_LEN);
        assert!(UdpDatagram::decode(s, d, &wire, true).unwrap().is_empty());
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let (s, d) = addrs();
        let dgram = UdpDatagram::new(12345, 53, Bytes::from(vec![0u8; 64]));
        let mut wire = dgram.encode(s, d).to_vec();
        wire[20] ^= 0x40;
        let wire = Bytes::from(wire);
        assert_eq!(
            UdpDatagram::decode(s, d, &wire, true),
            Err(UdpError::BadChecksum)
        );
        // With verification disabled the corruption passes through.
        assert!(UdpDatagram::decode(s, d, &wire, false).is_ok());
    }

    #[test]
    fn wrong_pseudo_header_fails_checksum() {
        let (s, d) = addrs();
        let dgram = UdpDatagram::new(12345, 53, Bytes::from(vec![9u8; 32]));
        let wire = dgram.encode(s, d);
        // Same bytes validated against a different source address: the
        // pseudo-header protects against cross-address splicing.
        let other = Ipv4Addr::new(198, 51, 100, 8);
        assert_eq!(
            UdpDatagram::decode(other, d, &wire, true),
            Err(UdpError::BadChecksum)
        );
    }

    #[test]
    fn truncated_and_bad_length_rejected() {
        let (s, d) = addrs();
        assert_eq!(
            UdpDatagram::decode(s, d, &Bytes::from(vec![0u8; 4]), true),
            Err(UdpError::Truncated)
        );
        let dgram = UdpDatagram::new(1, 2, Bytes::from(vec![0u8; 8]));
        let mut wire = dgram.encode(s, d).to_vec();
        wire[5] = wire[5].wrapping_add(1);
        assert_eq!(
            UdpDatagram::decode(s, d, &Bytes::from(wire), false),
            Err(UdpError::LengthMismatch)
        );
    }

    #[test]
    fn decoded_payload_is_a_slice_of_the_wire_buffer() {
        let (s, d) = addrs();
        let wire = UdpDatagram::new(123, 123, Bytes::from(vec![7u8; 48])).encode(s, d);
        let back = UdpDatagram::decode(s, d, &wire, true).unwrap();
        assert_eq!(back.payload.as_ptr(), wire[UDP_HEADER_LEN..].as_ptr());
    }

    /// In-place verification accepts exactly what the checksum of a copy
    /// with the field zeroed accepts, for even and odd lengths and for
    /// every single-byte corruption.
    #[test]
    fn in_place_verification_matches_the_zeroed_copy() {
        let (s, d) = addrs();
        for len in 0..24usize {
            let payload: Vec<u8> = (0..len).map(|i| (i * 37 + len) as u8).collect();
            let wire = encode(s, 40_000, d, 53, &payload).to_vec();
            for at in 0..wire.len() {
                let mut bent = wire.clone();
                bent[at] ^= 0x5a;
                let mut zeroed = bent.clone();
                zeroed[6..8].fill(0);
                let field = u16::from_be_bytes([bent[6], bent[7]]);
                let length_ok = u16::from_be_bytes([bent[4], bent[5]]) as usize == bent.len();
                let expect = length_ok && (field == 0 || udp_checksum(s, d, &zeroed) == field);
                let got = UdpDatagram::decode(s, d, &Bytes::from(bent), true).is_ok();
                assert_eq!(got, expect, "len {len}, byte {at} flipped");
            }
        }
    }

    #[test]
    fn odd_length_payload_checksums() {
        let (s, d) = addrs();
        let dgram = UdpDatagram::new(7, 9, Bytes::from(vec![0xAB; 7]));
        let wire = dgram.encode(s, d);
        assert!(UdpDatagram::decode(s, d, &wire, true).is_ok());
    }

    #[test]
    fn checksum_never_transmitted_as_zero() {
        let (s, d) = addrs();
        // Probe many payloads; encoded checksum field must never be 0x0000.
        for i in 0..2000u32 {
            let dgram = UdpDatagram::new(
                (i % 65535) as u16,
                53,
                Bytes::from(i.to_be_bytes().to_vec()),
            );
            let wire = dgram.encode(s, d);
            let field = u16::from_be_bytes([wire[6], wire[7]]);
            assert_ne!(field, 0);
        }
    }

    /// The attack fix-up: splicing a forged tail plus its compensation word
    /// into a datagram keeps the checksum valid.
    #[test]
    fn compensated_forged_tail_passes_validation() {
        let (s, d) = addrs();
        let payload: Vec<u8> = (0..600).map(|i| (i % 256) as u8).collect();
        let dgram = UdpDatagram::new(5353, 53, Bytes::from(payload));
        let wire = dgram.encode(s, d).to_vec();

        // Forge everything from (even) offset 100, leaving 2 bytes for the
        // compensation word at the very end.
        let split = 100;
        let original_tail = &wire[split..];
        let forged: Vec<u8> = (0..original_tail.len() - 2)
            .map(|i| (i * 7) as u8)
            .collect();
        let comp = checksum_compensation(original_tail, &forged);

        let mut spliced = wire[..split].to_vec();
        spliced.extend_from_slice(&forged);
        spliced.extend_from_slice(&comp);
        assert_eq!(spliced.len(), wire.len());
        let back =
            UdpDatagram::decode(s, d, &Bytes::from(spliced), true).expect("checksum must hold");
        assert_eq!(
            &back.payload[split - UDP_HEADER_LEN..][..forged.len()],
            &forged[..]
        );
    }

    #[test]
    fn compensation_is_identity_for_unchanged_tail() {
        let original = [1u8, 2, 3, 4, 5, 6, 7, 8];
        let forged = [1u8, 2, 3, 4, 5, 6];
        let comp = checksum_compensation(&original, &forged);
        assert_eq!(comp, [7, 8]);
    }

    #[test]
    #[should_panic(expected = "exactly two bytes")]
    fn compensation_rejects_misaligned_lengths() {
        checksum_compensation(&[0u8; 10], &[0u8; 10]);
    }

    #[test]
    fn fold_handles_multiple_carries() {
        assert_eq!(fold_checksum(0x0001_fffe), 0xffff);
        assert_eq!(fold_checksum(0x0003_0000), 0x0003);
        assert_eq!(fold_checksum(0xffff_ffff), 0xffff);
    }
}
