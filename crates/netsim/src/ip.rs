//! IPv4 packet model: addressing, prefixes, and fragmentation.
//!
//! Packets are modelled structurally (no serialized IP header bytes) but with
//! all the fields the attacks in this workspace depend on: the 16-bit
//! identification field used to match fragments, the DF/MF flags, and the
//! 13-bit fragment offset in 8-byte units. Payload bytes *are* real bytes —
//! DNS, NTP and UDP run their genuine wire formats inside [`Ipv4Packet::payload`].
//!
//! # Examples
//!
//! ```
//! use netsim::ip::{Ipv4Packet, IpProto};
//! use bytes::Bytes;
//!
//! let pkt = Ipv4Packet::new(
//!     "10.0.0.1".parse()?, "10.0.0.2".parse()?,
//!     IpProto::Udp, Bytes::from(vec![0u8; 1000]),
//! );
//! let frags = pkt.fragment(576)?;
//! assert!(frags.len() > 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use bytes::Bytes;
use core::fmt;
use std::error::Error;
use std::net::Ipv4Addr;

/// Length of the (unoptioned) IPv4 header in bytes.
pub const IPV4_HEADER_LEN: usize = 20;

/// The minimum MTU every IPv4 link must support (RFC 791).
pub const IPV4_MIN_MTU: u16 = 68;

/// A conventional Ethernet MTU.
pub const ETHERNET_MTU: u16 = 1500;

/// IP protocol numbers used by the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IpProto {
    /// ICMP (protocol 1).
    Icmp,
    /// UDP (protocol 17).
    Udp,
    /// Any other protocol, carried verbatim.
    Other(u8),
}

impl IpProto {
    /// The protocol number as it appears in the IPv4 header.
    pub fn number(self) -> u8 {
        match self {
            IpProto::Icmp => 1,
            IpProto::Udp => 17,
            IpProto::Other(n) => n,
        }
    }
}

impl From<u8> for IpProto {
    fn from(n: u8) -> Self {
        match n {
            1 => IpProto::Icmp,
            17 => IpProto::Udp,
            other => IpProto::Other(other),
        }
    }
}

impl fmt::Display for IpProto {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IpProto::Icmp => write!(f, "icmp"),
            IpProto::Udp => write!(f, "udp"),
            IpProto::Other(n) => write!(f, "proto{n}"),
        }
    }
}

/// An IPv4 packet (or fragment thereof).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ipv4Packet {
    /// Source address. Off-path attackers may set this arbitrarily
    /// (spoofing); the simulator routes only on `dst`.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Identification field; fragments of one datagram share this value.
    pub id: u16,
    /// Don't-Fragment flag. Routers drop oversized DF packets and return
    /// ICMP "fragmentation needed".
    pub dont_fragment: bool,
    /// More-Fragments flag; set on every fragment except the last.
    pub more_fragments: bool,
    /// Fragment offset in 8-byte units (13 bits on the wire).
    pub frag_offset_units: u16,
    /// Time-to-live.
    pub ttl: u8,
    /// Transport protocol of the payload.
    pub proto: IpProto,
    /// Transport payload bytes (for fragments: the fragment's slice).
    pub payload: Bytes,
}

/// Error returned by [`Ipv4Packet::fragment`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FragmentError {
    /// The MTU is below the 68-byte IPv4 minimum.
    MtuTooSmall {
        /// The offending MTU.
        mtu: u16,
    },
    /// The packet has DF set but exceeds the MTU.
    DontFragment {
        /// Total packet length that did not fit.
        len: usize,
        /// The path MTU it exceeded.
        mtu: u16,
    },
    /// The resulting offset would not fit in the 13-bit offset field.
    OffsetOverflow,
}

impl fmt::Display for FragmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FragmentError::MtuTooSmall { mtu } => {
                write!(f, "mtu {mtu} is below the IPv4 minimum of {IPV4_MIN_MTU}")
            }
            FragmentError::DontFragment { len, mtu } => {
                write!(f, "packet of {len} bytes has DF set but path mtu is {mtu}")
            }
            FragmentError::OffsetOverflow => write!(f, "fragment offset exceeds 13 bits"),
        }
    }
}

impl Error for FragmentError {}

impl Ipv4Packet {
    /// Creates an unfragmented packet with default TTL 64 and a fresh id of 0.
    ///
    /// Hosts normally allocate `id` via their IP stack; tests may set it
    /// directly.
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr, proto: IpProto, payload: Bytes) -> Self {
        Ipv4Packet {
            src,
            dst,
            id: 0,
            dont_fragment: false,
            more_fragments: false,
            frag_offset_units: 0,
            ttl: 64,
            proto,
            payload,
        }
    }

    /// Total on-wire length (header + payload) in bytes.
    pub fn total_len(&self) -> usize {
        IPV4_HEADER_LEN + self.payload.len()
    }

    /// Byte offset of this fragment's payload within the original datagram.
    pub fn frag_offset_bytes(&self) -> usize {
        self.frag_offset_units as usize * 8
    }

    /// `true` if this packet is a fragment (not a whole datagram).
    pub fn is_fragment(&self) -> bool {
        self.more_fragments || self.frag_offset_units != 0
    }

    /// `true` for the first fragment of a fragmented datagram.
    pub fn is_first_fragment(&self) -> bool {
        self.more_fragments && self.frag_offset_units == 0
    }

    /// Splits the packet into fragments that each fit within `mtu`.
    ///
    /// A packet that already fits is returned unchanged as a single element.
    /// Every fragment except the last carries a payload length that is a
    /// multiple of 8, as required for offset encoding.
    ///
    /// # Errors
    ///
    /// * [`FragmentError::MtuTooSmall`] if `mtu < 68`.
    /// * [`FragmentError::DontFragment`] if the packet has DF set and does
    ///   not fit — the caller (a router) should emit ICMP "frag needed".
    /// * [`FragmentError::OffsetOverflow`] for absurdly large payloads.
    pub fn fragment(&self, mtu: u16) -> Result<Vec<Ipv4Packet>, FragmentError> {
        if mtu < IPV4_MIN_MTU {
            return Err(FragmentError::MtuTooSmall { mtu });
        }
        if self.total_len() <= mtu as usize {
            return Ok(vec![self.clone()]);
        }
        if self.dont_fragment {
            return Err(FragmentError::DontFragment {
                len: self.total_len(),
                mtu,
            });
        }
        // Payload capacity per fragment, rounded down to a multiple of 8.
        let capacity = ((mtu as usize - IPV4_HEADER_LEN) / 8) * 8;
        let base_units = self.frag_offset_units as usize;
        let mut fragments = Vec::new();
        let mut cursor = 0usize;
        while cursor < self.payload.len() {
            let remaining = self.payload.len() - cursor;
            let take = remaining.min(capacity);
            let is_last_piece = cursor + take == self.payload.len();
            let offset_units = base_units + cursor / 8;
            if offset_units > 0x1fff {
                return Err(FragmentError::OffsetOverflow);
            }
            fragments.push(Ipv4Packet {
                src: self.src,
                dst: self.dst,
                id: self.id,
                dont_fragment: false,
                more_fragments: self.more_fragments || !is_last_piece,
                frag_offset_units: offset_units as u16,
                ttl: self.ttl,
                proto: self.proto,
                payload: self.payload.slice(cursor..cursor + take),
            });
            cursor += take;
        }
        Ok(fragments)
    }

    /// One-line human-readable summary, used by the trace facility.
    pub fn summary(&self) -> String {
        let frag = if self.is_fragment() {
            format!(
                " frag(off={},mf={})",
                self.frag_offset_bytes(),
                self.more_fragments as u8
            )
        } else {
            String::new()
        };
        format!(
            "{} {} -> {} id={} len={}{}",
            self.proto,
            self.src,
            self.dst,
            self.id,
            self.total_len(),
            frag
        )
    }
}

/// An IPv4 prefix, e.g. `203.0.113.0/24`, used for BGP-hijack routing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ipv4Net {
    addr: Ipv4Addr,
    prefix_len: u8,
}

impl Ipv4Net {
    /// Creates a prefix, normalising host bits to zero.
    ///
    /// # Panics
    ///
    /// Panics if `prefix_len > 32`.
    pub fn new(addr: Ipv4Addr, prefix_len: u8) -> Self {
        assert!(prefix_len <= 32, "invalid prefix length {prefix_len}");
        let bits = u32::from(addr) & Self::mask(prefix_len);
        Ipv4Net {
            addr: Ipv4Addr::from(bits),
            prefix_len,
        }
    }

    /// A host route (`/32`) covering exactly one address.
    pub fn host(addr: Ipv4Addr) -> Self {
        Ipv4Net::new(addr, 32)
    }

    fn mask(prefix_len: u8) -> u32 {
        if prefix_len == 0 {
            0
        } else {
            u32::MAX << (32 - prefix_len)
        }
    }

    /// The network address.
    pub fn network(&self) -> Ipv4Addr {
        self.addr
    }

    /// The prefix length.
    pub fn prefix_len(&self) -> u8 {
        self.prefix_len
    }

    /// `true` if `addr` falls inside this prefix.
    pub fn contains(&self, addr: Ipv4Addr) -> bool {
        u32::from(addr) & Self::mask(self.prefix_len) == u32::from(self.addr)
    }
}

impl fmt::Display for Ipv4Net {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.prefix_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packet(len: usize) -> Ipv4Packet {
        let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        let mut p = Ipv4Packet::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            IpProto::Udp,
            Bytes::from(payload),
        );
        p.id = 0x1234;
        p
    }

    #[test]
    fn small_packet_is_not_fragmented() {
        let p = packet(100);
        let frags = p.fragment(1500).unwrap();
        assert_eq!(frags.len(), 1);
        assert_eq!(frags[0], p);
        assert!(!frags[0].is_fragment());
    }

    #[test]
    fn fragments_cover_payload_exactly() {
        let p = packet(1465);
        let frags = p.fragment(548).unwrap();
        assert!(frags.len() >= 3);
        let mut reassembled = vec![0u8; 1465];
        let mut covered = 0;
        for f in &frags {
            let off = f.frag_offset_bytes();
            reassembled[off..off + f.payload.len()].copy_from_slice(&f.payload);
            covered += f.payload.len();
            assert!(f.total_len() <= 548, "fragment exceeds mtu");
            assert_eq!(f.id, p.id);
        }
        assert_eq!(covered, 1465);
        assert_eq!(&reassembled[..], &p.payload[..]);
    }

    #[test]
    fn all_but_last_fragment_are_multiple_of_eight() {
        let p = packet(2000);
        let frags = p.fragment(576).unwrap();
        for f in &frags[..frags.len() - 1] {
            assert_eq!(f.payload.len() % 8, 0);
            assert!(f.more_fragments);
        }
        assert!(!frags.last().unwrap().more_fragments);
    }

    #[test]
    fn minimum_mtu_fragmentation() {
        let p = packet(500);
        let frags = p.fragment(IPV4_MIN_MTU).unwrap();
        // 68 - 20 = 48 bytes of payload per fragment.
        assert_eq!(frags[0].payload.len(), 48);
        assert_eq!(frags.len(), 500usize.div_ceil(48));
    }

    #[test]
    fn mtu_below_minimum_is_rejected() {
        let p = packet(500);
        assert_eq!(p.fragment(67), Err(FragmentError::MtuTooSmall { mtu: 67 }));
    }

    #[test]
    fn df_packet_does_not_fragment() {
        let mut p = packet(1000);
        p.dont_fragment = true;
        match p.fragment(576) {
            Err(FragmentError::DontFragment { len, mtu }) => {
                assert_eq!(len, 1020);
                assert_eq!(mtu, 576);
            }
            other => panic!("expected DontFragment, got {other:?}"),
        }
    }

    #[test]
    fn df_packet_that_fits_passes_through() {
        let mut p = packet(100);
        p.dont_fragment = true;
        assert_eq!(p.fragment(576).unwrap().len(), 1);
    }

    #[test]
    fn refragmenting_a_fragment_preserves_absolute_offsets() {
        let p = packet(1400);
        let frags = p.fragment(1004).unwrap(); // 984-byte chunks
        let tail = &frags[1]; // 416 payload bytes at offset 984
        let refrags = tail.fragment(228).unwrap(); // 208-byte chunks
        assert_eq!(refrags[0].frag_offset_bytes(), tail.frag_offset_bytes());
        assert!(refrags[0].more_fragments);
        let last = refrags.last().unwrap();
        assert_eq!(
            last.frag_offset_bytes() + last.payload.len(),
            p.payload.len()
        );
        assert!(!last.more_fragments);
    }

    #[test]
    fn first_fragment_detection() {
        let p = packet(1000);
        let frags = p.fragment(576).unwrap();
        assert!(frags[0].is_first_fragment());
        assert!(!frags[1].is_first_fragment());
        assert!(frags[1].is_fragment());
    }

    #[test]
    fn prefix_contains() {
        let net = Ipv4Net::new(Ipv4Addr::new(203, 0, 113, 77), 24);
        assert_eq!(net.network(), Ipv4Addr::new(203, 0, 113, 0));
        assert!(net.contains(Ipv4Addr::new(203, 0, 113, 1)));
        assert!(net.contains(Ipv4Addr::new(203, 0, 113, 255)));
        assert!(!net.contains(Ipv4Addr::new(203, 0, 114, 1)));
        assert_eq!(net.to_string(), "203.0.113.0/24");
    }

    #[test]
    fn host_route_contains_only_itself() {
        let a = Ipv4Addr::new(192, 0, 2, 7);
        let net = Ipv4Net::host(a);
        assert!(net.contains(a));
        assert!(!net.contains(Ipv4Addr::new(192, 0, 2, 8)));
    }

    #[test]
    fn zero_length_prefix_contains_everything() {
        let net = Ipv4Net::new(Ipv4Addr::new(1, 2, 3, 4), 0);
        assert!(net.contains(Ipv4Addr::new(255, 255, 255, 255)));
        assert!(net.contains(Ipv4Addr::new(0, 0, 0, 0)));
    }

    #[test]
    fn proto_round_trip() {
        for n in [1u8, 17, 6, 200] {
            assert_eq!(IpProto::from(n).number(), n);
        }
    }
}
