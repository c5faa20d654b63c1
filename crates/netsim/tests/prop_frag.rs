//! Property tests: fragmentation, reassembly and checksum invariants.

use bytes::Bytes;
use netsim::frag::{OverlapPolicy, ReassemblyCache, ReassemblyOutcome};
use netsim::ip::{IpProto, Ipv4Packet};
use netsim::time::SimTime;
use netsim::udp::{checksum_compensation, fold_checksum, ones_complement_sum, UdpDatagram};
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn packet(payload: Vec<u8>, id: u16) -> Ipv4Packet {
    let mut p = Ipv4Packet::new(
        Ipv4Addr::new(10, 0, 0, 1),
        Ipv4Addr::new(10, 0, 0, 2),
        IpProto::Udp,
        Bytes::from(payload),
    );
    p.id = id;
    p
}

proptest! {
    /// fragment ∘ reassemble = identity, for any payload and legal MTU,
    /// in any delivery order.
    #[test]
    fn fragment_reassemble_round_trip(
        len in 1usize..4000,
        mtu in 68u16..1500,
        id in any::<u16>(),
        seed in any::<u64>(),
        policy_idx in 0usize..4,
    ) {
        let payload: Vec<u8> = (0..len).map(|i| (i as u64 ^ seed) as u8).collect();
        let pkt = packet(payload.clone(), id);
        let mut frags = pkt.fragment(mtu).unwrap();
        // Shuffle deterministically from the seed.
        let mut s = seed;
        for i in (1..frags.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            frags.swap(i, (s % (i as u64 + 1)) as usize);
        }
        let policy = [
            OverlapPolicy::First,
            OverlapPolicy::Last,
            OverlapPolicy::Bsd,
            OverlapPolicy::StrictNoOverlap,
        ][policy_idx];
        let mut cache = ReassemblyCache::new(policy);
        let mut complete = None;
        for f in frags {
            match cache.insert(SimTime::ZERO, f) {
                ReassemblyOutcome::Complete(p) | ReassemblyOutcome::NotFragmented(p) => {
                    complete = Some(p);
                }
                ReassemblyOutcome::Pending => {}
                ReassemblyOutcome::Dropped(r) => {
                    panic!("unexpected drop: {r:?}");
                }
            }
        }
        let whole = complete.expect("must complete");
        prop_assert_eq!(&whole.payload[..], &payload[..]);
        prop_assert!(!whole.is_fragment());
    }

    /// Every fragment respects the MTU and non-final fragments carry
    /// 8-byte-aligned payloads.
    #[test]
    fn fragments_respect_mtu_and_alignment(len in 1usize..6000, mtu in 68u16..1500) {
        let pkt = packet(vec![7u8; len], 1);
        let frags = pkt.fragment(mtu).unwrap();
        for (i, f) in frags.iter().enumerate() {
            prop_assert!(f.total_len() <= mtu as usize);
            if i + 1 < frags.len() {
                prop_assert_eq!(f.payload.len() % 8, 0);
                prop_assert!(f.more_fragments);
            }
        }
        // Coverage is exact and gapless.
        let mut expected_offset = 0usize;
        for f in &frags {
            prop_assert_eq!(f.frag_offset_bytes(), expected_offset);
            expected_offset += f.payload.len();
        }
        prop_assert_eq!(expected_offset, len);
    }

    /// UDP encode/decode round-trips and checksum validation accepts
    /// exactly the unmodified wire bytes.
    #[test]
    fn udp_round_trip_and_checksum(
        payload in proptest::collection::vec(any::<u8>(), 0..512),
        sport in any::<u16>(),
        dport in any::<u16>(),
        flip_byte in any::<usize>(),
        flip_bit in 0u8..8,
    ) {
        let src = Ipv4Addr::new(198, 51, 100, 1);
        let dst = Ipv4Addr::new(203, 0, 113, 1);
        let dgram = UdpDatagram::new(sport, dport, Bytes::from(payload.clone()));
        let wire = dgram.encode(src, dst);
        let back = UdpDatagram::decode(src, dst, &wire, true).unwrap();
        prop_assert_eq!(back.payload.as_ref(), &payload[..]);
        prop_assert_eq!(back.src_port, sport);
        prop_assert_eq!(back.dst_port, dport);

        // Any single-bit corruption is caught (unless it hits the checksum
        // complement pair in a way that still sums — impossible for one bit).
        let mut corrupted = wire.to_vec();
        let idx = flip_byte % corrupted.len();
        corrupted[idx] ^= 1 << flip_bit;
        prop_assert!(UdpDatagram::decode(src, dst, &Bytes::from(corrupted), true).is_err());
    }

    /// The attack's checksum compensation works for arbitrary even-length
    /// tails (the helper requires the compensation word to land 16-bit
    /// aligned; the attack code handles odd alignment by byte-swapping).
    #[test]
    fn compensation_equalises_sums(
        mut original in proptest::collection::vec(any::<u8>(), 4..600),
        forged_seed in any::<u64>(),
    ) {
        if original.len() % 2 == 1 {
            original.pop();
        }
        let mut forged: Vec<u8> = original[..original.len() - 2]
            .iter()
            .enumerate()
            .map(|(i, &b)| b ^ (forged_seed.wrapping_add(i as u64) as u8))
            .collect();
        let comp = checksum_compensation(&original, &forged);
        forged.extend_from_slice(&comp);
        // Ones-complement sums are equal modulo 0xffff (0x0000 and 0xffff
        // both represent zero); the UDP checksum maps both to the same
        // wire value, which is what the receiver actually validates.
        prop_assert_eq!(
            u32::from(fold_checksum(ones_complement_sum(&original))) % 0xffff,
            u32::from(fold_checksum(ones_complement_sum(&forged))) % 0xffff
        );
    }
}
