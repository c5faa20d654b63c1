//! A reusable host IP/UDP stack.
//!
//! Protocol nodes (DNS servers, resolvers, NTP clients, attackers) embed an
//! [`IpStack`] to get, on the receive side: reassembly (with a configurable
//! overlap policy), fragment filtering, UDP checksum validation and ICMP
//! demultiplexing; and on the send side: IP-ID allocation (with configurable
//! predictability — the knob the defragmentation attack turns), path-MTU
//! bookkeeping and sender-side fragmentation.

use crate::frag::{OverlapPolicy, ReassemblyCache, ReassemblyOutcome};
use crate::icmp::{IcmpMessage, QuotedPacket};
use crate::ip::{IpProto, Ipv4Packet, ETHERNET_MTU, IPV4_MIN_MTU};
use crate::node::Context;
use crate::udp::{self, UdpDatagram};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// How a host allocates the IPv4 identification field.
///
/// Predictable allocation is the enabler for off-path fragment injection:
/// the attacker must guess the `id` the server will use for the victim's
/// datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IpIdPolicy {
    /// One global counter (classic BSD/Windows behaviour): trivially
    /// predictable by probing the server.
    GlobalSequential,
    /// A counter per destination (old Linux): predictable for an attacker
    /// who can also receive packets from the server, with some slack.
    PerDestSequential,
    /// Uniformly random ids: prediction succeeds with probability 2^-16
    /// per guess.
    Random,
}

/// What fragments a host (or its middleboxes) lets through.
///
/// Calibrates the resolver population study (paper §II): 90 % of resolvers
/// accept some fragments, 64 % even 68-byte-MTU fragments, 10 % none.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FragFilter {
    /// All fragments are accepted.
    AcceptAll,
    /// First fragments with payload shorter than this many bytes are
    /// dropped (tiny-fragment filtering); others pass.
    MinFirstFragment(usize),
    /// All fragments are dropped — only whole datagrams get through.
    RejectFragments,
}

/// Events an [`IpStack`] surfaces to the owning node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StackEvent {
    /// A UDP datagram addressed to one of this host's addresses.
    Udp {
        /// Packet source address.
        src: Ipv4Addr,
        /// The local address the datagram arrived on.
        dst: Ipv4Addr,
        /// The parsed datagram.
        datagram: UdpDatagram,
    },
    /// An ICMP message (already checksum-validated).
    Icmp {
        /// Packet source address.
        src: Ipv4Addr,
        /// The parsed message.
        message: IcmpMessage,
    },
}

/// Configuration for an [`IpStack`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StackConfig {
    /// IP-ID allocation policy.
    pub ip_id_policy: IpIdPolicy,
    /// Reassembly overlap policy.
    pub overlap_policy: OverlapPolicy,
    /// Fragment filtering applied before reassembly.
    pub frag_filter: FragFilter,
    /// Whether received UDP checksums are validated.
    pub validate_udp_checksum: bool,
    /// Whether ICMP "fragmentation needed" updates the PMTU cache.
    /// Stacks that validate the quoted packet against open sockets would
    /// resist blind PMTU poisoning; most historically did not.
    pub accept_pmtu_updates: bool,
    /// Lowest PMTU the host will accept from ICMP (RFC 1191 suggests
    /// clamping; 68 is the protocol minimum).
    pub min_accepted_pmtu: u16,
    /// Default TTL for sent packets.
    pub default_ttl: u8,
}

impl Default for StackConfig {
    fn default() -> Self {
        StackConfig {
            ip_id_policy: IpIdPolicy::GlobalSequential,
            overlap_policy: OverlapPolicy::First,
            frag_filter: FragFilter::AcceptAll,
            validate_udp_checksum: true,
            accept_pmtu_updates: true,
            min_accepted_pmtu: crate::ip::IPV4_MIN_MTU,
            default_ttl: 64,
        }
    }
}

/// A host's IP/UDP stack: embed one per protocol node.
#[derive(Debug)]
pub struct IpStack {
    addrs: Vec<Ipv4Addr>,
    config: StackConfig,
    reassembly: ReassemblyCache,
    global_id: u16,
    per_dest_id: HashMap<Ipv4Addr, u16>,
    pmtu: HashMap<Ipv4Addr, u16>,
    default_mtu: u16,
    dropped_fragments: u64,
    dropped_checksum: u64,
}

impl IpStack {
    /// Creates a stack owning a single address with default configuration.
    pub fn new(addr: Ipv4Addr) -> Self {
        IpStack::with_config(vec![addr], StackConfig::default())
    }

    /// Creates a stack owning `addrs` (a node may host many addresses, e.g.
    /// a malicious NTP farm) with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `addrs` is empty.
    pub fn with_config(addrs: Vec<Ipv4Addr>, config: StackConfig) -> Self {
        assert!(!addrs.is_empty(), "a stack needs at least one address");
        IpStack {
            addrs,
            config,
            reassembly: ReassemblyCache::new(config.overlap_policy),
            global_id: 1,
            per_dest_id: HashMap::new(),
            pmtu: HashMap::new(),
            default_mtu: ETHERNET_MTU,
            dropped_fragments: 0,
            dropped_checksum: 0,
        }
    }

    /// The host's primary address.
    pub fn addr(&self) -> Ipv4Addr {
        self.addrs[0]
    }

    /// All addresses owned by the host.
    pub fn addrs(&self) -> &[Ipv4Addr] {
        &self.addrs
    }

    /// The stack's configuration.
    pub fn config(&self) -> &StackConfig {
        &self.config
    }

    /// Current PMTU estimate toward `dst`.
    pub fn pmtu(&self, dst: Ipv4Addr) -> u16 {
        self.pmtu.get(&dst).copied().unwrap_or(self.default_mtu)
    }

    /// Fragments dropped by the [`FragFilter`].
    pub fn dropped_fragments(&self) -> u64 {
        self.dropped_fragments
    }

    /// Datagrams dropped for bad UDP checksums.
    pub fn dropped_checksum(&self) -> u64 {
        self.dropped_checksum
    }

    /// Restores the stack to its freshly-constructed state: empties the
    /// reassembly cache, forgets learned PMTUs, rewinds IP-ID counters and
    /// zeroes drop counters. Configuration (addresses, policies, default
    /// MTU) is retained, so a reset stack behaves byte-identically to a new
    /// one under the same packet sequence.
    pub fn reset(&mut self) {
        self.reassembly.reset();
        self.global_id = 1;
        self.per_dest_id.clear();
        self.pmtu.clear();
        self.dropped_fragments = 0;
        self.dropped_checksum = 0;
    }

    /// Predicts the next IP id that would be allocated toward `dst`
    /// without consuming it (used by attacker models with server access).
    pub fn peek_next_id(&self, dst: Ipv4Addr) -> u16 {
        match self.config.ip_id_policy {
            IpIdPolicy::GlobalSequential => self.global_id,
            IpIdPolicy::PerDestSequential => self.per_dest_id.get(&dst).copied().unwrap_or(1),
            IpIdPolicy::Random => 0,
        }
    }

    fn next_id(&mut self, ctx: &mut Context<'_>, dst: Ipv4Addr) -> u16 {
        match self.config.ip_id_policy {
            IpIdPolicy::GlobalSequential => {
                let id = self.global_id;
                self.global_id = self.global_id.wrapping_add(1);
                id
            }
            IpIdPolicy::PerDestSequential => {
                let counter = self.per_dest_id.entry(dst).or_insert(1);
                let id = *counter;
                *counter = counter.wrapping_add(1);
                id
            }
            IpIdPolicy::Random => ctx.rng().gen_u16(),
        }
    }

    /// Sends a UDP datagram from `src` (must be an owned address) to
    /// `dst:dst_port`, fragmenting according to the current PMTU estimate.
    ///
    /// # Panics
    ///
    /// Panics if `src` is not one of the stack's addresses.
    pub fn send_udp(
        &mut self,
        ctx: &mut Context<'_>,
        src: Ipv4Addr,
        src_port: u16,
        dst: Ipv4Addr,
        dst_port: u16,
        payload: &[u8],
    ) {
        assert!(
            self.addrs.contains(&src),
            "source address {src} is not owned by this stack"
        );
        let id = self.next_id(ctx, dst);
        self.send_udp_spoofed(ctx, src, src_port, dst, dst_port, payload, Some(id));
    }

    /// Sends a UDP datagram with an arbitrary (possibly spoofed) source
    /// address. Off-path attacker nodes use this; honest nodes should call
    /// [`IpStack::send_udp`], which enforces address ownership.
    ///
    /// The IP id is allocated from this stack's policy unless `id` is given.
    /// Header, payload and checksum go into one wire buffer, sent as it is
    /// when it fits the PMTU and as fragments of it otherwise.
    #[allow(clippy::too_many_arguments)] // mirrors the UDP 5-tuple plus attack knobs
    pub fn send_udp_spoofed(
        &mut self,
        ctx: &mut Context<'_>,
        spoofed_src: Ipv4Addr,
        src_port: u16,
        dst: Ipv4Addr,
        dst_port: u16,
        payload: &[u8],
        id: Option<u16>,
    ) {
        let wire = udp::encode(spoofed_src, src_port, dst, dst_port, payload);
        let mut pkt = Ipv4Packet::new(spoofed_src, dst, IpProto::Udp, wire);
        pkt.id = id.unwrap_or_else(|| self.global_id.wrapping_add(0x8000));
        pkt.ttl = self.config.default_ttl;
        let mtu = self.pmtu(dst);
        if mtu >= IPV4_MIN_MTU && pkt.total_len() <= usize::from(mtu) {
            ctx.send(pkt);
            return;
        }
        match pkt.fragment(mtu) {
            Ok(frags) => {
                for f in frags {
                    ctx.send(f);
                }
            }
            Err(_) => {
                // PMTU below minimum or overflow: drop (counted as filtered).
                self.dropped_fragments += 1;
            }
        }
    }

    /// Feeds a received packet through filtering, reassembly, checksum
    /// validation and ICMP handling.
    ///
    /// Returns `None` for packets consumed by the stack (pending fragments,
    /// filtered fragments, checksum failures, PMTU updates).
    pub fn handle(&mut self, ctx: &mut Context<'_>, pkt: Ipv4Packet) -> Option<StackEvent> {
        if pkt.is_fragment() && !self.fragment_passes_filter(&pkt) {
            self.dropped_fragments += 1;
            return None;
        }
        self.reassembly.expire(ctx.now());
        let whole = match self.reassembly.insert(ctx.now(), pkt) {
            ReassemblyOutcome::NotFragmented(p) | ReassemblyOutcome::Complete(p) => p,
            ReassemblyOutcome::Pending | ReassemblyOutcome::Dropped(_) => return None,
        };
        match whole.proto {
            IpProto::Udp => {
                match UdpDatagram::decode(
                    whole.src,
                    whole.dst,
                    &whole.payload,
                    self.config.validate_udp_checksum,
                ) {
                    Ok(datagram) => Some(StackEvent::Udp {
                        src: whole.src,
                        dst: whole.dst,
                        datagram,
                    }),
                    Err(_) => {
                        self.dropped_checksum += 1;
                        None
                    }
                }
            }
            IpProto::Icmp => match IcmpMessage::decode(&whole.payload) {
                Ok(message) => {
                    if let IcmpMessage::FragmentationNeeded { mtu, ref original } = message {
                        self.apply_pmtu_update(mtu, original);
                    }
                    Some(StackEvent::Icmp {
                        src: whole.src,
                        message,
                    })
                }
                Err(_) => None,
            },
            IpProto::Other(_) => None,
        }
    }

    fn fragment_passes_filter(&self, pkt: &Ipv4Packet) -> bool {
        match self.config.frag_filter {
            FragFilter::AcceptAll => true,
            FragFilter::RejectFragments => false,
            FragFilter::MinFirstFragment(min) => {
                if pkt.is_first_fragment() {
                    pkt.payload.len() >= min
                } else {
                    true
                }
            }
        }
    }

    fn apply_pmtu_update(&mut self, mtu: u16, original: &QuotedPacket) {
        if !self.config.accept_pmtu_updates {
            return;
        }
        if mtu < self.config.min_accepted_pmtu {
            return;
        }
        // The quoted packet's source must be one of ours for the error to
        // concern us; the PMTU entry is keyed by its destination.
        if self.addrs.contains(&original.src) {
            let entry = self.pmtu.entry(original.dst).or_insert(self.default_mtu);
            if mtu < *entry {
                *entry = mtu;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::field_reassign_with_default)]

    use super::*;
    use crate::node::{Context, NodeId};
    use crate::rng::SimRng;
    use crate::time::SimTime;
    use bytes::Bytes;

    fn with_ctx<R>(f: impl FnOnce(&mut Context<'_>) -> R) -> (R, Vec<Ipv4Packet>) {
        let mut rng = SimRng::seed_from(1);
        let mut actions = Vec::new();
        let mut ctx = Context::new(SimTime::ZERO, NodeId::new(0), &mut rng, &mut actions);
        let r = f(&mut ctx);
        let sent = actions
            .into_iter()
            .filter_map(|a| match a {
                crate::node::Action::Send(p) => Some(p),
                _ => None,
            })
            .collect();
        (r, sent)
    }

    fn a(o: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, o)
    }

    #[test]
    fn send_small_udp_is_single_packet() {
        let mut stack = IpStack::new(a(1));
        let (_, sent) = with_ctx(|ctx| {
            stack.send_udp(ctx, a(1), 5300, a(2), 53, &[0u8; 100]);
        });
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0].proto, IpProto::Udp);
        assert!(!sent[0].is_fragment());
    }

    #[test]
    fn pmtu_update_causes_fragmentation() {
        let mut server = IpStack::new(a(1));
        let resolver_addr = a(2);
        // Craft the ICMP error an attacker would spoof: quotes a packet from
        // the server to the resolver.
        let quoted = QuotedPacket {
            src: a(1),
            dst: resolver_addr,
            proto: IpProto::Udp,
            head: [0; 8],
        };
        let icmp = IcmpMessage::FragmentationNeeded {
            mtu: 548,
            original: quoted,
        }
        .into_packet(a(99), a(1));
        let (_, _) = with_ctx(|ctx| server.handle(ctx, icmp));
        assert_eq!(server.pmtu(resolver_addr), 548);
        assert_eq!(server.pmtu(a(3)), ETHERNET_MTU, "other peers unaffected");

        let (_, sent) = with_ctx(|ctx| {
            server.send_udp(ctx, a(1), 53, resolver_addr, 5300, &[0u8; 900]);
        });
        assert!(sent.len() > 1, "response must now fragment");
        assert!(sent.iter().all(|p| p.total_len() <= 548));
    }

    #[test]
    fn pmtu_update_ignored_when_disabled() {
        let mut cfg = StackConfig::default();
        cfg.accept_pmtu_updates = false;
        let mut server = IpStack::with_config(vec![a(1)], cfg);
        let icmp = IcmpMessage::FragmentationNeeded {
            mtu: 548,
            original: QuotedPacket {
                src: a(1),
                dst: a(2),
                proto: IpProto::Udp,
                head: [0; 8],
            },
        }
        .into_packet(a(99), a(1));
        with_ctx(|ctx| server.handle(ctx, icmp));
        assert_eq!(server.pmtu(a(2)), ETHERNET_MTU);
    }

    #[test]
    fn pmtu_update_for_foreign_quote_is_ignored() {
        let mut server = IpStack::new(a(1));
        // Quote claims a packet from a *different* host: must not apply.
        let icmp = IcmpMessage::FragmentationNeeded {
            mtu: 548,
            original: QuotedPacket {
                src: a(7),
                dst: a(2),
                proto: IpProto::Udp,
                head: [0; 8],
            },
        }
        .into_packet(a(99), a(1));
        with_ctx(|ctx| server.handle(ctx, icmp));
        assert_eq!(server.pmtu(a(2)), ETHERNET_MTU);
    }

    #[test]
    fn pmtu_below_minimum_is_rejected() {
        let mut cfg = StackConfig::default();
        cfg.min_accepted_pmtu = 548;
        let mut server = IpStack::with_config(vec![a(1)], cfg);
        let icmp = IcmpMessage::FragmentationNeeded {
            mtu: 68,
            original: QuotedPacket {
                src: a(1),
                dst: a(2),
                proto: IpProto::Udp,
                head: [0; 8],
            },
        }
        .into_packet(a(99), a(1));
        with_ctx(|ctx| server.handle(ctx, icmp));
        assert_eq!(server.pmtu(a(2)), ETHERNET_MTU);
    }

    #[test]
    fn fragmented_udp_reassembles_end_to_end() {
        let mut sender = IpStack::new(a(1));
        let mut receiver = IpStack::new(a(2));
        sender.pmtu.insert(a(2), 576);
        let payload = Bytes::from((0..1200u32).map(|i| i as u8).collect::<Vec<_>>());
        let (_, sent) = with_ctx(|ctx| {
            sender.send_udp(ctx, a(1), 1000, a(2), 2000, &payload);
        });
        assert!(sent.len() > 1);
        let mut delivered = None;
        with_ctx(|ctx| {
            for f in sent {
                if let Some(ev) = receiver.handle(ctx, f) {
                    delivered = Some(ev);
                }
            }
        });
        match delivered {
            Some(StackEvent::Udp { src, dst, datagram }) => {
                assert_eq!(src, a(1));
                assert_eq!(dst, a(2));
                assert_eq!(datagram.src_port, 1000);
                assert_eq!(datagram.dst_port, 2000);
                assert_eq!(datagram.payload, payload);
            }
            other => panic!("expected datagram, got {other:?}"),
        }
    }

    #[test]
    fn reject_fragments_filter_blocks_reassembly() {
        let mut cfg = StackConfig::default();
        cfg.frag_filter = FragFilter::RejectFragments;
        let mut sender = IpStack::new(a(1));
        let mut receiver = IpStack::with_config(vec![a(2)], cfg);
        sender.pmtu.insert(a(2), 576);
        let (_, sent) = with_ctx(|ctx| {
            sender.send_udp(ctx, a(1), 1, a(2), 2, &[0u8; 1200]);
        });
        let mut got = false;
        with_ctx(|ctx| {
            for f in sent {
                got |= receiver.handle(ctx, f).is_some();
            }
        });
        assert!(!got);
        assert!(receiver.dropped_fragments() >= 2);
    }

    #[test]
    fn tiny_first_fragment_filter() {
        let mut cfg = StackConfig::default();
        cfg.frag_filter = FragFilter::MinFirstFragment(256);
        let mut receiver = IpStack::with_config(vec![a(2)], cfg);
        let pkt = Ipv4Packet::new(a(1), a(2), IpProto::Udp, Bytes::from(vec![0u8; 600]));
        // 68-byte MTU → 48-byte first fragment: filtered.
        let tiny = pkt.fragment(68).unwrap();
        with_ctx(|ctx| {
            assert!(receiver.handle(ctx, tiny[0].clone()).is_none());
        });
        assert_eq!(receiver.dropped_fragments(), 1);
        // 576-byte MTU → 556-byte first fragment: accepted (pending).
        let ok = pkt.fragment(576).unwrap();
        with_ctx(|ctx| {
            assert!(receiver.handle(ctx, ok[0].clone()).is_none());
        });
        assert_eq!(receiver.dropped_fragments(), 1, "large first frag passes");
    }

    #[test]
    fn bad_checksum_is_counted_and_dropped() {
        let mut receiver = IpStack::new(a(2));
        let dgram = UdpDatagram::new(1, 2, Bytes::from(vec![0u8; 32]));
        let mut wire = dgram.encode(a(1), a(2)).to_vec();
        wire[10] ^= 0xff;
        let pkt = Ipv4Packet::new(a(1), a(2), IpProto::Udp, Bytes::from(wire));
        with_ctx(|ctx| {
            assert!(receiver.handle(ctx, pkt).is_none());
        });
        assert_eq!(receiver.dropped_checksum(), 1);
    }

    #[test]
    fn ip_id_policies_differ_in_predictability() {
        let mut g = IpStack::with_config(
            vec![a(1)],
            StackConfig {
                ip_id_policy: IpIdPolicy::GlobalSequential,
                ..StackConfig::default()
            },
        );
        with_ctx(|ctx| {
            let predicted = g.peek_next_id(a(2));
            g.send_udp(ctx, a(1), 1, a(2), 2, &[]);
            assert_eq!(g.peek_next_id(a(3)), predicted.wrapping_add(1));
        });

        let mut p = IpStack::with_config(
            vec![a(1)],
            StackConfig {
                ip_id_policy: IpIdPolicy::PerDestSequential,
                ..StackConfig::default()
            },
        );
        with_ctx(|ctx| {
            p.send_udp(ctx, a(1), 1, a(2), 2, &[]);
            p.send_udp(ctx, a(1), 1, a(2), 2, &[]);
            assert_eq!(p.peek_next_id(a(2)), 3);
            assert_eq!(p.peek_next_id(a(3)), 1, "separate counter per dest");
        });
    }

    #[test]
    fn sequential_ids_appear_on_the_wire() {
        let mut stack = IpStack::new(a(1));
        let (_, sent) = with_ctx(|ctx| {
            for _ in 0..3 {
                stack.send_udp(ctx, a(1), 1, a(2), 2, &[]);
            }
        });
        let ids: Vec<u16> = sent.iter().map(|p| p.id).collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "not owned")]
    fn sending_from_foreign_address_panics() {
        let mut stack = IpStack::new(a(1));
        with_ctx(|ctx| {
            stack.send_udp(ctx, a(9), 1, a(2), 2, &[]);
        });
    }
}
