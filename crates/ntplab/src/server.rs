//! NTP server node: answers mode-3 requests from its local clock.
//!
//! Honest servers run a near-perfect [`LocalClock`]; malicious ones are
//! given a clock with the attacker's chosen shift — an NTP server has no way
//! to prove its time is *true*, which is the root of the whole problem.

use crate::clock::LocalClock;
use crate::packet::{LeapIndicator, Mode, NtpPacket, NTP_PORT};
use crate::timestamp::{NtpShort, NtpTimestamp};
use netsim::ip::Ipv4Packet;
use netsim::node::{Context, Node};
use netsim::stack::{IpStack, StackEvent};
use std::net::Ipv4Addr;

/// Counters describing server activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NtpServerStats {
    /// Mode-3 requests served.
    pub requests: u64,
    /// Packets ignored (wrong port/mode/parse failure).
    pub ignored: u64,
}

/// An NTP server attached to the simulated network.
///
/// One node may own many addresses (`with_addrs`), which is how a malicious
/// "server farm" of 89 addresses is hosted cheaply.
#[derive(Debug)]
pub struct NtpServer {
    stack: IpStack,
    clock: LocalClock,
    /// Snapshot restored by [`Node::reset`] (world-reuse support).
    initial_clock: LocalClock,
    stratum: u8,
    reference_id: u32,
    stats: NtpServerStats,
}

impl NtpServer {
    /// Creates a stratum-2 server at `addr` with the given clock.
    pub fn new(addr: Ipv4Addr, clock: LocalClock) -> Self {
        NtpServer::with_addrs(vec![addr], clock)
    }

    /// Creates a server answering on all of `addrs` from one clock.
    ///
    /// # Panics
    ///
    /// Panics if `addrs` is empty.
    pub fn with_addrs(addrs: Vec<Ipv4Addr>, clock: LocalClock) -> Self {
        let reference_id = u32::from(addrs[0]);
        NtpServer {
            stack: IpStack::with_config(addrs, netsim::stack::StackConfig::default()),
            initial_clock: clock.clone(),
            clock,
            stratum: 2,
            reference_id,
            stats: NtpServerStats::default(),
        }
    }

    /// The server's primary address.
    pub fn addr(&self) -> Ipv4Addr {
        self.stack.addr()
    }

    /// The server's clock (e.g. to inspect or reconfigure its lie).
    pub fn clock(&self) -> &LocalClock {
        &self.clock
    }

    /// Mutable clock access.
    pub fn clock_mut(&mut self) -> &mut LocalClock {
        &mut self.clock
    }

    /// Replaces the clock (and the snapshot restored by [`Node::reset`]) —
    /// how scenario builders re-derive per-seed clock imperfections on a
    /// reused world.
    pub fn set_clock(&mut self, clock: LocalClock) {
        self.initial_clock = clock.clone();
        self.clock = clock;
    }

    /// Activity counters.
    pub fn stats(&self) -> NtpServerStats {
        self.stats
    }
}

impl Node for NtpServer {
    fn reset(&mut self) {
        self.stack.reset();
        self.clock = self.initial_clock.clone();
        self.stats = NtpServerStats::default();
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Ipv4Packet) {
        let Some(StackEvent::Udp { src, dst, datagram }) = self.stack.handle(ctx, pkt) else {
            return;
        };
        if datagram.dst_port != NTP_PORT {
            self.stats.ignored += 1;
            return;
        }
        let Ok(request) = NtpPacket::decode(&datagram.payload) else {
            self.stats.ignored += 1;
            return;
        };
        if request.mode != Mode::Client {
            self.stats.ignored += 1;
            return;
        }
        self.stats.requests += 1;
        let t2 = self.clock.read(ctx.now());
        // Tiny processing delay between receive and transmit.
        let t3 = t2 + netsim::time::SimDuration::from_micros(5);
        let response = NtpPacket {
            leap: LeapIndicator::NoWarning,
            version: 4,
            mode: Mode::Server,
            stratum: self.stratum,
            poll: request.poll,
            precision: -23,
            root_delay: NtpShort::from_secs_f64(0.005),
            root_dispersion: NtpShort::from_secs_f64(0.001),
            reference_id: self.reference_id,
            reference_ts: NtpTimestamp::from_sim(t2),
            originate_ts: request.transmit_ts,
            receive_ts: NtpTimestamp::from_sim(t2),
            transmit_ts: NtpTimestamp::from_sim(t3),
        };
        self.stack.send_udp(
            ctx,
            dst,
            NTP_PORT,
            src,
            datagram.src_port,
            &response.encode(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use netsim::node::NodeHarness;
    use netsim::time::SimTime;
    use netsim::udp::UdpDatagram;

    fn a(o: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 32, 0, o)
    }

    fn request_packet(from: Ipv4Addr, to: Ipv4Addr, t1: NtpTimestamp) -> Ipv4Packet {
        let req = NtpPacket::client_request(t1);
        let dgram = UdpDatagram::new(4123, NTP_PORT, Bytes::from(req.encode().to_vec()));
        Ipv4Packet::new(from, to, netsim::ip::IpProto::Udp, dgram.encode(from, to))
    }

    fn serve_one(server: &mut NtpServer, at: SimTime, pkt: Ipv4Packet) -> Option<NtpPacket> {
        let mut h = NodeHarness::new(1);
        h.set_now(at);
        h.with_ctx(|ctx| server.on_packet(ctx, pkt));
        let sent = h.take_sent();
        let out = sent.first()?;
        let dgram = UdpDatagram::decode(out.src, out.dst, &out.payload, true).ok()?;
        NtpPacket::decode(&dgram.payload).ok()
    }

    #[test]
    fn honest_server_reports_true_time() {
        let mut server = NtpServer::new(a(1), LocalClock::perfect());
        let t1 = NtpTimestamp::from_sim(SimTime::from_secs(99));
        let now = SimTime::from_secs(100);
        let resp = serve_one(&mut server, now, request_packet(a(50), a(1), t1)).unwrap();
        assert_eq!(resp.mode, Mode::Server);
        assert_eq!(resp.originate_ts, t1, "T1 echoed");
        assert_eq!(resp.receive_ts.to_sim(), now);
        assert!(resp.transmit_ts >= resp.receive_ts);
        assert_eq!(server.stats().requests, 1);
    }

    #[test]
    fn shifted_server_lies_consistently() {
        // A malicious server with a +500 ms clock.
        let mut server = NtpServer::new(a(2), LocalClock::new(500_000_000, 0.0));
        let now = SimTime::from_secs(100);
        let t1 = NtpTimestamp::from_sim(SimTime::from_secs(100));
        let resp = serve_one(&mut server, now, request_packet(a(50), a(2), t1)).unwrap();
        let reported = resp.receive_ts.to_sim();
        assert_eq!(reported.signed_nanos_since(now), 500_000_000);
    }

    #[test]
    fn farm_answers_on_every_address() {
        let addrs: Vec<Ipv4Addr> = (1..=5).map(a).collect();
        let mut server = NtpServer::with_addrs(addrs.clone(), LocalClock::perfect());
        let now = SimTime::from_secs(10);
        for addr in addrs {
            let t1 = NtpTimestamp::from_sim(now);
            let resp = serve_one(&mut server, now, request_packet(a(50), addr, t1));
            assert!(resp.is_some(), "no answer on {addr}");
        }
        assert_eq!(server.stats().requests, 5);
    }

    #[test]
    fn non_client_modes_ignored() {
        let mut server = NtpServer::new(a(1), LocalClock::perfect());
        let mut pkt = NtpPacket::client_request(NtpTimestamp::ZERO);
        pkt.mode = Mode::Server;
        let dgram = UdpDatagram::new(4123, NTP_PORT, Bytes::from(pkt.encode().to_vec()));
        let ip = Ipv4Packet::new(
            a(50),
            a(1),
            netsim::ip::IpProto::Udp,
            dgram.encode(a(50), a(1)),
        );
        assert!(serve_one(&mut server, SimTime::from_secs(1), ip).is_none());
        assert_eq!(server.stats().ignored, 1);
    }

    #[test]
    fn wrong_port_ignored() {
        let mut server = NtpServer::new(a(1), LocalClock::perfect());
        let req = NtpPacket::client_request(NtpTimestamp::ZERO);
        let dgram = UdpDatagram::new(4123, 124, Bytes::from(req.encode().to_vec()));
        let ip = Ipv4Packet::new(
            a(50),
            a(1),
            netsim::ip::IpProto::Udp,
            dgram.encode(a(50), a(1)),
        );
        assert!(serve_one(&mut server, SimTime::from_secs(1), ip).is_none());
    }
}
