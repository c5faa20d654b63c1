//! Client-side NTP associations: the on-wire measurement.
//!
//! [`NtpExchanger`] sends mode-3 requests and turns matching mode-4 replies
//! into [`PeerSample`]s using the standard four-timestamp computation
//! (RFC 5905 §8):
//!
//! ```text
//! offset θ = ((T2 − T1) + (T3 − T4)) / 2
//! delay  δ = (T4 − T1) − (T3 − T2)
//! ```
//!
//! Replies must echo our transmit timestamp (T1) in their originate field —
//! NTP's only off-path protection.

use crate::clock::LocalClock;
use crate::packet::{Mode, NtpPacket, NTP_PORT};
use crate::select::PeerSample;
use crate::timestamp::NtpTimestamp;
use netsim::hash::MulHashMap;
use netsim::node::Context;
use netsim::stack::IpStack;
use netsim::time::SimTime;
use netsim::udp::UdpDatagram;
use std::net::Ipv4Addr;

/// Local port client exchanges run from.
pub const NTP_CLIENT_PORT: u16 = 3123;

/// Assumed client frequency tolerance used for dispersion growth (ppm).
pub const DISPERSION_PPM: f64 = 15.0;

#[derive(Debug, Clone, Copy)]
struct PendingExchange {
    t1_clock: NtpTimestamp,
    sent_at: SimTime,
}

/// Client-side exchange state machine (not itself a node).
#[derive(Debug, Default)]
pub struct NtpExchanger {
    pending: MulHashMap<Ipv4Addr, PendingExchange>,
}

impl NtpExchanger {
    /// Creates an exchanger with no outstanding queries.
    pub fn new() -> Self {
        NtpExchanger::default()
    }

    /// Number of outstanding queries.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Sends a mode-3 request to `server`, reading T1 from `clock`.
    pub fn query(
        &mut self,
        ctx: &mut Context<'_>,
        stack: &mut IpStack,
        clock: &LocalClock,
        server: Ipv4Addr,
    ) {
        let t1 = NtpTimestamp::from_sim(clock.read(ctx.now()));
        self.pending.insert(
            server,
            PendingExchange {
                t1_clock: t1,
                sent_at: ctx.now(),
            },
        );
        let req = NtpPacket::client_request(t1);
        let me = stack.addr();
        stack.send_udp(ctx, me, NTP_CLIENT_PORT, server, NTP_PORT, &req.encode());
    }

    /// Offers a received datagram; returns a sample if it answers one of our
    /// requests.
    ///
    /// Validation: source must have a pending exchange, ports must match,
    /// mode must be Server, and the originate timestamp must equal our T1.
    pub fn handle(
        &mut self,
        now: SimTime,
        clock: &LocalClock,
        src: Ipv4Addr,
        datagram: &UdpDatagram,
    ) -> Option<PeerSample> {
        if datagram.src_port != NTP_PORT || datagram.dst_port != NTP_CLIENT_PORT {
            return None;
        }
        let pending = *self.pending.get(&src)?;
        let reply = NtpPacket::decode(&datagram.payload).ok()?;
        if reply.mode != Mode::Server {
            return None;
        }
        if reply.originate_ts != pending.t1_clock {
            return None; // Not an answer to our question (or a blind spoof).
        }
        self.pending.remove(&src);
        let t1 = pending.t1_clock;
        let t2 = reply.receive_ts;
        let t3 = reply.transmit_ts;
        let t4 = NtpTimestamp::from_sim(clock.read(now));
        let offset_ns = (t2.diff_nanos(t1) + t3.diff_nanos(t4)) / 2;
        let delay_ns = (t4.diff_nanos(t1) - t3.diff_nanos(t2)).max(0);
        let elapsed_ns = t4.diff_nanos(t1).max(0);
        let dispersion_ns = 1_000 + (elapsed_ns as f64 * DISPERSION_PPM / 1e6) as i64;
        Some(PeerSample {
            server: src,
            offset_ns,
            delay_ns,
            dispersion_ns,
        })
    }

    /// Drops exchanges sent before `cutoff`; returns the servers affected.
    pub fn expire_older_than(&mut self, cutoff: SimTime) -> Vec<Ipv4Addr> {
        let stale: Vec<Ipv4Addr> = self
            .pending
            .iter()
            .filter(|(_, p)| p.sent_at < cutoff)
            .map(|(a, _)| *a)
            .collect();
        for a in &stale {
            self.pending.remove(a);
        }
        stale
    }

    /// Clears all outstanding exchanges.
    pub fn clear(&mut self) {
        self.pending.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::NtpServer;
    use bytes::Bytes;
    use netsim::node::{Node, NodeHarness};
    use netsim::time::SimDuration;

    fn a(o: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 32, 0, o)
    }

    /// Drives a query/response cycle through a real server with `latency`
    /// each way and a `server_shift` on the server clock.
    fn exchange(
        server_shift_ns: i64,
        client_clock: &LocalClock,
        latency: SimDuration,
    ) -> PeerSample {
        let mut h = NodeHarness::new(9);
        let mut stack = IpStack::new(a(50));
        let mut exchanger = NtpExchanger::new();
        let mut server = NtpServer::new(a(1), LocalClock::new(server_shift_ns, 0.0));

        h.set_now(SimTime::from_secs(100));
        h.with_ctx(|ctx| exchanger.query(ctx, &mut stack, client_clock, a(1)));
        let request = h.take_sent().remove(0);

        h.advance(latency);
        h.with_ctx(|ctx| server.on_packet(ctx, request));
        let reply = h.take_sent().remove(0);

        h.advance(latency);
        let now = h.now();
        let dgram = UdpDatagram::decode(reply.src, reply.dst, &reply.payload, true).unwrap();
        exchanger
            .handle(now, client_clock, reply.src, &dgram)
            .expect("sample")
    }

    #[test]
    fn symmetric_path_measures_true_offset() {
        let client = LocalClock::perfect();
        let s = exchange(0, &client, SimDuration::from_millis(20));
        assert!(s.offset_ns.abs() < 100_000, "offset {} ~ 0", s.offset_ns);
        let delay_err = (s.delay_ns - 40_000_000).abs();
        assert!(delay_err < 200_000, "delay {} ~ 40ms", s.delay_ns);
    }

    #[test]
    fn shifted_server_produces_shifted_offset() {
        let client = LocalClock::perfect();
        let s = exchange(500_000_000, &client, SimDuration::from_millis(20));
        assert!(
            (s.offset_ns - 500_000_000).abs() < 100_000,
            "offset {} ~ +500ms",
            s.offset_ns
        );
    }

    #[test]
    fn client_clock_error_appears_negated() {
        // Client running +100ms fast sees an honest server as -100ms.
        let client = LocalClock::new(100_000_000, 0.0);
        let s = exchange(0, &client, SimDuration::from_millis(20));
        assert!(
            (s.offset_ns + 100_000_000).abs() < 100_000,
            "offset {} ~ -100ms",
            s.offset_ns
        );
    }

    #[test]
    fn reply_with_wrong_originate_rejected() {
        let mut h = NodeHarness::new(3);
        let clock = LocalClock::perfect();
        let mut stack = IpStack::new(a(50));
        let mut exchanger = NtpExchanger::new();
        h.set_now(SimTime::from_secs(5));
        h.with_ctx(|ctx| exchanger.query(ctx, &mut stack, &clock, a(1)));
        let _ = h.take_sent();

        // Forged reply with a guessed (wrong) originate timestamp.
        let mut forged = NtpPacket::client_request(NtpTimestamp::from_bits(12345));
        forged.mode = Mode::Server;
        let dgram = UdpDatagram::new(
            NTP_PORT,
            NTP_CLIENT_PORT,
            Bytes::from(forged.encode().to_vec()),
        );
        assert!(exchanger
            .handle(SimTime::from_secs(6), &clock, a(1), &dgram)
            .is_none());
        assert_eq!(exchanger.pending(), 1, "exchange still outstanding");
    }

    #[test]
    fn reply_from_unqueried_server_rejected() {
        let clock = LocalClock::perfect();
        let mut exchanger = NtpExchanger::new();
        let mut pkt = NtpPacket::client_request(NtpTimestamp::ZERO);
        pkt.mode = Mode::Server;
        let dgram = UdpDatagram::new(
            NTP_PORT,
            NTP_CLIENT_PORT,
            Bytes::from(pkt.encode().to_vec()),
        );
        assert!(exchanger
            .handle(SimTime::from_secs(1), &clock, a(7), &dgram)
            .is_none());
    }

    #[test]
    fn expiry_clears_stale_exchanges() {
        let mut h = NodeHarness::new(4);
        let clock = LocalClock::perfect();
        let mut stack = IpStack::new(a(50));
        let mut exchanger = NtpExchanger::new();
        h.with_ctx(|ctx| {
            exchanger.query(ctx, &mut stack, &clock, a(1));
            exchanger.query(ctx, &mut stack, &clock, a(2));
        });
        assert_eq!(exchanger.pending(), 2);
        let stale = exchanger.expire_older_than(SimTime::from_secs(10));
        assert_eq!(stale.len(), 2);
        assert_eq!(exchanger.pending(), 0);
    }

    #[test]
    fn dispersion_grows_with_elapsed_time() {
        let client = LocalClock::perfect();
        let short = exchange(0, &client, SimDuration::from_millis(5));
        let long = exchange(0, &client, SimDuration::from_millis(200));
        assert!(long.dispersion_ns > short.dispersion_ns);
    }
}
