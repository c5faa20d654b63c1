//! Authoritative DNS server node.
//!
//! Serves one or more [`Zone`]s over UDP port 53 on a [`netsim`] host.
//! Responses honour the client's EDNS0 buffer size (or the classic 512-byte
//! limit), truncate with TC when they cannot fit, and — crucially for the
//! fragmentation attacks — are sent through the host's [`IpStack`], so a
//! poisoned PMTU estimate makes the server emit *fragmented* responses.

use crate::wire::{Message, Question, Rcode, RcodeField, CLASSIC_UDP_LIMIT};
use crate::zone::Zone;
use netsim::ip::Ipv4Packet;
use netsim::node::{Context, Node};
use netsim::stack::{IpStack, StackConfig, StackEvent};
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// The well-known DNS port.
pub const DNS_PORT: u16 = 53;

/// Configuration for an [`AuthServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AuthServerConfig {
    /// Whether the server honours EDNS0 buffer sizes from clients.
    pub honor_edns: bool,
    /// Buffer size advertised back in responses when EDNS is used.
    pub edns_size: u16,
}

impl Default for AuthServerConfig {
    fn default() -> Self {
        AuthServerConfig {
            honor_edns: true,
            edns_size: 4096,
        }
    }
}

/// Counters describing server activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AuthServerStats {
    /// Queries received.
    pub queries: u64,
    /// Responses sent.
    pub responses: u64,
    /// Responses sent with TC after truncation.
    pub truncated: u64,
    /// NXDOMAIN responses.
    pub nxdomain: u64,
    /// Queries that matched no zone (REFUSED).
    pub refused: u64,
}

/// An authoritative nameserver attached to the simulated network.
#[derive(Debug)]
pub struct AuthServer {
    stack: IpStack,
    zones: Vec<Zone>,
    config: AuthServerConfig,
    stats: AuthServerStats,
}

impl AuthServer {
    /// Creates a server at `addr` serving `zones`.
    pub fn new(addr: Ipv4Addr, zones: Vec<Zone>) -> Self {
        AuthServer::with_addrs(vec![addr], zones)
    }

    /// Creates a server answering on several addresses (e.g. one node
    /// standing in for a zone's whole NS set).
    ///
    /// # Panics
    ///
    /// Panics if `addrs` is empty.
    pub fn with_addrs(addrs: Vec<Ipv4Addr>, zones: Vec<Zone>) -> Self {
        AuthServer::with_addrs_and_stack(addrs, zones, StackConfig::default())
    }

    /// Multi-address constructor with an explicit stack configuration
    /// (IP-ID policy, PMTU acceptance — the attack-surface knobs).
    ///
    /// # Panics
    ///
    /// Panics if `addrs` is empty.
    pub fn with_addrs_and_stack(
        addrs: Vec<Ipv4Addr>,
        zones: Vec<Zone>,
        stack: StackConfig,
    ) -> Self {
        AuthServer {
            stack: IpStack::with_config(addrs, stack),
            zones,
            config: AuthServerConfig::default(),
            stats: AuthServerStats::default(),
        }
    }

    /// Overrides the server configuration. Returns `self` for chaining.
    pub fn with_config(mut self, config: AuthServerConfig) -> Self {
        self.config = config;
        self
    }

    /// The server's address.
    pub fn addr(&self) -> Ipv4Addr {
        self.stack.addr()
    }

    /// Activity counters.
    pub fn stats(&self) -> AuthServerStats {
        self.stats
    }

    /// The host IP stack (PMTU estimates, reassembly stats).
    pub fn stack(&self) -> &IpStack {
        &self.stack
    }

    /// The served zones.
    pub fn zones(&self) -> &[Zone] {
        &self.zones
    }

    fn deepest_zone_for(&mut self, q: &Question) -> Option<&mut Zone> {
        self.zones
            .iter_mut()
            .filter(|z| z.contains(&q.name))
            .max_by_key(|z| z.origin().label_count())
    }

    fn answer_query(&mut self, query: &Message) -> Option<Message> {
        let q = query.question.first()?.clone();
        self.stats.queries += 1;
        let client_edns = query.edns_udp_size();
        let mut response = Message::response_to(query);
        response.flags.authoritative = true;

        match self.deepest_zone_for(&q) {
            None => {
                self.stats.refused += 1;
                response.flags.rcode = RcodeField(Rcode::Refused);
            }
            Some(zone) => {
                let ans = zone.answer(&q);
                if ans.nxdomain {
                    self.stats.nxdomain += 1;
                    response.flags.rcode = RcodeField(Rcode::NxDomain);
                }
                response.answers = ans.answers;
                response.authorities = ans.authorities;
                response.additionals = ans.additionals;
            }
        }
        if self.config.honor_edns && client_edns.is_some() {
            response = response.with_edns(self.config.edns_size);
        }
        let limit = if self.config.honor_edns {
            client_edns.map(usize::from).unwrap_or(CLASSIC_UDP_LIMIT)
        } else {
            CLASSIC_UDP_LIMIT
        };
        self.fit_to(&mut response, limit);
        Some(response)
    }

    /// Shrinks `response` to `limit` bytes: drops glue, then authority, then
    /// truncates answers and sets TC.
    fn fit_to(&mut self, response: &mut Message, limit: usize) {
        if response.encoded_len() <= limit {
            return;
        }
        // Keep a trailing OPT record if present.
        let opt = response
            .additionals
            .iter()
            .find(|r| matches!(r.rdata, crate::wire::RData::Opt { .. }))
            .cloned();
        response.additionals.clear();
        if let Some(opt) = opt {
            response.additionals.push(opt);
        }
        if response.encoded_len() <= limit {
            return;
        }
        response.authorities.clear();
        if response.encoded_len() <= limit {
            return;
        }
        while !response.answers.is_empty() && response.encoded_len() > limit {
            response.answers.pop();
        }
        response.flags.truncated = true;
        self.stats.truncated += 1;
    }
}

impl Node for AuthServer {
    fn reset(&mut self) {
        self.stack.reset();
        self.stats = AuthServerStats::default();
        for zone in &mut self.zones {
            zone.reset();
        }
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Ipv4Packet) {
        let Some(StackEvent::Udp { src, dst, datagram }) = self.stack.handle(ctx, pkt) else {
            return;
        };
        if datagram.dst_port != DNS_PORT {
            return;
        }
        let Ok(query) = Message::decode(&datagram.payload) else {
            return;
        };
        if query.flags.response {
            return;
        }
        if let Some(response) = self.answer_query(&query) {
            self.stats.responses += 1;
            self.stack.send_udp(
                ctx,
                dst,
                DNS_PORT,
                src,
                datagram.src_port,
                &response.encode(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::Name;
    use crate::zone::pool_ntp_zone;
    use bytes::Bytes;
    use netsim::prelude::*;
    use netsim::time::SimDuration;

    /// Sends one DNS query at start and stores the decoded response.
    struct Probe {
        stack: IpStack,
        server: Ipv4Addr,
        query: Message,
        response: Option<Message>,
    }

    impl Probe {
        fn new(addr: Ipv4Addr, server: Ipv4Addr, query: Message) -> Self {
            Probe {
                stack: IpStack::new(addr),
                server,
                query,
                response: None,
            }
        }
    }

    impl Node for Probe {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            let me = self.stack.addr();
            self.stack
                .send_udp(ctx, me, 5301, self.server, DNS_PORT, &self.query.encode());
        }
        fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Ipv4Packet) {
            if let Some(StackEvent::Udp { datagram, .. }) = self.stack.handle(ctx, pkt) {
                self.response = Message::decode(&datagram.payload).ok();
            }
        }
    }

    fn pool_name() -> Name {
        "pool.ntp.org".parse().unwrap()
    }

    fn run_probe(query: Message, zones: Vec<Zone>) -> (Option<Message>, AuthServerStats) {
        let server_addr = Ipv4Addr::new(203, 0, 113, 53);
        let probe_addr = Ipv4Addr::new(198, 51, 100, 10);
        let mut world = World::new(42);
        let server = world.add_node(
            "auth",
            Box::new(AuthServer::new(server_addr, zones)),
            &[server_addr],
        );
        let probe = world.add_node(
            "probe",
            Box::new(Probe::new(probe_addr, server_addr, query)),
            &[probe_addr],
        );
        world.run_for(SimDuration::from_secs(2));
        let stats = world.node::<AuthServer>(server).stats();
        (world.node::<Probe>(probe).response.clone(), stats)
    }

    #[test]
    fn answers_pool_query_with_four_addrs() {
        let query = Message::query(0x1111, Question::a(pool_name())).with_edns(4096);
        let (resp, stats) = run_probe(query, vec![pool_ntp_zone(96, 4)]);
        let resp = resp.expect("got response");
        assert_eq!(resp.id, 0x1111);
        assert!(resp.flags.response && resp.flags.authoritative);
        assert_eq!(resp.answer_addrs().len(), 4);
        assert_eq!(resp.authorities.len(), 4);
        assert_eq!(stats.queries, 1);
        assert_eq!(stats.responses, 1);
    }

    #[test]
    fn nxdomain_for_missing_name() {
        let query = Message::query(1, Question::a("nope.pool.ntp.org".parse().unwrap()));
        let (resp, stats) = run_probe(query, vec![pool_ntp_zone(96, 4)]);
        assert_eq!(resp.unwrap().rcode(), Rcode::NxDomain);
        assert_eq!(stats.nxdomain, 1);
    }

    #[test]
    fn refused_for_foreign_zone() {
        let query = Message::query(1, Question::a("other.example".parse().unwrap()));
        let (resp, stats) = run_probe(query, vec![pool_ntp_zone(96, 4)]);
        assert_eq!(resp.unwrap().rcode(), Rcode::Refused);
        assert_eq!(stats.refused, 1);
    }

    #[test]
    fn non_edns_clients_get_classic_limit() {
        // 14 nameservers inflate the response well past 512 bytes.
        let query = Message::query(2, Question::a(pool_name()));
        let (resp, stats) = run_probe(query, vec![pool_ntp_zone(96, 14)]);
        let resp = resp.unwrap();
        assert!(resp.encoded_len() <= CLASSIC_UDP_LIMIT);
        // Glue was sacrificed first; the four answers survive.
        assert_eq!(resp.answer_addrs().len(), 4);
        assert_eq!(stats.truncated, 0, "dropping glue is not truncation");
    }

    #[test]
    fn edns_clients_get_large_responses() {
        let query = Message::query(3, Question::a(pool_name())).with_edns(4096);
        let (resp, _) = run_probe(query, vec![pool_ntp_zone(96, 14)]);
        let resp = resp.unwrap();
        assert_eq!(resp.authorities.len(), 14);
        assert_eq!(
            resp.additionals.len(),
            15,
            "14 glue records + the OPT record"
        );
        assert!(resp.encoded_len() > CLASSIC_UDP_LIMIT);
    }

    #[test]
    fn forced_small_pmtu_fragments_the_response() {
        // The attack precondition (paper §II): after PMTU poisoning the
        // nameserver fragments its responses down to 548 bytes.
        let server_addr = Ipv4Addr::new(203, 0, 113, 53);
        let probe_addr = Ipv4Addr::new(198, 51, 100, 10);
        let mut world = World::new(7);
        let query = Message::query(4, Question::a(pool_name())).with_edns(4096);
        let server = world.add_node(
            "auth",
            Box::new(AuthServer::new(server_addr, vec![pool_ntp_zone(96, 14)])),
            &[server_addr],
        );
        // Spoofed ICMP frag-needed lands before the query flow starts.
        let icmp = netsim::icmp::IcmpMessage::FragmentationNeeded {
            mtu: 548,
            original: netsim::icmp::QuotedPacket {
                src: server_addr,
                dst: probe_addr,
                proto: netsim::ip::IpProto::Udp,
                head: [0; 8],
            },
        }
        .into_packet(Ipv4Addr::new(6, 6, 6, 6), server_addr);
        world.inject(server, icmp);
        world.run_for(SimDuration::from_secs(1));
        let probe = world.add_node(
            "probe",
            Box::new(Probe::new(probe_addr, server_addr, query)),
            &[probe_addr],
        );
        world.run_for(SimDuration::from_secs(2));
        assert_eq!(
            world.node::<AuthServer>(server).stack().pmtu(probe_addr),
            548
        );
        let fragments = world
            .trace()
            .count(|e| e.src == server_addr && e.more_fragments);
        assert!(fragments >= 1, "response must be fragmented");
        // And the probe still reassembles it fine.
        let resp = world.node::<Probe>(probe).response.clone().unwrap();
        assert_eq!(resp.answer_addrs().len(), 4);
    }

    #[test]
    fn ignores_responses_and_non_dns_ports() {
        let server_addr = Ipv4Addr::new(203, 0, 113, 53);
        let mut world = World::new(8);
        let server = world.add_node(
            "auth",
            Box::new(AuthServer::new(server_addr, vec![pool_ntp_zone(8, 2)])),
            &[server_addr],
        );
        // A response-flagged message must not be answered.
        let mut msg = Message::query(5, Question::a(pool_name()));
        msg.flags.response = true;
        let probe_addr = Ipv4Addr::new(198, 51, 100, 11);
        let probe = world.add_node(
            "probe",
            Box::new(Probe::new(probe_addr, server_addr, msg)),
            &[probe_addr],
        );
        world.run_for(SimDuration::from_secs(1));
        assert_eq!(world.node::<AuthServer>(server).stats().queries, 0);
        assert!(world.node::<Probe>(probe).response.is_none());
        // Garbage to a non-DNS port is ignored too.
        let garbage =
            UdpDatagram::new(1, 9999, Bytes::from_static(b"junk")).encode(probe_addr, server_addr);
        let pkt = Ipv4Packet::new(probe_addr, server_addr, IpProto::Udp, garbage);
        world.inject(probe, pkt);
        world.run_for(SimDuration::from_secs(1));
        assert_eq!(world.node::<AuthServer>(server).stats().queries, 0);
    }
}
