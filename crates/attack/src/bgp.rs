//! BGP prefix-hijack MitM (paper §II, refs. 7 and 8).
//!
//! A BGP hijack puts the attacker on-path for the victim nameserver's
//! prefix: every resolver query routed there lands on the attacker, who
//! answers as the nameserver — no guessing, no fragments. The simulator
//! models the routing part with [`netsim::world::World::add_hijack`]; this
//! node is the attacker's impersonation logic.
//!
//! The paper's §V residual threat — "the attacker manages to hijack the
//! victim's DNS for a period of 24 hours" — is this attacker with a 24-hour
//! hijack window, which defeats even the mitigated Chronos pool generation.

use crate::payload::poison_response;
use dnslab::name::Name;
use dnslab::server::DNS_PORT;
use dnslab::wire::Message;
use netsim::ip::Ipv4Packet;
use netsim::node::{Context, Node};
use netsim::stack::IpStack;
use netsim::udp::UdpDatagram;
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// Configuration of a [`BgpHijackAttacker`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BgpHijackConfig {
    /// The name whose queries get poisoned answers.
    pub qname: Name,
    /// Poison records per response.
    pub records: usize,
    /// Poison TTL.
    pub ttl: u32,
    /// Rotate through the farm across responses, mimicking the benign
    /// pool's behaviour. This is how a patient 24-hour hijacker defeats the
    /// §V mitigations: 4 ordinary-looking records per response, normal TTL,
    /// yet every one of them malicious.
    pub rotate: bool,
    /// Size of the farm rotated over (only used with `rotate`).
    pub farm_size: usize,
}

/// Counters describing attacker activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BgpHijackStats {
    /// Hijacked packets received.
    pub packets_seen: u64,
    /// DNS queries for the target name answered with poison.
    pub poisoned_responses: u64,
    /// Queries for other names (black-holed).
    pub other_queries: u64,
}

/// The MitM node receiving hijack-routed traffic and impersonating the
/// nameserver.
#[derive(Debug)]
pub struct BgpHijackAttacker {
    stack: IpStack,
    config: BgpHijackConfig,
    cursor: usize,
    stats: BgpHijackStats,
}

impl BgpHijackAttacker {
    /// Creates the attacker at `addr` (its own, non-hijacked address).
    pub fn new(addr: Ipv4Addr, config: BgpHijackConfig) -> Self {
        BgpHijackAttacker {
            stack: IpStack::new(addr),
            config,
            cursor: 0,
            stats: BgpHijackStats::default(),
        }
    }

    /// Activity counters.
    pub fn stats(&self) -> BgpHijackStats {
        self.stats
    }

    fn build_response(&mut self, query: &Message) -> Message {
        if !self.config.rotate {
            return poison_response(query, self.config.records, self.config.ttl);
        }
        // Low-profile mode: rotate `records` farm addresses per response,
        // exactly like the benign pool would.
        let farm = crate::payload::farm_addrs(self.config.farm_size.max(self.config.records));
        let qname = query
            .question
            .first()
            .map(|q| q.name.clone())
            .unwrap_or_else(Name::root);
        let mut response = Message::response_to(query);
        response.flags.authoritative = true;
        for _ in 0..self.config.records {
            let addr = farm[self.cursor % farm.len()];
            self.cursor += 1;
            response.answers.push(dnslab::wire::Record::a(
                qname.clone(),
                addr,
                self.config.ttl,
            ));
        }
        if query.edns_udp_size().is_some() {
            response = response.with_edns(4096);
        }
        response
    }
}

impl Node for BgpHijackAttacker {
    fn reset(&mut self) {
        self.stack.reset();
        self.cursor = 0;
        self.stats = BgpHijackStats::default();
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Ipv4Packet) {
        self.stats.packets_seen += 1;
        // Hijacked traffic is addressed to the *nameserver*, not to us, so
        // the datagram is decoded manually rather than via our stack.
        let Ok(datagram) = UdpDatagram::decode(pkt.src, pkt.dst, &pkt.payload, true) else {
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
        let matches = query
            .question
            .first()
            .map(|q| q.name == self.config.qname)
            .unwrap_or(false);
        if !matches {
            self.stats.other_queries += 1;
            return;
        }
        let mut response = self.build_response(&query);
        response.flags.recursion_available = false;
        self.stats.poisoned_responses += 1;
        // Answer *as* the nameserver: spoof its address.
        self.stack.send_udp_spoofed(
            ctx,
            pkt.dst,
            DNS_PORT,
            pkt.src,
            datagram.src_port,
            &response.encode(),
            None,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::is_farm_addr;
    use dnslab::resolver::{RecursiveResolver, Upstream};
    use dnslab::server::AuthServer;
    use dnslab::wire::Question;
    use dnslab::zone::pool_ntp_zone;
    use netsim::ip::Ipv4Net;
    use netsim::prelude::*;
    use netsim::time::{SimDuration, SimTime};

    /// Client that asks the resolver for pool.ntp.org once.
    struct OneShot {
        stack: IpStack,
        stub: dnslab::client::StubResolver,
        answers: Vec<Ipv4Addr>,
        ttl: u32,
    }

    impl Node for OneShot {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            self.stub.query(
                ctx,
                &mut self.stack,
                Question::a("pool.ntp.org".parse().unwrap()),
                0,
            );
        }
        fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Ipv4Packet) {
            if let Some(StackEvent::Udp { src, datagram, .. }) = self.stack.handle(ctx, pkt) {
                if let Some(resp) = self.stub.handle(src, &datagram) {
                    self.answers = resp.message.answer_addrs();
                    self.ttl = resp.message.answers.first().map(|r| r.ttl).unwrap_or(0);
                }
            }
        }
    }

    #[test]
    fn hijacked_resolution_yields_89_farm_records() {
        let ns_addr = Ipv4Addr::new(203, 0, 113, 1);
        let resolver_addr = Ipv4Addr::new(198, 51, 100, 53);
        let client_addr = Ipv4Addr::new(198, 51, 100, 10);
        let attacker_addr = Ipv4Addr::new(198, 19, 0, 66);
        let mut world = World::new(11);
        world.add_node(
            "auth",
            Box::new(AuthServer::new(ns_addr, vec![pool_ntp_zone(96, 2)])),
            &[ns_addr],
        );
        let mut res = RecursiveResolver::new(
            resolver_addr,
            vec![Upstream {
                zone: "pool.ntp.org".parse().unwrap(),
                ns_names: vec!["ns1.pool.ntp.org".parse().unwrap()],
                bootstrap: vec![ns_addr],
            }],
        );
        res.allow_client(client_addr);
        let resolver = world.add_node("resolver", Box::new(res), &[resolver_addr]);
        let attacker = world.add_node(
            "bgp-attacker",
            Box::new(BgpHijackAttacker::new(
                attacker_addr,
                BgpHijackConfig {
                    qname: "pool.ntp.org".parse().unwrap(),
                    records: 89,
                    ttl: 86_401,
                    rotate: false,
                    farm_size: 89,
                },
            )),
            &[attacker_addr],
        );
        let client = world.add_node(
            "client",
            Box::new(OneShot {
                stack: IpStack::new(client_addr),
                stub: dnslab::client::StubResolver::new(resolver_addr),
                answers: Vec::new(),
                ttl: 0,
            }),
            &[client_addr],
        );
        // Hijack the nameserver's /24 for one hour.
        world.add_hijack(
            Ipv4Net::new(ns_addr, 24),
            attacker,
            SimTime::ZERO,
            SimTime::from_secs(3600),
        );
        world.run_for(SimDuration::from_secs(5));
        let c = world.node::<OneShot>(client);
        assert_eq!(c.answers.len(), 89);
        assert!(c.answers.iter().all(|&a| is_farm_addr(a)));
        assert_eq!(c.ttl, 86_401);
        assert_eq!(
            world
                .node::<BgpHijackAttacker>(attacker)
                .stats()
                .poisoned_responses,
            1
        );
        // And the resolver cached the poison.
        let cached = world
            .node_mut::<RecursiveResolver>(resolver)
            .cache_mut()
            .get(
                SimTime::from_secs(5),
                &dnslab::cache::CacheKey::a("pool.ntp.org".parse().unwrap()),
            )
            .expect("poison cached");
        assert_eq!(cached.len(), 89);
    }

    #[test]
    fn after_hijack_window_truth_returns() {
        let ns_addr = Ipv4Addr::new(203, 0, 113, 1);
        let resolver_addr = Ipv4Addr::new(198, 51, 100, 53);
        let client_addr = Ipv4Addr::new(198, 51, 100, 10);
        let attacker_addr = Ipv4Addr::new(198, 19, 0, 66);
        let mut world = World::new(12);
        world.add_node(
            "auth",
            Box::new(AuthServer::new(ns_addr, vec![pool_ntp_zone(96, 2)])),
            &[ns_addr],
        );
        let mut res = RecursiveResolver::new(
            resolver_addr,
            vec![Upstream {
                zone: "pool.ntp.org".parse().unwrap(),
                ns_names: vec!["ns1.pool.ntp.org".parse().unwrap()],
                bootstrap: vec![ns_addr],
            }],
        );
        res.allow_client(client_addr);
        world.add_node("resolver", Box::new(res), &[resolver_addr]);
        let attacker = world.add_node(
            "bgp-attacker",
            Box::new(BgpHijackAttacker::new(
                attacker_addr,
                BgpHijackConfig {
                    qname: "pool.ntp.org".parse().unwrap(),
                    records: 89,
                    ttl: 86_401,
                    rotate: false,
                    farm_size: 89,
                },
            )),
            &[attacker_addr],
        );
        // Hijack already expired before the client asks.
        world.add_hijack(
            Ipv4Net::new(ns_addr, 24),
            attacker,
            SimTime::ZERO,
            SimTime::from_secs(1),
        );
        world.run_until(SimTime::from_secs(10));
        let client = world.add_node(
            "client",
            Box::new(OneShot {
                stack: IpStack::new(client_addr),
                stub: dnslab::client::StubResolver::new(resolver_addr),
                answers: Vec::new(),
                ttl: 0,
            }),
            &[client_addr],
        );
        world
            .node_mut::<RecursiveResolver>(NodeId::new(1))
            .allow_client(client_addr);
        world.run_for(SimDuration::from_secs(5));
        let c = world.node::<OneShot>(client);
        assert_eq!(c.answers.len(), 4, "benign rotation answer");
        assert!(c.answers.iter().all(|&a| !is_farm_addr(a)));
    }
}
