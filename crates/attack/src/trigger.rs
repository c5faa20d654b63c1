//! Third-party query triggering (paper §II, claim C9).
//!
//! Off-path poisoning needs the victim resolver to *have a query in flight*.
//! The paper found 14 % of web-client resolvers can be made to query on
//! attacker demand through shared third-party systems. Two such triggers are
//! modelled:
//!
//! * [`SmtpServer`] — a mail server sharing the victim's resolver: receiving
//!   a message for `user@domain` makes it look up `domain MX` and then the
//!   exchange's A record. Attackers trigger resolution by sending mail.
//! * Open resolvers — queried directly (a flag on
//!   [`dnslab::resolver::ResolverConfig`]).
//!
//! [`BackgroundQuerier`] generates cross-traffic against a nameserver,
//! degrading the IP-ID prediction of the fragmentation attack (E9's sweep
//! variable).

use dnslab::client::StubResolver;
use dnslab::name::Name;
use dnslab::server::DNS_PORT;
use dnslab::wire::{Message, Question, RData};
use netsim::ip::Ipv4Packet;
use netsim::node::{Context, Node};
use netsim::stack::{IpStack, StackEvent};
use netsim::time::SimDuration;
use std::net::Ipv4Addr;

/// The (abstracted) SMTP port.
pub const SMTP_PORT: u16 = 25;

const TAG_MX: u64 = 1;
const TAG_A: u64 = 2;

/// Counters describing SMTP-server activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SmtpStats {
    /// Messages accepted.
    pub mails: u64,
    /// MX lookups triggered.
    pub mx_lookups: u64,
    /// A lookups triggered (after an MX answer).
    pub a_lookups: u64,
    /// Messages with unparsable recipient domains.
    pub rejected: u64,
}

/// A mail server that shares the victim's resolver.
///
/// Protocol abstraction: a "mail" is a UDP datagram to port 25 whose payload
/// is the recipient domain in UTF-8. Delivery itself is not modelled — only
/// the DNS lookups it provokes, which are what the attacker wants.
#[derive(Debug)]
pub struct SmtpServer {
    stack: IpStack,
    stub: StubResolver,
    stats: SmtpStats,
}

impl SmtpServer {
    /// Creates a mail server at `addr` using `resolver`.
    pub fn new(addr: Ipv4Addr, resolver: Ipv4Addr) -> Self {
        SmtpServer {
            stack: IpStack::new(addr),
            stub: StubResolver::new(resolver),
            stats: SmtpStats::default(),
        }
    }

    /// The server's address.
    pub fn addr(&self) -> Ipv4Addr {
        self.stack.addr()
    }

    /// Activity counters.
    pub fn stats(&self) -> SmtpStats {
        self.stats
    }
}

impl Node for SmtpServer {
    fn reset(&mut self) {
        self.stack.reset();
        self.stub.reset();
        self.stats = SmtpStats::default();
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Ipv4Packet) {
        let Some(StackEvent::Udp { src, datagram, .. }) = self.stack.handle(ctx, pkt) else {
            return;
        };
        if datagram.dst_port == SMTP_PORT {
            self.stats.mails += 1;
            let Ok(domain) = core::str::from_utf8(&datagram.payload) else {
                self.stats.rejected += 1;
                return;
            };
            let Ok(name) = domain.trim().parse::<Name>() else {
                self.stats.rejected += 1;
                return;
            };
            self.stats.mx_lookups += 1;
            self.stub
                .query(ctx, &mut self.stack, Question::mx(name), TAG_MX);
            return;
        }
        // DNS responses for our lookups.
        if let Some(resp) = self.stub.handle(src, &datagram) {
            if resp.tag == TAG_MX {
                // Chase the exchange host's address, as real MTAs do.
                let exchange = resp
                    .message()
                    .answers
                    .into_iter()
                    .find_map(|r| match r.rdata {
                        RData::Mx { exchange, .. } => Some(exchange),
                        _ => None,
                    });
                if let Some(exchange) = exchange {
                    self.stats.a_lookups += 1;
                    self.stub
                        .query(ctx, &mut self.stack, Question::a(exchange), TAG_A);
                }
            }
        }
    }
}

/// Sends a "mail" for `domain` to an [`SmtpServer`] — the attacker's
/// trigger primitive.
pub fn send_mail(ctx: &mut Context<'_>, stack: &mut IpStack, smtp: Ipv4Addr, domain: &Name) {
    let me = stack.addr();
    stack.send_udp(
        ctx,
        me,
        2525,
        smtp,
        SMTP_PORT,
        domain.to_string().as_bytes(),
    );
}

const TAG_NOISE: u64 = 7;

/// Background cross-traffic against a nameserver: each query consumes one
/// IP-ID from a sequentially-allocating server, spoiling the fragmentation
/// attacker's prediction with some probability.
#[derive(Debug)]
pub struct BackgroundQuerier {
    stack: IpStack,
    target: Ipv4Addr,
    qname: Name,
    mean_interval: SimDuration,
    sent: u64,
}

impl BackgroundQuerier {
    /// Creates a querier at `addr` poking `target` about the given name
    /// every `mean_interval` (±50 % jitter).
    pub fn new(addr: Ipv4Addr, target: Ipv4Addr, qname: Name, mean_interval: SimDuration) -> Self {
        BackgroundQuerier {
            stack: IpStack::new(addr),
            target,
            qname,
            mean_interval,
            sent: 0,
        }
    }

    /// Queries sent so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    fn fire(&mut self, ctx: &mut Context<'_>) {
        let txid = ctx.rng().gen_u16();
        let query = Message::query(txid, Question::a(self.qname.clone())).with_edns(4096);
        let me = self.stack.addr();
        self.stack
            .send_udp(ctx, me, 5355, self.target, DNS_PORT, &query.encode());
        self.sent += 1;
        let jitter = ctx.rng().gen_range(50..=150) as f64 / 100.0;
        ctx.set_timer(self.mean_interval.mul_f64(jitter), TAG_NOISE);
    }
}

impl Node for BackgroundQuerier {
    fn reset(&mut self) {
        self.stack.reset();
        self.sent = 0;
    }

    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.fire(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Ipv4Packet) {
        let _ = self.stack.handle(ctx, pkt); // absorb replies
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
        if tag == TAG_NOISE {
            self.fire(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnslab::resolver::{RecursiveResolver, Upstream};
    use dnslab::server::AuthServer;
    use dnslab::wire::Record;
    use dnslab::zone::Zone;
    use netsim::prelude::*;

    /// A node the attacker uses to fire the trigger.
    struct MailSender {
        stack: IpStack,
        smtp: Ipv4Addr,
        domain: Name,
    }

    impl Node for MailSender {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            send_mail(ctx, &mut self.stack, self.smtp, &self.domain);
        }
        fn on_packet(&mut self, _ctx: &mut Context<'_>, _pkt: Ipv4Packet) {}
    }

    #[test]
    fn mail_triggers_mx_then_a_lookup_through_the_resolver() {
        let ns_addr = Ipv4Addr::new(203, 0, 113, 9);
        let resolver_addr = Ipv4Addr::new(198, 51, 100, 53);
        let smtp_addr = Ipv4Addr::new(198, 51, 100, 25);
        let attacker_addr = Ipv4Addr::new(198, 19, 0, 66);
        let victim_zone: Name = "victim.example".parse().unwrap();

        let zone = Zone::new(victim_zone.clone())
            .with_ns("ns1.victim.example".parse().unwrap(), ns_addr)
            .with_record(Record {
                name: victim_zone.clone(),
                ttl: 300,
                rdata: RData::Mx {
                    preference: 10,
                    exchange: "mail.victim.example".parse().unwrap(),
                },
            })
            .with_record(Record::a(
                "mail.victim.example".parse().unwrap(),
                Ipv4Addr::new(10, 9, 9, 1),
                300,
            ));

        let mut world = World::new(31);
        world.add_node(
            "auth",
            Box::new(AuthServer::new(ns_addr, vec![zone])),
            &[ns_addr],
        );
        let mut res = RecursiveResolver::new(
            resolver_addr,
            vec![Upstream {
                zone: victim_zone.clone(),
                ns_names: vec!["ns1.victim.example".parse().unwrap()],
                bootstrap: vec![ns_addr],
            }],
        );
        res.allow_client(smtp_addr);
        let resolver = world.add_node("resolver", Box::new(res), &[resolver_addr]);
        let smtp = world.add_node(
            "smtp",
            Box::new(SmtpServer::new(smtp_addr, resolver_addr)),
            &[smtp_addr],
        );
        world.add_node(
            "attacker",
            Box::new(MailSender {
                stack: IpStack::new(attacker_addr),
                smtp: smtp_addr,
                domain: victim_zone.clone(),
            }),
            &[attacker_addr],
        );
        world.run_for(SimDuration::from_secs(5));
        let s = world.node::<SmtpServer>(smtp).stats();
        assert_eq!(s.mails, 1);
        assert_eq!(s.mx_lookups, 1);
        assert_eq!(s.a_lookups, 1, "MX answer chased to an A lookup");
        let r = world.node::<RecursiveResolver>(resolver).stats();
        assert_eq!(
            r.client_queries, 2,
            "attacker made the resolver work without being a client"
        );
    }

    #[test]
    fn garbage_mail_is_rejected() {
        let smtp_addr = Ipv4Addr::new(198, 51, 100, 25);
        let sender_addr = Ipv4Addr::new(198, 19, 0, 66);
        let mut world = World::new(32);
        let smtp = world.add_node(
            "smtp",
            Box::new(SmtpServer::new(smtp_addr, Ipv4Addr::new(198, 51, 100, 53))),
            &[smtp_addr],
        );
        struct Garbage {
            stack: IpStack,
            smtp: Ipv4Addr,
        }
        impl Node for Garbage {
            fn on_start(&mut self, ctx: &mut Context<'_>) {
                let me = self.stack.addr();
                self.stack
                    .send_udp(ctx, me, 2525, self.smtp, SMTP_PORT, b"not a domain!!");
            }
            fn on_packet(&mut self, _ctx: &mut Context<'_>, _pkt: Ipv4Packet) {}
        }
        world.add_node(
            "garbage",
            Box::new(Garbage {
                stack: IpStack::new(sender_addr),
                smtp: smtp_addr,
            }),
            &[sender_addr],
        );
        world.run_for(SimDuration::from_secs(2));
        let s = world.node::<SmtpServer>(smtp).stats();
        assert_eq!(s.mails, 1);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.mx_lookups, 0);
    }

    #[test]
    fn background_querier_advances_server_ip_ids() {
        let ns_addr = Ipv4Addr::new(203, 0, 113, 9);
        let noise_addr = Ipv4Addr::new(198, 51, 100, 99);
        let mut world = World::new(33);
        let zone = dnslab::zone::pool_ntp_zone(16, 2);
        let server = world.add_node(
            "auth",
            Box::new(AuthServer::new(ns_addr, vec![zone])),
            &[ns_addr],
        );
        let noise = world.add_node(
            "noise",
            Box::new(BackgroundQuerier::new(
                noise_addr,
                ns_addr,
                "pool.ntp.org".parse().unwrap(),
                SimDuration::from_secs(5),
            )),
            &[noise_addr],
        );
        world.run_for(SimDuration::from_secs(60));
        let sent = world.node::<BackgroundQuerier>(noise).sent();
        assert!(sent >= 8, "noise kept flowing: {sent}");
        assert_eq!(world.node::<AuthServer>(server).stats().queries, sent);
    }
}
