//! The plain (traditional) NTP client — the paper's baseline.
//!
//! Resolves `pool.ntp.org` **once**, keeps the first 4 addresses as its
//! servers, and every poll interval runs the classic ntpd pipeline
//! (intersection → cluster → combine) over their samples. Against this
//! client the DNS attacker gets exactly **one** poisoning opportunity — the
//! contrast to Chronos' 24 that the paper's §IV builds on.

use crate::assoc::NtpExchanger;
use crate::clock::LocalClock;
use crate::combine::{ntpd_pipeline, PipelineOutcome};
use crate::select::PeerSample;
use dnslab::client::StubResolver;
use dnslab::name::Name;
use dnslab::wire::Question;
use netsim::ip::Ipv4Packet;
use netsim::node::{Context, Node};
use netsim::stack::{IpStack, StackEvent};
use netsim::time::{SimDuration, SimTime};
use std::net::Ipv4Addr;

const TAG_DNS_RETRY: u64 = 1;
const TAG_POLL: u64 = 2;
const TAG_COLLECT: u64 = 3;

/// Configuration of a [`PlainNtpClient`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlainNtpConfig {
    /// Name resolved to discover servers.
    pub pool_name: Name,
    /// How many of the returned addresses become servers.
    pub num_servers: usize,
    /// Poll cadence.
    pub poll_interval: SimDuration,
    /// How long to wait for server replies each poll.
    pub response_window: SimDuration,
    /// Retry delay when DNS fails.
    pub dns_retry: SimDuration,
}

impl Default for PlainNtpConfig {
    fn default() -> Self {
        PlainNtpConfig {
            pool_name: "pool.ntp.org".parse().expect("static name"),
            num_servers: 4,
            poll_interval: SimDuration::from_secs(64),
            response_window: SimDuration::from_secs(1),
            dns_retry: SimDuration::from_secs(5),
        }
    }
}

/// Counters describing client activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlainNtpStats {
    /// DNS resolutions attempted.
    pub dns_queries: u64,
    /// Poll rounds started.
    pub polls: u64,
    /// Clock corrections applied.
    pub updates: u64,
    /// Rounds where selection found no majority clique.
    pub no_majority: u64,
}

/// A traditional 4-server NTP client node.
#[derive(Debug)]
pub struct PlainNtpClient {
    stack: IpStack,
    stub: StubResolver,
    exchanger: NtpExchanger,
    clock: LocalClock,
    /// Snapshot restored by [`Node::reset`] (world-reuse support).
    initial_clock: LocalClock,
    config: PlainNtpConfig,
    servers: Vec<Ipv4Addr>,
    round_samples: Vec<PeerSample>,
    offset_trace: Vec<(SimTime, i64)>,
    stats: PlainNtpStats,
}

impl PlainNtpClient {
    /// Creates a client at `addr` using `resolver` for discovery.
    pub fn new(addr: Ipv4Addr, resolver: Ipv4Addr, clock: LocalClock) -> Self {
        PlainNtpClient::with_config(addr, resolver, clock, PlainNtpConfig::default())
    }

    /// Creates a client with explicit configuration.
    pub fn with_config(
        addr: Ipv4Addr,
        resolver: Ipv4Addr,
        clock: LocalClock,
        config: PlainNtpConfig,
    ) -> Self {
        PlainNtpClient {
            stack: IpStack::new(addr),
            stub: StubResolver::new(resolver),
            exchanger: NtpExchanger::new(),
            initial_clock: clock.clone(),
            clock,
            config,
            servers: Vec::new(),
            round_samples: Vec::new(),
            offset_trace: Vec::new(),
            stats: PlainNtpStats::default(),
        }
    }

    /// The client's address.
    pub fn addr(&self) -> Ipv4Addr {
        self.stack.addr()
    }

    /// The client's clock.
    pub fn clock(&self) -> &LocalClock {
        &self.clock
    }

    /// The servers picked from DNS (empty until resolution succeeds).
    pub fn servers(&self) -> &[Ipv4Addr] {
        &self.servers
    }

    /// Offset-from-true-time samples, one per completed poll round.
    pub fn offset_trace(&self) -> &[(SimTime, i64)] {
        &self.offset_trace
    }

    /// Activity counters.
    pub fn stats(&self) -> PlainNtpStats {
        self.stats
    }

    /// Current clock error against true time, in nanoseconds.
    pub fn offset_from_true(&self, now: SimTime) -> i64 {
        self.clock.offset_from_true(now)
    }

    fn resolve(&mut self, ctx: &mut Context<'_>) {
        self.stats.dns_queries += 1;
        let q = Question::a(self.config.pool_name.clone());
        self.stub.query(ctx, &mut self.stack, q, 0);
        ctx.set_timer(self.config.dns_retry, TAG_DNS_RETRY);
    }

    fn start_poll(&mut self, ctx: &mut Context<'_>) {
        self.stats.polls += 1;
        self.round_samples.clear();
        self.exchanger.clear();
        for server in self.servers.clone() {
            self.exchanger
                .query(ctx, &mut self.stack, &self.clock, server);
        }
        ctx.set_timer(self.config.response_window, TAG_COLLECT);
    }

    fn finish_poll(&mut self, ctx: &mut Context<'_>) {
        match ntpd_pipeline(&self.round_samples) {
            PipelineOutcome::Correction(c) => {
                self.clock.apply_correction(ctx.now(), c.offset_ns);
                self.stats.updates += 1;
            }
            PipelineOutcome::NoMajority => self.stats.no_majority += 1,
            PipelineOutcome::NoSamples => {}
        }
        self.offset_trace
            .push((ctx.now(), self.clock.offset_from_true(ctx.now())));
        let remaining = self
            .config
            .poll_interval
            .saturating_sub(self.config.response_window);
        ctx.set_timer(remaining, TAG_POLL);
    }
}

impl Node for PlainNtpClient {
    fn reset(&mut self) {
        self.stack.reset();
        self.stub.reset();
        self.exchanger.clear();
        self.clock = self.initial_clock.clone();
        self.servers.clear();
        self.round_samples.clear();
        self.offset_trace.clear();
        self.stats = PlainNtpStats::default();
    }

    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.resolve(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Ipv4Packet) {
        let Some(StackEvent::Udp { src, datagram, .. }) = self.stack.handle(ctx, pkt) else {
            return;
        };
        // DNS bootstrap response?
        if self.servers.is_empty() {
            if let Some(resp) = self.stub.handle(src, &datagram) {
                let addrs = resp.message.answer_addrs();
                if !addrs.is_empty() {
                    self.servers = addrs.into_iter().take(self.config.num_servers).collect();
                    self.start_poll(ctx);
                }
                return;
            }
        }
        // NTP reply?
        if let Some(sample) = self
            .exchanger
            .handle(ctx.now(), &self.clock, src, &datagram)
        {
            self.round_samples.push(sample);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
        match tag {
            TAG_DNS_RETRY if self.servers.is_empty() => {
                self.resolve(ctx);
            }
            TAG_POLL if !self.servers.is_empty() => {
                self.start_poll(ctx);
            }
            TAG_COLLECT => self.finish_poll(ctx),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::NtpServer;
    use dnslab::resolver::{RecursiveResolver, Upstream};
    use dnslab::server::AuthServer;
    use dnslab::zone::pool_ntp_zone;
    use netsim::prelude::*;

    /// Builds: auth NS + resolver + `n_servers` NTP servers (addresses
    /// 10.32.0.1..) + plain client. Server `shift_all` shifts every NTP
    /// server clock (attack stand-in).
    fn build_world(
        seed: u64,
        universe: usize,
        shift_all_ns: i64,
        client_clock: LocalClock,
    ) -> (World, NodeId) {
        let ns_addr = Ipv4Addr::new(203, 0, 113, 1);
        let resolver_addr = Ipv4Addr::new(198, 51, 100, 53);
        let client_addr = Ipv4Addr::new(198, 51, 100, 10);
        let mut world = World::new(seed);
        world.add_node(
            "auth",
            Box::new(AuthServer::new(ns_addr, vec![pool_ntp_zone(universe, 1)])),
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
        for i in 0..universe as u32 {
            let addr = Ipv4Addr::from(u32::from(Ipv4Addr::new(10, 32, 0, 1)) + i);
            world.add_node(
                format!("ntp{i}"),
                Box::new(NtpServer::new(addr, LocalClock::new(shift_all_ns, 0.0))),
                &[addr],
            );
        }
        let client = world.add_node(
            "client",
            Box::new(PlainNtpClient::new(
                client_addr,
                resolver_addr,
                client_clock,
            )),
            &[client_addr],
        );
        (world, client)
    }

    #[test]
    fn bootstraps_from_dns_and_polls_four_servers() {
        let (mut world, client) = build_world(1, 16, 0, LocalClock::perfect());
        world.run_for(SimDuration::from_secs(10));
        let c = world.node::<PlainNtpClient>(client);
        assert_eq!(c.servers().len(), 4);
        assert_eq!(c.stats().dns_queries, 1, "plain NTP queries DNS once");
        assert!(c.stats().polls >= 1);
        assert!(c.stats().updates >= 1);
    }

    #[test]
    fn corrects_initial_clock_error() {
        let wrong = LocalClock::new(300_000_000, 0.0); // +300 ms off
        let (mut world, client) = build_world(2, 16, 0, wrong);
        world.run_for(SimDuration::from_secs(200));
        let c = world.node::<PlainNtpClient>(client);
        let final_err = c.offset_from_true(world.now()).abs();
        assert!(
            final_err < 5_000_000,
            "client converged to {final_err}ns from true time"
        );
        assert!(!c.offset_trace().is_empty());
    }

    #[test]
    fn tracks_drifting_clock() {
        let drifting = LocalClock::new(0, 50.0); // 50 ppm fast
        let (mut world, client) = build_world(3, 16, 0, drifting);
        world.run_for(SimDuration::from_secs(600));
        let c = world.node::<PlainNtpClient>(client);
        // 50ppm over 64s accrues 3.2ms between polls; corrections keep the
        // error bounded well below the uncorrected 30ms.
        let final_err = c.offset_from_true(world.now()).abs();
        assert!(final_err < 10_000_000, "bounded to {final_err}ns");
        assert!(c.stats().updates >= 8);
    }

    #[test]
    fn follows_unanimous_liars() {
        // All servers (hence all 4 chosen) lie by +500 ms: the pipeline has
        // no honest minority to save it.
        let (mut world, client) = build_world(4, 16, 500_000_000, LocalClock::perfect());
        world.run_for(SimDuration::from_secs(100));
        let c = world.node::<PlainNtpClient>(client);
        let err = c.offset_from_true(world.now());
        assert!(err > 490_000_000, "client dragged to the lie: {err}ns");
    }

    #[test]
    fn dns_failure_retries() {
        // No resolver in this world: DNS queries vanish.
        let client_addr = Ipv4Addr::new(198, 51, 100, 10);
        let mut world = World::new(5);
        let client = world.add_node(
            "client",
            Box::new(PlainNtpClient::new(
                client_addr,
                Ipv4Addr::new(198, 51, 100, 53),
                LocalClock::perfect(),
            )),
            &[client_addr],
        );
        world.run_for(SimDuration::from_secs(30));
        let c = world.node::<PlainNtpClient>(client);
        assert!(c.stats().dns_queries >= 4, "kept retrying DNS");
        assert!(c.servers().is_empty());
    }
}
