//! The Chronos client node: DNS pool generation, randomized sampling,
//! provably secure selection, and panic mode — the complete state machine
//! from the NDSS'18 paper, attached to the simulated network.

use crate::config::ChronosConfig;
use crate::core::{self, CoreState, RoundOutcome};
use crate::pool::PoolGenerator;
use crate::select::SelectScratch;
use dnslab::client::StubResolver;
use dnslab::wire::{Question, Rcode};
use netsim::ip::Ipv4Packet;
use netsim::node::{Context, Node};
use netsim::stack::{IpStack, StackEvent};
use netsim::time::SimTime;
use ntplab::assoc::NtpExchanger;
use ntplab::clock::LocalClock;
use ntplab::select::PeerSample;
use std::net::Ipv4Addr;

pub use crate::core::{ChronosStats, Phase};

const TAG_POOL_TICK: u64 = 1;
const TAG_POLL: u64 = 2;
const TAG_COLLECT: u64 = 3;
const TAG_PANIC_COLLECT: u64 = 4;

/// A Chronos NTP client attached to the simulated network.
#[derive(Debug)]
pub struct ChronosClient {
    stack: IpStack,
    stub: StubResolver,
    exchanger: NtpExchanger,
    clock: LocalClock,
    /// Snapshot restored by [`Node::reset`] (world-reuse support).
    initial_clock: LocalClock,
    config: ChronosConfig,
    pool_gen: PoolGenerator,
    phase: Phase,
    retries: u32,
    last_update: Option<SimTime>,
    dns_outstanding: bool,
    /// The latest pool reply's answers as (TTL, A address) pairs, read in
    /// one walk over the reply; reused across rounds.
    pool_answers: Vec<(u32, Option<Ipv4Addr>)>,
    round_samples: Vec<PeerSample>,
    // Reused across rounds so the selection hot path never allocates in
    // steady state: `offsets_buf` collects the round's raw offsets,
    // `scratch` is the selection partition buffer.
    offsets_buf: Vec<i64>,
    scratch: SelectScratch,
    offset_trace: Vec<(SimTime, i64)>,
    stats: ChronosStats,
}

impl ChronosClient {
    /// Creates a client at `addr` using `resolver`, with the given clock
    /// and configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is internally inconsistent
    /// (see [`ChronosConfig::validate`]).
    pub fn with_config(
        addr: Ipv4Addr,
        resolver: Ipv4Addr,
        clock: LocalClock,
        config: ChronosConfig,
    ) -> Self {
        config.validate();
        let pool_gen = PoolGenerator::new(config.pool.clone());
        let sample_size = config.sample_size;
        ChronosClient {
            stack: IpStack::new(addr),
            stub: StubResolver::new(resolver),
            exchanger: NtpExchanger::new(),
            initial_clock: clock.clone(),
            clock,
            config,
            pool_gen,
            phase: Phase::PoolGeneration,
            retries: 0,
            last_update: None,
            dns_outstanding: false,
            pool_answers: Vec::new(),
            round_samples: Vec::new(),
            offsets_buf: Vec::with_capacity(sample_size),
            scratch: SelectScratch::with_capacity(sample_size),
            offset_trace: Vec::new(),
            stats: ChronosStats::default(),
        }
    }

    /// The client's address.
    pub fn addr(&self) -> Ipv4Addr {
        self.stack.addr()
    }

    /// Current lifecycle phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// The client's clock.
    pub fn clock(&self) -> &LocalClock {
        &self.clock
    }

    /// The pool generator (rounds history, composition).
    pub fn pool(&self) -> &PoolGenerator {
        &self.pool_gen
    }

    /// Activity counters.
    pub fn stats(&self) -> ChronosStats {
        self.stats
    }

    /// Offset-from-true-time samples, one per completed poll round.
    pub fn offset_trace(&self) -> &[(SimTime, i64)] {
        &self.offset_trace
    }

    /// Current clock error against true time, in nanoseconds.
    pub fn offset_from_true(&self, now: SimTime) -> i64 {
        self.clock.offset_from_true(now)
    }

    fn send_pool_query(&mut self, ctx: &mut Context<'_>) {
        self.stats.pool_queries += 1;
        self.dns_outstanding = true;
        let q = Question::a(self.config.pool.pool_name.clone());
        self.stub
            .query(ctx, &mut self.stack, q, self.pool_gen.rounds_done() as u64);
    }

    fn pool_tick(&mut self, ctx: &mut Context<'_>) {
        if self.phase != Phase::PoolGeneration {
            return;
        }
        // The previous round never answered: count it as a failed round.
        if self.dns_outstanding {
            self.dns_outstanding = false;
            self.stats.pool_failures += 1;
            self.pool_gen.record_failure(ctx.now());
            if self.finish_pool_generation_if_done(ctx) {
                return;
            }
        }
        self.send_pool_query(ctx);
        ctx.set_timer(self.config.pool.query_interval, TAG_POOL_TICK);
    }

    fn finish_pool_generation_if_done(&mut self, ctx: &mut Context<'_>) -> bool {
        if self.pool_gen.is_complete() {
            self.phase = Phase::Syncing;
            ctx.set_timer(netsim::time::SimDuration::ZERO, TAG_POLL);
            true
        } else {
            false
        }
    }

    fn start_sample_round(&mut self, ctx: &mut Context<'_>) {
        if self.pool_gen.is_empty() {
            // Nothing to sample; try again next interval.
            ctx.set_timer(self.config.poll_interval, TAG_POLL);
            return;
        }
        self.stats.polls += 1;
        self.round_samples.clear();
        self.exchanger.clear();
        let n = self.pool_gen.len();
        let m = self.config.sample_size.min(n);
        let picks = ctx.rng().sample_indices(n, m);
        let servers: Vec<Ipv4Addr> = picks.iter().map(|&i| self.pool_gen.servers()[i]).collect();
        for server in servers {
            self.exchanger
                .query(ctx, &mut self.stack, &self.clock, server);
        }
        ctx.set_timer(self.config.response_window, TAG_COLLECT);
    }

    /// Sends the panic-mode queries to the whole pool. The phase change and
    /// episode accounting already happened in [`core::conclude_sample_round`].
    fn start_panic(&mut self, ctx: &mut Context<'_>) {
        self.round_samples.clear();
        self.exchanger.clear();
        for server in self.pool_gen.servers().to_vec() {
            self.exchanger
                .query(ctx, &mut self.stack, &self.clock, server);
        }
        ctx.set_timer(self.config.response_window, TAG_PANIC_COLLECT);
    }

    fn collect_sample_round(&mut self, ctx: &mut Context<'_>) {
        self.offsets_buf.clear();
        self.offsets_buf
            .extend(self.round_samples.iter().map(|s| s.offset_ns));
        let outcome = core::conclude_sample_round(
            &self.config,
            &mut CoreState {
                phase: &mut self.phase,
                retries: &mut self.retries,
                last_update: &mut self.last_update,
                stats: &mut self.stats,
            },
            &mut self.scratch,
            &self.offsets_buf,
            ctx.now(),
        );
        match outcome {
            RoundOutcome::Accept { correction_ns, .. } => {
                self.clock.apply_correction(ctx.now(), correction_ns);
                self.push_trace(ctx.now());
                ctx.set_timer(self.config.poll_interval, TAG_POLL);
            }
            RoundOutcome::Resample => {
                self.push_trace(ctx.now());
                // Resample immediately with fresh randomness.
                ctx.set_timer(netsim::time::SimDuration::ZERO, TAG_POLL);
            }
            RoundOutcome::EnterPanic => {
                self.push_trace(ctx.now());
                self.start_panic(ctx);
            }
        }
    }

    fn collect_panic_round(&mut self, ctx: &mut Context<'_>) {
        self.offsets_buf.clear();
        self.offsets_buf
            .extend(self.round_samples.iter().map(|s| s.offset_ns));
        let correction = core::conclude_panic_round(
            &mut CoreState {
                phase: &mut self.phase,
                retries: &mut self.retries,
                last_update: &mut self.last_update,
                stats: &mut self.stats,
            },
            &mut self.scratch,
            &self.offsets_buf,
            ctx.now(),
        );
        if let Some(correction) = correction {
            self.clock.apply_correction(ctx.now(), correction);
        }
        self.push_trace(ctx.now());
        ctx.set_timer(self.config.poll_interval, TAG_POLL);
    }

    fn push_trace(&mut self, now: SimTime) {
        self.offset_trace
            .push((now, self.clock.offset_from_true(now)));
    }
}

impl Node for ChronosClient {
    fn reset(&mut self) {
        self.stack.reset();
        self.stub.reset();
        self.exchanger.clear();
        self.clock = self.initial_clock.clone();
        self.pool_gen.reset();
        self.phase = Phase::PoolGeneration;
        self.retries = 0;
        self.last_update = None;
        self.dns_outstanding = false;
        self.round_samples.clear();
        self.offsets_buf.clear();
        self.offset_trace.clear();
        self.stats = ChronosStats::default();
    }

    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.send_pool_query(ctx);
        ctx.set_timer(self.config.pool.query_interval, TAG_POOL_TICK);
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Ipv4Packet) {
        let Some(StackEvent::Udp { src, datagram, .. }) = self.stack.handle(ctx, pkt) else {
            return;
        };
        // Pool-generation DNS response?
        if self.phase == Phase::PoolGeneration {
            if let Some(resp) = self.stub.handle(src, &datagram) {
                self.dns_outstanding = false;
                self.pool_answers.clear();
                let answers = resp.reply.answers().map(|a| (a.ttl, a.addr));
                self.pool_answers.extend(answers);
                let has_addrs = self.pool_answers.iter().any(|(_, addr)| addr.is_some());
                if resp.reply.rcode() == Rcode::NoError && has_addrs {
                    self.pool_gen.record_response(ctx.now(), &self.pool_answers);
                } else {
                    self.stats.pool_failures += 1;
                    self.pool_gen.record_failure(ctx.now());
                }
                self.finish_pool_generation_if_done(ctx);
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
        match (tag, self.phase) {
            (TAG_POOL_TICK, Phase::PoolGeneration) => self.pool_tick(ctx),
            (TAG_POLL, Phase::Syncing) => self.start_sample_round(ctx),
            (TAG_COLLECT, Phase::Syncing) => self.collect_sample_round(ctx),
            (TAG_PANIC_COLLECT, Phase::Panic) => self.collect_panic_round(ctx),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PoolGenConfig;
    use dnslab::resolver::{RecursiveResolver, Upstream};
    use dnslab::server::AuthServer;
    use dnslab::zone::pool_ntp_zone;
    use netsim::prelude::*;
    use netsim::time::SimDuration;
    use ntplab::server::NtpServer;

    /// A compressed Chronos config so tests run fast: 4 pool queries at
    /// 200 s intervals (comfortably above the 150 s pool TTL, like the real
    /// hourly cadence), m = 6, d = 2, poll every 16 s.
    fn fast_config() -> ChronosConfig {
        ChronosConfig {
            sample_size: 6,
            trim: 2,
            poll_interval: SimDuration::from_secs(16),
            pool: PoolGenConfig {
                queries: 4,
                query_interval: SimDuration::from_secs(200),
                ..PoolGenConfig::default()
            },
            ..ChronosConfig::default()
        }
    }

    fn build_world(
        seed: u64,
        universe: usize,
        server_shift_ns: i64,
        config: ChronosConfig,
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
                Box::new(NtpServer::new(addr, LocalClock::new(server_shift_ns, 0.0))),
                &[addr],
            );
        }
        let client = world.add_node(
            "chronos",
            Box::new(ChronosClient::with_config(
                client_addr,
                resolver_addr,
                LocalClock::perfect(),
                config,
            )),
            &[client_addr],
        );
        (world, client)
    }

    #[test]
    fn pool_generation_completes_and_sync_starts() {
        let (mut world, client) = build_world(1, 64, 0, fast_config());
        world.run_for(SimDuration::from_secs(900));
        let c = world.node::<ChronosClient>(client);
        assert_eq!(c.phase(), Phase::Syncing);
        assert_eq!(c.pool().len(), 16, "4 rounds x 4 addrs");
        assert_eq!(c.stats().pool_queries, 4);
        assert!(c.stats().accepts >= 1, "sync rounds ran");
    }

    #[test]
    fn honest_pool_keeps_clock_true() {
        let (mut world, client) = build_world(2, 64, 0, fast_config());
        world.run_for(SimDuration::from_secs(1500));
        let c = world.node::<ChronosClient>(client);
        let err = c.offset_from_true(world.now()).abs();
        assert!(err < 5_000_000, "clock error {err}ns stays tiny");
        assert_eq!(c.stats().panics, 0);
    }

    #[test]
    fn corrects_cold_start_offset() {
        let cfg = fast_config();
        let ns_addr = Ipv4Addr::new(203, 0, 113, 1);
        let resolver_addr = Ipv4Addr::new(198, 51, 100, 53);
        let client_addr = Ipv4Addr::new(198, 51, 100, 10);
        let mut world = World::new(3);
        world.add_node(
            "auth",
            Box::new(AuthServer::new(ns_addr, vec![pool_ntp_zone(64, 1)])),
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
        for i in 0..64u32 {
            let addr = Ipv4Addr::from(u32::from(Ipv4Addr::new(10, 32, 0, 1)) + i);
            world.add_node(
                format!("ntp{i}"),
                Box::new(NtpServer::new(addr, LocalClock::perfect())),
                &[addr],
            );
        }
        // Client starts 2 s wrong — way outside the envelope, but the cold
        // start (no previous update) accepts the first correction.
        let client = world.add_node(
            "chronos",
            Box::new(ChronosClient::with_config(
                client_addr,
                resolver_addr,
                LocalClock::new(2_000_000_000, 0.0),
                cfg,
            )),
            &[client_addr],
        );
        world.run_for(SimDuration::from_secs(1200));
        let c = world.node::<ChronosClient>(client);
        let err = c.offset_from_true(world.now()).abs();
        assert!(err < 5_000_000, "cold start corrected, err {err}ns");
    }

    #[test]
    fn rejects_sudden_unanimous_shift_after_sync() {
        // Servers honest during pool gen + first polls, then all jump
        // +500 ms: agreement holds but the envelope rejects; after K
        // rejections the client panics — and the panic average over the
        // (fully shifted) pool drags the clock. This mirrors the NDSS
        // analysis: an attacker controlling *everything* wins; the defence
        // is about majorities, not unanimity.
        let (mut world, client) = build_world(4, 32, 0, fast_config());
        world.run_for(SimDuration::from_secs(900));
        assert_eq!(world.node::<ChronosClient>(client).phase(), Phase::Syncing);
        // Shift every server by +500 ms mid-flight.
        for i in 0..32u32 {
            let addr = Ipv4Addr::from(u32::from(Ipv4Addr::new(10, 32, 0, 1)) + i);
            let id = world.owner_of(addr).unwrap();
            world
                .node_mut::<NtpServer>(id)
                .clock_mut()
                .set_offset_ns(SimTime::from_secs(900), 500_000_000);
        }
        world.run_for(SimDuration::from_secs(300));
        let c = world.node::<ChronosClient>(client);
        assert!(c.stats().rejects >= 1, "envelope rejected the jump");
        assert!(c.stats().panics >= 1, "K rejections forced panic");
    }

    #[test]
    fn trace_grows_with_polls() {
        let (mut world, client) = build_world(5, 64, 0, fast_config());
        world.run_for(SimDuration::from_secs(1100));
        let c = world.node::<ChronosClient>(client);
        assert!(c.offset_trace().len() >= 3);
        let mut last = SimTime::ZERO;
        for &(at, _) in c.offset_trace() {
            assert!(at >= last);
            last = at;
        }
    }

    #[test]
    fn pool_failures_counted_when_dns_is_dead() {
        // No resolver: every pool query times out at the next tick.
        let client_addr = Ipv4Addr::new(198, 51, 100, 10);
        let mut world = World::new(6);
        let client = world.add_node(
            "chronos",
            Box::new(ChronosClient::with_config(
                client_addr,
                Ipv4Addr::new(198, 51, 100, 53),
                LocalClock::perfect(),
                fast_config(),
            )),
            &[client_addr],
        );
        world.run_for(SimDuration::from_secs(900));
        let c = world.node::<ChronosClient>(client);
        assert!(c.stats().pool_failures >= 3);
        assert!(c.pool().is_empty());
    }
}
