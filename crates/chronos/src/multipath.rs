//! Multi-resolver (consensus) pool generation — the client side of the
//! paper's recommended fix, at packet level.
//!
//! [`ConsensusPoolClient`] runs the Chronos pool-generation schedule, but
//! each round queries **every** configured resolver and admits only the
//! addresses that reach the [`ConsensusRule`] quorum. The E10 experiment
//! uses it to measure how many resolvers an attacker must poison before the
//! pool falls — and to expose the practical catch: consensus over a
//! *rotating* answer set starves the pool, because honest resolvers
//! legitimately disagree.

use crate::config::PoolGenConfig;
use crate::consensus::{combine_round, ConsensusRound, ConsensusRule};
use dnslab::client::StubResolver;
use dnslab::wire::Question;
use netsim::ip::Ipv4Packet;
use netsim::node::{Context, Node};
use netsim::stack::{IpStack, StackEvent};
use netsim::time::SimTime;
use std::collections::BTreeSet;
use std::net::Ipv4Addr;

const TAG_ROUND: u64 = 1;

/// Counters describing client activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConsensusPoolStats {
    /// Rounds completed.
    pub rounds: u64,
    /// Total queries sent (rounds × resolvers).
    pub queries: u64,
    /// Responses received in time.
    pub responses: u64,
    /// Addresses rejected below quorum, cumulative.
    pub rejected_below_quorum: u64,
}

/// A pool-generation client querying several resolvers per round.
#[derive(Debug)]
pub struct ConsensusPoolClient {
    stack: IpStack,
    stubs: Vec<StubResolver>,
    config: PoolGenConfig,
    rule: ConsensusRule,
    round_answers: Vec<Vec<Ipv4Addr>>,
    round_open: bool,
    pool: Vec<Ipv4Addr>,
    seen: BTreeSet<Ipv4Addr>,
    round_log: Vec<ConsensusRound>,
    stats: ConsensusPoolStats,
}

impl ConsensusPoolClient {
    /// Creates a client at `addr` querying `resolvers` under `rule`.
    ///
    /// # Panics
    ///
    /// Panics if `resolvers` is empty.
    pub fn new(
        addr: Ipv4Addr,
        resolvers: Vec<Ipv4Addr>,
        rule: ConsensusRule,
        config: PoolGenConfig,
    ) -> Self {
        assert!(!resolvers.is_empty(), "need at least one resolver");
        let stubs = resolvers.iter().map(|&r| StubResolver::new(r)).collect();
        let n = resolvers.len();
        ConsensusPoolClient {
            stack: IpStack::new(addr),
            stubs,
            config,
            rule,
            round_answers: vec![Vec::new(); n],
            round_open: false,
            pool: Vec::new(),
            seen: BTreeSet::new(),
            round_log: Vec::new(),
            stats: ConsensusPoolStats::default(),
        }
    }

    /// The consensus rule in force.
    pub fn rule(&self) -> ConsensusRule {
        self.rule
    }

    /// The accumulated pool.
    pub fn pool(&self) -> &[Ipv4Addr] {
        &self.pool
    }

    /// Per-round consensus outcomes.
    pub fn round_log(&self) -> &[ConsensusRound] {
        &self.round_log
    }

    /// `true` once all configured rounds have completed.
    pub fn is_complete(&self) -> bool {
        self.round_log.len() >= self.config.queries
    }

    /// Activity counters.
    pub fn stats(&self) -> ConsensusPoolStats {
        self.stats
    }

    /// Splits the pool by a malice predicate: `(benign, malicious)`.
    pub fn composition(&self, is_malicious: impl Fn(Ipv4Addr) -> bool) -> (usize, usize) {
        let malicious = self.pool.iter().filter(|&&a| is_malicious(a)).count();
        (self.pool.len() - malicious, malicious)
    }

    fn finalize_round(&mut self, _now: SimTime) {
        if !self.round_open {
            return;
        }
        self.round_open = false;
        let outcome = combine_round(&self.round_answers, self.rule);
        self.stats.rejected_below_quorum += outcome.rejected.len() as u64;
        // Per-response mitigations apply to the *combined* answer.
        let take = self
            .config
            .max_records_per_response
            .unwrap_or(usize::MAX)
            .min(outcome.accepted.len());
        for &addr in &outcome.accepted[..take] {
            if self.seen.insert(addr) {
                self.pool.push(addr);
            }
        }
        self.round_log.push(outcome);
        self.stats.rounds += 1;
        for a in &mut self.round_answers {
            a.clear();
        }
    }

    fn start_round(&mut self, ctx: &mut Context<'_>) {
        if self.is_complete() {
            return;
        }
        self.round_open = true;
        let question = Question::a(self.config.pool_name.clone());
        for i in 0..self.stubs.len() {
            self.stats.queries += 1;
            self.stubs[i].query(ctx, &mut self.stack, question.clone(), i as u64);
        }
        ctx.set_timer(self.config.query_interval, TAG_ROUND);
    }
}

impl Node for ConsensusPoolClient {
    fn reset(&mut self) {
        self.stack.reset();
        for stub in &mut self.stubs {
            stub.reset();
        }
        for a in &mut self.round_answers {
            a.clear();
        }
        self.round_open = false;
        self.pool.clear();
        self.seen.clear();
        self.round_log.clear();
        self.stats = ConsensusPoolStats::default();
    }

    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.start_round(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Context<'_>, pkt: Ipv4Packet) {
        let Some(StackEvent::Udp { src, datagram, .. }) = self.stack.handle(ctx, pkt) else {
            return;
        };
        for (i, stub) in self.stubs.iter_mut().enumerate() {
            if let Some(resp) = stub.handle(src, &datagram) {
                if !self.round_open {
                    return; // Straggler from a closed round.
                }
                self.stats.responses += 1;
                // Apply the TTL mitigation per resolver answer.
                let max_ttl = resp.message.answers.iter().map(|r| r.ttl).max();
                let rejected = matches!(
                    (self.config.reject_ttl_above, max_ttl),
                    (Some(limit), Some(ttl)) if ttl > limit
                );
                if !rejected {
                    self.round_answers[i] = resp.message.answer_addrs();
                }
                return;
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, tag: u64) {
        if tag != TAG_ROUND {
            return;
        }
        self.finalize_round(ctx.now());
        self.start_round(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnslab::resolver::{RecursiveResolver, Upstream};
    use dnslab::server::AuthServer;
    use dnslab::zone::{pool_ntp_zone, Rotation, Zone};
    use netsim::prelude::*;
    use netsim::time::SimDuration;

    const POOL_TTL_SAFE: u32 = 150;

    struct Setup {
        world: World,
        client: NodeId,
        resolver_ids: Vec<NodeId>,
    }

    /// `stable` controls whether the zone serves a fixed answer set (the
    /// consensus-friendly deployment) or the classic rotation.
    fn setup(seed: u64, resolvers: usize, rule: ConsensusRule, stable: bool) -> Setup {
        let ns_addr = Ipv4Addr::new(203, 0, 113, 1);
        let client_addr = Ipv4Addr::new(198, 51, 100, 10);
        let mut world = World::new(seed);
        let zone = if stable {
            let addrs: Vec<Ipv4Addr> = (1..=4u8).map(|i| Ipv4Addr::new(10, 32, 0, i)).collect();
            Zone::new("pool.ntp.org".parse().unwrap())
                .with_synthetic_ns(2, Ipv4Addr::new(203, 0, 113, 101))
                .with_rotation(Rotation::new(addrs, 4, POOL_TTL_SAFE))
        } else {
            pool_ntp_zone(96, 2)
        };
        world.add_node(
            "auth",
            Box::new(AuthServer::new(ns_addr, vec![zone])),
            &[ns_addr],
        );
        let mut resolver_addrs = Vec::new();
        let mut resolver_ids = Vec::new();
        for i in 0..resolvers {
            let addr = Ipv4Addr::new(198, 51, 100, 60 + i as u8);
            let mut res = RecursiveResolver::new(
                addr,
                vec![Upstream {
                    zone: "pool.ntp.org".parse().unwrap(),
                    ns_names: vec![],
                    bootstrap: vec![ns_addr],
                }],
            );
            res.allow_client(client_addr);
            resolver_ids.push(world.add_node(format!("res{i}"), Box::new(res), &[addr]));
            resolver_addrs.push(addr);
        }
        let client = world.add_node(
            "consensus-client",
            Box::new(ConsensusPoolClient::new(
                client_addr,
                resolver_addrs,
                rule,
                PoolGenConfig {
                    queries: 6,
                    query_interval: SimDuration::from_secs(200),
                    ..PoolGenConfig::default()
                },
            )),
            &[client_addr],
        );
        Setup {
            world,
            client,
            resolver_ids,
        }
    }

    fn poison_resolver(world: &mut World, id: NodeId) {
        use dnslab::cache::CacheKey;
        use dnslab::wire::Record;
        let name: dnslab::name::Name = "pool.ntp.org".parse().unwrap();
        let records: Vec<Record> = (0..89u32)
            .map(|i| {
                Record::a(
                    name.clone(),
                    Ipv4Addr::from(u32::from(Ipv4Addr::new(198, 18, 0, 1)) + i),
                    86_401,
                )
            })
            .collect();
        let now = world.now();
        world.node_mut::<RecursiveResolver>(id).cache_mut().insert(
            now,
            CacheKey::a(name),
            &records,
        );
    }

    fn is_malicious(a: Ipv4Addr) -> bool {
        a.octets()[0] == 198 && a.octets()[1] == 18
    }

    #[test]
    fn majority_over_stable_zone_blocks_single_poisoned_resolver() {
        let mut s = setup(1, 3, ConsensusRule::Majority, true);
        poison_resolver(&mut s.world, s.resolver_ids[0]);
        s.world.run_for(SimDuration::from_secs(1500));
        let c = s.world.node::<ConsensusPoolClient>(s.client);
        assert!(c.is_complete());
        let (benign, malicious) = c.composition(is_malicious);
        assert_eq!(malicious, 0, "quorum filtered the poison");
        assert_eq!(benign, 4, "the stable answer set was admitted");
        assert!(c.stats().rejected_below_quorum > 0);
    }

    #[test]
    fn majority_falls_when_quorum_is_poisoned() {
        let mut s = setup(2, 3, ConsensusRule::Majority, true);
        poison_resolver(&mut s.world, s.resolver_ids[0]);
        poison_resolver(&mut s.world, s.resolver_ids[1]);
        s.world.run_for(SimDuration::from_secs(1500));
        let c = s.world.node::<ConsensusPoolClient>(s.client);
        let (_, malicious) = c.composition(is_malicious);
        assert_eq!(malicious, 89, "2-of-3 poisoned = quorum reached");
    }

    #[test]
    fn union_is_as_weak_as_one_resolver() {
        let mut s = setup(3, 3, ConsensusRule::Union, true);
        poison_resolver(&mut s.world, s.resolver_ids[2]);
        s.world.run_for(SimDuration::from_secs(1500));
        let c = s.world.node::<ConsensusPoolClient>(s.client);
        let (_, malicious) = c.composition(is_malicious);
        assert_eq!(malicious, 89);
    }

    /// The practical catch the E10 experiment reports: consensus over the
    /// classic *rotating* pool starves, because honest resolvers disagree.
    #[test]
    fn majority_over_rotating_zone_starves() {
        let mut s = setup(4, 3, ConsensusRule::Majority, false);
        s.world.run_for(SimDuration::from_secs(1500));
        let c = s.world.node::<ConsensusPoolClient>(s.client);
        assert!(c.is_complete());
        assert!(
            c.pool().len() <= 8,
            "rotation breaks consensus: only {} members",
            c.pool().len()
        );
        assert!(c.stats().rejected_below_quorum >= 24);
    }

    #[test]
    fn ttl_mitigation_composes_with_consensus() {
        let ns_addr = Ipv4Addr::new(203, 0, 113, 1);
        let client_addr = Ipv4Addr::new(198, 51, 100, 10);
        let resolver_addr = Ipv4Addr::new(198, 51, 100, 60);
        let mut world = World::new(5);
        world.add_node(
            "auth",
            Box::new(AuthServer::new(ns_addr, vec![pool_ntp_zone(16, 2)])),
            &[ns_addr],
        );
        let mut res = RecursiveResolver::new(
            resolver_addr,
            vec![Upstream {
                zone: "pool.ntp.org".parse().unwrap(),
                ns_names: vec![],
                bootstrap: vec![ns_addr],
            }],
        );
        res.allow_client(client_addr);
        let resolver = world.add_node("res", Box::new(res), &[resolver_addr]);
        let client = world.add_node(
            "client",
            Box::new(ConsensusPoolClient::new(
                client_addr,
                vec![resolver_addr],
                ConsensusRule::Union,
                PoolGenConfig {
                    queries: 3,
                    query_interval: SimDuration::from_secs(200),
                    reject_ttl_above: Some(3600),
                    ..PoolGenConfig::default()
                },
            )),
            &[client_addr],
        );
        poison_resolver(&mut world, resolver);
        world.run_for(SimDuration::from_secs(900));
        let c = world.node::<ConsensusPoolClient>(client);
        let (_, malicious) = c.composition(is_malicious);
        assert_eq!(malicious, 0, "TTL filter dropped the poisoned answers");
    }
}
