//! Chronos pool generation — the paper's "Achilles heel".
//!
//! Chronos resolves `pool.ntp.org` hourly for 24 hours and unions the
//! returned A records into its server pool (expected: 24 × 4 = 96 servers).
//! [`PoolGenerator`] implements exactly that, plus the §V mitigations:
//! capping how many addresses a single response may contribute and
//! discarding responses with suspicious TTLs.
//!
//! The struct is deliberately transparent about *what happened each round*
//! ([`PoolRound`]) because the paper's Figure 1 is precisely a timeline of
//! pool composition per round.

use crate::config::PoolGenConfig;
use dnslab::wire::{Message, Record};
use netsim::hash::MulHashSet;
use netsim::time::SimTime;
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// What one DNS round contributed to the pool.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PoolRound {
    /// 1-based round number.
    pub round: usize,
    /// When the response was processed.
    pub at: SimTime,
    /// Addresses newly added to the pool this round.
    pub added: Vec<Ipv4Addr>,
    /// Addresses in the response that were already pooled.
    pub duplicates: usize,
    /// Addresses dropped by the per-response cap (mitigation a).
    pub capped: usize,
    /// Whether the whole response was rejected for a high TTL (mitigation b).
    pub rejected_high_ttl: bool,
    /// Maximum TTL seen in the response.
    pub max_ttl: u32,
    /// Total pool size after this round.
    pub pool_size: usize,
}

/// DNS-driven pool generation state machine.
#[derive(Debug, Clone)]
pub struct PoolGenerator {
    config: PoolGenConfig,
    servers: Vec<Ipv4Addr>,
    /// `servers` as integers, for the per-response dedup.
    seen: MulHashSet<u32>,
    rounds: Vec<PoolRound>,
}

impl PoolGenerator {
    /// Creates a generator with the given configuration.
    pub fn new(config: PoolGenConfig) -> Self {
        PoolGenerator {
            config,
            servers: Vec::new(),
            seen: MulHashSet::default(),
            rounds: Vec::new(),
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &PoolGenConfig {
        &self.config
    }

    /// Forgets every gathered server and round, keeping the configuration
    /// (world-reuse support).
    pub fn reset(&mut self) {
        self.servers.clear();
        self.seen.clear();
        self.rounds.clear();
    }

    /// Rounds completed so far.
    pub fn rounds_done(&self) -> usize {
        self.rounds.len()
    }

    /// `true` once the configured number of rounds has been processed.
    pub fn is_complete(&self) -> bool {
        self.rounds.len() >= self.config.queries
    }

    /// The pool accumulated so far, in first-seen order.
    pub fn servers(&self) -> &[Ipv4Addr] {
        &self.servers
    }

    /// Pool size.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// `true` when no servers have been gathered.
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// Per-round history (the Figure 1 timeline).
    pub fn rounds(&self) -> &[PoolRound] {
        &self.rounds
    }

    /// Processes one DNS response as the next round.
    ///
    /// Applies the mitigations, dedups against the existing pool and records
    /// a [`PoolRound`]. A round is consumed even when the response is
    /// rejected or adds nothing — Chronos cannot tell a cache hit from a
    /// fresh answer.
    pub fn record_response(&mut self, at: SimTime, response: &Message) -> &PoolRound {
        let round = self.rounds.len() + 1;
        let max_ttl = response.answers.iter().map(|r| r.ttl).max().unwrap_or(0);

        let mut rejected_high_ttl = false;
        let mut capped = 0;
        let mut added = Vec::new();
        let mut duplicates = 0;

        if let Some(limit) = self.config.reject_ttl_above {
            if max_ttl > limit {
                rejected_high_ttl = true;
            }
        }
        if !rejected_high_ttl {
            let limit = self.config.max_records_per_response.unwrap_or(usize::MAX);
            for (i, addr) in response.answers.iter().filter_map(Record::as_a).enumerate() {
                if i >= limit {
                    capped += 1;
                } else if self.seen.insert(u32::from(addr)) {
                    self.servers.push(addr);
                    added.push(addr);
                } else {
                    duplicates += 1;
                }
            }
        }
        self.rounds.push(PoolRound {
            round,
            at,
            added,
            duplicates,
            capped,
            rejected_high_ttl,
            max_ttl,
            pool_size: self.servers.len(),
        });
        self.rounds.last().expect("just pushed")
    }

    /// Records a round in which no response arrived (timeout / SERVFAIL).
    pub fn record_failure(&mut self, at: SimTime) -> &PoolRound {
        let round = self.rounds.len() + 1;
        self.rounds.push(PoolRound {
            round,
            at,
            added: Vec::new(),
            duplicates: 0,
            capped: 0,
            rejected_high_ttl: false,
            max_ttl: 0,
            pool_size: self.servers.len(),
        });
        self.rounds.last().expect("just pushed")
    }

    /// Splits the pool by a predicate identifying attacker addresses;
    /// returns `(benign, malicious)` counts.
    pub fn composition(&self, is_malicious: impl Fn(Ipv4Addr) -> bool) -> (usize, usize) {
        let malicious = self.servers.iter().filter(|&&a| is_malicious(a)).count();
        (self.servers.len() - malicious, malicious)
    }

    /// The attacker's fraction of the pool under the same predicate.
    pub fn attacker_fraction(&self, is_malicious: impl Fn(Ipv4Addr) -> bool) -> f64 {
        if self.servers.is_empty() {
            return 0.0;
        }
        let (_, malicious) = self.composition(is_malicious);
        malicious as f64 / self.servers.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnslab::capacity::response_with_answers;
    use dnslab::name::Name;
    use dnslab::wire::{Message, Question, Record};

    fn pool_name() -> Name {
        "pool.ntp.org".parse().unwrap()
    }

    /// A benign 4-record response with the given base address and TTL 150.
    fn benign_response(base: u8) -> Message {
        let mut msg = Message::response_to(&Message::query(1, Question::a(pool_name())));
        for i in 0..4u8 {
            msg.answers
                .push(Record::a(pool_name(), Ipv4Addr::new(10, 32, base, i), 150));
        }
        msg
    }

    /// The attacker's 89-record, TTL-86401 response.
    fn attack_response() -> Message {
        let mut msg = response_with_answers(&pool_name(), 89, 86_401, true);
        // Rebase addresses into the attacker range 198.18.0.0/15 (they
        // already are, from `response_with_answers`).
        assert_eq!(msg.answer_addrs().len(), 89);
        msg.flags.response = true;
        msg
    }

    fn t(h: u64) -> SimTime {
        SimTime::from_secs(h * 3600)
    }

    fn is_malicious(a: Ipv4Addr) -> bool {
        a.octets()[0] == 198 && a.octets()[1] == 18
    }

    #[test]
    fn benign_generation_reaches_96() {
        let mut gen = PoolGenerator::new(PoolGenConfig::default());
        for round in 0..24 {
            gen.record_response(t(round as u64), &benign_response(round as u8));
        }
        assert!(gen.is_complete());
        assert_eq!(gen.len(), 96, "paper: 24 x 4 = 96 servers");
        assert_eq!(gen.rounds()[23].pool_size, 96);
        assert_eq!(gen.attacker_fraction(is_malicious), 0.0);
    }

    #[test]
    fn duplicates_do_not_grow_the_pool() {
        let mut gen = PoolGenerator::new(PoolGenConfig::default());
        gen.record_response(t(0), &benign_response(0));
        let r = gen.record_response(t(1), &benign_response(0));
        assert_eq!(r.added.len(), 0);
        assert_eq!(r.duplicates, 4);
        assert_eq!(gen.len(), 4);
    }

    /// The paper's core table: poisoning at round p yields 4·(p−1) benign +
    /// 89 malicious, frozen thereafter by the high-TTL cache entry.
    #[test]
    fn poisoning_at_round_12_gives_attacker_two_thirds() {
        let mut gen = PoolGenerator::new(PoolGenConfig::default());
        for round in 1..=24usize {
            if round < 12 {
                gen.record_response(t(round as u64), &benign_response(round as u8));
            } else {
                // Round 12: poisoned; rounds 13..24: served from cache —
                // the same 89 records again (all duplicates).
                gen.record_response(t(round as u64), &attack_response());
            }
        }
        let (benign, malicious) = gen.composition(is_malicious);
        assert_eq!(benign, 44);
        assert_eq!(malicious, 89);
        assert_eq!(gen.len(), 133);
        let f = gen.attacker_fraction(is_malicious);
        assert!(f >= 2.0 / 3.0, "fraction {f} >= 2/3");
        // Rounds 13.. added nothing.
        for r in &gen.rounds()[12..] {
            assert!(r.added.is_empty());
            assert_eq!(r.duplicates, 89);
        }
    }

    #[test]
    fn poisoning_at_round_13_is_too_late() {
        let mut gen = PoolGenerator::new(PoolGenConfig::default());
        for round in 1..=24usize {
            if round < 13 {
                gen.record_response(t(round as u64), &benign_response(round as u8));
            } else {
                gen.record_response(t(round as u64), &attack_response());
            }
        }
        let f = gen.attacker_fraction(is_malicious);
        assert!(f < 2.0 / 3.0, "fraction {f} < 2/3: attack fails");
    }

    #[test]
    fn record_cap_mitigation_limits_injection() {
        let mut gen = PoolGenerator::new(PoolGenConfig {
            max_records_per_response: Some(4),
            ..PoolGenConfig::default()
        });
        let r = gen.record_response(t(0), &attack_response());
        assert_eq!(r.added.len(), 4, "only 4 of 89 accepted");
        assert_eq!(r.capped, 85);
        assert_eq!(gen.len(), 4);
    }

    #[test]
    fn ttl_mitigation_rejects_attack_response() {
        let mut gen = PoolGenerator::new(PoolGenConfig {
            reject_ttl_above: Some(3600),
            ..PoolGenConfig::default()
        });
        let r = gen.record_response(t(0), &attack_response());
        assert!(r.rejected_high_ttl);
        assert_eq!(r.max_ttl, 86_401);
        assert!(r.added.is_empty());
        assert_eq!(gen.len(), 0);
        // Benign responses still pass.
        let r = gen.record_response(t(1), &benign_response(1));
        assert_eq!(r.added.len(), 4);
    }

    #[test]
    fn full_mitigation_bounds_attacker_to_minority() {
        let mut gen = PoolGenerator::new(PoolGenConfig::mitigated());
        for round in 1..=24usize {
            if round == 12 {
                gen.record_response(t(round as u64), &attack_response());
            } else {
                gen.record_response(t(round as u64), &benign_response(round as u8));
            }
        }
        // Attack response rejected for TTL; pool is 23 rounds x 4 benign.
        let (benign, malicious) = gen.composition(is_malicious);
        assert_eq!(malicious, 0);
        assert_eq!(benign, 92);
    }

    #[test]
    fn failed_rounds_consume_attempts() {
        let mut gen = PoolGenerator::new(PoolGenConfig {
            queries: 3,
            ..PoolGenConfig::default()
        });
        gen.record_response(t(0), &benign_response(0));
        gen.record_failure(t(1));
        gen.record_response(t(2), &benign_response(2));
        assert!(gen.is_complete());
        assert_eq!(gen.len(), 8);
        assert_eq!(gen.rounds()[1].added.len(), 0);
    }

    #[test]
    fn composition_is_stable_and_ordered() {
        let mut gen = PoolGenerator::new(PoolGenConfig::default());
        gen.record_response(t(0), &benign_response(0));
        gen.record_response(t(1), &attack_response());
        let first_four: Vec<_> = gen.servers()[..4].to_vec();
        assert!(first_four.iter().all(|&a| !is_malicious(a)));
        assert_eq!(gen.servers().len(), 93);
    }
}
