//! Cohorts: heterogeneous client tiers and the deterministic
//! client→tier / client→resolver assignment.
//!
//! PRs 3–4 simulated a *homogeneous* population — every client a Chronos
//! client with the same configuration, all behind one resolver. The real
//! Internet mixes Chronos and plain-NTP clients across many resolvers,
//! and attack reach is governed by *which fraction of resolvers* the
//! attacker poisons (arXiv:2010.09338). This module supplies the two
//! deterministic assignment functions that make such fleets simulable
//! without giving up any reproducibility guarantee:
//!
//! * **client → tier** ([`TierAssignment`]): a balanced weighted
//!   round-robin pattern over the tier shares, indexed by global client
//!   id. Any contiguous id window of `N` clients contains each tier
//!   within ±1 of its exact share `N·wᵗ/Σw` (unit-tested), and the
//!   assignment is a pure function of `(tiers, global id)` — independent
//!   of fleet slicing, shard size and thread count.
//! * **client → resolver** ([`resolver_of`]): a hash of
//!   `(fleet seed, global id)` reduced onto the `R` resolvers. Hashing
//!   (rather than striding) decorrelates the resolver choice from the
//!   tier pattern, and because the hash reads only the *global* id it is
//!   invariant under sharding, threading and fleet slicing too.
//!
//! Both functions are consulted once per client at
//! [`Fleet::rebuild`](crate::engine::Fleet) time and materialized into
//! struct-of-arrays columns, so the hot stepping loop never recomputes
//! them.

use crate::rng::client_seed;
use chronos::config::ChronosConfig;
use netsim::time::SimDuration;

/// Salt folded into the fleet seed before hashing a client id onto a
/// resolver, so the resolver draw is decorrelated from the client's
/// boot/drift RNG stream (which hashes the unsalted seed).
const RESOLVER_ASSIGN_SALT: u64 = 0x5eed_d15c_0bab_b1e5;

/// Default servers a plain-NTP client keeps from its single DNS
/// resolution (`pool.ntp.org` serves 4 addresses per response).
pub const PLAIN_DEFAULT_SERVERS: usize = 4;

/// Default number of independently-resolved Roughtime sources
/// cross-referenced per fetch round (M). Three is the smallest count
/// with a strict majority under one compromised source.
pub const ROUGHTIME_DEFAULT_SOURCES: usize = 3;

/// Hard cap on Roughtime sources per client: the resolved/poisoned
/// source sets are packed into one `u32` association column (two 16-bit
/// masks), so M must fit in 16 bits.
pub const ROUGHTIME_MAX_SOURCES: usize = 16;

/// Default NTS key lifetime (24 h): how long an association's cookies
/// stay usable after the NTS-KE handshake that minted them.
pub const NTS_DEFAULT_KEY_LIFETIME_SECS: u64 = 86_400;

/// Default NTS re-key cadence (24 h): how often a client re-runs
/// NTS-KE — and therefore re-resolves the KE server name through its
/// (possibly poisoned) resolver.
pub const NTS_DEFAULT_REKEY_SECS: u64 = 86_400;

/// What kind of time client a tier runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientKind {
    /// The Chronos client: multi-round pool generation, provably secure
    /// selection, accept/reject/panic machinery ([`chronos::core`]).
    Chronos,
    /// The traditional ntpd baseline: one DNS resolution at boot, a fixed
    /// 4-server pool, intersection → cluster → combine each poll
    /// ([`ntplab::combine::ntpd_pipeline`]).
    PlainNtp,
    /// NTS-secured NTP (RFC 8915): time samples are authenticated, so a
    /// poisoned resolver cannot alter offsets *post-association* — but
    /// the NTS-KE bootstrap (server-name resolution at boot and on every
    /// re-key) still rides the tier's resolver. A boot or re-key inside
    /// the poison window associates the client to attacker-controlled
    /// servers for the key lifetime.
    Nts,
    /// Roughtime-style redundant fetch: M sources resolved through M
    /// *distinct* resolvers at boot, each poll cross-references their
    /// signed midpoints by majority; rounds without a strict majority are
    /// flagged as detected inconsistencies and applied nowhere. M = 1
    /// degenerates to a single-server plain fetch — the ETH2-Medalla
    /// failure mode.
    Roughtime,
}

/// One population tier of a heterogeneous fleet: a client kind, a
/// relative population share, and optional per-tier configuration
/// overrides layered on the fleet-level knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct CohortTier {
    /// Label used in reports and figures (e.g. `"chronos"`,
    /// `"plain ntp"`).
    pub label: String,
    /// Which client implementation this tier runs.
    pub kind: ClientKind,
    /// Relative population share (weights, not percentages): tiers with
    /// shares `[3, 1]` split the fleet 75 % / 25 %. Must be ≥ 1.
    pub share: u32,
    /// Full per-tier [`ChronosConfig`] replacing the fleet-level one
    /// (Chronos tiers only; `None` inherits the fleet config).
    pub chronos: Option<ChronosConfig>,
    /// Poll-cadence override, applied after `chronos`: for Chronos tiers
    /// it replaces `chronos.poll_interval`, for plain-NTP tiers it is the
    /// poll interval itself.
    pub poll_interval: Option<SimDuration>,
    /// Pool-size override: for Chronos tiers it replaces
    /// `chronos.pool.queries` (the number of pool-generation rounds), for
    /// plain-NTP tiers the number of servers kept from the single
    /// resolution (default [`PLAIN_DEFAULT_SERVERS`]), for NTS tiers the
    /// number of servers the KE handshake hands out (default: the tier's
    /// `chronos.sample_size`).
    pub pool_size: Option<usize>,
    /// NTS tiers only: how long one association's keys stay usable
    /// (default [`NTS_DEFAULT_KEY_LIFETIME_SECS`]). Samples after expiry
    /// are discarded until the next re-key succeeds.
    pub key_lifetime: Option<SimDuration>,
    /// NTS tiers only: cadence of scheduled NTS-KE re-keys, each of which
    /// re-resolves the KE server name (default
    /// [`NTS_DEFAULT_REKEY_SECS`]). Set it beyond the horizon to model
    /// boot-only association.
    pub rekey_interval: Option<SimDuration>,
    /// Roughtime tiers only: number of independently-resolved sources M
    /// cross-referenced per fetch (default
    /// [`ROUGHTIME_DEFAULT_SOURCES`], at most
    /// [`ROUGHTIME_MAX_SOURCES`]).
    pub sources: Option<usize>,
}

impl CohortTier {
    fn base(label: &str, kind: ClientKind, share: u32) -> CohortTier {
        CohortTier {
            label: label.to_string(),
            kind,
            share,
            chronos: None,
            poll_interval: None,
            pool_size: None,
            key_lifetime: None,
            rekey_interval: None,
            sources: None,
        }
    }

    /// A Chronos tier inheriting every fleet-level knob.
    pub fn chronos(label: &str, share: u32) -> CohortTier {
        CohortTier::base(label, ClientKind::Chronos, share)
    }

    /// A plain-NTP tier with the default 4-server pool.
    pub fn plain_ntp(label: &str, share: u32) -> CohortTier {
        CohortTier::base(label, ClientKind::PlainNtp, share)
    }

    /// An NTS tier with the default daily key lifetime and re-key
    /// cadence.
    pub fn nts(label: &str, share: u32) -> CohortTier {
        CohortTier::base(label, ClientKind::Nts, share)
    }

    /// A Roughtime tier with the default M = 3 independently-resolved
    /// sources.
    pub fn roughtime(label: &str, share: u32) -> CohortTier {
        CohortTier::base(label, ClientKind::Roughtime, share)
    }
}

/// A tier's knobs resolved against the fleet-level configuration: what
/// the engine actually consults while stepping a client of this tier.
#[derive(Debug, Clone, PartialEq)]
pub struct TierParams {
    /// Tier label (for reports).
    pub label: String,
    /// Which client implementation the tier runs.
    pub kind: ClientKind,
    /// The effective Chronos parameters. Plain-NTP tiers still read
    /// `poll_interval` and `response_window` from here (their cadence),
    /// but none of the selection machinery.
    pub chronos: ChronosConfig,
    /// Plain-NTP: servers kept from the single DNS resolution. NTS:
    /// servers the KE handshake hands out per association.
    pub plain_servers: usize,
    /// NTS only: association key lifetime in nanoseconds.
    pub key_lifetime_ns: u64,
    /// NTS only: scheduled re-key cadence in nanoseconds (each re-key is
    /// a fresh KE server-name resolution).
    pub rekey_interval_ns: u64,
    /// Roughtime only: number of independently-resolved sources M.
    pub sources: usize,
    /// This tier's fault probabilities, stamped by
    /// [`crate::config::FleetConfig::effective_tiers`] from the fleet's
    /// [`crate::config::FaultPlan`] (inert when resolved directly).
    pub faults: crate::config::TierFaults,
}

impl TierParams {
    /// Resolves one tier against the fleet-level Chronos config.
    pub fn resolve(tier: &CohortTier, fleet_chronos: &ChronosConfig) -> TierParams {
        let mut chronos = tier
            .chronos
            .clone()
            .unwrap_or_else(|| fleet_chronos.clone());
        if let Some(poll) = tier.poll_interval {
            chronos.poll_interval = poll;
        }
        if tier.kind == ClientKind::Chronos {
            if let Some(pool) = tier.pool_size {
                chronos.pool.queries = pool;
            }
        }
        // NTS associations default to the Chronos sample size so the
        // authenticated pool feeds the same selection machinery; plain
        // NTP keeps the classic 4-address DNS response.
        let plain_servers = match tier.kind {
            ClientKind::Nts => tier.pool_size.unwrap_or(chronos.sample_size),
            _ => tier.pool_size.unwrap_or(PLAIN_DEFAULT_SERVERS),
        };
        TierParams {
            label: tier.label.clone(),
            kind: tier.kind,
            chronos,
            plain_servers,
            key_lifetime_ns: tier
                .key_lifetime
                .unwrap_or(SimDuration::from_secs(NTS_DEFAULT_KEY_LIFETIME_SECS))
                .as_nanos(),
            rekey_interval_ns: tier
                .rekey_interval
                .unwrap_or(SimDuration::from_secs(NTS_DEFAULT_REKEY_SECS))
                .as_nanos(),
            sources: tier.sources.unwrap_or(ROUGHTIME_DEFAULT_SOURCES),
            faults: crate::config::TierFaults::default(),
        }
    }
}

/// The deterministic client→tier map: a balanced weighted round-robin
/// pattern (nginx-style *smooth WRR*) over the tier shares reduced by
/// their gcd, indexed by `global_id % period`.
///
/// The smooth-WRR interleave keeps every prefix of the pattern within a
/// fraction of a slot of its exact proportional count, so any contiguous
/// window of client ids contains each tier within ±1 of `N·wᵗ/Σw`
/// (asserted by the unit tests across window sizes and offsets). Because
/// the map reads only the global id, it is invariant under fleet slicing
/// ([`crate::config::FleetConfig::first_client_id`]), shard size and
/// thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct TierAssignment {
    /// `pattern[g % pattern.len()]` is the tier index of global id `g`.
    pattern: Vec<u8>,
    /// Number of tiers (1 for the implicit homogeneous tier).
    tiers: usize,
}

impl TierAssignment {
    /// Builds the assignment pattern for `tiers`. An empty slice is the
    /// homogeneous fleet: one implicit tier 0 covering everyone.
    ///
    /// # Panics
    ///
    /// Panics on invalid shares (zero) or more than 255 tiers — callers
    /// should have validated through
    /// [`crate::config::FleetConfig::validate`] first.
    pub fn new(tiers: &[CohortTier]) -> TierAssignment {
        if tiers.is_empty() {
            return TierAssignment {
                pattern: vec![0],
                tiers: 1,
            };
        }
        assert!(tiers.len() <= 255, "at most 255 tiers (u8 column)");
        let mut shares: Vec<u64> = tiers.iter().map(|t| u64::from(t.share)).collect();
        assert!(shares.iter().all(|&w| w > 0), "tier shares must be >= 1");
        let g = shares.iter().copied().fold(0, gcd);
        for w in &mut shares {
            *w /= g;
        }
        let period: u64 = shares.iter().sum();
        // Smooth weighted round-robin: each slot, every tier's counter
        // grows by its share and the largest counter (lowest index on
        // ties) wins the slot and pays back one full period. Each period
        // contains exactly `share` slots per tier, maximally interleaved.
        let mut pattern = Vec::with_capacity(period as usize);
        let mut current = vec![0i64; shares.len()];
        for _ in 0..period {
            for (c, &w) in current.iter_mut().zip(&shares) {
                *c += w as i64;
            }
            let best = (0..current.len())
                .max_by_key(|&t| (current[t], std::cmp::Reverse(t)))
                .expect("at least one tier");
            pattern.push(best as u8);
            current[best] -= period as i64;
        }
        TierAssignment {
            pattern,
            tiers: tiers.len(),
        }
    }

    /// The tier index of global client id `g`.
    #[inline]
    pub fn tier_of(&self, global_id: u64) -> u8 {
        self.pattern[(global_id % self.pattern.len() as u64) as usize]
    }

    /// Number of tiers in the assignment.
    pub fn tiers(&self) -> usize {
        self.tiers
    }

    /// Length of the repeating pattern (sum of gcd-reduced shares).
    pub fn period(&self) -> usize {
        self.pattern.len()
    }

    /// Exact tier population counts over the contiguous id window
    /// `[first, first + clients)`.
    pub fn counts(&self, first: u64, clients: usize) -> Vec<usize> {
        let mut counts = vec![0usize; self.tiers];
        for g in first..first + clients as u64 {
            counts[self.tier_of(g) as usize] += 1;
        }
        counts
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// The deterministic client→resolver map: global id `g` resolves through
/// resolver `hash(seed ⊕ salt, g) mod R`.
///
/// A hash (not a stride) so the resolver draw is independent of the tier
/// pattern; a function of the *global* id alone so it is invariant under
/// shard size, thread count and fleet slicing — the same client lands on
/// the same resolver in any decomposition, which the determinism tests
/// pin.
#[inline]
pub fn resolver_of(fleet_seed: u64, global_id: u64, resolvers: usize) -> u16 {
    debug_assert!(resolvers >= 1 && resolvers <= u16::MAX as usize + 1);
    let h = client_seed(fleet_seed ^ RESOLVER_ASSIGN_SALT, global_id);
    ((u128::from(h) * resolvers as u128) >> 64) as u16
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiers_with_shares(shares: &[u32]) -> Vec<CohortTier> {
        shares
            .iter()
            .enumerate()
            .map(|(i, &w)| CohortTier::chronos(&format!("t{i}"), w))
            .collect()
    }

    #[test]
    fn empty_tiers_is_one_homogeneous_tier() {
        let a = TierAssignment::new(&[]);
        assert_eq!(a.tiers(), 1);
        assert_eq!(a.period(), 1);
        for g in 0..100 {
            assert_eq!(a.tier_of(g), 0);
        }
    }

    /// The balance contract: any contiguous id window holds each tier
    /// within ±1 of its exact proportional share.
    #[test]
    fn windows_are_within_one_of_exact_share() {
        for shares in [
            vec![1u32],
            vec![1, 1],
            vec![3, 1],
            vec![2, 1, 1],
            vec![5, 3, 2],
            vec![7, 1],
            vec![50, 50], // gcd-reduced to [1, 1]
            vec![4, 2, 2],
        ] {
            let a = TierAssignment::new(&tiers_with_shares(&shares));
            let total: u64 = shares.iter().map(|&w| u64::from(w)).sum();
            for first in [0u64, 1, 7, 1000, 12_345] {
                for clients in [1usize, 5, 16, 100, 1009] {
                    let counts = a.counts(first, clients);
                    for (t, &w) in shares.iter().enumerate() {
                        let exact = clients as f64 * f64::from(w) / total as f64;
                        let got = counts[t] as f64;
                        assert!(
                            (got - exact).abs() <= 1.0,
                            "shares {shares:?} window [{first}, +{clients}): tier {t} \
                             got {got}, exact {exact}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn gcd_reduction_interleaves_large_equal_shares() {
        // 50/50 must alternate, not emit 50-long blocks.
        let a = TierAssignment::new(&tiers_with_shares(&[50, 50]));
        assert_eq!(a.period(), 2);
        assert_ne!(a.tier_of(0), a.tier_of(1));
    }

    #[test]
    fn assignment_is_a_pure_function_of_the_global_id() {
        let a = TierAssignment::new(&tiers_with_shares(&[3, 1]));
        let b = TierAssignment::new(&tiers_with_shares(&[3, 1]));
        for g in 0..1000 {
            assert_eq!(a.tier_of(g), b.tier_of(g));
        }
    }

    #[test]
    fn resolver_assignment_is_deterministic_and_seed_sensitive() {
        for g in 0..100 {
            assert_eq!(resolver_of(7, g, 8), resolver_of(7, g, 8));
            assert!(usize::from(resolver_of(7, g, 8)) < 8);
            assert_eq!(resolver_of(7, g, 1), 0);
        }
        // A different fleet seed reshuffles the assignment.
        let moved = (0..1000)
            .filter(|&g| resolver_of(7, g, 8) != resolver_of(8, g, 8))
            .count();
        assert!(moved > 500, "only {moved}/1000 clients moved across seeds");
    }

    #[test]
    fn resolver_assignment_is_roughly_uniform() {
        let (seed, r, n) = (42u64, 8usize, 16_000u64);
        let mut counts = vec![0usize; r];
        for g in 0..n {
            counts[usize::from(resolver_of(seed, g, r))] += 1;
        }
        let expected = n as f64 / r as f64;
        for (i, &c) in counts.iter().enumerate() {
            // ±5 sigma of the binomial spread — loose enough to be
            // deterministic-test-stable, tight enough to catch a broken mix.
            let sigma = (expected * (1.0 - 1.0 / r as f64)).sqrt();
            assert!(
                (c as f64 - expected).abs() < 5.0 * sigma,
                "resolver {i} got {c} of {n} (expected ~{expected:.0})"
            );
        }
    }

    #[test]
    fn tier_params_resolve_overrides() {
        let fleet_chronos = ChronosConfig::default();
        let mut tier = CohortTier::chronos("fast", 1);
        tier.poll_interval = Some(SimDuration::from_secs(16));
        tier.pool_size = Some(6);
        let p = TierParams::resolve(&tier, &fleet_chronos);
        assert_eq!(p.chronos.poll_interval, SimDuration::from_secs(16));
        assert_eq!(p.chronos.pool.queries, 6);
        assert_eq!(p.kind, ClientKind::Chronos);

        let mut plain = CohortTier::plain_ntp("plain", 1);
        let p = TierParams::resolve(&plain, &fleet_chronos);
        assert_eq!(p.plain_servers, PLAIN_DEFAULT_SERVERS);
        // Plain pool_size sets the server count, not pool.queries.
        plain.pool_size = Some(3);
        let p = TierParams::resolve(&plain, &fleet_chronos);
        assert_eq!(p.plain_servers, 3);
        assert_eq!(p.chronos.pool.queries, fleet_chronos.pool.queries);
    }

    #[test]
    fn secure_tier_params_resolve_defaults_and_overrides() {
        let fleet_chronos = ChronosConfig::default();

        // NTS: association pool defaults to the Chronos sample size so
        // the authenticated samples feed the same selection machinery.
        let mut nts = CohortTier::nts("nts", 1);
        let p = TierParams::resolve(&nts, &fleet_chronos);
        assert_eq!(p.kind, ClientKind::Nts);
        assert_eq!(p.plain_servers, fleet_chronos.sample_size);
        assert_eq!(
            p.key_lifetime_ns,
            SimDuration::from_secs(NTS_DEFAULT_KEY_LIFETIME_SECS).as_nanos()
        );
        assert_eq!(
            p.rekey_interval_ns,
            SimDuration::from_secs(NTS_DEFAULT_REKEY_SECS).as_nanos()
        );
        nts.pool_size = Some(7);
        nts.key_lifetime = Some(SimDuration::from_secs(900));
        nts.rekey_interval = Some(SimDuration::from_secs(600));
        let p = TierParams::resolve(&nts, &fleet_chronos);
        assert_eq!(p.plain_servers, 7);
        assert_eq!(p.key_lifetime_ns, SimDuration::from_secs(900).as_nanos());
        assert_eq!(p.rekey_interval_ns, SimDuration::from_secs(600).as_nanos());

        // Roughtime: M defaults to 3, overridable down to the Medalla
        // single-source degeneracy.
        let mut rt = CohortTier::roughtime("roughtime", 1);
        let p = TierParams::resolve(&rt, &fleet_chronos);
        assert_eq!(p.kind, ClientKind::Roughtime);
        assert_eq!(p.sources, ROUGHTIME_DEFAULT_SOURCES);
        rt.sources = Some(1);
        let p = TierParams::resolve(&rt, &fleet_chronos);
        assert_eq!(p.sources, 1);
    }

    #[test]
    #[should_panic(expected = "shares must be >= 1")]
    fn zero_share_rejected() {
        TierAssignment::new(&tiers_with_shares(&[2, 0]));
    }
}
