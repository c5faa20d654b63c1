//! Fleet configuration.

use crate::cohort::{CohortTier, TierParams};
use chronos::config::{ChronosConfig, PoolGenConfig};
use dnslab::zone::{POOL_ADDRS_PER_RESPONSE, POOL_NTP_TTL};
use netsim::time::{SimDuration, SimTime};

/// Returns the formatted message as an `Err` from the enclosing check
/// unless the condition holds.
macro_rules! ensure {
    ($ok:expr, $($why:tt)+) => {
        if !$ok {
            return Err(format!($($why)+));
        }
    };
}

/// The shared DNS-poisoning attack against the fleet's resolvers.
///
/// This is the population view of the paper's E1/E4/E8 attacks: *how* the
/// record lands in the cache (fragmentation, BGP interception, blind
/// spoofing) is the packet-level crates' subject; the fleet models the
/// consequence every mechanism shares — a poisoned `pool.ntp.org` entry
/// sitting in a resolver cache for its (attacker-chosen, huge) TTL,
/// served to **every client** whose pool-generation round falls inside
/// that window. With [`FleetConfig::resolvers`] > 1,
/// [`FleetAttack::poisoned_resolvers`] bounds *which* caches the attacker
/// reached — the knob behind E16's fraction-of-resolvers-poisoned sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetAttack {
    /// When the poisoned entry lands in the cache(s).
    pub at: SimTime,
    /// TTL of the poisoned records, seconds (paper: 86 401).
    pub ttl_secs: u32,
    /// Malicious A records per poisoned response (paper: 89).
    pub farm_size: usize,
    /// The time shift the malicious farm serves, ns (paper: ±500 ms+).
    pub shift_ns: i64,
    /// How many of the fleet's resolvers the attacker poisoned: resolvers
    /// `0..k` carry the entry, the rest stay clean. `None` poisons every
    /// resolver (the single-resolver legacy semantics).
    pub poisoned_resolvers: Option<usize>,
}

impl FleetAttack {
    /// The paper's default: an 89-server farm, day-long TTL, shifting by
    /// `shift`, every resolver poisoned.
    pub fn paper_default(at: SimTime, shift: SimDuration) -> Self {
        FleetAttack {
            at,
            ttl_secs: 86_401,
            farm_size: 89,
            shift_ns: shift.as_nanos() as i64,
            poisoned_resolvers: None,
        }
    }

    /// The same attack landing in only the first `k` resolver caches.
    pub fn with_poisoned_resolvers(self, k: usize) -> Self {
        FleetAttack {
            poisoned_resolvers: Some(k),
            ..self
        }
    }

    /// Whether resolver `r` is in the poisoned subset.
    pub fn poisons_resolver(&self, r: usize) -> bool {
        self.poisoned_resolvers.is_none_or(|k| r < k)
    }

    /// The poison window in nanoseconds: `[at, at + ttl)`.
    pub fn window_ns(&self) -> (u64, u64) {
        let from = self.at.as_nanos();
        (
            from,
            from.saturating_add(u64::from(self.ttl_secs) * 1_000_000_000),
        )
    }
}

/// Per-tier fault probabilities: the network-quality knobs of a
/// [`FaultPlan`], resolved per tier so a "datacenter" tier can run clean
/// while a "last mile" tier loses packets.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TierFaults {
    /// Probability that any single NTP sample (one server's response in a
    /// poll or panic round) is lost. Drawn per `(client, round, slot)`
    /// from the [`crate::rng::FaultLane::NtpSample`] /
    /// [`crate::rng::FaultLane::PanicSample`] substreams.
    pub ntp_loss: f64,
    /// Probability that any single DNS pool query SERVFAILs at the
    /// resolver (before the cache is consulted). Drawn per
    /// `(client, query)` from [`crate::rng::FaultLane::DnsQuery`].
    pub dns_servfail: f64,
}

impl TierFaults {
    /// Whether this tier injects any fault at all.
    pub fn is_inert(&self) -> bool {
        self.ntp_loss == 0.0 && self.dns_servfail == 0.0
    }
}

/// One resolver outage: the resolver answers nothing (neither cached nor
/// upstream) for `[start_ns, start_ns + duration_ns)` — except stale
/// serves when the plan's [`ServeStalePolicy`] allows them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutageWindow {
    /// Outage start, nanoseconds of sim time.
    pub start_ns: u64,
    /// Outage length in nanoseconds (must be positive).
    pub duration_ns: u64,
}

impl OutageWindow {
    /// First nanosecond *after* the outage.
    pub fn end_ns(&self) -> u64 {
        self.start_ns.saturating_add(self.duration_ns)
    }

    /// Whether `t_ns` falls inside the outage.
    pub fn contains(&self, t_ns: u64) -> bool {
        t_ns >= self.start_ns && t_ns < self.end_ns()
    }
}

/// RFC 8767 serve-stale: when a resolver cannot refresh (outage) or fails
/// outright (SERVFAIL), it may answer from an *expired* cache entry for up
/// to `max_stale_secs` past that entry's expiry, instead of failing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStalePolicy {
    /// Maximum staleness budget: an expired entry is served until
    /// `expiry + max_stale_secs` (RFC 8767 suggests 1–3 days; resolvers
    /// commonly configure far less).
    pub max_stale_secs: u64,
}

impl Default for ServeStalePolicy {
    fn default() -> Self {
        // A conservative hour — long enough to bridge short outages,
        // short against the paper's day-long poisoned TTLs.
        ServeStalePolicy {
            max_stale_secs: 3600,
        }
    }
}

/// Exponential backoff for plain-NTP boot resolution retries: attempt `k`
/// (0-based) that fails is retried after
/// `min(base · 2^k, cap) · (1 ± jitter·u)` where `u` is a uniform draw
/// from the client's [`crate::rng::FaultLane::RetryJitter`] substream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Delay after the first failure.
    pub base: SimDuration,
    /// Ceiling on the un-jittered delay.
    pub cap: SimDuration,
    /// Relative jitter amplitude in `[0, 1)`: the delay is scaled by a
    /// uniform factor in `[1 − jitter, 1 + jitter)`.
    pub jitter: f64,
    /// Total resolution attempts (first try included). After the last
    /// failure the client gives up and runs with an empty pool.
    pub max_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base: SimDuration::from_secs(4),
            cap: SimDuration::from_secs(256),
            jitter: 0.25,
            max_attempts: 8,
        }
    }
}

impl RetryPolicy {
    /// The jittered delay before retrying after failed attempt `attempt`
    /// (0-based), with `unit` the uniform `[0, 1)` jitter draw. Always at
    /// least 1 ns so retries advance sim time.
    pub fn delay_ns(&self, attempt: u32, unit: f64) -> u64 {
        let base = self.base.as_nanos() as f64;
        let cap = self.cap.as_nanos() as f64;
        let raw = (base * 2f64.powi(attempt.min(63) as i32)).min(cap);
        let scaled = raw * (1.0 + self.jitter * (2.0 * unit - 1.0));
        (scaled as u64).max(1)
    }
}

/// The fleet's deterministic fault-injection plan. The default plan is
/// *inert*: no losses, no SERVFAILs, no outages — and, by the stateless
/// substream construction in [`crate::rng`], an inert plan reproduces a
/// fault-free fleet byte for byte.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Fault probabilities applied to every tier without a per-tier
    /// override in `tiers`.
    pub all_tiers: TierFaults,
    /// Per-tier overrides, indexed like [`FleetConfig::tiers`] (entries
    /// beyond this list fall back to `all_tiers`).
    pub tiers: Vec<TierFaults>,
    /// Outage windows per resolver id (index `r` lists resolver `r`'s
    /// outages, sorted and non-overlapping; resolvers beyond the list
    /// never go down).
    pub outages: Vec<Vec<OutageWindow>>,
    /// Serve-stale behaviour during outages and SERVFAILs. `None`: a
    /// resolver that cannot answer fresh fails the query.
    pub serve_stale: Option<ServeStalePolicy>,
    /// Backoff schedule for plain-NTP boot-resolution retries (Chronos
    /// lanes own their retry machinery via `chronos::core`).
    pub retry: RetryPolicy,
}

impl FaultPlan {
    /// The fault probabilities for tier index `t`.
    pub fn tier_faults(&self, t: usize) -> TierFaults {
        self.tiers.get(t).copied().unwrap_or(self.all_tiers)
    }

    /// The outage windows of resolver `r` (empty when none configured).
    pub fn resolver_outages(&self, r: usize) -> &[OutageWindow] {
        self.outages.get(r).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Whether the plan injects no fault at all — the byte-identical
    /// legacy mode.
    pub fn is_inert(&self) -> bool {
        self.all_tiers.is_inert()
            && self.tiers.iter().all(TierFaults::is_inert)
            && self.outages.iter().all(Vec::is_empty)
    }

    /// Whether a DNS query by a tier-`t` client against resolver `r` can
    /// ever fail to produce a fresh answer — the gate deciding whether a
    /// plain-NTP client gets a retry schedule.
    pub fn dns_can_fail(&self, t: usize, r: usize) -> bool {
        self.tier_faults(t).dns_servfail > 0.0 || !self.resolver_outages(r).is_empty()
    }

    /// The plan's rules for a fleet of `resolvers` resolvers and
    /// `tier_count` tiers (see [`FleetConfig::check`]).
    fn check(&self, resolvers: usize, tier_count: usize) -> Result<(), String> {
        let check_probs = |f: &TierFaults, what: &str| {
            ensure!(
                f.ntp_loss.is_finite() && (0.0..=1.0).contains(&f.ntp_loss),
                "{what} ntp_loss {} outside [0, 1]",
                f.ntp_loss
            );
            ensure!(
                f.dns_servfail.is_finite() && (0.0..=1.0).contains(&f.dns_servfail),
                "{what} dns_servfail {} outside [0, 1]",
                f.dns_servfail
            );
            Ok(())
        };
        check_probs(&self.all_tiers, "fault plan")?;
        ensure!(
            self.tiers.len() <= tier_count,
            "fault plan overrides {} tiers but the fleet has {tier_count}",
            self.tiers.len()
        );
        for (t, f) in self.tiers.iter().enumerate() {
            check_probs(f, &format!("tier {t}"))?;
        }
        ensure!(
            self.outages.len() <= resolvers,
            "outage windows for {} resolvers but the fleet has {resolvers}",
            self.outages.len()
        );
        for (r, windows) in self.outages.iter().enumerate() {
            let mut prev_end = 0u64;
            for w in windows {
                ensure!(w.duration_ns > 0, "resolver {r}: zero-length outage");
                ensure!(
                    w.start_ns >= prev_end,
                    "resolver {r}: outage windows must be sorted and non-overlapping"
                );
                prev_end = w.end_ns();
            }
        }
        if let Some(stale) = &self.serve_stale {
            ensure!(stale.max_stale_secs > 0, "zero serve-stale budget");
        }
        ensure!(
            (1..=32).contains(&self.retry.max_attempts),
            "retry max_attempts {} outside 1..=32",
            self.retry.max_attempts
        );
        ensure!(
            self.retry.jitter.is_finite() && (0.0..1.0).contains(&self.retry.jitter),
            "retry jitter {} outside [0, 1)",
            self.retry.jitter
        );
        ensure!(!self.retry.base.is_zero(), "retry base delay must be > 0");
        ensure!(
            self.retry.cap >= self.retry.base,
            "retry cap below base delay"
        );
        Ok(())
    }
}

/// Configuration of a client population run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Fleet RNG seed; every client stream derives from it and the
    /// client's global id.
    pub seed: u64,
    /// Number of clients simulated.
    pub clients: usize,
    /// Global id of the first client. A fleet of N clients starting at id
    /// G steps clients G..G+N identically to any other slicing that covers
    /// them — the hook the equivalence proptests pin.
    pub first_client_id: u64,
    /// The Chronos parameters every client runs (pool cadence, sampling,
    /// §V mitigation knobs — all honoured) unless its tier overrides them.
    pub chronos: ChronosConfig,
    /// Population tiers (client kind, share, per-tier overrides — see
    /// [`CohortTier`]). Empty means the homogeneous legacy fleet: one
    /// implicit all-Chronos tier running the fleet-level `chronos` config.
    /// Clients map onto tiers by the balanced
    /// [`crate::cohort::TierAssignment`] pattern over their global ids.
    pub tiers: Vec<CohortTier>,
    /// Number of independent resolvers the fleet's clients hash onto
    /// (each with its own rotation phase, TTL draw and poisoned-or-not
    /// flag — see [`crate::resolver::ResolverModel::for_resolver`]).
    /// `1` (the default) reproduces the single-resolver engine exactly.
    pub resolvers: usize,
    /// Size of the benign server universe behind the pool rotation. Must
    /// be a multiple of `per_response` and at most `64 × per_response`.
    pub universe: usize,
    /// Addresses per benign DNS response (pool.ntp.org serves 4).
    pub per_response: usize,
    /// TTL of benign pool records (the shared cache holds one batch this
    /// long; pool.ntp.org uses 150 s).
    pub benign_ttl: SimDuration,
    /// Benign server clock imperfection: max |offset| in ms (per-sample
    /// mean-field draw).
    pub benign_offset_ms: u64,
    /// Max |drift| of a client's local clock, ppm (drawn per client).
    pub client_drift_ppm: f64,
    /// Standard deviation of per-sample path noise.
    pub jitter_std: SimDuration,
    /// Clients start pool generation staggered uniformly over this span
    /// (real fleets boot at independent times).
    pub stagger: SimDuration,
    /// `true`: all clients share one resolver cache (one poisoning hits
    /// everyone; benign batches are cached across clients). `false`: every
    /// client resolves independently — the mode where fleet members are
    /// provably independent of each other.
    pub shared_cache: bool,
    /// The attack, if any.
    pub attack: Option<FleetAttack>,
    /// Deterministic fault injection: per-tier loss/SERVFAIL
    /// probabilities, resolver outage windows, serve-stale policy and the
    /// plain-NTP retry schedule. The default plan is inert and reproduces
    /// the fault-free engine byte for byte.
    pub faults: FaultPlan,
    /// A client counts as *shifted* when |clock error| exceeds this bound
    /// (the paper's 100 ms safety bound).
    pub safety_bound: SimDuration,
    /// Cadence of the fraction-shifted time series.
    pub sample_every: SimDuration,
    /// Record per-client offset trajectories (small fleets / tests only:
    /// this is the memory cost the aggregate outputs exist to avoid).
    pub record_trajectories: bool,
    /// Default run length for [`crate::engine::Fleet::run`].
    pub horizon: SimDuration,
    /// Worker threads stepping the fleet inside one
    /// [`crate::engine::Fleet::run_until`] call: `1` (the default) steps
    /// sequentially on the calling thread, `0` uses every available core.
    /// A pure wall-clock knob — results and checkpoint bytes apart from
    /// this field are byte-identical for every value, which the
    /// determinism proptests pin. The engine also cuts its clients into
    /// shards from the value in force when it is built (see
    /// [`crate::engine`]); no result depends on that cut either.
    pub threads: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            seed: 1,
            clients: 10_000,
            first_client_id: 0,
            tiers: Vec::new(),
            resolvers: 1,
            chronos: ChronosConfig {
                poll_interval: SimDuration::from_secs(64),
                pool: PoolGenConfig {
                    queries: 12,
                    query_interval: SimDuration::from_secs(200),
                    ..PoolGenConfig::default()
                },
                ..ChronosConfig::default()
            },
            universe: 240,
            per_response: POOL_ADDRS_PER_RESPONSE,
            benign_ttl: SimDuration::from_secs(u64::from(POOL_NTP_TTL)),
            benign_offset_ms: 2,
            client_drift_ppm: 10.0,
            jitter_std: SimDuration::from_micros(500),
            stagger: SimDuration::from_secs(200),
            shared_cache: true,
            attack: None,
            faults: FaultPlan::default(),
            safety_bound: SimDuration::from_millis(100),
            sample_every: SimDuration::from_secs(60),
            record_trajectories: false,
            horizon: SimDuration::from_secs(4_000),
            threads: 1,
        }
    }
}

/// Upper bound on [`FleetConfig::resolvers`]: resolver ids live in a u16
/// state column.
pub const MAX_RESOLVERS: usize = u16::MAX as usize + 1;

impl FleetConfig {
    /// Rotation batches in the benign universe.
    pub fn rotation_batches(&self) -> usize {
        self.universe / self.per_response
    }

    /// The tier list with the empty-tiers default resolved: either the
    /// configured tiers, or the one implicit all-Chronos tier (labelled
    /// `"chronos"`, share 1) every pre-cohort fleet ran.
    pub fn effective_tiers(&self) -> Vec<TierParams> {
        let mut tiers = if self.tiers.is_empty() {
            vec![TierParams::resolve(
                &crate::cohort::CohortTier::chronos("chronos", 1),
                &self.chronos,
            )]
        } else {
            self.tiers
                .iter()
                .map(|t| TierParams::resolve(t, &self.chronos))
                .collect()
        };
        for (t, params) in tiers.iter_mut().enumerate() {
            params.faults = self.faults.tier_faults(t);
        }
        tiers
    }

    /// Checks internal consistency without panicking: the first rule the
    /// configuration breaks, as the message [`FleetConfig::validate`]
    /// panics with. A decoded checkpoint or sweep cursor runs this before
    /// its configuration builds anything.
    ///
    /// # Errors
    ///
    /// When the configuration cannot be simulated: zero clients, a
    /// universe that is not a whole number of response batches (or more
    /// than 64 of them — the per-client dedup bitmap's width), a zero
    /// sample cadence, a resolver or tier count outside its column, an
    /// inconsistent tier, Chronos config or fault plan.
    pub fn check(&self) -> Result<(), String> {
        ensure!(self.clients > 0, "a fleet needs at least one client");
        ensure!(self.per_response > 0, "responses must carry addresses");
        ensure!(
            self.universe.is_multiple_of(self.per_response),
            "universe {} must be a multiple of per_response {}",
            self.universe,
            self.per_response
        );
        ensure!(
            self.rotation_batches() >= 1 && self.rotation_batches() <= 64,
            "rotation batches {} outside the 1..=64 dedup-bitmap range",
            self.rotation_batches()
        );
        ensure!(
            !self.sample_every.is_zero(),
            "sample cadence must be positive"
        );
        ensure!(
            self.resolvers >= 1 && self.resolvers <= MAX_RESOLVERS,
            "resolver count {} outside 1..={MAX_RESOLVERS} (u16 column)",
            self.resolvers
        );
        ensure!(self.tiers.len() <= 255, "at most 255 tiers (u8 column)");
        for tier in &self.tiers {
            ensure!(tier.share >= 1, "tier '{}' has zero share", tier.label);
            match tier.kind {
                crate::cohort::ClientKind::PlainNtp | crate::cohort::ClientKind::Nts => {
                    ensure!(
                        tier.pool_size.is_none_or(|n| n >= 1),
                        "tier '{}' keeps zero servers",
                        tier.label
                    );
                }
                crate::cohort::ClientKind::Roughtime => {
                    let m = tier
                        .sources
                        .unwrap_or(crate::cohort::ROUGHTIME_DEFAULT_SOURCES);
                    ensure!(
                        (1..=crate::cohort::ROUGHTIME_MAX_SOURCES).contains(&m),
                        "roughtime tier '{}' wants {m} sources, outside 1..={} \
                         (u32 source-mask column)",
                        tier.label,
                        crate::cohort::ROUGHTIME_MAX_SOURCES
                    );
                }
                crate::cohort::ClientKind::Chronos => {}
            }
            if tier.kind == crate::cohort::ClientKind::Nts {
                ensure!(
                    tier.key_lifetime.is_none_or(|d| !d.is_zero()),
                    "nts tier '{}' has a zero key lifetime",
                    tier.label
                );
                ensure!(
                    tier.rekey_interval.is_none_or(|d| !d.is_zero()),
                    "nts tier '{}' has a zero re-key interval",
                    tier.label
                );
            }
        }
        for params in self.effective_tiers() {
            params.chronos.check()?;
        }
        self.chronos.check()?;
        self.faults.check(self.resolvers, self.tiers.len().max(1))
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics with [`FleetConfig::check`]'s message when the configuration
    /// cannot be simulated.
    pub fn validate(&self) {
        self.check().unwrap_or_else(|why| panic!("{why}"));
    }

    /// Resolved intra-fleet worker count: `threads`, with `0` mapped to
    /// the machine's available parallelism.
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            netsim::par::default_threads()
        } else {
            self.threads
        }
    }

    /// A seed-independent hash of the configuration *shape*: two configs
    /// with equal fingerprints differ at most in `seed` or `threads`, so
    /// their fleets are interchangeable containers for pooling (same
    /// client count, same columns — only the streams re-derive on reset,
    /// and the thread count never changes results).
    pub fn structural_fingerprint(&self) -> u64 {
        let mut shape = self.clone();
        shape.seed = 0;
        shape.threads = 0;
        netsim::pool::fingerprint_str(&format!("{shape:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        let cfg = FleetConfig::default();
        cfg.validate();
        assert_eq!(cfg.rotation_batches(), 60);
    }

    #[test]
    fn fingerprint_ignores_seed_and_threads_only() {
        let a = FleetConfig::default();
        let b = FleetConfig {
            seed: 999,
            threads: 8,
            ..FleetConfig::default()
        };
        let c = FleetConfig {
            clients: 11,
            ..FleetConfig::default()
        };
        assert_eq!(a.structural_fingerprint(), b.structural_fingerprint());
        assert_ne!(a.structural_fingerprint(), c.structural_fingerprint());
        // The cohort knobs are structural too: a different tier mix or
        // resolver count is a different simulation.
        let tiered = FleetConfig {
            tiers: vec![
                crate::cohort::CohortTier::chronos("chronos", 3),
                crate::cohort::CohortTier::plain_ntp("plain", 1),
            ],
            ..FleetConfig::default()
        };
        let multi_resolver = FleetConfig {
            resolvers: 8,
            ..FleetConfig::default()
        };
        assert_ne!(a.structural_fingerprint(), tiered.structural_fingerprint());
        assert_ne!(
            a.structural_fingerprint(),
            multi_resolver.structural_fingerprint()
        );
    }

    #[test]
    fn effective_tiers_default_to_one_chronos_tier() {
        let cfg = FleetConfig::default();
        let tiers = cfg.effective_tiers();
        assert_eq!(tiers.len(), 1);
        assert_eq!(tiers[0].label, "chronos");
        assert_eq!(tiers[0].kind, crate::cohort::ClientKind::Chronos);
        assert_eq!(tiers[0].chronos, cfg.chronos, "inherits the fleet config");
    }

    #[test]
    #[should_panic(expected = "resolver count")]
    fn zero_resolvers_rejected() {
        FleetConfig {
            resolvers: 0,
            ..FleetConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "zero share")]
    fn zero_tier_share_rejected() {
        let mut tier = crate::cohort::CohortTier::chronos("t", 1);
        tier.share = 0;
        FleetConfig {
            tiers: vec![tier],
            ..FleetConfig::default()
        }
        .validate();
    }

    #[test]
    fn threads_resolve() {
        let auto = FleetConfig {
            threads: 0,
            ..FleetConfig::default()
        };
        assert!(auto.effective_threads() >= 1);
        let fixed = FleetConfig {
            threads: 3,
            ..FleetConfig::default()
        };
        assert_eq!(fixed.effective_threads(), 3);
    }

    #[test]
    fn check_reports_what_validate_panics_with() {
        assert_eq!(FleetConfig::default().check(), Ok(()));
        let still = FleetConfig {
            sample_every: SimDuration::ZERO,
            ..FleetConfig::default()
        };
        assert_eq!(
            still.check(),
            Err("sample cadence must be positive".to_string())
        );
        // The Chronos and fault-plan rules answer through the same form.
        let mut over_trimmed = FleetConfig::default();
        over_trimmed.chronos.trim = 8;
        assert!(over_trimmed
            .check()
            .is_err_and(|why| why.contains("leaves no survivors")));
        let mut jittery = FleetConfig::default();
        jittery.faults.retry.jitter = 1.0;
        assert!(jittery
            .check()
            .is_err_and(|why| why.contains("retry jitter")));
    }

    #[test]
    #[should_panic(expected = "sample cadence must be positive")]
    fn zero_sample_cadence_rejected() {
        FleetConfig {
            sample_every: SimDuration::ZERO,
            ..FleetConfig::default()
        }
        .validate();
    }

    #[test]
    fn attack_window_is_ttl_long() {
        let attack =
            FleetAttack::paper_default(SimTime::from_secs(1000), SimDuration::from_millis(500));
        let (from, until) = attack.window_ns();
        assert_eq!(from, 1_000_000_000_000);
        assert_eq!(until - from, 86_401_000_000_000);
        assert_eq!(attack.farm_size, 89);
        assert_eq!(attack.shift_ns, 500_000_000);
    }

    #[test]
    fn default_fault_plan_is_inert_and_structural() {
        let plan = FaultPlan::default();
        assert!(plan.is_inert());
        assert!(!plan.dns_can_fail(0, 0));
        assert_eq!(plan.tier_faults(5), TierFaults::default());
        assert!(plan.resolver_outages(3).is_empty());
        // The plan is part of the structural fingerprint: a faulty fleet
        // is never pooled into a fault-free container.
        let clean = FleetConfig::default();
        let faulty = FleetConfig {
            faults: FaultPlan {
                all_tiers: TierFaults {
                    ntp_loss: 0.05,
                    ..TierFaults::default()
                },
                ..FaultPlan::default()
            },
            ..FleetConfig::default()
        };
        faulty.validate();
        assert_ne!(
            clean.structural_fingerprint(),
            faulty.structural_fingerprint()
        );
    }

    #[test]
    fn retry_delays_double_to_the_cap_with_bounded_jitter() {
        let retry = RetryPolicy::default();
        // Centre draw (u = 0.5): pure exponential, capped.
        assert_eq!(retry.delay_ns(0, 0.5), 4_000_000_000);
        assert_eq!(retry.delay_ns(1, 0.5), 8_000_000_000);
        assert_eq!(retry.delay_ns(6, 0.5), 256_000_000_000, "hits the cap");
        assert_eq!(retry.delay_ns(30, 0.5), 256_000_000_000, "stays capped");
        // Jitter spans ±25 % around the centre.
        assert_eq!(retry.delay_ns(0, 0.0), 3_000_000_000);
        assert!(retry.delay_ns(0, 0.999) < 5_000_000_000);
        assert!(retry.delay_ns(0, 0.999) > 4_990_000_000);
        // Degenerate policies still advance time.
        let tiny = RetryPolicy {
            base: SimDuration::from_nanos(1),
            cap: SimDuration::from_nanos(1),
            jitter: 0.99,
            max_attempts: 1,
        };
        assert!(tiny.delay_ns(0, 0.0) >= 1);
    }

    #[test]
    fn outage_windows_cover_half_open_ranges() {
        let w = OutageWindow {
            start_ns: 100,
            duration_ns: 50,
        };
        assert_eq!(w.end_ns(), 150);
        assert!(!w.contains(99));
        assert!(w.contains(100));
        assert!(w.contains(149));
        assert!(!w.contains(150));
    }

    #[test]
    fn effective_tiers_stamp_per_tier_faults() {
        let cfg = FleetConfig {
            tiers: vec![
                crate::cohort::CohortTier::chronos("clean", 1),
                crate::cohort::CohortTier::plain_ntp("lossy", 1),
            ],
            faults: FaultPlan {
                all_tiers: TierFaults {
                    ntp_loss: 0.01,
                    dns_servfail: 0.0,
                },
                tiers: vec![
                    TierFaults::default(),
                    TierFaults {
                        ntp_loss: 0.15,
                        dns_servfail: 0.05,
                    },
                ],
                ..FaultPlan::default()
            },
            ..FleetConfig::default()
        };
        cfg.validate();
        let tiers = cfg.effective_tiers();
        assert!(tiers[0].faults.is_inert(), "explicit per-tier override");
        assert_eq!(tiers[1].faults.ntp_loss, 0.15);
        // Without per-tier overrides, every tier inherits `all_tiers`.
        let blanket = FleetConfig {
            tiers: cfg.tiers.clone(),
            faults: FaultPlan {
                all_tiers: TierFaults {
                    ntp_loss: 0.01,
                    dns_servfail: 0.0,
                },
                ..FaultPlan::default()
            },
            ..FleetConfig::default()
        };
        for t in blanket.effective_tiers() {
            assert_eq!(t.faults.ntp_loss, 0.01);
        }
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn out_of_range_loss_rejected() {
        FleetConfig {
            faults: FaultPlan {
                all_tiers: TierFaults {
                    ntp_loss: 1.5,
                    dns_servfail: 0.0,
                },
                ..FaultPlan::default()
            },
            ..FleetConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "sorted and non-overlapping")]
    fn overlapping_outages_rejected() {
        FleetConfig {
            faults: FaultPlan {
                outages: vec![vec![
                    OutageWindow {
                        start_ns: 0,
                        duration_ns: 100,
                    },
                    OutageWindow {
                        start_ns: 50,
                        duration_ns: 100,
                    },
                ]],
                ..FaultPlan::default()
            },
            ..FleetConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "outage windows for")]
    fn outages_beyond_resolver_count_rejected() {
        FleetConfig {
            resolvers: 1,
            faults: FaultPlan {
                outages: vec![Vec::new(), Vec::new()],
                ..FaultPlan::default()
            },
            ..FleetConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "multiple of per_response")]
    fn ragged_universe_rejected() {
        FleetConfig {
            universe: 241,
            ..FleetConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "dedup-bitmap")]
    fn oversized_universe_rejected() {
        FleetConfig {
            universe: 400,
            ..FleetConfig::default()
        }
        .validate();
    }
}
