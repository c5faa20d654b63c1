//! The fleet engine: struct-of-arrays client state, sharded into
//! independently-steppable slabs, each client stepped straight through a
//! slice.
//!
//! # Event model
//!
//! Every client owns exactly one pending deadline — its next pool-
//! generation round or its next poll — in its shard's `deadline_ns`
//! column. A slice visits the shard's clients in index order and runs each
//! one through every event with a deadline at or before the slice end
//! before moving to the next. No output depends on the order in which
//! clients run: an event reads and writes only its own client's columns
//! and the immutable DNS view; the offset histogram adds integer counts;
//! and sample instant s counts each client's clock after exactly its own
//! events with a deadline before s. So a run's outcome is a pure function
//! of the configuration, independent of thread count, shard size and
//! slicing.
//!
//! # Cohorts: heterogeneous tiers across multiple resolvers
//!
//! A fleet is a set of [`CohortTier`](crate::cohort::CohortTier)s —
//! client kind (Chronos, plain-NTP, NTS or Roughtime), population share,
//! per-tier configuration overrides — whose clients hash across
//! [`FleetConfig::resolvers`] independent resolver caches. Both
//! assignments are pure functions of the global client id
//! ([`crate::cohort`]), materialized into `tier`/`resolver` state columns
//! at rebuild time. Chronos lanes conclude rounds through
//! [`chronos::core::conclude_sample_round`]; plain-NTP lanes through
//! [`chronos::core::conclude_plain_round`] (which delegates to
//! `ntplab`'s intersection → cluster → combine pipeline), so each kind
//! runs the *same* decision code as its packet-level reference client.
//! An empty tier list with `resolvers = 1` is the homogeneous legacy
//! fleet, byte-identical to the pre-cohort engine.
//!
//! The secure tiers model partial secure-time deployment (E18). **NTS**
//! clients poll Chronos-shaped over an *authenticated* association —
//! poisoned resolvers cannot alter their samples — but the NTS-KE
//! bootstrap (boot, and every re-key boundary) resolves the KE server
//! name through the client's resolver, so an association inside the
//! poison window hands the client to attacker servers for the key
//! lifetime (`assoc_expiry_ns` column; re-key boundaries interleave with
//! polls via [`Phase::PoolGeneration`] flips). **Roughtime** clients
//! resolve M sources through M distinct resolvers at boot
//! (`assoc_sources` packed bitmask column) and cross-reference their
//! signed midpoints by strict majority every fetch
//! ([`chronos::core::conclude_roughtime_round`]); rounds without a
//! majority are *detected* inconsistencies — counted, never applied.
//!
//! # Sharded parallel stepping
//!
//! A fleet's clients are partitioned into contiguous shards of
//! [`FleetConfig::shard_size`] clients. Each shard owns its slice of
//! every state column *plus* its own selection scratch and streaming
//! aggregates, so stepping one shard touches no other shard's
//! memory. The only cross-client coupling — the shared resolver caches —
//! is resolved before stepping by a deterministic pre-pass
//! ([`ResolverModel::timeline`], one per resolver): pool-query times are
//! static (`boot + k·interval`, independent of the answers), so each
//! cache's full answer timeline is replayed once and then read immutably
//! by every shard. After the pre-pass, shards are embarrassingly
//! parallel: [`Fleet::run_until`] fans them over
//! [`netsim::par::for_each_mut`] (the same lock-free claim-cursor
//! dispatcher Monte-Carlo trials use) and the report merges shard
//! aggregates by integer addition, so a run is byte-identical for every
//! [`FleetConfig::threads`] and [`FleetConfig::shard_size`] value, which
//! the determinism proptests pin.
//!
//! # Batched request/response rounds
//!
//! A poll round is **batched request/response**: instead of exchanging
//! packets, the engine draws the round's samples directly from the
//! client's servers, produces per-sample observed offsets (server offset
//! − client offset + path jitter), and concludes the round through the
//! *real* decision machinery in [`chronos::core`] — the same code the
//! packet-level clients run. Corrections land on real
//! [`ntplab::clock::LocalClock`]s.
//!
//! Every poll lane draws through one sampling kernel, which visits the
//! servers in one of three orders:
//!
//! * `Subsample { m }` — Chronos and NTS polls: m picks without
//!   replacement, malicious block first;
//! * `Whole` — plain-NTP polls and panic rounds: every server, malicious
//!   block first;
//! * `Sources` — Roughtime fetches: the resolved sources in ascending
//!   slot order.
//!
//! A lying server (the attacker's farm, or a captured source) draws only
//! its noise; an honest one draws its benign offset and then its noise.
//! Losses then drop samples on the lane's own [`FaultLane`]. Each lane
//! keeps its own conclude call and scheduling.
//!
//! # Examples
//!
//! Build a small mixed fleet and run it to its horizon ([`Fleet::run`]):
//!
//! ```
//! use fleet::cohort::CohortTier;
//! use fleet::config::FleetConfig;
//! use fleet::engine::Fleet;
//!
//! let config = FleetConfig {
//!     clients: 64,
//!     // 3:1 Chronos to plain-NTP, hashed over two resolver caches.
//!     tiers: vec![
//!         CohortTier::chronos("chronos", 3),
//!         CohortTier::plain_ntp("plain ntp", 1),
//!     ],
//!     resolvers: 2,
//!     horizon: netsim::time::SimDuration::from_secs(2_000),
//!     ..FleetConfig::default()
//! };
//! let mut fleet = Fleet::new(config);
//! let report = fleet.run();
//! assert_eq!(report.clients, 64);
//! // No attack: every tier stays synced, nobody drifts past the bound.
//! assert_eq!(report.final_shifted_fraction, 0.0);
//! let labels: Vec<&str> = report.tiers.iter().map(|t| t.label.as_str()).collect();
//! assert_eq!(labels, ["chronos", "plain ntp"]);
//! assert_eq!(report.tiers.iter().map(|t| t.clients).sum::<usize>(), 64);
//! ```

use crate::checkpoint::{self, CheckpointError, Reader, Writer};
use crate::cohort::{resolver_of, ClientKind, TierAssignment, TierParams};
use crate::config::FleetConfig;
use crate::metrics::FleetMetrics;
use crate::resolver::{DnsAnswer, QuerySchedule, ResolverModel, ResolverTimeline, STALE_TTL_SECS};
use crate::rng::{client_seed, fault_f64, FaultLane, FleetRng};
use crate::stats::{FaultCounters, OffsetHistogram, SecureCounters};
use chronos::core::{
    self, ChronosStats, CoreState, Phase, PlainRoundOutcome, RoughtimeOutcome, RoundOutcome,
};
use chronos::select::SelectScratch;
use netsim::time::{SimDuration, SimTime};
use ntplab::clock::LocalClock;
use ntplab::select::PeerSample;

/// Quantiles the report reads off the offset histogram.
const TRACKED_QUANTILES: [f64; 3] = [0.5, 0.9, 0.99];

/// The report's histogram resolution (bins per decade of |offset|).
const HISTOGRAM_BINS_PER_DECADE: usize = 8;

/// The resolution each shard records at (bins per decade of |offset|).
/// Every report edge is also one of these edges, so the report's
/// histogram is a sum of runs of fine bins, and the fine bins bound each
/// quantile within 10^(1/64) − 1 ≈ 3.7 %.
const FINE_BINS_PER_DECADE: usize = 64;

/// Sentinel in the packed `last_update` column meaning "no accepted
/// correction yet" (a real update at `u64::MAX` ns is unreachable — that
/// is five centuries of simulated time).
const NO_UPDATE: u64 = u64::MAX;

/// Aggregate outcome of a fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Clients simulated.
    pub clients: usize,
    /// Simulated end time.
    pub end: SimTime,
    /// `(seconds, fraction)` series: share of the fleet whose |clock
    /// error| exceeds the safety bound, sampled at the configured cadence.
    pub shifted: Vec<(f64, f64)>,
    /// The fraction at the end of the run.
    pub final_shifted_fraction: f64,
    /// Clients whose pool contains at least one malicious server.
    pub poisoned_clients: u64,
    /// Clients that completed pool generation.
    pub synced_clients: u64,
    /// Element-wise sum of every client's [`ChronosStats`].
    pub totals: ChronosStats,
    /// `(p, |offset| ns)` for p = 0.5, 0.9 and 0.99 over every concluded
    /// round's clock error, read off a 64-bins-per-decade histogram of
    /// that stream: each value is the upper edge of the bin holding the
    /// nearest-rank ⌈p·n⌉-th observation ([`OffsetHistogram::quantile`]),
    /// an upper bound at most one bin width (≈ 3.7 %) above the exact
    /// quantile. Two rules cover the ends: with no observation every
    /// value is 0.0, and a rank in the open-ended overflow bin (|offset| ≥
    /// 10¹² ns) reports the last edge, 10¹² ns. Like every other field,
    /// the values are independent of threads, shard size and slicing.
    pub quantiles: Vec<(f64, f64)>,
    /// Fixed-bin histogram of the same stream, 8 bins per decade.
    pub histogram: OffsetHistogram,
    /// Client events stepped (pool rounds + polls), for throughput
    /// accounting.
    pub events: u64,
    /// Fleet-wide fault-injection counters (all zero without a
    /// [`crate::config::FaultPlan`]).
    pub faults: FaultCounters,
    /// Fleet-wide secure-tier counters (all zero without NTS/Roughtime
    /// tiers).
    pub secure: SecureCounters,
    /// Per-tier breakdown, in tier order (a single implicit `"chronos"`
    /// tier for homogeneous fleets). Tier sums reproduce the fleet-wide
    /// fields above.
    pub tiers: Vec<TierBreakdown>,
}

/// One tier's slice of a [`FleetReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct TierBreakdown {
    /// Tier label (from [`crate::cohort::CohortTier::label`]).
    pub label: String,
    /// Which client implementation the tier runs.
    pub kind: ClientKind,
    /// Clients assigned to this tier.
    pub clients: usize,
    /// `(seconds, fraction-of-tier)` shifted series, same sample schedule
    /// as the fleet-wide series.
    pub shifted: Vec<(f64, f64)>,
    /// Fraction of the tier beyond the safety bound at the end.
    pub final_shifted_fraction: f64,
    /// Tier clients with at least one malicious server in their pool.
    pub poisoned_clients: u64,
    /// Tier clients past pool generation (plain-NTP: resolved).
    pub synced_clients: u64,
    /// Element-wise sum of the tier's client counters.
    pub totals: ChronosStats,
    /// Element-wise sum of the tier's fault-injection counters.
    pub faults: FaultCounters,
    /// Element-wise sum of the tier's secure-tier counters (captured
    /// associations, detected inconsistencies, completed re-keys) — all
    /// zero for Chronos and plain-NTP tiers.
    pub secure: SecureCounters,
}

/// A cheap mid-run snapshot of a fleet's position and health — what a
/// supervising process (`chronosd`) polls between [`Fleet::run_until`]
/// slices without paying for a full [`FleetReport`] merge.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetProgress {
    /// Current simulated time.
    pub now: SimTime,
    /// The configured horizon ([`FleetConfig::horizon`]).
    pub horizon: SimDuration,
    /// Clients simulated.
    pub clients: usize,
    /// Client events stepped so far (pool rounds + polls).
    pub events: u64,
    /// Clients past pool generation.
    pub synced_clients: u64,
    /// Fraction of the fleet beyond the safety bound right now.
    pub shifted_fraction: f64,
    /// Wall-clock throughput over the most recent [`Fleet::run_until`]
    /// slice; `None` before the first slice (and right after a restore).
    /// Wall-clock only — two byte-identical runs may disagree here.
    pub throughput: Option<FleetThroughput>,
}

/// Wall-clock throughput of one completed [`Fleet::run_until`] slice.
///
/// This is observability data, not simulation state: it is measured on
/// the host's monotonic clock, excluded from checkpoints, and never fed
/// back into the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetThroughput {
    /// Wall seconds the slice took.
    pub wall_secs: f64,
    /// Client events stepped per wall second.
    pub events_per_sec: f64,
    /// Simulated seconds advanced per wall second.
    pub sim_per_wall: f64,
}

impl FleetProgress {
    /// Run completion in `[0, 1]` (now / horizon, clamped).
    pub fn fraction_done(&self) -> f64 {
        let h = self.horizon.as_nanos();
        if h == 0 {
            return 1.0;
        }
        (self.now.as_nanos() as f64 / h as f64).min(1.0)
    }
}

/// Per-client activity counters at column width: a single client's per-run
/// counts are bounded by the horizon (tens of thousands of rounds at the
/// extreme), so 32 bits per counter suffice; the fleet-wide report widens
/// into the shared 64-bit [`ChronosStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct CompactStats {
    pool_queries: u32,
    pool_failures: u32,
    polls: u32,
    accepts: u32,
    rejects: u32,
    panics: u32,
}

impl CompactStats {
    fn widen(self) -> ChronosStats {
        ChronosStats {
            pool_queries: u64::from(self.pool_queries),
            pool_failures: u64::from(self.pool_failures),
            polls: u64::from(self.polls),
            accepts: u64::from(self.accepts),
            rejects: u64::from(self.rejects),
            panics: u64::from(self.panics),
        }
    }

    fn narrow(stats: &ChronosStats) -> CompactStats {
        let squeeze = |v: u64| u32::try_from(v).expect("per-client counter exceeds u32");
        CompactStats {
            pool_queries: squeeze(stats.pool_queries),
            pool_failures: squeeze(stats.pool_failures),
            polls: squeeze(stats.polls),
            accepts: squeeze(stats.accepts),
            rejects: squeeze(stats.rejects),
            panics: squeeze(stats.panics),
        }
    }
}

/// Per-client fault counters at column width (cf. [`CompactStats`]): a
/// client's per-run fault events are horizon-bounded, so u32 suffices;
/// the report widens into [`FaultCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct CompactFaults {
    ntp_losses: u32,
    dns_servfails: u32,
    outage_hits: u32,
    stale_served: u32,
    boot_retries: u32,
}

impl CompactFaults {
    fn widen(self) -> FaultCounters {
        FaultCounters {
            ntp_losses: u64::from(self.ntp_losses),
            dns_servfails: u64::from(self.dns_servfails),
            outage_hits: u64::from(self.outage_hits),
            stale_served: u64::from(self.stale_served),
            boot_retries: u64::from(self.boot_retries),
        }
    }
}

/// Per-client secure-tier counters at column width (cf. [`CompactStats`]):
/// association and cross-check events are horizon-bounded, so u32
/// suffices; the report widens into [`SecureCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct CompactSecure {
    captured: u32,
    inconsistent: u32,
    rekeys: u32,
}

impl CompactSecure {
    fn widen(self) -> SecureCounters {
        SecureCounters {
            captured_associations: u64::from(self.captured),
            detected_inconsistencies: u64::from(self.inconsistent),
            rekeys: u64::from(self.rekeys),
        }
    }
}

/// The DNS model a shard consults during pool generation, one entry per
/// resolver (indexed by the client's `resolver` column): the precomputed
/// shared-cache timelines, or the read-only independent resolvers.
#[derive(Debug, Clone, Copy)]
enum DnsView<'a> {
    Shared(&'a [ResolverTimeline]),
    Independent(&'a [ResolverModel]),
}

/// The order in which the poll lanes' sampling kernel
/// ([`Shard::draw_samples`]) visits a client's servers.
#[derive(Debug, Clone, Copy)]
enum Draw {
    /// `m` picks without replacement, malicious block first: Chronos and
    /// NTS polls.
    Subsample { m: usize },
    /// Every server, malicious block first: plain-NTP polls and panic
    /// rounds.
    Whole,
    /// Roughtime's resolved sources, in ascending slot order.
    Sources,
}

/// One contiguous slab of the fleet: a private copy of every per-client
/// column plus its own scratch buffers and streaming aggregates. Shards
/// never touch each other's state, so a fleet run can step them
/// concurrently and merge the aggregates afterwards.
#[derive(Debug)]
struct Shard {
    /// Global id of this shard's first client.
    first_global: u64,
    // --- struct-of-arrays client state (one entry per local client) ---
    clocks: Vec<LocalClock>,
    phase: Vec<Phase>,
    /// Tier index into the fleet's resolved [`TierParams`] list.
    tier: Vec<u8>,
    /// Resolver id the client hashes onto ([`resolver_of`]).
    resolver: Vec<u16>,
    retries: Vec<u32>,
    /// Envelope anchor, packed: ns of the last accepted correction, or
    /// [`NO_UPDATE`]. (A packed u64 column instead of `Option<SimTime>`
    /// halves this column's footprint.)
    last_update_ns: Vec<u64>,
    rng: Vec<u64>,
    stats: Vec<CompactStats>,
    /// Fault-injection counters (all zero when the plan is inert).
    faults: Vec<CompactFaults>,
    pool_rounds: Vec<u16>,
    /// Bitmap of benign rotation batches gathered (dedup, ≤ 64 residues).
    /// Plain-NTP lanes use bit 0 as a "resolved benign servers" marker.
    benign_batches: Vec<u64>,
    /// Malicious servers admitted to the pool (post-mitigation).
    malicious: Vec<u32>,
    /// The client's one pending event: its next pool round or poll, ns.
    deadline_ns: Vec<u64>,
    /// NTS lanes: ns the current association's keys expire at (0 = no
    /// usable association — pre-boot, or every re-key so far failed).
    assoc_expiry_ns: Vec<u64>,
    /// Roughtime lanes, packed: low 16 bits = sources resolved at boot,
    /// high 16 bits = the subset resolved through a poisoned cache.
    assoc_sources: Vec<u32>,
    /// Secure-tier counters (all zero for Chronos/plain-NTP clients).
    secure: Vec<CompactSecure>,
    /// Lazily sized: empty unless trajectory capture is opted in.
    traces: Vec<Vec<(SimTime, i64)>>,
    // --- machinery ---
    scratch: SelectScratch,
    offsets_buf: Vec<i64>,
    /// Scratch for the plain-NTP pipeline's [`PeerSample`]s.
    plain_samples: Vec<PeerSample>,
    /// The first sample instant no slice has counted yet.
    next_sample_ns: u64,
    /// Clients beyond the safety bound at each emitted sample, broken
    /// down by tier: sample-major with stride `tier_count` (the sample
    /// schedule is fleet-global, so chunk k is the per-tier counts at
    /// `k · sample_every` for every shard).
    shifted_counts: Vec<u64>,
    /// |offset| of every concluded round, [`FINE_BINS_PER_DECADE`].
    histogram: OffsetHistogram,
    events: u64,
}

impl Shard {
    /// An empty shard awaiting [`Shard::rebuild`].
    fn empty() -> Shard {
        Shard {
            first_global: 0,
            clocks: Vec::new(),
            phase: Vec::new(),
            tier: Vec::new(),
            resolver: Vec::new(),
            retries: Vec::new(),
            last_update_ns: Vec::new(),
            rng: Vec::new(),
            stats: Vec::new(),
            faults: Vec::new(),
            pool_rounds: Vec::new(),
            benign_batches: Vec::new(),
            malicious: Vec::new(),
            deadline_ns: Vec::new(),
            assoc_expiry_ns: Vec::new(),
            assoc_sources: Vec::new(),
            secure: Vec::new(),
            traces: Vec::new(),
            scratch: SelectScratch::new(),
            offsets_buf: Vec::new(),
            plain_samples: Vec::new(),
            next_sample_ns: 0,
            shifted_counts: Vec::new(),
            histogram: OffsetHistogram::log_scale(FINE_BINS_PER_DECADE),
            events: 0,
        }
    }

    /// The single construction path: sizes every column for `len` clients
    /// starting at global id `first_global` (reusing allocations when the
    /// layout is unchanged) and reseeds each client at time zero. Used
    /// identically by `Fleet::new`, `reset` and `reconfigure`, so shard
    /// construction cannot drift between those paths.
    fn rebuild(
        &mut self,
        config: &FleetConfig,
        assignment: &TierAssignment,
        first_global: u64,
        len: usize,
    ) {
        self.first_global = first_global;
        // -- resize --
        self.clocks.resize(len, LocalClock::perfect());
        self.phase.resize(len, Phase::PoolGeneration);
        self.tier.resize(len, 0);
        self.resolver.resize(len, 0);
        self.retries.resize(len, 0);
        self.last_update_ns.resize(len, NO_UPDATE);
        self.rng.resize(len, 0);
        self.stats.resize(len, CompactStats::default());
        self.faults.resize(len, CompactFaults::default());
        self.pool_rounds.resize(len, 0);
        self.benign_batches.resize(len, 0);
        self.malicious.resize(len, 0);
        self.deadline_ns.resize(len, 0);
        self.assoc_expiry_ns.resize(len, 0);
        self.assoc_sources.resize(len, 0);
        self.secure.resize(len, CompactSecure::default());
        if config.record_trajectories {
            self.traces.resize(len, Vec::new());
            for trace in &mut self.traces {
                trace.clear();
            }
        } else {
            self.traces = Vec::new();
        }
        // -- rewind the machinery --
        self.next_sample_ns = 0;
        self.shifted_counts.clear();
        self.histogram.reset();
        self.events = 0;
        // -- reseed every client --
        for i in 0..len {
            let global = self.first_global + i as u64;
            let (start_ns, drift, rng_state) = client_boot(config, global);
            self.clocks[i] = LocalClock::new(0, drift);
            self.phase[i] = Phase::PoolGeneration;
            self.tier[i] = assignment.tier_of(global);
            self.resolver[i] = resolver_of(config.seed, global, config.resolvers);
            self.retries[i] = 0;
            self.last_update_ns[i] = NO_UPDATE;
            self.rng[i] = rng_state;
            self.stats[i] = CompactStats::default();
            self.faults[i] = CompactFaults::default();
            self.pool_rounds[i] = 0;
            self.benign_batches[i] = 0;
            self.malicious[i] = 0;
            self.assoc_expiry_ns[i] = 0;
            self.assoc_sources[i] = 0;
            self.secure[i] = CompactSecure::default();
            self.schedule(i, start_ns);
        }
    }

    /// Runs the shard up to and including every event with a deadline at
    /// or before `target` ns: each client in index order, straight
    /// through its events. Before an event at deadline d the client is
    /// counted into every sample instant s ≤ d of the slice it has not yet
    /// been counted into, and after its last event into the remaining
    /// instants ≤ `target`, so instant s sees its clock after exactly its
    /// own events with a deadline before s (see the module docs).
    ///
    /// `obs` is a pure wall-clock side channel: when attached it records
    /// the shard's slice wall time and event count into `obs` atomics,
    /// and nothing in this method reads it back — simulation state is
    /// byte-identical with and without it.
    fn run_until(
        &mut self,
        target: u64,
        config: &FleetConfig,
        tiers: &[TierParams],
        dns: DnsView<'_>,
        obs: Option<&FleetMetrics>,
    ) {
        let slice_start = obs.map(|_| std::time::Instant::now());
        let events_before = self.events;
        // The slice's sample instants, first + k·every for k < samples,
        // each one a chunk of per-tier counts appended to the column.
        let every = config.sample_every.as_nanos();
        let first = self.next_sample_ns;
        let samples = if first <= target {
            (target - first) / every + 1
        } else {
            0
        };
        let base = self.shifted_counts.len();
        self.shifted_counts
            .resize(base + samples as usize * tiers.len(), 0);
        let chunk = |k: u64| base + k as usize * tiers.len();
        let bound = config.safety_bound.as_nanos() as i64;
        let mut i = 0;
        while i < self.deadline_ns.len() {
            if samples == 0 {
                // Nothing to count: go straight to the next client with an
                // event by `target`, so one with none costs a load and a
                // compare.
                match self.deadline_ns[i..].iter().position(|&d| d <= target) {
                    Some(skip) => i += skip,
                    None => break,
                }
            }
            let mut counted = 0;
            while self.deadline_ns[i] <= target {
                let at_ns = self.deadline_ns[i];
                while counted < samples && first + counted * every <= at_ns {
                    self.count_shifted(i, first + counted * every, bound, chunk(counted));
                    counted += 1;
                }
                self.events += 1;
                self.step(i, at_ns, config, tiers, dns);
            }
            for k in counted..samples {
                self.count_shifted(i, first + k * every, bound, chunk(k));
            }
            i += 1;
        }
        self.next_sample_ns = first + samples * every;
        if let (Some(m), Some(start)) = (obs, slice_start) {
            m.shard_slice.record(start.elapsed());
            m.events.add(self.events - events_before);
        }
    }

    /// Runs client `i`'s pending event at `at_ns`. A client's one pending
    /// event is a pool round exactly while it is generating its pool, a
    /// poll afterwards — the phase column *is* the event kind; the tier
    /// column picks the decision machinery.
    fn step(
        &mut self,
        i: usize,
        at_ns: u64,
        config: &FleetConfig,
        tiers: &[TierParams],
        dns: DnsView<'_>,
    ) {
        let tier = &tiers[self.tier[i] as usize];
        match (tier.kind, self.phase[i]) {
            (ClientKind::Chronos, Phase::PoolGeneration) => {
                self.pool_round(i, at_ns, config, tier, dns)
            }
            (ClientKind::Chronos, _) => self.poll_round(i, at_ns, config, tier),
            (ClientKind::PlainNtp, Phase::PoolGeneration) => {
                self.plain_pool_round(i, at_ns, config, tier, dns)
            }
            (ClientKind::PlainNtp, _) => self.plain_poll_round(i, at_ns, config, tier),
            // NTS: PoolGeneration marks a pending NTS-KE association (boot
            // or re-key) — the one DNS-dependent step; polls are
            // Chronos-shaped over the authenticated association.
            (ClientKind::Nts, Phase::PoolGeneration) => {
                self.nts_associate_round(i, at_ns, config, tier, dns)
            }
            (ClientKind::Nts, _) => self.poll_round(i, at_ns, config, tier),
            (ClientKind::Roughtime, Phase::PoolGeneration) => {
                self.roughtime_boot_round(i, at_ns, config, tier, dns)
            }
            (ClientKind::Roughtime, _) => self.roughtime_poll_round(i, at_ns, config, tier),
        }
    }

    /// Sets client `i`'s one pending event. A deadline at the current
    /// event's instant (a completed pool's zero-delay first poll) runs
    /// next, in the same slice.
    fn schedule(&mut self, i: usize, at_ns: u64) {
        self.deadline_ns[i] = at_ns;
    }

    /// The DNS answer resolver `r` serves at `at_ns` (`round` is the
    /// client's private rotation position in independent mode).
    fn dns_answer(&self, r: usize, at_ns: u64, round: u64, dns: DnsView<'_>) -> DnsAnswer {
        match dns {
            DnsView::Shared(timelines) => timelines[r].answer(at_ns),
            DnsView::Independent(models) => models[r].query_independent(at_ns, round),
        }
    }

    /// [`Shard::dns_answer`] against the client's own resolver, on the
    /// [`FaultLane::DnsQuery`] substream — the Chronos/plain-NTP path.
    fn resolve_dns(
        &mut self,
        i: usize,
        at_ns: u64,
        round: u64,
        config: &FleetConfig,
        tier: &TierParams,
        dns: DnsView<'_>,
    ) -> DnsAnswer {
        let r = self.resolver[i] as usize;
        self.resolve_dns_via(i, r, at_ns, FaultLane::DnsQuery, round, config, tier, dns)
    }

    /// [`Shard::dns_answer`] with the client tier's fault plan applied: a
    /// SERVFAIL draw (keyed on `lane` and the client's query index, so it
    /// is stepping-order-free) replaces the resolver's answer with
    /// whatever serve-stale can salvage from the cache, and the fault
    /// counters record what the client actually experienced. With an
    /// inert plan this takes no draws and is exactly `dns_answer`.
    /// `resolver` is explicit because Roughtime clients fan their M
    /// source resolutions across distinct resolvers.
    #[allow(clippy::too_many_arguments)]
    fn resolve_dns_via(
        &mut self,
        i: usize,
        resolver: usize,
        at_ns: u64,
        lane: FaultLane,
        round: u64,
        config: &FleetConfig,
        tier: &TierParams,
        dns: DnsView<'_>,
    ) -> DnsAnswer {
        let p = tier.faults.dns_servfail;
        let answer = if p > 0.0
            && fault_f64(config.seed, self.first_global + i as u64, lane, round, 0) < p
        {
            self.faults[i].dns_servfails += 1;
            match dns {
                // The recursive resolver fails client-side; RFC 8767
                // serve-stale may still answer from the shared cache.
                DnsView::Shared(timelines) => timelines[resolver].stale_answer(at_ns),
                DnsView::Independent(_) => DnsAnswer::Fail,
            }
        } else {
            let answer = self.dns_answer(resolver, at_ns, round, dns);
            if matches!(
                answer,
                DnsAnswer::StaleBenign { .. } | DnsAnswer::StalePoisoned { .. } | DnsAnswer::Fail
            ) {
                // The resolver itself was down (outage window) — distinct
                // from a client-side SERVFAIL draw.
                self.faults[i].outage_hits += 1;
            }
            answer
        };
        if matches!(
            answer,
            DnsAnswer::StaleBenign { .. } | DnsAnswer::StalePoisoned { .. }
        ) {
            self.faults[i].stale_served += 1;
        }
        answer
    }

    // --- DNS pool generation (Chronos tiers) ---

    fn pool_round(
        &mut self,
        i: usize,
        at_ns: u64,
        config: &FleetConfig,
        tier: &TierParams,
        dns: DnsView<'_>,
    ) {
        self.stats[i].pool_queries += 1;
        let round = u64::from(self.pool_rounds[i]);
        let answer = self.resolve_dns(i, at_ns, round, config, tier, dns);
        if matches!(answer, DnsAnswer::Fail) {
            // The round is consumed — Chronos' pool window does not grow
            // to compensate for failed queries.
            self.stats[i].pool_failures += 1;
        } else {
            self.absorb_response(i, answer, config, tier);
        }
        self.pool_rounds[i] += 1;
        if usize::from(self.pool_rounds[i]) >= tier.chronos.pool.queries {
            self.phase[i] = Phase::Syncing;
            // Mirrors the packet client's zero-delay first poll.
            self.schedule(i, at_ns);
        } else {
            self.schedule(i, at_ns + tier.chronos.pool.query_interval.as_nanos());
        }
    }

    /// Applies one DNS response to a client pool, honouring the §V
    /// mitigations exactly as [`chronos::pool::PoolGenerator`] does: a
    /// response with any TTL above `reject_ttl_above` is discarded whole,
    /// and at most `max_records_per_response` addresses are taken (the
    /// same prefix every time, so a capped poisoned response never grows
    /// the pool past its first acceptance).
    fn absorb_response(
        &mut self,
        i: usize,
        answer: DnsAnswer,
        config: &FleetConfig,
        tier: &TierParams,
    ) {
        let pool_cfg = &tier.chronos.pool;
        let record_cap = pool_cfg.max_records_per_response.unwrap_or(usize::MAX);
        // Stale answers are re-served with the resolver's short stale TTL
        // (RFC 8767 §5), not the record's original TTL — which launders a
        // poisoned record's day-long TTL past the reject-TTL-above
        // mitigation. See the fault-model notes in ARCHITECTURE.md.
        let ttl = match answer {
            DnsAnswer::Benign { ttl_secs, .. } | DnsAnswer::Poisoned { ttl_secs, .. } => ttl_secs,
            DnsAnswer::StaleBenign { .. } | DnsAnswer::StalePoisoned { .. } => STALE_TTL_SECS,
            DnsAnswer::Fail => return,
        };
        if pool_cfg.reject_ttl_above.is_some_and(|cap| ttl > cap) {
            return; // the round is consumed, nothing is admitted
        }
        match answer {
            DnsAnswer::Benign { batch, .. } | DnsAnswer::StaleBenign { batch } => {
                let residue = batch % config.rotation_batches() as u64;
                self.benign_batches[i] |= 1u64 << residue;
            }
            DnsAnswer::Poisoned { farm_size, .. } | DnsAnswer::StalePoisoned { farm_size } => {
                let admitted = farm_size.min(record_cap) as u32;
                self.malicious[i] = self.malicious[i].max(admitted);
            }
            DnsAnswer::Fail => unreachable!("handled above"),
        }
    }

    /// Benign servers in client `i`'s pool: Chronos pools hold
    /// batches × admitted-per-batch; a plain-NTP pool is the prefix of its
    /// single resolution.
    fn benign_count(&self, i: usize, config: &FleetConfig, tier: &TierParams) -> usize {
        match tier.kind {
            ClientKind::Chronos => {
                let per_batch = tier
                    .chronos
                    .pool
                    .max_records_per_response
                    .unwrap_or(usize::MAX)
                    .min(config.per_response);
                self.benign_batches[i].count_ones() as usize * per_batch
            }
            ClientKind::PlainNtp => {
                if self.benign_batches[i] != 0 {
                    tier.plain_servers.min(config.per_response)
                } else {
                    0
                }
            }
            // An NTS association is all-benign or all-attacker: the KE
            // handshake hands out the whole server list, uncapped by the
            // DNS per-response record count.
            ClientKind::Nts => {
                if self.benign_batches[i] != 0 {
                    tier.plain_servers
                } else {
                    0
                }
            }
            // Roughtime sources resolved at boot minus the captured ones.
            ClientKind::Roughtime => {
                let packed = self.assoc_sources[i];
                ((packed & 0xffff) & !(packed >> 16)).count_ones() as usize
            }
        }
    }

    // --- plain-NTP lanes ---

    /// A plain-NTP client's boot-time DNS resolution: whatever the
    /// resolver serves *is* the pool — the paper's one poisoning
    /// opportunity, against Chronos' 24. No §V mitigations apply (they
    /// are Chronos pool-generation knobs). Under a fault plan a failed
    /// resolution retries at [`retry_at`] (boundary 0) up to
    /// `retry.max_attempts` attempts; a client that exhausts its attempts
    /// boots with an empty pool.
    fn plain_pool_round(
        &mut self,
        i: usize,
        at_ns: u64,
        config: &FleetConfig,
        tier: &TierParams,
        dns: DnsView<'_>,
    ) {
        self.stats[i].pool_queries += 1;
        let attempt = self.retries[i];
        let answer = self.resolve_dns(i, at_ns, u64::from(attempt), config, tier, dns);
        match answer {
            DnsAnswer::Benign { .. } | DnsAnswer::StaleBenign { .. } => {
                self.benign_batches[i] = 1; // resolved: servers come from the prefix
            }
            DnsAnswer::Poisoned { farm_size, .. } | DnsAnswer::StalePoisoned { farm_size } => {
                self.malicious[i] = farm_size.min(tier.plain_servers) as u32;
            }
            DnsAnswer::Fail => {
                self.stats[i].pool_failures += 1;
                if attempt + 1 < config.faults.retry.max_attempts {
                    self.retries[i] = attempt + 1;
                    self.faults[i].boot_retries += 1;
                    let global = self.first_global + i as u64;
                    self.schedule(i, retry_at(config, global, 0, attempt, at_ns));
                    return;
                }
                // Out of attempts: boot with an empty pool (every poll is
                // a NoSamples no-op — the client free-runs on its drift).
            }
        }
        self.retries[i] = 0;
        self.pool_rounds[i] = 1;
        self.phase[i] = Phase::Syncing;
        // The packet client starts its first poll on resolution.
        self.schedule(i, at_ns);
    }

    /// One plain-NTP poll: the pool *is* the sample, so every server in
    /// the (4-entry) pool is drawn ([`Draw::Whole`]) and the round
    /// concludes through [`chronos::core::conclude_plain_round`] —
    /// `ntplab`'s intersection → cluster → combine, the same pipeline the
    /// packet-level [`ntplab::plain::PlainNtpClient`] runs.
    fn plain_poll_round(&mut self, i: usize, at_ns: u64, config: &FleetConfig, tier: &TierParams) {
        let servers = self.benign_count(i, config, tier) + self.malicious[i] as usize;
        let Some(poll_index) = self.open_poll(i, at_ns, servers, config, tier) else {
            return;
        };
        self.draw_samples(
            i,
            at_ns,
            Draw::Whole,
            FaultLane::NtpSample,
            poll_index,
            config,
            tier,
        );
        let collect = SimTime::from_nanos(at_ns + tier.chronos.response_window.as_nanos());
        let mut stats = self.stats[i].widen();
        let outcome = core::conclude_plain_round(
            &mut stats,
            &mut self.plain_samples,
            &self.offsets_buf,
            plain_root_distance_ns(config),
        );
        self.stats[i] = CompactStats::narrow(&stats);
        if let PlainRoundOutcome::Correction { correction_ns, .. } = outcome {
            self.clocks[i].apply_correction(collect, correction_ns);
        }
        self.observe(i, collect, config);
        // Mirror the packet client's cadence: polls start every
        // `poll_interval` exactly (collect + interval − window).
        self.schedule(i, at_ns + tier.chronos.poll_interval.as_nanos());
    }

    // --- NTS lanes ---

    /// One NTS-KE association attempt (boot or re-key): resolve the KE
    /// server name through the client's resolver, then hold whatever the
    /// handshake returned — benign servers or the attacker's — for the
    /// key lifetime. This is the *only* DNS-dependent step of the NTS
    /// lane: polls are authenticated and cannot be spoofed, so the tier's
    /// entire attack surface is an association falling inside the poison
    /// window. Failed resolutions retry at [`retry_at`] (SERVFAIL and
    /// jitter draws both keyed `boundary · max_attempts + attempt`, on
    /// their own lanes); a boundary that exhausts its attempts is
    /// abandoned — the old keys serve until expiry, the next boundary
    /// tries again.
    fn nts_associate_round(
        &mut self,
        i: usize,
        at_ns: u64,
        config: &FleetConfig,
        tier: &TierParams,
        dns: DnsView<'_>,
    ) {
        self.stats[i].pool_queries += 1;
        let ma = u64::from(config.faults.retry.max_attempts.max(1));
        let k = u64::from(self.pool_rounds[i]);
        let attempt = self.retries[i];
        let round = k * ma + u64::from(attempt);
        let r = self.resolver[i] as usize;
        let answer =
            self.resolve_dns_via(i, r, at_ns, FaultLane::NtsRekey, round, config, tier, dns);
        match answer {
            DnsAnswer::Benign { .. } | DnsAnswer::StaleBenign { .. } => {
                self.benign_batches[i] = 1;
                self.malicious[i] = 0;
                self.assoc_expiry_ns[i] = at_ns + tier.key_lifetime_ns;
                self.secure[i].rekeys += 1;
            }
            DnsAnswer::Poisoned { farm_size, .. } | DnsAnswer::StalePoisoned { farm_size } => {
                // The KE handshake itself is with attacker servers: every
                // key it mints authenticates the attacker's time for the
                // whole lifetime.
                self.benign_batches[i] = 0;
                self.malicious[i] = farm_size.min(tier.plain_servers) as u32;
                self.assoc_expiry_ns[i] = at_ns + tier.key_lifetime_ns;
                self.secure[i].captured += 1;
                self.secure[i].rekeys += 1;
            }
            DnsAnswer::Fail => {
                self.stats[i].pool_failures += 1;
                if attempt + 1 < config.faults.retry.max_attempts {
                    self.retries[i] = attempt + 1;
                    self.faults[i].boot_retries += 1;
                    let global = self.first_global + i as u64;
                    self.schedule(i, retry_at(config, global, k, attempt, at_ns));
                    return;
                }
                // Boundary abandoned: keep whatever association (possibly
                // none) is in force and poll on — samples resume only
                // while the old keys are still inside their lifetime.
            }
        }
        self.retries[i] = 0;
        self.pool_rounds[i] += 1;
        self.phase[i] = Phase::Syncing;
        // Zero-delay first poll, exactly like a completed Chronos pool.
        self.schedule_poll(i, at_ns, config, tier);
    }

    // --- Roughtime lanes ---

    /// A Roughtime client's boot: resolve its M sources through M
    /// *distinct* resolvers (`(resolver + j) mod R`), once. Sources
    /// behind a poisoned cache are captured for the whole run (signed
    /// responses from the wrong server — the redundancy, not the
    /// signature, is what catches them); failed resolutions just shrink
    /// the source set (no retries — the redundant sources *are* the
    /// fallback).
    fn roughtime_boot_round(
        &mut self,
        i: usize,
        at_ns: u64,
        config: &FleetConfig,
        tier: &TierParams,
        dns: DnsView<'_>,
    ) {
        let mut resolved: u32 = 0;
        let mut poisoned: u32 = 0;
        for j in 0..tier.sources {
            self.stats[i].pool_queries += 1;
            let r = (self.resolver[i] as usize + j) % config.resolvers;
            let answer = self.resolve_dns_via(
                i,
                r,
                at_ns,
                FaultLane::DnsQuery,
                j as u64,
                config,
                tier,
                dns,
            );
            match answer {
                DnsAnswer::Benign { .. } | DnsAnswer::StaleBenign { .. } => {
                    resolved |= 1 << j;
                }
                DnsAnswer::Poisoned { .. } | DnsAnswer::StalePoisoned { .. } => {
                    resolved |= 1 << j;
                    poisoned |= 1 << j;
                    self.secure[i].captured += 1;
                }
                DnsAnswer::Fail => self.stats[i].pool_failures += 1,
            }
        }
        self.assoc_sources[i] = resolved | (poisoned << 16);
        self.malicious[i] = poisoned.count_ones();
        self.pool_rounds[i] = 1;
        self.phase[i] = Phase::Syncing;
        // Zero-delay first fetch on resolution.
        self.schedule(i, at_ns);
    }

    /// One Roughtime fetch round: every resolved source returns a signed
    /// midpoint ([`Draw::Sources`]), and the round concludes through
    /// [`chronos::core::conclude_roughtime_round`]'s strict
    /// majority-of-midpoints cross-check. Captured sources lie by the
    /// attack shift; with M ≥ 2·captured+1 the honest majority wins, an
    /// even split is a *detected* inconsistency (clock untouched,
    /// counter ticked), a captured majority steers the clock — and M = 1
    /// trusts its lone source blindly (Medalla).
    fn roughtime_poll_round(
        &mut self,
        i: usize,
        at_ns: u64,
        config: &FleetConfig,
        tier: &TierParams,
    ) {
        let sources = (self.assoc_sources[i] & 0xffff).count_ones() as usize;
        let Some(poll_index) = self.open_poll(i, at_ns, sources, config, tier) else {
            return;
        };
        // Per-source fetch losses ride their own lane so Roughtime tiers
        // in a fault plan leave every other substream untouched.
        self.draw_samples(
            i,
            at_ns,
            Draw::Sources,
            FaultLane::RoughtimeFetch,
            poll_index,
            config,
            tier,
        );
        let collect = SimTime::from_nanos(at_ns + tier.chronos.response_window.as_nanos());
        let mut stats = self.stats[i].widen();
        let outcome = core::conclude_roughtime_round(
            &mut stats,
            &mut self.offsets_buf,
            roughtime_agreement_ns(config),
        );
        self.stats[i] = CompactStats::narrow(&stats);
        match outcome {
            RoughtimeOutcome::Correction { correction_ns, .. } => {
                self.clocks[i].apply_correction(collect, correction_ns);
            }
            RoughtimeOutcome::Inconsistent => self.secure[i].inconsistent += 1,
            RoughtimeOutcome::NoSamples => {}
        }
        self.observe(i, collect, config);
        // On-grid cadence like plain NTP: fetches start every interval.
        self.schedule(i, at_ns + tier.chronos.poll_interval.as_nanos());
    }

    // --- Chronos poll rounds ---

    /// One Chronos-shaped poll round: `sample_size` picks from the pool
    /// ([`Draw::Subsample`]). NTS clients share this lane — their
    /// association pool feeds the same sampling and decision machinery —
    /// with two twists: a lapsed association yields no samples (keys
    /// outlived their lifetime and every re-key since failed), and the
    /// next deadline is the earlier of the next poll and the next
    /// scheduled re-key ([`Shard::schedule_poll`]).
    fn poll_round(&mut self, i: usize, at_ns: u64, config: &FleetConfig, tier: &TierParams) {
        let lapsed = tier.kind == ClientKind::Nts && self.assoc_expiry_ns[i] <= at_ns;
        let servers = if lapsed {
            0
        } else {
            self.benign_count(i, config, tier) + self.malicious[i] as usize
        };
        let Some(poll_index) = self.open_poll(i, at_ns, servers, config, tier) else {
            return;
        };
        // The surviving subset feeds the real decision core: enough drops
        // turn the round into a TooFewSamples reject, and K of those into
        // a genuine panic episode.
        let draw = Draw::Subsample {
            m: tier.chronos.sample_size.min(servers),
        };
        self.draw_samples(
            i,
            at_ns,
            draw,
            FaultLane::NtpSample,
            poll_index,
            config,
            tier,
        );
        let collect_ns = at_ns + tier.chronos.response_window.as_nanos();
        let collect = SimTime::from_nanos(collect_ns);
        let mut stats = self.stats[i].widen();
        let mut last_update = unpack_update(self.last_update_ns[i]);
        let outcome = core::conclude_sample_round(
            &tier.chronos,
            &mut CoreState {
                phase: &mut self.phase[i],
                retries: &mut self.retries[i],
                last_update: &mut last_update,
                stats: &mut stats,
            },
            &mut self.scratch,
            &self.offsets_buf,
            collect,
        );
        self.stats[i] = CompactStats::narrow(&stats);
        self.last_update_ns[i] = pack_update(last_update);
        if let RoundOutcome::Accept { correction_ns, .. } = outcome {
            self.clocks[i].apply_correction(collect, correction_ns);
        }
        self.observe(i, collect, config);
        match outcome {
            RoundOutcome::Accept { .. } => {
                let next_ns = collect_ns + tier.chronos.poll_interval.as_nanos();
                self.schedule_poll(i, next_ns, config, tier);
            }
            RoundOutcome::Resample => self.schedule_poll(i, collect_ns, config, tier),
            RoundOutcome::EnterPanic => self.panic_round(i, collect_ns, config, tier),
        }
    }

    /// Schedules a client's next poll-lane deadline. For every kind but
    /// NTS this is a plain [`Shard::schedule`]; an NTS client instead
    /// takes the earlier of the intended poll and its next scheduled
    /// re-key boundary — if the re-key comes first, the phase flips back
    /// to [`Phase::PoolGeneration`] so the next event runs NTS-KE.
    fn schedule_poll(&mut self, i: usize, at_ns: u64, config: &FleetConfig, tier: &TierParams) {
        if tier.kind != ClientKind::Nts {
            self.schedule(i, at_ns);
            return;
        }
        let global = self.first_global + i as u64;
        let (boot_ns, _, _) = client_boot(config, global);
        // `pool_rounds` counts handled re-key boundaries (boot = boundary
        // 0), so the next boundary sits one re-key interval per handled
        // boundary past the boot instant.
        let k = u64::from(self.pool_rounds[i]);
        let next_rekey = boot_ns + k * tier.rekey_interval_ns;
        if next_rekey <= at_ns {
            self.phase[i] = Phase::PoolGeneration;
            self.retries[i] = 0;
            // An overdue boundary (a panic or retry chain ran past it)
            // fires immediately; its DNS query reads the cache at the
            // actual query time, same documented semantic as plain-NTP
            // phantom retries.
            self.schedule(i, next_rekey.max(self.deadline_ns[i]));
        } else {
            self.schedule(i, at_ns);
        }
    }

    /// Panic mode: one batched round over the *whole* pool
    /// ([`Draw::Whole`]), concluding a response window later (as the
    /// packet client's panic collect does).
    fn panic_round(&mut self, i: usize, collect_ns: u64, config: &FleetConfig, tier: &TierParams) {
        // Panic rounds ride their own lane keyed by the panic-episode
        // index (conclude_sample_round already counted this episode), so
        // panic losses never collide with regular poll losses.
        let episode = u64::from(self.stats[i].panics);
        self.draw_samples(
            i,
            collect_ns,
            Draw::Whole,
            FaultLane::PanicSample,
            episode,
            config,
            tier,
        );
        let panic_ns = collect_ns + tier.chronos.response_window.as_nanos();
        let panic_at = SimTime::from_nanos(panic_ns);
        let mut stats = self.stats[i].widen();
        let mut last_update = unpack_update(self.last_update_ns[i]);
        let correction = core::conclude_panic_round(
            &mut CoreState {
                phase: &mut self.phase[i],
                retries: &mut self.retries[i],
                last_update: &mut last_update,
                stats: &mut stats,
            },
            &mut self.scratch,
            &self.offsets_buf,
            panic_at,
        );
        self.stats[i] = CompactStats::narrow(&stats);
        self.last_update_ns[i] = pack_update(last_update);
        if let Some(correction) = correction {
            self.clocks[i].apply_correction(panic_at, correction);
        }
        self.observe(i, panic_at, config);
        self.schedule_poll(
            i,
            panic_ns + tier.chronos.poll_interval.as_nanos(),
            config,
            tier,
        );
    }

    // --- the poll lanes' prologue and sampling kernel ---

    /// The poll lanes' shared prologue. A client with no `servers` to
    /// sample tries again one interval on without counting a poll (as
    /// the packet clients do) and gets `None`; otherwise the poll is
    /// counted and its index, the key of the round's loss draws, returned.
    fn open_poll(
        &mut self,
        i: usize,
        at_ns: u64,
        servers: usize,
        config: &FleetConfig,
        tier: &TierParams,
    ) -> Option<u64> {
        if servers == 0 {
            let next_ns = at_ns + tier.chronos.poll_interval.as_nanos();
            self.schedule_poll(i, next_ns, config, tier);
            return None;
        }
        let poll_index = u64::from(self.stats[i].polls);
        self.stats[i].polls += 1;
        Some(poll_index)
    }

    /// The sampling kernel every poll lane runs: fills `offsets_buf` with
    /// the observed offsets (server offset − client offset at `at_ns` +
    /// path jitter) of the servers `draw` visits, in its order, from the
    /// client's stream. One sample site serves every order: a lying
    /// server (the attacker's farm, or a captured source) draws only its
    /// noise, an honest one its benign offset and then its noise.
    ///
    /// Losses then drop each sample independently with the tier's
    /// `ntp_loss`, compacting the buffer in place. The draws are keyed
    /// `(lane, round, slot)`, the slot being the sample's position in the
    /// buffer, so loss patterns are byte-identical across thread counts
    /// and shard sizes, and a dropped sample still consumed its draws:
    /// the survivors are exactly what a lossless run hands the same
    /// slots. A zero loss rate takes no draws.
    #[allow(clippy::too_many_arguments)]
    fn draw_samples(
        &mut self,
        i: usize,
        at_ns: u64,
        draw: Draw,
        lane: FaultLane,
        round: u64,
        config: &FleetConfig,
        tier: &TierParams,
    ) {
        let malicious = self.malicious[i] as usize;
        let mut mal_rem = malicious as u64;
        let mut ben_rem = self.benign_count(i, config, tier) as u64;
        let (picks, mut slots, captured) = match draw {
            Draw::Subsample { m } => (m, 0, 0),
            Draw::Whole => (malicious + ben_rem as usize, 0, 0),
            Draw::Sources => {
                let packed = self.assoc_sources[i];
                let resolved = packed & 0xffff;
                (resolved.count_ones() as usize, resolved, packed >> 16)
            }
        };
        let shift_ns = config.attack.map_or(0, |a| a.shift_ns);
        let benign_bound = config.benign_offset_ms as i64 * 1_000_000;
        let jitter = config.jitter_std.as_nanos() as f64;
        let client_off = self.clocks[i].offset_from_true(SimTime::from_nanos(at_ns));
        let mut rng = FleetRng::from_seed(self.rng[i]);
        self.offsets_buf.clear();
        for k in 0..picks {
            let lying = match draw {
                Draw::Subsample { .. } => {
                    if rng.range_u64(mal_rem + ben_rem) < mal_rem {
                        mal_rem -= 1;
                        true
                    } else {
                        ben_rem -= 1;
                        false
                    }
                }
                Draw::Whole => k < malicious,
                Draw::Sources => {
                    let slot = slots.trailing_zeros();
                    slots &= slots - 1;
                    captured & (1 << slot) != 0
                }
            };
            let server_off = if lying {
                shift_ns
            } else if benign_bound > 0 {
                rng.range_i64(-benign_bound, benign_bound)
            } else {
                0
            };
            let noise = if jitter > 0.0 {
                rng.normal(0.0, jitter) as i64
            } else {
                0
            };
            self.offsets_buf.push(server_off - client_off + noise);
        }
        self.rng[i] = rng.state();
        let p = tier.faults.ntp_loss;
        if p <= 0.0 {
            return;
        }
        let global = self.first_global + i as u64;
        let mut kept = 0;
        for slot in 0..self.offsets_buf.len() {
            if fault_f64(config.seed, global, lane, round, slot as u64) < p {
                self.faults[i].ntp_losses += 1;
            } else {
                self.offsets_buf[kept] = self.offsets_buf[slot];
                kept += 1;
            }
        }
        self.offsets_buf.truncate(kept);
    }

    /// Streams one concluded round's clock error into the aggregates (and
    /// the client's trajectory when recording).
    fn observe(&mut self, i: usize, now: SimTime, config: &FleetConfig) {
        let off = self.clocks[i].offset_from_true(now);
        if config.record_trajectories {
            self.traces[i].push((now, off));
        }
        self.histogram.record(off.unsigned_abs());
    }

    // --- sampling ---

    /// Counts client `i` into the per-tier sample chunk that starts at
    /// `chunk` of `shifted_counts` when it is shifted at `at_ns`.
    fn count_shifted(&mut self, i: usize, at_ns: u64, bound: i64, chunk: usize) {
        if is_shifted(&self.clocks[i], SimTime::from_nanos(at_ns), bound) {
            self.shifted_counts[chunk + self.tier[i] as usize] += 1;
        }
    }

    /// Per-tier counts of the shard's clients shifted at `now`
    /// (accumulated into `out`, which must hold one slot per tier).
    fn shifted_count_by_tier(&self, now: SimTime, config: &FleetConfig, out: &mut [u64]) {
        let bound = config.safety_bound.as_nanos() as i64;
        for (i, clock) in self.clocks.iter().enumerate() {
            if is_shifted(clock, now, bound) {
                out[self.tier[i] as usize] += 1;
            }
        }
    }

    // --- checkpoint codec (see crate::checkpoint for the format) ---

    /// Serializes the shard's complete state. The scratch buffers
    /// (`scratch`, `offsets_buf`, `plain_samples`) are per-event
    /// temporaries and hold nothing across events, and each client's
    /// pending event is its `deadline_ns` entry.
    fn encode(&self, w: &mut Writer) {
        w.u64(self.first_global);
        w.len(self.clocks.len());
        for i in 0..self.clocks.len() {
            let (offset_ns, drift_bits, rebased_ns, steps, slews) = self.clocks[i].to_raw();
            w.i64(offset_ns);
            w.u64(drift_bits);
            w.u64(rebased_ns);
            w.u64(steps);
            w.u64(slews);
            w.u8(match self.phase[i] {
                Phase::PoolGeneration => 0,
                Phase::Syncing => 1,
                Phase::Panic => 2,
            });
            w.u8(self.tier[i]);
            w.u16(self.resolver[i]);
            w.u32(self.retries[i]);
            w.u64(self.last_update_ns[i]);
            w.u64(self.rng[i]);
            let s = &self.stats[i];
            for c in [
                s.pool_queries,
                s.pool_failures,
                s.polls,
                s.accepts,
                s.rejects,
                s.panics,
            ] {
                w.u32(c);
            }
            let f = &self.faults[i];
            for c in [
                f.ntp_losses,
                f.dns_servfails,
                f.outage_hits,
                f.stale_served,
                f.boot_retries,
            ] {
                w.u32(c);
            }
            w.u16(self.pool_rounds[i]);
            w.u64(self.benign_batches[i]);
            w.u32(self.malicious[i]);
            w.u64(self.deadline_ns[i]);
            w.u64(self.assoc_expiry_ns[i]);
            w.u32(self.assoc_sources[i]);
            let sec = &self.secure[i];
            for c in [sec.captured, sec.inconsistent, sec.rekeys] {
                w.u32(c);
            }
        }
        w.len(self.traces.len());
        for trace in &self.traces {
            w.len(trace.len());
            for &(t, off) in trace {
                w.u64(t.as_nanos());
                w.i64(off);
            }
        }
        w.u64(self.next_sample_ns);
        w.len(self.shifted_counts.len());
        for &c in &self.shifted_counts {
            w.u64(c);
        }
        let (counts, total) = self.histogram.raw_counts();
        w.len(counts.len());
        for &c in counts {
            w.u64(c);
        }
        w.u64(total);
        w.u64(self.events);
    }

    /// Restores the shard from [`Shard::encode`] output. The shard must
    /// already be [`Shard::rebuild`]-sized for the same config (columns
    /// allocated, `first_global` set).
    ///
    /// Anyone can recompute the checksum of a crafted blob, so the columns
    /// that index or size the engine's work are checked against what this
    /// fleet can hold: `tier` and `resolver` must equal the values
    /// `rebuild` derived for the client, and `malicious` must not exceed
    /// what the client's lane can write (the farm, capped at the tier's
    /// servers for plain NTP and NTS, or the source count for Roughtime).
    fn decode(
        &mut self,
        r: &mut Reader<'_>,
        config: &FleetConfig,
        tiers: &[TierParams],
    ) -> Result<(), CheckpointError> {
        if r.u64()? != self.first_global {
            return Err(CheckpointError::Corrupt("shard first_global mismatch"));
        }
        let len = r.len()?;
        if len != self.clocks.len() {
            return Err(CheckpointError::Corrupt("shard length mismatch"));
        }
        let farm = config.attack.map_or(0, |a| a.farm_size);
        for i in 0..len {
            let raw = (r.i64()?, r.u64()?, r.u64()?, r.u64()?, r.u64()?);
            self.clocks[i] = LocalClock::from_raw(raw);
            self.phase[i] = match r.u8()? {
                0 => Phase::PoolGeneration,
                1 => Phase::Syncing,
                2 => Phase::Panic,
                _ => return Err(CheckpointError::Corrupt("phase tag out of range")),
            };
            if r.u8()? != self.tier[i] {
                return Err(CheckpointError::Corrupt("tier column mismatch"));
            }
            if r.u16()? != self.resolver[i] {
                return Err(CheckpointError::Corrupt("resolver column mismatch"));
            }
            self.retries[i] = r.u32()?;
            self.last_update_ns[i] = r.u64()?;
            self.rng[i] = r.u64()?;
            self.stats[i] = CompactStats {
                pool_queries: r.u32()?,
                pool_failures: r.u32()?,
                polls: r.u32()?,
                accepts: r.u32()?,
                rejects: r.u32()?,
                panics: r.u32()?,
            };
            self.faults[i] = CompactFaults {
                ntp_losses: r.u32()?,
                dns_servfails: r.u32()?,
                outage_hits: r.u32()?,
                stale_served: r.u32()?,
                boot_retries: r.u32()?,
            };
            self.pool_rounds[i] = r.u16()?;
            self.benign_batches[i] = r.u64()?;
            let tier = &tiers[self.tier[i] as usize];
            let cap = match tier.kind {
                ClientKind::Chronos => farm,
                ClientKind::PlainNtp | ClientKind::Nts => farm.min(tier.plain_servers),
                // A captured source counts once, whatever the farm's size.
                ClientKind::Roughtime => config.attack.map_or(0, |_| tier.sources),
            };
            self.malicious[i] = r.u32()?;
            if self.malicious[i] as usize > cap {
                return Err(CheckpointError::Corrupt("malicious count out of range"));
            }
            self.deadline_ns[i] = r.u64()?;
            self.assoc_expiry_ns[i] = r.u64()?;
            self.assoc_sources[i] = r.u32()?;
            self.secure[i] = CompactSecure {
                captured: r.u32()?,
                inconsistent: r.u32()?,
                rekeys: r.u32()?,
            };
        }
        let trace_count = r.len()?;
        let expected_traces = if config.record_trajectories { len } else { 0 };
        if trace_count != expected_traces {
            return Err(CheckpointError::Corrupt("trajectory layout mismatch"));
        }
        for t in 0..trace_count {
            let points = r.count(16)?;
            self.traces[t].clear();
            self.traces[t].reserve(points);
            for _ in 0..points {
                let at = SimTime::from_nanos(r.u64()?);
                self.traces[t].push((at, r.i64()?));
            }
        }
        self.next_sample_ns = r.u64()?;
        let sc = r.count(8)?;
        self.shifted_counts.clear();
        self.shifted_counts.reserve(sc);
        for _ in 0..sc {
            self.shifted_counts.push(r.u64()?);
        }
        let bins = r.count(8)?;
        let mut counts = Vec::with_capacity(bins);
        for _ in 0..bins {
            counts.push(r.u64()?);
        }
        let total = r.u64()?;
        let expected_bins = self.histogram.raw_counts().0.len();
        if bins != expected_bins {
            return Err(CheckpointError::Corrupt("histogram bin count mismatch"));
        }
        self.histogram.restore_counts(counts, total);
        self.events = r.u64()?;
        Ok(())
    }
}

/// Whether a clock's |error| exceeds the safety `bound` at `now`: the one
/// safety-bound test behind the shifted series, the final fractions and
/// [`Fleet::shifted_fraction`].
fn is_shifted(clock: &LocalClock, now: SimTime, bound: i64) -> bool {
    clock.offset_from_true(now).abs() > bound
}

fn pack_update(last_update: Option<SimTime>) -> u64 {
    last_update.map_or(NO_UPDATE, |t| t.as_nanos())
}

fn unpack_update(packed: u64) -> Option<SimTime> {
    (packed != NO_UPDATE).then(|| SimTime::from_nanos(packed))
}

/// The plain-NTP mean-field correctness-interval radius: the benign
/// imperfection bound plus a 4σ jitter budget plus a 1 ms floor. Stands
/// in for the per-exchange δ/2 + ε a packet client measures, and is wide
/// enough that honest servers always intersect (their offsets are drawn
/// inside the bound) while a 500 ms-scale lie never intersects them.
fn plain_root_distance_ns(config: &FleetConfig) -> i64 {
    config.benign_offset_ms as i64 * 1_000_000 + 4 * config.jitter_std.as_nanos() as i64 + 1_000_000
}

/// The Roughtime majority-of-midpoints agreement radius: two honest
/// sources can disagree by up to twice the benign imperfection bound plus
/// an 8σ two-sided jitter budget (plus a 1 ms floor) and must still
/// cluster, while a 500 ms-scale lie must never join the honest window.
fn roughtime_agreement_ns(config: &FleetConfig) -> i64 {
    2 * config.benign_offset_ms as i64 * 1_000_000
        + 8 * config.jitter_std.as_nanos() as i64
        + 1_000_000
}

/// Derives one client's boot state from the fleet seed and its global id:
/// `(boot stagger ns, clock drift ppm, post-boot RNG state)`. The single
/// source of truth for the per-client draw order — shard reseeding *and*
/// the resolver pre-pass (which needs every boot time up front) both call
/// it, so the two can never disagree about when a client first queries.
fn client_boot(config: &FleetConfig, global_id: u64) -> (u64, f64, u64) {
    let mut rng = FleetRng::from_seed(client_seed(config.seed, global_id));
    // Fixed per-client draw order: (1) boot stagger, (2) drift.
    let stagger_ns = config.stagger.as_nanos();
    let start_ns = if stagger_ns > 0 {
        rng.range_u64(stagger_ns)
    } else {
        0
    };
    let drift_bound = config.client_drift_ppm;
    let drift = if drift_bound > 0.0 {
        drift_bound * (2.0 * rng.next_f64() - 1.0)
    } else {
        0.0
    };
    (start_ns, drift, rng.state())
}

/// When a failed bootstrap resolution retries: `at_ns` plus the retry
/// policy's backoff after `attempt`, jittered by one
/// [`FaultLane::RetryJitter`] draw keyed `boundary · max_attempts +
/// attempt`. `boundary` is the NTS re-key boundary (boot is 0); plain NTP
/// resolves once, at boundary 0. The engine and the cache pre-pass both
/// call this, so every real retry time is one of the pre-pass's phantom
/// query times by construction.
fn retry_at(config: &FleetConfig, global: u64, boundary: u64, attempt: u32, at_ns: u64) -> u64 {
    let retry = &config.faults.retry;
    let key = boundary * u64::from(retry.max_attempts.max(1)) + u64::from(attempt);
    let unit = fault_f64(config.seed, global, FaultLane::RetryJitter, key, 0);
    at_ns + retry.delay_ns(attempt, unit)
}

/// A population of lightweight time clients in one shared world — mixed
/// Chronos/plain-NTP tiers hashed across independent resolvers, sharded
/// for parallel stepping (see the module docs).
#[derive(Debug)]
pub struct Fleet {
    config: FleetConfig,
    /// Resolved per-tier parameters, indexed by the `tier` column.
    tiers: Vec<TierParams>,
    /// The balanced client→tier pattern.
    assignment: TierAssignment,
    /// One model per resolver ([`FleetConfig::resolvers`]).
    resolvers: Vec<ResolverModel>,
    /// Precomputed per-resolver answer timelines (empty in independent
    /// mode).
    timelines: Vec<ResolverTimeline>,
    shards: Vec<Shard>,
    now_ns: u64,
    /// Optional wall-clock instrumentation (see [`crate::metrics`]).
    /// Never checkpointed; a restored fleet starts unmetered.
    metrics: Option<std::sync::Arc<FleetMetrics>>,
    /// Wall-clock stats of the most recent `run_until` slice
    /// (`(wall_secs, events, sim_ns)`); observability only.
    last_slice: Option<(f64, u64, u64)>,
}

impl Fleet {
    /// Builds a fleet for `config` at time zero.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent
    /// (see [`FleetConfig::validate`]).
    pub fn new(config: FleetConfig) -> Fleet {
        config.validate();
        let mut fleet = Fleet {
            tiers: Vec::new(),
            assignment: TierAssignment::new(&[]),
            resolvers: Vec::new(),
            timelines: Vec::new(),
            shards: Vec::new(),
            now_ns: 0,
            metrics: None,
            last_slice: None,
            config,
        };
        fleet.rebuild();
        fleet
    }

    /// Attaches (or with `None`, detaches) engine instrumentation. The
    /// handle is a strict wall-clock side channel: it consumes no RNG
    /// draws and never perturbs simulation state, so runs stay
    /// byte-identical with metrics on or off (proptest-pinned). Survives
    /// [`Fleet::reset`] / [`Fleet::reconfigure`]; excluded from
    /// checkpoints.
    pub fn set_metrics(&mut self, metrics: Option<std::sync::Arc<FleetMetrics>>) {
        self.metrics = metrics;
    }

    /// The attached instrumentation handle, if any.
    pub fn metrics(&self) -> Option<&std::sync::Arc<FleetMetrics>> {
        self.metrics.as_ref()
    }

    /// The configuration in force.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.now_ns)
    }

    /// Client events stepped so far.
    pub fn events(&self) -> u64 {
        self.shards.iter().map(|s| s.events).sum()
    }

    /// Shards the fleet is partitioned into.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The resolved per-tier parameters, in tier order (one implicit
    /// Chronos tier for homogeneous fleets).
    pub fn tier_params(&self) -> &[TierParams] {
        &self.tiers
    }

    /// Changes the intra-fleet worker count without touching simulation
    /// state — `threads` is a pure wall-clock knob (results are
    /// byte-identical for every value), so it may change at any time,
    /// even mid-run. This is the hook pooled reuse needs:
    /// [`FleetConfig::structural_fingerprint`] deliberately ignores
    /// `threads`, so a reused fleet may be serving a config whose worker
    /// count differs from the one it was built with.
    pub fn set_threads(&mut self, threads: usize) {
        self.config.threads = threads;
    }

    /// Rewinds the fleet to time zero under a new seed, reusing every
    /// allocation. After `reset`, running is byte-identical to a fresh
    /// [`Fleet::new`] with the same config and seed.
    pub fn reset(&mut self, seed: u64) {
        self.config.seed = seed;
        self.rebuild();
    }

    /// Swaps in a different configuration, reusing allocations where the
    /// shard layout matches (the pooling hook: same-shape configs differ
    /// only in seed, so columns are always reusable there).
    pub fn reconfigure(&mut self, config: FleetConfig) {
        config.validate();
        self.config = config;
        self.rebuild();
    }

    /// The single sizing-and-reseeding path underneath `new`, `reset` and
    /// `reconfigure`: resolves tiers and assignment, derives the resolver
    /// set from the seed, lays the clients out into shards, rebuilds each
    /// (one shared code path, so shard-local construction cannot drift
    /// from any caller), and precomputes the per-resolver timelines for
    /// shared-cache mode.
    fn rebuild(&mut self) {
        self.tiers = self.config.effective_tiers();
        self.assignment = TierAssignment::new(&self.config.tiers);
        self.resolvers = (0..self.config.resolvers)
            .map(|r| ResolverModel::for_resolver(&self.config, r))
            .collect();
        let n = self.config.clients;
        let size = self.config.shard_size;
        let shard_count = n.div_ceil(size);
        self.shards.truncate(shard_count);
        while self.shards.len() < shard_count {
            self.shards.push(Shard::empty());
        }
        for (s, shard) in self.shards.iter_mut().enumerate() {
            let base = s * size;
            let len = size.min(n - base);
            shard.rebuild(
                &self.config,
                &self.assignment,
                self.config.first_client_id + base as u64,
                len,
            );
        }
        self.now_ns = 0;
        self.last_slice = None;
        let prepass_start = self.metrics.as_ref().map(|_| std::time::Instant::now());
        // Free the old timelines first, so a reset does not hold them
        // beside the pre-pass's query schedules.
        drop(std::mem::take(&mut self.timelines));
        self.timelines = if self.config.shared_cache {
            // The deterministic cache pre-pass: every pool-query time is
            // static, so each resolver's whole answer timeline resolves
            // before any client steps.
            let mut schedules: Vec<Vec<QuerySchedule>> = vec![Vec::new(); self.config.resolvers];
            let horizon = self.config.horizon.as_nanos();
            let once = |start_ns| QuerySchedule {
                start_ns,
                interval_ns: 0,
                rounds: 1,
            };
            for g in 0..n as u64 {
                let global = self.config.first_client_id + g;
                let (start_ns, _, _) = client_boot(&self.config, global);
                let tier_index = self.assignment.tier_of(global) as usize;
                let tier = &self.tiers[tier_index];
                let r = resolver_of(self.config.seed, global, self.config.resolvers) as usize;
                let rekey = tier.rekey_interval_ns;
                match tier.kind {
                    ClientKind::Chronos => schedules[r].push(QuerySchedule {
                        start_ns,
                        interval_ns: tier.chronos.pool.query_interval.as_nanos(),
                        rounds: tier.chronos.pool.queries as u64,
                    }),
                    // Plain NTP resolves once, at boot; NTS resolves its KE
                    // server name at boot and at every re-key boundary
                    // inside the horizon. When a resolution can fail, the
                    // client *may* retry each boundary on its backoff
                    // schedule. The pre-pass cannot know which attempts
                    // fail, so the cache timeline is defined as the replay
                    // of the full phantom attempt multiset, timed by the
                    // engine's own `retry_at`, so every real query time is
                    // one of these. Phantom attempts after a success may
                    // advance batch rotation — a documented model
                    // semantic, not an approximation.
                    ClientKind::PlainNtp | ClientKind::Nts
                        if self.config.faults.dns_can_fail(tier_index, r) =>
                    {
                        let boundaries = match tier.kind {
                            ClientKind::PlainNtp => 1,
                            _ if start_ns <= horizon => 1 + (horizon - start_ns) / rekey,
                            _ => 0,
                        };
                        for k in 0..boundaries {
                            let mut at = start_ns + k * rekey;
                            for attempt in 0..self.config.faults.retry.max_attempts {
                                schedules[r].push(once(at));
                                at = retry_at(&self.config, global, k, attempt, at);
                            }
                        }
                    }
                    ClientKind::PlainNtp => schedules[r].push(once(start_ns)),
                    ClientKind::Nts => schedules[r].push(QuerySchedule {
                        start_ns,
                        interval_ns: rekey,
                        rounds: 1 + horizon.saturating_sub(start_ns) / rekey,
                    }),
                    // Roughtime resolves each of its M sources once at
                    // boot, through M distinct resolvers.
                    ClientKind::Roughtime => {
                        for j in 0..tier.sources {
                            schedules[(r + j) % self.config.resolvers].push(once(start_ns));
                        }
                    }
                }
            }
            self.resolvers
                .iter()
                .zip(&schedules)
                .map(|(model, schedule)| model.timeline(schedule))
                .collect()
        } else {
            Vec::new()
        };
        if let (Some(m), Some(start)) = (&self.metrics, prepass_start) {
            m.timeline_prepass.record(start.elapsed());
        }
    }

    /// Runs the fleet up to and including every event with a deadline at
    /// or before `until`, stepping shards on
    /// [`FleetConfig::effective_threads`] workers. Byte-identical for
    /// every thread count.
    ///
    /// # Panics
    ///
    /// Panics if `until` precedes the current time.
    pub fn run_until(&mut self, until: SimTime) {
        let target = until.as_nanos();
        assert!(target >= self.now_ns, "cannot run backwards");
        // Wall-clock throughput of this slice (for FleetProgress): one
        // Instant read per slice, regardless of instrumentation.
        let slice_start = std::time::Instant::now();
        let sim_ns = target - self.now_ns;
        let events_before: u64 = self.shards.iter().map(|s| s.events).sum();
        let config = &self.config;
        let tiers = &self.tiers[..];
        let obs = self.metrics.as_deref();
        let dns = if config.shared_cache {
            DnsView::Shared(&self.timelines)
        } else {
            DnsView::Independent(&self.resolvers)
        };
        let threads = config.effective_threads().min(self.shards.len()).max(1);
        netsim::par::for_each_mut(&mut self.shards, threads, |shard, _| {
            shard.run_until(target, config, tiers, dns, obs)
        });
        self.now_ns = target;
        let events: u64 = self.shards.iter().map(|s| s.events).sum();
        self.last_slice = Some((
            slice_start.elapsed().as_secs_f64(),
            events - events_before,
            sim_ns,
        ));
    }

    /// Convenience: runs for a duration.
    pub fn run_for(&mut self, d: SimDuration) {
        self.run_until(self.now() + d);
    }

    /// Runs the configured horizon and reports.
    pub fn run(&mut self) -> FleetReport {
        self.run_until(SimTime::ZERO + self.config.horizon);
        self.report()
    }

    /// Fraction of the fleet whose |clock error| exceeds the safety bound
    /// at `now`.
    pub fn shifted_fraction(&self, now: SimTime) -> f64 {
        let mut counts = vec![0u64; self.tiers.len()];
        for shard in &self.shards {
            shard.shifted_count_by_tier(now, &self.config, &mut counts);
        }
        counts.iter().sum::<u64>() as f64 / self.config.clients as f64
    }

    /// Bytes of per-client column state — the struct-of-arrays entries
    /// across the shard slabs. Excludes opt-in trajectory capture and the
    /// fixed per-shard machinery (the 577-bin offset histogram, scratch
    /// buffers), which amortizes to under 3 bytes/client at the default
    /// shard size.
    pub const fn per_client_footprint_bytes() -> usize {
        std::mem::size_of::<LocalClock>()               // clocks
            + std::mem::size_of::<Phase>()              // phase (also the event kind)
            + std::mem::size_of::<u8>()                 // tier
            + std::mem::size_of::<u16>()                // resolver
            + std::mem::size_of::<u32>()                // retries
            + std::mem::size_of::<u64>()                // last_update_ns (packed)
            + std::mem::size_of::<u64>()                // rng
            + std::mem::size_of::<CompactStats>()       // stats
            + std::mem::size_of::<CompactFaults>()      // faults
            + std::mem::size_of::<u16>()                // pool_rounds
            + std::mem::size_of::<u64>()                // benign_batches
            + std::mem::size_of::<u32>()                // malicious
            + std::mem::size_of::<u64>()                // deadline_ns
            + std::mem::size_of::<u64>()                // assoc_expiry_ns
            + std::mem::size_of::<u32>()                // assoc_sources
            + std::mem::size_of::<CompactSecure>() // secure counters
    }

    fn locate(&self, i: usize) -> (&Shard, usize) {
        assert!(i < self.config.clients, "client {i} out of range");
        let s = i / self.config.shard_size;
        (&self.shards[s], i - s * self.config.shard_size)
    }

    /// One client's clock error at `now`, ns.
    pub fn client_offset_ns(&self, i: usize, now: SimTime) -> i64 {
        let (shard, local) = self.locate(i);
        shard.clocks[local].offset_from_true(now)
    }

    /// One client's activity counters.
    pub fn client_stats(&self, i: usize) -> ChronosStats {
        let (shard, local) = self.locate(i);
        shard.stats[local].widen()
    }

    /// One client's fault-injection counters (all zero when the fault
    /// plan is inert).
    pub fn client_faults(&self, i: usize) -> FaultCounters {
        let (shard, local) = self.locate(i);
        shard.faults[local].widen()
    }

    /// One client's secure-tier counters (all zero for Chronos and
    /// plain-NTP clients).
    pub fn client_secure(&self, i: usize) -> SecureCounters {
        let (shard, local) = self.locate(i);
        shard.secure[local].widen()
    }

    /// One NTS client's association-expiry instant (`None` while no
    /// association's keys are usable: pre-boot, or every handshake so far
    /// failed).
    pub fn client_association_expiry(&self, i: usize) -> Option<SimTime> {
        let (shard, local) = self.locate(i);
        let ns = shard.assoc_expiry_ns[local];
        (ns != 0).then(|| SimTime::from_nanos(ns))
    }

    /// One Roughtime client's source sets as `(resolved, captured)`
    /// bitmasks over its M boot-time source slots.
    pub fn client_sources(&self, i: usize) -> (u32, u32) {
        let (shard, local) = self.locate(i);
        let packed = shard.assoc_sources[local];
        (packed & 0xffff, packed >> 16)
    }

    /// One client's pool composition as `(benign, malicious)`.
    pub fn client_pool(&self, i: usize) -> (usize, usize) {
        let (shard, local) = self.locate(i);
        let tier = &self.tiers[shard.tier[local] as usize];
        (
            shard.benign_count(local, &self.config, tier),
            shard.malicious[local] as usize,
        )
    }

    /// One client's lifecycle phase.
    pub fn client_phase(&self, i: usize) -> Phase {
        let (shard, local) = self.locate(i);
        shard.phase[local]
    }

    /// One client's tier index (into [`Fleet::tier_params`]).
    pub fn client_tier(&self, i: usize) -> usize {
        let (shard, local) = self.locate(i);
        shard.tier[local] as usize
    }

    /// One client's kind (from its tier).
    pub fn client_kind(&self, i: usize) -> ClientKind {
        self.tiers[self.client_tier(i)].kind
    }

    /// The resolver id client `i` hashes onto.
    pub fn client_resolver(&self, i: usize) -> usize {
        let (shard, local) = self.locate(i);
        shard.resolver[local] as usize
    }

    /// One client's recorded offset trajectory.
    ///
    /// # Panics
    ///
    /// Panics if the fleet was not configured with `record_trajectories`.
    pub fn trace(&self, i: usize) -> &[(SimTime, i64)] {
        assert!(
            self.config.record_trajectories,
            "fleet was not recording trajectories"
        );
        let (shard, local) = self.locate(i);
        &shard.traces[local]
    }

    /// Builds the aggregate report at the current time by merging shard
    /// aggregates: integer additions, so the merge order does not matter.
    pub fn report(&self) -> FleetReport {
        let merge_start = self.metrics.as_ref().map(|_| std::time::Instant::now());
        let now = self.now();
        let t_count = self.tiers.len();
        let mut tier_clients = vec![0usize; t_count];
        let mut tier_totals = vec![ChronosStats::default(); t_count];
        let mut tier_poisoned = vec![0u64; t_count];
        let mut tier_faults = vec![FaultCounters::default(); t_count];
        let mut tier_secure = vec![SecureCounters::default(); t_count];
        let mut tier_synced = vec![0u64; t_count];
        let mut tier_final_shifted = vec![0u64; t_count];
        let mut histogram = OffsetHistogram::log_scale(FINE_BINS_PER_DECADE);
        // Sample-major per-tier counts, stride `t_count`.
        let mut shifted_counts: Vec<u64> = Vec::new();
        for shard in &self.shards {
            for (i, s) in shard.stats.iter().enumerate() {
                let t = shard.tier[i] as usize;
                tier_clients[t] += 1;
                tier_totals[t].accumulate(&s.widen());
                tier_faults[t].accumulate(&shard.faults[i].widen());
                tier_secure[t].accumulate(&shard.secure[i].widen());
                if shard.malicious[i] > 0 {
                    tier_poisoned[t] += 1;
                }
                if shard.phase[i] != Phase::PoolGeneration {
                    tier_synced[t] += 1;
                }
            }
            shard.shifted_count_by_tier(now, &self.config, &mut tier_final_shifted);
            histogram.merge_from(&shard.histogram);
            debug_assert!(
                shifted_counts.is_empty() || shifted_counts.len() == shard.shifted_counts.len(),
                "shards share one sample schedule"
            );
            if shifted_counts.len() < shard.shifted_counts.len() {
                shifted_counts.resize(shard.shifted_counts.len(), 0);
            }
            for (sum, c) in shifted_counts.iter_mut().zip(&shard.shifted_counts) {
                *sum += c;
            }
        }
        let sample_ns = self.config.sample_every.as_nanos();
        let clients = self.config.clients as f64;
        let samples = shifted_counts.len() / t_count.max(1);
        let sample_at = |k: usize| SimTime::from_nanos(k as u64 * sample_ns).as_secs_f64();
        let shifted: Vec<(f64, f64)> = (0..samples)
            .map(|k| {
                let count: u64 = shifted_counts[k * t_count..(k + 1) * t_count].iter().sum();
                (sample_at(k), count as f64 / clients)
            })
            .collect();
        let tiers: Vec<TierBreakdown> = self
            .tiers
            .iter()
            .enumerate()
            .map(|(t, params)| {
                let members = tier_clients[t].max(1) as f64;
                TierBreakdown {
                    label: params.label.clone(),
                    kind: params.kind,
                    clients: tier_clients[t],
                    shifted: (0..samples)
                        .map(|k| {
                            (
                                sample_at(k),
                                shifted_counts[k * t_count + t] as f64 / members,
                            )
                        })
                        .collect(),
                    final_shifted_fraction: tier_final_shifted[t] as f64 / members,
                    poisoned_clients: tier_poisoned[t],
                    synced_clients: tier_synced[t],
                    totals: tier_totals[t],
                    faults: tier_faults[t],
                    secure: tier_secure[t],
                }
            })
            .collect();
        let mut totals = ChronosStats::default();
        for t in &tier_totals {
            totals.accumulate(t);
        }
        let mut faults = FaultCounters::default();
        for t in &tier_faults {
            faults.accumulate(t);
        }
        let mut secure = SecureCounters::default();
        for t in &tier_secure {
            secure.accumulate(t);
        }
        let report = FleetReport {
            clients: self.config.clients,
            end: now,
            shifted,
            final_shifted_fraction: tier_final_shifted.iter().sum::<u64>() as f64 / clients,
            poisoned_clients: tier_poisoned.iter().sum(),
            synced_clients: tier_synced.iter().sum(),
            totals,
            quantiles: TRACKED_QUANTILES
                .iter()
                .map(|&p| (p, histogram.quantile(p)))
                .collect(),
            histogram: histogram.coarsened(HISTOGRAM_BINS_PER_DECADE),
            events: self.events(),
            faults,
            secure,
            tiers,
        };
        if let (Some(m), Some(start)) = (&self.metrics, merge_start) {
            m.report_merge.record(start.elapsed());
        }
        report
    }

    /// A cheap position/health snapshot for live observability: O(clients)
    /// in the phase and clock columns, no aggregate merging. Valid at any
    /// [`Fleet::run_until`] boundary.
    pub fn progress(&self) -> FleetProgress {
        let now = self.now();
        let synced_clients = self
            .shards
            .iter()
            .map(|s| {
                s.phase
                    .iter()
                    .filter(|&&p| p != Phase::PoolGeneration)
                    .count() as u64
            })
            .sum();
        FleetProgress {
            now,
            horizon: self.config.horizon,
            clients: self.config.clients,
            events: self.events(),
            synced_clients,
            shifted_fraction: self.shifted_fraction(now),
            throughput: self.last_slice.map(|(wall_secs, events, sim_ns)| {
                let wall = wall_secs.max(f64::MIN_POSITIVE);
                FleetThroughput {
                    wall_secs,
                    events_per_sec: events as f64 / wall,
                    sim_per_wall: sim_ns as f64 / 1e9 / wall,
                }
            }),
        }
    }

    /// Serializes the fleet's complete simulation state — configuration,
    /// every client column, streaming aggregates and sampling cursors — into the versioned binary format
    /// of [`crate::checkpoint`]. A fleet restored from this snapshot
    /// ([`Fleet::restore`]) continues **byte-identically** to one that
    /// never stopped, for every thread count (the checkpoint/resume
    /// proptest pins this).
    ///
    /// Call at a [`Fleet::run_until`] boundary (any time outside a
    /// `run_until` call — the engine never exposes mid-step state).
    ///
    /// # Examples
    ///
    /// ```
    /// use fleet::config::FleetConfig;
    /// use fleet::engine::Fleet;
    /// use netsim::time::SimTime;
    ///
    /// let config = FleetConfig {
    ///     clients: 32,
    ///     horizon: netsim::time::SimDuration::from_secs(2_000),
    ///     ..FleetConfig::default()
    /// };
    /// // Run halfway, snapshot, and finish on the restored copy.
    /// let mut fleet = Fleet::new(config.clone());
    /// fleet.run_until(SimTime::from_secs(1_000));
    /// let snapshot = fleet.checkpoint();
    ///
    /// let mut resumed = Fleet::restore(&snapshot).expect("snapshot decodes");
    /// assert_eq!(resumed.now(), SimTime::from_secs(1_000));
    /// resumed.run_until(SimTime::from_secs(2_000));
    ///
    /// // The uninterrupted run reports byte-identically.
    /// fleet.run_until(SimTime::from_secs(2_000));
    /// assert_eq!(resumed.report(), fleet.report());
    /// ```
    pub fn checkpoint(&self) -> Vec<u8> {
        let encode_start = self.metrics.as_ref().map(|_| std::time::Instant::now());
        let mut w = Writer::new();
        w.bytes(&checkpoint::MAGIC);
        w.u32(checkpoint::VERSION);
        checkpoint::put_config(&mut w, &self.config);
        w.u64(self.now_ns);
        w.len(self.shards.len());
        for shard in &self.shards {
            shard.encode(&mut w);
        }
        let bytes = w.finish();
        if let (Some(m), Some(start)) = (&self.metrics, encode_start) {
            m.checkpoint_encode.record(start.elapsed());
            m.checkpoint_bytes.add(bytes.len() as u64);
        }
        bytes
    }

    /// Rebuilds a fleet from a [`Fleet::checkpoint`] snapshot. Structural
    /// state (tier parameters, resolver models, cache timelines) is
    /// re-derived from the embedded configuration through the same
    /// `rebuild` path a fresh fleet uses; the client columns and
    /// aggregates are then overwritten with the snapshot.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] when the bytes are not a checkpoint,
    /// are from another format version, fail the checksum, or decode to
    /// an inconsistent structure.
    pub fn restore(bytes: &[u8]) -> Result<Fleet, CheckpointError> {
        Self::restore_with(bytes, None)
    }

    /// [`Fleet::restore`] with instrumentation attached up front, so the
    /// decode itself is timed (`fleet_stage_seconds{stage=
    /// "checkpoint_restore"}`). The handle ends up attached to the
    /// returned fleet exactly as if [`Fleet::set_metrics`] had been
    /// called after a plain restore.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Fleet::restore`].
    pub fn restore_with(
        bytes: &[u8],
        metrics: Option<std::sync::Arc<FleetMetrics>>,
    ) -> Result<Fleet, CheckpointError> {
        let restore_start = metrics.as_ref().map(|_| std::time::Instant::now());
        let mut r = Reader::verified(bytes)?;
        if r.take(4)? != checkpoint::MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = r.u32()?;
        if version != checkpoint::VERSION {
            return Err(CheckpointError::BadVersion(version));
        }
        let config = checkpoint::get_config(&mut r)?;
        let mut fleet = Fleet::new(config);
        let now_ns = r.u64()?;
        if r.len()? != fleet.shards.len() {
            return Err(CheckpointError::Corrupt("shard count mismatch"));
        }
        let Fleet {
            ref mut shards,
            ref config,
            ref tiers,
            ..
        } = fleet;
        for shard in shards.iter_mut() {
            shard.decode(&mut r, config, tiers)?;
        }
        fleet.now_ns = now_ns;
        if r.remaining() != 0 {
            return Err(CheckpointError::Corrupt("trailing bytes after shards"));
        }
        if let (Some(m), Some(start)) = (&metrics, restore_start) {
            m.checkpoint_restore.record(start.elapsed());
        }
        fleet.metrics = metrics;
        Ok(fleet)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cohort::CohortTier;
    use crate::config::{FaultPlan, FleetAttack, OutageWindow, ServeStalePolicy, TierFaults};

    fn small_config() -> FleetConfig {
        FleetConfig {
            seed: 7,
            clients: 64,
            universe: 96,
            chronos: chronos::config::ChronosConfig {
                sample_size: 9,
                trim: 3,
                poll_interval: SimDuration::from_secs(64),
                pool: chronos::config::PoolGenConfig {
                    queries: 6,
                    query_interval: SimDuration::from_secs(200),
                    ..chronos::config::PoolGenConfig::default()
                },
                ..chronos::config::ChronosConfig::default()
            },
            stagger: SimDuration::from_secs(100),
            sample_every: SimDuration::from_secs(120),
            horizon: SimDuration::from_secs(2_400),
            ..FleetConfig::default()
        }
    }

    #[test]
    fn benign_fleet_stays_synced() {
        let mut fleet = Fleet::new(small_config());
        let report = fleet.run();
        assert_eq!(report.clients, 64);
        assert_eq!(report.synced_clients, 64, "everyone finished pool gen");
        assert_eq!(report.poisoned_clients, 0);
        assert_eq!(report.totals.pool_queries, 64 * 6);
        assert!(
            report.totals.accepts >= 64,
            "each client accepted at least once"
        );
        assert_eq!(
            report.final_shifted_fraction, 0.0,
            "no attack, nobody shifted"
        );
        assert!(report.shifted.iter().all(|&(_, f)| f == 0.0));
        assert!(!report.shifted.is_empty());
        assert!(report.events > 64 * 6);
        // The homogeneous breakdown is one implicit Chronos tier whose
        // numbers reproduce the fleet-wide fields.
        assert_eq!(report.tiers.len(), 1);
        let tier = &report.tiers[0];
        assert_eq!(tier.label, "chronos");
        assert_eq!(tier.kind, ClientKind::Chronos);
        assert_eq!(tier.clients, 64);
        assert_eq!(tier.totals, report.totals);
        assert_eq!(tier.shifted, report.shifted);
    }

    #[test]
    fn poisoning_during_generation_shifts_the_fleet() {
        let mut config = small_config();
        // Poison lands mid-generation: with 6 rounds x 200 s + 100 s
        // stagger, t = 300 s catches every client before round 3 of 6 —
        // >= 2/3 of each pool ends up malicious.
        config.attack = Some(FleetAttack::paper_default(
            SimTime::from_secs(300),
            SimDuration::from_millis(500),
        ));
        let mut fleet = Fleet::new(config);
        let report = fleet.run();
        assert_eq!(report.poisoned_clients, 64, "shared cache hits everyone");
        assert!(
            report.final_shifted_fraction > 0.9,
            "attacker majority drags (almost) the whole fleet: {}",
            report.final_shifted_fraction
        );
        // Poisoned clients are still *cold* at their first poll (pool
        // generation precedes syncing), so the unbounded cold-start
        // envelope accepts the shift directly — the paper's cold-client
        // path. The reject→panic path is exercised separately below.
        assert!(report.totals.accepts >= 64);
        // The series is monotone-ish: starts at 0, ends high.
        assert_eq!(report.shifted.first().unwrap().1, 0.0);
        assert!(report.shifted.last().unwrap().1 > 0.9);
        // Quantiles see the 500 ms shift.
        let p99 = report.quantiles.iter().find(|q| q.0 == 0.99).unwrap().1;
        assert!(p99 > 100_000_000.0, "p99 |offset| {p99} reflects the shift");
        assert!(report.histogram.fraction_at_or_above(100_000_000) > 0.1);
    }

    #[test]
    fn late_poisoning_misses_the_deadline() {
        let mut config = small_config();
        // After every client's round 4 of 6 (stagger 100 s + 4x200 s):
        // fewer than the winning share of rounds remain.
        config.attack = Some(FleetAttack::paper_default(
            SimTime::from_secs(1_000),
            SimDuration::from_millis(500),
        ));
        let mut fleet = Fleet::new(config);
        let report = fleet.run();
        // Every pool still picked up the poisoned rounds...
        assert_eq!(report.poisoned_clients, 64);
        // ...but 4 benign rounds of 4 addresses against 89 malicious is
        // still a 2/3 majority for the attacker with these compressed
        // numbers; what the deadline protects is pools with >= 45 benign
        // servers. Check composition arithmetic instead of the shift.
        let (benign, malicious) = fleet.client_pool(0);
        assert_eq!(malicious, 89);
        assert!(benign >= 4 * 4, "4 benign rounds landed before the poison");
    }

    #[test]
    fn disagreeing_universe_forces_rejects_and_panics() {
        // Benign servers scattered over ±200 ms against ω = 25 ms: every
        // mixed sample disagrees, so clients burn K retries and fall into
        // panic mode — the reject→panic machinery at fleet scale.
        let mut config = small_config();
        config.benign_offset_ms = 200;
        config.horizon = SimDuration::from_secs(2_000);
        let mut fleet = Fleet::new(config);
        let report = fleet.run();
        assert!(report.totals.rejects > 0, "ω rejected disagreeing rounds");
        assert!(report.totals.panics > 0, "K rejections forced panics");
        assert!(
            report.totals.panics * u64::from(fleet.config().chronos.max_retries)
                <= report.totals.rejects,
            "every panic costs K rejects"
        );
    }

    #[test]
    fn ttl_mitigation_blocks_the_poison_at_fleet_scale() {
        let mut config = small_config();
        config.chronos.pool.reject_ttl_above = Some(3_600);
        config.attack = Some(FleetAttack::paper_default(
            SimTime::from_secs(300),
            SimDuration::from_millis(500),
        ));
        let mut fleet = Fleet::new(config);
        let report = fleet.run();
        assert_eq!(
            report.poisoned_clients, 0,
            "day-long TTL rejected everywhere"
        );
        assert_eq!(report.final_shifted_fraction, 0.0);
    }

    #[test]
    fn record_cap_bounds_the_malicious_share() {
        let mut config = small_config();
        config.chronos.pool.max_records_per_response = Some(4);
        config.attack = Some(FleetAttack::paper_default(
            SimTime::from_secs(300),
            SimDuration::from_millis(500),
        ));
        let mut fleet = Fleet::new(config);
        fleet.run();
        let (_, malicious) = fleet.client_pool(0);
        assert_eq!(malicious, 4, "89-record blast capped to 4");
    }

    #[test]
    fn reset_reproduces_a_fresh_fleet() {
        let mut config = small_config();
        config.attack = Some(FleetAttack::paper_default(
            SimTime::from_secs(300),
            SimDuration::from_millis(500),
        ));
        config.clients = 16;
        config.record_trajectories = true;
        let mut fresh = Fleet::new(config.clone());
        let fresh_report = fresh.run();
        // Run the same fleet object at another seed, then reset back.
        let mut reused = Fleet::new(config);
        reused.run();
        reused.reset(99);
        reused.run();
        reused.reset(7);
        let reused_report = reused.run();
        assert_eq!(fresh_report, reused_report, "reset is byte-identical");
        for i in 0..16 {
            assert_eq!(fresh.trace(i), reused.trace(i), "client {i} trajectory");
        }
    }

    #[test]
    fn reconfigure_resizes_and_rebuilds() {
        let mut fleet = Fleet::new(small_config());
        fleet.run();
        let mut bigger = small_config();
        bigger.clients = 128;
        bigger.seed = 3;
        fleet.reconfigure(bigger.clone());
        let a = fleet.run();
        let b = Fleet::new(bigger).run();
        assert_eq!(a, b, "reconfigured fleet equals a fresh one");
        // Reconfiguring across shard layouts rebuilds the partition too.
        let mut sharded = small_config();
        sharded.clients = 40;
        sharded.shard_size = 16;
        fleet.reconfigure(sharded.clone());
        assert_eq!(fleet.shard_count(), 3, "40 clients / 16 per shard");
        let c = fleet.run();
        let d = Fleet::new(sharded).run();
        assert_eq!(c, d);
    }

    #[test]
    fn shifted_fraction_counts_against_the_bound() {
        let config = FleetConfig {
            clients: 4,
            stagger: SimDuration::ZERO,
            client_drift_ppm: 0.0,
            ..small_config()
        };
        let fleet = Fleet::new(config);
        assert_eq!(fleet.shifted_fraction(SimTime::ZERO), 0.0);
        assert_eq!(fleet.client_offset_ns(0, SimTime::ZERO), 0);
        assert_eq!(fleet.client_phase(0), Phase::PoolGeneration);
        assert_eq!(fleet.client_stats(0), ChronosStats::default());
        assert_eq!(fleet.client_tier(0), 0);
        assert_eq!(fleet.client_kind(0), ClientKind::Chronos);
        assert_eq!(fleet.client_resolver(0), 0, "R = 1: everyone on resolver 0");
    }

    /// A crafted `resume` blob can hold a valid checksum, so restore
    /// refuses the columns a fleet can never hold — a tier or resolver
    /// other than the one derived for the client, or more malicious
    /// servers than its lane can write — instead of panicking or
    /// allocating without bound on the next step.
    #[test]
    fn restore_refuses_columns_a_fleet_can_never_hold() {
        let mut config = small_config();
        config.resolvers = 3;
        config.tiers = vec![
            CohortTier::chronos("chronos", 1),
            CohortTier::plain_ntp("plain", 1),
            CohortTier::nts("nts", 1),
            CohortTier::roughtime("roughtime", 1),
        ];
        config.attack = Some(FleetAttack::paper_default(
            SimTime::ZERO,
            SimDuration::from_millis(500),
        ));
        let mut fleet = Fleet::new(config);
        fleet.run_until(SimTime::from_secs(600));
        let client = |kind| (0..64).find(|&i| fleet.client_kind(i) == kind).unwrap();
        let (chronos, plain) = (client(ClientKind::Chronos), client(ClientKind::PlainNtp));
        let (nts, roughtime) = (client(ClientKind::Nts), client(ClientKind::Roughtime));
        // The honest snapshot holds every lane at its cap (the farm, four
        // plain servers, an NTS list of `sample_size`, three sources), and
        // restores.
        let caps = [(chronos, 89), (plain, 4), (nts, 9), (roughtime, 3)];
        for (i, cap) in caps {
            assert_eq!(fleet.client_pool(i).1, cap, "client {i} at its cap");
        }
        let snapshot = fleet.checkpoint();
        assert!(Fleet::restore(&snapshot).is_ok());
        type Tamper = fn(&mut Shard, usize);
        let cases: [(&str, usize, Tamper); 8] = [
            ("tier", plain, |s, i| s.tier[i] = 200),
            ("tier", plain, |s, i| s.tier[i] = 0),
            ("resolver", chronos, |s, i| s.resolver[i] = 3),
            ("resolver", chronos, |s, i| {
                s.resolver[i] = (s.resolver[i] + 1) % 3
            }),
            ("malicious", chronos, |s, i| s.malicious[i] = 90),
            ("malicious", plain, |s, i| s.malicious[i] = 100_000),
            ("malicious", nts, |s, i| s.malicious[i] = 10),
            ("malicious", roughtime, |s, i| s.malicious[i] = 4),
        ];
        for (column, i, tamper) in cases {
            let mut tampered = Fleet::restore(&snapshot).unwrap();
            tamper(&mut tampered.shards[0], i);
            assert!(
                matches!(
                    Fleet::restore(&tampered.checkpoint()),
                    Err(CheckpointError::Corrupt(_))
                ),
                "{column} column accepted"
            );
        }
    }

    /// The satellite footprint budget: per-client column state must sit
    /// comfortably below ~180 B, so a 10⁶-client fleet's columns fit in
    /// ~170 MB.
    #[test]
    fn per_client_footprint_is_under_budget() {
        let footprint = Fleet::per_client_footprint_bytes();
        assert!(
            footprint < 180,
            "per-client footprint grew to {footprint} B (budget: < 180 B)"
        );
        // Document the breakdown this asserts over: 40 B clock, 24 B
        // compact stats, 20 B compact fault counters, 8 B each for
        // last_update/rng/benign-bitmap/deadline, 3 B tier + resolver
        // (the cohort columns), small counters, and the E18 secure-tier
        // columns: 8 B association expiry, 4 B source bitmasks, 12 B
        // compact secure counters.
        assert_eq!(footprint, 154, "update the breakdown when columns change");
        // Trajectory capture is lazy: no per-client Vec headers unless
        // opted in.
        let fleet = Fleet::new(small_config());
        assert!(
            fleet.shards.iter().all(|s| s.traces.is_empty()),
            "traces must not be allocated when capture is off"
        );
        let mut recording = small_config();
        recording.record_trajectories = true;
        let fleet = Fleet::new(recording);
        assert!(fleet
            .shards
            .iter()
            .all(|s| s.traces.len() == s.clocks.len()));
    }

    /// Sharding is an internal decomposition: neither per-client outcomes
    /// nor any part of the report may depend on it.
    #[test]
    fn shard_layout_does_not_change_outcomes() {
        let mut config = small_config();
        config.attack = Some(FleetAttack::paper_default(
            SimTime::from_secs(300),
            SimDuration::from_millis(500),
        ));
        config.record_trajectories = true;
        let one_shard = Fleet::new(config.clone());
        let mut one_shard = one_shard;
        let coarse = one_shard.run();
        assert_eq!(one_shard.shard_count(), 1);
        config.shard_size = 10; // 64 clients -> 7 ragged shards
        let mut sharded = Fleet::new(config);
        let fine = sharded.run();
        assert_eq!(sharded.shard_count(), 7);
        assert_eq!(coarse, fine, "the whole report is layout-free");
        for i in 0..64 {
            assert_eq!(one_shard.trace(i), sharded.trace(i), "client {i}");
            assert_eq!(one_shard.client_pool(i), sharded.client_pool(i));
        }
    }

    // --- cohort behaviour ---

    /// A 3:1 Chronos/plain mix under an attack landing *inside* the boot
    /// stagger: every Chronos pool is poisoned (24 opportunities), but
    /// only the plain clients that resolved after the poison landed are —
    /// the paper's 1-vs-24-opportunities contrast at population scale.
    #[test]
    fn mixed_fleet_separates_chronos_from_plain_ntp() {
        let mut config = small_config();
        config.tiers = vec![
            CohortTier::chronos("chronos", 3),
            CohortTier::plain_ntp("plain ntp", 1),
        ];
        // Attack at t = 50 s, boots staggered over 100 s: roughly half the
        // plain clients resolve before the poison lands.
        config.attack = Some(FleetAttack::paper_default(
            SimTime::from_secs(50),
            SimDuration::from_millis(500),
        ));
        let mut fleet = Fleet::new(config);
        let report = fleet.run();
        assert_eq!(report.tiers.len(), 2);
        let chronos_tier = &report.tiers[0];
        let plain_tier = &report.tiers[1];
        assert_eq!(chronos_tier.clients + plain_tier.clients, 64);
        assert_eq!(plain_tier.clients, 16, "3:1 split of 64");
        // Every Chronos client polls a poisoned pool and gets dragged.
        assert_eq!(chronos_tier.poisoned_clients, 48);
        assert!(chronos_tier.final_shifted_fraction > 0.9);
        // Plain clients: one resolution each; some landed pre-poison.
        assert!(plain_tier.poisoned_clients < 16, "early resolvers escaped");
        assert!(plain_tier.poisoned_clients > 0, "late resolvers captured");
        // A poisoned plain client's whole 4-server pool lies in unison —
        // it follows the lie; a clean one stays within the bound.
        let shifted = plain_tier.final_shifted_fraction;
        let poisoned_frac = plain_tier.poisoned_clients as f64 / 16.0;
        assert!(
            (shifted - poisoned_frac).abs() < 1e-9,
            "plain tier shifts exactly its poisoned share ({shifted} vs {poisoned_frac})"
        );
        // Per-client accessors agree with the balanced tier pattern
        // (shares [3, 1] interleave as A A B A, repeating).
        assert_eq!(fleet.client_kind(0), ClientKind::Chronos);
        assert_eq!(fleet.client_kind(1), ClientKind::Chronos);
        assert_eq!(fleet.client_kind(2), ClientKind::PlainNtp);
        assert_eq!(fleet.client_kind(3), ClientKind::Chronos);
        // Plain clients resolve once and never panic.
        assert_eq!(plain_tier.totals.pool_queries, 16);
        assert_eq!(plain_tier.totals.panics, 0);
        assert!(plain_tier.totals.polls > 0);
    }

    /// Partial poisoning across R resolvers: only the clients hashed onto
    /// the poisoned subset are captured.
    #[test]
    fn partial_resolver_poisoning_bounds_the_blast_radius() {
        let mut config = small_config();
        config.clients = 128;
        config.resolvers = 4;
        config.attack = Some(
            FleetAttack::paper_default(SimTime::from_secs(300), SimDuration::from_millis(500))
                .with_poisoned_resolvers(2),
        );
        let mut fleet = Fleet::new(config.clone());
        let report = fleet.run();
        // Exactly the clients behind resolvers 0-1 are poisoned.
        let behind_poisoned = (0..128).filter(|&i| fleet.client_resolver(i) < 2).count() as u64;
        assert_eq!(report.poisoned_clients, behind_poisoned);
        assert!(
            behind_poisoned > 0 && behind_poisoned < 128,
            "the hash split the fleet ({behind_poisoned}/128 behind poisoned resolvers)"
        );
        let captured = report.final_shifted_fraction;
        let poisoned_frac = behind_poisoned as f64 / 128.0;
        assert!(
            (captured - poisoned_frac).abs() < 0.1,
            "captured fraction {captured} tracks the poisoned-resolver share {poisoned_frac}"
        );
        // k = 0 poisons nobody; k = R poisons everyone (≡ None).
        config.attack = Some(config.attack.unwrap().with_poisoned_resolvers(0));
        assert_eq!(Fleet::new(config.clone()).run().poisoned_clients, 0);
        config.attack = Some(config.attack.unwrap().with_poisoned_resolvers(4));
        assert_eq!(Fleet::new(config).run().poisoned_clients, 128);
    }

    /// Per-tier Chronos overrides take effect: a fast-poll tier polls
    /// more often than the fleet-level default.
    #[test]
    fn tier_overrides_change_the_cadence() {
        let mut config = small_config();
        let mut fast = CohortTier::chronos("fast", 1);
        fast.poll_interval = Some(SimDuration::from_secs(16));
        fast.pool_size = Some(3);
        config.tiers = vec![CohortTier::chronos("default", 1), fast];
        let mut fleet = Fleet::new(config);
        let report = fleet.run();
        let default_tier = &report.tiers[0];
        let fast_tier = &report.tiers[1];
        // 3 pool rounds instead of 6, 4x the poll rate.
        assert_eq!(fast_tier.totals.pool_queries, 32 * 3);
        assert_eq!(default_tier.totals.pool_queries, 32 * 6);
        assert!(
            fast_tier.totals.polls > 2 * default_tier.totals.polls,
            "16 s polls out-poll 64 s polls: {} vs {}",
            fast_tier.totals.polls,
            default_tier.totals.polls
        );
    }

    // --- fault injection ---

    /// An explicitly-spelled-out all-zero fault plan is the *same run* as
    /// the default plan — every fault branch takes zero draws and zero
    /// side effects, so turning the machinery on without any fault rates
    /// cannot perturb a single client.
    #[test]
    fn inert_fault_plan_is_byte_identical_to_legacy() {
        let mut config = small_config();
        config.attack = Some(FleetAttack::paper_default(
            SimTime::from_secs(300),
            SimDuration::from_millis(500),
        ));
        config.record_trajectories = true;
        let mut legacy = Fleet::new(config.clone());
        let legacy_report = legacy.run();
        config.faults = FaultPlan {
            all_tiers: TierFaults::default(),
            tiers: vec![TierFaults {
                ntp_loss: 0.0,
                dns_servfail: 0.0,
            }],
            outages: Vec::new(),
            // A stale policy alone is inert: stale answers only exist
            // once something fails.
            serve_stale: Some(ServeStalePolicy::default()),
            retry: crate::config::RetryPolicy::default(),
        };
        let mut spelled = Fleet::new(config);
        let spelled_report = spelled.run();
        assert_eq!(
            format!("{legacy_report:?}"),
            format!("{spelled_report:?}"),
            "inert plan must not perturb the run"
        );
        assert_eq!(
            spelled_report.faults,
            crate::stats::FaultCounters::default()
        );
        for i in 0..64 {
            assert_eq!(legacy.trace(i), spelled.trace(i), "client {i}");
        }
    }

    /// Heavy sample loss starves rounds below `2·trim + 1`, which drives
    /// the real decision core through TooFewSamples rejects into genuine
    /// panic episodes.
    #[test]
    fn sample_loss_drives_rejects_and_panics() {
        let mut config = small_config();
        config.faults.all_tiers.ntp_loss = 0.8;
        let report = Fleet::new(config).run();
        assert!(report.faults.ntp_losses > 0, "losses were drawn");
        assert!(report.totals.rejects > 0, "starved rounds reject");
        assert!(report.totals.panics > 0, "K rejects escalate to panic");
        assert_eq!(report.faults.dns_servfails, 0, "DNS was untouched");
    }

    /// SERVFAIL on every query consumes every Chronos pool round without
    /// admitting anything: clients finish generation with empty pools and
    /// free-run (polls never count against an empty pool).
    #[test]
    fn servfail_consumes_rounds_and_counts() {
        let mut config = small_config();
        config.faults.all_tiers.dns_servfail = 1.0;
        let report = Fleet::new(config).run();
        assert_eq!(report.faults.dns_servfails, report.totals.pool_queries);
        assert_eq!(report.totals.pool_failures, report.totals.pool_queries);
        assert_eq!(report.faults.stale_served, 0, "nothing was ever cached");
        assert_eq!(report.poisoned_clients, 0);
        assert_eq!(report.synced_clients, 64, "rounds are consumed regardless");
        assert_eq!(report.totals.polls, 0, "empty pools never poll");
        assert_eq!(report.totals.accepts, 0);
    }

    /// The robustness/security interaction the retry lane exists to
    /// capture: without faults every plain-NTP boot resolves *before* the
    /// attack lands and the tier stays clean; a boot-time resolver outage
    /// pushes the retries into the poison window and the whole tier is
    /// captured. Availability faults widen the paper's one-shot plain-NTP
    /// poisoning opportunity.
    #[test]
    fn plain_retry_rides_an_outage_into_the_poison_window() {
        let mut config = small_config();
        config.tiers = vec![
            CohortTier::chronos("chronos", 1),
            CohortTier::plain_ntp("plain", 1),
        ];
        config.attack = Some(FleetAttack::paper_default(
            SimTime::from_secs(120),
            SimDuration::from_millis(500),
        ));
        let clean = Fleet::new(config.clone()).run();
        assert_eq!(
            clean.tiers[1].poisoned_clients, 0,
            "every boot precedes the attack"
        );
        // The single resolver is down for the first 150 s — longer than
        // the whole boot stagger.
        config.faults.outages = vec![vec![OutageWindow {
            start_ns: 0,
            duration_ns: 150 * 1_000_000_000,
        }]];
        let report = Fleet::new(config).run();
        let plain = &report.tiers[1];
        assert_eq!(
            plain.poisoned_clients as usize, plain.clients,
            "retries landed inside the poison window"
        );
        assert!(plain.faults.boot_retries > 0, "boots retried");
        assert!(plain.faults.outage_hits > 0, "the outage was observed");
        assert_eq!(
            report.tiers[0].faults.boot_retries, 0,
            "chronos lanes never boot-retry"
        );
    }

    /// RFC 8767 serve-stale bridges a mid-window outage for Chronos
    /// pools: benign entries past their TTL are re-served as stale answers, so
    /// no round fails outright and the fleet stays synced.
    #[test]
    fn serve_stale_bridges_an_outage_for_chronos_pools() {
        let mut config = small_config();
        // Prime the cache, then take the resolver down across most of the
        // remaining pool window (benign TTL is 150 s, so the cached batch
        // expires early in the outage).
        config.faults.outages = vec![vec![OutageWindow {
            start_ns: 250 * 1_000_000_000,
            duration_ns: 900 * 1_000_000_000,
        }]];
        config.faults.serve_stale = Some(ServeStalePolicy {
            max_stale_secs: 3600,
        });
        let report = Fleet::new(config).run();
        assert!(
            report.faults.stale_served > 0,
            "stale answers bridged the outage"
        );
        assert!(report.faults.outage_hits > 0);
        assert_eq!(report.totals.pool_failures, 0, "no round failed outright");
        assert_eq!(report.synced_clients, 64);
        assert!(
            report.final_shifted_fraction < 0.1,
            "benign stale answers keep the fleet synced ({})",
            report.final_shifted_fraction
        );
    }

    // --- secure tiers (E18) ---

    const G: u64 = 1_000_000_000;

    /// The NTS attack surface in one pair of runs: an association (NTS-KE
    /// resolution) inside the poison window hands the whole key lifetime
    /// to the attacker, while associations concluded *before* the poison
    /// are unspoofable for as long as the keys live — the same attack
    /// that captures every Chronos client mid-generation doesn't move an
    /// already-associated NTS client at all.
    #[test]
    fn nts_capture_is_bounded_by_the_association_window() {
        let mut config = small_config();
        config.tiers = vec![CohortTier::chronos("chronos", 1), CohortTier::nts("nts", 1)];
        // Poison precedes every boot: each NTS-KE handshake is with the
        // attacker's servers, and the minted keys authenticate the
        // attacker's time for the (day-long) key lifetime.
        config.attack = Some(FleetAttack::paper_default(
            SimTime::ZERO,
            SimDuration::from_millis(500),
        ));
        let early = Fleet::new(config.clone()).run();
        let nts = &early.tiers[1];
        assert_eq!(nts.secure.captured_associations as usize, nts.clients);
        assert_eq!(nts.secure.rekeys as usize, nts.clients, "boot only");
        assert_eq!(nts.poisoned_clients as usize, nts.clients);
        assert!(
            nts.final_shifted_fraction > 0.9,
            "captured associations steer the tier: {}",
            nts.final_shifted_fraction
        );
        // Poison lands after every boot (stagger spreads boots over the
        // first 100 s) but still mid-Chronos-pool-generation: Chronos
        // tiers are captured as always, NTS tiers don't budge — their
        // only DNS-dependent step already happened.
        config.attack = Some(FleetAttack::paper_default(
            SimTime::from_secs(150),
            SimDuration::from_millis(500),
        ));
        let late = Fleet::new(config).run();
        let (chronos, nts) = (&late.tiers[0], &late.tiers[1]);
        assert_eq!(chronos.poisoned_clients as usize, chronos.clients);
        assert!(chronos.final_shifted_fraction > 0.9);
        assert_eq!(nts.secure.captured_associations, 0);
        assert_eq!(nts.poisoned_clients, 0);
        assert_eq!(nts.final_shifted_fraction, 0.0, "post-boot poison is inert");
        assert!(nts.totals.accepts > 0, "the tier kept syncing normally");
    }

    /// RFC 8767 serve-stale as a poison launderer: the attack's cache
    /// entry lapsed long before the NTS re-key boundary, but an outage
    /// at the boundary makes the resolver re-serve the *lapsed poisoned*
    /// record (it is the latest cache write), so the re-key associates to
    /// the attacker after the poison window already closed — stale
    /// service extends the attacker's reach beyond the record's TTL.
    #[test]
    fn serve_stale_launders_expired_poison_into_an_nts_rekey() {
        let mut config = small_config();
        config.clients = 8;
        config.stagger = SimDuration::ZERO;
        config.horizon = SimDuration::from_secs(1_100);
        let mut nts = CohortTier::nts("nts", 1);
        nts.rekey_interval = Some(SimDuration::from_secs(600));
        nts.key_lifetime = Some(SimDuration::from_secs(3_600));
        config.tiers = vec![nts];
        // A short boot-retry chain (all phantom attempts land before
        // 300 s) so no phantom benign fetch re-primes the cache between
        // the poison's expiry and the re-key boundary.
        config.faults.retry = crate::config::RetryPolicy {
            base: SimDuration::from_secs(32),
            cap: SimDuration::from_secs(256),
            jitter: 0.25,
            max_attempts: 4,
        };
        // Poison lives [50 s, 560 s) — boots at 0 s are clean, and the
        // 600 s re-key is past the poison's expiry.
        config.attack = Some(FleetAttack {
            ttl_secs: 510,
            ..FleetAttack::paper_default(SimTime::from_secs(50), SimDuration::from_millis(500))
        });
        let clean = Fleet::new(config.clone()).run();
        assert_eq!(
            clean.secure.captured_associations, 0,
            "the re-key sees fresh benign records"
        );
        assert_eq!(clean.final_shifted_fraction, 0.0);
        assert_eq!(clean.secure.rekeys, 16, "boot + one clean re-key each");
        // Same run with the resolver down across the boundary and
        // serve-stale configured: the stale answer is the poisoned one.
        config.faults.outages = vec![vec![OutageWindow {
            start_ns: 590 * G,
            duration_ns: 30 * G,
        }]];
        config.faults.serve_stale = Some(ServeStalePolicy {
            max_stale_secs: 3_600,
        });
        let report = Fleet::new(config).run();
        assert_eq!(
            report.secure.captured_associations, 8,
            "every re-key was laundered into an attacker association"
        );
        assert!(report.faults.stale_served >= 8);
        assert_eq!(report.secure.rekeys, 16);
        assert!(
            report.final_shifted_fraction > 0.9,
            "the laundered keys steer the tier: {}",
            report.final_shifted_fraction
        );
    }

    /// The availability/security interaction on the NTS re-key lane: a
    /// resolver outage at the boundary hard-fails the NTS-KE resolution
    /// (no serve-stale), and the capped-exponential retry chain walks
    /// right past the attack's landing time — the re-key that would have
    /// concluded safely at 600 s instead associates inside the poison
    /// window. Availability faults widen the NTS association surface
    /// exactly as they widen plain-NTP boots.
    #[test]
    fn outage_retries_walk_an_nts_rekey_into_the_poison_window() {
        let mut config = small_config();
        config.clients = 8;
        config.stagger = SimDuration::ZERO;
        config.horizon = SimDuration::from_secs(1_100);
        let mut nts = CohortTier::nts("nts", 1);
        nts.rekey_interval = Some(SimDuration::from_secs(600));
        nts.key_lifetime = Some(SimDuration::from_secs(3_600));
        config.tiers = vec![nts];
        // Boot-retry phantom fetches must all land (and their cache
        // entries expire) before the outage opens at 590 s, so the 600 s
        // re-key is a genuine cache miss.
        config.faults.retry = crate::config::RetryPolicy {
            base: SimDuration::from_secs(32),
            cap: SimDuration::from_secs(256),
            jitter: 0.25,
            max_attempts: 4,
        };
        config.attack = Some(FleetAttack::paper_default(
            SimTime::from_secs(700),
            SimDuration::from_millis(500),
        ));
        let clean = Fleet::new(config.clone()).run();
        assert_eq!(
            clean.secure.captured_associations, 0,
            "the 600 s re-key precedes the 700 s attack"
        );
        assert_eq!(clean.final_shifted_fraction, 0.0);
        // Outage [590 s, 710 s): the boundary fails, and the backoff
        // chain (32, 64, 128 s) retries until it lands after the attack.
        config.faults.outages = vec![vec![OutageWindow {
            start_ns: 590 * G,
            duration_ns: 120 * G,
        }]];
        let report = Fleet::new(config).run();
        assert_eq!(
            report.secure.captured_associations, 8,
            "every retry chain re-associated inside the poison window"
        );
        assert!(report.faults.boot_retries > 0, "the boundary retried");
        assert!(report.faults.outage_hits > 0, "the outage was observed");
        assert!(
            report.final_shifted_fraction > 0.9,
            "walked-in associations steer the tier: {}",
            report.final_shifted_fraction
        );
    }

    /// Roughtime's redundancy argument, plus its M = 1 failure mode
    /// (ETH2 Medalla) in the same run: with M = 3 sources fanned over 3
    /// distinct resolvers, poisoning one resolver captures exactly one
    /// source per client and the 2-honest majority out-votes it every
    /// fetch; with M = 1 the lone source *is* the client's resolver, and
    /// the captured third of the tier follows the attacker blindly —
    /// nothing is ever detected.
    #[test]
    fn roughtime_majority_rides_out_a_poisoned_resolver() {
        let mut config = small_config();
        config.clients = 48;
        config.resolvers = 3;
        let mut redundant = CohortTier::roughtime("rt-3", 1);
        redundant.sources = Some(3);
        let mut medalla = CohortTier::roughtime("rt-1", 1);
        medalla.sources = Some(1);
        config.tiers = vec![redundant, medalla];
        config.attack = Some(
            FleetAttack::paper_default(SimTime::ZERO, SimDuration::from_millis(500))
                .with_poisoned_resolvers(1),
        );
        let report = Fleet::new(config).run();
        let (rt3, rt1) = (&report.tiers[0], &report.tiers[1]);
        assert_eq!(
            rt3.secure.captured_associations as usize, rt3.clients,
            "each M = 3 client holds exactly one captured source"
        );
        assert_eq!(rt3.final_shifted_fraction, 0.0, "majority out-votes it");
        assert_eq!(rt3.secure.detected_inconsistencies, 0);
        assert!(rt3.totals.accepts > 0, "cross-checked fetches kept landing");
        assert!(
            rt1.final_shifted_fraction > 0.15 && rt1.final_shifted_fraction < 0.6,
            "the resolver-0 share of the M = 1 tier is captured: {}",
            rt1.final_shifted_fraction
        );
        assert_eq!(rt1.secure.detected_inconsistencies, 0, "nothing to vote");
        assert_eq!(
            rt1.secure.captured_associations, rt1.poisoned_clients,
            "capture = the lone source behind the poisoned cache"
        );
    }

    /// An even source split (M = 2, one captured) has no strict majority:
    /// every fetch is a *detected* inconsistency — counted, never applied
    /// — so the clock freewheels rather than follow the attacker.
    #[test]
    fn roughtime_even_split_is_detected_not_followed() {
        let mut config = small_config();
        config.clients = 16;
        config.resolvers = 2;
        let mut tier = CohortTier::roughtime("rt-2", 1);
        tier.sources = Some(2);
        config.tiers = vec![tier];
        config.attack = Some(
            FleetAttack::paper_default(SimTime::ZERO, SimDuration::from_millis(500))
                .with_poisoned_resolvers(1),
        );
        let report = Fleet::new(config).run();
        assert!(report.secure.detected_inconsistencies > 0);
        assert_eq!(
            report.secure.detected_inconsistencies, report.totals.rejects,
            "every inconsistency is a rejected round"
        );
        assert_eq!(report.totals.accepts, 0, "no majority, no corrections");
        assert_eq!(
            report.final_shifted_fraction, 0.0,
            "a detected split never steers the clock"
        );
    }
}
