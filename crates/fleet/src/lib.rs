//! # fleet — population-scale Chronos simulation
//!
//! The packet-level [`netsim`] worlds simulate *one* Chronos victim (plus a
//! plain-NTP control) with full wire fidelity. The paper's headline claim,
//! however, is a *population* statement: an off-path attacker who poisons
//! the pool's DNS mapping shifts time on **every client behind the
//! resolver**, not one client in isolation. This crate is the layer that
//! makes that claim simulable: 10⁵–10⁶ lightweight Chronos clients inside a
//! single shared world, against one rotating `pool.ntp.org` zone and one
//! attacker — and, since the cohort layer, across **heterogeneous
//! populations**: mixed Chronos/plain-NTP tiers with per-tier
//! configuration overrides ([`cohort`]), hashed over multiple independent
//! resolver caches of which the attacker may control only a fraction
//! ([`FleetConfig::resolvers`],
//! [`config::FleetAttack::poisoned_resolvers`]) — the
//! fraction-of-population vs fraction-of-resolvers-poisoned question
//! (E16).
//!
//! ## How it stays cheap
//!
//! * **Struct-of-arrays state** ([`Fleet`]): clocks (real
//!   [`ntplab::clock::LocalClock`]s), phases, retry counters, poll
//!   deadlines and per-client RNG streams live in parallel columns; one
//!   client costs under 120 bytes
//!   ([`Fleet::per_client_footprint_bytes`]) and no allocations after
//!   construction.
//! * **Sharded parallel stepping**: the columns are partitioned into
//!   contiguous shards ([`FleetConfig::shard_size`] clients each), every
//!   shard owning its scratch buffers and streaming aggregates. The only
//!   cross-client coupling — the shared resolver cache — is resolved by
//!   a deterministic pre-pass ([`resolver::ResolverTimeline`]; pool-query
//!   times are static), after which shards step embarrassingly parallel
//!   on [`FleetConfig::threads`] workers and merge by integer addition:
//!   runs are **byte-identical for every thread count and shard size**.
//! * **The decision logic is the real one**: every round concludes through
//!   [`chronos::core`] — the same borrowed-state stepping API the
//!   packet-level [`chronos::client::ChronosClient`] delegates to — so the
//!   fleet cannot drift from the reference client's accept/reject/panic
//!   behaviour.
//! * **No global event order**: a client's events touch only its own
//!   columns, so each slice runs every client straight through its events
//!   off one `deadline_ns` column, with no event queue at all, instead of
//!   pushing every client through netsim's per-node event heap.
//! * **Batched request/response rounds**: DNS pool generation consults a
//!   shared resolver-cache model ([`resolver::ResolverModel`]) that mirrors
//!   `dnslab`'s rotation + TTL caching semantics (150 s pool TTL, 4 records
//!   per response, a poisoned entry frozen for its high TTL); NTP sample
//!   rounds draw server offsets directly from the benign/malicious pool
//!   composition instead of exchanging packets.
//! * **Streaming aggregates** ([`stats`]): fixed-bin offset histograms,
//!   with the quantiles read off their bins, so a million-client run's
//!   memory stays bounded by the fleet state itself — no per-client
//!   trajectories unless explicitly requested.
//!
//! ## Deterministic fault injection (E17)
//!
//! A structural [`config::FaultPlan`] degrades the network without
//! touching determinism: per-tier NTP sample loss and DNS SERVFAIL
//! probabilities, per-resolver outage windows, RFC 8767 serve-stale, and
//! a capped-exponential-backoff retry lane for plain-NTP boot
//! resolution. Every fault draw comes from a dedicated stateless
//! substream ([`rng::fault_f64`], keyed by client, lane, round and
//! sample slot) that consumes nothing from the client's main RNG
//! sequence — so an all-zero plan reproduces the fault-free run
//! byte-for-byte, and faulty runs stay byte-identical across thread
//! counts and shard sizes. Surviving sample subsets feed the *real*
//! [`chronos::core`] decision logic, so starved rounds reject and panic
//! exactly as the reference client would.
//!
//! ## Fidelity contract
//!
//! The fleet is a *mean-field* model of the network: per-sample benign
//! server offsets are drawn i.i.d. from the configured imperfection bound
//! and path noise is a configurable jitter, where netsim assigns each
//! server a persistent clock. What is **exact** is the Chronos state
//! machine (shared code), the pool-composition arithmetic (rotation
//! batches, dedup, §V record-cap/TTL mitigations) and the shared-cache
//! poisoning window. With `shared_cache: false` every client is fully
//! independent, and a fleet of N clients is byte-identical to N
//! single-client runs with matched global ids — the property test in
//! `tests/prop_fleet_equivalence.rs` pins this.
//!
//! *(Workspace map: see `ARCHITECTURE.md` at the repo root — crate-by-crate
//! architecture, the data-flow diagram, and the determinism contract.)*

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod checkpoint;
pub mod cohort;
pub mod config;
pub mod engine;
pub mod metrics;
pub mod resolver;
pub mod rng;
pub mod stats;
pub mod wheel;

pub use checkpoint::CheckpointError;
pub use cohort::{ClientKind, CohortTier};
pub use config::{
    FaultPlan, FleetAttack, FleetConfig, OutageWindow, RetryPolicy, ServeStalePolicy, TierFaults,
};
pub use engine::{Fleet, FleetProgress, FleetReport, FleetThroughput, TierBreakdown};
pub use metrics::{FleetMetrics, StageSummary};
pub use stats::{FaultCounters, OffsetHistogram, SecureCounters};

/// Convenient glob-import of the commonly used types.
pub mod prelude {
    pub use crate::checkpoint::CheckpointError;
    pub use crate::cohort::{ClientKind, CohortTier};
    pub use crate::config::{
        FaultPlan, FleetAttack, FleetConfig, OutageWindow, RetryPolicy, ServeStalePolicy,
        TierFaults,
    };
    pub use crate::engine::{Fleet, FleetProgress, FleetReport, FleetThroughput, TierBreakdown};
    pub use crate::metrics::{FleetMetrics, StageSummary};
    pub use crate::stats::{FaultCounters, OffsetHistogram, SecureCounters};
}
