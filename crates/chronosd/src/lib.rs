//! # chronosd — the simulation daemon
//!
//! Batch runs answer one question and exit. This crate turns the fleet
//! engine into a **service**: `chronosd` hosts persistent [`fleet::Fleet`]
//! runs and pooled sweeps as *named jobs*, steps them in `run_until`
//! slices on worker threads, and serves live observability over a
//! Unix-domain socket speaking newline-delimited JSON — job listings,
//! per-job progress, and full streaming [`fleet::FleetReport`] snapshots
//! (per-tier breakdowns and fault counters included) while a job is still
//! running. `chronosctl` is the operator client: submit, watch, pause,
//! checkpoint to a file, resume in a *fresh daemon process*, stop.
//!
//! The load-bearing guarantee is inherited from the engine and pinned by
//! its property tests: a job's final report is a pure function of its
//! [`fleet::FleetConfig`]. Slicing, polling, thread counts, and
//! checkpoint/resume cuts (`fleet::Fleet::checkpoint` /
//! `fleet::Fleet::restore`) are all invisible — CI literally diffs the
//! JSON report of a checkpointed-resumed daemon job against the batch
//! runner's bytes.
//!
//! Module map: [`render`] (canonical report/progress JSON through
//! [`obs::json`], the workspace's one JSON codec, re-exported here as
//! [`Json`]; one generic renderer for every sweep), [`jobs`] (the
//! four-variant job model — a fleet, a sweep over grid points, a resume
//! from durable bytes, a panic probe — the one parse function mapping
//! wire kinds onto experiment configs and grids, the job table, and the
//! fair-slicing worker pool whose body is one `run_one` turn; each job
//! keeps its changing state behind one lock, so every transition is one
//! critical section, and a test-only harness replays command
//! interleavings from one thread),
//! [`daemon`] (the socket server), [`client`] (the client used by
//! `chronosctl`, the `service_mode` example and the smoke tests),
//! [`metrics`] (the chronoscope layer: the metric registry behind the
//! `metrics` command, per-job gauges, and the structured logger that
//! replaces the daemon's formerly silent failure paths), [`sweep`] (the
//! `SWP1` sweep-cursor layout — grid points plus per-row checkpoints —
//! written and read through `fleet::checkpoint`'s `Writer`/`Reader`),
//! [`state`] (the `--state-dir` durability layer: checksummed manifest,
//! periodic snapshots, resume-on-boot with quarantine).

#![warn(missing_docs)]

pub mod client;
pub mod daemon;
#[cfg(test)]
mod interleavings;
pub mod jobs;
pub mod metrics;
pub mod render;
pub mod state;
pub mod sweep;

pub use client::{Client, ClientError};
pub use daemon::{Daemon, DaemonConfig, PROTOCOL_VERSION};
pub use jobs::{Job, JobSnapshot, JobSpec, JobState, JobTable};
pub use metrics::{DaemonObs, JobMetrics, LOG_ENV};
pub use obs::json::Json;
pub use state::StateDir;
pub use sweep::SweepCursor;
