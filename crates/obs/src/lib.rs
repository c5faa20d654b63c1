//! `obs` — the *chronoscope*: a std-only, allocation-light metrics and
//! structured-logging core shared by the fleet engine, `chronosd` and the
//! bench harness.
//!
//! The container this workspace builds in has no network access, so like
//! everything under `crates/compat/` this crate depends on nothing but
//! `std`. It provides five small pieces:
//!
//! * [`Counter`] / [`Gauge`] — lock-free atomic instruments; a handle is
//!   an `Arc` clone, recording is a single relaxed atomic op.
//! * [`TimeHistogram`] — a log-binned wall-time histogram over
//!   1 µs … 1000 s, on the [`metrics::log_edges_ns`] layout
//!   (`10^(3 + d + b/bpd)` ns) that `fleet::stats::OffsetHistogram` bins
//!   on too, so bin layouts read the same across the whole repo.
//! * [`Registry`] — a label-ordered instrument registry with
//!   point-in-time [`Registry::snapshot`]s and a Prometheus text
//!   exposition renderer ([`expo::render`]) plus a parser/validator
//!   ([`expo::parse`]) used by `chronosctl metrics` and CI.
//! * [`Logger`] — a leveled, monotonic-stamped structured (logfmt)
//!   logger that replaces `chronosd`'s silent failure paths.
//! * [`json::Json`] — the workspace's one JSON codec: canonical compact
//!   rendering and a bounded recursive-descent parser, behind
//!   `chronosd`'s wire protocol and manifest, the bench harness's
//!   `BENCH_*.json` writer and `bench-diff`'s reader.
//!
//! The instruments are wall-clock only: nothing in this crate touches
//! simulation state or RNG streams, which is what lets the fleet engine
//! attach instrumentation and stay byte-identical with metrics on or off
//! (proptest-proven in `crates/fleet/tests/prop_metrics_determinism.rs`).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod expo;
pub mod json;
pub mod log;
pub mod metrics;
pub mod registry;

pub use crate::log::{Level, Logger};
pub use crate::metrics::{Counter, Gauge, HistogramSnapshot, TimeHistogram};
pub use crate::registry::{MetricSnapshot, MetricValue, Registry};
