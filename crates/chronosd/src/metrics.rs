//! Daemon observability: the metric registry, the structured logger, and
//! the per-job gauge bundles behind the `metrics` protocol command.
//!
//! One [`DaemonObs`] is created when the daemon binds its socket and
//! shared (via `Arc`) with every connection handler and the job table.
//! It owns:
//!
//! * the [`obs::Registry`] rendered by the `metrics` command,
//! * daemon-wide counters — connections accepted, commands by kind,
//!   protocol errors,
//! * one daemon-wide [`fleet::metrics::FleetMetrics`] attached to every
//!   hosted fleet (engine stage timings aggregate across jobs),
//! * the [`obs::Logger`] that replaces the daemon's formerly silent
//!   failure paths (level from `CHRONOSD_LOG`, default `info`).
//!
//! A [`JobMetrics`] bundle is registered per job at submit time, labelled
//! `{job="<name>"}`; gauges hold the job's latest-slice throughput and
//! checkpoint cost. Every [`JobTable`](crate::jobs::JobTable) takes one;
//! embedders and tests that want silence pass a logger whose sink
//! discards (`Logger::to_sink(Level::Error, Box::new(std::io::sink()))`).

use fleet::metrics::FleetMetrics;
use obs::{Counter, Gauge, Level, Logger, Registry};
use std::sync::Arc;

/// Environment variable selecting the daemon log level
/// (`error|warn|info|debug`; unset or unknown → `info`).
pub const LOG_ENV: &str = "CHRONOSD_LOG";

/// The daemon's shared observability state.
#[derive(Debug)]
pub struct DaemonObs {
    /// Every instrument below (plus per-job bundles) registers here; the
    /// `metrics` command renders it.
    pub registry: Registry,
    /// The daemon's structured logger.
    pub logger: Arc<Logger>,
    /// Engine stage instrumentation, attached to every hosted fleet
    /// (daemon-wide: stages aggregate across jobs).
    pub fleet: Arc<FleetMetrics>,
    /// Connections accepted (`chronosd_connections_total`).
    pub connections: Arc<Counter>,
    /// Malformed requests — unparseable JSON, missing or unknown `cmd`
    /// (`chronosd_protocol_errors_total`).
    pub protocol_errors: Arc<Counter>,
    /// `run_until` slices stepped by the worker pool
    /// (`chronosd_slices_total`).
    pub slices_scheduled: Arc<Counter>,
    /// Job panics caught by the pool's `catch_unwind` isolation
    /// (`chronosd_job_panics_total`). Stays 0 on a healthy daemon.
    pub job_panics: Arc<Counter>,
    /// State-dir snapshots written — manifest rewrites, each covering
    /// every live job (`chronosd_checkpoints_written_total`).
    pub checkpoints_written: Arc<Counter>,
    /// Jobs restored from the state dir at boot
    /// (`chronosd_checkpoints_restored_total`).
    pub checkpoints_restored: Arc<Counter>,
    /// Corrupt state files moved to `quarantine/` at boot
    /// (`chronosd_quarantines_total`).
    pub quarantines: Arc<Counter>,
}

/// Per-job gauges, labelled `{job="<name>"}` in the registry.
#[derive(Debug, Clone)]
pub struct JobMetrics {
    /// Wall seconds of the most recent completed slice
    /// (`chronosd_job_slice_wall_seconds`).
    pub slice_wall: Arc<Gauge>,
    /// Simulated seconds advanced per wall second over the last slice
    /// (`chronosd_job_sim_seconds_per_wall_second`).
    pub sim_per_wall: Arc<Gauge>,
    /// Client events stepped per wall second over the last slice
    /// (`chronosd_job_events_per_sec`).
    pub events_per_sec: Arc<Gauge>,
    /// Size of the job's most recent checkpoint
    /// (`chronosd_job_checkpoint_bytes`).
    pub checkpoint_bytes: Arc<Gauge>,
    /// Wall seconds the most recent checkpoint took, including the wait
    /// for the fleet to park (`chronosd_job_checkpoint_wall_seconds`).
    pub checkpoint_wall: Arc<Gauge>,
    /// Live `watch` streams on this job
    /// (`chronosd_job_watch_subscribers`).
    pub watchers: Arc<Gauge>,
}

impl DaemonObs {
    /// Builds the daemon's observability state with the given logger.
    pub fn new(logger: Logger) -> DaemonObs {
        let registry = Registry::new();
        let fleet = Arc::new(FleetMetrics::registered(&registry, &[]));
        let connections = registry.counter(
            "chronosd_connections_total",
            "Connections accepted on the control socket.",
            &[],
        );
        let protocol_errors = registry.counter(
            "chronosd_protocol_errors_total",
            "Malformed requests: unparseable JSON, missing or unknown cmd.",
            &[],
        );
        let slices_scheduled = registry.counter(
            "chronosd_slices_total",
            "run_until slices stepped by the worker pool.",
            &[],
        );
        let job_panics = registry.counter(
            "chronosd_job_panics_total",
            "Job panics caught by the worker pool (job marked failed).",
            &[],
        );
        let checkpoints_written = registry.counter(
            "chronosd_checkpoints_written_total",
            "State-dir snapshots written (manifest plus job files).",
            &[],
        );
        let checkpoints_restored = registry.counter(
            "chronosd_checkpoints_restored_total",
            "Jobs restored from the state dir at boot.",
            &[],
        );
        let quarantines = registry.counter(
            "chronosd_quarantines_total",
            "Corrupt state files quarantined at boot.",
            &[],
        );
        DaemonObs {
            registry,
            logger: Arc::new(logger),
            fleet,
            connections,
            protocol_errors,
            slices_scheduled,
            job_panics,
            checkpoints_written,
            checkpoints_restored,
            quarantines,
        }
    }

    /// [`DaemonObs::new`] with a stderr logger at the level named by
    /// `CHRONOSD_LOG` (default `info`).
    pub fn from_env() -> DaemonObs {
        let level = std::env::var(LOG_ENV)
            .ok()
            .as_deref()
            .and_then(Level::parse)
            .unwrap_or(Level::Info);
        DaemonObs::new(Logger::stderr(level))
    }

    /// Counts one dispatched command (`chronosd_commands_total{cmd=…}`).
    /// Callers must map unrecognized client input to a fixed label (the
    /// daemon uses `"unknown"`) so label cardinality stays bounded.
    pub fn count_command(&self, cmd: &str) {
        self.registry
            .counter(
                "chronosd_commands_total",
                "Requests dispatched, by command.",
                &[("cmd", cmd)],
            )
            .inc();
    }

    /// Registers (or re-derives) the gauge bundle for job `name`.
    pub fn job_metrics(&self, name: &str) -> JobMetrics {
        let labels = [("job", name)];
        let gauge = |metric: &str, help: &str| self.registry.gauge(metric, help, &labels);
        JobMetrics {
            slice_wall: gauge(
                "chronosd_job_slice_wall_seconds",
                "Wall seconds of the job's most recent slice.",
            ),
            sim_per_wall: gauge(
                "chronosd_job_sim_seconds_per_wall_second",
                "Simulated seconds per wall second over the last slice.",
            ),
            events_per_sec: gauge(
                "chronosd_job_events_per_sec",
                "Client events stepped per wall second over the last slice.",
            ),
            checkpoint_bytes: gauge(
                "chronosd_job_checkpoint_bytes",
                "Size of the job's most recent checkpoint.",
            ),
            checkpoint_wall: gauge(
                "chronosd_job_checkpoint_wall_seconds",
                "Wall seconds the job's most recent checkpoint took.",
            ),
            watchers: gauge(
                "chronosd_job_watch_subscribers",
                "Live watch streams on this job.",
            ),
        }
    }

    /// Renders the registry as Prometheus text exposition (the payload
    /// of the `metrics` command).
    pub fn render(&self) -> String {
        self.registry.render_prometheus()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_carries_daemon_and_job_families() {
        let daemon = DaemonObs::new(Logger::stderr(Level::Error));
        daemon.connections.inc();
        daemon.count_command("ping");
        daemon.count_command("ping");
        let job = daemon.job_metrics("smoke");
        job.events_per_sec.set(123_456.0);
        job.watchers.add(1.0);
        let text = daemon.render();
        assert!(text.contains("chronosd_connections_total 1"));
        assert!(text.contains("chronosd_commands_total{cmd=\"ping\"} 2"));
        assert!(text.contains("chronosd_job_events_per_sec{job=\"smoke\"} 123456"));
        assert!(text.contains("chronosd_job_watch_subscribers{job=\"smoke\"} 1"));
        // Engine stage families are registered up front (zero-valued).
        assert!(text.contains("# TYPE fleet_stage_seconds histogram"));
        assert!(text.contains("fleet_events_total 0"));
        // The whole exposition must satisfy our own validator.
        obs::expo::parse(&text).expect("exposition parses");
    }

    #[test]
    fn job_metrics_are_idempotent_per_name() {
        let daemon = DaemonObs::new(Logger::stderr(Level::Error));
        let a = daemon.job_metrics("j");
        let b = daemon.job_metrics("j");
        a.slice_wall.set(2.0);
        assert_eq!(b.slice_wall.get(), 2.0);
    }
}
