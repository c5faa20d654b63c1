//! The benchmark's metric catalogue: every metric it can print, its unit,
//! and — for per-layer metrics — which end-to-end metric it should move.
//! `BENCHMARK.json` at the repository root lists the same names and units
//! (a test below keeps the two in step); this table is where the
//! per-layer → end-to-end mapping lives, because the JSON file's schema
//! has no field for it.
//!
//! Every workload prints the whole table of its mode. A traced run
//! measures the layers its workload exercises on the workload itself, and
//! every other layer on a reduced copy of the workload that exercises it:
//! the `probe` function of `fleet_wl`, `daemon_wl` or `packet_wl`.

use Workload::{ChronosAttack, Daemon, Packet};

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `fleet_chronos_attack`: 100k stock-Chronos clients, one poisoned
    /// resolver.
    ChronosAttack,
    /// `daemon_loaded`: two fleet jobs hosted by an in-process `chronosd`.
    Daemon,
    /// `packet_worlds`: 1024 packet-level trials.
    Packet,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [ChronosAttack, Daemon, Packet];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            ChronosAttack => "fleet_chronos_attack",
            Daemon => "daemon_loaded",
            Packet => "packet_worlds",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One metric the benchmark can print.
#[derive(Debug)]
pub struct Metric {
    /// Name, unique across both tables.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"` (checked against `BENCHMARK.json`).
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
    /// The end-to-end metric (and workload) a change in this metric should
    /// move; empty for end-to-end metrics. Documentation: nothing reads
    /// it but the test that every per-layer metric names one.
    #[cfg_attr(not(test), allow(dead_code))]
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        moves,
    }
}

/// Printed with `--trace 0`, on every workload.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", "lower", ""),
    m("run_s", "s", "lower", ""),
    m("peak_rss_mb", "MB", "lower", ""),
];

/// Printed with `--trace 1`, on every workload.
pub const PER_LAYER: &[Metric] = &[
    // fleet::engine, timed from outside around its public calls.
    m("fleet.new_ms", "ms", "lower", "setup_s"),
    m("fleet.prepass_ms", "ms", "lower", "setup_s"),
    m("fleet.slice_p50_ms", "ms", "lower", "run_s"),
    m("fleet.slice_max_ms", "ms", "lower", "run_s"),
    m("fleet.ns_per_event", "ns", "lower", "run_s"),
    m("fleet.report_ms", "ms", "lower", "run_s"),
    m(
        "fleet.progress_us",
        "us",
        "lower",
        "cmd_p50_ms and run_s on daemon_loaded",
    ),
    // fleet::checkpoint, on the paused e16 job's state.
    m(
        "fleet.checkpoint_ms",
        "ms",
        "lower",
        "checkpoint_ms on daemon_loaded",
    ),
    m(
        "fleet.checkpoint_bytes_per_client",
        "bytes",
        "lower",
        "checkpoint_ms and resume_ms on daemon_loaded",
    ),
    m(
        "fleet.restore_ms",
        "ms",
        "lower",
        "resume_ms on daemon_loaded",
    ),
    // Exact work counts from FleetReport: they repeat bit for bit.
    m("fleet.events", "count", "lower", "run_s"),
    m("fleet.polls", "count", "lower", "run_s"),
    m("fleet.pool_queries", "count", "lower", "run_s"),
    m("fleet.rejects", "count", "lower", "run_s"),
    m("fleet.panics", "count", "lower", "run_s"),
    m("fleet.fault_events", "count", "lower", "run_s"),
    m("fleet.secure_events", "count", "lower", "run_s"),
    m("fleet.offset_obs", "count", "lower", "run_s"),
    // Kernels, ns per call on inputs shaped like the workload.
    m(
        "rng.normal_ns",
        "ns",
        "lower",
        "run_s on fleet_chronos_attack",
    ),
    m(
        "rng.uniform_ns",
        "ns",
        "lower",
        "run_s on fleet_chronos_attack and daemon_loaded",
    ),
    m(
        "rng.fault_draw_ns",
        "ns",
        "lower",
        "fleet.ns_per_event on packet_worlds (its fleet probe is lossy)",
    ),
    m(
        "wheel.op_ns",
        "ns",
        "lower",
        "run_s on fleet_chronos_attack and daemon_loaded",
    ),
    m(
        "select.round_ns",
        "ns",
        "lower",
        "run_s on fleet_chronos_attack",
    ),
    m(
        "select.panic_ns",
        "ns",
        "lower",
        "run_s on daemon_loaded",
    ),
    m(
        "stats.p2_observe_ns",
        "ns",
        "lower",
        "run_s on fleet_chronos_attack and daemon_loaded",
    ),
    m(
        "stats.hist_record_ns",
        "ns",
        "lower",
        "run_s on fleet_chronos_attack and daemon_loaded",
    ),
    // core::scenario / core::montecarlo.
    m("scenario.build_ms", "ms", "lower", "setup_s"),
    m("scenario.reset_us", "us", "lower", "run_s"),
    m("scenario.pool_gen_ms", "ms", "lower", "run_s"),
    m("scenario.sync_ms", "ms", "lower", "run_s"),
    m("montecarlo.trials", "count", "lower", "run_s"),
    m(
        "montecarlo.worlds_built",
        "count",
        "lower",
        "run_s",
    ),
    m(
        "dnslab.client_queries",
        "count",
        "lower",
        "run_s",
    ),
    m(
        "dnslab.upstream_queries",
        "count",
        "lower",
        "run_s",
    ),
    m("dnslab.cache_hits", "count", "higher", "run_s"),
    m("chronos.client_polls", "count", "lower", "run_s"),
    // chronosd / obs.
    m("chronosd.submit_ms", "ms", "lower", "run_s"),
    m("chronosd.report_ms", "ms", "lower", "run_s"),
    m("chronosd.slice_ms", "ms", "lower", "run_s"),
    m("chronosd.slices", "count", "lower", "run_s"),
    m("chronosd.service_tax", "ratio", "lower", "run_s"),
    m(
        "chronosd.status_p99_ms",
        "ms",
        "lower",
        "cmd_p50_ms",
    ),
    m(
        "chronosd.metrics_ms",
        "ms",
        "lower",
        "cmd_p50_ms",
    ),
    m(
        "chronosd.scrape_bytes",
        "bytes",
        "lower",
        "cmd_p50_ms",
    ),
    m("obs.render_ms", "ms", "lower", "cmd_p50_ms"),
    // User-visible latencies of the daemon workload. They are measured on
    // `daemon_loaded` only (other workloads print them from the daemon
    // probe), so they sit here rather than among the end-to-end metrics.
    m(
        "cmd_p50_ms",
        "ms",
        "lower",
        "itself, on daemon_loaded",
    ),
    m(
        "checkpoint_ms",
        "ms",
        "lower",
        "itself, on daemon_loaded",
    ),
    m(
        "resume_ms",
        "ms",
        "lower",
        "itself, on daemon_loaded",
    ),
    // Traced run_s over untraced run_s.
    m(
        "trace.overhead",
        "ratio",
        "lower",
        "nothing: it prices the trace",
    ),
];

/// Looks a metric up by name in both tables.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// The metric names every workload prints in the given mode, in table
/// order.
pub fn declared(trace: bool) -> Vec<&'static str> {
    let table = if trace { PER_LAYER } else { END_TO_END };
    table.iter().map(|m| m.name).collect()
}

/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`, starting with
/// a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_legal_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        for (i, name) in all.iter().enumerate() {
            assert!(valid_name(name), "illegal metric name {name:?}");
            assert!(!all[..i].contains(name), "duplicate metric name {name:?}");
        }
        assert!(!valid_name(""));
        assert!(!valid_name(".x"));
        assert!(!valid_name("a b"));
        assert!(!valid_name("a/b"));
    }

    #[test]
    fn both_modes_declare_their_whole_table() {
        assert_eq!(declared(false), ["setup_s", "run_s", "peak_rss_mb"]);
        let traced = declared(true);
        assert_eq!(traced.len(), PER_LAYER.len());
        assert!(traced.contains(&"trace.overhead"));
        assert!(traced.iter().all(|n| !declared(false).contains(n)));
    }

    #[test]
    fn per_layer_metrics_name_what_they_move() {
        for m in PER_LAYER {
            assert!(!m.moves.is_empty(), "{} moves nothing", m.name);
        }
    }

    /// The table and `BENCHMARK.json` list the same metrics with the same
    /// units and directions, and the same workloads.
    #[test]
    fn benchmark_json_matches_the_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let json = chronosd::Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = json.get(key).and_then(chronosd::Json::as_arr).expect(key);
            assert_eq!(listed.len(), table.len(), "{key} length");
            for (entry, m) in listed.iter().zip(table) {
                let field = |k: &str| entry.get(k).and_then(chronosd::Json::as_str);
                assert_eq!(field("name"), Some(m.name), "{key} order");
                assert_eq!(field("unit"), Some(m.unit), "{} unit", m.name);
                assert_eq!(field("better"), Some(m.better), "{} better", m.name);
            }
        }
        let workloads = json
            .get("workloads")
            .and_then(chronosd::Json::as_arr)
            .expect("workloads");
        let names: Vec<&str> = workloads
            .iter()
            .filter_map(|w| w.get("name").and_then(chronosd::Json::as_str))
            .collect();
        let expected: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, expected);
    }
}
