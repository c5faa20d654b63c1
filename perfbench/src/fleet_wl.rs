//! The batch fleet workload `fleet_chronos_attack`, the engine probe, and
//! the from-outside engine trace both share with `daemon_loaded`.
//!
//! Fleets run at `threads = 1`: on a two-core host, two-thread runs of the
//! same fleet spread far more from run to run than one-thread runs.

use std::sync::Arc;

use chronos_pitfalls::experiments::{e14_config, e17_config};
use fleet::config::{FleetAttack, FleetConfig};
use fleet::engine::{Fleet, FleetReport};
use fleet::metrics::FleetMetrics;
use netsim::time::{SimDuration, SimTime};

use crate::report::{peak_rss_mb, Run};
use crate::stats::median;
use crate::{daemon_wl, kernels, packet_wl, timed, Budget};

/// Clients in the batch fleet.
const CLIENTS: usize = 100_000;

/// Clients in the engine probe that `packet_worlds` traces.
const PROBE_CLIENTS: usize = 10_000;

/// `Fleet::new` calls timed for `setup_s`.
const SETUPS: usize = 11;

/// Simulated seconds per traced `run_until` slice (the daemon's default).
const SLICE_S: u64 = 60;

/// The workload's fleet: the ROADMAP hot path, stock Chronos with one
/// resolver poisoned at 400 s and no faults.
fn attack_config(seed: u64) -> FleetConfig {
    FleetConfig {
        threads: 1,
        ..e14_config(
            seed,
            CLIENTS,
            Some(FleetAttack::paper_default(
                SimTime::from_secs(400),
                SimDuration::from_millis(500),
            )),
        )
    }
}

/// The probe's fleet: the E16 mix over 8 resolvers, 5 % loss and
/// SERVFAIL, a boot outage on all 8, serve-stale. It loads what the
/// attack fleet skips: keyed fault draws, panic rounds over the whole
/// pool, the multi-resolver pre-pass with outages, plain-NTP retries.
fn probe_config(seed: u64) -> FleetConfig {
    FleetConfig {
        threads: 1,
        ..e17_config(seed, PROBE_CLIENTS, 8, 0.05, 8)
    }
}

/// Runs `fleet_chronos_attack`.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Run {
    let config = attack_config(seed);
    let horizon = SimTime::ZERO + config.horizon;
    let mut run = Run::default();

    // Set-up: build the fleet several times, keep the last one.
    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let (fleet, secs) = timed(|| Fleet::new(config.clone()));
        setups.push(secs);
        built = Some(fleet);
    }
    let mut fleet = built.expect("SETUPS > 0");

    // Untraced repetitions: reset, run to the horizon, report. Before each
    // one after the first the fleet is built afresh, timed as one more
    // set-up, so that set-up samples span the run as repetitions do.
    let mut times = Vec::new();
    let mut reference: Option<FleetReport> = None;
    let budget = Budget::start(seconds);
    while budget.more(times.len()) {
        if !times.is_empty() {
            drop(fleet);
            let (built, secs) = timed(|| Fleet::new(config.clone()));
            setups.push(secs);
            fleet = built;
        }
        let (report, secs) = timed(|| {
            fleet.reset(seed);
            fleet.run_until(horizon);
            fleet.report()
        });
        times.push(secs);
        match &reference {
            None => reference = Some(report),
            Some(first) => check_same(&mut run, first, &report, "untraced repetition"),
        }
    }
    let reference = reference.expect("at least one repetition");
    run.check(reference.final_shifted_fraction > 0.9, || {
        format!(
            "the attack captured only {:.3} of the fleet",
            reference.final_shifted_fraction
        )
    });
    run.check(reference.synced_clients > 0, || "no client synced".into());

    if !trace {
        run.fastest("setup_s", &setups, 1.0);
        run.fastest("run_s", &times, 1.0);
        run.metric("peak_rss_mb", peak_rss_mb());
        return run;
    }

    let traced = trace_engine(&mut run, &mut fleet, seed, &setups, &reference, seconds);
    run.metric("trace.overhead", median(&traced) / median(&times));
    daemon_wl::probe(&mut run, seed);
    packet_wl::probe(&mut run, seed);
    run
}

/// The engine layers for a workload that runs no fleet: the
/// [`probe_config`] fleet traced over [`Budget::MIN_REPS`] runs, with its
/// checkpoint codec and kernels.
pub fn probe(run: &mut Run, seed: u64) {
    let config = probe_config(seed);
    let horizon = SimTime::ZERO + config.horizon;
    let (mut fleet, new_s) = timed(|| Fleet::new(config));
    let reference = {
        fleet.run_until(horizon);
        fleet.report()
    };
    trace_engine(run, &mut fleet, seed, &[new_s], &reference, 0.0);
}

/// Traces `fleet` for `seconds` (at least [`Budget::MIN_REPS`] runs),
/// checking every report against `reference`, then times its checkpoint
/// codec and the kernels shaped by its config, and prints the `fleet.*`
/// and kernel metrics. `setups` are its `Fleet::new` seconds. Returns each
/// traced run's wall seconds.
fn trace_engine(
    run: &mut Run,
    fleet: &mut Fleet,
    seed: u64,
    setups: &[f64],
    reference: &FleetReport,
    seconds: f64,
) -> Vec<f64> {
    let horizon = SimTime::ZERO + fleet.config().horizon;
    let mut engine = EngineTrace::default();
    engine.new_s.extend(setups);
    let metrics = Arc::new(FleetMetrics::detached());
    fleet.set_metrics(Some(Arc::clone(&metrics)));
    let budget = Budget::start(seconds);
    let mut reps = 0;
    while budget.more(reps) {
        let report = engine.traced_run(fleet, seed, horizon);
        check_same(run, reference, &report, "traced repetition");
        reps += 1;
    }
    engine.prepass(&metrics);
    engine.progress(fleet);
    fleet.set_metrics(None);
    engine.checkpoint(run, fleet);
    engine.emit(run, &[reference]);
    // Kernel inputs come from this fleet's config and end state.
    let pool = median_pool_size(fleet);
    for (name, ns) in kernels::measure(fleet.config(), pool) {
        run.metric(name, ns);
    }
    engine.rep_s
}

/// Checks that `report` equals the run's first report. Reports are
/// compared whole, so every exact work count in them must repeat.
fn check_same(run: &mut Run, first: &FleetReport, report: &FleetReport, what: &str) {
    run.check(first == report, || {
        format!(
            "{what}: report differs from the first ({} vs {} events)",
            report.events, first.events
        )
    });
}

/// Median `benign + malicious` pool size over a spread of clients: the
/// sample count of a panic round in this workload.
pub fn median_pool_size(fleet: &Fleet) -> usize {
    let clients = fleet.config().clients;
    let step = (clients / 1_000).max(1);
    let sizes: Vec<f64> = (0..clients)
        .step_by(step)
        .map(|i| {
            let (benign, malicious) = fleet.client_pool(i);
            (benign + malicious) as f64
        })
        .collect();
    median(&sizes).round() as usize
}

/// Per-layer timings of the fleet engine, taken from outside around its
/// public calls (plus the `timeline_prepass` stage of an attached
/// [`FleetMetrics`], the one stage `reset` hides).
#[derive(Debug, Default)]
pub struct EngineTrace {
    /// `Fleet::new` wall seconds.
    pub new_s: Vec<f64>,
    /// Per traced fleet: mean `timeline_prepass` seconds.
    prepass_s: Vec<f64>,
    /// Per traced run: each `SLICE_S` slice's wall seconds.
    slices: Vec<Vec<f64>>,
    /// Per traced run: `report` wall seconds.
    report_s: Vec<f64>,
    /// Per traced run: reset + slices + report wall seconds.
    pub rep_s: Vec<f64>,
    /// Per traced run: slice wall time per client event stepped, ns.
    ns_per_event: Vec<f64>,
    /// `progress` wall seconds.
    progress_s: Vec<f64>,
    /// Checkpoint timings, when taken.
    checkpoint: Option<CheckpointTrace>,
}

/// Checkpoint codec timings of one fleet.
#[derive(Debug)]
struct CheckpointTrace {
    encode_s: Vec<f64>,
    restore_s: Vec<f64>,
    bytes_per_client: f64,
}

impl EngineTrace {
    /// Resets `fleet` to `seed` and runs it to `horizon` in
    /// [`SLICE_S`]-second slices, timing each call; returns the report.
    pub fn traced_run(&mut self, fleet: &mut Fleet, seed: u64, horizon: SimTime) -> FleetReport {
        let (report, total) = timed(|| {
            fleet.reset(seed);
            let mut slices = Vec::new();
            let mut t = SimTime::ZERO;
            while t < horizon {
                t = (t + SimDuration::from_secs(SLICE_S)).min(horizon);
                slices.push(timed(|| fleet.run_until(t)).1);
            }
            let (report, report_s) = timed(|| fleet.report());
            let stepping: f64 = slices.iter().sum();
            self.ns_per_event
                .push(stepping * 1e9 / report.events.max(1) as f64);
            self.slices.push(slices);
            self.report_s.push(report_s);
            report
        });
        self.rep_s.push(total);
        report
    }

    /// Reads the mean pre-pass time off the attached instrumentation.
    pub fn prepass(&mut self, metrics: &FleetMetrics) {
        let h = &metrics.timeline_prepass;
        self.prepass_s.push(h.sum_secs() / h.total().max(1) as f64);
    }

    /// Times `Fleet::progress`, the call behind every daemon `status`.
    pub fn progress(&mut self, fleet: &Fleet) {
        for _ in 0..21 {
            self.progress_s
                .push(timed(|| std::hint::black_box(fleet.progress())).1);
        }
    }

    /// Times the checkpoint codec on `fleet` and checks the restored copy
    /// reports identically.
    pub fn checkpoint(&mut self, run: &mut Run, fleet: &Fleet) {
        let mut encode_s = Vec::new();
        let mut bytes = Vec::new();
        for _ in 0..5 {
            let (b, secs) = timed(|| fleet.checkpoint());
            encode_s.push(secs);
            bytes = b;
        }
        let mut restore_s = Vec::new();
        for _ in 0..3 {
            let (restored, secs) = timed(|| Fleet::restore(&bytes));
            restore_s.push(secs);
            if let Some(restored) = run.op("restore the checkpoint", restored) {
                run.check(restored.report() == fleet.report(), || {
                    "restored fleet reports differently".into()
                });
            }
        }
        self.checkpoint = Some(CheckpointTrace {
            encode_s,
            restore_s,
            bytes_per_client: bytes.len() as f64 / fleet.config().clients as f64,
        });
    }

    /// Merges another fleet's trace into this one (the daemon hosts two).
    pub fn absorb(&mut self, other: EngineTrace) {
        self.prepass_s.extend(other.prepass_s);
        self.new_s.extend(other.new_s);
        self.slices.extend(other.slices);
        self.report_s.extend(other.report_s);
        self.rep_s.extend(other.rep_s);
        self.ns_per_event.extend(other.ns_per_event);
        self.progress_s.extend(other.progress_s);
        self.checkpoint = self.checkpoint.take().or(other.checkpoint);
    }

    /// Prints the `fleet.*` metrics; the exact work counts are summed over
    /// `reports`.
    pub fn emit(&self, run: &mut Run, reports: &[&FleetReport]) {
        run.metric("fleet.new_ms", median(&self.new_s) * 1e3);
        run.metric("fleet.prepass_ms", median(&self.prepass_s) * 1e3);
        // Slice i's median across runs, then the median and the maximum
        // over i: the maximum sits in the pool-generation phase.
        let per_slice: Vec<f64> = (0..self.slices.iter().map(Vec::len).max().unwrap_or(0))
            .map(|i| {
                let at_i: Vec<f64> = self
                    .slices
                    .iter()
                    .filter_map(|s| s.get(i).copied())
                    .collect();
                median(&at_i)
            })
            .collect();
        run.metric("fleet.slice_p50_ms", median(&per_slice) * 1e3);
        run.metric(
            "fleet.slice_max_ms",
            per_slice.iter().copied().fold(0.0, f64::max) * 1e3,
        );
        run.metric("fleet.ns_per_event", median(&self.ns_per_event));
        run.metric("fleet.report_ms", median(&self.report_s) * 1e3);
        run.metric("fleet.progress_us", median(&self.progress_s) * 1e6);
        if let Some(c) = &self.checkpoint {
            run.metric("fleet.checkpoint_ms", median(&c.encode_s) * 1e3);
            run.metric("fleet.checkpoint_bytes_per_client", c.bytes_per_client);
            run.metric("fleet.restore_ms", median(&c.restore_s) * 1e3);
        }
        let sum =
            |count: fn(&FleetReport) -> u64| reports.iter().map(|r| count(r)).sum::<u64>() as f64;
        run.metric("fleet.events", sum(|r| r.events));
        run.metric("fleet.polls", sum(|r| r.totals.polls));
        run.metric("fleet.pool_queries", sum(|r| r.totals.pool_queries));
        run.metric("fleet.rejects", sum(|r| r.totals.rejects));
        run.metric("fleet.panics", sum(|r| r.totals.panics));
        run.metric("fleet.fault_events", sum(|r| r.faults.total()));
        run.metric("fleet.secure_events", sum(|r| r.secure.total()));
        run.metric("fleet.offset_obs", sum(|r| r.histogram.total()));
    }
}
