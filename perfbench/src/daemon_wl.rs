//! `daemon_loaded`: an in-process `chronosd` with one worker hosting two
//! fleet jobs while the benchmark drives it over two connections.
//!
//! * Jobs: an `e16-fleet` (30 000 clients, 4 resolvers, 2 poisoned,
//!   pausing at 3000 s) and an `e18-fleet` (30 000 clients, half on
//!   secure-time tiers, all 4 resolvers poisoned), both in 60 s slices.
//! * Control connection, closed loop: `status` for each live job, then a
//!   5 ms think time; `metrics` every 10th round.
//! * Watch connection: one `watch` on the e18 job.
//! * Operator: when the e16 job pauses, checkpoint it to a file, resume
//!   the file as a new job, stop the original.
//!
//! A repetition runs from the first `submit` until the last job is done.
//! Its reports must be byte-equal to batch `Fleet::run` reports of the
//! same configs.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use chronos_pitfalls::experiments::{e16_config, e18_config};
use chronosd::render::report_json;
use chronosd::{Client, Daemon, DaemonConfig, DaemonObs, Json};
use fleet::config::FleetConfig;
use fleet::engine::{Fleet, FleetReport};
use fleet::metrics::FleetMetrics;
use netsim::time::SimTime;
use obs::{Level, Logger};

use crate::fleet_wl::{median_pool_size, EngineTrace};
use crate::report::{peak_rss_mb, Run};
use crate::stats::{median, percentile};
use crate::{kernels, packet_wl, timed, Budget, TMP_DIR};

/// Clients per job: the workload's, and the daemon probe's.
const CLIENTS: usize = 30_000;
const PROBE_CLIENTS: usize = 3_000;
const RESOLVERS: usize = 4;
const E16_POISONED: usize = 2;
const E18_DEPLOYMENT: f64 = 0.5;
const E18_POISONED: usize = 4;
const SLICE_S: u64 = 60;
const PAUSE_AT_S: u64 = 3_000;

/// Job names. Every repetition reuses them (each ends by forgetting its
/// jobs), so the registry and its scrape do not grow run over run.
const E16_JOB: &str = "e16";
const E18_JOB: &str = "e18";
const RESUMED_JOB: &str = "e16-resumed";

/// Daemon boots timed for `setup_s`.
const SETUPS: usize = 31;
/// Control-loop think time between rounds.
const THINK: Duration = Duration::from_millis(5);
/// A `metrics` scrape every this many control rounds.
const METRICS_EVERY: u64 = 10;
/// A repetition whose jobs are not done by then has failed.
const REP_TIMEOUT: Duration = Duration::from_secs(60);

fn e16(seed: u64, clients: usize) -> FleetConfig {
    FleetConfig {
        threads: 1,
        ..e16_config(seed, clients, RESOLVERS, E16_POISONED)
    }
}

fn e18(seed: u64, clients: usize) -> FleetConfig {
    FleetConfig {
        threads: 1,
        ..e18_config(seed, clients, RESOLVERS, E18_DEPLOYMENT, E18_POISONED)
    }
}

fn field(key: &str, value: Json) -> (String, Json) {
    (key.to_string(), value)
}

fn e16_spec(seed: u64, clients: usize) -> Json {
    Json::Obj(vec![
        field("kind", Json::str("e16-fleet")),
        field("seed", Json::u64(seed)),
        field("clients", Json::usize(clients)),
        field("resolvers", Json::usize(RESOLVERS)),
        field("poisoned_resolvers", Json::usize(E16_POISONED)),
        field("slice_s", Json::u64(SLICE_S)),
        field("pause_at_s", Json::u64(PAUSE_AT_S)),
    ])
}

fn e18_spec(seed: u64, clients: usize) -> Json {
    Json::Obj(vec![
        field("kind", Json::str("e18-fleet")),
        field("seed", Json::u64(seed)),
        field("clients", Json::usize(clients)),
        field("resolvers", Json::usize(RESOLVERS)),
        field("deployment", Json::f64(E18_DEPLOYMENT)),
        field("poisoned_resolvers", Json::usize(E18_POISONED)),
        field("slice_s", Json::u64(SLICE_S)),
    ])
}

/// A daemon serving on a background thread, with the control connection.
struct Service {
    socket: PathBuf,
    obs: Arc<DaemonObs>,
    server: JoinHandle<std::io::Result<()>>,
    control: Client,
}

impl Service {
    /// Binds a one-worker daemon on `socket`, serves it, connects and pings.
    fn boot(socket: &Path) -> Result<Service, String> {
        let daemon = Daemon::bind_with_config(
            socket,
            DaemonObs::new(Logger::stderr(Level::Error)),
            DaemonConfig {
                workers: Some(1),
                ..DaemonConfig::default()
            },
        )
        .map_err(|e| format!("bind {}: {e}", socket.display()))?;
        let obs = daemon.observability();
        let server = std::thread::spawn(move || daemon.serve());
        let mut control = Client::connect(socket).map_err(|e| e.to_string())?;
        control
            .request("ping", Vec::new())
            .map_err(|e| e.to_string())?;
        Ok(Service {
            socket: socket.to_path_buf(),
            obs,
            server,
            control,
        })
    }

    /// Sends `shutdown` and waits for the server thread to end. A daemon
    /// that cannot be told to shut down is left to die with the process,
    /// rather than waited on forever.
    fn shutdown(mut self, run: &mut Run) {
        if run
            .op("shutdown", self.control.request("shutdown", Vec::new()))
            .is_none()
        {
            return;
        }
        let served = self
            .server
            .join()
            .map_err(|_| "server thread panicked".to_string());
        if let Some(result) = run.op("join the server", served) {
            run.op("serve", result);
        }
    }

    fn request(&mut self, cmd: &str, fields: Vec<(String, Json)>) -> Result<Json, String> {
        self.control.request(cmd, fields).map_err(|e| e.to_string())
    }
}

/// Everything one repetition measured.
#[derive(Debug, Default)]
struct Rep {
    run_s: f64,
    status_s: Vec<f64>,
    submit_s: Vec<f64>,
    report_s: Vec<f64>,
    metrics_s: Vec<f64>,
    scrape_bytes: Vec<f64>,
    /// Per-job `chronosd_job_slice_wall_seconds` gauge readings (traced).
    slice_gauge_s: Vec<f64>,
    /// `DaemonObs::render` wall seconds (traced).
    render_s: Vec<f64>,
    checkpoint_s: Option<f64>,
    resume_s: Option<f64>,
    slices: u64,
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Run {
    let mut run = Run::default();
    let Some(session) = in_tmp_dir(&mut run, |run, socket, ckpt| {
        session(run, seed, CLIENTS, seconds, trace, socket, ckpt)
    }) else {
        return run;
    };
    let run_s: Vec<f64> = session.untraced.iter().map(|r| r.run_s).collect();
    if !trace {
        run.fastest("setup_s", &session.setups, 1.0);
        run.fastest("run_s", &run_s, 1.0);
        run.metric("peak_rss_mb", peak_rss_mb());
        return run;
    }
    emit_daemon_layers(&mut run, &session);
    let traced_s: Vec<f64> = session.traced.iter().map(|r| r.run_s).collect();
    run.metric("trace.overhead", median(&traced_s) / median(&run_s));

    // The engine underneath, traced on the same two configs.
    let mut engine = EngineTrace::default();
    let configs = [e16(seed, CLIENTS), e18(seed, CLIENTS)];
    for (i, (config, batch)) in configs.iter().zip(&session.batch).enumerate() {
        let mut one = EngineTrace::default();
        let horizon = SimTime::ZERO + config.horizon;
        let (mut fleet, new_s) = timed(|| Fleet::new(config.clone()));
        one.new_s.push(new_s);
        let metrics = Arc::new(FleetMetrics::detached());
        fleet.set_metrics(Some(Arc::clone(&metrics)));
        let report = one.traced_run(&mut fleet, config.seed, horizon);
        run.check(report == *batch, || {
            "traced engine run differs from the batch run".into()
        });
        one.prepass(&metrics);
        one.progress(&fleet);
        if i == 0 {
            // The e16 job is the one the operator checkpoints, and its
            // config shapes the kernel inputs.
            one.checkpoint(&mut run, &fleet);
            let pool = median_pool_size(&fleet);
            for (name, ns) in kernels::measure(config, pool) {
                run.metric(name, ns);
            }
        }
        engine.absorb(one);
    }
    let [e16_batch, e18_batch] = &session.batch;
    engine.emit(&mut run, &[e16_batch, e18_batch]);
    packet_wl::probe(&mut run, seed);
    run
}

/// The daemon layers for a workload that runs no daemon: the same session
/// with [`PROBE_CLIENTS`]-client jobs, [`Budget::MIN_REPS`] repetitions
/// untraced and as many traced.
pub fn probe(run: &mut Run, seed: u64) {
    let session = in_tmp_dir(run, |run, socket, ckpt| {
        session(run, seed, PROBE_CLIENTS, 0.0, true, socket, ckpt)
    });
    if let Some(session) = session {
        emit_daemon_layers(run, &session);
    }
}

/// Runs `f` with a daemon socket path and a checkpoint path under
/// [`TMP_DIR`], then removes both.
fn in_tmp_dir<T>(run: &mut Run, f: impl FnOnce(&mut Run, &Path, &Path) -> T) -> T {
    if let Err(e) = std::fs::create_dir_all(TMP_DIR) {
        run.check(false, || format!("create {TMP_DIR}: {e}"));
    }
    let pid = std::process::id();
    let socket = PathBuf::from(format!("{TMP_DIR}/chronosd-{pid}.sock"));
    let ckpt = PathBuf::from(format!("{TMP_DIR}/e16-{pid}.chr"));
    let value = f(run, &socket, &ckpt);
    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_file(&socket);
    let _ = std::fs::remove_file(socket.with_extension("spare"));
    let _ = std::fs::remove_dir(TMP_DIR); // only if nothing else is in it
    value
}

/// What one daemon session measured.
struct Session {
    /// Daemon boot seconds.
    setups: Vec<f64>,
    untraced: Vec<Rep>,
    traced: Vec<Rep>,
    /// The two configs run by `Fleet::run`, back to back: reports and
    /// wall seconds.
    batch: [FleetReport; 2],
    batch_s: f64,
}

/// Boots the daemon several times, runs the batch references, then drives
/// `clients`-client jobs for `seconds` untraced and, when `trace`, for
/// `seconds` traced. `None` when the daemon never came up.
fn session(
    run: &mut Run,
    seed: u64,
    clients: usize,
    seconds: f64,
    trace: bool,
    socket: &Path,
    ckpt: &Path,
) -> Option<Session> {
    // Set-up: boot the daemon several times, keep the last one.
    let mut setups = Vec::new();
    let mut service = None;
    for _ in 0..SETUPS {
        if let Some(old) = service.take() {
            Service::shutdown(old, run);
        }
        let (booted, secs) = timed(|| Service::boot(socket));
        setups.push(secs);
        service = run.op("boot the daemon", booted);
    }

    let (batch, batch_s) = timed(|| {
        [
            Fleet::new(e16(seed, clients)).run(),
            Fleet::new(e18(seed, clients)).run(),
        ]
    });
    let expected = [
        report_json(&batch[0]).render(),
        report_json(&batch[1]).render(),
    ];

    let mut service = service?;
    let spare = socket.with_extension("spare");
    let mut phase = |traced: bool, setups: &mut Vec<f64>| {
        let mut reps = Vec::new();
        let budget = Budget::start(seconds);
        while budget.more(reps.len()) {
            match repetition(run, &mut service, seed, clients, traced, ckpt, &expected) {
                Some(rep) => reps.push(rep),
                None => break,
            }
            // One more set-up sample, on a spare daemon, so that set-up
            // samples span the run as repetitions do.
            let (booted, secs) = timed(|| Service::boot(&spare));
            if let Some(booted) = run.op("boot a spare daemon", booted) {
                setups.push(secs);
                Service::shutdown(booted, run);
            }
        }
        reps
    };
    let untraced = phase(false, &mut setups);
    let traced = if trace {
        phase(true, &mut Vec::new())
    } else {
        Vec::new()
    };
    Service::shutdown(service, run);

    // Exact counts repeat across every repetition, traced or not.
    let slices: Vec<u64> = untraced.iter().chain(&traced).map(|r| r.slices).collect();
    run.check(slices.windows(2).all(|w| w[0] == w[1]), || {
        format!("slice counts differ across repetitions: {slices:?}")
    });
    Some(Session {
        setups,
        untraced,
        traced,
        batch,
        batch_s,
    })
}

/// Prints the `chronosd.*`, `obs.*` and daemon latency metrics.
fn emit_daemon_layers(run: &mut Run, session: &Session) {
    let (untraced, traced) = (&session.untraced, &session.traced);
    let all = |f: fn(&Rep) -> &Vec<f64>, reps: &[Rep]| -> Vec<f64> {
        reps.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let once = |f: fn(&Rep) -> Option<f64>| -> Vec<f64> { untraced.iter().filter_map(f).collect() };
    let status_s = all(|r| &r.status_s, untraced);
    let run_s: Vec<f64> = untraced.iter().map(|r| r.run_s).collect();
    run.timing("cmd_p50_ms", &status_s, 1e3);
    run.timing("checkpoint_ms", &once(|r| r.checkpoint_s), 1e3);
    run.timing("resume_ms", &once(|r| r.resume_s), 1e3);
    run.timing("chronosd.submit_ms", &all(|r| &r.submit_s, traced), 1e3);
    run.timing("chronosd.report_ms", &all(|r| &r.report_s, traced), 1e3);
    run.timing(
        "chronosd.slice_ms",
        &all(|r| &r.slice_gauge_s, traced),
        1e3,
    );
    run.metric(
        "chronosd.slices",
        untraced.first().map_or(0, |r| r.slices) as f64,
    );
    let tax = if run_s.is_empty() {
        f64::NAN
    } else {
        median(&run_s) / session.batch_s
    };
    run.metric("chronosd.service_tax", tax);
    let p99 = if status_s.is_empty() {
        f64::NAN
    } else {
        percentile(&status_s, 0.99).unwrap_or_else(|| {
            eprintln!("perfbench: fewer than 1000 status samples; p99 is their maximum");
            status_s.iter().copied().fold(0.0, f64::max)
        })
    };
    run.metric("chronosd.status_p99_ms", p99 * 1e3);
    run.timing("chronosd.metrics_ms", &all(|r| &r.metrics_s, traced), 1e3);
    run.timing(
        "chronosd.scrape_bytes",
        &all(|r| &r.scrape_bytes, traced),
        1.0,
    );
    run.timing("obs.render_ms", &all(|r| &r.render_s, traced), 1e3);
}

/// One repetition: submit both jobs, drive them to done, check the reports,
/// forget the jobs. `None` when the daemon stopped answering.
fn repetition(
    run: &mut Run,
    service: &mut Service,
    seed: u64,
    clients: usize,
    traced: bool,
    ckpt: &Path,
    expected: &[String; 2],
) -> Option<Rep> {
    let name = |n: &str| vec![field("name", Json::str(n))];
    let mut rep = Rep::default();

    let mut watcher = run.op(
        "open the watch connection",
        Client::connect(&service.socket).map_err(|e| e.to_string()),
    )?;
    let start = Instant::now();
    for (job, spec) in [
        (E16_JOB, e16_spec(seed, clients)),
        (E18_JOB, e18_spec(seed, clients)),
    ] {
        let fields = vec![field("name", Json::str(job)), field("spec", spec)];
        let (response, secs) = timed(|| service.request("submit", fields));
        run.op("submit", response)?;
        rep.submit_s.push(secs);
    }
    let watch = std::thread::spawn(move || -> Result<(u64, String), String> {
        let mut event = watcher
            .request("watch", vec![field("name", Json::str(E18_JOB))])
            .map_err(|e| e.to_string())?;
        let mut snapshots = 0;
        while event.get("event").and_then(Json::as_str) != Some("end") {
            snapshots += 1;
            event = watcher.read_response().map_err(|e| e.to_string())?;
        }
        let state = event.get("state").and_then(Json::as_str).unwrap_or("");
        Ok((snapshots, state.to_string()))
    });

    let mut live = vec![E16_JOB, E18_JOB];
    let mut resume_sent: Option<Instant> = None;
    let mut round = 0u64;
    while !live.is_empty() {
        if start.elapsed() > REP_TIMEOUT {
            run.check(false, || {
                format!("jobs {live:?} not done after {REP_TIMEOUT:?}")
            });
            // Stopping them ends the watch stream, so the watcher returns.
            for job in &live {
                let _ = service.request("stop", name(job));
            }
            break;
        }
        let mut i = 0;
        while i < live.len() {
            let job = live[i];
            let (status, secs) = timed(|| service.request("status", name(job)));
            let Some(status) = run.op("status", status) else {
                live.remove(i);
                continue;
            };
            rep.status_s.push(secs);
            let state = status.get("state").and_then(Json::as_str).unwrap_or("?");
            let slices = status.get("slices").and_then(Json::as_u64).unwrap_or(0);
            match state {
                "paused" if job == E16_JOB => {
                    rep.slices += slices;
                    let path = ckpt.display().to_string();
                    let mut fields = name(job);
                    fields.push(field("path", Json::str(path.clone())));
                    let (saved, secs) = timed(|| service.request("checkpoint", fields));
                    if run.op("checkpoint", saved).is_some() {
                        rep.checkpoint_s = Some(secs);
                    }
                    resume_sent = Some(Instant::now());
                    let fields = vec![
                        field("name", Json::str(RESUMED_JOB)),
                        field("path", Json::str(path)),
                        field("slice_s", Json::u64(SLICE_S)),
                    ];
                    run.op("resume", service.request("resume", fields));
                    run.op("stop", service.request("stop", name(job)));
                    live[i] = RESUMED_JOB;
                }
                "done" => {
                    rep.slices += slices;
                    live.remove(i);
                    if live.is_empty() {
                        rep.run_s = start.elapsed().as_secs_f64();
                    }
                    continue;
                }
                "queued" | "running" => {
                    if job == RESUMED_JOB && slices > 0 && rep.resume_s.is_none() {
                        rep.resume_s = resume_sent.map(|t| t.elapsed().as_secs_f64());
                    }
                }
                other => {
                    run.check(false, || format!("job {job} is {other}, not done"));
                    live.remove(i);
                    continue;
                }
            }
            i += 1;
        }
        round += 1;
        if round.is_multiple_of(METRICS_EVERY) {
            scrape(run, service, &mut rep, traced);
        }
        std::thread::sleep(THINK);
    }

    match watch.join() {
        Ok(Ok((snapshots, state))) => {
            run.check(snapshots > 0 && state == "done", || {
                format!("watch saw {snapshots} snapshots and ended {state}")
            });
        }
        Ok(Err(e)) => {
            run.check(false, || format!("watch: {e}"));
        }
        Err(_) => {
            run.check(false, || "watch thread panicked".into());
        }
    }
    for (job, expected) in [(RESUMED_JOB, &expected[0]), (E18_JOB, &expected[1])] {
        let (report, secs) = timed(|| service.request("report", name(job)));
        if let Some(report) = run.op("report", report) {
            rep.report_s.push(secs);
            let got = report.get("report").map(Json::render).unwrap_or_default();
            run.check(got == *expected, || {
                format!("job {job}'s report differs from the batch Fleet::run report")
            });
        }
    }
    let original = service.request("status", name(E16_JOB));
    if let Some(status) = run.op("status", original) {
        let state = status.get("state").and_then(Json::as_str).unwrap_or("?");
        run.check(state == "stopped", || {
            format!("the paused original ended {state}")
        });
    }
    for job in [E16_JOB, RESUMED_JOB, E18_JOB] {
        run.op("forget", service.request("forget", name(job)));
    }
    run.check(rep.run_s > 0.0, || "the repetition never finished".into())
        .then_some(rep)
}

/// One `metrics` scrape; traced repetitions also parse it for the per-job
/// slice gauges and time the registry render in-process.
fn scrape(run: &mut Run, service: &mut Service, rep: &mut Rep, traced: bool) {
    let (response, secs) = timed(|| service.request("metrics", Vec::new()));
    let Some(response) = run.op("metrics", response) else {
        return;
    };
    rep.metrics_s.push(secs);
    let text = response.get("metrics").and_then(Json::as_str).unwrap_or("");
    rep.scrape_bytes.push(text.len() as f64);
    if !traced {
        return;
    }
    if let Some(samples) = run.op(
        "parse the scrape",
        obs::expo::parse(text).map_err(|e| e.to_string()),
    ) {
        rep.slice_gauge_s.extend(
            samples
                .iter()
                .filter(|s| s.name == "chronosd_job_slice_wall_seconds" && s.value > 0.0)
                .map(|s| s.value),
        );
    }
    let obs = Arc::clone(&service.obs);
    rep.render_s
        .push(timed(|| std::hint::black_box(obs.render())).1);
}
