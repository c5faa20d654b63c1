//! The Unix-domain-socket server: accepts connections, speaks the
//! newline-delimited JSON protocol, and drives the [`crate::jobs`] table.
//!
//! One request per line, one (or, for `watch`, several) response lines
//! back; a connection handles any number of requests until the client
//! closes it. Every response carries `"ok"`; failures carry `"error"`
//! instead of the payload. The full protocol with annotated examples
//! lives in `docs/OPERATIONS.md`.
//!
//! Every daemon carries a [`DaemonObs`]: the `metrics` command renders
//! its registry as Prometheus text exposition, every dispatched command
//! bumps `chronosd_commands_total{cmd=…}`, and I/O failures that this
//! module used to swallow silently are now logged through the structured
//! logger (level from `CHRONOSD_LOG`).

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::jobs::{default_workers, load, Job, JobSnapshot, JobState, JobTable, Params};
use crate::metrics::DaemonObs;
use crate::render::{progress_json, report_json, sweep_json};
use crate::state::{self, ManifestEntry, StateDir};
use crate::Json;

/// Protocol version reported by `ping` (bump on breaking wire changes).
pub const PROTOCOL_VERSION: u64 = 1;

/// The longest request line the daemon reads, newline excluded. A
/// `chronosctl` request is a few hundred bytes plus at most one path of up
/// to `PATH_MAX` (4 KiB), which JSON escaping grows at most sixfold. A
/// line that runs past this cap gets a protocol-error reply and its
/// connection is closed, so a client that never sends a newline cannot
/// grow the daemon's memory.
pub const MAX_REQUEST_LINE: usize = 64 * 1024;

/// How long observers wait for a stepping worker to park its fleet
/// before giving up (`status`/`report`/`checkpoint` on a busy job).
const PARK_TIMEOUT: Duration = Duration::from_secs(120);

/// Commands the daemon understands; anything else is dispatched to the
/// error arm and counted under `chronosd_commands_total{cmd="unknown"}`
/// so client typos cannot grow the label set.
const COMMANDS: [&str; 14] = [
    "ping",
    "submit",
    "jobs",
    "status",
    "report",
    "watch",
    "checkpoint",
    "resume",
    "unpause",
    "stop",
    "forget",
    "sync",
    "metrics",
    "shutdown",
];

/// Boot-time configuration beyond the socket path: the worker-pool size
/// and the durability layer.
#[derive(Debug, Clone, Default)]
pub struct DaemonConfig {
    /// Durability root (`--state-dir`); `None` runs the daemon purely in
    /// memory, exactly as before this layer existed.
    pub state_dir: Option<PathBuf>,
    /// Interval between automatic state snapshots (`--checkpoint-every-s`).
    /// `None` with a state dir means snapshots happen only on `sync` and
    /// on clean shutdown.
    pub checkpoint_every: Option<Duration>,
    /// Worker-pool size (`--workers`); default `cores - 1`, min 1.
    pub workers: Option<usize>,
    /// Override the thread count of every job restored from the state
    /// dir (`--resume-threads`) — byte-identical results regardless, per
    /// the engine's thread-invariance contract.
    pub resume_threads: Option<usize>,
}

/// The daemon: a bound socket plus the job table it serves.
#[derive(Debug)]
pub struct Daemon {
    listener: UnixListener,
    path: PathBuf,
    table: Arc<JobTable>,
    shutdown: Arc<AtomicBool>,
    obs: Arc<DaemonObs>,
    started: Instant,
    state: Option<StateDir>,
    checkpoint_every: Option<Duration>,
}

/// Everything a connection handler needs, bundled so handler threads
/// share one `Arc` instead of four.
struct ServerCtx {
    table: Arc<JobTable>,
    shutdown: Arc<AtomicBool>,
    obs: Arc<DaemonObs>,
    started: Instant,
    path: PathBuf,
    state: Option<StateDir>,
}

impl Daemon {
    /// Bind the control socket, replacing a stale socket file if one is
    /// left over from a dead daemon. Observability defaults to
    /// [`DaemonObs::from_env`]: a stderr logger at the `CHRONOSD_LOG`
    /// level and a fresh metric registry.
    pub fn bind(path: impl AsRef<Path>) -> std::io::Result<Daemon> {
        Daemon::bind_with_config(path, DaemonObs::from_env(), DaemonConfig::default())
    }

    /// The fully explicit constructor: bind the socket, build the worker
    /// pool, and — when `config.state_dir` is set — open the durability
    /// layer and resume every job recorded in its manifest (corrupt
    /// files are quarantined, never fatal).
    pub fn bind_with_config(
        path: impl AsRef<Path>,
        obs: DaemonObs,
        config: DaemonConfig,
    ) -> std::io::Result<Daemon> {
        let path = path.as_ref().to_path_buf();
        // A leftover socket file makes bind fail with AddrInUse even when
        // nothing is listening; remove it and let bind decide.
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path)?;
        let obs = Arc::new(obs);
        obs.logger.info(
            "chronosd::daemon",
            "listening",
            &[("socket", &path.display())],
        );
        let table = Arc::new(JobTable::new(
            config.workers.unwrap_or_else(default_workers),
            Arc::clone(&obs),
        ));
        let state = match &config.state_dir {
            Some(root) => {
                let dir = StateDir::open(root)?;
                boot_from_state(&table, &dir, &obs, config.resume_threads);
                Some(dir)
            }
            None => None,
        };
        Ok(Daemon {
            listener,
            path,
            table,
            shutdown: Arc::new(AtomicBool::new(false)),
            obs,
            started: Instant::now(),
            state,
            checkpoint_every: config.checkpoint_every,
        })
    }

    /// The socket path this daemon is bound to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The job table (shared with connection handlers; exposed for
    /// in-process embedding and tests).
    pub fn table(&self) -> Arc<JobTable> {
        Arc::clone(&self.table)
    }

    /// The daemon's observability state (registry, counters, logger).
    pub fn observability(&self) -> Arc<DaemonObs> {
        Arc::clone(&self.obs)
    }

    /// Serve until a `shutdown` request arrives. Each connection gets its
    /// own thread; the accept loop re-checks the shutdown flag after
    /// every accepted connection (the `shutdown` handler's own connection
    /// is what unblocks the final accept). With a state dir, a ticker
    /// thread writes periodic snapshots, and a final snapshot lands on
    /// shutdown — with every daemon-stopped job recorded in its
    /// *pre-shutdown* state, so the next boot resumes it automatically.
    pub fn serve(self) -> std::io::Result<()> {
        let ctx = Arc::new(ServerCtx {
            table: Arc::clone(&self.table),
            shutdown: Arc::clone(&self.shutdown),
            obs: Arc::clone(&self.obs),
            started: self.started,
            path: self.path.clone(),
            state: self.state.clone(),
        });
        let ticker = match (&self.state, self.checkpoint_every) {
            (Some(dir), Some(every)) => {
                let dir = dir.clone();
                let table = Arc::clone(&self.table);
                let obs = Arc::clone(&self.obs);
                let shutdown = Arc::clone(&self.shutdown);
                Some(std::thread::spawn(move || {
                    let mut last = Instant::now();
                    // 100 ms polls so a shutdown never waits out a long
                    // checkpoint interval.
                    while !shutdown.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_millis(100));
                        if last.elapsed() >= every {
                            write_snapshot(&table, &dir, &obs, &BTreeMap::new());
                            last = Instant::now();
                        }
                    }
                }))
            }
            _ => None,
        };
        let mut handlers = Vec::new();
        for stream in self.listener.incoming() {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = stream?;
            self.obs.connections.inc();
            reap(&mut handlers, false, &self.obs.logger);
            let ctx = Arc::clone(&ctx);
            handlers.push(std::thread::spawn(move || {
                handle_connection(stream, &ctx);
            }));
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
        }
        if let Some(ticker) = ticker {
            let _ = ticker.join();
        }
        // Record each job's pre-shutdown state *before* the pool drain
        // turns running jobs into stopped ones: the final snapshot writes
        // these states, so jobs the daemon itself interrupted reboot as
        // running/paused, while operator-stopped jobs stay stopped.
        let resume_states: BTreeMap<String, JobState> = self
            .table
            .list()
            .iter()
            .map(|job| (job.name.clone(), job.snapshot().state))
            .collect();
        // Stop jobs first: that turns every job terminal, which ends any
        // in-flight `watch` stream, so handler threads (which poll the
        // shutdown flag between reads) can drain and exit.
        self.table.stop_all_and_join();
        if let Some(dir) = &self.state {
            write_snapshot(&self.table, dir, &self.obs, &resume_states);
        }
        reap(&mut handlers, true, &self.obs.logger);
        let _ = std::fs::remove_file(&self.path);
        self.obs.logger.info("chronosd::daemon", "shut down", &[]);
        Ok(())
    }
}

/// Join the connection handlers that have finished (every one when
/// `all`), logging any that panicked, and keep the rest: the accept loop
/// holds handles only for live connections.
fn reap(handlers: &mut Vec<JoinHandle<()>>, all: bool, logger: &obs::Logger) {
    let (finished, live): (Vec<_>, Vec<_>) = std::mem::take(handlers)
        .into_iter()
        .partition(|handler| all || handler.is_finished());
    *handlers = live;
    for handler in finished {
        if handler.join().is_err() {
            logger.error("chronosd::daemon", "connection handler panicked", &[]);
        }
    }
}

/// Write one state snapshot, logging (never propagating) failures.
fn write_snapshot(
    table: &JobTable,
    dir: &StateDir,
    obs: &DaemonObs,
    overrides: &BTreeMap<String, JobState>,
) -> bool {
    match state::snapshot(table, dir, overrides) {
        Ok(jobs) => {
            obs.checkpoints_written.inc();
            obs.logger.debug(
                "chronosd::daemon",
                "state snapshot written",
                &[("jobs", &jobs)],
            );
            true
        }
        Err(io) => {
            obs.logger.error(
                "chronosd::daemon",
                "state snapshot failed",
                &[("error", &io)],
            );
            false
        }
    }
}

/// Resume every job recorded in the state-dir manifest. Corruption at
/// any layer — the manifest itself, a job file's checksum, the engine's
/// structural revalidation — quarantines the offending file and adopts
/// the job as `failed` with the decode error; nothing here aborts boot.
pub(crate) fn boot_from_state(
    table: &JobTable,
    dir: &StateDir,
    obs: &DaemonObs,
    resume_threads: Option<usize>,
) {
    let entries = match dir.read_manifest() {
        Ok(None) => return, // first boot: nothing to resume
        Ok(Some(Ok(entries))) => entries,
        Ok(Some(Err(decode))) => {
            obs.quarantines.inc();
            let quarantined = dir.quarantine("manifest.chrm").is_ok();
            obs.logger.error(
                "chronosd::daemon",
                "manifest corrupt; quarantined, booting empty",
                &[("error", &decode), ("quarantined", &quarantined)],
            );
            return;
        }
        Err(io) => {
            obs.logger.error(
                "chronosd::daemon",
                "manifest unreadable; booting empty",
                &[("error", &io)],
            );
            return;
        }
    };
    for entry in entries {
        let mut params = entry.params;
        if let Some(threads) = resume_threads {
            params.threads = threads.max(1);
        }
        if let Err(message) = adopt_entry(table, dir, obs, &entry, params) {
            obs.logger.error(
                "chronosd::daemon",
                "job not restored",
                &[("job", &entry.name), ("error", &message)],
            );
        }
    }
}

/// Restore one manifest entry into the table.
fn adopt_entry(
    table: &JobTable,
    dir: &StateDir,
    obs: &DaemonObs,
    entry: &ManifestEntry,
    params: Params,
) -> Result<(), String> {
    let failed = |error: String| table.adopt_failed(entry, error).map(drop);
    if entry.state == JobState::Failed {
        let error = entry
            .error
            .clone()
            .unwrap_or_else(|| "failed before the last shutdown".to_string());
        return failed(error);
    }
    let Some(file) = &entry.file else {
        // No simulation bytes: no worker built the job. A still-queued
        // job is resubmitted from its spec with the manifest's params and
        // a stopped one is re-created stopped; any other terminal one has
        // nothing left to serve.
        let state = match entry.state {
            JobState::Stopped => JobState::Stopped,
            state if state.is_terminal() => {
                return failed("no state bytes survived the last shutdown".to_string());
            }
            _ => JobState::Queued,
        };
        return table
            .resubmit(&entry.name, &entry.spec, Some(params), state)
            .map(drop);
    };
    let bytes = match dir.read_job_file(file) {
        Ok(bytes) => bytes,
        Err(io) => return failed(format!("state file unreadable: {io}")),
    };
    match load(&bytes, table.fleet_metrics()) {
        Ok(loaded) => {
            table.adopt(entry, params, loaded)?;
            obs.checkpoints_restored.inc();
            Ok(())
        }
        // The bytes failed their checksum, their version check, or the
        // engine's revalidation: quarantine the file, keep the job visible.
        Err(why) => {
            obs.quarantines.inc();
            let moved = dir.quarantine(file).is_ok();
            obs.logger.warn(
                "chronosd::daemon",
                "state file quarantined",
                &[("job", &entry.name), ("file", &file), ("moved", &moved)],
            );
            failed(format!("state file quarantined: {why}"))
        }
    }
}

/// Holds a gauge incremented for this guard's lifetime (the live
/// `watch`-subscriber count). A guard — not paired add calls — because
/// the stream loop exits through `?` on client disconnect.
struct GaugeGuard(Arc<obs::Gauge>);

impl GaugeGuard {
    fn hold(gauge: Arc<obs::Gauge>) -> GaugeGuard {
        gauge.add(1.0);
        GaugeGuard(gauge)
    }
}

impl Drop for GaugeGuard {
    fn drop(&mut self) {
        self.0.add(-1.0);
    }
}

fn ok(fields: Vec<(String, Json)>) -> Json {
    let mut all = vec![("ok".to_string(), Json::Bool(true))];
    all.extend(fields);
    Json::Obj(all)
}

fn err(message: impl Into<String>) -> Json {
    Json::Obj(vec![
        ("ok".to_string(), Json::Bool(false)),
        ("error".to_string(), Json::Str(message.into())),
    ])
}

fn snapshot_fields(job: &Job, snap: &JobSnapshot) -> Vec<(String, Json)> {
    let rows = snap
        .sweep_rows
        .map(|(done, total)| {
            Json::Obj(vec![
                ("done".to_string(), Json::usize(done)),
                ("total".to_string(), Json::usize(total)),
            ])
        })
        .unwrap_or(Json::Null);
    vec![
        ("job".into(), Json::str(job.name.clone())),
        ("kind".into(), Json::str(&job.kind)),
        ("state".into(), Json::str(snap.state.as_str())),
        ("slices".into(), Json::u64(snap.slices)),
        ("rows".into(), rows),
        (
            "progress".into(),
            snap.progress
                .as_ref()
                .map(progress_json)
                .unwrap_or(Json::Null),
        ),
        (
            "error".into(),
            snap.error
                .as_ref()
                .map(|e| Json::str(e.clone()))
                .unwrap_or(Json::Null),
        ),
    ]
}

/// The `submit` / `resume` acknowledgement: the new job's name, kind and
/// state. The state is always `queued`, the state every accepted job is
/// registered in: reading the live state instead would race the worker
/// that may already have picked the job up.
fn accepted_fields(job: &Job) -> Vec<(String, Json)> {
    vec![
        ("job".into(), Json::str(job.name.clone())),
        ("kind".into(), Json::str(&job.kind)),
        ("state".into(), Json::str(JobState::Queued.as_str())),
    ]
}

fn require_job(table: &JobTable, request: &Json) -> Result<Arc<Job>, Json> {
    let name = request
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| err("name: expected a string"))?;
    table
        .get(name)
        .ok_or_else(|| err(format!("no such job {name:?}")))
}

/// The `ping` payload: identity, uptime, and job counts by state.
fn ping_fields(ctx: &ServerCtx) -> Vec<(String, Json)> {
    let jobs = ctx.table.list();
    let states: Vec<JobState> = jobs.iter().map(|job| job.snapshot().state).collect();
    vec![
        ("service".into(), Json::str("chronosd")),
        ("version".into(), Json::str(env!("CARGO_PKG_VERSION"))),
        ("protocol".into(), Json::u64(PROTOCOL_VERSION)),
        (
            "uptime_s".into(),
            Json::u64(ctx.started.elapsed().as_secs()),
        ),
        ("jobs".into(), Json::usize(jobs.len())),
        (
            "job_states".into(),
            Json::Obj(
                JobState::ALL
                    .into_iter()
                    .map(|state| {
                        let n = states.iter().filter(|&&s| s == state).count();
                        (state.as_str().to_string(), Json::usize(n))
                    })
                    .collect(),
            ),
        ),
    ]
}

/// Handle one request and return its response line. The `watch` command
/// streams its snapshot lines to `out` first and returns its `end` line;
/// an error means the client went away mid-stream.
fn dispatch(request: &Json, ctx: &ServerCtx, out: &mut impl Write) -> std::io::Result<Json> {
    let table: &JobTable = &ctx.table;
    let shutdown: &AtomicBool = &ctx.shutdown;
    let cmd = match request.get("cmd").and_then(Json::as_str) {
        Some(cmd) => cmd,
        None => {
            ctx.obs.protocol_errors.inc();
            ctx.obs
                .logger
                .warn("chronosd::daemon", "request without cmd", &[]);
            return Ok(err("cmd: expected a string"));
        }
    };
    // Unrecognized commands share one fixed label so arbitrary client
    // input cannot grow the registry.
    ctx.obs.count_command(if COMMANDS.contains(&cmd) {
        cmd
    } else {
        "unknown"
    });
    let response = match cmd {
        "ping" => ok(ping_fields(ctx)),
        "metrics" => ok(vec![("metrics".into(), Json::str(ctx.obs.render()))]),
        "submit" => {
            let name = request.get("name").and_then(Json::as_str);
            let spec = request.get("spec");
            match (name, spec) {
                (Some(name), Some(spec)) => match table.submit(name, spec) {
                    Ok(job) => ok(accepted_fields(&job)),
                    Err(message) => err(message),
                },
                _ => err("submit needs \"name\" (string) and \"spec\" (object)"),
            }
        }
        "jobs" => {
            let rows = table
                .list()
                .iter()
                .map(|job| {
                    let snap = job.snapshot();
                    Json::Obj(snapshot_fields(job, &snap))
                })
                .collect();
            ok(vec![("jobs".into(), Json::Arr(rows))])
        }
        "status" => match require_job(table, request) {
            Ok(job) => ok(snapshot_fields(&job, &job.snapshot())),
            Err(response) => response,
        },
        "report" => match require_job(table, request) {
            // Completed rows are servable while the sweep runs: `row` asks
            // for one row's full fleet report.
            Ok(job) if job.is_sweep() => match request.get("row").and_then(Json::as_usize) {
                Some(row) => match job.sweep_row_report(row) {
                    Some(report) => ok(vec![
                        ("row".into(), Json::usize(row)),
                        ("report".into(), report_json(&report)),
                    ]),
                    None => err(format!(
                        "sweep job {:?} has not completed row {row} yet",
                        job.name
                    )),
                },
                None => match job.sweep_result() {
                    Some(result) => ok(vec![("sweep".into(), sweep_json(&result))]),
                    None => err(format!("sweep job {:?} is not done yet", job.name)),
                },
            },
            Ok(job) => match job.report(PARK_TIMEOUT) {
                Ok(report) => ok(vec![("report".into(), report_json(&report))]),
                Err(message) => err(message),
            },
            Err(response) => response,
        },
        "watch" => match require_job(table, request) {
            Ok(job) => {
                let count = request
                    .get("count")
                    .and_then(Json::as_u64)
                    .unwrap_or(u64::MAX);
                let _subscribed = GaugeGuard::hold(job.watchers_gauge());
                let mut cursor: Option<(u64, crate::jobs::JobState)> = None;
                let mut emitted = 0u64;
                loop {
                    let snap = match cursor {
                        None => job.snapshot(), // emit the current snapshot first
                        Some((slices, state)) => {
                            match job.wait_change(slices, state, PARK_TIMEOUT) {
                                Some(snap) => snap,
                                None => break,
                            }
                        }
                    };
                    let mut fields = vec![("event".to_string(), Json::str("snapshot"))];
                    fields.extend(snapshot_fields(&job, &snap));
                    writeln!(out, "{}", ok(fields).render())?;
                    out.flush()?;
                    emitted += 1;
                    // A paused job steps no further without operator
                    // action, so the stream ends there too.
                    if snap.state.is_terminal()
                        || snap.state == crate::jobs::JobState::Paused
                        || emitted >= count
                    {
                        break;
                    }
                    cursor = Some((snap.slices, snap.state));
                }
                let mut end = vec![("event".to_string(), Json::str("end"))];
                end.extend(snapshot_fields(&job, &job.snapshot()));
                ok(end)
            }
            Err(response) => response,
        },
        "checkpoint" => match require_job(table, request) {
            Ok(job) => match request.get("path").and_then(Json::as_str) {
                Some(path) => match job.durable_bytes(PARK_TIMEOUT) {
                    Ok(bytes) => match std::fs::write(path, &bytes) {
                        Ok(()) => ok(vec![
                            ("job".into(), Json::str(job.name.clone())),
                            ("path".into(), Json::str(path)),
                            ("bytes".into(), Json::usize(bytes.len())),
                        ]),
                        Err(io) => err(format!("writing {path:?}: {io}")),
                    },
                    Err(message) => err(message),
                },
                None => err("checkpoint needs \"path\" (string)"),
            },
            Err(response) => response,
        },
        "resume" => {
            let name = request.get("name").and_then(Json::as_str);
            let path = request.get("path").and_then(Json::as_str);
            match (name, path) {
                (Some(name), Some(path)) => match std::fs::read(path) {
                    Ok(bytes) => match Params::parse(request)
                        .and_then(|params| table.resume(name, bytes, params))
                    {
                        Ok(job) => ok(accepted_fields(&job)),
                        Err(message) => err(message),
                    },
                    Err(io) => err(format!("reading {path:?}: {io}")),
                },
                _ => err("resume needs \"name\" and \"path\" (strings)"),
            }
        }
        "unpause" => match require_job(table, request) {
            Ok(job) => {
                table.unpause(&job);
                ok(vec![("job".into(), Json::str(job.name.clone()))])
            }
            Err(response) => response,
        },
        "stop" => match require_job(table, request) {
            Ok(job) => {
                job.request_stop();
                ok(vec![("job".into(), Json::str(job.name.clone()))])
            }
            Err(response) => response,
        },
        "forget" => match request.get("name").and_then(Json::as_str) {
            Some(name) => match table.forget(name) {
                Ok(()) => {
                    // Drop the job's durable record too, so a restart
                    // does not resurrect a name the operator retired.
                    if let Some(dir) = &ctx.state {
                        if let Err(io) = dir.remove_job_file(&StateDir::job_file_name(name)) {
                            ctx.obs.logger.warn(
                                "chronosd::daemon",
                                "forgotten job checkpoint not removed",
                                &[("job", &name), ("error", &io)],
                            );
                        }
                        write_snapshot(table, dir, &ctx.obs, &BTreeMap::new());
                    }
                    ok(vec![("job".into(), Json::str(name))])
                }
                Err(message) => err(message),
            },
            None => err("forget needs \"name\" (string)"),
        },
        "sync" => match &ctx.state {
            Some(dir) => {
                if write_snapshot(table, dir, &ctx.obs, &BTreeMap::new()) {
                    ok(vec![
                        ("jobs".into(), Json::usize(table.list().len())),
                        (
                            "state_dir".into(),
                            Json::str(dir.root().display().to_string()),
                        ),
                    ])
                } else {
                    err("state snapshot failed (see daemon log)")
                }
            }
            None => err("daemon runs without --state-dir; nothing to sync"),
        },
        "shutdown" => {
            ctx.obs
                .logger
                .info("chronosd::daemon", "shutdown requested", &[]);
            shutdown.store(true, Ordering::SeqCst);
            ok(vec![("service".into(), Json::str("chronosd"))])
        }
        other => {
            ctx.obs.protocol_errors.inc();
            ctx.obs
                .logger
                .warn("chronosd::daemon", "unknown command", &[("cmd", &other)]);
            err(format!("unknown cmd {other:?}"))
        }
    };
    Ok(response)
}

fn handle_connection(stream: UnixStream, ctx: &ServerCtx) {
    let shutdown: &AtomicBool = &ctx.shutdown;
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(io) => {
            ctx.obs.logger.error(
                "chronosd::daemon",
                "cannot clone connection stream",
                &[("error", &io)],
            );
            return;
        }
    };
    // Bounded reads so an idle connection cannot pin the handler past a
    // shutdown: on each timeout the loop re-checks the flag. Partial
    // lines survive timeouts because read_until keeps consumed bytes in
    // the buffer. Each read stops one byte past MAX_REQUEST_LINE, so the
    // buffer never holds more than that.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(300)));
    let mut reader = BufReader::new(stream);
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let mut eof = false;
        let room = (MAX_REQUEST_LINE + 1 - buf.len()) as u64;
        match (&mut reader).take(room).read_until(b'\n', &mut buf) {
            Ok(0) => break,
            Ok(_) if buf.ends_with(b"\n") => {}
            Ok(_) if buf.len() > MAX_REQUEST_LINE => {
                ctx.obs.protocol_errors.inc();
                ctx.obs.logger.warn(
                    "chronosd::daemon",
                    "request line over the cap; closing connection",
                    &[("cap_bytes", &MAX_REQUEST_LINE)],
                );
                let response = err(format!("request line exceeds {MAX_REQUEST_LINE} bytes"));
                let _ = writeln!(writer, "{}", response.render()).and_then(|()| writer.flush());
                break;
            }
            Ok(_) => eof = true, // final unterminated line
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            Err(io) => {
                ctx.obs.logger.warn(
                    "chronosd::daemon",
                    "connection read failed",
                    &[("error", &io)],
                );
                break;
            }
        }
        let line = String::from_utf8_lossy(&buf).into_owned();
        buf.clear();
        if line.trim().is_empty() {
            if eof {
                break;
            }
            continue;
        }
        let response = match Json::parse(line.trim_end_matches(['\n', '\r'])) {
            Ok(request) => match dispatch(&request, ctx, &mut writer) {
                Ok(response) => response,
                Err(io) => {
                    // Client went away mid-stream.
                    ctx.obs.logger.debug(
                        "chronosd::daemon",
                        "watch stream dropped",
                        &[("error", &io)],
                    );
                    break;
                }
            },
            Err(parse) => {
                ctx.obs.protocol_errors.inc();
                ctx.obs.logger.warn(
                    "chronosd::daemon",
                    "unparseable request",
                    &[("error", &parse)],
                );
                err(format!("bad request: {parse}"))
            }
        };
        if writeln!(writer, "{}", response.render()).is_err() || writer.flush().is_err() {
            ctx.obs.logger.debug(
                "chronosd::daemon",
                "response write failed; closing connection",
                &[],
            );
            break;
        }
        if shutdown.load(Ordering::SeqCst) {
            // The accept loop may be blocked in accept(2) with no client
            // in flight; a throwaway connection wakes it so it can see
            // the flag and exit.
            let _ = UnixStream::connect(&ctx.path);
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Mutex};

    /// A log sink the test reads back.
    #[derive(Clone, Default)]
    struct Captured(Arc<Mutex<Vec<u8>>>);

    impl Write for Captured {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn reap_joins_finished_handlers_and_keeps_blocked_ones() {
        let captured = Captured::default();
        let logger = obs::Logger::to_sink(obs::Level::Error, Box::new(captured.clone()));
        let (release, blocked) = mpsc::channel::<()>();
        let mut handlers = vec![
            std::thread::spawn(|| {}),
            std::thread::spawn(|| panic!("deliberate handler panic")),
            std::thread::spawn(move || {
                let _ = blocked.recv();
            }),
        ];
        while !(handlers[0].is_finished() && handlers[1].is_finished()) {
            std::thread::sleep(Duration::from_millis(1));
        }
        reap(&mut handlers, false, &logger);
        assert_eq!(handlers.len(), 1, "only the blocked handler remains");
        assert!(!handlers[0].is_finished());
        let log = String::from_utf8(captured.0.lock().unwrap().clone()).unwrap();
        assert_eq!(
            log.matches("connection handler panicked").count(),
            1,
            "log: {log}"
        );
        release.send(()).unwrap();
        reap(&mut handlers, true, &logger);
        assert!(handlers.is_empty(), "the drain joins every handler");
    }
}
