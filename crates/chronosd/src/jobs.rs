//! Named jobs: persistent fleet runs and checkpointable sweeps hosted by
//! the daemon, scheduled on a bounded worker pool.
//!
//! A *job* owns one simulation and is stepped in `run_until` **slices**
//! (default 60 simulated seconds) by a shared pool of N workers (default
//! `cores - 1`). Scheduling is cooperative round-robin: a worker pops the
//! next runnable job from the queue, steps exactly one slice, re-enqueues
//! the job at the back, and takes the next one — so a 10⁶-client fleet
//! cannot starve small jobs, and no job ever owns a thread. Every step is
//! wrapped in `catch_unwind`: a panicking job transitions to
//! [`JobState::Failed`] with the panic message in its status while the
//! pool keeps serving every other job.
//!
//! Between slices the [`fleet::Fleet`] is *parked* in a shared slot,
//! which is the whole concurrency story:
//!
//! * the worker takes the fleet out, steps one slice without holding any
//!   lock, publishes a fresh [`FleetProgress`] snapshot, and puts the
//!   fleet back;
//! * server threads that need the live state (`status`, `report`,
//!   `checkpoint`) wait on the slot condvar until the fleet is parked —
//!   so every observation and every checkpoint lands exactly on a
//!   `run_until` boundary, which the engine's property tests prove is
//!   invisible to the simulation (`piecewise_runs_equal_one_continuous_run`,
//!   `resume_equals_uninterrupted_run`).
//!
//! A job runs one of four [`JobSpec`]s: a fleet, a sweep over grid
//! points, a resume from durable bytes, or a panic probe. A sweep is not a
//! monolithic batch unit: the worker steps the current row's fleet in
//! slices like any fleet job and, when a row reaches its horizon, records
//! the row's final checkpoint and report and immediately builds (and
//! parks) the next row's fleet from the next point. The slot therefore
//! always holds the *current row*, so a sweep is observable, pausable at
//! row boundaries (`pause_at_row`), and checkpointable — its durable
//! state is a `SWP1` cursor (see [`crate::sweep`]). The daemon never
//! knows which experiment a grid came from: the points carry everything.
//!
//! Determinism follows: a job's final report depends only on its
//! [`fleet::FleetConfig`] — not on slice length, worker count, how often
//! an operator polled, or whether the run was checkpointed into a
//! different process halfway through.

use std::collections::{BTreeMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};
use std::time::{Duration, Instant};

use chronos_pitfalls::experiments::{
    e16_config, e16_grid, e17_config, e18_config, e18_grid, SweepPoint, SweepResult, SweepRow,
};
use chronos_pitfalls::montecarlo::SweepStats;
use fleet::engine::{Fleet, FleetProgress, FleetReport};
use fleet::metrics::FleetMetrics;
use fleet::FleetConfig;
use netsim::time::{SimDuration, SimTime};

use crate::metrics::{DaemonObs, JobMetrics};
use crate::state::ManifestEntry;
use crate::Json;

/// Default slice length in simulated seconds between observation points.
pub const DEFAULT_SLICE_S: u64 = 60;

/// Lock a mutex, recovering the guard if a previous holder panicked.
/// Panic isolation is the pool's job (`catch_unwind` per slice); a
/// poisoned lock must degrade to "last write wins", never to a daemon
/// panic on an observer thread.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// What a job runs: one fleet, a grid of fleets, or durable bytes to
/// continue from. [`JobSpec::parse`] maps every `submit` kind onto the
/// first two through the same `chronos_pitfalls::experiments` functions
/// the batch runners use (see `docs/OPERATIONS.md` for the wire format);
/// the `resume` command carries the bytes.
#[derive(Debug, Clone)]
pub enum JobSpec {
    /// One fleet stepped to its horizon (`e16-fleet`, `e17-fleet`,
    /// `e18-fleet`).
    Fleet {
        /// The fleet to run; [`Params::threads`] replaces its `threads`.
        config: Box<FleetConfig>,
    },
    /// A grid stepped row by row (`e16-sweep`, `e18-sweep`).
    Sweep {
        /// The grid points, in row order.
        points: Vec<SweepPoint>,
    },
    /// Continue from durable bytes: an `SWP1` sweep cursor, or (any other
    /// magic) a `CHR1` fleet checkpoint.
    Resume {
        /// The cursor or checkpoint bytes.
        bytes: Vec<u8>,
    },
    /// A supervision probe: the job panics on its first slice. Operators
    /// (and CI) use it to verify the pool's panic isolation — the probe
    /// must land in `failed` with this message while every other job
    /// keeps stepping, and `chronosd_job_panics_total` must tick.
    PanicProbe {
        /// The panic payload, echoed into `status.error`.
        message: String,
    },
}

fn field_u64(spec: &Json, key: &str, default: u64) -> Result<u64, String> {
    match spec.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| format!("{key}: expected a non-negative integer")),
    }
}

fn field_usize(spec: &Json, key: &str, default: usize) -> Result<usize, String> {
    match spec.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_usize()
            .ok_or_else(|| format!("{key}: expected a non-negative integer")),
    }
}

fn field_f64(spec: &Json, key: &str, default: f64) -> Result<f64, String> {
    match spec.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_f64()
            .ok_or_else(|| format!("{key}: expected a number")),
    }
}

/// An optional integer field; `null` reads as absent.
fn field_opt<T>(spec: &Json, key: &str, read: fn(&Json) -> Option<T>) -> Result<Option<T>, String> {
    match spec.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => read(v)
            .map(Some)
            .ok_or_else(|| format!("{key}: expected a non-negative integer")),
    }
}

fn poisoned_resolvers(spec: &Json, resolvers: usize) -> Result<usize, String> {
    let poisoned = field_usize(spec, "poisoned_resolvers", resolvers)?;
    if poisoned > resolvers {
        return Err(format!(
            "poisoned_resolvers: {poisoned} exceeds resolvers ({resolvers})"
        ));
    }
    Ok(poisoned)
}

impl JobSpec {
    /// Parse a `submit` spec object into what to run and how to schedule
    /// it. Each wire kind becomes a fleet config or a grid of points;
    /// unknown kinds and malformed fields are rejected with a message
    /// naming the offending field.
    pub fn parse(spec: &Json) -> Result<(JobSpec, Params), String> {
        let kind = spec
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| "spec.kind: expected a string".to_string())?;
        let params = Params::parse(spec)?;
        let seed = || field_u64(spec, "seed", 7);
        let clients = || field_usize(spec, "clients", 1_000).map(|c| c.max(1));
        let resolvers = |default| field_usize(spec, "resolvers", default).map(|r| r.max(1));
        let job = match kind {
            "e16-fleet" => {
                let resolvers = resolvers(4)?;
                let poisoned = poisoned_resolvers(spec, resolvers)?;
                JobSpec::Fleet {
                    config: Box::new(e16_config(seed()?, clients()?, resolvers, poisoned)),
                }
            }
            "e17-fleet" => {
                let resolvers = resolvers(8)?;
                let outage_coverage = field_usize(spec, "outage_coverage", 0)?;
                if outage_coverage > resolvers {
                    return Err(format!(
                        "outage_coverage: {outage_coverage} exceeds resolvers ({resolvers})"
                    ));
                }
                let (seed, clients) = (seed()?, clients()?);
                let loss = field_f64(spec, "loss", 0.05)?;
                JobSpec::Fleet {
                    config: Box::new(e17_config(seed, clients, resolvers, loss, outage_coverage)),
                }
            }
            "e18-fleet" => {
                let resolvers = resolvers(4)?;
                let poisoned = poisoned_resolvers(spec, resolvers)?;
                let deployment = field_f64(spec, "deployment", 0.5)?;
                if !(0.0..=1.0).contains(&deployment) {
                    return Err(format!("deployment: {deployment} outside [0, 1]"));
                }
                JobSpec::Fleet {
                    config: Box::new(e18_config(
                        seed()?,
                        clients()?,
                        resolvers,
                        deployment,
                        poisoned,
                    )),
                }
            }
            "e16-sweep" | "e18-sweep" => {
                let (seed, clients) = (seed()?, clients()?);
                let grid = if kind == "e16-sweep" {
                    e16_grid
                } else {
                    e18_grid
                };
                JobSpec::Sweep {
                    points: grid(seed, clients, resolvers(4)?),
                }
            }
            "panic-probe" => JobSpec::PanicProbe {
                message: spec
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or("panic probe")
                    .to_string(),
            },
            other => {
                return Err(format!(
                    "spec.kind: unknown kind {other:?} (expected e16-fleet, e17-fleet, \
                     e18-fleet, e16-sweep, e18-sweep or panic-probe)"
                ))
            }
        };
        Ok((job, params))
    }
}

/// Job lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted; no worker has built the simulation yet.
    Queued,
    /// In the run queue (or on a worker) actively stepping slices.
    Running,
    /// Parked at the requested `pause_at_s` / `pause_at_row` boundary;
    /// not in the run queue until `unpause` (or `stop`). The simulation
    /// is observable and checkpointable.
    Paused,
    /// Reached the horizon; final state retained for `report`/`checkpoint`.
    Done,
    /// Stopped by an operator at a slice boundary; state retained.
    Stopped,
    /// The worker failed (corrupt checkpoint, panic, ...); see the error.
    Failed,
}

impl JobState {
    /// Every state, in lifecycle order (the order `ping` counts them in).
    pub(crate) const ALL: [JobState; 6] = [
        JobState::Queued,
        JobState::Running,
        JobState::Paused,
        JobState::Done,
        JobState::Stopped,
        JobState::Failed,
    ];

    /// Wire label (`"running"`, `"paused"`, ...).
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Paused => "paused",
            JobState::Done => "done",
            JobState::Stopped => "stopped",
            JobState::Failed => "failed",
        }
    }

    /// Parse a wire label back into a state (manifest loading).
    pub fn parse(label: &str) -> Option<JobState> {
        JobState::ALL
            .into_iter()
            .find(|state| state.as_str() == label)
    }

    /// Whether the job will never be stepped again.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Stopped | JobState::Failed)
    }
}

/// A point-in-time view of a job, cheap to clone and render.
#[derive(Debug, Clone)]
pub struct JobSnapshot {
    /// Lifecycle state.
    pub state: JobState,
    /// Latest end-of-slice progress of the live fleet — for sweep jobs,
    /// the *current row's* fleet (`None` before the first slice).
    pub progress: Option<FleetProgress>,
    /// Slices completed so far (monotonic; watch cursors key off it).
    pub slices: u64,
    /// Sweep cursor: `(rows_done, rows_total)` for sweep jobs.
    pub sweep_rows: Option<(usize, usize)>,
    /// Failure message when `state == Failed`.
    pub error: Option<String>,
}

/// The persistable scheduling parameters of a job: what the state-dir
/// manifest records alongside the checkpoint file so a rebooted daemon
/// steps the job the same way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Params {
    /// Worker threads for intra-fleet sharded stepping.
    pub threads: usize,
    /// Slice length in simulated seconds.
    pub slice_s: u64,
    /// Remaining pause anchor (simulated seconds), if any.
    pub pause_at_s: Option<u64>,
    /// Remaining row-boundary pause anchor (sweeps), if any.
    pub pause_at_row: Option<usize>,
}

impl Params {
    /// Read the scheduling fields a `submit` spec and a `resume` request
    /// share: `threads` (default 1), `slice_s` (default
    /// [`DEFAULT_SLICE_S`]) and the optional `pause_at_s` / `pause_at_row`
    /// anchors (a fleet ignores the row anchor, a sweep the time anchor).
    pub(crate) fn parse(request: &Json) -> Result<Params, String> {
        Ok(Params {
            threads: field_usize(request, "threads", 1)?.max(1),
            slice_s: field_u64(request, "slice_s", DEFAULT_SLICE_S)?.max(1),
            pause_at_s: field_opt(request, "pause_at_s", Json::as_u64)?,
            pause_at_row: field_opt(request, "pause_at_row", Json::as_usize)?,
        })
    }
}

/// Sweep bookkeeping: the grid and the per-row cursor that `SWP1`
/// persists. The worker mutates it only while the slot is empty (between
/// `take_parked` and `park`), so any observer holding the slot with a
/// parked fleet sees a cursor consistent with that fleet.
#[derive(Debug, Default)]
pub(crate) struct SweepBook {
    /// The grid, in row order (empty for fleet jobs).
    points: Vec<SweepPoint>,
    /// Final `CHR1` checkpoint of each completed row, in row order; its
    /// length is the current row's index. Restoring one and calling
    /// `report()` reproduces the row's report byte-identically — this is
    /// how a rebooted daemon serves sweep reports without recomputing
    /// rows.
    done_blobs: Vec<Vec<u8>>,
    /// The completed rows' reports (derived from `done_blobs`).
    done_reports: Vec<FleetReport>,
}

/// Simulation state ready to install into a job: one fleet, or a sweep's
/// book plus its current row's fleet (`None` once every row is done).
pub(crate) enum Loaded {
    /// A fleet job's parked state.
    Fleet(Fleet),
    /// A sweep job's cursor and current row.
    Sweep(SweepBook, Option<Fleet>),
}

/// Decode a job's durable bytes, picking the format by magic: `SWP1` is a
/// sweep cursor, anything else is tried as a `CHR1` checkpoint. The
/// engine revalidates every embedded checkpoint, so an error here means
/// the bytes are unusable (a resume fails; boot quarantines the file).
pub(crate) fn load(bytes: &[u8], metrics: &Arc<FleetMetrics>) -> Result<Loaded, String> {
    if !bytes.starts_with(&crate::sweep::MAGIC) {
        return Fleet::restore_with(bytes, Some(Arc::clone(metrics)))
            .map(Loaded::Fleet)
            .map_err(|e| format!("checkpoint rejected: {e}"));
    }
    let rejected = |why: String| format!("sweep cursor rejected: {why}");
    let cursor = crate::sweep::decode(bytes).map_err(|e| rejected(e.to_string()))?;
    let done_reports = cursor
        .done
        .iter()
        .enumerate()
        .map(|(k, blob)| {
            Fleet::restore(blob)
                .map(|fleet| fleet.report())
                .map_err(|e| rejected(format!("completed row {k} checkpoint rejected: {e}")))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let current = cursor
        .current
        .map(|blob| {
            Fleet::restore_with(&blob, Some(Arc::clone(metrics)))
                .map_err(|e| rejected(format!("current row checkpoint rejected: {e}")))
        })
        .transpose()?;
    let book = SweepBook {
        points: cursor.points,
        done_blobs: cursor.done,
        done_reports,
    };
    Ok(Loaded::Sweep(book, current))
}

/// A fresh fleet at time zero, instrumented like every job fleet.
fn new_fleet(config: FleetConfig, metrics: &Arc<FleetMetrics>) -> Fleet {
    let mut fleet = Fleet::new(config);
    fleet.set_metrics(Some(Arc::clone(metrics)));
    fleet
}

/// What the worker knows about a job between steps. Guarded by a mutex
/// that is only ever locked by the worker currently holding the job (the
/// queue hands a job to one worker at a time), for paused jobs by
/// `request_unpause`/adoption, and briefly by `durable_bytes` reading a
/// pending resume's bytes — so it is never held for long.
#[derive(Debug)]
enum WorkerState {
    /// Not yet built; the first step builds the simulation.
    Pending(JobSpec),
    /// A fleet job stepping toward its configured horizon.
    FleetRun,
    /// A sweep stepping its current row (cursor in the [`SweepBook`]).
    SweepRun,
    /// Terminal: nothing left to step.
    Finished,
}

/// What one scheduling step did, and therefore what the worker does next.
enum StepOutcome {
    /// Made progress; re-enqueue at the back of the run queue.
    Again,
    /// Parked in `paused`; `unpause` re-enqueues it.
    Idle,
    /// Terminal; never enqueued again.
    Terminal,
}

/// One hosted job: identity, live status, and the parked simulation.
pub struct Job {
    /// Unique job name (operator-chosen at submit time).
    pub name: String,
    /// Job-kind label: the submitted spec's `kind` (`"e16-fleet"`,
    /// `"e16-sweep"`, ...), or `"resume"` / `"resume-sweep"` for a job
    /// continuing from a `CHR1` checkpoint / `SWP1` cursor.
    pub kind: String,
    /// Whether the job walks a grid (reports per row and as a sweep).
    sweep: bool,
    me: Weak<Job>,
    sched: Weak<Scheduler>,
    status: Mutex<JobSnapshot>,
    status_cv: Condvar,
    slot: Mutex<Option<Fleet>>,
    slot_cv: Condvar,
    stop: AtomicBool,
    unpause: AtomicBool,
    worker: Mutex<WorkerState>,
    params: Mutex<Params>,
    book: Mutex<SweepBook>,
    spec_json: Json,
    /// Per-job gauges.
    metrics: JobMetrics,
    /// The daemon logger.
    logger: Arc<obs::Logger>,
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("name", &self.name)
            .field("kind", &self.kind)
            .field("state", &self.snapshot().state)
            .finish()
    }
}

impl Job {
    /// The watch-subscriber gauge (the daemon's `watch` handler holds it
    /// up/down around a stream).
    pub(crate) fn watchers_gauge(&self) -> Arc<obs::Gauge> {
        Arc::clone(&self.metrics.watchers)
    }

    /// The current status snapshot.
    pub fn snapshot(&self) -> JobSnapshot {
        lock(&self.status).clone()
    }

    /// The job's scheduling parameters (persisted in the manifest).
    pub fn params(&self) -> Params {
        *lock(&self.params)
    }

    /// The spec the job was created from, exactly as received (for a
    /// resumed job, `{"kind":"resume"}` or `{"kind":"resume-sweep"}`);
    /// the manifest records it so a job that never built can be
    /// resubmitted after a reboot.
    pub fn spec_json(&self) -> Json {
        self.spec_json.clone()
    }

    /// Whether this job walks a grid: its `report` answers per row and,
    /// once done, as a whole sweep.
    pub fn is_sweep(&self) -> bool {
        self.sweep
    }

    /// Ask the pool to stop the job at the next slice boundary
    /// (idempotent). A paused job has no worker, so it transitions to
    /// `stopped` right here.
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let mut status = lock(&self.status);
        let was_paused = status.state == JobState::Paused;
        if was_paused {
            status.state = JobState::Stopped;
        }
        drop(status);
        if was_paused {
            // No worker owns a paused job (it is not in the queue), so
            // retiring its worker state here cannot race a step.
            *lock(&self.worker) = WorkerState::Finished;
            self.log_state(JobState::Stopped, None);
        }
        self.status_cv.notify_all();
        self.slot_cv.notify_all();
    }

    /// Release a [`JobState::Paused`] job back into the run queue. On a
    /// job that has not paused yet, cancels its upcoming pause anchor
    /// instead (the old fire-and-forget semantics).
    pub fn request_unpause(&self) {
        let mut status = lock(&self.status);
        if status.state != JobState::Paused {
            drop(status);
            self.unpause.store(true, Ordering::SeqCst);
            self.status_cv.notify_all();
            return;
        }
        status.state = JobState::Running;
        drop(status);
        // Safe for the same reason as in `request_stop`: between the
        // Paused→Running transition above and the enqueue below, no
        // worker can own this job.
        {
            let mut params = lock(&self.params);
            params.pause_at_s = None;
            params.pause_at_row = None;
        }
        self.unpause.store(false, Ordering::SeqCst);
        self.log_state(JobState::Running, None);
        self.status_cv.notify_all();
        if let (Some(sched), Some(me)) = (self.sched.upgrade(), self.me.upgrade()) {
            sched.enqueue(me);
        }
    }

    /// Block until the job moves past the `(seen_slices, seen_state)`
    /// cursor — another slice lands, the lifecycle state changes, or a
    /// terminal state is reached; returns the fresh snapshot. `None` on
    /// timeout.
    pub fn wait_change(
        &self,
        seen_slices: u64,
        seen_state: JobState,
        timeout: Duration,
    ) -> Option<JobSnapshot> {
        let deadline = Instant::now() + timeout;
        let mut status = lock(&self.status);
        loop {
            if status.slices != seen_slices
                || status.state != seen_state
                || status.state.is_terminal()
            {
                return Some(status.clone());
            }
            let left = deadline.checked_duration_since(Instant::now())?;
            let (guard, _) = self
                .status_cv
                .wait_timeout(status, left)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            status = guard;
        }
    }

    /// Run `f` against the parked fleet, waiting (bounded by `timeout`)
    /// for the worker to finish its current slice. Errors for jobs that
    /// hold no simulation state (failed jobs, finished sweeps).
    pub fn with_fleet<R>(
        &self,
        timeout: Duration,
        f: impl FnOnce(&Fleet) -> R,
    ) -> Result<R, String> {
        let deadline = Instant::now() + timeout;
        let mut slot = lock(&self.slot);
        loop {
            if let Some(fleet) = slot.as_ref() {
                return Ok(f(fleet));
            }
            if self.snapshot().state.is_terminal() {
                return Err(format!("job {:?} holds no fleet state", self.name));
            }
            let left = deadline
                .checked_duration_since(Instant::now())
                .ok_or_else(|| format!("timed out waiting for job {:?} to park", self.name))?;
            let (guard, _) = self
                .slot_cv
                .wait_timeout(slot, left)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            slot = guard;
        }
    }

    /// The job's durable bytes — what `checkpoint` writes to a file and a
    /// state-dir snapshot to `jobs/`: the `SWP1` cursor of a sweep, the
    /// pending bytes of a resume that has not been built yet, and the
    /// `CHR1` checkpoint of the parked fleet otherwise. Captures land on
    /// `run_until` boundaries; `resume` accepts every form.
    pub fn durable_bytes(&self, timeout: Duration) -> Result<Vec<u8>, String> {
        let start = Instant::now();
        let pending = match &*lock(&self.worker) {
            WorkerState::Pending(JobSpec::Resume { bytes }) => Some(bytes.clone()),
            _ => None,
        };
        let bytes = match pending {
            Some(bytes) => bytes,
            None if self.sweep => self.sweep_cursor(timeout)?,
            None => self.with_fleet(timeout, Fleet::checkpoint)?,
        };
        self.metrics
            .checkpoint_wall
            .set(start.elapsed().as_secs_f64());
        self.metrics.checkpoint_bytes.set(bytes.len() as f64);
        self.logger.debug(
            "chronosd::jobs",
            "checkpoint taken",
            &[("job", &self.name), ("bytes", &bytes.len())],
        );
        Ok(bytes)
    }

    /// The `SWP1` cursor: every completed row's final checkpoint plus,
    /// mid-grid, the current row's live one (taken with the fleet parked,
    /// so the book cannot move under it).
    fn sweep_cursor(&self, timeout: Duration) -> Result<Vec<u8>, String> {
        let encode = |current: Option<&[u8]>| {
            let book = lock(&self.book);
            crate::sweep::encode(&book.points, &book.done_blobs, current)
        };
        {
            let book = lock(&self.book);
            if book.points.is_empty() {
                return Err(format!("job {:?} has no sweep cursor yet", self.name));
            }
            if book.done_blobs.len() == book.points.len() {
                drop(book);
                return Ok(encode(None));
            }
        }
        self.with_fleet(timeout, |fleet| encode(Some(&fleet.checkpoint())))
    }

    /// The live (or final) aggregate report of a fleet job (for sweeps:
    /// the current row's fleet).
    pub fn report(&self, timeout: Duration) -> Result<FleetReport, String> {
        self.with_fleet(timeout, |fleet| fleet.report())
    }

    /// The finished sweep: every row's coordinates and report, in grid
    /// order (`None` until the last row completes). Series and stats stay
    /// empty — the daemon runs no reducer, and the wire format omits them.
    pub fn sweep_result(&self) -> Option<SweepResult> {
        let book = lock(&self.book);
        let first = book.points.first()?;
        if book.done_reports.len() < book.points.len() {
            return None;
        }
        let rows = book
            .points
            .iter()
            .zip(&book.done_reports)
            .map(|(point, report)| SweepRow {
                axes: point.axes.clone(),
                report: report.clone(),
            })
            .collect();
        Some(SweepResult {
            resolvers: first.config.resolvers,
            rows,
            series: Vec::new(),
            stats: SweepStats::default(),
        })
    }

    /// The report of completed sweep row `row` (rows complete in order,
    /// so this serves partial results while the sweep is still running).
    pub fn sweep_row_report(&self, row: usize) -> Option<FleetReport> {
        lock(&self.book).done_reports.get(row).cloned()
    }

    fn log_state(&self, state: JobState, error: Option<&str>) {
        match error {
            Some(message) => self.logger.error(
                "chronosd::jobs",
                "job failed",
                &[("job", &self.name), ("error", &message)],
            ),
            None => self.logger.info(
                "chronosd::jobs",
                "job state change",
                &[("job", &self.name), ("state", &state.as_str())],
            ),
        }
    }

    fn set_state(&self, state: JobState, error: Option<String>) {
        self.log_state(state, error.as_deref());
        let mut status = lock(&self.status);
        status.state = state;
        if error.is_some() {
            status.error = error;
        }
        drop(status);
        self.status_cv.notify_all();
        // Terminal transitions also release `with_fleet` waiters.
        self.slot_cv.notify_all();
    }

    /// Publish a slice's progress, together with `state` when the job
    /// enters it at this slice: one lock section and one notify, so a
    /// watcher never sees the new state without its first progress.
    fn publish_slice(&self, progress: FleetProgress, state: Option<JobState>) {
        if let Some(state) = state {
            self.log_state(state, None);
        }
        if let Some(t) = progress.throughput {
            self.metrics.slice_wall.set(t.wall_secs);
            self.metrics.sim_per_wall.set(t.sim_per_wall);
            self.metrics.events_per_sec.set(t.events_per_sec);
        }
        let sweep_rows = {
            let book = lock(&self.book);
            (!book.points.is_empty()).then_some((book.done_blobs.len(), book.points.len()))
        };
        let mut status = lock(&self.status);
        if let Some(state) = state {
            status.state = state;
        }
        status.progress = Some(progress);
        status.slices += 1;
        if sweep_rows.is_some() {
            status.sweep_rows = sweep_rows;
        }
        drop(status);
        self.status_cv.notify_all();
    }

    fn park(&self, fleet: Fleet) {
        *lock(&self.slot) = Some(fleet);
        self.slot_cv.notify_all();
    }

    /// Take the parked fleet. `None` only if the state was lost to an
    /// earlier panic mid-slice — the caller fails the job instead of
    /// unwrapping.
    fn take_parked(&self) -> Option<Fleet> {
        lock(&self.slot).take()
    }

    /// The parked fleet's clock and configured horizon.
    fn parked_clock(&self) -> Option<(SimTime, SimTime)> {
        lock(&self.slot)
            .as_ref()
            .map(|fleet| (fleet.now(), SimTime::ZERO + fleet.config().horizon))
    }

    /// Retire the job as stopped (worker-side or shutdown drain).
    fn finish_stopped(&self) {
        *lock(&self.worker) = WorkerState::Finished;
        self.set_state(JobState::Stopped, None);
    }

    fn finish_failed(&self, message: String) {
        *lock(&self.worker) = WorkerState::Finished;
        self.set_state(JobState::Failed, Some(message));
    }

    /// One cooperative scheduling step: build the simulation or advance
    /// it by one slice. Called by pool workers with exclusive ownership
    /// of the job (it is out of the queue while stepping).
    fn step(&self, fleet_metrics: &Arc<FleetMetrics>) -> StepOutcome {
        if self.snapshot().state.is_terminal() {
            return StepOutcome::Terminal;
        }
        if self.stop.load(Ordering::SeqCst) {
            self.finish_stopped();
            return StepOutcome::Terminal;
        }
        let worker = lock(&self.worker);
        match &*worker {
            WorkerState::Pending(spec) => {
                let spec = spec.clone();
                // The job is out of the queue while stepping, so no
                // other thread changes the worker state: safe to release
                // the guard and let build() relock it.
                drop(worker);
                self.build(spec, fleet_metrics)
            }
            WorkerState::FleetRun => {
                drop(worker);
                self.step_fleet()
            }
            WorkerState::SweepRun => {
                drop(worker);
                self.step_sweep(fleet_metrics)
            }
            WorkerState::Finished => StepOutcome::Terminal,
        }
    }

    /// First step: build the simulation from the spec.
    fn build(&self, spec: JobSpec, fleet_metrics: &Arc<FleetMetrics>) -> StepOutcome {
        let loaded = match spec {
            // The probe exists to exercise the pool's catch_unwind path
            // end to end; the panic is caught one frame up.
            JobSpec::PanicProbe { message } => panic!("{message}"),
            JobSpec::Fleet { config } => Ok(Loaded::Fleet(new_fleet(*config, fleet_metrics))),
            JobSpec::Sweep { points } => {
                let first = points
                    .first()
                    .map(|p| new_fleet(p.config.clone(), fleet_metrics));
                let book = SweepBook {
                    points,
                    ..SweepBook::default()
                };
                Ok(Loaded::Sweep(book, first))
            }
            JobSpec::Resume { bytes } => load(&bytes, fleet_metrics),
        };
        match loaded.map(|loaded| self.install(loaded)) {
            Ok(true) => StepOutcome::Again,
            Ok(false) => StepOutcome::Terminal,
            Err(message) => {
                self.finish_failed(message);
                StepOutcome::Terminal
            }
        }
    }

    /// Install decoded state as the job's simulation: park the fleet (on
    /// the job's thread count) and mark the job running. A sweep whose
    /// rows are all done finishes instead; returns whether the job has
    /// anything left to step.
    fn install(&self, loaded: Loaded) -> bool {
        let (mut fleet, worker) = match loaded {
            Loaded::Fleet(fleet) => (fleet, WorkerState::FleetRun),
            Loaded::Sweep(book, current) => {
                *lock(&self.book) = book;
                match current {
                    Some(fleet) => (fleet, WorkerState::SweepRun),
                    None => {
                        self.finish_sweep();
                        return false;
                    }
                }
            }
        };
        fleet.set_threads(self.params().threads);
        let progress = fleet.progress();
        self.park(fleet);
        *lock(&self.worker) = worker;
        self.publish_slice(progress, Some(JobState::Running));
        true
    }

    /// Decide whether to pause at the current boundary. Returns `true`
    /// when the job was parked in `paused` (caller returns `Idle`).
    fn pause_here(&self) -> bool {
        if self.unpause.swap(false, Ordering::SeqCst) {
            let mut params = lock(&self.params);
            params.pause_at_s = None;
            params.pause_at_row = None;
            return false;
        }
        let mut status = lock(&self.status);
        if self.stop.load(Ordering::SeqCst) {
            // Raced with request_stop: prefer stopped over a pause that
            // nobody will ever release.
            drop(status);
            self.finish_stopped();
            return true;
        }
        status.state = JobState::Paused;
        drop(status);
        self.log_state(JobState::Paused, None);
        self.status_cv.notify_all();
        true
    }

    fn step_fleet(&self) -> StepOutcome {
        let params = self.params();
        let Some((now, horizon)) = self.parked_clock() else {
            self.finish_failed("fleet state lost (earlier panic mid-slice)".to_string());
            return StepOutcome::Terminal;
        };
        let pause_at = params.pause_at_s.map(SimTime::from_secs);
        if let Some(p) = pause_at {
            if now >= p && self.pause_here() {
                return StepOutcome::Idle;
            }
        }
        if now >= horizon {
            *lock(&self.worker) = WorkerState::Finished;
            self.set_state(JobState::Done, None);
            return StepOutcome::Terminal;
        }
        let mut target = (now + SimDuration::from_secs(params.slice_s)).min(horizon);
        // Re-read: pause_here() may have just cleared the anchor.
        if let Some(p) = self.params().pause_at_s.map(SimTime::from_secs) {
            if p > now {
                target = target.min(p);
            }
        }
        let Some(mut fleet) = self.take_parked() else {
            self.finish_failed("fleet state lost (earlier panic mid-slice)".to_string());
            return StepOutcome::Terminal;
        };
        fleet.run_until(target);
        let progress = fleet.progress();
        self.park(fleet);
        self.publish_slice(progress, None);
        StepOutcome::Again
    }

    fn step_sweep(&self, fleet_metrics: &Arc<FleetMetrics>) -> StepOutcome {
        let params = self.params();
        let Some((now, horizon)) = self.parked_clock() else {
            self.finish_failed("sweep state lost (earlier panic mid-slice)".to_string());
            return StepOutcome::Terminal;
        };
        let row = lock(&self.book).done_blobs.len();
        // Row-boundary pause: about to start row `pause_at_row`, its
        // fleet freshly built and untouched.
        if params.pause_at_row == Some(row) && now == SimTime::ZERO && self.pause_here() {
            return StepOutcome::Idle;
        }
        let Some(mut fleet) = self.take_parked() else {
            self.finish_failed("sweep state lost (earlier panic mid-slice)".to_string());
            return StepOutcome::Terminal;
        };
        if now < horizon {
            let target = (now + SimDuration::from_secs(params.slice_s)).min(horizon);
            fleet.run_until(target);
            let progress = fleet.progress();
            self.park(fleet);
            self.publish_slice(progress, None);
            return StepOutcome::Again;
        }
        // Row complete: record its final checkpoint + report, then build
        // the next row (the slot stays empty only inside this window,
        // which is what keeps cursor observations consistent).
        let blob = fleet.checkpoint();
        let report = fleet.report();
        drop(fleet);
        let next_config = {
            let mut book = lock(&self.book);
            book.done_blobs.push(blob);
            book.done_reports.push(report);
            book.points
                .get(book.done_blobs.len())
                .map(|p| p.config.clone())
        };
        let Some(config) = next_config else {
            self.finish_sweep();
            return StepOutcome::Terminal;
        };
        let mut next = new_fleet(config, fleet_metrics);
        next.set_threads(params.threads);
        let progress = next.progress();
        self.park(next);
        self.publish_slice(progress, None);
        StepOutcome::Again
    }

    /// Retire a sweep whose rows are all done; [`Job::sweep_result`]
    /// serves it from the book.
    fn finish_sweep(&self) {
        *lock(&self.worker) = WorkerState::Finished;
        {
            let book = lock(&self.book);
            let mut status = lock(&self.status);
            status.sweep_rows = Some((book.done_blobs.len(), book.points.len()));
        }
        self.set_state(JobState::Done, None);
    }
}

/// The run queue shared by the pool workers. Jobs enter at submit (and
/// unpause) time and cycle `pop → step one slice → push` until they park
/// in `paused` or reach a terminal state.
#[derive(Debug)]
struct Scheduler {
    queue: Mutex<VecDeque<Arc<Job>>>,
    cv: Condvar,
    shutdown: AtomicBool,
}

impl Scheduler {
    fn new() -> Scheduler {
        Scheduler {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        }
    }

    fn enqueue(&self, job: Arc<Job>) {
        lock(&self.queue).push_back(job);
        self.cv.notify_one();
    }

    /// Pop the next runnable job; blocks until one arrives or shutdown.
    fn next(&self) -> Option<Arc<Job>> {
        let mut queue = lock(&self.queue);
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return None;
            }
            if let Some(job) = queue.pop_front() {
                return Some(job);
            }
            let (guard, _) = self
                .cv
                .wait_timeout(queue, Duration::from_millis(100))
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            queue = guard;
        }
    }
}

/// Extract a human-readable message from a `catch_unwind` payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload of unknown type".to_string()
    }
}

/// One pool worker: step jobs round-robin until shutdown.
fn worker_loop(sched: Arc<Scheduler>, obs: Arc<DaemonObs>) {
    while let Some(job) = sched.next() {
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| job.step(&obs.fleet)));
        match outcome {
            Ok(StepOutcome::Again) => {
                obs.slices_scheduled.inc();
                sched.enqueue(job);
            }
            Ok(StepOutcome::Idle) | Ok(StepOutcome::Terminal) => {}
            Err(payload) => {
                let message = format!("job panicked: {}", panic_message(payload));
                obs.job_panics.inc();
                job.finish_failed(message);
            }
        }
    }
}

/// The default pool size: one worker per core, minus one core left for
/// the socket handlers (never below one).
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().saturating_sub(1))
        .unwrap_or(1)
        .max(1)
}

/// The daemon's registry of named jobs, backed by the worker pool.
#[derive(Debug)]
pub struct JobTable {
    jobs: Mutex<BTreeMap<String, Arc<Job>>>,
    sched: Arc<Scheduler>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
    obs: Arc<DaemonObs>,
}

impl JobTable {
    /// An empty table with a pool of `workers` threads (at least one),
    /// spawned immediately. Its jobs register gauges in `obs`, attach the
    /// daemon-wide [`FleetMetrics`] to their fleets, and log lifecycle
    /// transitions through the daemon logger.
    pub fn new(workers: usize, obs: Arc<DaemonObs>) -> JobTable {
        let sched = Arc::new(Scheduler::new());
        let workers = workers.max(1);
        let handles = (0..workers)
            .map(|i| {
                let sched = Arc::clone(&sched);
                let obs = Arc::clone(&obs);
                std::thread::Builder::new()
                    .name(format!("chronosd-worker-{i}"))
                    .spawn(move || worker_loop(sched, obs))
                    .expect("spawning a pool worker thread")
            })
            .collect();
        JobTable {
            jobs: Mutex::new(BTreeMap::new()),
            sched,
            workers: Mutex::new(handles),
            obs,
        }
    }

    /// Parse a `submit` spec ([`JobSpec::parse`]), register the job under
    /// `name` with the spec's `kind` as its label, and enqueue it on the
    /// worker pool. Fails on a malformed spec, or if the name is empty or
    /// already taken (stale terminal jobs keep their name — pick a new
    /// one, or `forget` the old job).
    pub fn submit(&self, name: &str, spec: &Json) -> Result<Arc<Job>, String> {
        let (job_spec, params) = JobSpec::parse(spec)?;
        let kind = spec.get("kind").and_then(Json::as_str).unwrap_or_default();
        let sweep = matches!(job_spec, JobSpec::Sweep { .. });
        let worker = WorkerState::Pending(job_spec);
        let job = self.register(name, kind, spec.clone(), params, sweep, worker)?;
        self.sched.enqueue(Arc::clone(&job));
        Ok(job)
    }

    /// Register a job continuing from durable bytes — an `SWP1` sweep
    /// cursor (kind `resume-sweep`) or a `CHR1` fleet checkpoint (kind
    /// `resume`), told apart by magic — and enqueue it. The bytes are
    /// decoded by the first worker step; a rejected file fails the job.
    pub fn resume(&self, name: &str, bytes: Vec<u8>, params: Params) -> Result<Arc<Job>, String> {
        let sweep = bytes.starts_with(&crate::sweep::MAGIC);
        let kind = if sweep { "resume-sweep" } else { "resume" };
        let spec = Json::Obj(vec![("kind".into(), Json::str(kind))]);
        let worker = WorkerState::Pending(JobSpec::Resume { bytes });
        let job = self.register(name, kind, spec, params, sweep, worker)?;
        self.sched.enqueue(Arc::clone(&job));
        Ok(job)
    }

    /// Create and register a job without enqueueing it (adoption installs
    /// restored state first).
    fn register(
        &self,
        name: &str,
        kind: &str,
        spec_json: Json,
        params: Params,
        sweep: bool,
        worker: WorkerState,
    ) -> Result<Arc<Job>, String> {
        if name.is_empty() {
            return Err("job name must not be empty".to_string());
        }
        let metrics = self.obs.job_metrics(name);
        let logger = Arc::clone(&self.obs.logger);
        let sched = Arc::downgrade(&self.sched);
        let job = {
            let mut jobs = lock(&self.jobs);
            if jobs.contains_key(name) {
                return Err(format!("job {name:?} already exists"));
            }
            let job = Arc::new_cyclic(|me| Job {
                name: name.to_string(),
                kind: kind.to_string(),
                sweep,
                me: me.clone(),
                sched,
                status: Mutex::new(JobSnapshot {
                    state: JobState::Queued,
                    progress: None,
                    slices: 0,
                    sweep_rows: None,
                    error: None,
                }),
                status_cv: Condvar::new(),
                slot: Mutex::new(None),
                slot_cv: Condvar::new(),
                stop: AtomicBool::new(false),
                unpause: AtomicBool::new(false),
                worker: Mutex::new(worker),
                params: Mutex::new(params),
                book: Mutex::new(SweepBook::default()),
                spec_json,
                metrics,
                logger,
            });
            jobs.insert(name.to_string(), Arc::clone(&job));
            job
        };
        self.obs.logger.info(
            "chronosd::jobs",
            "job submitted",
            &[("job", &name), ("kind", &kind)],
        );
        Ok(job)
    }

    /// The daemon-wide engine instrumentation every job fleet carries.
    pub(crate) fn fleet_metrics(&self) -> &Arc<FleetMetrics> {
        &self.obs.fleet
    }

    /// Adopt a job restored from the state dir: register it under the
    /// manifest's name, kind and spec, install its decoded state (see
    /// [`load`]), and restore the manifest's lifecycle state — a running
    /// job re-enters the pool, a paused one waits for `unpause`, a
    /// terminal one stays observable. `params` are the scheduling knobs
    /// to resume with; `entry.slices` restores the watch cursor.
    pub(crate) fn adopt(
        &self,
        entry: &ManifestEntry,
        params: Params,
        loaded: Loaded,
    ) -> Result<Arc<Job>, String> {
        let sweep = matches!(loaded, Loaded::Sweep(..));
        let finished = WorkerState::Finished; // install() sets the real state
        let job = self.register(
            &entry.name,
            &entry.kind,
            entry.spec.clone(),
            params,
            sweep,
            finished,
        )?;
        let still_running = job.install(loaded);
        let run = matches!(entry.state, JobState::Running | JobState::Queued);
        {
            let mut status = lock(&job.status);
            status.slices = status.slices.max(entry.slices);
            // install() set Running (live state) or Done (complete
            // sweep); the manifest wins for paused/stopped/done jobs.
            if still_running && !run {
                status.state = entry.state;
            }
        }
        job.status_cv.notify_all();
        if still_running {
            if entry.state.is_terminal() {
                *lock(&job.worker) = WorkerState::Finished;
            } else if run {
                self.sched.enqueue(Arc::clone(&job));
            }
        }
        Ok(job)
    }

    /// Adopt a job as failed without any simulation state (corrupt or
    /// quarantined state files, failures recorded before a shutdown).
    pub(crate) fn adopt_failed(
        &self,
        entry: &ManifestEntry,
        error: String,
    ) -> Result<Arc<Job>, String> {
        let params = Params {
            threads: 1,
            slice_s: DEFAULT_SLICE_S,
            pause_at_s: None,
            pause_at_row: None,
        };
        let finished = WorkerState::Finished;
        let job = self.register(
            &entry.name,
            &entry.kind,
            entry.spec.clone(),
            params,
            false,
            finished,
        )?;
        job.set_state(JobState::Failed, Some(error));
        Ok(job)
    }

    /// Look up a job by name.
    pub fn get(&self, name: &str) -> Option<Arc<Job>> {
        lock(&self.jobs).get(name).cloned()
    }

    /// All jobs, in name order.
    pub fn list(&self) -> Vec<Arc<Job>> {
        lock(&self.jobs).values().cloned().collect()
    }

    /// Drop a terminal job from the table, freeing its name for reuse.
    /// Fails for unknown names and for jobs still running/paused — stop
    /// a job first if you want it gone.
    pub fn forget(&self, name: &str) -> Result<(), String> {
        {
            let mut jobs = lock(&self.jobs);
            let job = jobs
                .get(name)
                .ok_or_else(|| format!("no such job: {name:?}"))?;
            let state = job.snapshot().state;
            if !state.is_terminal() {
                return Err(format!(
                    "job {name:?} is {}; stop it before forgetting",
                    state.as_str()
                ));
            }
            jobs.remove(name);
        }
        self.obs
            .logger
            .info("chronosd::jobs", "job forgotten", &[("job", &name)]);
        Ok(())
    }

    /// Stop every job and join the worker pool (daemon shutdown). Any
    /// job still non-terminal after the pool drains (it never got a
    /// final step) is retired as `stopped` directly.
    pub fn stop_all_and_join(&self) {
        for job in self.list() {
            job.request_stop();
        }
        self.sched.shutdown.store(true, Ordering::SeqCst);
        self.sched.cv.notify_all();
        let workers: Vec<_> = std::mem::take(&mut *lock(&self.workers));
        for handle in workers {
            let _ = handle.join();
        }
        lock(&self.sched.queue).clear();
        for job in self.list() {
            if !job.snapshot().state.is_terminal() {
                job.finish_stopped();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronos_pitfalls::experiments::{e16_series, e18_series};

    fn spec(text: &str) -> Json {
        Json::parse(text).expect("spec literal")
    }

    /// A table whose observability writes nowhere.
    fn quiet_table(workers: usize) -> JobTable {
        let logger = obs::Logger::to_sink(obs::Level::Error, Box::new(std::io::sink()));
        JobTable::new(workers, Arc::new(DaemonObs::new(logger)))
    }

    fn small_spec(pause_at_s: Option<u64>) -> Json {
        let pause = pause_at_s
            .map(|p| format!(r#","pause_at_s":{p}"#))
            .unwrap_or_default();
        spec(&format!(
            r#"{{"kind":"e16-fleet","seed":7,"clients":24,"resolvers":2,"poisoned_resolvers":1,"slice_s":500{pause}}}"#
        ))
    }

    fn sweep_spec(kind: &str, pause_at_row: Option<usize>) -> Json {
        let pause = pause_at_row
            .map(|p| format!(r#","pause_at_row":{p}"#))
            .unwrap_or_default();
        spec(&format!(
            r#"{{"kind":"{kind}","seed":7,"clients":16,"resolvers":2,"slice_s":2000{pause}}}"#
        ))
    }

    fn params(threads: usize, slice_s: u64) -> Params {
        Params {
            threads,
            slice_s,
            pause_at_s: None,
            pause_at_row: None,
        }
    }

    fn wait_for(job: &Job, state: JobState) -> JobSnapshot {
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut cursor: Option<(u64, JobState)> = None;
        loop {
            let snap = match cursor {
                None => job.snapshot(),
                Some((slices, seen_state)) => job
                    .wait_change(slices, seen_state, Duration::from_secs(5))
                    .unwrap_or_else(|| job.snapshot()),
            };
            if snap.state == state {
                return snap;
            }
            assert!(
                !snap.state.is_terminal(),
                "terminal {:?} (error {:?}) while waiting for {state:?}",
                snap.state,
                snap.error
            );
            assert!(Instant::now() < deadline, "timed out");
            cursor = Some((snap.slices, snap.state));
        }
    }

    #[test]
    fn fleet_job_runs_to_done_and_matches_batch() {
        let table = quiet_table(2);
        let job = table.submit("smoke", &small_spec(None)).unwrap();
        assert_eq!(job.kind, "e16-fleet");
        let done = wait_for(&job, JobState::Done);
        assert!(
            done.slices > 1,
            "expected multiple slices, got {}",
            done.slices
        );
        let daemon_report = job.report(Duration::from_secs(5)).unwrap();
        let batch = Fleet::new(e16_config(7, 24, 2, 1)).run();
        assert_eq!(daemon_report, batch);
        table.stop_all_and_join();
    }

    #[test]
    fn pause_checkpoint_resume_is_byte_identical() {
        let table = quiet_table(2);
        let job = table.submit("first-leg", &small_spec(Some(1_500))).unwrap();
        wait_for(&job, JobState::Paused);
        let bytes = job.durable_bytes(Duration::from_secs(5)).unwrap();
        assert!(
            bytes.starts_with(b"CHR1"),
            "a fleet's durable bytes are CHR1"
        );
        let mid = job.report(Duration::from_secs(5)).unwrap();
        assert!(mid.end < netsim::time::SimTime::from_secs(6_000), "mid-run");
        job.request_stop();

        let resumed = table.resume("second-leg", bytes, params(2, 500)).unwrap();
        assert_eq!(resumed.kind, "resume");
        wait_for(&resumed, JobState::Done);
        let resumed_report = resumed.report(Duration::from_secs(5)).unwrap();
        let batch = Fleet::new(e16_config(7, 24, 2, 1)).run();
        assert_eq!(resumed_report, batch);
        table.stop_all_and_join();
    }

    #[test]
    fn stop_parks_state_and_names_stay_unique() {
        let table = quiet_table(1);
        let job = table.submit("victim", &small_spec(Some(1_000))).unwrap();
        assert!(table.submit("victim", &small_spec(None)).is_err());
        wait_for(&job, JobState::Paused);
        job.request_stop();
        let snap = wait_for(&job, JobState::Stopped);
        assert!(snap.progress.is_some());
        // Stopped jobs still expose their parked state.
        assert!(job.report(Duration::from_secs(5)).is_ok());
        table.stop_all_and_join();
    }

    #[test]
    fn bad_specs_and_bad_checkpoints_are_rejected() {
        assert!(JobSpec::parse(&spec(r#"{"kind":"nope"}"#)).is_err());
        assert!(JobSpec::parse(&spec(
            r#"{"kind":"e16-fleet","resolvers":2,"poisoned_resolvers":3}"#
        ))
        .is_err());
        let table = quiet_table(1);
        let job = table
            .resume("corrupt", b"junk".to_vec(), params(1, 60))
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let snap = job.snapshot();
            if snap.state == JobState::Failed {
                assert!(snap.error.unwrap().contains("checkpoint rejected"));
                break;
            }
            assert!(Instant::now() < deadline, "timed out");
            std::thread::sleep(Duration::from_millis(10));
        }
        table.stop_all_and_join();
    }

    #[test]
    fn an_unbuilt_resume_is_durable_as_its_own_bytes() {
        // Registered but never stepped: a snapshot (or `checkpoint`) must
        // still capture the job, as the bytes it will start from.
        let table = quiet_table(1);
        let bytes = b"CHR1 not yet decoded".to_vec();
        let pending = WorkerState::Pending(JobSpec::Resume {
            bytes: bytes.clone(),
        });
        let job = table
            .register(
                "pending",
                "resume",
                Json::Null,
                params(1, 60),
                false,
                pending,
            )
            .unwrap();
        assert_eq!(job.durable_bytes(Duration::from_secs(1)), Ok(bytes));
        table.stop_all_and_join();
    }

    #[test]
    fn parse_maps_wire_kinds_onto_the_batch_grids() {
        let (fleet, fleet_params) = JobSpec::parse(&small_spec(Some(900))).unwrap();
        let JobSpec::Fleet { config } = fleet else {
            panic!("e16-fleet parses to a fleet");
        };
        assert_eq!(*config, e16_config(7, 24, 2, 1));
        assert_eq!(
            fleet_params,
            Params {
                pause_at_s: Some(900),
                ..params(1, 500)
            }
        );
        let (e17, _) =
            JobSpec::parse(&spec(r#"{"kind":"e17-fleet","outage_coverage":2}"#)).unwrap();
        let JobSpec::Fleet { config } = e17 else {
            panic!("e17-fleet parses to a fleet");
        };
        assert_eq!(*config, e17_config(7, 1_000, 8, 0.05, 2));
        let (e18, _) = JobSpec::parse(&sweep_spec("e18-sweep", Some(3))).unwrap();
        let JobSpec::Sweep { points } = e18 else {
            panic!("e18-sweep parses to a sweep");
        };
        assert_eq!(points, e18_grid(7, 16, 2));
        // Scheduling knobs come from the same fields for every kind.
        let (_, sweep_params) = JobSpec::parse(&sweep_spec("e16-sweep", Some(1))).unwrap();
        assert_eq!(sweep_params.pause_at_row, Some(1));
        assert!(JobSpec::parse(&spec(r#"{"kind":"e16-sweep","threads":"two"}"#)).is_err());
    }

    #[test]
    fn panicking_job_fails_while_pool_keeps_serving() {
        // One worker: the probe and the fleet share it, so surviving the
        // panic *and* finishing the fleet proves the worker survived.
        let table = quiet_table(1);
        let probe = table
            .submit(
                "probe",
                &spec(r#"{"kind":"panic-probe","message":"deliberate test panic"}"#),
            )
            .unwrap();
        let fleet = table.submit("survivor", &small_spec(None)).unwrap();
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let snap = probe.snapshot();
            if snap.state == JobState::Failed {
                let error = snap.error.unwrap();
                assert!(
                    error.contains("deliberate test panic"),
                    "panic message missing: {error}"
                );
                break;
            }
            assert!(Instant::now() < deadline, "probe never failed");
            std::thread::sleep(Duration::from_millis(10));
        }
        let done = wait_for(&fleet, JobState::Done);
        assert!(done.slices > 1);
        let report = fleet.report(Duration::from_secs(5)).unwrap();
        assert_eq!(report, Fleet::new(e16_config(7, 24, 2, 1)).run());
        table.stop_all_and_join();
    }

    #[test]
    fn sweep_job_matches_run_e16_rows_and_series() {
        let table = quiet_table(2);
        let job = table
            .submit("sweep", &sweep_spec("e16-sweep", None))
            .unwrap();
        let snap = wait_for(&job, JobState::Done);
        assert_eq!(snap.sweep_rows, Some((3, 3)));
        let result = job.sweep_result().expect("sweep result");
        let batch = chronos_pitfalls::experiments::run_e16(7, 16, 2, 1);
        assert_eq!(result.rows, batch.rows);
        assert_eq!(e16_series(result.resolvers, &result.rows), batch.series);
        table.stop_all_and_join();
    }

    #[test]
    fn sweep_pause_cursor_resume_is_byte_identical() {
        let table = quiet_table(2);
        let job = table
            .submit("sweep-a", &sweep_spec("e16-sweep", Some(1)))
            .unwrap();
        wait_for(&job, JobState::Paused);
        let snap = job.snapshot();
        assert_eq!(snap.sweep_rows, Some((1, 3)));
        // Row 0 is already servable while the sweep is parked.
        assert!(job.sweep_row_report(0).is_some());
        let cursor = job.durable_bytes(Duration::from_secs(5)).unwrap();
        assert!(
            cursor.starts_with(&crate::sweep::MAGIC),
            "a sweep's durable bytes are its SWP1 cursor"
        );
        job.request_stop();

        let resumed = table.resume("sweep-b", cursor, params(2, 1_000)).unwrap();
        assert_eq!(resumed.kind, "resume-sweep");
        assert!(resumed.is_sweep());
        wait_for(&resumed, JobState::Done);
        let result = resumed.sweep_result().expect("sweep result");
        let batch = chronos_pitfalls::experiments::run_e16(7, 16, 2, 1);
        assert_eq!(result.rows, batch.rows);
        assert_eq!(e16_series(result.resolvers, &result.rows), batch.series);
        table.stop_all_and_join();
    }

    #[test]
    fn e18_sweep_job_matches_run_e18_rows_and_series() {
        let table = quiet_table(2);
        let job = table
            .submit("e18-sweep", &sweep_spec("e18-sweep", None))
            .unwrap();
        let snap = wait_for(&job, JobState::Done);
        let total = e18_grid(7, 16, 2).len();
        assert_eq!(snap.sweep_rows, Some((total, total)));
        let result = job.sweep_result().expect("sweep result");
        let batch = chronos_pitfalls::experiments::run_e18(7, 16, 2, 1);
        assert_eq!(result.rows, batch.rows);
        assert_eq!(e18_series(result.resolvers, &result.rows), batch.series);
        table.stop_all_and_join();
    }

    #[test]
    fn forget_drops_only_terminal_jobs_and_frees_the_name() {
        let table = quiet_table(1);
        let job = table.submit("keeper", &small_spec(Some(1_000))).unwrap();
        wait_for(&job, JobState::Paused);
        // Paused is not terminal: the job is still steerable.
        let err = table.forget("keeper").unwrap_err();
        assert!(err.contains("paused"), "unexpected error: {err}");
        assert!(table.get("keeper").is_some());
        // Unknown names are a clean error, not a panic.
        assert!(table.forget("nobody").is_err());

        job.request_stop();
        wait_for(&job, JobState::Stopped);
        table.forget("keeper").unwrap();
        assert!(table.get("keeper").is_none());
        // The name is immediately reusable.
        let again = table.submit("keeper", &small_spec(None)).unwrap();
        wait_for(&again, JobState::Done);
        table.stop_all_and_join();
    }

    #[test]
    fn unpause_reenqueues_a_paused_job() {
        let table = quiet_table(1);
        let job = table.submit("pausing", &small_spec(Some(1_000))).unwrap();
        wait_for(&job, JobState::Paused);
        job.request_unpause();
        wait_for(&job, JobState::Done);
        let report = job.report(Duration::from_secs(5)).unwrap();
        assert_eq!(report, Fleet::new(e16_config(7, 24, 2, 1)).run());
        table.stop_all_and_join();
    }
}
