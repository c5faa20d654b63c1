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
//! **One lock per job.** Everything about a job that changes — its status
//! snapshot, the parked [`fleet::Fleet`], the spec no worker has built
//! yet, its [`Params`], the sweep row book and a stop request — sits
//! behind one mutex with one condvar, and every transition is one
//! critical section: submit, a worker taking the job for a turn,
//! park-and-publish, pause, unpause, stop, forget, adoption from the
//! state dir, and a durable read. Building, stepping, a row's final
//! checkpoint and decoding run outside the lock: the worker takes the
//! fleet out, steps one slice, then parks it and publishes its
//! [`FleetProgress`] in one section. Observers that need the live state
//! (`report`, `checkpoint`, a state-dir snapshot) wait on the condvar
//! only while a worker holds the fleet, so every observation and every
//! checkpoint lands exactly on a `run_until` boundary, which the engine's
//! property tests prove is invisible to the simulation
//! (`piecewise_runs_equal_one_continuous_run`,
//! `resume_equals_uninterrupted_run`).
//!
//! The worker body is `Scheduler::run_one`: pop a job, step it once,
//! requeue it while it is still `running`. Pool threads call it in a
//! loop; the tests call it on a table no thread serves, interleaved with
//! operator commands. Any real-thread interleaving is some order of whole
//! transitions, so one thread can replay it.
//!
//! A job runs one of four [`JobSpec`]s: a fleet, a sweep over grid
//! points, a resume from durable bytes, or a panic probe. A sweep is not a
//! monolithic batch unit: the worker steps the current row's fleet in
//! slices like any fleet job and, when a row reaches its horizon, records
//! the row's final checkpoint and report and builds the next row's fleet
//! from the next point, parking both in one section. The parked fleet is
//! therefore always the *current row*, so a sweep is observable, pausable
//! at row boundaries (`pause_at_row`), and checkpointable — its durable
//! state is a `SWP1` cursor (see [`crate::sweep`]). The daemon never
//! knows which experiment a grid came from: the points carry everything.
//!
//! Determinism follows: a job's final report depends only on its
//! [`fleet::FleetConfig`] — not on slice length, worker count, how often
//! an operator polled, or whether the run was checkpointed into a
//! different process halfway through.

use std::collections::{BTreeMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
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
/// persists. It shares the job's lock with the parked fleet, and a row's
/// end updates both in one section, so every observer sees a cursor
/// consistent with the fleet.
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

/// Build a job's simulation from its spec (a worker does this outside
/// the job's lock).
fn build(spec: JobSpec, metrics: &Arc<FleetMetrics>) -> Result<Loaded, String> {
    match spec {
        // The probe exists to exercise the pool's catch_unwind path end
        // to end; the panic is caught in `Scheduler::run_one`.
        JobSpec::PanicProbe { message } => panic!("{message}"),
        JobSpec::Fleet { config } => Ok(Loaded::Fleet(new_fleet(*config, metrics))),
        JobSpec::Sweep { points } => {
            let first = points.first().map(|p| new_fleet(p.config.clone(), metrics));
            let book = SweepBook {
                points,
                ..SweepBook::default()
            };
            Ok(Loaded::Sweep(book, first))
        }
        JobSpec::Resume { bytes } => load(&bytes, metrics),
    }
}

/// A worker's turn on a job: decided under the job's lock, done outside
/// it.
enum Work {
    /// Build the simulation from the job's spec.
    Build(JobSpec),
    /// Step the fleet to the given time.
    Slice(Fleet, SimTime),
    /// Record a sweep row that reached its horizon, then build the next
    /// row from its config (`None` past the last row).
    NextRow(Fleet, Option<Box<FleetConfig>>),
}

/// Everything about a job that changes, behind the job's one lock.
struct JobInner {
    /// What `status` answers.
    snap: JobSnapshot,
    /// The simulation between turns: `None` while a worker holds it,
    /// before the build, once a sweep's last row is done, and after a
    /// failure.
    fleet: Option<Fleet>,
    /// The spec of a job no worker has built yet.
    pending: Option<JobSpec>,
    /// Scheduling parameters; `unpause` clears the pause anchors.
    params: Params,
    /// The grid and row cursor of a sweep (empty for fleet jobs).
    book: SweepBook,
    /// A `stop` that arrived while a worker held the simulation; the
    /// worker's park honours it.
    stop: bool,
}

impl JobInner {
    fn new(params: Params, pending: Option<JobSpec>) -> JobInner {
        JobInner {
            snap: JobSnapshot {
                state: JobState::Queued,
                progress: None,
                slices: 0,
                sweep_rows: None,
                error: None,
            },
            fleet: None,
            pending,
            params,
            book: SweepBook::default(),
            stop: false,
        }
    }

    /// Whether a worker holds the simulation right now: the only time an
    /// observer has to wait.
    fn in_flight(&self) -> bool {
        self.fleet.is_none() && self.pending.is_none() && !self.snap.state.is_terminal()
    }

    /// Take the job for a worker's turn at this `run_until` boundary: the
    /// spec to build, or the parked fleet to step or to close a row with.
    /// `None` when the job is not runnable, or pauses or finishes here.
    fn take(&mut self, sweep: bool) -> Option<Work> {
        if !matches!(self.snap.state, JobState::Queued | JobState::Running) {
            return None;
        }
        if let Some(spec) = self.pending.take() {
            return Some(Work::Build(spec));
        }
        let fleet = self.fleet.as_ref()?;
        let (now, horizon) = (fleet.now(), SimTime::ZERO + fleet.config().horizon);
        let row = self.book.done_blobs.len();
        // A fleet pauses at its time anchor, a sweep when its anchor row's
        // fleet is about to start; each ignores the other anchor.
        let pause_at = self
            .params
            .pause_at_s
            .filter(|_| !sweep)
            .map(SimTime::from_secs);
        let pause = if sweep {
            self.params.pause_at_row == Some(row) && now == SimTime::ZERO
        } else {
            pause_at.is_some_and(|p| now >= p)
        };
        if pause {
            self.snap.state = JobState::Paused;
            return None;
        }
        if now < horizon {
            let target = (now + SimDuration::from_secs(self.params.slice_s)).min(horizon);
            let target = pause_at.map_or(target, |p| target.min(p));
            return Some(Work::Slice(self.fleet.take()?, target));
        }
        if !sweep {
            self.snap.state = JobState::Done;
            return None;
        }
        let next = self
            .book
            .points
            .get(row + 1)
            .map(|p| Box::new(p.config.clone()));
        Some(Work::NextRow(self.fleet.take()?, next))
    }

    /// Park-and-publish: the worker's fleet back in place (`None` once a
    /// sweep's last row is done) with its progress, and the state that
    /// follows. Returns whether the job is still running.
    fn park(&mut self, fleet: Option<Fleet>, progress: Option<FleetProgress>, sweep: bool) -> bool {
        if sweep {
            self.snap.sweep_rows = Some((self.book.done_blobs.len(), self.book.points.len()));
        }
        if progress.is_some() {
            self.snap.progress = progress;
            self.snap.slices += 1;
        }
        self.snap.state = match fleet {
            None => JobState::Done,
            Some(_) if self.stop => JobState::Stopped,
            Some(_) => JobState::Running,
        };
        self.fleet = fleet.map(|mut fleet| {
            fleet.set_threads(self.params.threads);
            fleet
        });
        self.snap.state == JobState::Running
    }

    /// The durable bytes of a job no worker holds: the pending bytes of
    /// an unbuilt resume, a sweep's `SWP1` cursor (complete once every
    /// row is done), or the parked fleet's `CHR1` checkpoint.
    fn bytes(&self, name: &str, sweep: bool) -> Result<Vec<u8>, String> {
        let book = &self.book;
        let cursor =
            |current: Option<&[u8]>| crate::sweep::encode(&book.points, &book.done_blobs, current);
        match (&self.pending, &self.fleet) {
            (Some(JobSpec::Resume { bytes }), _) => Ok(bytes.clone()),
            (Some(_), _) => Err(format!("job {name:?} has not been built yet")),
            (None, Some(fleet)) if sweep => Ok(cursor(Some(&fleet.checkpoint()))),
            (None, Some(fleet)) => Ok(fleet.checkpoint()),
            (None, None) if sweep && book.done_blobs.len() == book.points.len() => Ok(cursor(None)),
            (None, None) => Err(format!("job {name:?} holds no fleet state")),
        }
    }
}

/// A job's durable record, read in one critical section: what a
/// state-dir snapshot writes as one manifest entry, and what `checkpoint`
/// writes to a file.
pub(crate) struct Durable {
    /// Lifecycle state, slice count and failure message.
    pub(crate) snap: JobSnapshot,
    /// Scheduling parameters, without any anchor `unpause` cancelled.
    pub(crate) params: Params,
    /// The job's durable bytes, or why it has none.
    pub(crate) bytes: Result<Vec<u8>, String>,
}

/// One hosted job: identity, and its state behind one lock.
pub struct Job {
    /// Unique job name (operator-chosen at submit time).
    pub name: String,
    /// Job-kind label: the submitted spec's `kind` (`"e16-fleet"`,
    /// `"e16-sweep"`, ...), or `"resume"` / `"resume-sweep"` for a job
    /// continuing from a `CHR1` checkpoint / `SWP1` cursor.
    pub kind: String,
    /// Whether the job walks a grid (reports per row and as a sweep).
    sweep: bool,
    inner: Mutex<JobInner>,
    /// Notified after every transition.
    changed: Condvar,
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
        lock(&self.inner).snap.clone()
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

    /// Run one transition: `f` under the job's lock, then wake every
    /// waiter and, with the lock released, log a lifecycle change.
    fn transition<R>(&self, f: impl FnOnce(&mut JobInner) -> R) -> R {
        let mut inner = lock(&self.inner);
        let before = inner.snap.state;
        let out = f(&mut inner);
        let (state, error) = (inner.snap.state, inner.snap.error.clone());
        drop(inner);
        self.changed.notify_all();
        if state != before {
            self.log_state(state, error.as_deref());
        }
        out
    }

    /// Stop the job (idempotent; a terminal job stays as it is). A job no
    /// worker holds stops at once with its state kept; one a worker holds
    /// stops when the worker parks it.
    pub fn request_stop(&self) {
        self.transition(|inner| {
            if inner.in_flight() {
                inner.stop = true;
            } else if !inner.snap.state.is_terminal() {
                inner.snap.state = JobState::Stopped;
            }
        });
    }

    /// Cancel the job's pause anchors and release it if it is paused;
    /// returns whether it was (the caller then re-enqueues it). On a job
    /// that has not paused yet, the cleared anchors are what make the
    /// unpause durable: the next snapshot records them.
    fn request_unpause(&self) -> bool {
        self.transition(|inner| {
            inner.params.pause_at_s = None;
            inner.params.pause_at_row = None;
            let paused = inner.snap.state == JobState::Paused;
            if paused {
                inner.snap.state = JobState::Running;
            }
            paused
        })
    }

    fn fail(&self, message: String) {
        self.transition(|inner| {
            inner.snap.state = JobState::Failed;
            inner.snap.error = Some(message);
        });
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
        let unchanged = |inner: &mut JobInner| {
            inner.snap.slices == seen_slices
                && inner.snap.state == seen_state
                && !seen_state.is_terminal()
        };
        let (mut inner, _) = self
            .changed
            .wait_timeout_while(lock(&self.inner), timeout, unchanged)
            .unwrap_or_else(PoisonError::into_inner);
        (!unchanged(&mut inner)).then(|| inner.snap.clone())
    }

    /// Lock the job once no worker holds its simulation, waiting at most
    /// `timeout`; the guard comes back either way (`in_flight` tells).
    fn parked(&self, timeout: Duration) -> MutexGuard<'_, JobInner> {
        self.changed
            .wait_timeout_while(lock(&self.inner), timeout, |inner| inner.in_flight())
            .unwrap_or_else(PoisonError::into_inner)
            .0
    }

    fn park_timeout(&self) -> String {
        format!("timed out waiting for job {:?} to park", self.name)
    }

    /// Run `f` against the parked fleet, waiting (bounded by `timeout`)
    /// for a worker to finish its current turn. Errors for jobs that
    /// hold no fleet (unbuilt or failed jobs, finished sweeps).
    pub fn with_fleet<R>(
        &self,
        timeout: Duration,
        f: impl FnOnce(&Fleet) -> R,
    ) -> Result<R, String> {
        let inner = self.parked(timeout);
        match &inner.fleet {
            Some(fleet) => Ok(f(fleet)),
            None if inner.in_flight() => Err(self.park_timeout()),
            None => Err(format!("job {:?} holds no fleet state", self.name)),
        }
    }

    /// The job's durable record: its state, params and slice count with
    /// its durable bytes, all from one critical section on a `run_until`
    /// boundary. The bytes are the `SWP1` cursor of a sweep, the pending
    /// bytes of a resume that has not been built yet, and the `CHR1`
    /// checkpoint of the parked fleet otherwise; `resume` accepts every
    /// form.
    pub(crate) fn durable(&self, timeout: Duration) -> Durable {
        let start = Instant::now();
        let inner = self.parked(timeout);
        let bytes = if inner.in_flight() {
            Err(self.park_timeout())
        } else {
            inner.bytes(&self.name, self.sweep)
        };
        let durable = Durable {
            snap: inner.snap.clone(),
            params: inner.params,
            bytes,
        };
        drop(inner);
        if let Ok(bytes) = &durable.bytes {
            self.metrics
                .checkpoint_wall
                .set(start.elapsed().as_secs_f64());
            self.metrics.checkpoint_bytes.set(bytes.len() as f64);
            self.logger.debug(
                "chronosd::jobs",
                "checkpoint taken",
                &[("job", &self.name), ("bytes", &bytes.len())],
            );
        }
        durable
    }

    /// The job's durable bytes — what `checkpoint` writes to a file (see
    /// `durable` for the forms).
    pub fn durable_bytes(&self, timeout: Duration) -> Result<Vec<u8>, String> {
        self.durable(timeout).bytes
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
        let inner = lock(&self.inner);
        let book = &inner.book;
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
        lock(&self.inner).book.done_reports.get(row).cloned()
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

    /// One worker turn: take the job under its lock, build or step the
    /// simulation outside it, then park and publish in one section.
    /// Returns whether the job is still running (the worker requeues it
    /// exactly then).
    fn step(&self, fleet_metrics: &Arc<FleetMetrics>) -> bool {
        let Some(work) = self.transition(|inner| inner.take(self.sweep)) else {
            return false;
        };
        let (mut book, mut row) = (None, None);
        let fleet = match work {
            Work::Build(spec) => match build(spec, fleet_metrics) {
                Ok(Loaded::Fleet(fleet)) => Some(fleet),
                Ok(Loaded::Sweep(loaded, current)) => {
                    book = Some(loaded);
                    current
                }
                Err(message) => {
                    self.fail(message);
                    return false;
                }
            },
            Work::Slice(mut fleet, target) => {
                fleet.run_until(target);
                Some(fleet)
            }
            Work::NextRow(fleet, next) => {
                row = Some((fleet.checkpoint(), fleet.report()));
                drop(fleet);
                next.map(|config| new_fleet(*config, fleet_metrics))
            }
        };
        let progress = fleet.as_ref().map(Fleet::progress);
        if let Some(t) = progress.as_ref().and_then(|p| p.throughput) {
            self.metrics.slice_wall.set(t.wall_secs);
            self.metrics.sim_per_wall.set(t.sim_per_wall);
            self.metrics.events_per_sec.set(t.events_per_sec);
        }
        self.transition(|inner| {
            if let Some(book) = book {
                inner.book = book;
            }
            if let Some((blob, report)) = row {
                inner.book.done_blobs.push(blob);
                inner.book.done_reports.push(report);
            }
            inner.park(fleet, progress, self.sweep)
        })
    }
}

/// The run queue shared by the pool workers and its shutdown flag, under
/// one lock. Jobs enter at submit, resume, unpause and adoption, and
/// cycle `pop → one turn → push` while they are `running`.
#[derive(Debug)]
struct Scheduler {
    queue: Mutex<RunQueue>,
    ready: Condvar,
}

#[derive(Debug, Default)]
struct RunQueue {
    jobs: VecDeque<Arc<Job>>,
    shutdown: bool,
}

impl Scheduler {
    fn enqueue(&self, job: Arc<Job>) {
        lock(&self.queue).jobs.push_back(job);
        self.ready.notify_one();
    }

    /// Stop handing out jobs, and wake every idle worker so it exits.
    fn shut_down(&self) {
        let mut queue = lock(&self.queue);
        queue.shutdown = true;
        queue.jobs.clear();
        drop(queue);
        self.ready.notify_all();
    }

    /// Block until a job is queued or the pool shuts down; `false` once
    /// it has.
    fn wait_for_work(&self) -> bool {
        let queue = self
            .ready
            .wait_while(lock(&self.queue), |q| q.jobs.is_empty() && !q.shutdown)
            .unwrap_or_else(PoisonError::into_inner);
        !queue.shutdown
    }

    /// The worker body: pop the next job, give it one turn inside a panic
    /// boundary, and requeue it while it is still `running`. Never
    /// blocks: returns `false` when the queue is empty.
    fn run_one(&self, obs: &DaemonObs) -> bool {
        let Some(job) = lock(&self.queue).jobs.pop_front() else {
            return false;
        };
        let running = std::panic::catch_unwind(AssertUnwindSafe(|| job.step(&obs.fleet)))
            .unwrap_or_else(|payload| {
                obs.job_panics.inc();
                job.fail(format!("job panicked: {}", panic_message(payload)));
                false
            });
        if running {
            obs.slices_scheduled.inc();
            self.enqueue(job);
        }
        true
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

/// One pool worker: run jobs round-robin until shutdown.
fn worker_loop(sched: Arc<Scheduler>, obs: Arc<DaemonObs>) {
    while sched.wait_for_work() {
        sched.run_one(&obs);
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
        JobTable::with_workers(workers.max(1), obs)
    }

    fn with_workers(workers: usize, obs: Arc<DaemonObs>) -> JobTable {
        let sched = Arc::new(Scheduler {
            queue: Mutex::new(RunQueue::default()),
            ready: Condvar::new(),
        });
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
        self.resubmit(name, spec, None, JobState::Queued)
    }

    /// [`JobTable::submit`], scheduled with `params` instead of the
    /// spec's own when given, in `state`: boot adoption re-creates a job
    /// recorded before any worker built it with the manifest's params, so
    /// an anchor an early `unpause` cancelled stays cancelled. A queued
    /// job is enqueued; a stopped one stays stopped holding only its
    /// spec, as it did before the reboot, so `report` and `checkpoint`
    /// answer what they answered then.
    pub(crate) fn resubmit(
        &self,
        name: &str,
        spec: &Json,
        params: Option<Params>,
        state: JobState,
    ) -> Result<Arc<Job>, String> {
        let (job_spec, parsed) = JobSpec::parse(spec)?;
        let kind = spec.get("kind").and_then(Json::as_str).unwrap_or_default();
        let sweep = matches!(job_spec, JobSpec::Sweep { .. });
        let mut inner = JobInner::new(params.unwrap_or(parsed), Some(job_spec));
        inner.snap.state = state;
        self.admit(name, kind, spec.clone(), sweep, inner)
    }

    /// Register a job continuing from durable bytes — an `SWP1` sweep
    /// cursor (kind `resume-sweep`) or a `CHR1` fleet checkpoint (kind
    /// `resume`), told apart by magic — and enqueue it. The bytes are
    /// decoded by the first worker turn; a rejected file fails the job.
    pub fn resume(&self, name: &str, bytes: Vec<u8>, params: Params) -> Result<Arc<Job>, String> {
        let sweep = bytes.starts_with(&crate::sweep::MAGIC);
        let kind = if sweep { "resume-sweep" } else { "resume" };
        let spec = Json::Obj(vec![("kind".into(), Json::str(kind))]);
        let inner = JobInner::new(params, Some(JobSpec::Resume { bytes }));
        self.admit(name, kind, spec, sweep, inner)
    }

    /// Register a job whose state is already complete, and enqueue it if
    /// it is runnable: the job is published whole, in one section.
    fn admit(
        &self,
        name: &str,
        kind: &str,
        spec_json: Json,
        sweep: bool,
        inner: JobInner,
    ) -> Result<Arc<Job>, String> {
        if name.is_empty() {
            return Err("job name must not be empty".to_string());
        }
        let runnable = matches!(inner.snap.state, JobState::Queued | JobState::Running);
        let job = Arc::new(Job {
            name: name.to_string(),
            kind: kind.to_string(),
            sweep,
            inner: Mutex::new(inner),
            changed: Condvar::new(),
            spec_json,
            metrics: self.obs.job_metrics(name),
            logger: Arc::clone(&self.obs.logger),
        });
        {
            let mut jobs = lock(&self.jobs);
            if jobs.contains_key(name) {
                return Err(format!("job {name:?} already exists"));
            }
            jobs.insert(name.to_string(), Arc::clone(&job));
        }
        self.obs.logger.info(
            "chronosd::jobs",
            "job submitted",
            &[("job", &name), ("kind", &kind)],
        );
        if runnable {
            self.sched.enqueue(Arc::clone(&job));
        }
        Ok(job)
    }

    /// The daemon-wide engine instrumentation every job fleet carries.
    pub(crate) fn fleet_metrics(&self) -> &Arc<FleetMetrics> {
        &self.obs.fleet
    }

    /// Adopt a job restored from the state dir under the manifest's name,
    /// kind and spec, its decoded state (see [`load`]) installed and the
    /// manifest's lifecycle state restored before the job is published: a
    /// running job re-enters the pool, a paused one waits for `unpause`,
    /// a terminal one stays observable. `params` are the scheduling knobs
    /// to resume with; `entry.slices` restores the watch cursor.
    pub(crate) fn adopt(
        &self,
        entry: &ManifestEntry,
        params: Params,
        loaded: Loaded,
    ) -> Result<Arc<Job>, String> {
        let mut inner = JobInner::new(params, None);
        let (sweep, fleet) = match loaded {
            Loaded::Fleet(fleet) => (false, Some(fleet)),
            Loaded::Sweep(book, current) => {
                inner.book = book;
                (true, current)
            }
        };
        let progress = fleet.as_ref().map(Fleet::progress);
        // Parked live state runs unless the manifest says paused, stopped
        // or done; a sweep whose rows are all done is done.
        if inner.park(fleet, progress, sweep)
            && !matches!(entry.state, JobState::Queued | JobState::Running)
        {
            inner.snap.state = entry.state;
        }
        inner.snap.slices = inner.snap.slices.max(entry.slices);
        self.admit(&entry.name, &entry.kind, entry.spec.clone(), sweep, inner)
    }

    /// Adopt a job as failed without any simulation state (corrupt or
    /// quarantined state files, failures recorded before a shutdown).
    pub(crate) fn adopt_failed(
        &self,
        entry: &ManifestEntry,
        error: String,
    ) -> Result<Arc<Job>, String> {
        let mut inner = JobInner::new(entry.params, None);
        inner.snap.state = JobState::Failed;
        inner.snap.error = Some(error.clone());
        let job = self.admit(&entry.name, &entry.kind, entry.spec.clone(), false, inner)?;
        job.log_state(JobState::Failed, Some(&error));
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

    /// Unpause `job`: a paused job re-enters the run queue; on any other
    /// job the pause anchors are cancelled, durably (see
    /// `Job::request_unpause`).
    pub fn unpause(&self, job: &Arc<Job>) {
        if job.request_unpause() {
            self.sched.enqueue(Arc::clone(job));
        }
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

    /// Shut the pool down and stop every job (daemon shutdown). Each
    /// worker finishes its current turn and exits; then no worker holds
    /// any simulation, so every job not yet terminal stops at once with
    /// its state parked.
    pub fn stop_all_and_join(&self) {
        self.sched.shut_down();
        let workers: Vec<_> = std::mem::take(&mut *lock(&self.workers));
        for handle in workers {
            let _ = handle.join();
        }
        for job in self.list() {
            job.request_stop();
        }
    }
}

#[cfg(test)]
impl JobTable {
    /// A table no thread serves: a test gives its jobs their turns with
    /// [`JobTable::run_one`], interleaved with commands.
    pub(crate) fn threadless(obs: Arc<DaemonObs>) -> JobTable {
        JobTable::with_workers(0, obs)
    }

    /// One worker turn on the calling thread; `false` when no job is
    /// queued.
    pub(crate) fn run_one(&self) -> bool {
        self.sched.run_one(&self.obs)
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
        // Registered but never stepped (no thread serves the table): a
        // snapshot (or `checkpoint`) must still capture the job, as the
        // bytes it will start from.
        let logger = obs::Logger::to_sink(obs::Level::Error, Box::new(std::io::sink()));
        let table = JobTable::threadless(Arc::new(DaemonObs::new(logger)));
        let bytes = b"CHR1 not yet decoded".to_vec();
        let job = table
            .resume("pending", bytes.clone(), params(1, 60))
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
        table.unpause(&job);
        wait_for(&job, JobState::Done);
        let report = job.report(Duration::from_secs(5)).unwrap();
        assert_eq!(report, Fleet::new(e16_config(7, 24, 2, 1)).run());
        table.stop_all_and_join();
    }
}
