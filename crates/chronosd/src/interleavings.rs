//! The interleaving harness: operator commands and worker turns in any
//! order, on a job table no thread serves, checked against a small
//! reference model.
//!
//! A job keeps its state behind one lock and every transition is one
//! critical section, so any interleaving of worker turns and commands on
//! real threads is some order of whole transitions, and one thread can
//! replay it. Each case draws 1–40 steps over 1–3 job names: submit a
//! 24-client `e16-fleet` or a 16-client `e16-sweep` with pause anchors,
//! give `run_one` turns, `unpause`, `stop`, `checkpoint`, `forget`,
//! `resume` from a checkpoint taken earlier in the case, snapshot the
//! state dir, and reboot a fresh table from the last snapshot through
//! `boot_from_state`. The case then drains: it unpauses every paused job
//! and runs turns until the queue is empty, then resumes every checkpoint
//! it took under a fresh name and runs those out too. Throughout:
//!
//! * no step panics;
//! * every status and every manifest entry names a state the reference
//!   model allows there — an `unpause` sent before the anchor means the
//!   job never pauses there, also after a reboot, and a stopped job
//!   answers `stopped`;
//! * every built job that has not failed checkpoints, a sweep whose last
//!   row has just finished included;
//! * every job that reaches `done` — submitted, resumed or rebooted —
//!   has the report bytes of `Fleet::run` / `run_e16` for its config.
//!
//! The default 64 cases take about 3.5 s in a debug build on a 2-vCPU
//! host; CI also runs 512 in release (3.7–5.8 s there).

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use chronos_pitfalls::experiments::{e16_config, run_e16};
use fleet::Fleet;
use netsim::time::SimTime;
use proptest::collection::vec;
use proptest::prelude::*;

use crate::jobs::{JobSnapshot, JobState, JobTable, Params};
use crate::render::{report_json, sweep_json};
use crate::state::{self, StateDir};
use crate::{DaemonObs, Json};

const SEED: u64 = 7;
const RESOLVERS: usize = 2;
const FLEET_CLIENTS: usize = 24;
const SWEEP_CLIENTS: usize = 16;
/// The E16 horizon, in seconds.
const HORIZON_S: u64 = 6_000;
/// Rows of the `e16-sweep` grid over two resolvers (k = 0, 1, 2).
const ROWS: usize = RESOLVERS + 1;
const NAMES: [&str; 3] = ["a", "b", "c"];

/// One drawn step; `job` indexes the case's names modulo their count.
#[derive(Debug, Clone)]
enum Cmd {
    SubmitFleet {
        job: usize,
        slice_s: u64,
        pause_at_s: Option<u64>,
    },
    SubmitSweep {
        job: usize,
        pause_at_row: Option<usize>,
    },
    /// `run_one` this many times (fewer once the queue is empty).
    Run(usize),
    Unpause(usize),
    Stop(usize),
    Checkpoint(usize),
    Forget(usize),
    /// Resume checkpoint `from` (modulo those taken so far) under the
    /// first free name from `job` on.
    Resume {
        job: usize,
        from: usize,
        pause_at_s: Option<u64>,
        pause_at_row: Option<usize>,
    },
    Snapshot,
    Reboot,
}

fn pause_at_s() -> impl Strategy<Value = Option<u64>> {
    prop_oneof![
        Just(None),
        Just(Some(0)),
        Just(Some(1_500)),
        Just(Some(HORIZON_S))
    ]
}

fn pause_at_row() -> impl Strategy<Value = Option<usize>> {
    prop_oneof![Just(None), (0..=ROWS).prop_map(Some)]
}

/// A step; `prop_oneof!` picks uniformly, so turns, checkpoints and
/// resumes are listed more than once to weight them up.
fn cmd() -> impl Strategy<Value = Cmd> {
    let job = || 0usize..NAMES.len();
    let run = || (1usize..=8).prop_map(Cmd::Run);
    let resume = || {
        (job(), 0usize..8, pause_at_s(), pause_at_row()).prop_map(
            |(job, from, pause_at_s, pause_at_row)| Cmd::Resume {
                job,
                from,
                pause_at_s,
                pause_at_row,
            },
        )
    };
    prop_oneof![
        (job(), prop_oneof![Just(500u64), Just(1_500)], pause_at_s()).prop_map(
            |(job, slice_s, pause_at_s)| Cmd::SubmitFleet {
                job,
                slice_s,
                pause_at_s
            }
        ),
        (job(), pause_at_row())
            .prop_map(|(job, pause_at_row)| Cmd::SubmitSweep { job, pause_at_row }),
        run(),
        run(),
        run(),
        job().prop_map(Cmd::Unpause),
        job().prop_map(Cmd::Stop),
        job().prop_map(Cmd::Checkpoint),
        job().prop_map(Cmd::Checkpoint),
        job().prop_map(Cmd::Forget),
        resume(),
        resume(),
        Just(Cmd::Snapshot),
        Just(Cmd::Reboot),
    ]
}

/// Where a simulation stands: the current sweep row (0 for a fleet) and
/// that row's clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Pos {
    row: usize,
    now: SimTime,
}

impl Pos {
    const ZERO: Pos = Pos {
        row: 0,
        now: SimTime::ZERO,
    };

    fn of(snap: &JobSnapshot) -> Pos {
        Pos {
            row: snap.sweep_rows.map_or(0, |(done, _)| done),
            now: snap.progress.as_ref().map_or(SimTime::ZERO, |p| p.now),
        }
    }
}

/// Whether a worker has built the job's simulation.
fn built(snap: &JobSnapshot) -> bool {
    snap.slices > 0 || snap.sweep_rows.is_some()
}

/// The reference model of one job.
#[derive(Debug, Clone)]
struct Model {
    sweep: bool,
    /// The live pause anchor: seconds for a fleet, a row for a sweep.
    anchor: Option<u64>,
    /// Where the simulation starts: zero, or the resumed checkpoint's
    /// position.
    start: Pos,
    /// Resumed from bytes, so durable before it is built.
    resumed: bool,
    /// A `stop` landed while the job was not terminal.
    stopped: bool,
    /// Its `done` report has been compared with the batch runner's.
    verified: bool,
}

impl Model {
    fn new(sweep: bool, anchor: Option<u64>, start: Pos, resumed: bool) -> Model {
        Model {
            sweep,
            anchor,
            start,
            resumed,
            stopped: false,
            verified: false,
        }
    }

    /// Where the live anchor will pause the job, if it still will: a
    /// fleet at the anchor (or at once, if resumed past it), a sweep as
    /// its anchor row starts (if the job started before that).
    fn pause_point(&self) -> Option<Pos> {
        let anchor = self.anchor?;
        if !self.sweep {
            let now = SimTime::from_secs(anchor).max(self.start.now);
            return Some(Pos { row: 0, now });
        }
        let row = anchor as usize;
        let ahead =
            row > self.start.row || (row == self.start.row && self.start.now == SimTime::ZERO);
        (row < ROWS && ahead).then_some(Pos {
            row,
            now: SimTime::ZERO,
        })
    }

    fn at_end(&self, pos: Pos) -> bool {
        if self.sweep {
            pos.row == ROWS
        } else {
            pos.now == SimTime::from_secs(HORIZON_S)
        }
    }

    /// Whether the model allows `snap` right now.
    fn allows(&self, snap: &JobSnapshot) -> bool {
        let pos = Pos::of(snap);
        let pause = self.pause_point();
        if self.stopped {
            return snap.state == JobState::Stopped;
        }
        match snap.state {
            JobState::Queued => !built(snap),
            JobState::Running => built(snap) && pause.is_none_or(|p| pos <= p),
            JobState::Paused => pause == Some(pos),
            JobState::Done => pause.is_none() && self.at_end(pos),
            JobState::Stopped | JobState::Failed => false,
        }
    }
}

/// Checkpoint bytes taken during a case, with where they stand.
struct Ckpt {
    bytes: Vec<u8>,
    sweep: bool,
    at: Pos,
}

/// The batch runner's report bytes: one fleet, one sweep.
fn batch() -> &'static (String, String) {
    static BATCH: OnceLock<(String, String)> = OnceLock::new();
    BATCH.get_or_init(|| {
        let config = e16_config(SEED, FLEET_CLIENTS, RESOLVERS, 1);
        assert_eq!(config.horizon.as_secs(), HORIZON_S, "the e16 horizon");
        let fleet = report_json(&Fleet::new(config).run()).render();
        let sweep = sweep_json(&run_e16(SEED, SWEEP_CLIENTS, RESOLVERS, 1)).render();
        (fleet, sweep)
    })
}

fn quiet_obs() -> Arc<DaemonObs> {
    let logger = obs::Logger::to_sink(obs::Level::Error, Box::new(std::io::sink()));
    Arc::new(DaemonObs::new(logger))
}

/// One case's daemon, reference model, checkpoints and state dir.
struct World {
    table: JobTable,
    jobs: BTreeMap<String, Model>,
    /// The model as of the last snapshot: what a reboot restores.
    saved: Option<BTreeMap<String, Model>>,
    ckpts: Vec<Ckpt>,
    dir: PathBuf,
}

type Checked = Result<(), String>;

impl World {
    fn new() -> World {
        static CASE: AtomicU64 = AtomicU64::new(0);
        let mut dir = std::env::temp_dir();
        dir.push(format!(
            "chronosd-interleavings-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        World {
            table: JobTable::threadless(quiet_obs()),
            jobs: BTreeMap::new(),
            saved: None,
            ckpts: Vec::new(),
            dir,
        }
    }

    /// Every job's status against the model; a job seen `done` for the
    /// first time is compared with the batch runner's bytes.
    fn check_all(&mut self) -> Checked {
        let listed: Vec<String> = self.table.list().iter().map(|j| j.name.clone()).collect();
        let modelled: Vec<String> = self.jobs.keys().cloned().collect();
        if listed != modelled {
            return Err(format!("table holds {listed:?}, model {modelled:?}"));
        }
        for (name, model) in &mut self.jobs {
            let job = self
                .table
                .get(name)
                .ok_or_else(|| format!("job {name:?} vanished"))?;
            let snap = job.snapshot();
            if !model.allows(&snap) {
                return Err(format!(
                    "job {name:?} is {:?} at {:?} (slices {}, error {:?}); model {model:?}",
                    snap.state,
                    Pos::of(&snap),
                    snap.slices,
                    snap.error
                ));
            }
            if snap.state == JobState::Done && !model.verified {
                let (fleet, sweep) = batch();
                let (got, want) = if model.sweep {
                    let result = job.sweep_result().ok_or("a done sweep has no result")?;
                    (sweep_json(&result).render(), sweep)
                } else {
                    (report_json(&job.report(Duration::ZERO)?).render(), fleet)
                };
                if got != *want {
                    return Err(format!(
                        "job {name:?} is done with other bytes than the batch run"
                    ));
                }
                model.verified = true;
            }
        }
        Ok(())
    }

    /// `checkpoint`: succeeds exactly for built jobs that have not failed
    /// and for resumed jobs not yet built (their own bytes); the bytes
    /// are kept for later resumes.
    fn checkpoint(&mut self, name: &str) -> Checked {
        let (Some(model), Some(job)) = (self.jobs.get(name), self.table.get(name)) else {
            return Ok(());
        };
        let snap = job.snapshot();
        let bytes = job.durable_bytes(Duration::ZERO);
        let expected = snap.state != JobState::Failed && (built(&snap) || model.resumed);
        if bytes.is_ok() != expected {
            return Err(format!(
                "checkpoint of {name:?} ({:?}, slices {}) answered {:?}",
                snap.state,
                snap.slices,
                bytes.map(|b| b.len())
            ));
        }
        if let Ok(bytes) = bytes {
            let magic: &[u8] = if model.sweep {
                &crate::sweep::MAGIC
            } else {
                b"CHR1"
            };
            if !bytes.starts_with(magic) {
                return Err(format!("checkpoint of {name:?} has the wrong magic"));
            }
            let at = if built(&snap) {
                Pos::of(&snap)
            } else {
                model.start
            };
            self.ckpts.push(Ckpt {
                bytes,
                sweep: model.sweep,
                at,
            });
        }
        Ok(())
    }

    fn submit(&mut self, name: &str, spec: String, model: Model) -> Checked {
        let spec = Json::parse(&spec).map_err(|e| format!("spec literal: {e}"))?;
        let accepted = self.table.submit(name, &spec);
        let free = !self.jobs.contains_key(name);
        if accepted.is_ok() != free {
            return Err(format!(
                "submit {name:?} answered {:?}",
                accepted.map(|_| ())
            ));
        }
        if free {
            self.jobs.insert(name.to_string(), model);
        }
        Ok(())
    }

    fn snapshot(&mut self) -> Checked {
        let dir = StateDir::open(&self.dir).map_err(|e| e.to_string())?;
        state::snapshot(&self.table, &dir, &BTreeMap::new()).map_err(|e| e.to_string())?;
        let entries = match dir.read_manifest() {
            Ok(Some(Ok(entries))) => entries,
            other => return Err(format!("manifest unreadable: {other:?}")),
        };
        let saved = self.jobs.clone();
        for entry in &entries {
            let (Some(model), Some(job)) = (saved.get(&entry.name), self.table.get(&entry.name))
            else {
                return Err(format!("manifest names unknown job {:?}", entry.name));
            };
            let snap = job.snapshot();
            let anchor = if model.sweep {
                entry.params.pause_at_row.map(|row| row as u64)
            } else {
                entry.params.pause_at_s
            };
            if entry.state != snap.state || anchor != model.anchor {
                return Err(format!(
                    "manifest entry {:?} records {:?} with anchor {anchor:?}; the job is {:?}, model {model:?}",
                    entry.name, entry.state, snap.state
                ));
            }
        }
        if entries.len() != saved.len() {
            return Err(format!(
                "manifest holds {} of {} jobs",
                entries.len(),
                saved.len()
            ));
        }
        self.saved = Some(saved);
        Ok(())
    }

    /// A fresh daemon booted from the last snapshot (an empty one if none
    /// was taken): the model rolls back to that snapshot.
    fn reboot(&mut self) -> Checked {
        let table = JobTable::threadless(quiet_obs());
        let dir = StateDir::open(&self.dir).map_err(|e| e.to_string())?;
        crate::daemon::boot_from_state(&table, &dir, &quiet_obs(), None);
        self.table = table;
        self.jobs = self.saved.clone().unwrap_or_default();
        for model in self.jobs.values_mut() {
            model.verified = false;
        }
        Ok(())
    }

    fn step(&mut self, cmd: &Cmd, names: usize) -> Checked {
        let name = |job: usize| NAMES[job % names];
        match *cmd {
            Cmd::SubmitFleet {
                job,
                slice_s,
                pause_at_s,
            } => {
                let pause = pause_at_s
                    .map(|p| format!(r#","pause_at_s":{p}"#))
                    .unwrap_or_default();
                let spec = format!(
                    r#"{{"kind":"e16-fleet","seed":{SEED},"clients":{FLEET_CLIENTS},"resolvers":{RESOLVERS},"poisoned_resolvers":1,"slice_s":{slice_s}{pause}}}"#
                );
                self.submit(
                    name(job),
                    spec,
                    Model::new(false, pause_at_s, Pos::ZERO, false),
                )?;
            }
            Cmd::SubmitSweep { job, pause_at_row } => {
                let pause = pause_at_row
                    .map(|p| format!(r#","pause_at_row":{p}"#))
                    .unwrap_or_default();
                let spec = format!(
                    r#"{{"kind":"e16-sweep","seed":{SEED},"clients":{SWEEP_CLIENTS},"resolvers":{RESOLVERS},"slice_s":2000{pause}}}"#
                );
                let anchor = pause_at_row.map(|row| row as u64);
                self.submit(name(job), spec, Model::new(true, anchor, Pos::ZERO, false))?;
            }
            Cmd::Run(turns) => {
                for _ in 0..turns {
                    if !self.table.run_one() {
                        break;
                    }
                    self.check_all()?;
                }
            }
            Cmd::Unpause(job) => {
                let name = name(job);
                if let (Some(model), Some(job)) = (self.jobs.get_mut(name), self.table.get(name)) {
                    let before = job.snapshot().state;
                    self.table.unpause(&job);
                    model.anchor = None;
                    let after = job.snapshot().state;
                    if before == JobState::Paused && after != JobState::Running {
                        return Err(format!("unpause of paused {name:?} left it {after:?}"));
                    }
                }
            }
            Cmd::Stop(job) => {
                let name = name(job);
                if let (Some(model), Some(job)) = (self.jobs.get_mut(name), self.table.get(name)) {
                    if !job.snapshot().state.is_terminal() {
                        model.stopped = true;
                    }
                    job.request_stop();
                }
            }
            Cmd::Checkpoint(job) => self.checkpoint(name(job))?,
            Cmd::Forget(job) => {
                let name = name(job);
                let terminal = self
                    .table
                    .get(name)
                    .map(|job| job.snapshot().state.is_terminal());
                let forgotten = self.table.forget(name);
                if forgotten.is_ok() != (terminal == Some(true)) {
                    return Err(format!("forget {name:?} answered {forgotten:?}"));
                }
                if forgotten.is_ok() {
                    self.jobs.remove(name);
                }
            }
            Cmd::Resume {
                job,
                from,
                pause_at_s,
                pause_at_row,
            } => {
                if self.ckpts.is_empty() {
                    return Ok(());
                }
                let ckpt = &self.ckpts[from % self.ckpts.len()];
                let params = Params {
                    threads: 1,
                    slice_s: 1_000,
                    pause_at_s,
                    pause_at_row,
                };
                // The first free name from `job` on, so resumes do not
                // mostly bounce off taken names (all taken: the refusal).
                let name = (job..job + names)
                    .map(name)
                    .find(|name| !self.jobs.contains_key(*name))
                    .unwrap_or(name(job));
                let accepted = self.table.resume(name, ckpt.bytes.clone(), params);
                let free = !self.jobs.contains_key(name);
                if accepted.is_ok() != free {
                    return Err(format!(
                        "resume {name:?} answered {:?}",
                        accepted.map(|_| ())
                    ));
                }
                if let Ok(job) = accepted {
                    if job.is_sweep() != ckpt.sweep {
                        return Err(format!("resumed {name:?} has the wrong kind {}", job.kind));
                    }
                    let anchor = if ckpt.sweep {
                        pause_at_row.map(|row| row as u64)
                    } else {
                        pause_at_s
                    };
                    self.jobs.insert(
                        name.to_string(),
                        Model::new(ckpt.sweep, anchor, ckpt.at, true),
                    );
                }
            }
            Cmd::Snapshot => self.snapshot()?,
            Cmd::Reboot => self.reboot()?,
        }
        self.check_all()
    }

    /// Unpause every paused job and run turns until the queue is empty,
    /// until nothing pauses again. Then every checkpoint taken in the
    /// case is resumed under a fresh name and run out too, so each
    /// durable read is shown to finish with the batch bytes. At the end
    /// every job is terminal, and every built job that has not failed
    /// still checkpoints.
    fn drain(&mut self) -> Checked {
        loop {
            while self.table.run_one() {
                self.check_all()?;
            }
            let mut paused = false;
            for (name, model) in &mut self.jobs {
                let job = self.table.get(name).ok_or("a modelled job vanished")?;
                if job.snapshot().state == JobState::Paused {
                    self.table.unpause(&job);
                    model.anchor = None;
                    paused = true;
                }
            }
            if !paused {
                break;
            }
        }
        let params = Params {
            threads: 1,
            slice_s: 1_000,
            pause_at_s: None,
            pause_at_row: None,
        };
        for (i, ckpt) in self.ckpts.iter().enumerate() {
            let name = format!("ckpt-{i}");
            self.table.resume(&name, ckpt.bytes.clone(), params)?;
            let model = Model::new(ckpt.sweep, None, ckpt.at, true);
            self.jobs.insert(name, model);
        }
        while self.table.run_one() {
            self.check_all()?;
        }
        for job in self.table.list() {
            let (name, state) = (&job.name, job.snapshot().state);
            if !state.is_terminal() {
                return Err(format!("job {name:?} is {state:?} after the drain"));
            }
            self.checkpoint(name)?;
        }
        Ok(())
    }
}

impl Drop for World {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

proptest! {
    #[test]
    fn command_interleavings_keep_the_reference_model(
        names in 1usize..=NAMES.len(),
        cmds in vec(cmd(), 1..=40),
    ) {
        let mut world = World::new();
        let mut trace = Vec::new();
        for cmd in &cmds {
            trace.push(cmd);
            if let Err(why) = world.step(cmd, names) {
                return Err(TestCaseError::fail(format!("{why}\nsteps ({names} names): {trace:?}")));
            }
        }
        if let Err(why) = world.drain() {
            return Err(TestCaseError::fail(format!("drain: {why}\nsteps ({names} names): {trace:?}")));
        }
    }
}
