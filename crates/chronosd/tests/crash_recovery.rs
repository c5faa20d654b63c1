//! The durability acceptance tests: a daemon that dies with no chance to
//! clean up — simulated by copying the state dir as of the last snapshot
//! and rebooting from the copy, exactly the bytes a `kill -9` would have
//! left — finishes its jobs **byte-identically** to the uninterrupted
//! batch run, for both fleet jobs (`CHR1` state) and sweep jobs (`SWP1`
//! cursors), across *different* thread counts on the two legs. A third
//! test covers the clean-shutdown path: jobs still running when the
//! daemon exits are recorded as running and auto-resume on the next
//! boot with no operator involvement. A fourth pins that a resumed job's
//! checkpoint bytes live in its `jobs/` file, never in the manifest. A
//! fifth pins that an `unpause` sent before a job reaches its pause
//! anchor survives a reboot: the rebooted job runs through the anchor. A
//! sixth pins that a job stopped before any worker built it comes back
//! `stopped`, answering `report` and `checkpoint` as it did before.

use std::path::{Path, PathBuf};
use std::time::Duration;

use chronos_pitfalls::experiments::e16_config;
use chronosd::render::{report_json, sweep_json};
use chronosd::Json;
use chronosd::{Client, Daemon, DaemonConfig, DaemonObs, StateDir};
use fleet::Fleet;
use netsim::time::SimTime;

const SEED: u64 = 7;
const CLIENTS: usize = 24;
const RESOLVERS: usize = 2;
const POISONED: usize = 1;

fn scratch(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("chronosd-crash-{}-{name}", std::process::id()));
    path
}

/// Boot a daemon over `state_dir` and hand back a handshaken client.
fn boot(
    socket: &PathBuf,
    state_dir: &Path,
    resume_threads: Option<usize>,
) -> (std::thread::JoinHandle<()>, Client) {
    let config = DaemonConfig {
        state_dir: Some(state_dir.to_path_buf()),
        workers: Some(2),
        resume_threads,
        ..DaemonConfig::default()
    };
    let daemon =
        Daemon::bind_with_config(socket, DaemonObs::from_env(), config).expect("bind state daemon");
    let handle = std::thread::spawn(move || daemon.serve().expect("serve"));
    let mut client = Client::connect_with_retry(socket, Duration::from_secs(10)).expect("connect");
    client.handshake().expect("handshake");
    (handle, client)
}

/// Copy a state dir recursively: the frozen image of what a `kill -9`
/// at this instant would leave on disk.
fn freeze(src: &Path, dst: &Path) {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst).expect("create freeze root");
    for entry in std::fs::read_dir(src).expect("read state dir") {
        let entry = entry.expect("dir entry");
        let to = dst.join(entry.file_name());
        if entry.file_type().expect("file type").is_dir() {
            freeze(&entry.path(), &to);
        } else {
            std::fs::copy(entry.path(), &to).expect("copy state file");
        }
    }
}

fn submit(client: &mut Client, name: &str, spec: &str) {
    let spec = Json::parse(spec).expect("spec literal");
    client
        .request(
            "submit",
            vec![
                ("name".into(), Json::str(name)),
                ("spec".into(), spec.clone()),
            ],
        )
        .expect("submit");
}

fn job_panics_total(client: &mut Client) -> f64 {
    let scraped = client.request("metrics", Vec::new()).expect("metrics");
    let text = scraped
        .get("metrics")
        .and_then(Json::as_str)
        .expect("metrics payload");
    obs::expo::parse(text)
        .expect("exposition parses")
        .into_iter()
        .find(|s| s.name == "chronosd_job_panics_total")
        .map(|s| s.value)
        .unwrap_or(0.0)
}

#[test]
fn fleet_job_survives_a_simulated_crash_byte_identically() {
    let socket_a = scratch("fleet-a.sock");
    let socket_b = scratch("fleet-b.sock");
    let dir = scratch("fleet-state");
    let frozen = scratch("fleet-frozen");
    let _ = std::fs::remove_dir_all(&dir);

    // Leg one: single-threaded, pause at a deterministic anchor, force a
    // snapshot, then freeze the directory — the crash image.
    let (first, mut client) = boot(&socket_a, &dir, None);
    submit(
        &mut client,
        "crashy",
        &format!(
            r#"{{"kind":"e16-fleet","seed":{SEED},"clients":{CLIENTS},"resolvers":{RESOLVERS},"poisoned_resolvers":{POISONED},"threads":1,"slice_s":500,"pause_at_s":1500}}"#
        ),
    );
    client
        .wait_for_state("crashy", "paused", Duration::from_secs(120))
        .expect("job pauses at its anchor");
    let synced = client.request("sync", Vec::new()).expect("sync");
    assert!(synced.get("jobs").and_then(Json::as_u64).unwrap_or(0) >= 1);
    freeze(&dir, &frozen);
    assert_eq!(job_panics_total(&mut client), 0.0, "happy path panicked");
    client.request("shutdown", Vec::new()).expect("shutdown");
    first.join().expect("first daemon exits");

    // Leg two: reboot from the crash image with a *different* thread
    // count; the job comes back paused at the same anchor.
    let (second, mut client) = boot(&socket_b, &frozen, Some(2));
    let status = client
        .request("status", vec![("name".into(), Json::str("crashy"))])
        .expect("adopted job answers status");
    assert_eq!(
        status.get("state").and_then(Json::as_str),
        Some("paused"),
        "rebooted job state: {}",
        status.render()
    );
    client
        .request("unpause", vec![("name".into(), Json::str("crashy"))])
        .expect("unpause");
    client
        .wait_for_state("crashy", "done", Duration::from_secs(300))
        .expect("rebooted job finishes");
    let done = client
        .request("report", vec![("name".into(), Json::str("crashy"))])
        .expect("final report");
    let daemon_line = done.get("report").expect("report payload").render();
    assert_eq!(job_panics_total(&mut client), 0.0, "recovery path panicked");
    client.request("shutdown", Vec::new()).expect("shutdown");
    second.join().expect("second daemon exits");

    // The batch truth, rendered through the same canonical writer.
    let sweep = chronos_pitfalls::experiments::run_e16(SEED, CLIENTS, RESOLVERS, 2);
    let row = sweep
        .rows
        .iter()
        .find(|row| row.axis("poisoned_resolvers") == POISONED as f64)
        .expect("sweep row for k");
    assert_eq!(daemon_line, report_json(&row.report).render());

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&frozen);
}

#[test]
fn sweep_job_survives_a_simulated_crash_byte_identically() {
    let socket_a = scratch("sweep-a.sock");
    let socket_b = scratch("sweep-b.sock");
    let dir = scratch("sweep-state");
    let frozen = scratch("sweep-frozen");
    let _ = std::fs::remove_dir_all(&dir);

    // Pause mid-grid (after row 1 of 3), snapshot the SWP1 cursor,
    // freeze, crash.
    let (first, mut client) = boot(&socket_a, &dir, None);
    submit(
        &mut client,
        "grid",
        &format!(
            r#"{{"kind":"e16-sweep","seed":{SEED},"clients":16,"resolvers":{RESOLVERS},"threads":1,"slice_s":900,"pause_at_row":1}}"#
        ),
    );
    client
        .wait_for_state("grid", "paused", Duration::from_secs(120))
        .expect("sweep pauses at its row anchor");
    client.request("sync", Vec::new()).expect("sync");
    freeze(&dir, &frozen);
    client.request("shutdown", Vec::new()).expect("shutdown");
    first.join().expect("first daemon exits");

    // Reboot from the frozen cursor on more threads; a completed row's
    // report is already servable before the grid finishes.
    let (second, mut client) = boot(&socket_b, &frozen, Some(2));
    let early = client
        .request(
            "report",
            vec![
                ("name".into(), Json::str("grid")),
                ("row".into(), Json::u64(0)),
            ],
        )
        .expect("completed row is servable after reboot");
    assert!(early.get("report").is_some(), "row report payload");
    client
        .request("unpause", vec![("name".into(), Json::str("grid"))])
        .expect("unpause");
    client
        .wait_for_state("grid", "done", Duration::from_secs(600))
        .expect("rebooted sweep finishes");
    let done = client
        .request("report", vec![("name".into(), Json::str("grid"))])
        .expect("final sweep report");
    let daemon_line = done.get("sweep").expect("sweep payload").render();
    client.request("shutdown", Vec::new()).expect("shutdown");
    second.join().expect("second daemon exits");

    // The uninterrupted batch sweep renders byte-identically (the wire
    // format deliberately omits derived series/stats).
    let batch = chronos_pitfalls::experiments::run_e16(SEED, 16, RESOLVERS, 1);
    assert_eq!(daemon_line, sweep_json(&batch).render());

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&frozen);
}

#[test]
fn resumed_checkpoints_live_in_job_files_not_the_manifest() {
    let socket_a = scratch("lean-a.sock");
    let socket_b = scratch("lean-b.sock");
    let dir = scratch("lean-state");
    let ckpt = scratch("lean.ckpt");
    let _ = std::fs::remove_dir_all(&dir);

    // A mid-run checkpoint of a 2000-client fleet: a few hundred KB of
    // CHR1 that must never be copied into the JSON manifest.
    let clients = 2_000;
    let config = e16_config(SEED, clients, RESOLVERS, POISONED);
    let mut fleet = Fleet::new(config.clone());
    fleet.run_until(SimTime::from_secs(1_500));
    std::fs::write(&ckpt, fleet.checkpoint()).expect("write checkpoint");

    let (first, mut client) = boot(&socket_a, &dir, None);
    client
        .request(
            "resume",
            vec![
                ("name".into(), Json::str("lean")),
                ("path".into(), Json::str(ckpt.display().to_string())),
                ("pause_at_s".into(), Json::u64(3_000)),
            ],
        )
        .expect("resume");
    client
        .wait_for_state("lean", "paused", Duration::from_secs(300))
        .expect("resumed job pauses at its anchor");
    client.request("sync", Vec::new()).expect("sync");
    let manifest = std::fs::metadata(dir.join("manifest.chrm")).expect("manifest written");
    assert!(
        manifest.len() < 4_096,
        "manifest holds {} bytes: checkpoint bytes leaked into it",
        manifest.len()
    );
    client.request("shutdown", Vec::new()).expect("shutdown");
    first.join().expect("first daemon exits");

    // The job file alone carries the state: reboot, finish, compare.
    let (second, mut client) = boot(&socket_b, &dir, Some(2));
    let status = client
        .request("status", vec![("name".into(), Json::str("lean"))])
        .expect("adopted job answers status");
    assert_eq!(status.get("kind").and_then(Json::as_str), Some("resume"));
    client
        .request("unpause", vec![("name".into(), Json::str("lean"))])
        .expect("unpause");
    client
        .wait_for_state("lean", "done", Duration::from_secs(300))
        .expect("rebooted job finishes");
    let done = client
        .request("report", vec![("name".into(), Json::str("lean"))])
        .expect("final report");
    let daemon_line = done.get("report").expect("report payload").render();
    client.request("shutdown", Vec::new()).expect("shutdown");
    second.join().expect("second daemon exits");
    assert_eq!(daemon_line, report_json(&Fleet::new(config).run()).render());

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&ckpt);
}

#[test]
fn running_jobs_auto_resume_after_a_clean_shutdown() {
    let socket_a = scratch("auto-a.sock");
    let socket_b = scratch("auto-b.sock");
    let dir = scratch("auto-state");
    let _ = std::fs::remove_dir_all(&dir);

    // Shut the daemon down while the job is still mid-run: the final
    // snapshot records it as `running`, so the next boot picks it up
    // with no operator involvement. The fleet is sized so the run spans
    // many slices of real wall time; if it somehow finishes before the
    // shutdown lands, the test degrades to "done jobs survive reboots"
    // rather than failing spuriously.
    let clients = 400;
    let (first, mut client) = boot(&socket_a, &dir, None);
    submit(
        &mut client,
        "longhaul",
        &format!(
            r#"{{"kind":"e16-fleet","seed":{SEED},"clients":{clients},"resolvers":{RESOLVERS},"poisoned_resolvers":{POISONED},"threads":1,"slice_s":60}}"#
        ),
    );
    // Let it make some progress first (at least one slice).
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        let status = client
            .request("status", vec![("name".into(), Json::str("longhaul"))])
            .expect("status");
        let slices = status.get("slices").and_then(Json::as_u64).unwrap_or(0);
        let state = status.get("state").and_then(Json::as_str).unwrap_or("");
        if slices >= 1 || state == "done" {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "job never progressed");
        std::thread::sleep(Duration::from_millis(10));
    }
    client.request("shutdown", Vec::new()).expect("shutdown");
    first.join().expect("first daemon exits");

    let (second, mut client) = boot(&socket_b, &dir, Some(2));
    // No unpause, no resubmit: the job is already back in the pool.
    client
        .wait_for_state("longhaul", "done", Duration::from_secs(300))
        .expect("auto-resumed job finishes");
    let done = client
        .request("report", vec![("name".into(), Json::str("longhaul"))])
        .expect("final report");
    let daemon_line = done.get("report").expect("report payload").render();
    client.request("shutdown", Vec::new()).expect("shutdown");
    second.join().expect("second daemon exits");

    let sweep = chronos_pitfalls::experiments::run_e16(SEED, clients, RESOLVERS, 2);
    let row = sweep
        .rows
        .iter()
        .find(|row| row.axis("poisoned_resolvers") == POISONED as f64)
        .expect("sweep row for k");
    assert_eq!(daemon_line, report_json(&row.report).render());

    let _ = std::fs::remove_dir_all(&dir);
}

/// Poll `status` until the job rests: done, paused, stopped or failed.
fn settle(client: &mut Client, name: &str, timeout: Duration) -> Json {
    let deadline = std::time::Instant::now() + timeout;
    loop {
        let status = client
            .request("status", vec![("name".into(), Json::str(name))])
            .expect("status");
        let state = status.get("state").and_then(Json::as_str).unwrap_or("");
        if matches!(state, "done" | "paused" | "stopped" | "failed") {
            return status;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "job {name} never came to rest: {}",
            status.render()
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

#[test]
fn an_early_unpause_survives_a_reboot() {
    let socket_a = scratch("early-a.sock");
    let socket_b = scratch("early-b.sock");
    let dir = scratch("early-state");
    let frozen = scratch("early-frozen");
    let _ = std::fs::remove_dir_all(&dir);

    // One worker and 10 s slices: the job is nowhere near its 5000 s
    // anchor when the unpause cancels it. The snapshot right after must
    // record the cancellation, whether or not a worker has built the job.
    let config = DaemonConfig {
        state_dir: Some(dir.clone()),
        workers: Some(1),
        ..DaemonConfig::default()
    };
    let daemon = Daemon::bind_with_config(&socket_a, DaemonObs::from_env(), config)
        .expect("bind state daemon");
    let first = std::thread::spawn(move || daemon.serve().expect("serve"));
    let mut client =
        Client::connect_with_retry(&socket_a, Duration::from_secs(10)).expect("connect");
    submit(
        &mut client,
        "early",
        &format!(
            r#"{{"kind":"e16-fleet","seed":{SEED},"clients":3000,"resolvers":{RESOLVERS},"poisoned_resolvers":{POISONED},"threads":1,"slice_s":10,"pause_at_s":5000}}"#
        ),
    );
    client
        .request("unpause", vec![("name".into(), Json::str("early"))])
        .expect("unpause");
    client.request("sync", Vec::new()).expect("sync");
    freeze(&dir, &frozen);
    let entries = StateDir::open(&frozen)
        .expect("open the crash image")
        .read_manifest()
        .expect("manifest readable")
        .expect("manifest written")
        .expect("manifest decodes");
    assert_eq!(entries.len(), 1);
    assert_eq!(
        entries[0].params.pause_at_s, None,
        "the snapshot kept the anchor the unpause cancelled"
    );

    // Leg one runs on through the cancelled anchor to the horizon.
    let live = settle(&mut client, "early", Duration::from_secs(600));
    assert_eq!(
        live.get("state").and_then(Json::as_str),
        Some("done"),
        "live job: {}",
        live.render()
    );
    let live_report = client
        .request("report", vec![("name".into(), Json::str("early"))])
        .expect("live report");
    client.request("shutdown", Vec::new()).expect("shutdown");
    first.join().expect("first daemon exits");

    // Leg two: the crash image as of the sync. The rebooted job must not
    // pause at the anchor the operator cancelled before the crash.
    let (second, mut client) = boot(&socket_b, &frozen, None);
    let rebooted = settle(&mut client, "early", Duration::from_secs(600));
    assert_eq!(
        rebooted.get("state").and_then(Json::as_str),
        Some("done"),
        "rebooted job: {}",
        rebooted.render()
    );
    let rebooted_report = client
        .request("report", vec![("name".into(), Json::str("early"))])
        .expect("rebooted report");
    client.request("shutdown", Vec::new()).expect("shutdown");
    second.join().expect("second daemon exits");
    assert_eq!(
        rebooted_report.get("report").map(Json::render),
        live_report.get("report").map(Json::render),
        "the rebooted job finished with other bytes"
    );

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&frozen);
}

/// A job's status state and its `report` and `checkpoint` answers.
fn answers(client: &mut Client, name: &str, checkpoint_path: &Path) -> (String, String, String) {
    let job = || vec![("name".into(), Json::str(name))];
    let status = client.request("status", job()).expect("status");
    let state = status.get("state").and_then(Json::as_str).unwrap_or("");
    let answer = |reply: Result<Json, chronosd::ClientError>| match reply {
        Ok(reply) => reply.render(),
        Err(error) => error.to_string(),
    };
    let report = answer(client.request("report", job()));
    let mut checkpoint = job();
    checkpoint.push(("path".into(), Json::str(checkpoint_path.to_string_lossy())));
    let checkpoint = answer(client.request("checkpoint", checkpoint));
    (state.to_string(), report, checkpoint)
}

#[test]
fn a_stopped_unbuilt_job_survives_a_reboot_as_stopped() {
    let socket_a = scratch("unbuilt-a.sock");
    let socket_b = scratch("unbuilt-b.sock");
    let dir = scratch("unbuilt-state");
    let frozen = scratch("unbuilt-frozen");
    let checkpoint_path = scratch("unbuilt.ckpt");
    let _ = std::fs::remove_dir_all(&dir);

    // The one worker takes `busy` first and builds its 20 000 clients, so
    // `waiting` queues behind it and is stopped before any worker builds
    // it: it holds no simulation bytes.
    let config = DaemonConfig {
        state_dir: Some(dir.clone()),
        workers: Some(1),
        ..DaemonConfig::default()
    };
    let daemon = Daemon::bind_with_config(&socket_a, DaemonObs::from_env(), config)
        .expect("bind state daemon");
    let first = std::thread::spawn(move || daemon.serve().expect("serve"));
    let mut client =
        Client::connect_with_retry(&socket_a, Duration::from_secs(10)).expect("connect");
    let spec = |clients: usize| {
        format!(
            r#"{{"kind":"e16-fleet","seed":{SEED},"clients":{clients},"resolvers":{RESOLVERS},"poisoned_resolvers":{POISONED},"threads":1,"slice_s":100000}}"#
        )
    };
    submit(&mut client, "busy", &spec(20_000));
    submit(&mut client, "waiting", &spec(CLIENTS));
    client
        .request("stop", vec![("name".into(), Json::str("waiting"))])
        .expect("stop");
    let live = answers(&mut client, "waiting", &checkpoint_path);
    assert_eq!(live.0, "stopped", "live: {live:?}");
    assert!(
        live.1.contains("holds no fleet state") && live.2.contains("not been built"),
        "live: {live:?}"
    );
    client
        .request("stop", vec![("name".into(), Json::str("busy"))])
        .expect("stop");
    client.request("sync", Vec::new()).expect("sync");
    freeze(&dir, &frozen);
    client.request("shutdown", Vec::new()).expect("shutdown");
    first.join().expect("first daemon exits");
    let entries = StateDir::open(&frozen)
        .expect("open the crash image")
        .read_manifest()
        .expect("manifest readable")
        .expect("manifest written")
        .expect("manifest decodes");
    let file = |name: &str| {
        let entry = entries.iter().find(|e| e.name == name);
        entry.expect("the manifest records every job").file.clone()
    };
    assert!(file("busy").is_some(), "the worker built `busy` first");
    assert_eq!(file("waiting"), None, "an unbuilt job has no state bytes");

    let (second, mut client) = boot(&socket_b, &frozen, None);
    let rebooted = answers(&mut client, "waiting", &checkpoint_path);
    client.request("shutdown", Vec::new()).expect("shutdown");
    second.join().expect("second daemon exits");
    assert_eq!(
        rebooted, live,
        "the reboot changed what the stopped job answers"
    );

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&frozen);
}
