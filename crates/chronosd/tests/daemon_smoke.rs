//! End-to-end smoke over a real Unix-domain socket, mirroring the CI
//! job: boot a daemon, submit a small E16 fleet, observe it live
//! mid-run, pause, checkpoint to a file, shut the daemon down, boot a
//! **fresh** daemon, resume from the file, and assert the final report
//! is byte-identical to the batch `run_e16` output for the same
//! parameters — and the same loop for a sweep, whose socket checkpoint
//! is its `SWP1` cursor.

use std::path::PathBuf;
use std::time::Duration;

use chronosd::render::{report_json, sweep_json};
use chronosd::Json;
use chronosd::{Client, Daemon};

const SEED: u64 = 7;
const CLIENTS: usize = 24;
const RESOLVERS: usize = 2;
const POISONED: usize = 1;

fn scratch(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("chronosd-smoke-{}-{name}", std::process::id()));
    path
}

/// Boot a daemon on `socket` on a background thread and wait for it to
/// accept connections.
fn boot(socket: &PathBuf) -> std::thread::JoinHandle<()> {
    let daemon = Daemon::bind(socket).expect("bind scratch socket");
    let handle = std::thread::spawn(move || daemon.serve().expect("serve"));
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while Client::connect(socket).is_err() {
        assert!(std::time::Instant::now() < deadline, "daemon never came up");
        std::thread::sleep(Duration::from_millis(10));
    }
    handle
}

#[test]
fn checkpoint_resume_across_daemon_processes_matches_batch() {
    let socket = scratch("ctl.sock");
    let ckpt = scratch("job.ckpt");

    // First daemon: submit, observe mid-run, pause, checkpoint, shut down.
    let first = boot(&socket);
    let mut client = Client::connect(&socket).expect("connect");
    let pong = client.request("ping", Vec::new()).expect("ping");
    assert_eq!(pong.get("service").and_then(Json::as_str), Some("chronosd"));

    let spec = Json::parse(&format!(
        r#"{{"kind":"e16-fleet","seed":{SEED},"clients":{CLIENTS},"resolvers":{RESOLVERS},"poisoned_resolvers":{POISONED},"slice_s":500,"pause_at_s":1500}}"#
    ))
    .expect("spec literal");
    let accepted = client
        .request(
            "submit",
            vec![("name".into(), Json::str("smoke")), ("spec".into(), spec)],
        )
        .expect("submit");
    assert_eq!(accepted.get("state").and_then(Json::as_str), Some("queued"));

    // Live observability: stream a couple of snapshots while it steps.
    let mut watcher = Client::connect(&socket).expect("watch connection");
    let mut event = watcher
        .request(
            "watch",
            vec![
                ("name".into(), Json::str("smoke")),
                ("count".into(), Json::u64(2)),
            ],
        )
        .expect("watch");
    let mut saw_progress = false;
    loop {
        if let Some(progress) = event.get("progress") {
            if let Some(now_s) = progress.get("now_s").and_then(Json::as_f64) {
                assert!(now_s <= 1_500.0, "paused at 1500 s, watched {now_s}");
                saw_progress = true;
            }
        }
        if event.get("event").and_then(Json::as_str) == Some("end") {
            break;
        }
        event = watcher.read_response().expect("watch stream");
    }
    assert!(saw_progress, "watch never surfaced a progress snapshot");

    let paused = client
        .wait_for_state("smoke", "paused", Duration::from_secs(120))
        .expect("job pauses at 1500 s");
    let now_s = paused
        .get("progress")
        .and_then(|p| p.get("now_s"))
        .and_then(Json::as_f64)
        .expect("paused progress");
    assert_eq!(now_s, 1_500.0, "pause boundary");

    // Scrape the metric registry over the socket while the job is
    // parked: the exposition must satisfy our own parser and carry the
    // per-job gauges plus the daemon-wide counters.
    let scraped = client.request("metrics", Vec::new()).expect("metrics");
    let text = scraped
        .get("metrics")
        .and_then(Json::as_str)
        .expect("metrics payload is a string");
    let samples = obs::expo::parse(text).expect("exposition parses");
    assert!(!samples.is_empty(), "exposition carries samples");
    for needle in [
        "chronosd_job_events_per_sec{job=\"smoke\"}",
        "chronosd_job_slice_wall_seconds{job=\"smoke\"}",
        "chronosd_job_sim_seconds_per_wall_second{job=\"smoke\"}",
        // The watch stream above ended, so the subscriber gauge is back
        // to zero but stays registered.
        "chronosd_job_watch_subscribers{job=\"smoke\"} 0",
        "chronosd_commands_total{cmd=\"submit\"} 1",
        "chronosd_connections_total",
        "# TYPE fleet_stage_seconds histogram",
    ] {
        assert!(text.contains(needle), "exposition misses {needle}:\n{text}");
    }
    // The engine side-channel observed real work by now.
    let events = samples
        .iter()
        .find(|s| s.name == "fleet_events_total")
        .expect("fleet_events_total sample");
    assert!(events.value > 0.0, "stepped slices counted no events");

    // A mid-run report is readable over the socket while the job is parked.
    let mid = client
        .request("report", vec![("name".into(), Json::str("smoke"))])
        .expect("mid-run report");
    let mid_end = mid
        .get("report")
        .and_then(|r| r.get("end_s"))
        .and_then(Json::as_f64)
        .expect("report end");
    assert_eq!(mid_end, 1_500.0, "mid-run aggregate at the pause point");

    client
        .request(
            "checkpoint",
            vec![
                ("name".into(), Json::str("smoke")),
                ("path".into(), Json::str(ckpt.display().to_string())),
            ],
        )
        .expect("checkpoint to file");
    client.request("shutdown", Vec::new()).expect("shutdown");
    first.join().expect("first daemon exits");

    // Fresh daemon process (new Daemon, new JobTable): resume and finish.
    let second = boot(&socket);
    let mut client = Client::connect(&socket).expect("reconnect");
    let resumed = client
        .request(
            "resume",
            vec![
                ("name".into(), Json::str("smoke-resumed")),
                ("path".into(), Json::str(ckpt.display().to_string())),
                ("threads".into(), Json::u64(2)),
                ("slice_s".into(), Json::u64(500)),
            ],
        )
        .expect("resume from checkpoint file");
    assert_eq!(resumed.get("state").and_then(Json::as_str), Some("queued"));
    client
        .wait_for_state("smoke-resumed", "done", Duration::from_secs(300))
        .expect("resumed job finishes");
    let done = client
        .request("report", vec![("name".into(), Json::str("smoke-resumed"))])
        .expect("final report");
    let daemon_line = done.get("report").expect("report payload").render();

    client.request("shutdown", Vec::new()).expect("shutdown");
    second.join().expect("second daemon exits");
    let _ = std::fs::remove_file(&ckpt);

    // Batch side: the same row out of the full E16 sweep, rendered
    // through the same canonical writer — byte-identical.
    let sweep = chronos_pitfalls::experiments::run_e16(SEED, CLIENTS, RESOLVERS, 2);
    let row = sweep
        .rows
        .iter()
        .find(|row| row.axis("poisoned_resolvers") == POISONED as f64)
        .expect("sweep row for k");
    assert_eq!(daemon_line, report_json(&row.report).render());
}

#[test]
fn socket_checkpoint_of_a_paused_sweep_resumes_the_whole_grid() {
    let socket = scratch("sweep.sock");
    let cursor = scratch("grid.swp");
    let handle = boot(&socket);
    let mut client = Client::connect(&socket).expect("connect");
    let spec = Json::parse(&format!(
        r#"{{"kind":"e16-sweep","seed":{SEED},"clients":16,"resolvers":{RESOLVERS},"slice_s":900,"pause_at_row":1}}"#
    ))
    .expect("spec literal");
    let accepted = client
        .request(
            "submit",
            vec![("name".into(), Json::str("grid")), ("spec".into(), spec)],
        )
        .expect("submit");
    assert_eq!(accepted.get("state").and_then(Json::as_str), Some("queued"));
    client
        .wait_for_state("grid", "paused", Duration::from_secs(120))
        .expect("sweep pauses at its row anchor");
    let path = cursor.display().to_string();
    client
        .request(
            "checkpoint",
            vec![
                ("name".into(), Json::str("grid")),
                ("path".into(), Json::str(path.as_str())),
            ],
        )
        .expect("checkpoint the sweep");
    // The file is the whole sweep's cursor, not the current row's fleet.
    let bytes = std::fs::read(&cursor).expect("read the checkpoint file");
    assert!(bytes.starts_with(b"SWP1"), "a sweep checkpoints as SWP1");

    let resumed = client
        .request(
            "resume",
            vec![
                ("name".into(), Json::str("grid-resumed")),
                ("path".into(), Json::str(path.as_str())),
            ],
        )
        .expect("resume the cursor");
    assert_eq!(
        resumed.get("kind").and_then(Json::as_str),
        Some("resume-sweep")
    );
    assert_eq!(resumed.get("state").and_then(Json::as_str), Some("queued"));
    client
        .wait_for_state("grid-resumed", "done", Duration::from_secs(300))
        .expect("resumed sweep runs every remaining row");
    let done = client
        .request("report", vec![("name".into(), Json::str("grid-resumed"))])
        .expect("final sweep report");
    let daemon_line = done.get("sweep").expect("sweep payload").render();
    client.request("shutdown", Vec::new()).expect("shutdown");
    handle.join().expect("daemon exits");
    let _ = std::fs::remove_file(&cursor);

    let batch = chronos_pitfalls::experiments::run_e16(SEED, 16, RESOLVERS, 1);
    assert_eq!(daemon_line, sweep_json(&batch).render());
}

#[test]
fn protocol_errors_are_reported_not_fatal() {
    let socket = scratch("err.sock");
    let handle = boot(&socket);
    let mut client = Client::connect(&socket).expect("connect");

    // Unknown command, unknown job, malformed spec — each answers
    // ok:false and the connection stays usable.
    for bad in [
        r#"{"cmd":"frobnicate"}"#,
        r#"{"cmd":"status","name":"ghost"}"#,
        r#"{"cmd":"submit","name":"x","spec":{"kind":"nope"}}"#,
        r#"{"cmd":"resume","name":"x","path":"/nonexistent/ckpt"}"#,
    ] {
        let request = Json::parse(bad).expect("request literal");
        let response = client.request_raw(&request);
        assert!(response.is_err(), "{bad} should fail");
    }
    let pong = client.request("ping", Vec::new()).expect("still alive");
    assert_eq!(pong.get("protocol").and_then(Json::as_u64), Some(1));
    // The enriched ping: identity, uptime, and job counts by state.
    assert!(pong.get("version").and_then(Json::as_str).is_some());
    assert!(pong.get("uptime_s").and_then(Json::as_u64).is_some());
    let states = pong.get("job_states").expect("job_states object");
    assert_eq!(states.get("running").and_then(Json::as_u64), Some(0));
    assert_eq!(states.get("failed").and_then(Json::as_u64), Some(0));
    let Json::Obj(counts) = states else {
        panic!("job_states is not an object");
    };
    let labels: Vec<&str> = counts.iter().map(|(label, _)| label.as_str()).collect();
    assert_eq!(
        labels,
        ["queued", "running", "paused", "done", "stopped", "failed"],
        "ping counts states in lifecycle order"
    );

    // The unknown command was counted as a protocol error.
    let scraped = client.request("metrics", Vec::new()).expect("metrics");
    let text = scraped
        .get("metrics")
        .and_then(Json::as_str)
        .expect("metrics payload");
    let errors = obs::expo::parse(text)
        .expect("exposition parses")
        .into_iter()
        .find(|s| s.name == "chronosd_protocol_errors_total")
        .expect("protocol-error counter");
    assert!(errors.value >= 1.0, "unknown cmd not counted");

    client.request("shutdown", Vec::new()).expect("shutdown");
    handle.join().expect("daemon exits");
}

#[test]
fn over_long_request_line_is_refused_and_the_connection_closed() {
    use std::io::{BufRead, BufReader, Read, Write};
    use std::os::unix::net::UnixStream;

    let socket = scratch("long.sock");
    let handle = boot(&socket);

    // One byte past the cap and no newline: the daemon must answer
    // within seconds instead of buffering the line without bound.
    let mut stream = UnixStream::connect(&socket).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    stream
        .write_all(&vec![b'x'; chronosd::daemon::MAX_REQUEST_LINE + 1])
        .expect("write the over-long line");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .expect("a reply before the timeout");
    let reply = Json::parse(line.trim_end()).expect("the reply is JSON");
    assert_eq!(reply.get("ok"), Some(&Json::Bool(false)), "{line}");
    let error = reply.get("error").and_then(Json::as_str).expect("error");
    assert!(error.contains("exceeds"), "{error}");
    let mut rest = Vec::new();
    assert_eq!(
        reader.read_to_end(&mut rest).expect("the daemon closes"),
        0,
        "nothing follows the refusal"
    );

    // The daemon lives on, and counted exactly one protocol error.
    let mut client = Client::connect(&socket).expect("reconnect");
    let pong = client.request("ping", Vec::new()).expect("ping answered");
    assert_eq!(pong.get("protocol").and_then(Json::as_u64), Some(1));
    let scraped = client.request("metrics", Vec::new()).expect("metrics");
    let text = scraped
        .get("metrics")
        .and_then(Json::as_str)
        .expect("metrics payload");
    let errors = obs::expo::parse(text)
        .expect("exposition parses")
        .into_iter()
        .find(|s| s.name == "chronosd_protocol_errors_total")
        .expect("protocol-error counter");
    assert_eq!(errors.value, 1.0, "one over-long line, one protocol error");

    client.request("shutdown", Vec::new()).expect("shutdown");
    handle.join().expect("daemon exits");
}
