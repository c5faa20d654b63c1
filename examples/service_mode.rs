//! The population experiments as daemon clients (service mode).
//!
//! `fleet_attack` and `degraded_network` run their fleets batch-style:
//! build, run, print, exit. This example drives the same E16/E17 fleets
//! *through chronosd*: it boots the daemon in-process on a scratch
//! socket, submits both fleets as named jobs over the wire, streams live
//! progress snapshots while they step, pauses the E16 job mid-run,
//! checkpoints it to a file, resumes the checkpoint as a new job, and
//! shows that the resumed report matches a batch run byte for byte —
//! the whole operator loop from `docs/OPERATIONS.md`, minus the
//! terminal.
//!
//! Run with: `cargo run --release --example service_mode`

use std::time::Duration;

use chronosd::render::report_json;
use chronosd::Json;
use chronosd::{Client, Daemon};
use fleet::Fleet;

fn main() {
    let mut socket = std::env::temp_dir();
    socket.push(format!("chronosd-example-{}.sock", std::process::id()));
    let daemon = Daemon::bind(&socket).expect("bind scratch socket");
    let server = std::thread::spawn(move || daemon.serve().expect("serve"));
    println!("chronosd up on {}", socket.display());

    let mut ctl = Client::connect(&socket).expect("connect");

    // Submit the two population experiments as named jobs. E16: 2000
    // mixed clients, half the resolver caches poisoned. E17: the same
    // scenario degraded by 5% loss with an outage over every cache.
    for (name, spec) in [
        (
            "e16",
            r#"{"kind":"e16-fleet","seed":7,"clients":2000,"resolvers":4,"poisoned_resolvers":2,"threads":2,"slice_s":500,"pause_at_s":3000}"#,
        ),
        (
            "e17",
            r#"{"kind":"e17-fleet","seed":7,"clients":2000,"resolvers":4,"loss":0.05,"outage_coverage":4,"threads":2,"slice_s":500}"#,
        ),
    ] {
        ctl.request(
            "submit",
            vec![
                ("name".into(), Json::str(name)),
                ("spec".into(), Json::parse(spec).expect("spec literal")),
            ],
        )
        .expect("submit");
        println!("submitted job {name:?}");
    }

    // Live observability: stream E16 snapshots until it pauses.
    let mut watcher = Client::connect(&socket).expect("watch connection");
    let mut event = watcher
        .request("watch", vec![("name".into(), Json::str("e16"))])
        .expect("watch");
    loop {
        let state = event.get("state").and_then(Json::as_str).unwrap_or("?");
        if let Some(p) = event.get("progress") {
            if let (Some(now), Some(frac)) = (
                p.get("now_s").and_then(Json::as_f64),
                p.get("shifted_fraction").and_then(Json::as_f64),
            ) {
                println!("  e16 [{state}] t = {now:>6.0} s, shifted fraction {frac:.3}");
            }
        }
        if event.get("event").and_then(Json::as_str) == Some("end") {
            break;
        }
        event = watcher.read_response().expect("watch stream");
    }

    // Checkpoint the paused job, resume it as a fresh job, let both
    // finish, and compare the resumed report against a batch run.
    let mut ckpt = std::env::temp_dir();
    ckpt.push(format!("chronosd-example-{}.ckpt", std::process::id()));
    let saved = ctl
        .request(
            "checkpoint",
            vec![
                ("name".into(), Json::str("e16")),
                ("path".into(), Json::str(ckpt.display().to_string())),
            ],
        )
        .expect("checkpoint");
    println!(
        "checkpointed e16 at t = 3000 s: {} bytes",
        saved.get("bytes").and_then(Json::as_usize).unwrap_or(0)
    );
    ctl.request(
        "resume",
        vec![
            ("name".into(), Json::str("e16-resumed")),
            ("path".into(), Json::str(ckpt.display().to_string())),
            ("threads".into(), Json::u64(2)),
        ],
    )
    .expect("resume");
    ctl.request("stop", vec![("name".into(), Json::str("e16"))])
        .expect("stop the paused first leg");

    for name in ["e16-resumed", "e17"] {
        ctl.wait_for_state(name, "done", Duration::from_secs(600))
            .expect("job finishes");
        let response = ctl
            .request("report", vec![("name".into(), Json::str(name))])
            .expect("report");
        let report = response.get("report").expect("payload");
        println!(
            "job {name:?} done: final shifted fraction {}",
            report
                .get("final_shifted_fraction")
                .map(Json::render)
                .unwrap_or_default()
        );
        if name == "e16-resumed" {
            let batch = Fleet::new(chronos_pitfalls::experiments::e16_config(7, 2000, 4, 2)).run();
            assert_eq!(
                report.render(),
                report_json(&batch).render(),
                "daemon-resumed report must equal the batch run byte-for-byte"
            );
            println!("  …byte-identical to the batch e16_config run ✓");
        }
    }

    ctl.request("shutdown", Vec::new()).expect("shutdown");
    server.join().expect("daemon exits");
    let _ = std::fs::remove_file(&ckpt);
    println!("daemon shut down cleanly");
}
