//! The operator client for `chronosd`.
//!
//! ```text
//! chronosctl <socket> [--wait N] <command> [...]
//!
//! chronosctl <socket> ping
//! chronosctl <socket> submit <name> <kind> [--seed N] [--clients N] [--resolvers N]
//!            [--poisoned N] [--loss F] [--outage-coverage N] [--deployment F]
//!            [--threads N] [--slice-s N] [--pause-at-s N] [--pause-at-row N]
//! chronosctl <socket> jobs
//! chronosctl <socket> status <name>
//! chronosctl <socket> report <name> [--row N] # prints only the report object
//! chronosctl <socket> watch <name> [count]
//! chronosctl <socket> checkpoint <name> <file>
//! chronosctl <socket> resume <name> <file> [--threads N] [--slice-s N]
//!            [--pause-at-s N] [--pause-at-row N]   # CHR1 or SWP1, by magic
//! chronosctl <socket> unpause <name>
//! chronosctl <socket> stop <name>
//! chronosctl <socket> forget <name>          # drop a terminal job's record
//! chronosctl <socket> wait <name> <state> [timeout-s]
//! chronosctl <socket> sync                   # force a state-dir snapshot
//! chronosctl <socket> metrics                # Prometheus text exposition
//! chronosctl <socket> shutdown
//! chronosctl batch-e16 [--seed N] [--clients N] [--resolvers N] [--poisoned K] [--threads N]
//! ```
//!
//! `--wait N` (right after the socket path) retries the connection with
//! bounded exponential backoff for up to N seconds, so scripts can race
//! daemon boot; every connection then handshakes the protocol version,
//! so a mismatched daemon fails with "protocol version mismatch" instead
//! of a confusing late error.
//!
//! `batch-e16` needs no daemon: it runs the E16 sweep in-process via
//! `chronos_pitfalls::experiments::run_e16` and prints the report of the
//! `--poisoned K` row through the same canonical renderer the daemon
//! uses — so `chronosctl <socket> report <job>` for an `e16-fleet` job
//! with matching parameters is **byte-identical** to it (CI diffs the
//! two).

use std::time::Duration;

use chronosd::render::report_json;
use chronosd::Client;
use chronosd::Json;

fn usage() -> ! {
    eprintln!(
        "usage: chronosctl <socket> [--wait N] <command> [...]  (or: chronosctl batch-e16 [...])"
    );
    eprintln!("commands: ping, submit, jobs, status, report, watch, checkpoint, resume,");
    eprintln!(
        "          unpause, stop, forget, wait, sync, metrics, shutdown; see docs/OPERATIONS.md"
    );
    std::process::exit(2);
}

fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("chronosctl: {message}");
    std::process::exit(1);
}

/// Collect `--key value` flag pairs into `(key, value)` tuples.
fn flags(args: &[String]) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let key = match args[i].strip_prefix("--") {
            Some(key) => key.to_string(),
            None => fail(format!("expected a --flag, got {:?}", args[i])),
        };
        let Some(value) = args.get(i + 1) else {
            fail(format!("--{key} needs a value"))
        };
        out.push((key, value.clone()));
        i += 2;
    }
    out
}

fn flag_num(pairs: &[(String, String)], key: &str) -> Option<Json> {
    pairs.iter().find(|(k, _)| k == key).map(|(_, v)| {
        if v.parse::<f64>().is_err() {
            fail(format!("--{key}: {v:?} is not a number"));
        }
        Json::Num(v.clone())
    })
}

fn batch_e16(rest: &[String]) {
    let pairs = flags(rest);
    let get = |key: &str, default: u64| -> u64 {
        flag_num(&pairs, key)
            .and_then(|v| v.as_u64())
            .unwrap_or(default)
    };
    let seed = get("seed", 7);
    let clients = get("clients", 1_000) as usize;
    let resolvers = (get("resolvers", 4) as usize).max(1);
    let poisoned = get("poisoned", resolvers as u64) as usize;
    let threads = (get("threads", 1) as usize).max(1);
    if poisoned > resolvers {
        fail(format!(
            "--poisoned {poisoned} exceeds --resolvers {resolvers}"
        ));
    }
    let sweep = chronos_pitfalls::experiments::run_e16(seed, clients, resolvers, threads);
    let row = sweep
        .rows
        .iter()
        .find(|row| row.axis("poisoned_resolvers") == poisoned as f64)
        .unwrap_or_else(|| fail("sweep produced no row for the requested k"));
    println!("{}", report_json(&row.report).render());
}

fn connect(socket: &str, wait: Option<u64>) -> Client {
    let mut client = match wait {
        Some(seconds) => Client::connect_with_retry(socket, Duration::from_secs(seconds)),
        None => Client::connect(socket),
    }
    .unwrap_or_else(|e| fail(format!("connecting {socket}: {e}")));
    // Fail fast on a daemon from a different protocol generation.
    client
        .handshake()
        .unwrap_or_else(|e| fail(format!("connecting {socket}: {e}")));
    client
}

fn name_field(name: &str) -> Vec<(String, Json)> {
    vec![("name".into(), Json::str(name))]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("batch-e16") {
        batch_e16(&args[1..]);
        return;
    }
    let (socket, mut tail) = match args.split_first() {
        Some((socket, tail)) => (socket.as_str(), tail),
        None => usage(),
    };
    let mut wait = None;
    if tail.first().map(String::as_str) == Some("--wait") {
        let Some(seconds) = tail.get(1) else {
            fail("--wait needs a value (seconds)")
        };
        wait = Some(
            seconds
                .parse::<u64>()
                .unwrap_or_else(|_| fail(format!("--wait {seconds:?} is not an integer"))),
        );
        tail = &tail[2..];
    }
    let (cmd, rest) = match tail.split_first() {
        Some((cmd, rest)) => (cmd.as_str(), rest),
        None => usage(),
    };
    match cmd {
        "ping" | "jobs" | "shutdown" | "sync" => {
            let response = connect(socket, wait)
                .request(cmd, Vec::new())
                .unwrap_or_else(|e| fail(e));
            println!("{}", response.render());
        }
        "metrics" => {
            let response = connect(socket, wait)
                .request("metrics", Vec::new())
                .unwrap_or_else(|e| fail(e));
            let text = response
                .get("metrics")
                .and_then(Json::as_str)
                .unwrap_or_else(|| fail("response carries no metrics payload"));
            // Refuse to print an exposition our own parser rejects: a
            // daemon/ctl version skew should fail loudly, not feed a
            // scraper garbage.
            if let Err(e) = obs::expo::parse(text) {
                fail(format!("daemon sent invalid exposition: {e}"));
            }
            // The payload already ends with a newline per family block.
            print!("{text}");
        }
        "status" | "unpause" | "stop" | "forget" => {
            let [name] = rest else {
                fail(format!("{cmd} needs <name>"))
            };
            let response = connect(socket, wait)
                .request(cmd, name_field(name))
                .unwrap_or_else(|e| fail(e));
            println!("{}", response.render());
        }
        "report" => {
            let Some(([name], pairs)) = rest.split_first_chunk().map(|(h, t)| (h, flags(t))) else {
                fail("report needs <name> [--row N]")
            };
            let mut fields = name_field(name);
            if let Some(row) = flag_num(&pairs, "row") {
                fields.push(("row".into(), row));
            }
            let response = connect(socket, wait)
                .request("report", fields)
                .unwrap_or_else(|e| fail(e));
            // Print only the payload object so the output is
            // byte-comparable with `chronosctl batch-e16`.
            let payload = response
                .get("report")
                .or_else(|| response.get("sweep"))
                .unwrap_or_else(|| fail("response carries no report"));
            println!("{}", payload.render());
        }
        "watch" => {
            let (name, count) = match rest {
                [name] => (name, None),
                [name, count] => (name, Some(count)),
                _ => fail("watch needs <name> [count]"),
            };
            let mut fields = name_field(name);
            if let Some(count) = count {
                if count.parse::<u64>().is_err() {
                    fail(format!("watch count {count:?} is not an integer"));
                }
                fields.push(("count".into(), Json::Num(count.clone())));
            }
            let mut client = connect(socket, wait);
            let mut response = client.request("watch", fields).unwrap_or_else(|e| fail(e));
            loop {
                println!("{}", response.render());
                if response.get("event").and_then(Json::as_str) == Some("end") {
                    break;
                }
                response = client.read_response().unwrap_or_else(|e| fail(e));
            }
        }
        "submit" => {
            let Some(([name, kind], pairs)) = rest.split_first_chunk().map(|(h, t)| (h, flags(t)))
            else {
                fail("submit needs <name> <kind> [--flags]")
            };
            let mut spec = vec![("kind".to_string(), Json::str(kind.as_str()))];
            for (key, wire) in [
                ("seed", "seed"),
                ("clients", "clients"),
                ("resolvers", "resolvers"),
                ("poisoned", "poisoned_resolvers"),
                ("loss", "loss"),
                ("outage-coverage", "outage_coverage"),
                ("deployment", "deployment"),
                ("threads", "threads"),
                ("slice-s", "slice_s"),
                ("pause-at-s", "pause_at_s"),
                ("pause-at-row", "pause_at_row"),
            ] {
                if let Some(value) = flag_num(&pairs, key) {
                    spec.push((wire.to_string(), value));
                }
            }
            let mut fields = name_field(name);
            fields.push(("spec".into(), Json::Obj(spec)));
            let response = connect(socket, wait)
                .request("submit", fields)
                .unwrap_or_else(|e| fail(e));
            println!("{}", response.render());
        }
        "checkpoint" => {
            let [name, path] = rest else {
                fail("checkpoint needs <name> <file>")
            };
            let mut fields = name_field(name);
            fields.push(("path".into(), Json::str(path.as_str())));
            let response = connect(socket, wait)
                .request("checkpoint", fields)
                .unwrap_or_else(|e| fail(e));
            println!("{}", response.render());
        }
        "resume" => {
            let Some(([name, path], pairs)) = rest.split_first_chunk().map(|(h, t)| (h, flags(t)))
            else {
                fail("resume needs <name> <file> [--flags]")
            };
            let mut fields = name_field(name);
            fields.push(("path".into(), Json::str(path.as_str())));
            for (key, wire) in [
                ("threads", "threads"),
                ("slice-s", "slice_s"),
                ("pause-at-s", "pause_at_s"),
                ("pause-at-row", "pause_at_row"),
            ] {
                if let Some(value) = flag_num(&pairs, key) {
                    fields.push((wire.to_string(), value));
                }
            }
            let response = connect(socket, wait)
                .request("resume", fields)
                .unwrap_or_else(|e| fail(e));
            println!("{}", response.render());
        }
        "wait" => {
            let (name, state, timeout_s) = match rest {
                [name, state] => (name, state, 300),
                [name, state, t] => (
                    name,
                    state,
                    t.parse::<u64>()
                        .unwrap_or_else(|_| fail(format!("wait timeout {t:?} is not an integer"))),
                ),
                _ => fail("wait needs <name> <state> [timeout-s]"),
            };
            let status = connect(socket, wait)
                .wait_for_state(name, state, Duration::from_secs(timeout_s))
                .unwrap_or_else(|e| fail(e));
            println!("{}", status.render());
        }
        _ => usage(),
    }
}
