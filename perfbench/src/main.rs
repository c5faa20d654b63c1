//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload for about `--seconds` seconds of repetitions, checks
//! the program's outputs, and prints one JSON line as the last line of
//! standard output:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! the run repeats the untraced measurement, then measures again with
//! timers around the calls into each layer and prints the per-layer
//! metrics (see `metrics.rs` for the catalogue). All tracing lives here,
//! outside the program under test.
//!
//! Everything the run writes (the daemon's socket, a checkpoint file)
//! goes under `.perfbench_tmp/` in the working directory and is removed
//! before exit.

mod daemon_wl;
mod fleet_wl;
mod kernels;
mod metrics;
mod packet_wl;
mod report;
mod stats;

use std::process::ExitCode;
use std::time::Instant;

use metrics::Workload;

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(|_| "--seed: not a u64")?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| "--seconds: not a number")?;
                    if !(s > 0.0 && s <= 60.0) {
                        return Err("--seconds must be in (0, 60]".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace must be 0 or 1".into()),
                    })
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// Runs `f`, returning its value and the wall seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// Decides how many repetitions a measurement phase runs: at least
/// [`Budget::MIN_REPS`], then more while another one of average length
/// still ends within the phase's seconds.
#[derive(Debug)]
pub struct Budget {
    start: Instant,
    seconds: f64,
}

impl Budget {
    /// Repetitions every phase runs, however long each takes.
    pub const MIN_REPS: usize = 3;

    /// Starts a phase lasting `seconds`.
    pub fn start(seconds: f64) -> Budget {
        Budget {
            start: Instant::now(),
            seconds,
        }
    }

    /// Whether to run another repetition after `done` of them.
    pub fn more(&self, done: usize) -> bool {
        let elapsed = self.start.elapsed().as_secs_f64();
        done < Self::MIN_REPS || elapsed + elapsed / done as f64 <= self.seconds
    }
}

/// Where a run may write: created on demand, removed at exit.
pub const TMP_DIR: &str = ".perfbench_tmp";

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    // Results of the daemon workload depend on the cores available.
    eprintln!(
        "perfbench: {} seed {} on {} available CPUs",
        args.workload.name(),
        args.seed,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let run = match args.workload {
        Workload::ChronosAttack => fleet_wl::run(args.seed, args.seconds, args.trace),
        Workload::Daemon => daemon_wl::run(args.seed, args.seconds, args.trace),
        Workload::Packet => packet_wl::run(args.seed, args.seconds, args.trace),
    };
    match run.render(args.workload, args.trace) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench: metric set mismatch: {message}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args("--workload daemon_loaded --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::Daemon);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20.0, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload packet_worlds --seed 1 --seconds 1").is_err());
        assert!(args("--workload packet_worlds --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload packet_worlds --seed x --seconds 1 --trace 0").is_err());
        assert!(args("--workload packet_worlds --seed 1 --seconds 0 --trace 0").is_err());
    }
}
