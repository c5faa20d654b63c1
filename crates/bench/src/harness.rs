//! The workspace's bench harness: it times the bench targets under
//! `benches/` and writes one `BENCH_<target>.json` artifact per target,
//! which [`crate::benchdiff`] reads.
//!
//! The API follows the shape of `criterion`'s (`bench_function`,
//! `benchmark_group`, `sample_size`, `throughput`,
//! `criterion_group!`/`criterion_main!`), so a target reads like an
//! upstream criterion bench, but the behaviour is this crate's own: fixed
//! sample counts instead of adaptive sampling, min and mean instead of a
//! statistical analysis, interleaved A/B pairs
//! ([`BenchmarkGroup::bench_pair`]), per-stage wall times
//! ([`Criterion::record_stage_timings`]) and the JSON artifact (wall time,
//! per-iteration mean, elements/sec when a throughput is declared, peak RSS
//! when `/proc/self/status` is available). Set `BENCH_JSON_DIR` to redirect
//! the artifact directory (default: `<workspace>/bench-results`).

use obs::json::Json;
use std::hint::black_box;
use std::time::{Duration, Instant};

pub use crate::{criterion_group, criterion_main};

/// Workload size declaration for throughput reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// The routine processes this many logical elements per iteration
    /// (e.g. Monte-Carlo trials).
    Elements(u64),
    /// The routine processes this many bytes per iteration.
    Bytes(u64),
}

/// One engine-stage wall-time row, serialized into the artifact's
/// `stage_timings` section. Bench targets that instrument their workload
/// (e.g. with `fleet::metrics::FleetMetrics`) convert their stage
/// summaries into these and attach them via
/// [`Criterion::record_stage_timings`] — so `BENCH_*.json` says *where*
/// an iteration spends its time, not just how long it takes.
#[derive(Debug, Clone, PartialEq)]
pub struct StageTiming {
    /// Stage label (e.g. `shard_slice`, `report_merge`).
    pub stage: String,
    /// Times the stage ran across all measured iterations.
    pub count: u64,
    /// Total wall seconds across those runs.
    pub total_secs: f64,
}

/// One measured benchmark, as serialized into the JSON artifact.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Fully qualified bench name (`group/function`).
    pub name: String,
    /// Measured iterations (excludes the warm-up iteration).
    pub iters: u64,
    /// Total wall time across measured iterations.
    pub total: Duration,
    /// Fastest single iteration.
    pub min: Duration,
    /// Declared per-iteration workload, if any.
    pub throughput: Option<Throughput>,
    /// For both entries of a [`BenchmarkGroup::bench_pair`]: the median
    /// over its rounds of the first target's time over the second's.
    pub median_pair_ratio: Option<f64>,
}

impl Measurement {
    /// Mean seconds per iteration.
    pub fn mean_secs(&self) -> f64 {
        self.total.as_secs_f64() / self.iters as f64
    }

    /// Declared elements per second, when an element throughput was set.
    pub fn elements_per_sec(&self) -> Option<f64> {
        match self.throughput {
            Some(Throughput::Elements(n)) => Some(n as f64 / self.mean_secs()),
            _ => None,
        }
    }

    /// Declared bytes per second, when a byte throughput was set.
    pub fn bytes_per_sec(&self) -> Option<f64> {
        match self.throughput {
            Some(Throughput::Bytes(n)) => Some(n as f64 / self.mean_secs()),
            _ => None,
        }
    }

    fn rate(&self) -> Option<(f64, &'static str)> {
        self.elements_per_sec()
            .map(|r| (r, "elem/s"))
            .or_else(|| self.bytes_per_sec().map(|r| (r, "B/s")))
    }
}

/// Times one routine; handed to the closure of `bench_function`.
pub struct Bencher {
    iters: u64,
    total: Duration,
    min: Duration,
}

impl Bencher {
    /// Runs `routine` once for warm-up, then `iters` measured times.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        black_box(routine());
        let mut total = Duration::ZERO;
        let mut min = Duration::MAX;
        for _ in 0..self.iters {
            let start = Instant::now();
            black_box(routine());
            let dt = start.elapsed();
            total += dt;
            min = min.min(dt);
        }
        self.total = total;
        self.min = min;
    }
}

/// The harness: collects measurements and prints a line per bench.
pub struct Criterion {
    default_sample_size: u64,
    measurements: Vec<Measurement>,
    stages: Vec<StageTiming>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            // Upstream defaults to 100 samples; these benches run whole
            // packet-level simulations per iteration, so keep counts low.
            default_sample_size: 10,
            measurements: Vec::new(),
            stages: Vec::new(),
        }
    }
}

impl Criterion {
    /// Benchmarks `f` under `name` with the default sample size.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        let n = self.default_sample_size;
        self.run_one(name.to_string(), n, None, f);
        self
    }

    /// Starts a named group whose benches share configuration.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
            sample_size: None,
            throughput: None,
        }
    }

    /// All measurements taken so far.
    pub fn measurements(&self) -> &[Measurement] {
        &self.measurements
    }

    /// Attach per-stage wall-time rows to this target's JSON artifact
    /// (appended; a target instrumenting several workloads calls this
    /// once per workload with distinct stage labels).
    pub fn record_stage_timings<I: IntoIterator<Item = StageTiming>>(&mut self, stages: I) {
        self.stages.extend(stages);
    }

    /// Stage timings recorded so far.
    pub fn stage_timings(&self) -> &[StageTiming] {
        &self.stages
    }

    fn run_one<F: FnMut(&mut Bencher)>(
        &mut self,
        name: String,
        iters: u64,
        throughput: Option<Throughput>,
        mut f: F,
    ) {
        let mut b = Bencher {
            iters,
            total: Duration::ZERO,
            min: Duration::MAX,
        };
        f(&mut b);
        self.push(Measurement {
            name,
            iters: b.iters,
            total: b.total,
            min: b.min,
            throughput,
            median_pair_ratio: None,
        });
    }

    fn push(&mut self, m: Measurement) {
        let rate = m
            .rate()
            .map(|(r, unit)| format!("  ({r:.0} {unit})"))
            .unwrap_or_default();
        println!(
            "bench: {:<44} {:>12.3?}/iter  (min {:.3?}, {} iters){rate}",
            m.name,
            Duration::from_secs_f64(m.mean_secs()),
            m.min,
            m.iters,
        );
        self.measurements.push(m);
    }
}

/// A group of related benches sharing sample size and throughput.
pub struct BenchmarkGroup<'c> {
    criterion: &'c mut Criterion,
    name: String,
    sample_size: Option<u64>,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Overrides the measured iteration count for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n as u64);
        self
    }

    /// Declares the per-iteration workload for throughput reporting.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Benchmarks `f` under `group/name`.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        let iters = self
            .sample_size
            .unwrap_or(self.criterion.default_sample_size);
        let full = format!("{}/{}", self.name, name);
        let throughput = self.throughput;
        self.criterion.run_one(full, iters, throughput, f);
        self
    }

    /// Benchmarks two variants of one routine with their samples
    /// **interleaved** (one warm-up of each, then an A/B sample pair per
    /// round), recording them as `group/name_a` (`f(false)`) and
    /// `group/name_b` (`f(true)`).
    ///
    /// Not part of upstream criterion. It exists for within-run ratio
    /// guards on tight floors (e.g. the ~2% metrics-overhead guard in
    /// `bench-diff`): sequential targets are separated by minutes of
    /// wall time, and host drift over that span — CPU burst credits,
    /// noisy neighbours — routinely exceeds a few percent, drowning the
    /// signal. Alternating the samples puts both variants under the same
    /// drift, so their ratio measures only the code difference. Both
    /// entries record the median over rounds of `name_a`'s time over
    /// `name_b`'s: one slow round moves a minimum but not that median.
    pub fn bench_pair<O, F: FnMut(bool) -> O>(
        &mut self,
        name_a: &str,
        name_b: &str,
        mut f: F,
    ) -> &mut Self {
        let iters = self
            .sample_size
            .unwrap_or(self.criterion.default_sample_size);
        black_box(f(false));
        black_box(f(true));
        let mut totals = [Duration::ZERO; 2];
        let mut mins = [Duration::MAX; 2];
        let mut ratios = Vec::new();
        for _ in 0..iters {
            let mut round = [Duration::ZERO; 2];
            for (i, variant) in [false, true].into_iter().enumerate() {
                let start = Instant::now();
                black_box(f(variant));
                round[i] = start.elapsed();
                totals[i] += round[i];
                mins[i] = mins[i].min(round[i]);
            }
            ratios.push(round[0].as_secs_f64() / round[1].as_secs_f64().max(f64::MIN_POSITIVE));
        }
        let median_pair_ratio = median(&mut ratios);
        for (i, name) in [name_a, name_b].into_iter().enumerate() {
            self.criterion.push(Measurement {
                name: format!("{}/{}", self.name, name),
                iters,
                total: totals[i],
                min: mins[i],
                throughput: self.throughput,
                median_pair_ratio,
            });
        }
        self
    }

    /// Ends the group (kept for API compatibility).
    pub fn finish(&mut self) {}
}

/// The median of `values` (the mean of the middle two for an even count),
/// or `None` when there are none.
pub(crate) fn median(values: &mut [f64]) -> Option<f64> {
    values.sort_unstable_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(values[n / 2]),
        _ => Some((values[n / 2 - 1] + values[n / 2]) / 2.0),
    }
}

/// Peak resident set size in bytes, when the platform exposes it.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Serializes `measurements` (and any recorded stage timings) into the
/// `BENCH_<target>.json` schema: one entry per line, numbers fixed to nine
/// decimals, strings escaped through [`obs::json`]. The `stage_timings`
/// section comes after `results`; `bench-diff` reads only `results`.
pub fn render_json(target: &str, measurements: &[Measurement], stages: &[StageTiming]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"bench\": {},\n", Json::str(target).render()));
    out.push_str(&format!(
        "  \"schema\": 1,\n  \"peak_rss_bytes\": {},\n",
        peak_rss_bytes()
            .map(|b| b.to_string())
            .unwrap_or_else(|| "null".to_string())
    ));
    out.push_str("  \"results\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        let opt = |r: Option<f64>| {
            r.map(|v| format!("{v:.3}"))
                .unwrap_or_else(|| "null".to_string())
        };
        let pair = m
            .median_pair_ratio
            .map(|r| format!(", \"median_pair_ratio\": {r:.6}"))
            .unwrap_or_default();
        out.push_str(&format!(
            "    {{\"name\": {}, \"iters\": {}, \"wall_time_secs\": {:.9}, \
             \"mean_secs_per_iter\": {:.9}, \"min_secs_per_iter\": {:.9}, \
             \"elements_per_sec\": {}, \"bytes_per_sec\": {}{pair}}}{}\n",
            Json::str(&m.name).render(),
            m.iters,
            m.total.as_secs_f64(),
            m.mean_secs(),
            m.min.as_secs_f64(),
            opt(m.elements_per_sec()),
            opt(m.bytes_per_sec()),
            if i + 1 == measurements.len() { "" } else { "," },
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"stage_timings\": [\n");
    for (i, s) in stages.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"stage\": {}, \"count\": {}, \"total_secs\": {:.9}}}{}\n",
            Json::str(&s.stage).render(),
            s.count,
            s.total_secs,
            if i + 1 == stages.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Entry point wired by `criterion_main!`: runs every group, then writes
/// the JSON artifact for this bench target.
pub fn run_main(target: &str, manifest_dir: &str, groups: &[fn(&mut Criterion)]) {
    // Cargo invokes bench binaries with `--bench` (and test harness args
    // under `cargo test --benches`); accept and ignore them.
    let mut c = Criterion::default();
    for group in groups {
        group(&mut c);
    }
    let dir = std::env::var("BENCH_JSON_DIR").unwrap_or_else(|_| {
        std::path::Path::new(manifest_dir)
            .join("../../bench-results")
            .to_string_lossy()
            .into_owned()
    });
    let path = std::path::Path::new(&dir).join(format!("BENCH_{target}.json"));
    if std::fs::create_dir_all(&dir).is_ok() {
        match std::fs::write(
            &path,
            render_json(target, c.measurements(), c.stage_timings()),
        ) {
            Ok(()) => println!("bench-json: wrote {}", path.display()),
            Err(e) => eprintln!("bench-json: failed to write {}: {e}", path.display()),
        }
    }
}

/// Declares a bench group: a function running each listed target on one
/// [`Criterion`].
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group(c: &mut $crate::harness::Criterion) {
            $($target(c);)+
        }
    };
}

/// Declares the bench `main` that runs groups and writes the JSON artifact.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $crate::harness::run_main(
                env!("CARGO_CRATE_NAME"),
                env!("CARGO_MANIFEST_DIR"),
                &[$($group),+],
            );
        }
    };
}
