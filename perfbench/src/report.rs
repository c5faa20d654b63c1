//! What one benchmark run accumulates — operations attempted and failed,
//! output checks, metric values — and the JSON result line it prints.

use crate::metrics::{self, Workload};
use crate::stats::Summary;

/// The tally and metrics of one run.
#[derive(Debug, Default)]
pub struct Run {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64)>,
}

impl Run {
    /// Counts one operation or output check; logs `what` to stderr when it
    /// failed. Returns `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED: {}", what());
        }
        ok
    }

    /// Counts one fallible operation, returning its value on success.
    pub fn op<T, E: std::fmt::Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        match result {
            Ok(v) => {
                self.attempted += 1;
                Some(v)
            }
            Err(e) => {
                self.check(false, || format!("{what}: {e}"));
                None
            }
        }
    }

    /// Counts `n` operations that succeeded.
    pub fn succeeded(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Records a metric value.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        debug_assert!(metrics::find(name).is_some(), "undeclared metric {name}");
        self.metrics.push((name, value));
    }

    /// Records the median of `samples`, times `scale`, as metric `name`,
    /// and logs the full summary to stderr (see [`Run::summarize`]).
    pub fn timing(&mut self, name: &'static str, samples: &[f64], scale: f64) {
        if let Some(s) = self.summarize(name, samples, scale) {
            self.metric(name, s.median * scale);
        }
    }

    /// Records the smallest of `samples`, times `scale`, as metric `name`,
    /// and logs the same summary as [`Run::timing`].
    ///
    /// The end-to-end timings use it. The host this benchmark was tuned
    /// on alternates between two speeds about 1.6× apart, in spells of
    /// seconds to a minute, on compute-bound code of any working-set size.
    /// A run's median lands on whichever speed held for most of the run;
    /// its fastest repetition reads the fast speed whenever the run saw
    /// it, so it repeats from run to run where the median does not.
    pub fn fastest(&mut self, name: &'static str, samples: &[f64], scale: f64) {
        if let Some(s) = self.summarize(name, samples, scale) {
            self.metric(name, s.min * scale);
        }
    }

    /// Logs `samples`' minimum, median, the highest percentile with at
    /// least ten samples beyond it, and the sample count to stderr (and
    /// each sample, when there are few). With no samples, records a failed
    /// check and a NaN metric instead.
    fn summarize(&mut self, name: &'static str, samples: &[f64], scale: f64) -> Option<Summary> {
        if samples.is_empty() {
            self.check(false, || format!("{name}: no samples"));
            self.metric(name, f64::NAN);
            return None;
        }
        let s = Summary::of(samples);
        let tail = s.tail.map_or(String::new(), |(p, v)| {
            format!(", p{} {:.6}", p * 100.0, v * scale)
        });
        eprintln!(
            "perfbench: {name}: min {:.6}, median {:.6}{tail} over {} samples",
            s.min * scale,
            s.median * scale,
            s.count
        );
        if samples.len() <= 40 {
            let each: Vec<String> = samples.iter().map(|v| format!("{:.4}", v * scale)).collect();
            eprintln!("perfbench: {name}: samples {}", each.join(" "));
        }
        Some(s)
    }

    /// Whether no operation or check failed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Renders the result line, or explains why the recorded metric set is
    /// not exactly the set declared for this mode (a benchmark bug, never a
    /// property of the program under test).
    pub fn render(&self, workload: Workload, trace: bool) -> Result<String, String> {
        let mut names: Vec<&str> = self.metrics.iter().map(|(n, _)| *n).collect();
        if let Some(bad) = names.iter().find(|n| !metrics::valid_name(n)) {
            return Err(format!("illegal metric name {bad:?}"));
        }
        let mut expected = metrics::declared(trace);
        names.sort_unstable();
        expected.sort_unstable();
        if names != expected {
            return Err(format!(
                "{} printed {names:?}, declared {expected:?}",
                workload.name()
            ));
        }
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|&(name, value)| {
                let unit = metrics::find(name).map_or("", |m| m.unit);
                // A value the run could not measure (no samples, NaN) is
                // not valid JSON; print null so the line stays parseable.
                let value = if value.is_finite() {
                    format!("{value}")
                } else {
                    "null".to_string()
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        ))
    }
}

/// Peak resident set size of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_exactly_the_declared_set() {
        let mut run = Run::default();
        run.check(true, String::new);
        run.metric("setup_s", 0.5);
        run.metric("run_s", 2.25);
        let missing = run.render(Workload::Packet, false);
        assert!(missing.is_err(), "peak_rss_mb is missing");
        run.metric("peak_rss_mb", 12.0);
        let line = run.render(Workload::Packet, false).expect("complete set");
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"run_s\": {\"value\": 2.25, \"unit\": \"s\"}, \
             \"peak_rss_mb\": {\"value\": 12, \"unit\": \"MB\"}}}"
        );
        // The line is JSON.
        chronosd::Json::parse(&line).expect("result line parses");
    }

    #[test]
    fn failures_make_the_run_incorrect() {
        let mut run = Run::default();
        run.check(false, || "expected".into());
        run.op::<(), _>("op", Err("boom"));
        assert!(!run.correct());
        assert_eq!((run.attempted, run.failed), (2, 2));
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
