//! The benchmark harness, its perf-regression gate and shared helpers.
//!
//! Every bench regenerates one of the paper's tables or figures (printing
//! it to stdout) and then times the underlying experiment runner with
//! [`harness`], which writes one `BENCH_<target>.json` artifact per target.
//! The printed artifacts are the reproduction deliverable; the timings
//! document the cost of regenerating them. [`benchdiff`] turns the JSON
//! artifacts into a CI perf-regression gate (see the `bench-diff` binary).
//!
//! *(Workspace map: see `ARCHITECTURE.md` at the repo root — crate-by-crate
//! architecture, the data-flow diagram, and the determinism contract.)*

pub mod benchdiff;
pub mod harness;

/// Prints a banner separating bench output sections.
pub fn banner(title: &str) {
    println!("\n{}", "=".repeat(74));
    println!("{title}");
    println!("{}", "=".repeat(74));
}

/// The harness's unit tests.
#[cfg(test)]
mod tests {
    use crate::harness::*;
    use std::hint::black_box;

    #[test]
    fn bench_function_measures_and_records() {
        let mut c = Criterion::default();
        c.bench_function("noop", |b| b.iter(|| black_box(1 + 1)));
        assert_eq!(c.measurements().len(), 1);
        let m = &c.measurements()[0];
        assert_eq!(m.name, "noop");
        assert_eq!(m.iters, 10);
        assert!(m.total >= m.min);
    }

    #[test]
    fn group_overrides_and_throughput() {
        let mut c = Criterion::default();
        {
            let mut g = c.benchmark_group("g");
            g.sample_size(3);
            g.throughput(Throughput::Elements(1000));
            g.bench_function("work", |b| b.iter(|| black_box(42)));
            g.finish();
        }
        let m = &c.measurements()[0];
        assert_eq!(m.name, "g/work");
        assert_eq!(m.iters, 3);
        assert!(m.elements_per_sec().unwrap() > 0.0);
        assert_eq!(m.bytes_per_sec(), None);
    }

    #[test]
    fn bytes_throughput_is_not_reported_as_elements() {
        let mut c = Criterion::default();
        {
            let mut g = c.benchmark_group("g");
            g.sample_size(2);
            g.throughput(Throughput::Bytes(1500));
            g.bench_function("pkt", |b| b.iter(|| black_box(0)));
        }
        let m = &c.measurements()[0];
        assert_eq!(m.elements_per_sec(), None);
        assert!(m.bytes_per_sec().unwrap() > 0.0);
        let json = render_json("t", c.measurements(), c.stage_timings());
        assert!(json.contains("\"elements_per_sec\": null"));
        assert!(!json.contains("\"bytes_per_sec\": null"));
    }

    #[test]
    fn bench_pair_interleaves_and_records_both() {
        let mut c = Criterion::default();
        let mut order = Vec::new();
        {
            let mut g = c.benchmark_group("g");
            g.sample_size(3);
            g.throughput(Throughput::Elements(10));
            g.bench_pair("plain", "metered", |variant| {
                order.push(variant);
                black_box(variant)
            });
        }
        // One warm-up of each, then alternating measured pairs.
        assert_eq!(
            order,
            vec![false, true, false, true, false, true, false, true]
        );
        let names: Vec<&str> = c.measurements().iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["g/plain", "g/metered"]);
        for m in c.measurements() {
            assert_eq!(m.iters, 3);
            assert!(m.elements_per_sec().unwrap() > 0.0);
        }
        // Both entries carry the one median of the per-round ratios.
        let ratios: Vec<Option<f64>> = c
            .measurements()
            .iter()
            .map(|m| m.median_pair_ratio)
            .collect();
        assert!(ratios[0].is_some_and(|r| r > 0.0));
        assert_eq!(ratios[0], ratios[1]);
        let json = render_json("t", c.measurements(), c.stage_timings());
        assert_eq!(json.matches("\"median_pair_ratio\": ").count(), 2);
    }

    #[test]
    fn median_takes_the_middle_value() {
        assert_eq!(median(&mut []), None);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn json_schema_is_parseable_shape() {
        let mut c = Criterion::default();
        c.bench_function("x\"y", |b| b.iter(|| 0));
        let json = render_json("unit_test", c.measurements(), c.stage_timings());
        assert!(json.contains("\"bench\": \"unit_test\""));
        assert!(json.contains("\\\"")); // escaped quote in name
        assert!(json.contains("\"wall_time_secs\""));
        assert!(json.contains("\"stage_timings\": [\n  ]"));
        assert!(json.trim_end().ends_with('}'));
    }

    #[test]
    fn stage_timings_render_after_results_without_name_keys() {
        let mut c = Criterion::default();
        c.bench_function("work", |b| b.iter(|| black_box(3)));
        c.record_stage_timings([
            StageTiming {
                stage: "shard_slice".into(),
                count: 40,
                total_secs: 1.25,
            },
            StageTiming {
                stage: "report_merge".into(),
                count: 10,
                total_secs: 0.5,
            },
        ]);
        assert_eq!(c.stage_timings().len(), 2);
        let json = render_json("t", c.measurements(), c.stage_timings());
        let results_at = json.find("\"results\"").unwrap();
        let stages_at = json.find("\"stage_timings\"").unwrap();
        assert!(
            stages_at > results_at,
            "stage section must follow the results array"
        );
        assert!(json
            .contains("{\"stage\": \"shard_slice\", \"count\": 40, \"total_secs\": 1.250000000}"));
        // No `name` key outside the results array: scanners that walk
        // `"name":` entries after `"results"` must not pick up stages.
        assert!(!json[stages_at..].contains("\"name\":"));
    }
}
