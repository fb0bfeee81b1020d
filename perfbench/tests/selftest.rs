//! Self-tests of the benchmark: metric names and caps, agreement with
//! `BENCHMARK.json`, and every workload completing correctly at toy scale.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::calib::Calibrator;
use perfbench::report::{Metric, END_TO_END, PER_LAYER};
use perfbench::run;
use perfbench::workload::{Workload, DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS};

fn valid_name(n: &str) -> bool {
    !n.is_empty()
        && n.len() <= 64
        && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && n.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

fn valid_unit(u: &str) -> bool {
    !u.is_empty()
        && u.len() <= 16
        && u.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn metric_names_units_and_caps() {
    assert!(!END_TO_END.is_empty() && END_TO_END.len() <= 16);
    assert!(!PER_LAYER.is_empty() && PER_LAYER.len() <= 128);
    let mut names: Vec<&str> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|m| m.name)
        .collect();
    for m in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(valid_name(m.name), "bad metric name {:?}", m.name);
        assert!(valid_unit(m.unit), "bad unit {:?} of {}", m.unit, m.name);
    }
    names.sort_unstable();
    let n = names.len();
    names.dedup();
    assert_eq!(names.len(), n, "metric names must be unique");
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));
    for w in WORKLOADS {
        assert!(valid_name(w));
    }
    assert_ne!(DEFAULT_SEED, HELD_OUT_SEED);
}

/// `"key": "value"` pairs of `key` in document order.
fn string_values<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
    let pat = format!("\"{key}\": \"");
    json.match_indices(&pat)
        .map(|(i, _)| {
            let rest = &json[i + pat.len()..];
            &rest[..rest.find('"').expect("closing quote")]
        })
        .collect()
}

#[test]
fn benchmark_json_lists_what_the_benchmark_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let names = string_values(&json, "name");
    let units = string_values(&json, "unit");
    let want: Vec<&Metric> = END_TO_END.iter().chain(&PER_LAYER).collect();
    assert_eq!(names.len(), WORKLOADS.len() + want.len());
    assert_eq!(names[..WORKLOADS.len()], WORKLOADS);
    for ((name, unit), m) in names[WORKLOADS.len()..].iter().zip(&units).zip(&want) {
        assert_eq!((*name, *unit), (m.name, m.unit));
    }
}

fn toy_run(name: &str, trace: bool) -> run::Outcome {
    let w = Workload::new(name, HELD_OUT_SEED, true).expect("known workload");
    let out = run::run(&w, 0.0, trace);
    assert!(out.correct, "{name}: {:?}", out.problems);
    assert_eq!(out.failed, 0, "{name}");
    assert!(out.attempted >= w.cells.len() as u64);
    out
}

#[test]
fn every_workload_completes_at_toy_scale() {
    for name in WORKLOADS {
        let out = toy_run(name, false);
        let got: Vec<&str> = out.metrics.iter().map(|(m, _)| m.name).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(got, want);
        for (m, v) in &out.metrics {
            assert!(v.is_finite() && *v > 0.0, "{name}: {} = {v}", m.name);
        }
    }
}

#[test]
fn traced_run_reports_every_layer_and_faults_only_when_injected() {
    for name in WORKLOADS {
        let out = toy_run(name, true);
        let got: Vec<&str> = out.metrics.iter().map(|(m, _)| m.name).collect();
        let want: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(got, want);
        let value = |n: &str| out.metrics.iter().find(|(m, _)| m.name == n).expect(n).1;
        let faults = value("fault.aborts") + value("fault.checkpoint_bytes");
        assert_eq!(
            faults > 0.0,
            name == "faulted-soak",
            "{name}: fault metrics"
        );
        assert!(value("cluster.run_s") > 0.0 && value("compute.kernel_ns_per_record") > 0.0);
        for span in [
            "cluster.new",
            "cluster.run",
            "cluster.final_states",
            "check.oracle",
        ] {
            assert!(
                out.tracer.spans().iter().any(|s| s.name == span),
                "{name}: no {span} span"
            );
        }
    }
}

#[test]
fn calibration_factor_is_positive() {
    let mut cal = Calibrator::new();
    assert_eq!(cal.median_sample_s(), 0.0);
    let f = cal.factor();
    assert!(f.is_finite() && f > 0.0, "factor {f}");
    assert!(cal.median_sample_s() > 0.0);
}

#[test]
fn unknown_workload_is_an_error() {
    assert!(Workload::new("nope", 1, true).is_err());
}
