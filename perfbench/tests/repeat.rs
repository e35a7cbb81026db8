//! Runs the benchmark binary from the command line and checks what the traced
//! run reports: every exact count (simulated messages per call and phase,
//! search counts, allocation counts and bytes) repeats across two processes,
//! the default seed reproduces `expected.json`, and BENCHMARK.json declares
//! every per-layer metric the workloads measure.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`; an
//! unoptimised build takes minutes.

use std::collections::BTreeMap;
use std::process::Command;

use serde_json::Value;

const WORKLOADS: [&str; 4] = ["construct", "repair", "burst", "fleet"];

struct Traced {
    correct: bool,
    /// Metric name to (value, unit).
    metrics: BTreeMap<String, (f64, String)>,
    stderr: String,
}

fn traced_run(workload: &str, seed: Option<&str>) -> Traced {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_kkt-perfbench"));
    cmd.args(["--workload", workload, "--seconds", "1", "--trace", "1"]);
    if let Some(seed) = seed {
        cmd.args(["--seed", seed]);
    }
    let out = cmd.output().expect("the benchmark binary runs");
    assert!(out.status.success(), "{workload}: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    let result: Value = serde_json::from_str(last).expect("the result line is JSON");
    let Some(Value::Object(metrics)) = result.get("metrics") else { panic!("no metrics: {last}") };
    let metrics = metrics
        .iter()
        .map(|(name, m)| {
            let value = match m.get("value") {
                Some(Value::Float(v)) => *v,
                other => panic!("{name}: value {other:?}"),
            };
            let Some(Value::String(unit)) = m.get("unit") else { panic!("{name}: no unit") };
            (name.clone(), (value, unit.clone()))
        })
        .collect();
    Traced {
        correct: result.get("correct") == Some(&Value::Bool(true)),
        metrics,
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    }
}

/// The exact metrics: counts, and allocated MiB (bytes over a power of two).
fn exact(run: &Traced) -> BTreeMap<&str, f64> {
    run.metrics
        .iter()
        .filter(|(_, (_, unit))| unit == "count" || unit == "MiB")
        .map(|(name, (value, _))| (name.as_str(), *value))
        .collect()
}

#[test]
fn exact_counts_repeat_across_processes() {
    for workload in WORKLOADS {
        let (a, b) = (traced_run(workload, Some("7")), traced_run(workload, Some("7")));
        assert!(a.correct && b.correct, "{workload}: a repetition failed");
        assert_eq!(exact(&a), exact(&b), "{workload}: exact counts differ between processes");
    }
}

#[test]
fn default_seed_matches_the_record_and_every_layer_shows_somewhere() {
    let mut shown: BTreeMap<String, bool> = BTreeMap::new();
    for workload in WORKLOADS {
        let run = traced_run(workload, None);
        assert!(run.correct, "{workload}: the default seed must reproduce expected.json");
        assert!(!run.stderr.contains("not declared"), "{workload}: {}", run.stderr);
        for (name, (value, _)) in &run.metrics {
            *shown.entry(name.clone()).or_default() |= *value != 0.0;
        }
    }
    let never: Vec<&String> = shown.iter().filter(|(_, &seen)| !seen).map(|(n, _)| n).collect();
    assert!(never.is_empty(), "declared per-layer metrics no workload measures: {never:?}");
}
