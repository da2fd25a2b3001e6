//! Runs every workload at smoke size, untraced and traced, and holds the
//! names it prints against the ones `BENCHMARK.json` declares, so that
//! neither side can drift without the other.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use serde_json::Value;

fn names(list: &Value) -> BTreeSet<String> {
    let entries = list.as_array().expect("a list of declarations");
    let names: BTreeSet<String> = entries
        .iter()
        .map(|e| {
            e.get_field("name")
                .and_then(Value::as_str)
                .expect("a name")
                .to_string()
        })
        .collect();
    assert_eq!(names.len(), entries.len(), "a name is declared twice");
    names
}

/// The last line a smoke run of `workload` prints, parsed.
fn run(workload: &str, trace: &str) -> Value {
    let output = Command::new(env!("CARGO_BIN_EXE_evabench"))
        .args([
            "run",
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--smoke",
        ])
        .output()
        .expect("spawn evabench");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed:\n{stderr}"
    );
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let line = stdout.lines().last().expect("a result line");
    serde_json::from_str_value(line).expect("the last line is JSON")
}

#[test]
fn every_workload_prints_exactly_the_declared_metrics() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(manifest).expect("BENCHMARK.json at the repository root");
    let declared = serde_json::from_str_value(&text).expect("BENCHMARK.json parses");
    let workloads = names(declared.get_field("workloads").expect("workloads"));
    let end_to_end = names(declared.get_field("end_to_end").expect("end_to_end"));
    let per_layer = names(declared.get_field("per_layer").expect("per_layer"));
    assert!(end_to_end.contains("setup_s"));

    // The binary refuses a workload it does not know, so running the
    // declared ones and finding all four known shows the sets are equal.
    assert_eq!(workloads.len(), 4);
    let mut stratus_costs = Vec::new();
    for workload in &workloads {
        for (trace, expected) in [("0", &end_to_end), ("1", &per_layer)] {
            let result = run(workload, trace);
            assert_eq!(
                result.get_field("correct"),
                Some(&Value::Bool(true)),
                "{workload}"
            );
            let keys: Vec<&str> = result
                .as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let metrics = result
                .get_field("metrics")
                .and_then(Value::as_object)
                .expect("metrics");
            let printed: BTreeSet<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
            assert_eq!(&printed, expected, "{workload} --trace {trace}");
            if trace == "0" && workload.ends_with("_stratus") {
                stratus_costs.push(
                    result
                        .get_field("metrics")
                        .unwrap()
                        .get_field("cost_usd")
                        .cloned(),
                );
            }
        }
    }
    assert_eq!(stratus_costs.len(), 2);
    assert_eq!(
        stratus_costs[0], stratus_costs[1],
        "batch and streamed Stratus runs of one seed cost the same"
    );
}

#[test]
fn an_unknown_workload_is_refused_without_a_result() {
    let output = Command::new(env!("CARGO_BIN_EXE_evabench"))
        .args(["run", "--workload", "no_such_workload", "--smoke"])
        .output()
        .expect("spawn evabench");
    assert!(!output.status.success());
    assert!(output.stdout.is_empty());
}
