//! Self-test of the benchmark: every workload at its smallest size, untraced
//! and traced, must report every metric `BENCHMARK.json` declares for that
//! mode, with the declared unit, and fail nothing.

use mcsm_num::json::JsonValue;
use std::path::Path;
use std::process::Command;

fn declared(spec: &JsonValue, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(JsonValue::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: &str) -> (JsonValue, JsonValue) {
    let output = Command::new(env!("CARGO_BIN_EXE_mcsm-perfbench"))
        .args(["--workload", workload, "--seed", "4", "--seconds", "1"])
        .args(["--trace", trace, "--size", "smallest"])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines.len() >= 2, "expected an info line and a result line");
    let parse = |line: &str| JsonValue::parse(line).expect("stdout lines are JSON");
    (parse(lines[lines.len() - 2]), parse(lines[lines.len() - 1]))
}

#[test]
fn every_workload_reports_every_declared_metric_and_fails_nothing() {
    let spec_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let spec = JsonValue::parse(&std::fs::read_to_string(spec_path).unwrap()).unwrap();
    let workloads: Vec<String> = spec
        .get("workloads")
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_string()
        })
        .collect();
    assert_eq!(workloads, ["netsim_cold", "seq_cycles", "serve_whatif"]);

    for workload in &workloads {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let (info, result) = run(workload, trace);
            let context = format!("{workload} --trace {trace}");
            assert_eq!(
                result.get("correct"),
                Some(&JsonValue::Bool(true)),
                "{context}"
            );
            assert_eq!(result.get("failed").and_then(JsonValue::as_f64), Some(0.0));
            assert!(result.get("attempted").and_then(JsonValue::as_f64).unwrap() >= 1.0);
            let failed_frac = info
                .get("failed_frac")
                .expect("info line carries failed_frac");
            assert_eq!(
                failed_frac.get("value").and_then(JsonValue::as_f64),
                Some(0.0)
            );
            assert_eq!(
                failed_frac.get("unit").and_then(JsonValue::as_str),
                Some("ratio")
            );
            assert!(info
                .get("config")
                .and_then(|c| c.get("pool_threads"))
                .is_some());

            let metrics = result.get("metrics").unwrap();
            let JsonValue::Object(reported) = metrics else {
                panic!("{context}: metrics is not an object");
            };
            let wanted = declared(&spec, list);
            assert_eq!(reported.len(), wanted.len(), "{context}: metric count");
            for (name, unit) in &wanted {
                let metric = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{context}: `{name}` missing"));
                assert_eq!(
                    metric.get("unit").and_then(JsonValue::as_str),
                    Some(unit.as_str()),
                    "{context}: unit of `{name}`"
                );
                let value = metric.get("value").and_then(JsonValue::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{context}: `{name}` = {value:?}"
                );
            }
            if trace == "1" {
                assert!(info.get("profile").and_then(|p| p.get("spans")).is_some());
            }
        }
    }
}
