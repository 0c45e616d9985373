//! Runs every workload at tiny scale, untraced and traced, and checks the
//! result line against `BENCHMARK.json`: every check passes, nothing
//! fails, untraced runs print exactly the end-to-end metrics and traced
//! runs exactly the per-layer metrics, each with its unit.

use pbp_trace::json::Json;
use std::collections::BTreeMap;
use std::process::Command;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `name -> unit` of one metric list of `BENCHMARK.json`.
fn declared(doc: &Json, list: &str) -> BTreeMap<String, String> {
    doc.get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).expect("name and unit");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

/// Runs one tiny run; returns its result object.
fn run(workload: &str, trace: u8) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.2"])
        .args(["--trace", &trace.to_string(), "--tiny"])
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace {trace} exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).expect("result line is JSON")
}

/// Metric `name -> unit` of a result, after checking its outcome fields.
fn metrics(result: &Json, context: &str) -> BTreeMap<String, String> {
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{context}");
    assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
    let fields = result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics");
    fields
        .iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .expect("numeric value");
            assert!(value.is_finite(), "{context}: {name} = {value}");
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            (name.clone(), unit.to_string())
        })
        .collect()
}

fn check_workload(workload: &str) {
    let doc = benchmark_json();
    let got = metrics(&run(workload, 0), workload);
    assert_eq!(
        got,
        declared(&doc, "end_to_end"),
        "{workload}: end-to-end metrics"
    );
    let got = metrics(&run(workload, 1), workload);
    assert_eq!(
        got,
        declared(&doc, "per_layer"),
        "{workload}: per-layer metrics"
    );
}

#[test]
fn train_cnn_tiny() {
    check_workload("train-cnn");
}

#[test]
fn train_mlp_pipe_tiny() {
    check_workload("train-mlp-pipe");
}

#[test]
fn serve_vgg_tiny() {
    check_workload("serve-vgg");
}

#[test]
fn rejects_an_unknown_workload() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run perfbench");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
