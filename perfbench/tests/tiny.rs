//! Runs every workload at the tiny sizes, untraced and traced, and checks
//! the result records against `BENCHMARK.json`.

use std::process::Command;

use wsn_bench::json::Json;

fn benchmark_spec() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(j: &'a Json, key: &str) -> &'a [Json] {
    match j.get(key) {
        Some(Json::Arr(items)) => items,
        other => panic!("{key}: expected an array, got {other:?}"),
    }
}

fn text<'a>(j: &'a Json, key: &str) -> &'a str {
    match j.get(key) {
        Some(Json::Str(s)) => s,
        other => panic!("{key}: expected a string, got {other:?}"),
    }
}

fn num(j: &Json, key: &str) -> f64 {
    match j.get(key) {
        Some(Json::Num(x)) => *x,
        other => panic!("{key}: expected a number, got {other:?}"),
    }
}

/// Runs the benchmark; returns its `_meta` record and its result record.
fn run(workload: &str, trace: u8) -> (Json, Json) {
    let out_dir = concat!(env!("CARGO_TARGET_TMPDIR"), "/spans");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "1",
            "--seconds",
            "0.2",
            "--tiny",
        ])
        .args(["--trace", &trace.to_string(), "--out", out_dir])
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace={trace} exited {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    let [.., meta, record] = lines[..] else {
        panic!("expected a _meta line and a result line, got {stdout}");
    };
    let meta = Json::parse(meta).expect("meta parses");
    let meta = meta.get("_meta").expect("_meta record").clone();
    (meta, Json::parse(record).expect("result parses"))
}

fn check(workload: &str, trace: u8, metric_list: &str) -> (Json, Json) {
    let (meta, record) = run(workload, trace);
    let Json::Obj(entries) = &record else {
        panic!("result is not an object")
    };
    let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(record.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(num(&record, "failed"), 0.0);
    assert!(num(&record, "attempted") >= 1.0);
    assert_eq!(num(&meta, "error_rate"), 0.0);

    let metrics = record.get("metrics").expect("metrics");
    let Json::Obj(printed) = metrics else {
        panic!("metrics is not an object")
    };
    let spec = benchmark_spec();
    let declared = list(&spec, metric_list);
    assert_eq!(
        printed.len(),
        declared.len(),
        "{workload}: one entry per metric"
    );
    for m in declared {
        let name = text(m, "name");
        let got = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: {name} not printed"));
        assert_eq!(
            text(got, "unit"),
            text(m, "unit"),
            "{workload}: {name} unit"
        );
        let value = num(got, "value");
        assert!(value.is_finite(), "{workload}: {name} = {value}");
        if metric_list == "end_to_end" {
            assert!(value > 0.0, "{workload}: {name} = {value} must not be 0");
        }
    }
    (meta, record)
}

fn workload(name: &str) {
    let (meta, _) = check(name, 0, "end_to_end");
    assert_eq!(
        text(&meta, "pin_status"),
        "match",
        "{name}: pinned statistics"
    );
    // A failed replay comparison would have failed the run above; the
    // traced replay must also account for nearly all of its wall time.
    let (_, record) = check(name, 1, "per_layer");
    let coverage = num(
        record
            .get("metrics")
            .unwrap()
            .get("trace.coverage")
            .unwrap(),
        "value",
    );
    assert!(coverage >= 0.95, "{name}: trace.coverage {coverage}");
}

#[test]
fn paper_static() {
    workload("paper-static");
}

#[test]
fn dynamic_churn() {
    workload("dynamic-churn");
}

#[test]
fn serve_audited() {
    workload("serve-audited");
}

#[test]
fn fuzz_campaign() {
    workload("fuzz-campaign");
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
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
        .expect("the benchmark runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
