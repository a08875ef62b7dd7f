//! Self-check: a tiny configuration of every workload in
//! `BENCHMARK.json` passes its correctness checks and prints exactly the
//! metrics `BENCHMARK.json` names, each with its unit — the end-to-end
//! metrics untraced, the per-layer metrics traced.
//!
//! Run with `cargo test --release --offline --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

use ssd_workload::json::Json;

fn benchmark() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// Run one tiny workload and parse the JSON result on its last line.
fn run(workload: &str, seed: &str, trace: &str) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", seed, "--seconds", "1"])
        .args(["--trace", trace, "--scale", "3000"])
        .output()
        .expect("perfbench runs");
    assert!(out.status.success(), "{workload}: exit {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).unwrap_or_else(|e| panic!("{workload}: bad result line {last:?}: {e}"))
}

fn metric_count(result: &Json) -> usize {
    match result.path(&["metrics"]) {
        Json::Obj(fields) => fields.len(),
        _ => 0,
    }
}

#[test]
fn every_listed_metric_is_printed_with_its_unit() {
    let bench = benchmark();
    let workloads = bench.path(&["workloads"]).as_array();
    assert!(workloads.len() >= 2);
    for w in workloads {
        let name = w.path(&["name"]).as_str().expect("workload name");
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let result = run(name, "7", trace);
            let problem = format!("{name} --trace {trace}: {}", result.render_short());
            assert_eq!(result.path(&["correct"]), &Json::Bool(true), "{problem}");
            assert_eq!(result.path(&["failed"]).as_u64(), Some(0), "{problem}");
            assert!(result.path(&["attempted"]).as_u64() >= Some(1), "{problem}");
            let listed = bench.path(&[list]).as_array();
            assert_eq!(metric_count(&result), listed.len(), "{problem}");
            for m in listed {
                let metric = m.path(&["name"]).as_str().expect("metric name");
                let unit = m.path(&["unit"]).as_str().expect("metric unit");
                let got = result.path(&["metrics", metric]);
                assert_eq!(
                    got.path(&["unit"]).as_str(),
                    Some(unit),
                    "{problem}: {metric}"
                );
                assert!(
                    matches!(got.path(&["value"]), Json::Num(_)),
                    "{problem}: {metric} has no numeric value"
                );
            }
        }
    }
}

#[test]
fn unknown_workload_is_refused() {
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
        .expect("perfbench runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
