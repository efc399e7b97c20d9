//! Smoke test: every workload runs its minimum number of passes in both
//! modes, reports every metric `BENCHMARK.json` declares with its unit,
//! fails nothing, and repeats its counts exactly for one seed.
//!
//! Timings only mean something in an optimized build:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::Path;
use std::process::Command;

/// `(name, unit)` of each metric in one `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let spec = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let start = spec.find(&format!("\"{section}\"")).expect("section");
    let body = &spec[start..];
    let body = &body[..body.find(']').expect("section end")];
    let field = |entry: &str, key: &str| {
        let at = entry.find(&format!("\"{key}\": \"")).expect("field") + key.len() + 5;
        entry[at..].split('"').next().expect("value").to_owned()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

/// Runs one workload for its minimum passes; returns the JSON result line.
fn run(workload: &str, trace: u8) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(root)
        .args(["--workload", workload, "--seed", "1", "--seconds", "0"])
        .args(["--trace", &trace.to_string()])
        .output()
        .expect("benchmark runs");
    assert!(out.status.success(), "{workload}: exit {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let last = stdout.lines().last().expect("result line").to_owned();
    assert!(
        last.starts_with("{\"correct\": true, ") && last.contains("\"failed\": 0,"),
        "{workload} trace {trace}: {last}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    last
}

/// The value printed for metric `name`.
fn value<'a>(result: &'a str, name: &str) -> &'a str {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = result
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing"))
        + key.len();
    result[at..].split(',').next().expect("value")
}

fn check(workload: &str) {
    let result = run(workload, 0);
    for (name, unit) in declared("end_to_end") {
        assert!(
            value(&result, &name).parse::<f64>().expect("number") > 0.0,
            "{name}"
        );
        assert!(result.contains(&format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            value(&result, &name)
        )));
    }
    let first = run(workload, 1);
    let again = run(workload, 1);
    for (name, unit) in declared("per_layer") {
        let v = value(&first, &name);
        assert!(first.contains(&format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        )));
        if unit == "count" {
            assert_eq!(
                v,
                value(&again, &name),
                "{workload}: {name} differs between runs"
            );
        }
    }
}

#[test]
fn sweep_smoke() {
    check("sweep");
}

#[test]
fn tune_smoke() {
    check("tune");
}

#[test]
fn serve_smoke() {
    check("serve");
}

#[test]
fn bad_arguments_fail_without_a_result() {
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
        .expect("benchmark runs");
    assert!(!out.status.success());
    assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
}
