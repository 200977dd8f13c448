//! Self-test: every workload at its shortest length, untraced and traced,
//! prints exactly the metrics `BENCHMARK.json` names and passes the
//! correctness gate.
//!
//! Run with `cargo test --release --manifest-path fleetbench/Cargo.toml`
//! from the repository root; it builds the repository's `aicd` for the
//! `rpc-churn` workload.

use std::path::{Path, PathBuf};
use std::process::Command;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("fleetbench sits in the repository")
        .to_path_buf()
}

/// `"name": "…"` values of one top-level array of `BENCHMARK.json`.
fn names(doc: &str, key: &str) -> Vec<String> {
    let start = doc
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &doc[start..];
    let end = body.find(']').expect("array closes");
    body[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_string())
        .collect()
}

fn aicd() -> PathBuf {
    let root = repo_root();
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .map(|t| if t.is_absolute() { t } else { root.join(t) })
        .unwrap_or_else(|| root.join("target"));
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .current_dir(&root)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "aic-ckpt",
            "--bin",
            "aicd",
        ])
        .env("CARGO_TARGET_DIR", &target)
        .status()
        .expect("run cargo");
    assert!(status.success(), "building aicd failed");
    target.join("release").join("aicd")
}

/// The metric names of the result line (the last stdout line).
fn result_metrics(stdout: &str) -> (bool, Vec<String>) {
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": "), "result line: {last}");
    let correct = last.starts_with("{\"correct\": true");
    let metrics = &last[last.find("\"metrics\": {").expect("metrics") + 12..];
    // Each piece but the last ends with a metric's opening quote and name.
    let pieces: Vec<&str> = metrics.split("\": {\"value\": ").collect();
    let mut out: Vec<String> = pieces[..pieces.len() - 1]
        .iter()
        .filter_map(|s| s.rsplit_once('"').map(|(_, n)| n.to_string()))
        .collect();
    out.sort();
    (correct, out)
}

#[test]
fn every_workload_prints_every_metric_and_passes_the_gate() {
    let root = repo_root();
    let doc = std::fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let aicd = aicd();
    for workload in names(&doc, "workloads") {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_fleetbench"))
                .current_dir(&root)
                .args(["--workload", &workload, "--seed", "7", "--seconds", "1"])
                .args(["--trace", trace, "--aicd"])
                .arg(&aicd)
                .output()
                .expect("run fleetbench");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} trace {trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let (correct, got) = result_metrics(&stdout);
            assert!(correct, "{workload} trace {trace}: gate failed:\n{stdout}");
            let mut want = names(&doc, key);
            want.sort();
            assert_eq!(got, want, "{workload} trace {trace}: metric names");
        }
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_fleetbench"))
        .args([
            "--workload",
            "no-such",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run fleetbench");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
