//! Tiny-scale smoke runs of every workload in both modes: each must exit 0,
//! pass its output checks and print every metric `BENCHMARK.json` names
//! for that mode, by name and unit, in its last line.

use std::path::Path;
use std::process::Command;

/// Metric names listed under `section` ("end_to_end" or "per_layer") of
/// the repository's `BENCHMARK.json`.
fn listed_metrics(section: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\"")
        .skip(1)
        .map(|entry| {
            let quoted = entry.split('"').nth(1).expect("quoted name");
            quoted.to_string()
        })
        .collect()
}

fn smoke(workload: &str, trace: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_replaybench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "0",
            "--trace",
            trace,
        ])
        .args(["--scale-factor", "0.03"])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} exited {}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.starts_with("{\"provenance\": "), "{stdout}");
    for key in [
        "\"nproc\"",
        "\"available_threads\"",
        "\"git_commit\"",
        "\"vocabulary\"",
    ] {
        assert!(
            stdout.lines().next().unwrap().contains(key),
            "provenance lacks {key}"
        );
    }
    let last = stdout.lines().last().expect("some output");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    assert!(last.contains("\"failed\": 0, \"metrics\": {"), "{last}");
    let section = if trace == "1" {
        "per_layer"
    } else {
        "end_to_end"
    };
    let names = listed_metrics(section);
    assert!(names.len() >= 8, "{section}: {names:?}");
    for name in &names {
        let field = format!("\"{name}\": {{\"value\": ");
        assert!(
            last.contains(&field),
            "{workload} --trace {trace} lacks {name}: {last}"
        );
    }
    assert_eq!(
        last.matches("\"unit\": ").count(),
        names.len(),
        "{workload} --trace {trace} prints metrics BENCHMARK.json does not list: {last}"
    );
}

#[test]
fn daily_k24_end_to_end() {
    smoke("daily-k24", "0");
}

#[test]
fn daily_k24_traced() {
    smoke("daily-k24", "1");
}

#[test]
fn backfill_k8_end_to_end() {
    smoke("backfill-k8", "0");
}

#[test]
fn backfill_k8_traced() {
    smoke("backfill-k8", "1");
}

#[test]
fn sharded_service_end_to_end() {
    smoke("sharded-service", "0");
}

#[test]
fn sharded_service_traced() {
    smoke("sharded-service", "1");
}

#[test]
fn unknown_workload_exits_2_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_replaybench"))
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
        .expect("run the benchmark");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
