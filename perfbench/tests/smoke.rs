//! Runs every workload at smoke size, untraced and traced, and checks the
//! result line against `BENCHMARK.json`: every metric it names is present,
//! no call failed, the work and traffic counts are non-zero, the traced
//! replay equals the untraced call, and the counts repeat exactly from one
//! run to the next.
//!
//! `cargo test --release --offline --manifest-path perfbench/Cargo.toml`

use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["web_fast", "mesh_fast", "web_eco"];

/// Metric names listed under `section` in the repository's BENCHMARK.json.
fn listed(section: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("the section is a list")];
    body.split("\"name\"")
        .skip(1)
        .map(|entry| entry.split('"').nth(1).expect("a quoted name").to_string())
        .collect()
}

/// Runs the benchmark; returns (stdout, last line).
fn run(workload: &str, seed: u64, trace: u8) -> (String, String) {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", &trace.to_string(), "--smoke"])
        .arg("--out")
        .arg(&out_dir)
        .output()
        .expect("the benchmark starts");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace {trace} exited with {}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line").to_string();
    (stdout, last)
}

/// The value of metric `name` in a result line.
fn value(line: &str, name: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let start = line
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing from {line}"))
        + key.len();
    let rest = &line[start..];
    rest[..rest.find(',').expect("value ends")]
        .parse()
        .expect("a number")
}

fn assert_ok(line: &str) {
    assert!(line.starts_with("{\"correct\": true,"), "{line}");
    assert!(line.contains("\"failed\": 0,"), "{line}");
}

/// Work and traffic counts, which must be non-zero and repeat exactly.
fn is_count(name: &str) -> bool {
    [
        ".calls",
        ".msgs",
        ".bytes",
        ".rounds",
        ".moves",
        ".adj_scanned",
        ".levels",
        ".coarse_m",
        ".coarsest_n",
        ".coarsest_m",
        ".ghosts",
    ]
    .iter()
    .any(|suffix| name.ends_with(suffix))
}

#[test]
fn end_to_end_metrics_are_present_and_non_zero() {
    let names = listed("end_to_end");
    assert!(names.iter().any(|n| n == "setup_s"));
    for workload in WORKLOADS {
        let (_, line) = run(workload, 2, 0);
        assert_ok(&line);
        for name in &names {
            assert!(
                value(&line, name) > 0.0,
                "{workload}: {name} is not positive"
            );
        }
    }
}

#[test]
fn replay_is_exact_and_counts_repeat() {
    let names = listed("per_layer");
    for workload in WORKLOADS {
        let (stdout, first) = run(workload, 1, 1);
        assert_ok(&first);
        assert!(
            stdout.contains("equal to their untraced calls, counts_repeat true"),
            "{workload}: replay differs or counts vary:\n{stdout}"
        );
        let (_, second) = run(workload, 1, 1);
        assert_ok(&second);
        for name in &names {
            let v = value(&first, name);
            if is_count(name) {
                assert!(v > 0.0, "{workload}: {name} is zero");
                assert_eq!(v, value(&second, name), "{workload}: {name} did not repeat");
            }
        }
    }
}
