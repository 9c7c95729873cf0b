//! Runs every workload once in quick mode, untraced and traced, and checks
//! each result line against `BENCHMARK.json`: every output check passed,
//! and the metrics are exactly the manifest's end-to-end (or per-layer)
//! names with the manifest's units.

use std::path::{Path, PathBuf};
use std::process::Command;
use trace::json::{self, JsonValue};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits inside the repository")
        .to_path_buf()
}

/// The bench binary's target directory, where the daemon is built too.
fn target_dir() -> PathBuf {
    let exe = Path::new(env!("CARGO_BIN_EXE_cmmf-perfbench"));
    exe.parent()
        .and_then(Path::parent)
        .expect("binary lives in <target>/<profile>/")
        .to_path_buf()
}

fn build_daemon() -> PathBuf {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "--offline",
            "--bin",
            "cmmf-serve",
        ])
        .arg("--manifest-path")
        .arg(repo_root().join("Cargo.toml"))
        .arg("--target-dir")
        .arg(target_dir())
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building cmmf-serve failed");
    target_dir().join("release").join("cmmf-serve")
}

fn manifest() -> JsonValue {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    json::parse(&text).expect("BENCHMARK.json is JSON")
}

/// `(name, unit)` of every metric in a manifest section.
fn metric_table(m: &JsonValue, section: &str) -> Vec<(String, String)> {
    let field = |e: &JsonValue, k: &str| e.get(k).and_then(JsonValue::as_str).unwrap().to_string();
    m.get(section)
        .and_then(JsonValue::as_array)
        .unwrap()
        .iter()
        .map(|e| (field(e, "name"), field(e, "unit")))
        .collect()
}

#[test]
fn every_workload_reports_the_manifest_metrics() {
    let daemon = build_daemon();
    let m = manifest();
    let workloads: Vec<String> = m
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
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let mut expected = metric_table(&m, section);
        expected.sort();
        let out = Command::new(env!("CARGO_BIN_EXE_cmmf-perfbench"))
            .args([
                "--workload",
                "all",
                "--seed",
                "7",
                "--seconds",
                "0",
                "--trace",
                trace,
                "--quick",
            ])
            .arg("--serve-bin")
            .arg(&daemon)
            .arg("--work-dir")
            .arg(target_dir().join(format!("perfbench-quick-{trace}")))
            .output()
            .expect("benchmark runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "trace {trace} failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let lines: Vec<&str> = stdout.lines().collect();
        for name in &workloads {
            let at = lines
                .iter()
                .position(|l| l == name)
                .unwrap_or_else(|| panic!("no result for {name}"));
            let result = json::parse(lines[at + 1]).expect("result line is JSON");
            assert_eq!(
                result.get("correct").and_then(JsonValue::as_bool),
                Some(true)
            );
            assert_eq!(result.get("failed").and_then(JsonValue::as_u64), Some(0));
            assert!(result.get("attempted").and_then(JsonValue::as_u64) >= Some(1));
            let JsonValue::Object(metrics) = result.get("metrics").unwrap() else {
                panic!("metrics is not an object");
            };
            let mut got: Vec<(String, String)> = metrics
                .iter()
                .map(|(k, v)| {
                    assert!(
                        v.get("value").and_then(JsonValue::as_f64).is_some(),
                        "{k} has no value"
                    );
                    (
                        k.clone(),
                        v.get("unit")
                            .and_then(JsonValue::as_str)
                            .unwrap()
                            .to_string(),
                    )
                })
                .collect();
            got.sort();
            assert_eq!(got, expected, "{name} (trace {trace})");
        }
    }
}
