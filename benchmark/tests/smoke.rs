//! Runs every workload once at tiny scale and checks the benchmark's own
//! contract: each declared metric is printed with its declared unit, no
//! operation fails, the correctness gate trips on a perturbed oracle,
//! `wire_mb` repeats for a fixed seed, and a run leaves nothing behind in
//! its working directory.

use std::path::{Path, PathBuf};
use std::process::Command;

const WORKLOADS: [&str; 3] = ["wan_train", "lan_raw_pipeline", "analyst_sessions"];

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`,
/// which lists one metric object per line.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let end = body.find(']').expect("section is a list");
    body[..end]
        .lines()
        .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
        .collect()
}

/// The string value of `"key": "..."` in `s`.
fn field(s: &str, key: &str) -> Option<String> {
    let at = s.find(&format!("\"{key}\": \""))? + key.len() + 5;
    let len = s[at..].find('"')?;
    Some(s[at..at + len].to_string())
}

struct Run {
    code: i32,
    correct: bool,
    failed: u64,
    /// `(name, value, unit)` of every printed metric.
    metrics: Vec<(String, f64, String)>,
    /// Per metric, whether the human-readable lines mark its layer as
    /// bypassed by the workload.
    bypassed: Vec<bool>,
}

fn scratch(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn run(tag: &str, workload: &str, seed: u64, trace: bool, extra: &[&str]) -> Run {
    let dir = scratch(tag);
    let out = Command::new(env!("CARGO_BIN_EXE_exdra-benchmark"))
        .current_dir(&dir)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.5", "--trace", if trace { "1" } else { "0" }])
        .args(["--scale", "tiny"])
        .args(extra)
        .output()
        .expect("benchmark binary runs");
    let leftover: Vec<_> = std::fs::read_dir(&dir).expect("scratch dir").collect();
    assert!(
        leftover.is_empty(),
        "{workload} left files behind: {leftover:?}"
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().unwrap_or_default().to_string();
    let correct = last.starts_with("{\"correct\": true");
    let failed = last
        .split("\"failed\": ")
        .nth(1)
        .and_then(|s| s.split(',').next())
        .and_then(|s| s.parse().ok())
        .unwrap_or(u64::MAX);
    let metrics: Vec<(String, f64, String)> = last
        .split("{\"value\": ")
        .skip(1)
        .zip(
            last.split("{\"value\": ")
                .map(|s| s.rsplit('"').nth(1).unwrap_or_default()),
        )
        .map(|(rest, name)| {
            let value = rest.split(',').next().and_then(|v| v.parse().ok());
            let unit = field(rest, "unit").unwrap_or_default();
            (name.to_string(), value.unwrap_or(f64::NAN), unit)
        })
        .collect();
    let bypassed = metrics
        .iter()
        .map(|(name, _, _)| {
            stdout.lines().any(|l| {
                l.starts_with(&format!("metric {name} = "))
                    && l.ends_with("(layer bypassed by this workload)")
            })
        })
        .collect();
    Run {
        bypassed,
        code: out.status.code().unwrap_or(-1),
        correct,
        failed,
        metrics,
    }
}

#[test]
fn every_workload_prints_its_declared_metrics_and_fails_nothing() {
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    let mut measured_layers = std::collections::BTreeSet::new();
    for w in WORKLOADS {
        for trace in [false, true] {
            let r = run(&format!("{w}-{trace}"), w, 7, trace, &[]);
            assert_eq!(r.code, 0, "{w} trace={trace} exit code");
            assert!(r.correct && r.failed == 0, "{w} trace={trace} failed");
            let table = if trace { &layers } else { &e2e };
            for (name, value, unit) in &r.metrics {
                let want = table.iter().find(|(n, _)| n == name);
                assert_eq!(
                    want.map(|(_, u)| u),
                    Some(unit),
                    "{w}: {name} [{unit}] undeclared"
                );
                assert!(value.is_finite(), "{w}: {name} = {value}");
            }
            let names: Vec<&str> = r.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
            let declared_names: Vec<&str> = table.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(
                names, declared_names,
                "{w} trace={trace}: every declared metric, in order"
            );
            if trace {
                assert!(names.contains(&"failed_frac") && names.contains(&"trace.overhead_frac"));
                let coverage = r.metrics.iter().find(|(n, _, _)| n == "trace.coverage");
                let coverage = coverage.expect("trace.coverage printed").1;
                if w != "analyst_sessions" {
                    assert!(
                        coverage >= 0.95,
                        "{w}: layer spans cover {coverage} of the pass"
                    );
                }
                // Each per-layer metric is measured on at least one workload.
                let measured = r
                    .metrics
                    .iter()
                    .zip(&r.bypassed)
                    .filter(|(_, bypassed)| !**bypassed);
                measured_layers.extend(measured.map(|((n, _, _), _)| n.clone()));
            } else {
                for (name, value, _) in &r.metrics {
                    assert!(*value > 0.0, "{w}: end-to-end {name} = {value}");
                }
            }
        }
    }
    let declared: std::collections::BTreeSet<String> = layers.into_iter().map(|(n, _)| n).collect();
    assert_eq!(
        measured_layers, declared,
        "every declared per-layer metric is measured on some workload"
    );
}

#[test]
fn a_perturbed_oracle_trips_the_correctness_gate() {
    for w in WORKLOADS {
        let r = run(
            &format!("{w}-perturbed"),
            w,
            7,
            false,
            &["--perturb-oracle"],
        );
        assert_ne!(r.code, 0, "{w} must exit non-zero");
        assert!(!r.correct && r.failed >= 1, "{w} must count the mismatch");
    }
}

#[test]
fn wire_bytes_repeat_for_a_fixed_seed() {
    for w in ["wan_train", "lan_raw_pipeline"] {
        let wire = |i: u32| {
            let r = run(&format!("{w}-wire{i}"), w, 3, false, &[]);
            let m = r.metrics.iter().find(|(n, _, _)| n == "wire_mb");
            m.expect("wire_mb printed").1
        };
        assert_eq!(wire(0), wire(1), "{w}");
    }
}
