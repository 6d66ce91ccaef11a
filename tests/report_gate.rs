//! End-to-end test of the `incognito-report` regression gate: identical
//! reports pass (exit 0), a synthetically injected over-threshold
//! counter regression fails (exit 1), and a workload mismatch is a
//! usage error (exit 2), matching the contract in
//! `src/bin/incognito_report.rs`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use incognito::obs::Json;

/// A minimal but schema-faithful `BENCH_*.json` document.
fn bench_doc(rows: i64, nodes_checked: i64, wall: f64) -> String {
    bench_doc_with_peak(rows, nodes_checked, wall, 1_000_000)
}

fn bench_doc_with_peak(rows: i64, nodes_checked: i64, wall: f64, peak: i64) -> String {
    bench_doc_with_scans(rows, nodes_checked, wall, peak, 80)
}

/// `scans` is the engine's `table.scan.count` counter in the run's
/// `metrics` object, next to the `table.scan` span's timer.
fn bench_doc_with_scans(rows: i64, nodes_checked: i64, wall: f64, peak: i64, scans: i64) -> String {
    let mut run = Json::obj();
    run.set("label", "Basic Incognito");
    run.set("dataset", "adults");
    run.set("k", 2i64);
    run.set("qi_arity", 5i64);
    run.set("wall_secs", wall);
    run.set("generalizations", 65i64);
    let mut stats = Json::obj();
    stats.set("nodes_checked", nodes_checked);
    stats.set("table_scans", 80i64);
    run.set("stats", stats);
    let mut mem = Json::obj();
    mem.set("peak_live_bytes", peak);
    mem.set("live_bytes", 64i64);
    mem.set("allocated_bytes", 4 * peak);
    mem.set("allocs", 5_000i64);
    run.set("memory", mem);
    let mut timer = Json::obj();
    timer.set("count", scans);
    timer.set("total_ns", (wall * 1e9) as i64);
    let mut metrics = Json::obj();
    metrics.set("table.scan.time", timer);
    metrics.set("table.scan.count", scans);
    run.set("metrics", metrics);
    let mut doc = Json::obj();
    doc.set("name", "gate_selftest");
    doc.set("report_version", 1i64);
    doc.set("unix_time", 0i64);
    doc.set("git", "test");
    doc.set("rows_adults", rows);
    doc.set("runs", Json::Arr(vec![run]));
    doc.to_pretty_string()
}

fn write_doc(dir: &Path, text: &str) {
    fs::create_dir_all(dir).unwrap();
    fs::write(dir.join("BENCH_gate_selftest.json"), text).unwrap();
}

fn run_gate(baseline: &Path, candidate: &Path, threshold: &str) -> (Option<i32>, String, String) {
    run_gate_with(baseline, candidate, threshold, &[])
}

fn run_gate_with(
    baseline: &Path,
    candidate: &Path,
    threshold: &str,
    extra: &[&str],
) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_incognito-report"))
        .args([
            "gate",
            "--baseline",
            baseline.to_str().unwrap(),
            "--candidate",
            candidate.to_str().unwrap(),
            "--threshold",
            threshold,
        ])
        .args(extra)
        .output()
        .expect("spawn incognito-report");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn gate_binary_exit_codes_match_the_contract() {
    let tmp: PathBuf =
        std::env::temp_dir().join(format!("incognito_gate_test_{}", std::process::id()));
    let baseline = tmp.join("baseline");
    let candidate = tmp.join("candidate");
    write_doc(&baseline, &bench_doc(1000, 100, 0.010));

    // Identical candidate: clean pass.
    write_doc(&candidate, &bench_doc(1000, 100, 0.010));
    let (code, stdout, _) = run_gate(&baseline, &candidate, "10");
    assert_eq!(code, Some(0), "identical reports must pass\n{stdout}");
    assert!(stdout.contains("gate: PASS"), "{stdout}");

    // Injected +20% nodes_checked at threshold 10%: regression, exit 1.
    write_doc(&candidate, &bench_doc(1000, 120, 0.010));
    let (code, stdout, stderr) = run_gate(&baseline, &candidate, "10");
    assert_eq!(code, Some(1), "regression must fail\n{stdout}{stderr}");
    assert!(stderr.contains("REGRESSION") && stderr.contains("stats.nodes_checked"), "{stderr}");

    // The same movement under a generous threshold passes.
    let (code, _, _) = run_gate(&baseline, &candidate, "25");
    assert_eq!(code, Some(0), "within-threshold movement must pass");

    // A slower wall clock alone never fails without --gate-timings.
    write_doc(&candidate, &bench_doc(1000, 100, 5.0));
    let (code, _, _) = run_gate(&baseline, &candidate, "10");
    assert_eq!(code, Some(0), "timings are not gated by default");

    // Different workload (row count): mismatch, exit 2 — not a regression.
    write_doc(&candidate, &bench_doc(2000, 100, 0.010));
    let (code, _, stderr) = run_gate(&baseline, &candidate, "10");
    assert_eq!(code, Some(2), "workload mismatch must be a usage error\n{stderr}");
    assert!(stderr.contains("mismatch"), "{stderr}");

    // Missing candidate report: IO error, exit 2.
    fs::remove_file(candidate.join("BENCH_gate_selftest.json")).unwrap();
    let (code, _, _) = run_gate(&baseline, &candidate, "10");
    assert_eq!(code, Some(2), "missing candidate must be a usage error");

    fs::remove_dir_all(&tmp).unwrap();
}

#[test]
fn memory_gate_catches_injected_peak_regressions() {
    let tmp: PathBuf =
        std::env::temp_dir().join(format!("incognito_memgate_test_{}", std::process::id()));
    let baseline = tmp.join("baseline");
    let candidate = tmp.join("candidate");
    write_doc(&baseline, &bench_doc_with_peak(1000, 100, 0.010, 1_000_000));

    // Identical memory accounting: clean pass with the gate armed.
    write_doc(&candidate, &bench_doc_with_peak(1000, 100, 0.010, 1_000_000));
    let (code, stdout, _) = run_gate_with(&baseline, &candidate, "10", &["--memory"]);
    assert_eq!(code, Some(0), "identical memory must pass\n{stdout}");

    // Injected +50% peak: invisible without --memory...
    write_doc(&candidate, &bench_doc_with_peak(1000, 100, 0.010, 1_500_000));
    let (code, _, _) = run_gate(&baseline, &candidate, "10");
    assert_eq!(code, Some(0), "memory is not gated by default");

    // ...caught with it (default 25% memory band), exit 1.
    let (code, stdout, stderr) = run_gate_with(&baseline, &candidate, "10", &["--memory"]);
    assert_eq!(code, Some(1), "peak regression must fail\n{stdout}{stderr}");
    assert!(
        stderr.contains("REGRESSION") && stderr.contains("memory.peak_live_bytes"),
        "{stderr}"
    );

    // A widened band tolerates it.
    let (code, _, _) =
        run_gate_with(&baseline, &candidate, "10", &["--memory", "--mem-threshold", "60"]);
    assert_eq!(code, Some(0), "within-band memory growth must pass");

    fs::remove_dir_all(&tmp).unwrap();
}

#[test]
fn diff_subcommand_prints_the_delta_table() {
    let tmp: PathBuf =
        std::env::temp_dir().join(format!("incognito_diff_test_{}", std::process::id()));
    fs::create_dir_all(&tmp).unwrap();
    let old = tmp.join("old.json");
    let new = tmp.join("new.json");
    fs::write(&old, bench_doc(1000, 100, 0.010)).unwrap();
    fs::write(&new, bench_doc(1000, 120, 0.012)).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_incognito-report"))
        .args(["diff", old.to_str().unwrap(), new.to_str().unwrap()])
        .output()
        .expect("spawn incognito-report");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("stats.nodes_checked") && stdout.contains("+20.0%"), "{stdout}");
    fs::remove_dir_all(&tmp).unwrap();
}

#[test]
fn engine_metric_counters_are_diffed_and_gated() {
    let tmp: PathBuf =
        std::env::temp_dir().join(format!("incognito_metrics_gate_test_{}", std::process::id()));
    let baseline = tmp.join("baseline");
    let candidate = tmp.join("candidate");
    write_doc(&baseline, &bench_doc_with_scans(1000, 100, 0.010, 1_000_000, 80));

    // +12.5% table scans with every other field unchanged: `diff` shows
    // the counter move...
    write_doc(&candidate, &bench_doc_with_scans(1000, 100, 0.010, 1_000_000, 90));
    let out = Command::new(env!("CARGO_BIN_EXE_incognito-report"))
        .args(["diff"])
        .arg(baseline.join("BENCH_gate_selftest.json"))
        .arg(candidate.join("BENCH_gate_selftest.json"))
        .output()
        .expect("spawn incognito-report");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("metrics.table.scan.count") && stdout.contains("+12.5%"), "{stdout}");

    // ...and the gate fails on it at 5%, without --gate-timings.
    let (code, stdout, stderr) = run_gate(&baseline, &candidate, "5");
    assert_eq!(code, Some(1), "a metrics counter regression must fail\n{stdout}{stderr}");
    assert!(stderr.contains("metrics.table.scan.count"), "{stderr}");

    // The span timer is a timing: a slower scan alone passes by default
    // and fails under --gate-timings.
    write_doc(&candidate, &bench_doc_with_scans(1000, 100, 0.020, 1_000_000, 80));
    let (code, _, _) = run_gate(&baseline, &candidate, "5");
    assert_eq!(code, Some(0), "timers are not gated by default");
    let (code, _, stderr) = run_gate_with(&baseline, &candidate, "5", &["--gate-timings"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("metrics.table.scan.time"), "{stderr}");

    fs::remove_dir_all(&tmp).unwrap();
}

#[test]
fn bad_usage_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_incognito-report"))
        .output()
        .expect("spawn incognito-report");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}
