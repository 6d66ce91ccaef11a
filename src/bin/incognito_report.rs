//! `incognito-report` — compare, gate, and explain the observability
//! artifacts under `results/`.
//!
//! ```text
//! incognito-report diff <old.json> <new.json> [--timings] [--memory] [--threshold <pct>] [--mem-threshold <pct>]
//! incognito-report gate --baseline <dir> [--candidate <dir>] [--threshold <pct>] [--gate-timings] [--memory] [--mem-threshold <pct>]
//! incognito-report explain <trace.json>
//! ```
//!
//! * `diff` prints a per-metric delta table between two `BENCH_*.json`
//!   reports (counters by default; add `--timings` for wall clocks,
//!   `--memory` for allocation accounting).
//! * `gate` pairs every `BENCH_*.json` in the baseline directory with the
//!   same-named file in the candidate directory (default `results/`) and
//!   fails when any gated metric regresses past the threshold (default
//!   5%). Deterministic counters (`stats.*`, `generalizations`,
//!   `minimal_height`, and the engine counters under `metrics.*`) are
//!   always gated; timings (wall clocks, phases, span timers
//!   `metrics.<span>.time`) only with `--gate-timings`; allocation
//!   metrics (`memory.peak_live_bytes`, `memory.allocated_bytes`,
//!   `memory.allocs`) only with `--memory`, against their own
//!   `--mem-threshold` band (default 25% — peaks move with allocator
//!   layout and scheduling, not just with the algorithm).
//! * `explain` folds a `TRACE_*.json` Chrome trace back into the
//!   per-iteration search plan and a span profile.
//!
//! Exit codes: 0 clean, 1 regression, 2 usage / IO / workload mismatch.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use incognito::report::{diff, explain_trace, gate, load_trace, render_diff, BenchDoc, GateConfig};

const USAGE: &str = "\
usage:
  incognito-report diff <old.json> <new.json> [--timings] [--memory] [--threshold <pct>] [--mem-threshold <pct>]
  incognito-report gate --baseline <dir> [--candidate <dir>] [--threshold <pct>] [--gate-timings] [--memory] [--mem-threshold <pct>]
  incognito-report explain <trace.json>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(message) => {
            eprintln!("incognito-report: {message}");
            ExitCode::from(2)
        }
    }
}

/// `Ok(true)` = exit 0, `Ok(false)` = regression (exit 1),
/// `Err` = usage / IO / mismatch (exit 2).
fn run(args: &[String]) -> Result<bool, String> {
    let threshold: f64 = match flag_value(args, "--threshold") {
        Some(v) => v.parse().map_err(|_| format!("bad --threshold value: {v}"))?,
        None => 5.0,
    };
    let mem_threshold: f64 = match flag_value(args, "--mem-threshold") {
        Some(v) => v.parse().map_err(|_| format!("bad --mem-threshold value: {v}"))?,
        None => 25.0,
    };
    match args.first().map(String::as_str) {
        Some("diff") => {
            let paths: Vec<&String> = args[1..].iter().filter(|a| !a.starts_with("--")).collect();
            let [old_path, new_path] = paths.as_slice() else {
                return Err(format!("diff needs exactly two report paths\n{USAGE}"));
            };
            let old = BenchDoc::load(Path::new(old_path))?;
            let new = BenchDoc::load(Path::new(new_path))?;
            print!(
                "{}",
                render_diff(
                    &diff(&old, &new),
                    has_flag(args, "--timings"),
                    has_flag(args, "--memory"),
                    threshold,
                    mem_threshold,
                )
            );
            Ok(true)
        }
        Some("gate") => {
            let baseline = PathBuf::from(
                flag_value(args, "--baseline")
                    .ok_or(format!("gate needs --baseline <dir>\n{USAGE}"))?,
            );
            let candidate = PathBuf::from(
                flag_value(args, "--candidate").unwrap_or_else(|| "results".to_owned()),
            );
            let cfg = GateConfig {
                threshold_pct: threshold,
                gate_timings: has_flag(args, "--gate-timings"),
                gate_memory: has_flag(args, "--memory"),
                memory_threshold_pct: mem_threshold,
            };
            gate_dirs(&baseline, &candidate, &cfg)
        }
        Some("explain") => {
            let path = args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .ok_or(format!("explain needs a trace path\n{USAGE}"))?;
            let records = load_trace(Path::new(path))?;
            print!("{}", explain_trace(&records));
            Ok(true)
        }
        _ => Err(USAGE.to_owned()),
    }
}

fn gate_dirs(baseline: &Path, candidate: &Path, cfg: &GateConfig) -> Result<bool, String> {
    let threshold = cfg.threshold_pct;
    let mut reports: Vec<PathBuf> = std::fs::read_dir(baseline)
        .map_err(|e| format!("cannot read baseline dir {}: {e}", baseline.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    reports.sort();
    if reports.is_empty() {
        return Err(format!("no BENCH_*.json reports in {}", baseline.display()));
    }
    let mut clean = true;
    for old_path in &reports {
        let file = old_path.file_name().unwrap();
        let new_path = candidate.join(file);
        let old = BenchDoc::load(old_path)?;
        let new = BenchDoc::load(&new_path)?;
        let report = gate(&old, &new, cfg)?;
        println!(
            "== {} (threshold {threshold}%, {} metrics, {} regressions) ==",
            file.to_string_lossy(),
            report.deltas.len(),
            report.regressions.len()
        );
        print!(
            "{}",
            render_diff(
                &report.deltas,
                cfg.gate_timings,
                cfg.gate_memory,
                threshold,
                cfg.memory_threshold_pct,
            )
        );
        if !report.regressions.is_empty() {
            clean = false;
            for r in &report.regressions {
                eprintln!(
                    "REGRESSION: {} {} went {} -> {} (threshold {}%)",
                    r.key,
                    r.metric,
                    r.old,
                    r.new,
                    cfg.threshold_for(r)
                );
            }
        }
    }
    if clean {
        println!("gate: PASS");
    } else {
        eprintln!("gate: FAIL");
    }
    Ok(clean)
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
}
