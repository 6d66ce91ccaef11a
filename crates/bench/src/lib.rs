//! Shared harness for the experiment binaries that regenerate every table
//! and figure of the paper's evaluation (§4). Each binary prints the same
//! rows/series the paper reports and writes a CSV under `results/`.
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `fig09_datasets` | Figure 9 (dataset descriptions) |
//! | `fig10_qi_scaling` | Figure 10 (time vs QI size, both DBs, k = 2/10) |
//! | `table_nodes_searched` | §4.2.1 nodes-searched table |
//! | `fig11_vary_k` | Figure 11 (time vs k, fixed QI) |
//! | `fig12_cube_breakdown` | Figure 12 (cube build + anonymization cost) |
//!
//! Absolute times differ from the paper's (in-memory engine vs DB2 on a
//! 2003 Athlon); the relative ordering of the algorithms is the
//! reproduction target. See EXPERIMENTS.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod micro;
pub mod report;

pub use report::BenchReport;

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use incognito_core::{
    binary_search::samarati_binary_search, bottom_up::bottom_up_search, cube::cube_incognito,
    incognito, AnonymizationResult, Config,
};
use incognito_data::{AdultsConfig, LandsEndConfig};
use incognito_table::Table;

/// The six search algorithms of Figure 10, in the paper's legend order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Exhaustive bottom-up BFS, one table scan per lattice node.
    BottomUpNoRollup,
    /// Samarati's binary search on generalization height.
    BinarySearch,
    /// Exhaustive bottom-up BFS with rollup aggregation.
    BottomUpRollup,
    /// Basic Incognito (Figure 8).
    BasicIncognito,
    /// Cube Incognito (§3.3.2).
    CubeIncognito,
    /// Super-roots Incognito (§3.3.1).
    SuperRootsIncognito,
}

impl Algo {
    /// All six, in legend order.
    pub const ALL: [Algo; 6] = [
        Algo::BottomUpNoRollup,
        Algo::BinarySearch,
        Algo::BottomUpRollup,
        Algo::BasicIncognito,
        Algo::CubeIncognito,
        Algo::SuperRootsIncognito,
    ];

    /// The paper's legend label.
    pub fn label(self) -> &'static str {
        match self {
            Algo::BottomUpNoRollup => "Bottom-Up (w/o rollup)",
            Algo::BinarySearch => "Binary Search",
            Algo::BottomUpRollup => "Bottom-Up (w/ rollup)",
            Algo::BasicIncognito => "Basic Incognito",
            Algo::CubeIncognito => "Cube Incognito",
            Algo::SuperRootsIncognito => "Super-roots Incognito",
        }
    }

    /// Run the algorithm; returns the result and wall-clock time. Uses the
    /// process default thread count ([`Config::default_threads`]).
    pub fn run(self, table: &Table, qi: &[usize], k: u64) -> (AnonymizationResult, Duration) {
        self.run_with_threads(table, qi, k, Config::default_threads())
    }

    /// [`Algo::run`] with an explicit worker-thread count (the bench
    /// binaries' `--threads N` flag).
    pub fn run_with_threads(
        self,
        table: &Table,
        qi: &[usize],
        k: u64,
        threads: usize,
    ) -> (AnonymizationResult, Duration) {
        self.run_with_opts(table, qi, k, threads, Config::default_memory_budget())
    }

    /// [`Algo::run_with_threads`] with an explicit memory budget (the bench
    /// binaries' `--mem-budget BYTES` flag). `None` means unlimited: every
    /// frequency set stays in memory; with a budget, sets spill to disk
    /// while the process's live bytes exceed it.
    pub fn run_with_opts(
        self,
        table: &Table,
        qi: &[usize],
        k: u64,
        threads: usize,
        mem_budget: Option<u64>,
    ) -> (AnonymizationResult, Duration) {
        let cfg = match self {
            Algo::BottomUpNoRollup => Config::new(k).with_rollup(false),
            Algo::BottomUpRollup | Algo::BinarySearch => Config::new(k),
            Algo::BasicIncognito | Algo::CubeIncognito => Config::new(k),
            Algo::SuperRootsIncognito => Config::new(k).with_superroots(true),
        };
        let cfg = match mem_budget {
            Some(b) => cfg.with_threads(threads).with_memory_budget(b),
            None => cfg.with_threads(threads).with_unlimited_memory(),
        };
        let start = Instant::now();
        let result = match self {
            Algo::BottomUpNoRollup | Algo::BottomUpRollup => {
                bottom_up_search(table, qi, &cfg).expect("valid workload")
            }
            Algo::BinarySearch => match samarati_binary_search(table, qi, &cfg) {
                Ok(r) => r,
                // An unsatisfiable k (never the case in these workloads)
                // would still be a completed search.
                Err(e) => panic!("binary search failed: {e}"),
            },
            Algo::BasicIncognito | Algo::SuperRootsIncognito => {
                incognito(table, qi, &cfg).expect("valid workload")
            }
            Algo::CubeIncognito => cube_incognito(table, qi, &cfg).expect("valid workload"),
        };
        (result, start.elapsed())
    }
}

/// Apply an optional memory budget to a config: `Some` caps live bytes,
/// `None` lifts any budget (including the `INCOGNITO_MEM_BUDGET`
/// environment default). Shared by the bench binaries that build their
/// own [`Config`] instead of going through [`Algo::run_with_opts`].
pub fn apply_budget(cfg: Config, mem_budget: Option<u64>) -> Config {
    match mem_budget {
        Some(b) => cfg.with_memory_budget(b),
        None => cfg.with_unlimited_memory(),
    }
}

/// A result table that prints aligned to stdout and lands in
/// `results/<name>.csv`.
pub struct Series {
    name: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Series {
    /// Start a series with column headers.
    pub fn new(name: impl Into<String>, headers: &[&str]) -> Self {
        Series {
            name: name.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (stringified cells).
    pub fn push(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.headers.len(), "row arity");
        self.rows.push(row);
    }

    /// Print as an aligned text table and write `results/<name>.csv`.
    pub fn emit(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String], widths: &[usize]| {
            for (i, (c, w)) in cells.iter().zip(widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{c:>w$}", w = w);
            }
            out.push('\n');
        };
        line(&mut out, &self.headers, &widths);
        let rule: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&"-".repeat(rule));
        out.push('\n');
        for row in &self.rows {
            line(&mut out, row, &widths);
        }
        println!("\n== {} ==\n{out}", self.name);

        let dir = results_dir();
        let _ = fs::create_dir_all(&dir);
        let mut csv = self.headers.join(",");
        csv.push('\n');
        for row in &self.rows {
            csv.push_str(&row.join(","));
            csv.push('\n');
        }
        let path = dir.join(format!("{}.csv", self.name));
        if let Err(e) = fs::write(&path, csv) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            println!("(written to {})", path.display());
        }
    }
}

/// Where CSV outputs are collected (`results/` under the workspace root, or
/// the current directory as a fallback).
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR of this crate is <root>/crates/bench.
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push("results");
    p
}

/// Format a duration as fractional seconds.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Tiny CLI parsing: `--flag value` pairs plus boolean `--quick`.
pub struct Cli {
    args: Vec<String>,
}

impl Cli {
    /// Parse the process arguments.
    pub fn from_env() -> Self {
        Cli { args: std::env::args().skip(1).collect() }
    }

    /// Value of `--name <v>` parsed as `T`.
    pub fn get<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        let flag = format!("--{name}");
        self.args
            .iter()
            .position(|a| *a == flag)
            .and_then(|i| self.args.get(i + 1))
            .and_then(|v| v.parse().ok())
    }

    /// Is the boolean flag present?
    pub fn has(&self, name: &str) -> bool {
        let flag = format!("--{name}");
        self.args.contains(&flag)
    }

    /// Adults generator configuration from `--rows-adults N` (defaulting to
    /// the paper's 45,222 rows). Shared by every bench binary.
    pub fn adults_config(&self) -> AdultsConfig {
        AdultsConfig {
            rows: self.get("rows-adults").unwrap_or(AdultsConfig::default().rows),
            ..AdultsConfig::default()
        }
    }

    /// Lands End generator configuration from `--rows-landsend N`. Under
    /// `--quick` the default drops to `quick_rows` (full runs default to
    /// the generator's own row count).
    pub fn landsend_config(&self, quick_rows: usize) -> LandsEndConfig {
        let default_rows =
            if self.has("quick") { quick_rows } else { LandsEndConfig::default().rows };
        LandsEndConfig {
            rows: self.get("rows-landsend").unwrap_or(default_rows),
            ..LandsEndConfig::default()
        }
    }

    /// Worker threads from `--threads N` (≥ 1), falling back to the
    /// `INCOGNITO_THREADS` environment default. Recorded in `BENCH_*.json`
    /// so reports from different thread counts are distinguishable.
    pub fn threads(&self) -> usize {
        self.get::<usize>("threads").filter(|&n| n >= 1).unwrap_or_else(Config::default_threads)
    }

    /// Memory budget in bytes from `--mem-budget BYTES`, falling back to
    /// the `INCOGNITO_MEM_BUDGET` environment default. `None` (no flag, no
    /// env var) means unlimited. Recorded in `BENCH_*.json` so reports from
    /// budgeted runs are distinguishable.
    pub fn mem_budget(&self) -> Option<u64> {
        self.get::<u64>("mem-budget").or_else(Config::default_memory_budget)
    }

    /// Trace output path from `--trace [path]`. `None` when the flag is
    /// absent; with the flag but no path (or the "path" is another flag),
    /// defaults to `results/TRACE_<name>.json`.
    pub fn trace_path(&self, name: &str) -> Option<PathBuf> {
        let idx = self.args.iter().position(|a| a == "--trace")?;
        match self.args.get(idx + 1) {
            Some(v) if !v.starts_with("--") => Some(PathBuf::from(v)),
            _ => Some(results_dir().join(format!("TRACE_{name}.json"))),
        }
    }
}

/// Turn trace collection on when the CLI asked for it ([`Cli::trace_path`])
/// and return where the trace should land; pass that path to
/// [`write_trace`] once the runs are done.
pub fn init_tracing(cli: &Cli, name: &str) -> Option<PathBuf> {
    let path = cli.trace_path(name)?;
    incognito_obs::trace::set_enabled(true);
    Some(path)
}

/// Drain every collected trace span — plus any allocator counter samples
/// (`mem.live_bytes` tracks, rendered by Perfetto as counter plots) — and
/// write the Chrome Trace Event Format file (loadable in Perfetto /
/// `chrome://tracing`).
pub fn write_trace(path: &std::path::Path) {
    let records = incognito_obs::trace::drain();
    let samples = incognito_obs::trace::drain_counter_samples();
    match incognito_obs::trace::write_chrome_trace_with_counters(path, &records, &samples) {
        Ok(bytes) => println!(
            "(trace: {} spans, {} counter samples, {} bytes written to {})",
            records.len(),
            samples.len(),
            bytes,
            path.display()
        ),
        Err(e) => eprintln!("warning: could not write trace {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incognito_data::patients;

    #[test]
    fn all_algorithms_run_and_agree_on_patients() {
        let t = patients();
        let complete: Vec<Algo> = vec![
            Algo::BottomUpNoRollup,
            Algo::BottomUpRollup,
            Algo::BasicIncognito,
            Algo::CubeIncognito,
            Algo::SuperRootsIncognito,
        ];
        let (reference, _) = Algo::BasicIncognito.run(&t, &[0, 1, 2], 2);
        for algo in complete {
            let (r, _) = algo.run(&t, &[0, 1, 2], 2);
            assert_eq!(r.generalizations(), reference.generalizations(), "{algo:?}");
        }
        // Binary search returns the height-minimal subset of the reference.
        let (bs, _) = Algo::BinarySearch.run(&t, &[0, 1, 2], 2);
        for g in bs.generalizations() {
            assert!(reference.contains(&g.levels));
            assert_eq!(Some(g.height()), reference.minimal_height());
        }
    }

    #[test]
    fn series_formatting() {
        let mut s = Series::new("unit_test_series", &["a", "b"]);
        s.push(vec!["1".into(), "2".into()]);
        assert_eq!(s.rows.len(), 1);
    }

    #[test]
    fn cli_parsing() {
        let cli = Cli { args: vec!["--rows".into(), "100".into(), "--quick".into()] };
        assert_eq!(cli.get::<usize>("rows"), Some(100));
        assert_eq!(cli.get::<usize>("missing"), None);
        assert!(cli.has("quick"));
        assert!(!cli.has("slow"));
    }

    #[test]
    fn cli_threads_flag() {
        let cli = Cli { args: vec!["--threads".into(), "4".into()] };
        assert_eq!(cli.threads(), 4);
        let zero = Cli { args: vec!["--threads".into(), "0".into()] };
        assert_eq!(zero.threads(), Config::default_threads());
        let absent = Cli { args: Vec::new() };
        assert_eq!(absent.threads(), Config::default_threads());
    }

    #[test]
    fn dataset_config_helpers() {
        let cli = Cli { args: vec!["--rows-adults".into(), "123".into(), "--quick".into()] };
        assert_eq!(cli.adults_config().rows, 123);
        assert_eq!(cli.landsend_config(5_000).rows, 5_000);
        let full = Cli { args: Vec::new() };
        assert_eq!(full.adults_config().rows, AdultsConfig::default().rows);
        assert_eq!(full.landsend_config(5_000).rows, LandsEndConfig::default().rows);
    }
}
