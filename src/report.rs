//! Comparison and explanation of the observability artifacts the bench
//! harness writes: `BENCH_*.json` run reports and `TRACE_*.json` Chrome
//! trace files. This is the library behind the `incognito-report` binary:
//!
//! * [`BenchDoc::load`] parses a `BENCH_*.json` report into workload
//!   parameters plus per-run counters and timings;
//! * [`diff`] pairs two reports run-by-run and yields per-metric deltas;
//! * [`gate`] turns a diff into a pass/fail verdict against a threshold —
//!   deterministic counters (search stats and the engine counters under
//!   `metrics.*`) are always gated, wall-clock timings and
//!   allocation accounting only on request (timings are noisy on shared
//!   CI hardware; memory gets its own, wider tolerance band because peak
//!   live bytes move with allocator and thread-scheduling details);
//! * [`explain_trace`] folds a span tree back into the paper's §4.2
//!   per-iteration accounting (checks by source, marks, survivors, wall
//!   time) plus a self-time profile — the workspace's one explain fold.
//!
//! Everything round-trips through [`incognito_obs::Json`]; no external
//! parser is involved.

use std::fmt;
use std::fs;
use std::path::Path;

use incognito_obs::trace::{build_tree, profile, TraceNode, TraceRecord};
use incognito_obs::Json;

/// Top-level report fields that identify the *recording*, not the
/// workload: two reports may differ in all of these and still be
/// comparable. `memory` is the process allocation summary — a
/// measurement, not a parameter.
const VOLATILE_FIELDS: [&str; 6] =
    ["report_version", "tool_version", "unix_time", "git", "runs", "memory"];

/// The per-run `memory` fields that are comparable across reports. Flows
/// that depend on how long the process ran before the run (live bytes at
/// run end) are excluded; peak footprint and allocation count are the
/// regression signals.
const MEMORY_METRICS: [&str; 3] = ["peak_live_bytes", "allocated_bytes", "allocs"];

/// Identity of one recorded run inside a report: algorithm label,
/// dataset, `k`, and quasi-identifier arity. Reports are paired run-by-run
/// on this key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RunKey {
    /// Algorithm label (the paper's legend name, e.g. `"Basic Incognito"`).
    pub label: String,
    /// Dataset name (`"adults"`, `"landsend"`, ...).
    pub dataset: String,
    /// The k of k-anonymity.
    pub k: i64,
    /// Number of quasi-identifier attributes.
    pub qi_arity: i64,
}

impl fmt::Display for RunKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{} k={} qi={}", self.label, self.dataset, self.k, self.qi_arity)
    }
}

/// One run's comparable metrics: integer counters (deterministic — node
/// checks, marks, scans, engine counters) and float timings (noisy —
/// wall clock, phases, span timers).
#[derive(Debug, Clone)]
pub struct Run {
    /// Who ran on what.
    pub key: RunKey,
    /// Deterministic counters, e.g. `stats.nodes_checked` or
    /// `metrics.table.scan.count`.
    pub counters: Vec<(String, i64)>,
    /// Wall-clock timings in seconds, e.g. `timings.scan_secs` or
    /// `metrics.table.scan.time` (a span timer's total).
    pub timings: Vec<(String, f64)>,
    /// Allocation accounting, e.g. `memory.peak_live_bytes` (the
    /// comparable fields only). Empty for reports written before the
    /// tracking allocator existed.
    pub memory: Vec<(String, i64)>,
}

/// A parsed `BENCH_*.json` report.
#[derive(Debug, Clone)]
pub struct BenchDoc {
    /// The report name (`"fig09_datasets"`, ...).
    pub name: String,
    /// Workload parameters: every top-level field that does not identify
    /// the recording (version, time, git, runs, memory), serialized
    /// compactly. Two reports must agree on these to be gateable.
    pub workload: Vec<(String, String)>,
    /// The recorded runs, in file order.
    pub runs: Vec<Run>,
}

impl BenchDoc {
    /// Read and parse a report file.
    pub fn load(path: &Path) -> Result<BenchDoc, String> {
        let text =
            fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        BenchDoc::from_json(&doc).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Extract the comparable view of a parsed report.
    pub fn from_json(doc: &Json) -> Result<BenchDoc, String> {
        let fields = match doc {
            Json::Obj(fields) => fields,
            _ => return Err("report is not a JSON object".to_owned()),
        };
        let name =
            doc.get("name").and_then(Json::as_str).ok_or("report has no name field")?.to_owned();
        let workload = fields
            .iter()
            .filter(|(k, _)| !VOLATILE_FIELDS.contains(&k.as_str()))
            .map(|(k, v)| (k.clone(), v.to_compact_string()))
            .collect();
        let mut runs = Vec::new();
        for run in doc.get("runs").and_then(Json::as_arr).unwrap_or(&[]) {
            runs.push(run_from_json(run)?);
        }
        Ok(BenchDoc { name, workload, runs })
    }
}

fn as_f64(v: &Json) -> Option<f64> {
    match v {
        Json::Int(x) => Some(*x as f64),
        Json::Num(x) => Some(*x),
        _ => None,
    }
}

fn run_from_json(run: &Json) -> Result<Run, String> {
    let key = RunKey {
        label: run.get("label").and_then(Json::as_str).ok_or("run has no label field")?.to_owned(),
        dataset: run.get("dataset").and_then(Json::as_str).unwrap_or("").to_owned(),
        k: run.get("k").and_then(Json::as_int).unwrap_or(0),
        qi_arity: run.get("qi_arity").and_then(Json::as_int).unwrap_or(0),
    };
    let mut counters = Vec::new();
    for field in ["generalizations", "minimal_height"] {
        if let Some(x) = run.get(field).and_then(Json::as_int) {
            counters.push((field.to_owned(), x));
        }
    }
    if let Some(Json::Obj(stats)) = run.get("stats") {
        for (name, value) in stats {
            if let Some(x) = value.as_int() {
                counters.push((format!("stats.{name}"), x));
            }
        }
    }
    let mut timings = Vec::new();
    if let Some(x) = run.get("wall_secs").and_then(as_f64) {
        timings.push(("wall_secs".to_owned(), x));
    }
    if let Some(Json::Obj(phases)) = run.get("timings") {
        for (name, value) in phases {
            if let Some(x) = as_f64(value) {
                timings.push((format!("timings.{name}"), x));
            }
        }
    }
    // The engine metrics recorded during the run: counters and gauges are
    // integers, each span's timer an object whose `total_ns` is a timing.
    if let Some(Json::Obj(metrics)) = run.get("metrics") {
        for (name, value) in metrics {
            if let Some(x) = value.as_int() {
                counters.push((format!("metrics.{name}"), x));
            } else if let Some(ns) = value.get("total_ns").and_then(Json::as_int) {
                timings.push((format!("metrics.{name}"), ns as f64 / 1e9));
            }
        }
    }
    let mut memory = Vec::new();
    if let Some(Json::Obj(mem)) = run.get("memory") {
        for (name, value) in mem {
            if MEMORY_METRICS.contains(&name.as_str()) {
                if let Some(x) = value.as_int() {
                    memory.push((format!("memory.{name}"), x));
                }
            }
        }
    }
    Ok(Run { key, counters, timings, memory })
}

/// One metric compared across two reports.
#[derive(Debug, Clone)]
pub struct Delta {
    /// Which run the metric belongs to.
    pub key: RunKey,
    /// Metric name (`stats.nodes_checked`, `wall_secs`, ...).
    pub metric: String,
    /// Baseline value.
    pub old: f64,
    /// Candidate value.
    pub new: f64,
    /// Relative change in percent, `None` when the baseline is zero.
    pub pct: Option<f64>,
    /// Timings are gated only on request; counters always.
    pub is_timing: bool,
    /// Allocation metrics are gated only on request, against their own
    /// (wider) threshold.
    pub is_memory: bool,
}

impl Delta {
    /// Did the metric get worse by more than `threshold_pct` percent?
    /// A zero baseline growing to a nonzero value always counts.
    pub fn regressed(&self, threshold_pct: f64) -> bool {
        self.new > self.old && self.pct.is_none_or(|p| p > threshold_pct)
    }
}

/// Pair two reports run-by-run (on [`RunKey`]) and compute a [`Delta`] for
/// every metric present on both sides. Runs or metrics present on only
/// one side are skipped here — [`gate`] treats missing *runs* as a
/// workload mismatch.
pub fn diff(old: &BenchDoc, new: &BenchDoc) -> Vec<Delta> {
    let mut deltas = Vec::new();
    for old_run in &old.runs {
        let Some(new_run) = new.runs.iter().find(|r| r.key == old_run.key) else {
            continue;
        };
        for (metric, old_v) in &old_run.counters {
            if let Some((_, new_v)) = new_run.counters.iter().find(|(m, _)| m == metric) {
                deltas.push(make_delta(
                    &old_run.key,
                    metric,
                    *old_v as f64,
                    *new_v as f64,
                    false,
                    false,
                ));
            }
        }
        for (metric, old_v) in &old_run.timings {
            if let Some((_, new_v)) = new_run.timings.iter().find(|(m, _)| m == metric) {
                deltas.push(make_delta(&old_run.key, metric, *old_v, *new_v, true, false));
            }
        }
        for (metric, old_v) in &old_run.memory {
            if let Some((_, new_v)) = new_run.memory.iter().find(|(m, _)| m == metric) {
                deltas.push(make_delta(
                    &old_run.key,
                    metric,
                    *old_v as f64,
                    *new_v as f64,
                    false,
                    true,
                ));
            }
        }
    }
    deltas
}

fn make_delta(
    key: &RunKey,
    metric: &str,
    old: f64,
    new: f64,
    is_timing: bool,
    is_memory: bool,
) -> Delta {
    let pct = if old != 0.0 { Some((new - old) / old * 100.0) } else { None };
    Delta { key: key.clone(), metric: metric.to_owned(), old, new, pct, is_timing, is_memory }
}

/// Render deltas as an aligned text table. Timings are hidden unless
/// `show_timings` and memory metrics unless `show_memory`; unchanged
/// counters are always elided to keep the table focused on movement.
/// Memory rows judge "REGRESSED" against `memory_threshold_pct`,
/// everything else against `threshold_pct`.
pub fn render_diff(
    deltas: &[Delta],
    show_timings: bool,
    show_memory: bool,
    threshold_pct: f64,
    memory_threshold_pct: f64,
) -> String {
    let mut rows: Vec<Vec<String>> = Vec::new();
    for d in deltas {
        if d.is_timing && !show_timings {
            continue;
        }
        if d.is_memory && !show_memory {
            continue;
        }
        if !d.is_timing && d.old == d.new {
            continue;
        }
        let fmt_v = |v: f64| {
            if d.is_timing {
                format!("{v:.6}")
            } else {
                format!("{}", v as i64)
            }
        };
        let pct = match d.pct {
            Some(p) => format!("{p:+.1}%"),
            None if d.new == d.old => "=".to_owned(),
            None => "new".to_owned(),
        };
        let verdict = if d.regressed(if d.is_memory { memory_threshold_pct } else { threshold_pct })
        {
            "REGRESSED"
        } else if d.new < d.old {
            "improved"
        } else {
            ""
        };
        rows.push(vec![
            format!("{} {}", d.key, d.metric),
            fmt_v(d.old),
            fmt_v(d.new),
            pct,
            verdict.to_owned(),
        ]);
    }
    if rows.is_empty() {
        return "no metric movement\n".to_owned();
    }
    render_table(&["run / metric", "old", "new", "delta", ""], &rows)
}

/// Lay `rows` out under `headers` in aligned columns: the first column
/// left-aligned, the others right-aligned, a rule under the headers. A
/// one-cell row is a section heading, printed as is and not sized.
fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.chars().count()).collect();
    for row in rows.iter().filter(|r| r.len() > 1) {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.chars().count());
        }
    }
    let mut out = String::new();
    let line = |out: &mut String, cells: &[&str]| {
        for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
            let pad = " ".repeat(w.saturating_sub(cell.chars().count()));
            if i == 0 {
                out.push_str(cell);
                out.push_str(&pad);
            } else {
                out.push_str("  ");
                out.push_str(&pad);
                out.push_str(cell);
            }
        }
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
    };
    line(&mut out, headers);
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        if let [heading] = row.as_slice() {
            out.push_str(heading);
            out.push('\n');
        } else {
            let cells: Vec<&str> = row.iter().map(String::as_str).collect();
            line(&mut out, &cells);
        }
    }
    out
}

/// The verdict of [`gate`].
#[derive(Debug, Clone)]
pub struct GateReport {
    /// Every compared metric.
    pub deltas: Vec<Delta>,
    /// The subset of gated metrics that regressed past the threshold.
    pub regressions: Vec<Delta>,
}

/// What [`gate`] checks and how hard.
#[derive(Debug, Clone)]
pub struct GateConfig {
    /// Regression tolerance for counters (and timings) in percent.
    pub threshold_pct: f64,
    /// Gate wall-clock timings (noisy on shared hardware; off by default).
    pub gate_timings: bool,
    /// Gate allocation metrics (`memory.peak_live_bytes` etc.).
    pub gate_memory: bool,
    /// Regression tolerance for allocation metrics. Wider than the
    /// counter threshold: peak live bytes move with allocator layout and
    /// thread scheduling, not just with algorithmic behavior.
    pub memory_threshold_pct: f64,
}

impl Default for GateConfig {
    fn default() -> GateConfig {
        GateConfig {
            threshold_pct: 5.0,
            gate_timings: false,
            gate_memory: false,
            memory_threshold_pct: 25.0,
        }
    }
}

impl GateConfig {
    /// The threshold that applies to `d`.
    pub fn threshold_for(&self, d: &Delta) -> f64 {
        if d.is_memory {
            self.memory_threshold_pct
        } else {
            self.threshold_pct
        }
    }

    fn gated(&self, d: &Delta) -> bool {
        if d.is_timing {
            self.gate_timings
        } else if d.is_memory {
            self.gate_memory
        } else {
            true
        }
    }
}

/// Compare a candidate report against a committed baseline. Returns
/// `Err` — a *mismatch*, distinct from a regression — when the two
/// reports describe different workloads: different report name, different
/// workload parameters, or baseline runs absent from the candidate.
/// Counters are always gated; timings only when [`GateConfig::gate_timings`]
/// and allocation metrics only when [`GateConfig::gate_memory`] (against
/// [`GateConfig::memory_threshold_pct`]).
pub fn gate(old: &BenchDoc, new: &BenchDoc, cfg: &GateConfig) -> Result<GateReport, String> {
    if old.name != new.name {
        return Err(format!(
            "report name mismatch: baseline {:?} vs candidate {:?}",
            old.name, new.name
        ));
    }
    for (param, old_v) in &old.workload {
        match new.workload.iter().find(|(p, _)| p == param) {
            Some((_, new_v)) if new_v == old_v => {}
            Some((_, new_v)) => {
                return Err(format!(
                    "workload mismatch on {param}: baseline {old_v} vs candidate {new_v} \
                     (not comparable; regenerate the baseline)"
                ));
            }
            None => return Err(format!("workload parameter {param} missing from candidate")),
        }
    }
    for run in &old.runs {
        if !new.runs.iter().any(|r| r.key == run.key) {
            return Err(format!("baseline run missing from candidate: {}", run.key));
        }
    }
    let deltas = diff(old, new);
    let regressions = deltas
        .iter()
        .filter(|d| cfg.gated(d) && d.regressed(cfg.threshold_for(d)))
        .cloned()
        .collect();
    Ok(GateReport { deltas, regressions })
}

/// Load a `TRACE_*.json` Chrome trace file back into span records.
pub fn load_trace(path: &Path) -> Result<Vec<TraceRecord>, String> {
    let text =
        fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    incognito_obs::trace::from_chrome_json(&doc).map_err(|e| format!("{}: {e}", path.display()))
}

fn arg_int(r: &TraceRecord, key: &str) -> Option<i64> {
    r.args.iter().find(|(k, _)| k == key).and_then(|(_, v)| v.as_int())
}

fn arg_str<'a>(r: &'a TraceRecord, key: &str) -> Option<&'a str> {
    r.args.iter().find(|(k, _)| k == key).and_then(|(_, v)| v.as_str())
}

fn fmt_ns(ns: u64) -> String {
    let s = ns as f64 / 1e9;
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.0}µs", s * 1e6)
    }
}

/// One iteration of a folded search plan, or the total of a search's
/// iterations.
#[derive(Default)]
struct PlanRow {
    label: String,
    candidates: i64,
    edges: i64,
    /// Checks by frequency-set source: scan, rollup, superroot, cube.
    checks: [u64; 4],
    marked: i64,
    anonymous: u64,
    survivors: i64,
    wall_ns: u64,
}

impl PlanRow {
    /// Fold one `iteration`/`sql.iteration` span, counting the `check`
    /// spans anywhere below it: directly under it when serial, under an
    /// `exec.task` on the pool.
    fn of_iteration(records: &[TraceRecord], node: &TraceNode) -> PlanRow {
        let r = &records[node.index];
        let int = |key: &str| arg_int(r, key).unwrap_or(0);
        let mut row = PlanRow {
            label: int("arity").to_string(),
            candidates: int("candidates"),
            edges: int("edges"),
            marked: int("marked"),
            survivors: int("survivors"),
            wall_ns: r.dur_ns,
            ..PlanRow::default()
        };
        let mut stack: Vec<&TraceNode> = node.children.iter().collect();
        while let Some(n) = stack.pop() {
            let c = &records[n.index];
            if c.name == "check" || c.name == "sql.check" {
                let via = arg_str(c, "via");
                if let Some(i) =
                    ["scan", "rollup", "superroot", "cube"].iter().position(|&s| via == Some(s))
                {
                    row.checks[i] += 1;
                }
                if c.args.iter().any(|(k, v)| k == "anonymous" && *v == Json::Bool(true)) {
                    row.anonymous += 1;
                }
            }
            stack.extend(&n.children);
        }
        row
    }

    /// Add `it` to this total; survivors are the last iteration's.
    fn add(&mut self, it: &PlanRow) {
        self.candidates += it.candidates;
        self.edges += it.edges;
        for (sum, n) in self.checks.iter_mut().zip(it.checks) {
            *sum += n;
        }
        self.marked += it.marked;
        self.anonymous += it.anonymous;
        self.survivors = it.survivors;
        self.wall_ns += it.wall_ns;
    }

    fn cells(&self) -> Vec<String> {
        let mut cells =
            vec![self.label.clone(), self.candidates.to_string(), self.edges.to_string()];
        cells.extend(self.checks.iter().map(u64::to_string));
        cells.extend([
            self.marked.to_string(),
            self.anonymous.to_string(),
            self.survivors.to_string(),
            fmt_ns(self.wall_ns),
        ]);
        cells
    }
}

/// Fold a span tree back into the search plan the `--trace` flag
/// captured — per search, one row per iteration with its candidates,
/// edges, checks by frequency-set source, marks, anonymous checks,
/// survivors and wall time, then a total row — followed by a self-time
/// profile. Understands both the in-memory engine's span names
/// (`iteration`/`check`) and the SQL path's (`sql.iteration`/`sql.check`).
pub fn explain_trace(records: &[TraceRecord]) -> String {
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut total: Option<PlanRow> = None;
    let close = |rows: &mut Vec<Vec<String>>, total: Option<PlanRow>| {
        if let Some(t) = total {
            rows.push(t.cells());
        }
    };
    // Depth-first in span-open order. Each "search" opens a section
    // labelled with its algo/k args.
    let forest = build_tree(records);
    let mut stack: Vec<&TraceNode> = forest.iter().rev().collect();
    while let Some(node) = stack.pop() {
        let r = &records[node.index];
        if r.name == "search" {
            close(&mut rows, total.take());
            let algo = arg_str(r, "algo").unwrap_or("?");
            rows.push(vec![format!("— {algo} (k={}) —", arg_int(r, "k").unwrap_or(0))]);
        }
        if r.name == "iteration" || r.name == "sql.iteration" {
            let row = PlanRow::of_iteration(records, node);
            total
                .get_or_insert_with(|| PlanRow { label: "total".to_owned(), ..PlanRow::default() })
                .add(&row);
            rows.push(row.cells());
        }
        stack.extend(node.children.iter().rev());
    }
    close(&mut rows, total);

    let mut out = if rows.iter().any(|r| r.len() > 1) {
        render_table(
            &[
                "iter", "cands", "edges", "scan", "rollup", "sroot", "cube", "marked", "anon",
                "surv", "wall",
            ],
            &rows,
        )
    } else {
        "no iteration spans in trace\n".to_owned()
    };

    // Self-time profile: where did the wall clock actually go?
    let prof = profile(records);
    if !prof.is_empty() {
        out.push_str("\nspan profile (by total time):\n");
        let prows: Vec<Vec<String>> = prof
            .iter()
            .take(12)
            .map(|p| {
                vec![
                    p.name.clone(),
                    p.count.to_string(),
                    fmt_ns(p.total_ns),
                    fmt_ns(p.self_ns),
                    fmt_ns(p.max_ns),
                ]
            })
            .collect();
        out.push_str(&render_table(&["span", "count", "total", "self", "max"], &prows));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc_with_peak(name: &str, rows: i64, nodes_checked: i64, wall: f64, peak: i64) -> BenchDoc {
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
        let mut d = Json::obj();
        d.set("name", name);
        d.set("rows_adults", rows);
        d.set("runs", Json::Arr(vec![run]));
        d.set("memory", Json::obj());
        BenchDoc::from_json(&d).unwrap()
    }

    fn doc(name: &str, rows: i64, nodes_checked: i64, wall: f64) -> BenchDoc {
        doc_with_peak(name, rows, nodes_checked, wall, 1_000_000)
    }

    fn cfg(threshold_pct: f64, gate_timings: bool) -> GateConfig {
        GateConfig { threshold_pct, gate_timings, ..GateConfig::default() }
    }

    #[test]
    fn identical_reports_gate_clean() {
        let a = doc("fig09", 1000, 116, 0.08);
        let g = gate(&a, &a, &cfg(5.0, true)).unwrap();
        assert!(g.regressions.is_empty());
        assert!(!g.deltas.is_empty());
    }

    #[test]
    fn counter_regression_past_threshold_fails() {
        let old = doc("fig09", 1000, 100, 0.08);
        let new = doc("fig09", 1000, 120, 0.08);
        let g = gate(&old, &new, &cfg(10.0, false)).unwrap();
        assert_eq!(g.regressions.len(), 1);
        assert_eq!(g.regressions[0].metric, "stats.nodes_checked");
        // Within threshold: 5% growth gated at 10% passes.
        let ok = gate(&old, &doc("fig09", 1000, 105, 0.08), &cfg(10.0, false)).unwrap();
        assert!(ok.regressions.is_empty());
        // Improvements never fail.
        let better = gate(&old, &doc("fig09", 1000, 80, 0.08), &cfg(10.0, false)).unwrap();
        assert!(better.regressions.is_empty());
    }

    #[test]
    fn timings_gated_only_on_request() {
        let old = doc("fig09", 1000, 100, 0.010);
        let new = doc("fig09", 1000, 100, 0.100);
        assert!(gate(&old, &new, &cfg(5.0, false)).unwrap().regressions.is_empty());
        let strict = gate(&old, &new, &cfg(5.0, true)).unwrap();
        assert_eq!(strict.regressions.len(), 1);
        assert_eq!(strict.regressions[0].metric, "wall_secs");
    }

    #[test]
    fn memory_gated_only_on_request_with_its_own_threshold() {
        let old = doc_with_peak("fig09", 1000, 100, 0.08, 1_000_000);
        let worse = doc_with_peak("fig09", 1000, 100, 0.08, 1_500_000);
        // +50% peak: invisible to the default gate...
        assert!(gate(&old, &worse, &cfg(5.0, false)).unwrap().regressions.is_empty());
        // ...but caught with --memory at the default 25% band. Both the
        // peak and the (4x-coupled) allocated_bytes flow regress.
        let mem = GateConfig { gate_memory: true, ..GateConfig::default() };
        let g = gate(&old, &worse, &mem).unwrap();
        let names: Vec<&str> = g.regressions.iter().map(|d| d.metric.as_str()).collect();
        assert!(names.contains(&"memory.peak_live_bytes"), "{names:?}");
        assert!(g.regressions.iter().all(|d| d.is_memory));
        // Growth inside the band passes: +10% at 25% tolerance.
        let mild = doc_with_peak("fig09", 1000, 100, 0.08, 1_100_000);
        assert!(gate(&old, &mild, &mem).unwrap().regressions.is_empty());
        // A baseline without memory sections gates clean against a
        // candidate that has them (metrics only on one side are skipped).
        let mut legacy = old.clone();
        for run in &mut legacy.runs {
            run.memory.clear();
        }
        assert!(gate(&legacy, &worse, &mem).unwrap().regressions.is_empty());
    }

    #[test]
    fn run_metrics_read_as_counters_and_timings() {
        let mut timer = Json::obj();
        timer.set("count", 80i64);
        timer.set("total_ns", 2_500_000_000i64);
        let mut metrics = Json::obj();
        metrics.set("table.scan.count", 80i64);
        metrics.set("core.freq_cache.peak_bytes", 21_400i64);
        metrics.set("table.scan.time", timer);
        let mut run = Json::obj();
        run.set("label", "Basic Incognito");
        run.set("metrics", metrics);
        let run = run_from_json(&run).unwrap();
        assert!(run.counters.contains(&("metrics.table.scan.count".to_owned(), 80)));
        assert!(run.counters.contains(&("metrics.core.freq_cache.peak_bytes".to_owned(), 21_400)));
        assert_eq!(run.timings, vec![("metrics.table.scan.time".to_owned(), 2.5)]);
    }

    #[test]
    fn workload_mismatch_is_an_error_not_a_regression() {
        let old = doc("fig09", 1000, 100, 0.08);
        assert!(gate(&old, &doc("fig09", 2000, 100, 0.08), &cfg(5.0, false)).is_err());
        assert!(gate(&old, &doc("fig10", 1000, 100, 0.08), &cfg(5.0, false)).is_err());
    }

    #[test]
    fn diff_renders_moved_counters() {
        let old = doc("fig09", 1000, 100, 0.08);
        let new = doc_with_peak("fig09", 1000, 120, 0.09, 2_000_000);
        let text = render_diff(&diff(&old, &new), false, false, 5.0, 25.0);
        assert!(text.contains("stats.nodes_checked"), "{text}");
        assert!(text.contains("REGRESSED"), "{text}");
        assert!(text.contains("+20.0%"), "{text}");
        assert!(!text.contains("wall_secs"), "timings hidden by default: {text}");
        assert!(!text.contains("memory."), "memory hidden by default: {text}");
        let with_mem = render_diff(&diff(&old, &new), false, true, 5.0, 25.0);
        assert!(with_mem.contains("memory.peak_live_bytes"), "{with_mem}");
    }

    #[test]
    fn explain_folds_iterations_and_checks() {
        let mk = |name: &str, seq, parent, dur, args: Vec<(&str, Json)>| TraceRecord {
            name: name.to_owned(),
            tid: 1,
            seq,
            parent,
            ts_ns: seq * 10,
            dur_ns: dur,
            args: args.into_iter().map(|(k, v)| (k.to_owned(), v)).collect(),
        };
        let records = vec![
            mk("search", 1, None, 5_000, vec![("algo", "basic".into()), ("k", Json::Int(2))]),
            mk(
                "iteration",
                2,
                Some(1),
                4_000,
                vec![
                    ("arity", Json::Int(1)),
                    ("candidates", Json::Int(3)),
                    ("edges", Json::Int(2)),
                    ("marked", Json::Int(1)),
                    ("survivors", Json::Int(3)),
                ],
            ),
            mk(
                "check",
                3,
                Some(2),
                1_000,
                vec![("via", "scan".into()), ("anonymous", Json::Bool(true))],
            ),
            // A check run on the pool nests one level deeper.
            mk("exec.task", 4, Some(2), 1_000, vec![]),
            mk(
                "check",
                5,
                Some(4),
                1_000,
                vec![("via", "rollup".into()), ("anonymous", Json::Bool(false))],
            ),
        ];
        let text = explain_trace(&records);
        assert!(text.contains("basic"), "{text}");
        let row = text.lines().find(|l| l.trim_start().starts_with('1')).unwrap();
        // arity=1, 3 candidates, 2 edges, 1 scan, 1 rollup, 0 sroot,
        // 0 cube, 1 marked, 1 anon, 3 survivors.
        let cells: Vec<&str> = row.split_whitespace().collect();
        assert_eq!(&cells[..10], &["1", "3", "2", "1", "1", "0", "0", "1", "1", "3"]);
        let total = text.lines().find(|l| l.starts_with("total")).unwrap();
        let cells: Vec<&str> = total.split_whitespace().collect();
        assert_eq!(&cells[..10], &["total", "3", "2", "1", "1", "0", "0", "1", "1", "3"]);
        assert!(text.contains("span profile"), "{text}");
    }
}
