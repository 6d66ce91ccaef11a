//! The measured pipeline: repeat set-up → search → select → materialize →
//! CSV for the run's duration, checking every output.

use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

use incognito_core::{incognito, AlgoError, AnonymizationResult, Config};
use incognito_data::csvio::write_csv;
use incognito_obs::mem;
use incognito_table::Table;

use crate::workload::{Workload, K};
use crate::{median, timed, Outcome};

/// Table generations in the traced run's set-up: at least this many, and
/// at least `SETUP_MIN_SECONDS` of them, since one Adults table takes
/// milliseconds.
pub const SETUP_REPEATS: usize = 5;
pub const SETUP_MIN_SECONDS: f64 = 1.0;

/// Per operation of the measured run, the table is generated until this
/// much generation time has accumulated, and the release is repeated
/// until this much release time has. An Adults table takes about 10 ms and
/// its release about 50 ms, so one sample of each per operation would leave
/// their medians to a handful of short, jittery samples. Spreading set-up
/// over the run, rather than doing it all first, lets its median see the
/// same machine phases as the search.
const SETUP_ROUND_SECONDS: f64 = 0.1;
const RELEASE_ROUND_SECONDS: f64 = 0.25;

/// 64-bit FNV-1a, for result and source digests.
pub struct Fnv(u64);

impl Fnv {
    /// A fresh digest.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Absorb `bytes`.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Generalization count and digest of the sorted generalization list.
pub fn digest(result: &AnonymizationResult) -> (usize, u64) {
    let mut levels: Vec<&[u8]> = result.generalizations().iter().map(|g| &g.levels[..]).collect();
    levels.sort();
    let mut h = Fnv::new();
    for l in &levels {
        h.write(l);
        h.write(&[0xff]);
    }
    (levels.len(), h.finish())
}

/// Generate the workload's table at least `min_count` times and for at
/// least `min_secs`, pushing each generation's time onto `times`. Returns
/// the last table and the heap bytes it holds.
pub fn generate(
    w: &Workload,
    seed: u64,
    min_count: usize,
    min_secs: f64,
    times: &mut Vec<f64>,
) -> (Table, u64) {
    let (mut count, mut spent) = (0, 0.0);
    let mut table = None;
    let mut bytes = 0;
    while count < min_count || spent < min_secs {
        drop(table.take());
        let live0 = mem::live_bytes();
        let (t, secs) = timed(|| w.dataset.generate(seed));
        bytes = mem::live_bytes().saturating_sub(live0);
        times.push(secs);
        (count, spent) = (count + 1, spent + secs);
        table = Some(t);
    }
    (table.expect("at least one generation"), bytes)
}

/// One search: its result and what it cost.
pub struct Op {
    /// The search's result.
    pub result: AnonymizationResult,
    /// Search wall time.
    pub search_s: f64,
    /// Peak live heap during the search above the level before it, in MB.
    pub peak_mb: f64,
    /// The first release of the result.
    pub release: Release,
}

/// One release of a result's height-minimal generalization.
pub struct Release {
    /// Select + materialize time.
    pub materialize_s: f64,
    /// CSV write time.
    pub csv_s: f64,
    /// CSV size in bytes.
    pub csv_bytes: usize,
    /// Tuples suppressed.
    pub suppressed: u64,
}

impl Release {
    /// Everything after the search until the CSV exists.
    pub fn secs(&self) -> f64 {
        self.materialize_s + self.csv_s
    }
}

/// One operation: run `search`, check the spill directory, and release
/// the result once.
pub fn pipeline_op(
    table: &Table,
    qi: &[usize],
    spill_dir: &Path,
    search: impl FnOnce() -> Result<AnonymizationResult, AlgoError>,
) -> Result<Op, String> {
    let live0 = mem::live_bytes();
    mem::reset_peak();
    let (result, search_s) = timed(search);
    let peak_mb = mem::peak_live_bytes().saturating_sub(live0) as f64 / 1e6;
    let result = result.map_err(|e| format!("search failed: {e}"))?;
    check_spill_dir_empty(spill_dir)?;
    let release = release(table, &result, qi)?;
    Ok(Op { result, search_s, peak_mb, release })
}

/// Select the height-minimal generalization, materialize it, write it as
/// CSV into memory, and check the release.
pub fn release(
    table: &Table,
    result: &AnonymizationResult,
    qi: &[usize],
) -> Result<Release, String> {
    let t0 = Instant::now();
    let chosen =
        *result.minimal_by_height().first().ok_or("no k-anonymous generalization found")?;
    let (view, suppressed) =
        result.materialize(table, chosen).map_err(|e| format!("materialize failed: {e}"))?;
    let materialize_s = t0.elapsed().as_secs_f64();
    let mut csv = Vec::new();
    let (written, csv_s) = timed(|| write_csv(&view, &mut csv));
    written.map_err(|e| format!("writing CSV failed: {e}"))?;
    check_release(table, &view, suppressed, qi, &csv)?;
    Ok(Release { materialize_s, csv_s, csv_bytes: csv.len(), suppressed })
}

/// Every spilled set is removed when it drops, so after a search the
/// spill directory must be empty; a leftover file is a leak.
pub fn check_spill_dir_empty(dir: &Path) -> Result<(), String> {
    let mut entries =
        std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    match entries.next() {
        None => Ok(()),
        Some(e) => Err(format!(
            "spill file leaked: {}",
            e.map_or_else(|e| e.to_string(), |e| e.path().display().to_string())
        )),
    }
}

/// The released view keeps every row (no suppression allowance), is
/// k-anonymous over the QI, and its CSV has a header plus one line per row.
fn check_release(
    table: &Table,
    view: &Table,
    suppressed: u64,
    qi: &[usize],
    csv: &[u8],
) -> Result<(), String> {
    if suppressed != 0 || view.num_rows() != table.num_rows() {
        return Err(format!(
            "release dropped rows: {} of {} kept, {suppressed} suppressed",
            view.num_rows(),
            table.num_rows()
        ));
    }
    let mut groups: HashMap<Vec<u32>, u64> = HashMap::new();
    for row in 0..view.num_rows() {
        let key: Vec<u32> = qi.iter().map(|&a| view.column(a)[row]).collect();
        *groups.entry(key).or_insert(0) += 1;
    }
    if let Some(small) = groups.values().find(|&&c| c < K) {
        return Err(format!("released view is not {K}-anonymous: a QI group has {small} row(s)"));
    }
    let lines = csv.iter().filter(|&&b| b == b'\n').count();
    if lines != view.num_rows() + 1 {
        return Err(format!("CSV has {lines} lines for {} rows", view.num_rows()));
    }
    Ok(())
}

/// The result's digest must equal the one recorded for the workload.
/// The seed only shuffles rows, so this also holds across repeats, seeds,
/// and the budgeted and unbudgeted Lands End workloads.
pub fn check_digest(w: &Workload, result: &AnonymizationResult) -> Result<(), String> {
    let got = digest(result);
    if got != w.expected {
        return Err(format!("result {got:x?} differs from the recorded {:x?}", w.expected));
    }
    Ok(())
}

/// The end-to-end run: repeat set-up → search → release for `duration`
/// and report medians. A budgeted workload also searches once without
/// the budget and checks the results are identical.
pub fn measured_run(
    w: &Workload,
    seed: u64,
    duration: Duration,
    spill_dir: &Path,
) -> Result<Outcome, String> {
    let cfg = w.config(spill_dir);
    let qi = w.qi();
    let mut out = Outcome::default();
    let (mut setup, mut search, mut release_s, mut peak) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut work = String::new();
    let mut table = None;

    let start = Instant::now();
    while out.attempted == 0 || start.elapsed() < duration {
        table = None;
        let table = &*table.insert(generate(w, seed, 1, SETUP_ROUND_SECONDS, &mut setup).0);
        out.attempt();
        let op = match pipeline_op(table, &qi, spill_dir, || incognito(table, &qi, &cfg))
            .and_then(|op| check_digest(w, &op.result).map(|()| op))
        {
            Ok(op) => op,
            Err(e) => {
                out.fail(e);
                continue;
            }
        };
        work = work_summary(&op.result);
        search.push(op.search_s);
        peak.push(op.peak_mb);
        release_s.push(op.release.secs());
        let mut spent = op.release.secs();
        while spent < RELEASE_ROUND_SECONDS {
            out.attempt();
            match release(table, &op.result, &qi) {
                Ok(r) => {
                    spent += r.secs();
                    release_s.push(r.secs());
                }
                Err(e) => {
                    out.fail(e);
                    break;
                }
            }
        }
    }

    if let (Some(_), Some(table)) = (w.budget, &table) {
        out.attempt();
        if let Err(e) = check_same_as_unbudgeted(w, table, &qi, &cfg) {
            out.fail(e);
        }
    }

    println!(
        "samples: {} searches, {} releases, {} set-ups ({work})",
        search.len(),
        release_s.len(),
        setup.len()
    );
    out.metric("search_s", median(&search));
    out.metric("release_s", median(&release_s));
    out.metric("peak_mb", median(&peak));
    out.metric("setup_s", median(&setup));
    Ok(out)
}

/// The work behind one search, for reading its time.
fn work_summary(result: &AnonymizationResult) -> String {
    let st = result.stats();
    format!(
        "per search: {} generalizations, {} checks, {} scans, {} rollups",
        result.len(),
        st.nodes_checked(),
        st.freq_from_scan,
        st.freq_from_rollup
    )
}

/// A memory budget changes only where frequency sets live, never the
/// result: search once unbudgeted and compare digests.
pub fn check_same_as_unbudgeted(
    w: &Workload,
    table: &Table,
    qi: &[usize],
    cfg: &Config,
) -> Result<(), String> {
    let unbudgeted = cfg.clone().with_unlimited_memory();
    let result =
        incognito(table, qi, &unbudgeted).map_err(|e| format!("unbudgeted search failed: {e}"))?;
    check_digest(w, &result).map_err(|e| format!("unbudgeted search: {e}"))
}
