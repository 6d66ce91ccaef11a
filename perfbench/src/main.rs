//! The repository's benchmark: the `incognito anonymize` pipeline (search,
//! select the height-minimal generalization, materialize it, write it as
//! CSV) on generated workloads, with every output checked.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload adults-lattice [--seed N] [--seconds S] [--trace 0|1]
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --manifest
//! ```
//!
//! Run it from the repository root. `--trace 0` reports the end-to-end
//! metrics with observation off; `--trace 1` turns observation on, replays
//! the search layer by layer, and reports the per-layer metrics.
//! `--manifest` prints the `BENCHMARK.json` the workloads and metrics
//! below define. The last line of standard output is the result object.
//! See `perfbench/README.md`.

#![forbid(unsafe_code)]

mod pipeline;
mod replay;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use incognito_obs::Json;
use workload::{Workload, END_TO_END, K, PER_LAYER};

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parsed command line.
struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--manifest") {
        print!("{}", workload::manifest());
        return Ok(None);
    }
    let get = |flag: &str| -> Option<String> {
        let at = argv.iter().position(|a| a == flag)?;
        argv.get(at + 1).cloned()
    };
    let name = get("--workload").ok_or("--workload <name> is required")?;
    let workload = Workload::by_name(&name).ok_or_else(|| {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; expected one of {names:?}")
    })?;
    let seed = match get("--seed") {
        Some(s) => parse_u64(&s).ok_or(format!("--seed {s:?} is not an integer"))?,
        None => workload.dataset.default_seed(),
    };
    let seconds = match get("--seconds") {
        Some(s) => {
            parse_u64(&s).filter(|&n| n >= 1).ok_or(format!("--seconds {s:?} is not ≥ 1"))?
        }
        None => workload::RUN_SECONDS,
    };
    let trace = match get("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace {other:?} must be 0 or 1")),
    };
    Ok(Some(Args { workload, seed, seconds, trace }))
}

/// Decimal, or hexadecimal with a `0x` prefix (the generators' seeds are
/// written in hex).
fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16).ok(),
        None => s.parse().ok(),
    }
}

fn run() -> Result<(), String> {
    let Some(args) = parse_args()? else {
        return Ok(());
    };
    check_manifest()?;
    let w = args.workload;

    // The spill root is a directory of the benchmark's own under the
    // checkout: the OS temp directory may be a RAM-backed tmpfs, which
    // would turn the spill workload's disk traffic into memory.
    let spill_dir =
        PathBuf::from(".bench_spill").join(format!("{}-{}", w.name, std::process::id()));
    std::fs::create_dir_all(&spill_dir)
        .map_err(|e| format!("creating spill directory {}: {e}", spill_dir.display()))?;
    let outcome = if args.trace {
        replay::traced_run(w, args.seed, &spill_dir)
    } else {
        pipeline::measured_run(w, args.seed, Duration::from_secs(args.seconds), &spill_dir)
    };
    let removed = std::fs::remove_dir_all(&spill_dir);
    let _ = std::fs::remove_dir(".bench_spill"); // shared by concurrent runs; fails while in use
    let mut outcome = outcome?;
    if let Err(e) = removed {
        outcome.attempt();
        outcome.fail(format!("removing spill directory {}: {e}", spill_dir.display()));
    }

    let expected: Vec<&str> = if args.trace {
        PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.0).collect()
    };
    let got: Vec<&str> = outcome.metrics.iter().map(|m| m.0).collect();
    if got != expected {
        return Err(format!("internal error: emitted metrics {got:?}, expected {expected:?}"));
    }

    println!("run {}", run_record(w, &args).to_compact_string());
    for (name, value, unit) in &outcome.metrics {
        println!("{name:<28} {value:>16.6} {unit}");
    }
    for f in &outcome.failures {
        eprintln!("perfbench: FAILED: {f}");
    }
    println!("{}", result_line(&outcome));
    Ok(())
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (searches, releases, replays, verifications).
    pub attempted: u64,
    /// Why each failed operation failed.
    pub failures: Vec<String>,
    /// `(name, value, unit)` in manifest order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// Count one more attempted operation.
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// Record a failed operation.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failures.push(why.into());
    }

    /// Record `name`'s value; its unit comes from the metric catalogue.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        let unit = END_TO_END
            .iter()
            .map(|&(n, u, _)| (n, u))
            .chain(PER_LAYER.iter().copied())
            .find(|&(n, _)| n == name)
            .map_or("?", |(_, u)| u);
        self.metrics.push((name, value, unit));
    }
}

/// The final line: `correct`, `attempted`, `failed` and `metrics`.
fn result_line(o: &Outcome) -> String {
    let failed = o.failures.len() as u64;
    let mut metrics = Json::obj();
    for &(name, value, unit) in &o.metrics {
        let mut m = Json::obj();
        m.set("value", value).set("unit", unit);
        metrics.set(name, m);
    }
    let mut r = Json::obj();
    r.set("correct", failed == 0)
        .set("attempted", o.attempted.max(1))
        .set("failed", failed)
        .set("metrics", metrics);
    r.to_compact_string()
}

/// The settings and code identity a result belongs to, so results from
/// different machines, settings or code are never compared by mistake.
fn run_record(w: &Workload, args: &Args) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let schema = match w.dataset {
        workload::Dataset::Adults => incognito_data::adults::adults_schema(),
        workload::Dataset::LandsEnd => incognito_data::landsend::lands_end_schema(),
    };
    let qi: Vec<Json> = w.qi().iter().map(|&a| Json::from(schema.attribute(a).name())).collect();
    let mut r = Json::obj();
    r.set("workload", w.name)
        .set("seed", format!("{:#x}", args.seed))
        .set("generator_seed", format!("{:#x}", w.dataset.default_seed()))
        .set("rows", w.dataset.rows())
        .set("qi", Json::Arr(qi))
        .set("k", K)
        .set("algorithm", "basic")
        .set("threads", w.threads)
        .set("budget_bytes", w.budget.map_or(Json::Null, Json::from))
        .set("nproc", nproc)
        .set("trace", args.trace)
        .set("seconds", args.seconds)
        .set("git_rev", git_rev())
        .set("source_digest", format!("{:016x}", source_digest()));
    r
}

/// `git rev-parse HEAD` when run from a git checkout's root, else
/// `unknown` (an enclosing repository's revision would be misleading).
fn git_rev() -> String {
    if !Path::new(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// FNV-1a digest of the sources the benchmark builds (the workspace
/// manifests, `crates/` and `perfbench/src`), which identifies the code
/// even where the checkout is not a git repository.
fn source_digest() -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    walk(Path::new("perfbench/src"), &mut files);
    files.sort();
    let mut h = pipeline::Fnv::new();
    for f in files {
        h.write(f.to_string_lossy().as_bytes());
        h.write(&std::fs::read(&f).unwrap_or_default());
    }
    h.finish()
}

/// Refuse to run when `BENCHMARK.json` differs from what this code
/// defines: regenerate it with `--manifest`.
fn check_manifest() -> Result<(), String> {
    let on_disk = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json (run from the repository root): {e}"))?;
    if on_disk != workload::manifest() {
        return Err("BENCHMARK.json differs from the benchmark's definitions; regenerate it with \
                    `cargo run --release --manifest-path perfbench/Cargo.toml -- --manifest > BENCHMARK.json`"
            .to_string());
    }
    Ok(())
}

/// Median of `xs` (mean of the middle two for even counts); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Time `f`, returning its result and elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}
