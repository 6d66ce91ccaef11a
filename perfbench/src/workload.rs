//! The benchmark's workloads and metric catalogue, and the `BENCHMARK.json`
//! manifest generated from them.

use std::path::Path;

use incognito_core::Config;
use incognito_data::{AdultsConfig, LandsEndConfig};
use incognito_obs::{Json, Rng};
use incognito_table::Table;

/// The anonymity parameter of every workload.
pub const K: u64 = 2;

/// Seconds one run measures (the manifest's `run_seconds`).
pub const RUN_SECONDS: u64 = 35;

/// The spill workload's memory budget.
const SPILL_BUDGET: u64 = 64 << 20;

/// The dataset a workload anonymizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// Synthetic Adults (45,222 rows, 9 attributes).
    Adults,
    /// Synthetic Lands End (500,000 rows, 8 attributes).
    LandsEnd,
}

impl Dataset {
    /// The generator's default seed, which is also the benchmark's.
    pub fn default_seed(self) -> u64 {
        match self {
            Dataset::Adults => AdultsConfig::default().seed,
            Dataset::LandsEnd => LandsEndConfig::default().seed,
        }
    }

    /// The generator's default row count.
    pub fn rows(self) -> usize {
        match self {
            Dataset::Adults => AdultsConfig::default().rows,
            Dataset::LandsEnd => LandsEndConfig::default().rows,
        }
    }

    /// The input table for `seed`: the generator's default table with its
    /// rows shuffled by `seed` (left in generated order at the default
    /// seed). A new generator sample would change the work, not just the
    /// inputs: over Adults seeds 11–15 the search makes 5,528 to 7,284
    /// checks, a spread the seed-to-seed comparison would count as noise.
    /// A shuffle changes the inputs while the result set and the work stay
    /// fixed.
    pub fn generate(self, seed: u64) -> Table {
        let table = match self {
            Dataset::Adults => incognito_data::adults_default(),
            Dataset::LandsEnd => incognito_data::lands_end_default(),
        };
        if seed == self.default_seed() {
            return table;
        }
        let mut order: Vec<usize> = (0..table.num_rows()).collect();
        Rng::seed_from_u64(seed).shuffle(&mut order);
        let columns = (0..table.schema().arity())
            .map(|a| {
                let col = table.column(a);
                order.iter().map(|&r| col[r]).collect()
            })
            .collect();
        Table::from_columns(table.schema().clone(), columns)
            .expect("a row shuffle keeps every id in range")
    }
}

/// One set of inputs and settings the benchmark runs.
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Why the workload is in the benchmark (one line).
    pub why: &'static str,
    /// Input dataset.
    pub dataset: Dataset,
    /// Quasi-identifier: the first `qi_len` attributes.
    pub qi_len: usize,
    /// Search worker threads.
    pub threads: usize,
    /// Memory budget in bytes, `None` for unlimited.
    pub budget: Option<u64>,
    /// Generalization count and digest of the result, the same at every
    /// seed.
    pub expected: (usize, u64),
}

/// Every workload. `landsend-spill` differs from `landsend-rollup` only in
/// its memory budget, so their results must be identical.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "adults-lattice",
        why: "Adults, QI 9, serial: 25,236 candidates and 5,873 checks of small sets, so lattice \
              generation and the per-node check loop dominate while rollup and spill idle",
        dataset: Dataset::Adults,
        qi_len: 9,
        threads: 1,
        budget: None,
        expected: (287, 0xc1f5_e27c_ff17_7908),
    },
    Workload {
        name: "landsend-rollup",
        why: "Lands End 500k rows, QI 5, 2 threads: 105 scans and 72 rollups of large sets, so \
              scan, rollup and the executor dominate while lattice generation idles",
        dataset: Dataset::LandsEnd,
        qi_len: 5,
        threads: 2,
        budget: None,
        expected: (74, 0xcaa6_7d60_861d_8de5),
    },
    Workload {
        name: "landsend-spill",
        why: "landsend-rollup under a 64 MiB budget: sets spill to disk and upgrade back, with \
              results identical to landsend-rollup",
        dataset: Dataset::LandsEnd,
        qi_len: 5,
        threads: 2,
        budget: Some(SPILL_BUDGET),
        expected: (74, 0xcaa6_7d60_861d_8de5),
    },
];

impl Workload {
    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The quasi-identifier attribute indices.
    pub fn qi(&self) -> Vec<usize> {
        (0..self.qi_len).collect()
    }

    /// The search configuration: Basic Incognito (the CLI default) with
    /// this workload's threads and budget, spilling under `spill_dir`.
    pub fn config(&self, spill_dir: &Path) -> Config {
        let cfg = Config::new(K).with_threads(self.threads).with_spill_dir(spill_dir);
        match self.budget {
            Some(bytes) => cfg.with_memory_budget(bytes),
            None => cfg.with_unlimited_memory(),
        }
    }
}

/// An end-to-end metric: name, unit, and the share of the parent's median
/// by which it may worsen before a change counts as a regression.
pub const END_TO_END: [(&str, &str, f64); 4] = [
    ("search_s", "s", 0.25),
    ("release_s", "s", 0.25),
    ("peak_mb", "MB", 0.1),
    ("setup_s", "s", 0.25),
];

/// Per-layer metrics of the traced run, named `<layer>.<what>`.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("lattice.generate.calls", "count"),
    ("lattice.generate.s", "s"),
    ("lattice.candidates", "count"),
    ("lattice.edges", "count"),
    ("lattice.pruned", "count"),
    ("table.scan.calls", "count"),
    ("table.scan.s", "s"),
    ("table.scan.rows", "count"),
    ("table.kernel.dense.calls", "count"),
    ("table.kernel.packed.calls", "count"),
    ("table.kernel.hash.calls", "count"),
    ("table.rollup.calls", "count"),
    ("table.rollup.s", "s"),
    ("table.rollup.groups_in", "count"),
    ("table.rollup.groups_out", "count"),
    ("table.set.resident_mb", "MB"),
    ("spill.sets", "count"),
    ("spill.partitions", "count"),
    ("spill.upgrades", "count"),
    ("spill.s", "s"),
    ("spill.mb", "MB"),
    ("spill.bytes_per_input_byte", "ratio"),
    ("core.nodes_checked", "count"),
    ("core.nodes_marked", "count"),
    ("core.mark_ratio", "ratio"),
    ("core.freq_from_scan", "count"),
    ("core.freq_from_rollup", "count"),
    ("core.check_overhead_s", "s"),
    ("core.freq_cache.peak_mb", "MB"),
    ("exec.tasks", "count"),
    ("exec.steals", "count"),
    ("exec.inline", "count"),
    ("exec.busy_ratio", "ratio"),
    ("release.materialize.s", "s"),
    ("release.csv_write.s", "s"),
    ("release.csv_mb", "MB"),
    ("release.suppressed", "count"),
    ("data.generate.s", "s"),
    ("obs.overhead_ratio", "ratio"),
];

/// The `BENCHMARK.json` this benchmark is run by, generated from the
/// tables above so the manifest and the code cannot drift apart.
pub fn manifest() -> String {
    let strs = |xs: &[&str]| Json::Arr(xs.iter().map(|&s| Json::from(s)).collect());
    let mut m = Json::obj();
    m.set(
        "command",
        strs(&[
            "cargo",
            "run",
            "--release",
            "--quiet",
            "--offline",
            "--manifest-path",
            "perfbench/Cargo.toml",
            "--",
        ]),
    );
    m.set("paths", strs(&["perfbench"]));
    m.set("run_seconds", RUN_SECONDS as i64);
    m.set(
        "workloads",
        Json::Arr(
            WORKLOADS
                .iter()
                .map(|w| {
                    let mut o = Json::obj();
                    o.set("name", w.name).set("why", w.why);
                    o
                })
                .collect(),
        ),
    );
    m.set(
        "end_to_end",
        Json::Arr(
            END_TO_END
                .iter()
                .map(|&(name, unit, bound)| {
                    let mut o = Json::obj();
                    o.set("name", name)
                        .set("unit", unit)
                        .set("better", "lower")
                        .set("bound", bound);
                    o
                })
                .collect(),
        ),
    );
    m.set(
        "per_layer",
        Json::Arr(
            PER_LAYER
                .iter()
                .map(|&(name, unit)| {
                    let mut o = Json::obj();
                    o.set("name", name).set("unit", unit).set("better", better(name));
                    o
                })
                .collect(),
        ),
    );
    let mut text = m.to_pretty_string();
    text.push('\n');
    text
}

/// Direction of a per-layer metric: times, volumes and work counts are
/// better lower; the shares of work avoided or overlapped are better higher.
fn better(name: &str) -> &'static str {
    match name {
        "core.mark_ratio" | "exec.busy_ratio" => "higher",
        _ => "lower",
    }
}
