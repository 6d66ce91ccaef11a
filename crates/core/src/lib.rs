//! The Incognito full-domain k-anonymization algorithm suite.
//!
//! This crate implements every search algorithm of *Incognito: Efficient
//! Full-Domain K-Anonymity* (SIGMOD 2005):
//!
//! * [`incognito()`] — **Basic Incognito** (Figure 8): iterate over
//!   quasi-identifier subset sizes, breadth-first-search each candidate
//!   graph bottom-up with rollup from parents and generalization-property
//!   marking, and a-priori-generate the next candidate graph;
//! * **Super-roots Incognito** (§3.3.1) — enabled with
//!   [`Config::superroots`]: group each iteration's roots by family and
//!   scan the table once per family at the group's greatest lower bound;
//! * [`cube::cube_incognito`] — **Cube Incognito** (§3.3.2): pre-compute
//!   the zero-generalization frequency sets of every quasi-identifier
//!   subset bottom-up (data-cube style) and answer all root frequency sets
//!   from them;
//! * [`bottom_up::bottom_up_search`] — the exhaustive bottom-up
//!   breadth-first baseline of §2.2, with or without rollup;
//! * [`binary_search::samarati_binary_search`] — Samarati's binary search
//!   on generalization height (§2.2);
//! * [`datafly::datafly`] — Sweeney's greedy Datafly heuristic (§6), for
//!   comparison: k-anonymous output but no minimality guarantee.
//!
//! All algorithms share [`Config`] (k, the §2.1 tuple-suppression
//! threshold, and search options), produce an [`AnonymizationResult`]
//! whose generalizations can be materialized with
//! [`AnonymizationResult::materialize`], and record [`SearchStats`] —
//! the node/scan/rollup counters behind the paper's §4.2.1 analysis.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binary_search;
pub mod bottom_up;
pub mod cube;
pub mod datafly;
pub mod distance_matrix;
mod error;
pub mod incognito;
pub mod materialize;
pub mod muargus;
pub mod provider;
mod result;
mod stats;
#[cfg(test)]
pub(crate) mod testutil;
pub mod trace;
pub mod verify;

pub use error::AlgoError;
pub use incognito::incognito;
pub use provider::{FreqHandle, FreqProvider};
pub use result::{AnonymizationResult, Generalization};
pub use stats::{IterationStats, PhaseTimings, SearchStats};

use incognito_lattice::PruneStrategy;

/// Shared algorithm configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// The anonymity parameter k (≥ 1).
    pub k: u64,
    /// Maximum number of outlier tuples that may be suppressed (§2.1);
    /// 0 disables suppression.
    pub max_suppress: u64,
    /// Prune-phase membership structure (Incognito only).
    pub prune: PruneStrategy,
    /// Enable the super-roots optimization (Incognito only).
    pub superroots: bool,
    /// Enable rollup from parent frequency sets. Incognito always benefits;
    /// exposed so the rollup ablation can switch it off.
    pub rollup: bool,
    /// Worker threads (1 = serial). With more than one thread the search
    /// evaluates each wave of equally-ranked candidates concurrently on the
    /// shared [`incognito_exec`] pool, super-root family scans and zero-cube
    /// projections fan out one task per family/subset, and lone-node scans
    /// split by row. The result set and every counter are identical to a
    /// serial run (DESIGN.md §8).
    pub threads: usize,
    /// Memory budget in bytes, or `None` for unlimited. While the
    /// process's live bytes (from `incognito_obs::mem`) exceed the budget,
    /// every frequency set the engines request through [`FreqProvider`]
    /// degrades to the disk-backed
    /// [`incognito_table::ExternalFrequencySet`] — the paper's §7
    /// out-of-core case. Results are byte-identical at every budget; only
    /// the representation (and peak memory) changes.
    pub memory_budget: Option<u64>,
    /// Directory spilled frequency sets are written under, or `None` for
    /// the OS temp directory. On Linux the temp directory is frequently a
    /// RAM-backed tmpfs, where "spilling to disk" still consumes physical
    /// memory and defeats the budget — point this at a real filesystem
    /// when the budget matters. Each spilled set creates (and on drop
    /// removes) its own collision-free subdirectory here.
    pub spill_dir: Option<std::path::PathBuf>,
}

impl Config {
    /// Configuration for a plain k with no suppression: Basic Incognito
    /// defaults (hash-tree prune, no super-roots, rollup on). The thread
    /// count comes from [`Config::default_threads`].
    pub fn new(k: u64) -> Self {
        Config {
            k,
            max_suppress: 0,
            prune: PruneStrategy::HashTree,
            superroots: false,
            rollup: true,
            threads: Self::default_threads(),
            memory_budget: Self::default_memory_budget(),
            spill_dir: Self::default_spill_dir(),
        }
    }

    /// The process-wide default thread count: `INCOGNITO_THREADS` when set
    /// to a positive integer, else 1 (serial). Read once and cached so a
    /// mid-run environment change can't split engines across thread counts.
    pub fn default_threads() -> usize {
        static DEFAULT: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
        *DEFAULT.get_or_init(|| {
            std::env::var("INCOGNITO_THREADS")
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .filter(|&n| n >= 1)
                .unwrap_or(1)
        })
    }

    /// Set the suppression threshold.
    pub fn with_suppression(mut self, max_suppress: u64) -> Self {
        self.max_suppress = max_suppress;
        self
    }

    /// Enable/disable super-roots.
    pub fn with_superroots(mut self, on: bool) -> Self {
        self.superroots = on;
        self
    }

    /// Enable/disable rollup.
    pub fn with_rollup(mut self, on: bool) -> Self {
        self.rollup = on;
        self
    }

    /// Choose the prune strategy.
    pub fn with_prune(mut self, prune: PruneStrategy) -> Self {
        self.prune = prune;
        self
    }

    /// Set the scan worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The process-wide default memory budget: `INCOGNITO_MEM_BUDGET`
    /// (bytes) when set to a non-negative integer, else unlimited. Read
    /// once and cached, like [`Config::default_threads`].
    pub fn default_memory_budget() -> Option<u64> {
        static DEFAULT: std::sync::OnceLock<Option<u64>> = std::sync::OnceLock::new();
        *DEFAULT.get_or_init(|| {
            std::env::var("INCOGNITO_MEM_BUDGET")
                .ok()
                .and_then(|v| v.trim().parse::<u64>().ok())
        })
    }

    /// Cap live bytes: frequency sets spill to disk while the process is
    /// over `bytes` (see [`Config::memory_budget`]).
    pub fn with_memory_budget(mut self, bytes: u64) -> Self {
        self.memory_budget = Some(bytes);
        self
    }

    /// Remove any memory budget (including one inherited from
    /// `INCOGNITO_MEM_BUDGET`): every frequency set stays in memory.
    pub fn with_unlimited_memory(mut self) -> Self {
        self.memory_budget = None;
        self
    }

    /// The process-wide default spill directory: `INCOGNITO_SPILL_DIR`
    /// when set to a non-empty path, else `None` (the OS temp directory —
    /// see [`Config::spill_dir`] for the tmpfs caveat). Read once and
    /// cached, like [`Config::default_threads`].
    pub fn default_spill_dir() -> Option<std::path::PathBuf> {
        static DEFAULT: std::sync::OnceLock<Option<std::path::PathBuf>> =
            std::sync::OnceLock::new();
        DEFAULT
            .get_or_init(|| {
                std::env::var_os("INCOGNITO_SPILL_DIR")
                    .filter(|v| !v.is_empty())
                    .map(std::path::PathBuf::from)
            })
            .clone()
    }

    /// Direct spilled frequency sets under `dir` instead of the OS temp
    /// directory (see [`Config::spill_dir`]).
    pub fn with_spill_dir(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.spill_dir = Some(dir.into());
        self
    }

    /// The k-anonymity predicate on a provider handle — in-memory or
    /// spilled — including the suppression allowance.
    pub(crate) fn passes_handle(&self, freq: &provider::FreqHandle) -> Result<bool, AlgoError> {
        if self.max_suppress == 0 {
            freq.is_k_anonymous(self.k)
        } else {
            freq.is_k_anonymous_with_suppression(self.k, self.max_suppress)
        }
    }

    /// The k-anonymity predicate including the suppression allowance.
    pub(crate) fn passes(&self, freq: &incognito_table::FrequencySet) -> bool {
        if self.max_suppress == 0 {
            freq.is_k_anonymous(self.k)
        } else {
            freq.is_k_anonymous_with_suppression(self.k, self.max_suppress)
        }
    }
}
