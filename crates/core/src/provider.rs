//! The frequency-set provider: bounded-memory Incognito.
//!
//! Every engine in this crate (Basic, Super-roots, Cube, store-backed
//! Incognito, the bottom-up baselines, binary search and Datafly) and
//! every [`crate::materialize::FreqStore`] obtains its frequency sets
//! through a [`FreqProvider`], which transparently degrades to the disk-backed
//! [`ExternalFrequencySet`] whenever the process's live bytes — measured
//! by the `incognito_obs::mem` tracking allocator — exceed the
//! [`Config::memory_budget`]. This is the paper's §7 future work
//! ("the case where … the intermediate frequency tables do not fit in
//! main memory") made concrete: the search is unchanged, the *plans* are
//! unchanged (so counters stay byte-identical to the in-memory run), and
//! only the representation behind each [`FreqHandle`] differs.
//!
//! The key property preserved out-of-core is the paper's §3 Rollup: a
//! spilled parent's child is derived partition-by-partition on disk
//! ([`ExternalFrequencySet::rollup`]) instead of falling back to a base
//! table rescan. When the budget regains headroom for a derived set's
//! estimated materialized size, the set upgrades to the in-memory form
//! (`table.spill.upgrades` counts these), so a transient spike doesn't
//! pin the rest of the search on disk.
//!
//! Spill files go under [`Config::spill_dir`] (builder
//! [`Config::with_spill_dir`], environment default
//! `INCOGNITO_SPILL_DIR`), falling back to the OS temp directory — which
//! on Linux is frequently a RAM-backed tmpfs, where spilling still
//! consumes physical memory; redirect it when the budget matters.

use std::path::PathBuf;

use incognito_hierarchy::LevelNo;
use incognito_table::{ExternalFrequencySet, FrequencySet, GroupSpec, Schema, Table};

use crate::{AlgoError, Config};

/// Most partitions of a provider-built external set: enough that one
/// partition's distinct groups stay small, few enough that the
/// per-partition write buffers stay useful.
const SPILL_PARTITIONS: usize = 64;

/// Groups a set can have per partition of its fan-out.
const GROUPS_PER_PARTITION: u64 = 4096;

/// The spill fan-out of a set that can have at most `slots` groups (its
/// key space) over a table of `rows` rows: one partition per
/// [`GROUPS_PER_PARTITION`] of the fewer, between 1 and
/// [`SPILL_PARTITIONS`]. A small set then costs a few files, not 64.
fn spill_partitions(slots: u64, rows: usize) -> usize {
    let groups = slots.min(rows as u64);
    groups.div_ceil(GROUPS_PER_PARTITION).clamp(1, SPILL_PARTITIONS as u64) as usize
}

/// The number of slots of `spec`'s key space, saturating at `u64::MAX`.
fn key_slots(schema: &Schema, spec: &GroupSpec) -> u64 {
    spec.parts()
        .iter()
        .fold(1u64, |slots, &(a, l)| slots.saturating_mul(schema.hierarchy(a).level_size(l) as u64))
}

/// A frequency set in whichever representation the memory budget allowed:
/// fully in memory, or spilled to hash partitions on disk.
///
/// All predicates answer identically in both representations (the spilled
/// form streams one partition at a time); the `Result` on the accessors
/// carries the spill path's IO errors, which the in-memory form can never
/// produce.
pub enum FreqHandle {
    /// The ordinary in-memory frequency set.
    Mem(FrequencySet),
    /// A disk-backed frequency set (over budget at creation time).
    Ext(ExternalFrequencySet),
}

impl FreqHandle {
    /// The grouping spec.
    pub fn spec(&self) -> &GroupSpec {
        match self {
            FreqHandle::Mem(f) => f.spec(),
            FreqHandle::Ext(e) => e.spec(),
        }
    }

    /// Total tuples counted.
    pub fn total(&self) -> u64 {
        match self {
            FreqHandle::Mem(f) => f.total(),
            FreqHandle::Ext(e) => e.total(),
        }
    }

    /// Number of distinct groups.
    pub fn num_groups(&self) -> Result<usize, AlgoError> {
        match self {
            FreqHandle::Mem(f) => Ok(f.num_groups()),
            FreqHandle::Ext(e) => Ok(e.num_groups()?),
        }
    }

    /// The K-Anonymity Property.
    pub fn is_k_anonymous(&self, k: u64) -> Result<bool, AlgoError> {
        match self {
            FreqHandle::Mem(f) => Ok(f.is_k_anonymous(k)),
            FreqHandle::Ext(e) => Ok(e.is_k_anonymous(k)?),
        }
    }

    /// K-anonymity modulo at most `max_suppress` suppressed tuples (§2.1).
    pub fn is_k_anonymous_with_suppression(
        &self,
        k: u64,
        max_suppress: u64,
    ) -> Result<bool, AlgoError> {
        match self {
            FreqHandle::Mem(f) => Ok(f.is_k_anonymous_with_suppression(k, max_suppress)),
            FreqHandle::Ext(e) => Ok(e.is_k_anonymous_with_suppression(k, max_suppress)?),
        }
    }

    /// Tuples in groups smaller than `k` (the suppression tally).
    pub fn tuples_below(&self, k: u64) -> Result<u64, AlgoError> {
        match self {
            FreqHandle::Mem(f) => Ok(f.tuples_below(k)),
            FreqHandle::Ext(e) => Ok(e.tuples_below(k)?),
        }
    }

    /// Approximate heap bytes held by this handle. A spilled set's groups
    /// live on disk, so only its bookkeeping counts (reported as zero —
    /// it is negligible next to any in-memory set).
    pub fn resident_bytes(&self) -> u64 {
        match self {
            FreqHandle::Mem(f) => f.resident_bytes(),
            FreqHandle::Ext(_) => 0,
        }
    }

    /// True when the set lives on disk.
    pub fn is_spilled(&self) -> bool {
        matches!(self, FreqHandle::Ext(_))
    }

    /// Borrow the in-memory representation, if that is what this is.
    pub fn as_mem(&self) -> Option<&FrequencySet> {
        match self {
            FreqHandle::Mem(f) => Some(f),
            FreqHandle::Ext(_) => None,
        }
    }
}

/// The provider every engine routes frequency-set construction through.
///
/// Holds the base table, the memory budget, and the spill location; it is
/// `Sync`, so wave-parallel engines can call it from pool workers (each
/// call builds an independent set — the provider itself carries no
/// mutable state).
pub struct FreqProvider<'t> {
    table: &'t Table,
    budget: Option<u64>,
    spill_root: PathBuf,
}

impl<'t> FreqProvider<'t> {
    /// A provider over `table` honoring `cfg.memory_budget`. Spill files
    /// go under `cfg.spill_dir` — falling back to the OS temp directory,
    /// which on Linux is frequently a RAM-backed tmpfs; point
    /// [`Config::with_spill_dir`] (or `INCOGNITO_SPILL_DIR`) at a real
    /// filesystem when the budget matters. Each set spills into its own
    /// collision-free subdirectory, removed when the set drops.
    pub fn new(table: &'t Table, cfg: &Config) -> Self {
        FreqProvider {
            table,
            budget: cfg.memory_budget,
            spill_root: cfg.spill_dir.clone().unwrap_or_else(std::env::temp_dir),
        }
    }

    /// The base table this provider scans.
    pub fn table(&self) -> &'t Table {
        self.table
    }

    /// True while the process's live bytes exceed the budget — the next
    /// set built through this provider will spill.
    pub fn over_budget(&self) -> bool {
        self.budget.is_some_and(|b| incognito_obs::mem::live_bytes() > b)
    }

    /// Scan the base table for `spec`'s frequency set, spilling when over
    /// budget. `threads > 1` engages the row-split parallel scan (only
    /// meaningful for the in-memory representation).
    pub fn scan(&self, spec: &GroupSpec, threads: usize) -> Result<FreqHandle, AlgoError> {
        if self.over_budget() {
            let slots = key_slots(self.table.schema(), spec);
            let partitions = spill_partitions(slots, self.table.num_rows());
            let ext = ExternalFrequencySet::build(self.table, spec, partitions, &self.spill_root)?;
            Ok(FreqHandle::Ext(ext))
        } else {
            Ok(FreqHandle::Mem(self.table.frequency_set_parallel(spec, threads)?))
        }
    }

    /// The Rollup Property through the budget: an in-memory parent rolls
    /// up in memory; a spilled parent rolls up partition-by-partition on
    /// disk, then upgrades to the in-memory form if the budget has
    /// headroom for the child's estimated materialized size.
    pub fn rollup(
        &self,
        parent: &FreqHandle,
        schema: &Schema,
        target: &[LevelNo],
    ) -> Result<FreqHandle, AlgoError> {
        match parent {
            FreqHandle::Mem(f) => Ok(FreqHandle::Mem(f.rollup(schema, target)?)),
            FreqHandle::Ext(e) => {
                let child = e.rollup(schema, target, &self.spill_root)?;
                self.maybe_upgrade(child)
            }
        }
    }

    /// The Subset Property through the budget (Cube Incognito's
    /// projections), same upgrade policy as [`FreqProvider::rollup`].
    pub fn project(&self, parent: &FreqHandle, keep: &[usize]) -> Result<FreqHandle, AlgoError> {
        match parent {
            FreqHandle::Mem(f) => Ok(FreqHandle::Mem(f.project(keep)?)),
            FreqHandle::Ext(e) => {
                let child = e.project(keep, &self.spill_root)?;
                self.maybe_upgrade(child)
            }
        }
    }

    /// Upgrade a derived spilled child to the in-memory form only when
    /// the budget has headroom for its *materialized* size, estimated
    /// from the child's spilled footprint. A bare [`Self::over_budget`]
    /// sample is not enough: it is a point-in-time reading that says
    /// nothing about how large the child will be once materialized, so a
    /// big child could blow far past the budget right after the check
    /// passed. The estimate is an upper bound, so admission errs toward
    /// keeping the child on disk.
    fn maybe_upgrade(&self, child: ExternalFrequencySet) -> Result<FreqHandle, AlgoError> {
        let fits = match self.budget {
            None => true,
            Some(b) => {
                incognito_obs::mem::live_bytes().saturating_add(child.estimated_resident_bytes())
                    <= b
            }
        };
        if fits {
            Ok(FreqHandle::Mem(child.into_frequency_set()?))
        } else {
            Ok(FreqHandle::Ext(child))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::patients;

    fn handle_rows(h: &FreqHandle, schema: &std::sync::Arc<Schema>) -> Vec<(Vec<String>, u64)> {
        match h {
            FreqHandle::Mem(f) => f.to_labeled_rows(schema),
            FreqHandle::Ext(_) => panic!("expected in-memory handle"),
        }
    }

    #[test]
    fn spill_fan_out_follows_the_groups_a_set_can_have() {
        let full = SPILL_PARTITIONS as u64 * GROUPS_PER_PARTITION;
        // A space and a table that can each hold 64 × 4,096 groups or
        // more: the full fan-out.
        assert_eq!(spill_partitions(full, full as usize), SPILL_PARTITIONS);
        assert_eq!(spill_partitions(u64::MAX, 4_591_581), SPILL_PARTITIONS);
        // A tiny space or a tiny table: 1 partition.
        assert_eq!(spill_partitions(2, 500_000), 1);
        assert_eq!(spill_partitions(u64::MAX, 6), 1);
        assert_eq!(spill_partitions(1, 0), 1);
        // Between them, one partition per 4,096 groups, rounded up.
        assert_eq!(spill_partitions(4_097, 500_000), 2);
        assert_eq!(spill_partitions(u64::MAX, 10_000), 3);
        assert_eq!(spill_partitions(full - 1, full as usize), SPILL_PARTITIONS);
        assert_eq!(spill_partitions(full - GROUPS_PER_PARTITION, 500_000), 63);
        // Patients' ground space is 3 × 2 × 4 × 6 slots.
        let t = patients();
        let ground = GroupSpec::ground(&[0, 1, 2, 3]).unwrap();
        assert_eq!(key_slots(t.schema(), &ground), 144);
        let top = GroupSpec::new(vec![(0, 1), (1, 1), (2, 2)]).unwrap();
        assert_eq!(key_slots(t.schema(), &top), 1);
    }

    #[test]
    fn unlimited_budget_stays_in_memory() {
        let t = patients();
        let cfg = Config::new(2).with_unlimited_memory();
        let p = FreqProvider::new(&t, &cfg);
        assert!(!p.over_budget());
        let spec = GroupSpec::ground(&[0, 1]).unwrap();
        let h = p.scan(&spec, 1).unwrap();
        assert!(!h.is_spilled());
    }

    #[test]
    fn zero_budget_spills_everything_with_identical_answers() {
        let t = patients();
        let cfg = Config::new(2).with_memory_budget(0);
        let p = FreqProvider::new(&t, &cfg);
        assert!(p.over_budget(), "live bytes are always above a zero budget");
        let spec = GroupSpec::ground(&[0, 1, 2]).unwrap();
        let h = p.scan(&spec, 1).unwrap();
        assert!(h.is_spilled());
        let mem = t.frequency_set(&spec).unwrap();
        assert_eq!(h.total(), mem.total());
        assert_eq!(h.num_groups().unwrap(), mem.num_groups());
        for k in [1, 2, 3, 10] {
            assert_eq!(h.is_k_anonymous(k).unwrap(), mem.is_k_anonymous(k));
            assert_eq!(h.tuples_below(k).unwrap(), mem.tuples_below(k));
        }

        // Spilled rollup agrees with the in-memory rollup.
        let schema = t.schema();
        let target: Vec<_> =
            spec.parts().iter().map(|&(a, _)| schema.hierarchy(a).height()).collect();
        let rolled = p.rollup(&h, schema, &target).unwrap();
        assert!(rolled.is_spilled(), "still over budget, child stays on disk");
        let mem_rolled = mem.rollup(schema, &target).unwrap();
        assert_eq!(rolled.num_groups().unwrap(), mem_rolled.num_groups());
        assert_eq!(rolled.tuples_below(5).unwrap(), mem_rolled.tuples_below(5));
    }

    #[test]
    fn spill_dir_config_redirects_spill_files() {
        let t = patients();
        let root =
            std::env::temp_dir().join(format!("incognito-spill-dir-test-{}", std::process::id()));
        let cfg = Config::new(2).with_memory_budget(0).with_spill_dir(&root);
        let p = FreqProvider::new(&t, &cfg);
        let spec = GroupSpec::ground(&[0, 1]).unwrap();
        let h = p.scan(&spec, 1).unwrap();
        assert!(h.is_spilled());
        let subdirs = std::fs::read_dir(&root)
            .expect("configured spill root was created")
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with("incognito-spill-"))
            .count();
        assert_eq!(subdirs, 1, "the set spills under the configured root");
        drop(h);
        assert_eq!(
            std::fs::read_dir(&root).unwrap().count(),
            0,
            "dropping the set removes its spill subdirectory"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn rollup_of_spilled_parent_upgrades_when_back_under_budget() {
        let t = patients();
        let spec = GroupSpec::ground(&[0, 1]).unwrap();
        // Build the spilled parent directly, then hand it to a provider
        // with a budget far above current usage: the derived child must
        // come back in memory, identical to the in-memory rollup.
        let ext = ExternalFrequencySet::build(&t, &spec, 4, &std::env::temp_dir()).unwrap();
        let parent = FreqHandle::Ext(ext);
        let generous = incognito_obs::mem::live_bytes() + (1 << 30);
        let cfg = Config::new(2).with_memory_budget(generous);
        let p = FreqProvider::new(&t, &cfg);
        let child = p.rollup(&parent, t.schema(), &[1, 1]).unwrap();
        assert!(!child.is_spilled(), "under budget, rollup upgrades to memory");
        let mem_child = t.frequency_set(&spec).unwrap().rollup(t.schema(), &[1, 1]).unwrap();
        assert_eq!(handle_rows(&child, t.schema()), mem_child.to_labeled_rows(t.schema()));
    }
}
