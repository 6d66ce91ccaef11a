//! Strategic materialization of frequency sets — the paper's §7 future-work
//! item: *"the performance of Incognito can be enhanced even more by
//! strategically materializing portions of the data cube, including count
//! aggregates at various points in the dimension hierarchies"* (citing
//! Harinarayan/Rajaraman/Ullman's view-selection work \[9\]).
//!
//! A [`FreqStore`] is the one materialized source of frequency sets: Cube
//! Incognito's zero-generalization cube ([`crate::cube::Cube`]) is a store
//! built with [`MaterializationPolicy::ZeroCube`]. Its sets are
//! [`FreqHandle`]s built through a [`FreqProvider`], so the memory budget,
//! spill directory and thread count of the [`Config`] it was built under
//! apply to them, and they are keyed by attribute set. A search over a
//! store rolls each node up from the store's cheapest set over the node's
//! attributes (the Rollup Property). A direct [`FreqStore::frequency_set`]
//! query may also project the cheapest stored set over a superset of the
//! requested attributes at lower-or-equal levels (the Subset Property), at
//! a cost proportional to its group count rather than the base table's
//! row count. [`MaterializationPolicy`] selects what to pre-compute,
//! trading memory for repeated-anonymization speed (the "anonymize the
//! same table for many k / many quasi-identifiers" workflow of the retail
//! example).

use std::sync::atomic::{AtomicUsize, Ordering};

use incognito_hierarchy::LevelNo;
use incognito_table::fxhash::FxHashMap;
use incognito_table::{GroupSpec, Table};

use crate::provider::{FreqHandle, FreqProvider};
use crate::{AlgoError, AnonymizationResult, Config};

/// What to pre-materialize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaterializationPolicy {
    /// Nothing up front; the store fills lazily as queries arrive.
    Lazy,
    /// The zero-generalization frequency set of every subset of the
    /// quasi-identifier (Cube Incognito's choice, §3.3.2).
    ZeroCube,
    /// Every subset at *every* level combination whose group count does not
    /// exceed `max_groups` — the §7 idea of materializing counts at various
    /// points in the dimension hierarchies, with a size budget standing in
    /// for \[9\]'s benefit metric.
    LeveledCube {
        /// Upper bound on the group count of any stored frequency set.
        max_groups: usize,
    },
}

/// Counters describing how the store answered queries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Queries answered from an exact materialization.
    pub exact_hits: usize,
    /// Queries answered by projecting/rolling up a materialized ancestor.
    pub derived_hits: usize,
    /// Queries that had to scan the base table.
    pub misses: usize,
    /// Frequency sets materialized (pre-computation plus lazily cached).
    pub materialized: usize,
}

/// One materialized set and its group count, counted once when stored.
struct Stored {
    set: FreqHandle,
    groups: usize,
}

/// A cache of materialized frequency sets over one table.
pub struct FreqStore<'t> {
    provider: FreqProvider<'t>,
    threads: usize,
    qi: Vec<usize>,
    policy: MaterializationPolicy,
    /// The sets over each attribute set, fewest groups first.
    sets: FxHashMap<Vec<usize>, Vec<Stored>>,
    exact_hits: AtomicUsize,
    derived_hits: AtomicUsize,
    misses: AtomicUsize,
}

impl<'t> FreqStore<'t> {
    /// Build a store over `table` restricted to the quasi-identifier `qi`
    /// (sorted internally), pre-materializing per `policy` under `cfg`'s
    /// memory budget, spill directory and thread count.
    pub fn build(
        table: &'t Table,
        qi: &[usize],
        policy: MaterializationPolicy,
        cfg: &Config,
    ) -> Result<Self, AlgoError> {
        let mut sorted = qi.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut store = FreqStore {
            provider: FreqProvider::new(table, cfg),
            threads: cfg.threads,
            qi: sorted,
            policy,
            sets: FxHashMap::default(),
            exact_hits: AtomicUsize::new(0),
            derived_hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        };
        match policy {
            MaterializationPolicy::Lazy => {}
            MaterializationPolicy::ZeroCube => store.zero_cube()?,
            MaterializationPolicy::LeveledCube { max_groups } => {
                store.zero_cube()?;
                store.materialize_levels(max_groups)?;
            }
        }
        store.publish_gauges();
        Ok(store)
    }

    /// The (sorted) quasi-identifier the store covers.
    pub(crate) fn qi(&self) -> &[usize] {
        &self.qi
    }

    /// The policy the store was built with.
    pub(crate) fn policy(&self) -> MaterializationPolicy {
        self.policy
    }

    /// The store's accounting.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            exact_hits: self.exact_hits.load(Ordering::Relaxed),
            derived_hits: self.derived_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            materialized: self.len(),
        }
    }

    /// Number of materialized frequency sets.
    pub fn len(&self) -> usize {
        self.sets.values().map(Vec::len).sum()
    }

    /// True when nothing is materialized yet.
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// Total groups across all materialized sets (a memory proxy).
    pub fn total_groups(&self) -> usize {
        self.stored().map(|s| s.groups).sum()
    }

    /// Estimated heap bytes held by the materialized sets (see
    /// [`FreqHandle::resident_bytes`]; a spilled set counts as zero).
    pub fn resident_bytes(&self) -> u64 {
        self.stored().map(|s| s.set.resident_bytes()).sum()
    }

    fn stored(&self) -> impl Iterator<Item = &Stored> {
        self.sets.values().flatten()
    }

    /// Store `set` under its attribute set, keeping the fewest-groups-first
    /// order.
    fn insert(&mut self, set: FreqHandle, groups: usize) {
        let attrs: Vec<usize> = set.spec().parts().iter().map(|&(a, _)| a).collect();
        let sets = self.sets.entry(attrs).or_default();
        let at = sets.partition_point(|s| s.groups <= groups);
        sets.insert(at, Stored { set, groups });
    }

    /// Publish store occupancy as `core.store.*` gauges. Called after
    /// every mutation batch; a no-op while observation is disabled.
    fn publish_gauges(&self) {
        if !incognito_obs::enabled() {
            return;
        }
        incognito_obs::gauge_set("core.store.entries", self.len() as i64);
        incognito_obs::gauge_set("core.store.groups", self.total_groups() as i64);
        incognito_obs::gauge_set("core.store.bytes", self.resident_bytes() as i64);
    }

    /// The zero-generalization frequency sets of every non-empty subset of
    /// the quasi-identifier, built data-cube style (§3.3.2, citing \[8\]):
    /// one scan computes the full quasi-identifier at ground level, and
    /// every narrower subset is projected from the one-attribute-wider
    /// superset that adds its lowest absent attribute (the Subset
    /// Property), never touching the base table again. Subsets go level by
    /// level in decreasing popcount order. With more than one thread the
    /// seed scan splits by row and every level projects concurrently, one
    /// task per subset: subsets of equal arity derive from parents one
    /// level up, so a level has no intra-level dependencies and the result
    /// is identical to a serial build. Over the memory budget, the seed
    /// scan spills and narrower subsets derive partition by partition.
    fn zero_cube(&mut self) -> Result<(), AlgoError> {
        let qi = self.qi.clone();
        let n = qi.len();
        let attrs = |mask: u32| -> Vec<usize> {
            (0..n).filter(|&b| mask & (1 << b) != 0).map(|b| qi[b]).collect()
        };
        let pool = (self.threads > 1).then(|| incognito_exec::shared(self.threads));
        let full = self.provider.scan(&GroupSpec::ground(&qi)?, self.threads)?;
        let groups = full.num_groups()?;
        self.insert(full, groups);

        let full_mask: u32 = (1u32 << n) - 1;
        for pc in (1..n as u32).rev() {
            let masks: Vec<u32> = (1..full_mask).filter(|m| m.count_ones() == pc).collect();
            let project_one = |mask: u32| -> Result<(FreqHandle, usize), AlgoError> {
                let add = (0..n as u32).find(|b| mask & (1 << b) == 0).expect("not full");
                let parent_mask = mask | (1 << add);
                let parent = &self.sets[&attrs(parent_mask)][0].set;
                // Positions (within the parent's spec) of the attributes kept.
                let keep: Vec<usize> = (0..n)
                    .filter(|&b| parent_mask & (1 << b) != 0)
                    .enumerate()
                    .filter(|&(_, b)| mask & (1 << b) != 0)
                    .map(|(pos, _)| pos)
                    .collect();
                let set = self.provider.project(parent, &keep)?;
                let groups = set.num_groups()?;
                Ok((set, groups))
            };
            let projected: Vec<Result<(FreqHandle, usize), AlgoError>> = match &pool {
                Some(pool) if masks.len() > 1 => pool.parallel_map(&masks, |_, &m| project_one(m)),
                _ => masks.iter().map(|&m| project_one(m)).collect(),
            };
            for out in projected {
                let (set, groups) = out?;
                self.insert(set, groups);
            }
        }
        Ok(())
    }

    /// Roll every zero-level materialization up through all level
    /// combinations, keeping those within the group budget.
    fn materialize_levels(&mut self, max_groups: usize) -> Result<(), AlgoError> {
        let schema = self.provider.table().schema().clone();
        let attr_sets: Vec<Vec<usize>> = self.sets.keys().cloned().collect();
        for attrs in attr_sets {
            // The zero cube holds one set per attribute set.
            let zero = &self.sets[&attrs][0].set;
            let heights: Vec<LevelNo> =
                attrs.iter().map(|&a| schema.hierarchy(a).height()).collect();
            let mut rolled = Vec::new();
            // Enumerate level vectors in mixed-radix order, skipping all-zeros.
            let mut levels = vec![0u8; attrs.len()];
            while let Some(i) = (0..attrs.len()).find(|&i| levels[i] < heights[i]) {
                levels[..i].fill(0);
                levels[i] += 1;
                let set = self.provider.rollup(zero, &schema, &levels)?;
                let groups = set.num_groups()?;
                if groups <= max_groups {
                    rolled.push((set, groups));
                }
            }
            for (set, groups) in rolled {
                self.insert(set, groups);
            }
        }
        Ok(())
    }

    /// The cheapest stored set over exactly the attributes of `parts` at
    /// levels no higher than theirs, which rolls up to `parts`. Counts the
    /// query as an exact hit, a derived hit or a miss.
    pub(crate) fn source(&self, parts: &[(usize, LevelNo)]) -> Option<&FreqHandle> {
        let attrs: Vec<usize> = parts.iter().map(|&(a, _)| a).collect();
        let found = self.sets.get(&attrs).and_then(|sets| {
            sets.iter().map(|s| &s.set).find(|set| {
                set.spec().parts().iter().zip(parts).all(|(&(_, have), &(_, want))| have <= want)
            })
        });
        let counter = match found {
            Some(set) if set.spec().parts() == parts => &self.exact_hits,
            Some(_) => &self.derived_hits,
            None => &self.misses,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// The cheapest stored set that answers `parts` by projection and
    /// rollup: a superset of its attributes at lower-or-equal levels, the
    /// exact set on a tie.
    fn ancestor(&self, parts: &[(usize, LevelNo)]) -> Option<&FreqHandle> {
        self.stored()
            .filter(|s| {
                let have = s.set.spec().parts();
                parts.iter().all(|&(a, l)| have.iter().any(|&(ha, hl)| ha == a && hl <= l))
            })
            .min_by_key(|s| (s.groups, s.set.spec().parts() != parts))
            .map(|s| &s.set)
    }

    /// Answer a frequency-set query, preferring (1) an exact
    /// materialization, (2) derivation from the cheapest materialized
    /// ancestor, (3) a base-table scan, which is then cached. Every answer
    /// is built through the store's provider.
    pub fn frequency_set(&mut self, spec: &GroupSpec) -> Result<FreqHandle, AlgoError> {
        let schema = self.provider.table().schema().clone();
        spec.validate(&schema)?;
        let parts = spec.parts();
        match self.ancestor(parts).map(|set| set.spec() == spec) {
            Some(true) => self.exact_hits.fetch_add(1, Ordering::Relaxed),
            Some(false) => self.derived_hits.fetch_add(1, Ordering::Relaxed),
            None => {
                let scanned = self.provider.scan(spec, self.threads)?;
                let groups = scanned.num_groups()?;
                self.insert(scanned, groups);
                self.publish_gauges();
                self.misses.fetch_add(1, Ordering::Relaxed)
            }
        };
        let source = self.ancestor(parts).expect("materialized above");
        // Project to the requested attributes (positions increase: both
        // specs are attribute-sorted), then roll up to the requested levels.
        let have = source.spec().parts();
        let keep: Vec<usize> = parts
            .iter()
            .map(|&(a, _)| have.iter().position(|&(ha, _)| ha == a).expect("ancestor"))
            .collect();
        let projected;
        let narrow = if keep.len() < have.len() {
            projected = self.provider.project(source, &keep)?;
            &projected
        } else {
            source
        };
        let target: Vec<LevelNo> = parts.iter().map(|&(_, l)| l).collect();
        self.provider.rollup(narrow, &schema, &target)
    }
}

/// Run the Incognito search answering root frequency sets from `store`
/// instead of scanning the base table — the §7 "strategic
/// materialization" variant. Each node without a cached parent rolls up
/// from the store's cheapest set over its attributes; a node the store
/// cannot answer scans the table, as in Basic Incognito, and the scan is
/// not added to the store. With a [`MaterializationPolicy::LeveledCube`]
/// store, repeated anonymizations (different k, different
/// quasi-identifier subsets of the store's QI) never rescan the table.
pub fn incognito_with_store(
    table: &Table,
    qi: &[usize],
    cfg: &Config,
    store: &mut FreqStore<'_>,
) -> Result<AnonymizationResult, AlgoError> {
    crate::incognito::incognito_impl(table, qi, cfg, &mut |_| {}, Some(store))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::patients;

    /// Every set in memory: the tests read answers through `as_mem`, which
    /// an environment budget (e.g. CI's `INCOGNITO_MEM_BUDGET`) would
    /// otherwise spill. Spilled stores are covered by
    /// `tests/out_of_core_equivalence.rs`.
    fn cfg(k: u64) -> Config {
        Config::new(k).with_unlimited_memory()
    }

    fn rows(h: &FreqHandle, t: &Table) -> Vec<(Vec<String>, u64)> {
        h.as_mem().expect("in memory").to_labeled_rows(t.schema())
    }

    #[test]
    fn lazy_store_caches_scans() {
        let t = patients();
        let mut store =
            FreqStore::build(&t, &[0, 1, 2], MaterializationPolicy::Lazy, &cfg(2)).unwrap();
        assert!(store.is_empty());
        let spec = GroupSpec::ground(&[1, 2]).unwrap();
        let a = store.frequency_set(&spec).unwrap();
        assert_eq!(store.stats().misses, 1);
        let b = store.frequency_set(&spec).unwrap();
        assert_eq!(store.stats().exact_hits, 1);
        assert_eq!(store.stats().materialized, 1);
        assert_eq!(rows(&a, &t), rows(&b, &t));
    }

    #[test]
    fn zero_cube_answers_everything_without_scans() {
        let t = patients();
        let mut store =
            FreqStore::build(&t, &[0, 1, 2], MaterializationPolicy::ZeroCube, &cfg(2)).unwrap();
        assert_eq!(store.len(), 7); // 2³ − 1 subsets
                                    // Any spec over the QI is answerable without touching the table.
        for spec in [
            GroupSpec::new(vec![(0, 1), (1, 0)]).unwrap(),
            GroupSpec::new(vec![(2, 2)]).unwrap(),
            GroupSpec::new(vec![(0, 0), (1, 1), (2, 1)]).unwrap(),
        ] {
            let via_store = store.frequency_set(&spec).unwrap();
            let direct = t.frequency_set(&spec).unwrap();
            assert_eq!(rows(&via_store, &t), direct.to_labeled_rows(t.schema()));
        }
        assert_eq!(store.stats().misses, 0);
        assert!(store.stats().derived_hits >= 2);
    }

    #[test]
    fn leveled_cube_respects_budget_and_serves_exact_hits() {
        let t = patients();
        let mut store = FreqStore::build(
            &t,
            &[1, 2],
            MaterializationPolicy::LeveledCube { max_groups: 100 },
            &cfg(2),
        )
        .unwrap();
        // ⟨Sex⟩ chain (2 levels) + ⟨Zip⟩ chain (3) + ⟨Sex, Zip⟩ grid (6):
        // 11 specs total, all within budget.
        assert_eq!(store.len(), 11);
        let spec = GroupSpec::new(vec![(1, 1), (2, 1)]).unwrap();
        let f = store.frequency_set(&spec).unwrap();
        assert_eq!(store.stats().exact_hits, 1);
        assert_eq!(f.total(), 6);
        // Tight budget stores only the small generalized sets.
        let tight = FreqStore::build(
            &t,
            &[1, 2],
            MaterializationPolicy::LeveledCube { max_groups: 2 },
            &cfg(2),
        )
        .unwrap();
        assert!(tight.len() < 11);
        assert!(tight.len() >= 3); // zero cube always kept
    }

    #[test]
    fn store_backed_incognito_matches_basic() {
        let t = patients();
        let mut store =
            FreqStore::build(&t, &[0, 1, 2], MaterializationPolicy::ZeroCube, &cfg(2)).unwrap();
        for k in [1u64, 2, 3, 6] {
            let via_store = incognito_with_store(&t, &[0, 1, 2], &cfg(k), &mut store).unwrap();
            let basic = crate::incognito(&t, &[0, 1, 2], &cfg(k)).unwrap();
            assert_eq!(via_store.generalizations(), basic.generalizations(), "k={k}");
        }
        // Every root answer came from the store, never a fresh table scan.
        assert_eq!(store.stats().misses, 0);
        // The store also serves narrower quasi-identifiers.
        let narrow = incognito_with_store(&t, &[1, 2], &cfg(2), &mut store).unwrap();
        assert_eq!(
            narrow.generalizations(),
            crate::incognito(&t, &[1, 2], &cfg(2)).unwrap().generalizations()
        );
        assert_eq!(store.stats().misses, 0);
        assert_eq!(narrow.stats().table_scans, 0);
    }

    #[test]
    fn leveled_store_turns_repeat_runs_into_exact_hits() {
        let t = patients();
        let mut store = FreqStore::build(
            &t,
            &[1, 2],
            MaterializationPolicy::LeveledCube { max_groups: usize::MAX },
            &cfg(2),
        )
        .unwrap();
        let before = store.stats();
        let _ = incognito_with_store(&t, &[1, 2], &cfg(2), &mut store).unwrap();
        let after = store.stats();
        assert_eq!(after.misses, before.misses);
        assert!(after.exact_hits > before.exact_hits);
    }

    #[test]
    fn derived_answers_match_scans_across_the_lattice() {
        let t = patients();
        let mut store =
            FreqStore::build(&t, &[0, 1, 2], MaterializationPolicy::ZeroCube, &cfg(2)).unwrap();
        let schema = t.schema().clone();
        for a in 0..=1u8 {
            for s in 0..=1u8 {
                for z in 0..=2u8 {
                    let spec = GroupSpec::new(vec![(0, a), (1, s), (2, z)]).unwrap();
                    assert_eq!(
                        rows(&store.frequency_set(&spec).unwrap(), &t),
                        t.frequency_set(&spec).unwrap().to_labeled_rows(&schema),
                        "levels ({a},{s},{z})"
                    );
                }
            }
        }
        assert_eq!(store.stats().misses, 0);
    }
}
