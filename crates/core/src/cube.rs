//! Cube Incognito (§3.3.2): pre-compute the zero-generalization frequency
//! sets of every quasi-identifier subset bottom-up, data-cube style, then
//! run Incognito answering every root frequency set from the cube instead
//! of scanning the base table.
//!
//! The cube is built exactly as the paper describes the data-cube ordering
//! \[8\]: one scan computes the frequency set of the full quasi-identifier at
//! ground level; every narrower subset's frequency set is then derived by
//! projecting a one-attribute-wider superset (the Subset Property), never
//! touching the base table again.

use incognito_table::Table;

use crate::error::validate_qi;
use crate::incognito::incognito_impl;
use crate::materialize::{FreqStore, MaterializationPolicy};
use crate::trace::TraceEvent;
use crate::{AlgoError, AnonymizationResult, Config};

/// The pre-computed zero-generalization cube — a [`FreqStore`] built with
/// [`MaterializationPolicy::ZeroCube`] — plus its build cost, kept
/// separate so callers (and the Figure 12 harness) can measure build and
/// anonymization phases independently.
pub struct Cube<'t> {
    store: FreqStore<'t>,
    /// Wall-clock cost of building the cube.
    pub build_time: std::time::Duration,
    /// Number of frequency sets derived by projection (all but the first).
    pub projections: usize,
}

impl<'t> Cube<'t> {
    /// Build the zero-generalization frequency sets of every non-empty
    /// subset of `qi` with a single base-table scan.
    pub fn build(table: &'t Table, qi: &[usize], k: u64) -> Result<Self, AlgoError> {
        Self::build_with_config(table, qi, &Config::new(k).with_threads(1))
    }

    /// Build the cube under a [`Config`]: its thread count, memory budget
    /// and spill directory apply to the build and to the stored sets (see
    /// [`FreqStore::build`]).
    pub fn build_with_config(
        table: &'t Table,
        qi: &[usize],
        cfg: &Config,
    ) -> Result<Self, AlgoError> {
        let qi = validate_qi(table.schema(), qi, cfg.k)?;
        let mut cube_span = incognito_obs::span("cube.build").arg("qi_arity", qi.len() as u64);
        let store = FreqStore::build(table, &qi, MaterializationPolicy::ZeroCube, cfg)?;
        let projections = store.len() - 1;
        cube_span.set_arg("projections", projections as u64);
        Ok(Cube { store, build_time: cube_span.finish(), projections })
    }

    /// The materialized zero-generalization frequency sets.
    pub fn store(&self) -> &FreqStore<'t> {
        &self.store
    }
}

/// Cube Incognito: build the cube, then run the Incognito search against it.
/// The returned stats carry the cube build time
/// (`stats().timings.cube_build`) and count cube-answered root frequency
/// sets as rollups, matching how §4.2.3 splits "cube build time" from
/// "anonymization time".
pub fn cube_incognito(
    table: &Table,
    qi: &[usize],
    cfg: &Config,
) -> Result<AnonymizationResult, AlgoError> {
    cube_incognito_traced(table, qi, cfg, &mut |_| {})
}

/// [`cube_incognito`] with a trace sink.
pub fn cube_incognito_traced(
    table: &Table,
    qi: &[usize],
    cfg: &Config,
    sink: &mut dyn FnMut(TraceEvent),
) -> Result<AnonymizationResult, AlgoError> {
    let cube = Cube::build_with_config(table, qi, cfg)?;
    anonymize_with_cube(table, &cube, cfg, sink)
}

/// Run the Incognito search against a pre-built cube (the "marginal cost of
/// anonymization ... once the zero-generalization frequency sets have been
/// materialized" measurement of §4.2.3).
pub fn anonymize_with_cube(
    table: &Table,
    cube: &Cube<'_>,
    cfg: &Config,
    sink: &mut dyn FnMut(TraceEvent),
) -> Result<AnonymizationResult, AlgoError> {
    let mut result = incognito_impl(table, cube.store.qi(), cfg, sink, Some(&cube.store))?;
    let stats = result.stats_mut();
    stats.timings.cube_build = Some(cube.build_time);
    stats.freq_from_projection = cube.projections;
    // The single scan that seeded the cube.
    stats.table_scans += 1;
    stats.freq_from_scan += 1;
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incognito;
    use crate::testutil::{exhaustive_truth, patients};
    use incognito_table::GroupSpec;

    #[test]
    fn cube_covers_every_subset() {
        let t = patients();
        // Pinned in memory: the test reads each entry through `as_mem`,
        // which an environment budget (e.g. CI's INCOGNITO_MEM_BUDGET)
        // would otherwise spill. The spilled cube is covered by
        // `tests/out_of_core_equivalence.rs`.
        let cfg = Config::new(2).with_unlimited_memory();
        let cube = Cube::build_with_config(&t, &[0, 1, 2], &cfg).unwrap();
        assert_eq!(cube.store().len(), 7); // 2³ - 1 subsets
        assert_eq!(cube.projections, 6);
        // Each cube entry equals a direct scan.
        let schema = t.schema().clone();
        for mask in 1u32..8 {
            let attrs: Vec<usize> = (0..3).filter(|&b| mask & (1 << b) != 0).collect();
            let spec = GroupSpec::ground(&attrs).unwrap();
            let direct = t.frequency_set(&spec).unwrap();
            let cubed = cube.store().source(spec.parts()).unwrap().as_mem().unwrap();
            assert_eq!(
                cubed.to_labeled_rows(&schema),
                direct.to_labeled_rows(&schema),
                "mask={mask:#b}"
            );
        }
    }

    #[test]
    fn cube_incognito_matches_basic_and_truth() {
        let t = patients();
        for k in [1, 2, 3, 6] {
            let cfg = Config::new(k);
            let c = cube_incognito(&t, &[0, 1, 2], &cfg).unwrap();
            let b = incognito(&t, &[0, 1, 2], &cfg).unwrap();
            assert_eq!(c.generalizations(), b.generalizations(), "k={k}");
            let got: Vec<Vec<u8>> = c.generalizations().iter().map(|g| g.levels.clone()).collect();
            assert_eq!(got, exhaustive_truth(&t, &[0, 1, 2], &cfg));
        }
    }

    #[test]
    fn cube_variant_scans_once() {
        let t = patients();
        let r = cube_incognito(&t, &[0, 1, 2], &Config::new(2)).unwrap();
        assert_eq!(r.stats().table_scans, 1);
        assert!(r.stats().timings.cube_build.is_some());
        assert_eq!(r.stats().freq_from_projection, 6);
        // Basic scans once per root family instead.
        let basic = incognito(&t, &[0, 1, 2], &Config::new(2)).unwrap();
        assert!(basic.stats().table_scans > 1);
    }

    #[test]
    fn prebuilt_cube_reuse() {
        let t = patients();
        let cube = Cube::build(&t, &[0, 1, 2], 2).unwrap();
        for k in [2, 3] {
            let cfg = Config::new(k);
            let r = anonymize_with_cube(&t, &cube, &cfg, &mut |_| {}).unwrap();
            assert_eq!(
                r.generalizations(),
                incognito(&t, &[0, 1, 2], &cfg).unwrap().generalizations()
            );
        }
    }
}
