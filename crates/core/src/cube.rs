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

use incognito_table::{GroupSpec, Table};

use crate::error::validate_qi;
use crate::incognito::{incognito_impl, AltSource, ZeroCube};
use crate::provider::{FreqHandle, FreqProvider};
use crate::trace::TraceEvent;
use crate::{AlgoError, AnonymizationResult, Config};

/// The pre-computed zero-generalization cube plus its build cost, kept
/// separate so callers (and the Figure 12 harness) can measure build and
/// anonymization phases independently.
pub struct Cube {
    qi: Vec<usize>,
    freq: ZeroCube,
    /// Wall-clock cost of building the cube.
    pub build_time: std::time::Duration,
    /// Number of frequency sets derived by projection (all but the first).
    pub projections: usize,
}

impl Cube {
    /// Build the zero-generalization frequency sets of every non-empty
    /// subset of `qi` with a single base-table scan.
    pub fn build(table: &Table, qi: &[usize], k: u64) -> Result<Cube, AlgoError> {
        Self::build_with_threads(table, qi, k, 1)
    }

    /// [`Cube::build`] with a worker-thread count (see
    /// [`Cube::build_with_config`] for the full knob set).
    pub fn build_with_threads(
        table: &Table,
        qi: &[usize],
        k: u64,
        threads: usize,
    ) -> Result<Cube, AlgoError> {
        Self::build_with_config(table, qi, &Config::new(k).with_threads(threads))
    }

    /// Build the cube under a [`Config`]. With `cfg.threads > 1` the
    /// seeding scan splits by row and every popcount level of subsets
    /// projects concurrently (one task per subset) — subsets of equal
    /// arity derive from disjoint one-wider parents already in the cube,
    /// so a level has no intra-level dependencies and the resulting cube
    /// is identical to a serial build. With `cfg.memory_budget` set, the
    /// seed scan and every projection go through the [`FreqProvider`]:
    /// an over-budget cube spills its subsets to disk and derives
    /// narrower subsets partition-by-partition (the Subset Property,
    /// out-of-core).
    pub fn build_with_config(
        table: &Table,
        qi: &[usize],
        cfg: &Config,
    ) -> Result<Cube, AlgoError> {
        let schema = table.schema().clone();
        let qi = validate_qi(&schema, qi, cfg.k)?;
        let threads = cfg.threads;
        let n = qi.len();
        let mut cube_span = incognito_obs::span("cube.build").arg("qi_arity", n as u64);
        let pool = (threads > 1).then(|| incognito_exec::shared(threads));
        let provider = FreqProvider::new(table, cfg);

        let mut freq: ZeroCube = ZeroCube::default();
        let full_mask: u32 = (1u32 << n) - 1;
        let spec = GroupSpec::ground(&qi)?;
        let full = provider.scan(&spec, threads)?;
        freq.insert(full_mask, full);

        let mut projections = 0usize;
        // Subsets level by level in decreasing popcount order; each derived
        // from the superset adding the lowest absent attribute position,
        // which sits one level up and is therefore already materialized.
        for pc in (1..n as u32).rev() {
            let masks: Vec<u32> =
                (1..full_mask).filter(|m| m.count_ones() == pc).collect();
            let project_one = |mask: u32| -> Result<FreqHandle, AlgoError> {
                let add =
                    (0..n as u32).find(|b| mask & (1 << b) == 0).expect("not full");
                let parent_mask = mask | (1 << add);
                let parent =
                    freq.get(&parent_mask).expect("wider subsets built first");
                // Positions (within the parent's spec) of the attributes kept.
                let keep: Vec<usize> = (0..n)
                    .filter(|&b| parent_mask & (1 << b) != 0)
                    .enumerate()
                    .filter(|&(_, b)| mask & (1 << b) != 0)
                    .map(|(pos, _)| pos)
                    .collect();
                provider.project(parent, &keep)
            };
            let projected: Vec<Result<FreqHandle, AlgoError>> = match &pool {
                Some(pool) if masks.len() > 1 => {
                    pool.parallel_map(&masks, |_, &m| project_one(m))
                }
                _ => masks.iter().map(|&m| project_one(m)).collect(),
            };
            for (&mask, f) in masks.iter().zip(projected) {
                projections += 1;
                freq.insert(mask, f?);
            }
        }

        cube_span.set_arg("projections", projections as u64);
        Ok(Cube { qi, freq, build_time: cube_span.finish(), projections })
    }

    /// The (sorted) quasi-identifier the cube covers.
    pub fn qi(&self) -> &[usize] {
        &self.qi
    }

    /// The zero-generalization frequency set for the subset encoded by
    /// `mask` (bit `j` ⇔ `qi()[j]` present), in whichever representation
    /// the memory budget allowed at build time.
    pub fn frequency_set(&self, mask: u32) -> Option<&FreqHandle> {
        self.freq.get(&mask)
    }

    /// Number of frequency sets materialized.
    pub fn len(&self) -> usize {
        self.freq.len()
    }

    /// True if the cube is empty (never the case after a successful build).
    pub fn is_empty(&self) -> bool {
        self.freq.is_empty()
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
    cube: &Cube,
    cfg: &Config,
    sink: &mut dyn FnMut(TraceEvent),
) -> Result<AnonymizationResult, AlgoError> {
    let mut result = incognito_impl(table, &cube.qi, cfg, sink, AltSource::Cube(&cube.freq))?;
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

    #[test]
    fn cube_covers_every_subset() {
        let t = patients();
        // Pinned in memory: the test reads each entry through `as_mem`,
        // which an environment budget (e.g. CI's INCOGNITO_MEM_BUDGET)
        // would otherwise spill. The spilled cube is covered by
        // `tests/out_of_core_equivalence.rs`.
        let cfg = Config::new(2).with_unlimited_memory();
        let cube = Cube::build_with_config(&t, &[0, 1, 2], &cfg).unwrap();
        assert_eq!(cube.len(), 7); // 2³ - 1 subsets
        assert_eq!(cube.projections, 6);
        // Each cube entry equals a direct scan.
        let schema = t.schema().clone();
        for mask in 1u32..8 {
            let attrs: Vec<usize> = (0..3).filter(|&b| mask & (1 << b) != 0).collect();
            let direct = t
                .frequency_set(&GroupSpec::ground(&attrs).unwrap())
                .unwrap();
            let cubed = cube.frequency_set(mask).unwrap().as_mem().unwrap();
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
            let got: Vec<Vec<u8>> =
                c.generalizations().iter().map(|g| g.levels.clone()).collect();
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
