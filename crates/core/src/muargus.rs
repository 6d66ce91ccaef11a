//! A μ-Argus-style baseline (\[10\], §6 of the paper): *"The μ-Argus system
//! was also implemented to anonymize microdata, but considered attribute
//! combinations of only a limited size, so the results were not always
//! guaranteed to be k-anonymous."*
//!
//! Reproduced so the test suite can regenerate that caveat: the checker
//! examines quasi-identifier subsets only up to `max_combination_size`
//! attributes, and the greedy anonymizer generalizes until those limited
//! checks pass. Tables accepted by the limited check can still violate
//! k-anonymity over the full quasi-identifier — which Incognito's subset
//! property makes precise: passing all m-subsets is necessary, not
//! sufficient, for the full set.

use incognito_hierarchy::LevelNo;
use incognito_table::{GroupSpec, Table};

use crate::error::validate_qi;
use crate::{AlgoError, AnonymizationResult, Config, Generalization, IterationStats, SearchStats};

/// Check k-anonymity of all quasi-identifier subsets of size at most
/// `max_combination_size` under the generalization `levels` (aligned with
/// the *sorted* `qi`). This is the μ-Argus acceptance criterion.
pub fn limited_combination_check(
    table: &Table,
    qi: &[usize],
    levels: &[LevelNo],
    k: u64,
    max_combination_size: usize,
) -> Result<bool, AlgoError> {
    let qi = validate_qi(table.schema(), qi, k)?;
    let m = max_combination_size.clamp(1, qi.len());
    // Enumerate subsets by bitmask, filtered by popcount.
    for mask in 1u32..(1 << qi.len()) {
        let size = mask.count_ones() as usize;
        if size > m {
            continue;
        }
        let parts: Vec<(usize, LevelNo)> =
            (0..qi.len()).filter(|&b| mask & (1 << b) != 0).map(|b| (qi[b], levels[b])).collect();
        let freq = table.frequency_set(&GroupSpec::new(parts)?)?;
        if !freq.is_k_anonymous(k) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Greedy μ-Argus-style anonymizer: Datafly's generalization rule, but
/// stopping as soon as the **limited** check passes. The result is *not*
/// guaranteed k-anonymous over the full quasi-identifier — that's the
/// point of the baseline.
pub fn muargus_anonymize(
    table: &Table,
    qi: &[usize],
    cfg: &Config,
    max_combination_size: usize,
) -> Result<AnonymizationResult, AlgoError> {
    let schema = table.schema().clone();
    let qi = validate_qi(&schema, qi, cfg.k)?;
    let heights: Vec<LevelNo> = qi.iter().map(|&a| schema.hierarchy(a).height()).collect();
    let mut levels: Vec<LevelNo> = vec![0; qi.len()];

    let search_start = std::time::Instant::now();
    let mut stats = SearchStats::default();
    let mut it_stats = IterationStats { arity: qi.len(), ..IterationStats::default() };

    loop {
        it_stats.nodes_checked += 1;
        if limited_combination_check(table, &qi, &levels, cfg.k, max_combination_size)? {
            break;
        }
        // Generalize the attribute with the most distinct released values.
        let victim = (0..qi.len()).filter(|&i| levels[i] < heights[i]).max_by_key(|&i| {
            let spec = GroupSpec::new(vec![(qi[i], levels[i])]).expect("valid spec");
            table.frequency_set(&spec).map(|f| f.num_groups()).unwrap_or(0)
        });
        match victim {
            Some(i) => levels[i] += 1,
            None => break, // everything at the top; limited check may still fail for k > |T|
        }
    }

    it_stats.survivors = 1;
    it_stats.wall = search_start.elapsed();
    stats.timings.total = search_start.elapsed();
    stats.push_iteration(it_stats);
    Ok(AnonymizationResult::new(
        qi,
        cfg.k,
        cfg.max_suppress,
        vec![Generalization { levels }],
        stats,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::patients;
    use incognito_data::{adults, AdultsConfig};

    #[test]
    fn limited_check_is_necessary_but_not_sufficient() {
        // Patients at ground level: every single attribute is 2-anonymous
        // (Example 3.1's first iteration), yet the full 3-attribute QI is
        // not — exactly the μ-Argus failure mode with m = 1.
        let t = patients();
        let ok1 = limited_combination_check(&t, &[0, 1, 2], &[0, 0, 0], 2, 1).unwrap();
        assert!(ok1, "all singleton subsets are 2-anonymous");
        let ok3 = limited_combination_check(&t, &[0, 1, 2], &[0, 0, 0], 2, 3).unwrap();
        assert!(!ok3, "the full QI is not 2-anonymous");
    }

    #[test]
    fn muargus_output_can_violate_full_k_anonymity() {
        // The related-work claim, regenerated: a μ-Argus release that
        // passes its own limited check but fails the real property.
        let t = patients();
        let cfg = Config::new(2);
        let r = muargus_anonymize(&t, &[0, 1, 2], &cfg, 1).unwrap();
        let g = &r.generalizations()[0];
        assert!(limited_combination_check(&t, &[0, 1, 2], &g.levels, 2, 1).unwrap());
        let full_spec =
            GroupSpec::new(vec![(0usize, g.levels[0]), (1, g.levels[1]), (2, g.levels[2])])
                .unwrap();
        let fully_anonymous = t.frequency_set(&full_spec).unwrap().is_k_anonymous(2);
        assert!(!fully_anonymous, "the m=1 μ-Argus release must leak on the full QI here");
    }

    #[test]
    fn full_size_muargus_equals_real_k_anonymity() {
        // With m = |QI| the limited check becomes the real one, so the
        // greedy output is genuinely k-anonymous.
        let t = adults(&AdultsConfig { rows: 1_000, seed: 95 });
        let cfg = Config::new(10);
        let qi = [0usize, 1, 3];
        let r = muargus_anonymize(&t, &qi, &cfg, 3).unwrap();
        let g = &r.generalizations()[0];
        let spec =
            GroupSpec::new(qi.iter().zip(&g.levels).map(|(&a, &l)| (a, l)).collect()).unwrap();
        assert!(t.frequency_set(&spec).unwrap().is_k_anonymous(10));
    }

    #[test]
    fn limited_check_monotone_in_m() {
        // Passing at m implies passing at every m' < m (subset property:
        // the size-m check includes all smaller subsets).
        let t = adults(&AdultsConfig { rows: 1_000, seed: 96 });
        let qi = [0usize, 1, 3];
        for levels in [[1u8, 0, 1], [2, 1, 1], [4, 1, 2]] {
            let oks: Vec<bool> = (1..=3)
                .map(|m| limited_combination_check(&t, &qi, &levels, 10, m).unwrap())
                .collect();
            for m in 1..3 {
                assert!(
                    !oks[m] || oks[m - 1],
                    "levels {levels:?}: pass at m={} must imply pass at m={m}",
                    m + 1
                );
            }
        }
    }
}
