//! Sweeney's Datafly greedy heuristic (\[17\], discussed in §6 of the
//! paper): repeatedly generalize the quasi-identifier attribute with the
//! most distinct values until the table is k-anonymous modulo at most k
//! suppressible outlier tuples, then suppress those outliers.
//!
//! The output is guaranteed k-anonymous but carries **no minimality
//! guarantee** — the paper cites exactly this gap as motivation for sound
//! and complete search. It is included as the natural greedy baseline for
//! the model-quality comparisons.

use incognito_hierarchy::LevelNo;
use incognito_table::{GroupSpec, Table};

use crate::error::validate_qi;
use crate::incognito::{eval_plan, FreqPlan};
use crate::provider::FreqProvider;
use crate::{AlgoError, AnonymizationResult, Config, Generalization, IterationStats, SearchStats};

/// Run Datafly. The result holds exactly one generalization; materialize it
/// with [`AnonymizationResult::materialize`]. Datafly's classic stopping
/// rule allows up to `max(k, cfg.max_suppress)` outliers to be suppressed
/// in the released view.
pub fn datafly(
    table: &Table,
    qi: &[usize],
    cfg: &Config,
) -> Result<AnonymizationResult, AlgoError> {
    let schema = table.schema().clone();
    let qi = validate_qi(&schema, qi, cfg.k)?;
    let allowance = cfg.max_suppress.max(cfg.k);

    let mut levels: Vec<LevelNo> = vec![0; qi.len()];
    let heights: Vec<LevelNo> = qi.iter().map(|&a| schema.hierarchy(a).height()).collect();

    let search_span = incognito_obs::span("search")
        .arg("algo", "datafly")
        .arg("k", cfg.k)
        .arg("qi_arity", qi.len() as u64);
    let mut stats = SearchStats::default();
    let mut it_stats = IterationStats { arity: qi.len(), ..IterationStats::default() };
    let provider = FreqProvider::new(table, cfg);
    // The allowance is at least k ≥ 1, so this checks k-anonymity modulo
    // `allowance` suppressed tuples.
    let check_cfg = cfg.clone().with_suppression(allowance);

    loop {
        let parts: Vec<(usize, LevelNo)> = qi.iter().copied().zip(levels.iter().copied()).collect();
        let plan = FreqPlan::Scan { spec: GroupSpec::new(parts.clone())? };
        let checked = eval_plan(&provider, &check_cfg, &parts, &plan, cfg.threads)?;
        stats.tally(&mut it_stats, &checked);
        if checked.anonymous {
            break;
        }

        // Generalize the attribute with the most distinct values in the
        // current (generalized) projection, among those not yet at the top.
        let distinct = (0..qi.len())
            .filter(|&i| levels[i] < heights[i])
            .map(|i| {
                let single = GroupSpec::new(vec![(qi[i], levels[i])])?;
                Ok((i, provider.scan(&single, cfg.threads)?.num_groups()?))
            })
            .collect::<Result<Vec<_>, AlgoError>>()?;
        let victim = distinct.into_iter().max_by_key(|&(_, groups)| groups).map(|(i, _)| i);
        match victim {
            Some(i) => levels[i] += 1,
            // Everything is at the top and still not k-anonymous within the
            // allowance: impossible to fix by full-domain generalization.
            None => return Err(AlgoError::NoSolution),
        }
    }

    it_stats.survivors = 1;
    stats.timings.total = search_span.finish();
    it_stats.wall = stats.timings.total;
    stats.push_iteration(it_stats);
    Ok(AnonymizationResult::new(
        qi,
        cfg.k,
        // Datafly always suppresses its outliers in the released view.
        allowance,
        vec![Generalization { levels }],
        stats,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::patients;

    #[test]
    fn output_is_k_anonymous_after_suppression() {
        let t = patients();
        let cfg = Config::new(2);
        let r = datafly(&t, &[0, 1, 2], &cfg).unwrap();
        assert_eq!(r.len(), 1);
        let g = &r.generalizations()[0];
        let (view, suppressed) = r.materialize(&t, g).unwrap();
        assert!(suppressed <= 2);
        let spec = GroupSpec::ground(&[0, 1, 2]).unwrap();
        assert!(view.is_k_anonymous(&spec, 2).unwrap());
    }

    #[test]
    fn greedy_picks_widest_attribute_first() {
        // Zipcode has 4 distinct values vs Sex's 2 and Birthdate's 3, so the
        // first generalization step must hit Zipcode.
        let t = patients();
        let r = datafly(&t, &[0, 1, 2], &Config::new(2)).unwrap();
        let g = &r.generalizations()[0];
        // QI sorted: [Birthdate, Sex, Zipcode]; Zipcode level must be > 0
        // unless the table was already anonymous (it is not).
        assert!(g.levels[2] > 0);
    }

    #[test]
    fn no_minimality_guarantee_but_valid() {
        // Compare against the complete result set: Datafly's answer must be
        // *in* it (validity) though not necessarily minimal.
        let t = patients();
        let cfg = Config::new(2).with_suppression(2);
        let complete = crate::incognito(&t, &[1, 2], &cfg).unwrap();
        let d = datafly(&t, &[1, 2], &cfg).unwrap();
        assert!(complete.contains(&d.generalizations()[0].levels));
    }

    #[test]
    fn already_anonymous_table_needs_no_generalization() {
        let t = patients();
        // k=1 is trivially satisfied at ground level.
        let r = datafly(&t, &[0, 1, 2], &Config::new(1)).unwrap();
        assert_eq!(r.generalizations()[0].levels, vec![0, 0, 0]);
        assert_eq!(r.stats().table_scans, 1);
    }
}
