//! Samarati's binary search on generalization height (§2.2, \[14\]).
//!
//! The algorithm exploits the observation that if no generalization of
//! height `h` satisfies k-anonymity then no generalization of height
//! `h' < h` does either (heights here are w.r.t. the height-minimal
//! definition of §2.1). It binary-searches the height range of the full-QI
//! lattice, at each probe checking *every* node of that height against the
//! table, and returns the k-anonymous generalization(s) at the lowest
//! satisfiable height.
//!
//! The paper notes Samarati's distance-vector-matrix implementation was
//! prohibitively expensive on large tables, so — like the paper — we check
//! each node with a group-by over the star schema (a frequency-set scan).

use incognito_table::Table;
use incognito_lattice::CandidateGraph;

use crate::error::validate_qi;
use crate::provider::FreqProvider;
use crate::{AlgoError, AnonymizationResult, Config, Generalization, IterationStats, SearchStats};

/// Run Samarati's binary search. The result holds every k-anonymous node at
/// the minimal satisfiable height — each is minimal in the §2.1 sense; the
/// original algorithm returns an arbitrary one of them.
///
/// Returns [`AlgoError::NoSolution`] if even the lattice top fails (possible
/// only when a suppression allowance is configured but insufficient, or
/// `k > |T|`).
pub fn samarati_binary_search(
    table: &Table,
    qi: &[usize],
    cfg: &Config,
) -> Result<AnonymizationResult, AlgoError> {
    let schema = table.schema().clone();
    let qi = validate_qi(&schema, qi, cfg.k)?;
    let search_span = incognito_obs::span("search")
        .arg("algo", "binary_search")
        .arg("k", cfg.k)
        .arg("qi_arity", qi.len() as u64);
    let lattice = CandidateGraph::full_lattice(&schema, &qi);
    let lattice_build = search_span.elapsed();

    let max_height: u32 =
        qi.iter().map(|&a| schema.hierarchy(a).height() as u32).sum();
    // Group node ids by height once.
    let mut by_height: Vec<Vec<u32>> = vec![Vec::new(); max_height as usize + 1];
    for (id, node) in lattice.nodes().iter().enumerate() {
        by_height[node.height() as usize].push(id as u32);
    }

    let mut stats = SearchStats::default();
    stats.timings.candidate_gen = lattice_build;
    let mut it_stats = IterationStats {
        arity: qi.len(),
        candidates: lattice.num_nodes(),
        edges: lattice.num_edges(),
        ..IterationStats::default()
    };

    // Probe one height: collect the k-anonymous nodes at that height.
    let provider = FreqProvider::new(table, cfg);
    let probe = |h: u32, stats: &mut SearchStats, it: &mut IterationStats| -> Result<Vec<u32>, AlgoError> {
        let mut probe_span = incognito_obs::span("probe")
            .arg("height", h as u64)
            .arg("nodes", by_height[h as usize].len() as u64);
        let mut hits = Vec::new();
        for &id in &by_height[h as usize] {
            let mut check_span = incognito_obs::span("check");
            if check_span.is_traced() {
                check_span.set_arg("node", crate::trace::spec_label(&lattice.node(id).parts));
            }
            let t0 = std::time::Instant::now();
            let freq = provider.scan(&lattice.node(id).to_group_spec()?, cfg.threads)?;
            stats.timings.scan += t0.elapsed();
            stats.freq_from_scan += 1;
            stats.table_scans += 1;
            it.nodes_checked += 1;
            let anonymous = cfg.passes_handle(&freq)?;
            check_span.set_arg("anonymous", anonymous);
            if anonymous {
                hits.push(id);
            }
        }
        probe_span.set_arg("hits", hits.len() as u64);
        Ok(hits)
    };

    // Binary search for the lowest height with a satisfying node.
    let (mut lo, mut hi) = (0u32, max_height);
    let mut best: Option<(u32, Vec<u32>)> = None;
    while lo < hi {
        let mid = (lo + hi) / 2;
        let hits = probe(mid, &mut stats, &mut it_stats)?;
        if hits.is_empty() {
            lo = mid + 1;
        } else {
            best = Some((mid, hits));
            hi = mid;
        }
    }
    // `lo == hi`: the candidate minimal height. Re-probe if the loop never
    // landed exactly there (or never ran, when max_height == 0).
    let hits = match best {
        Some((h, hits)) if h == lo => hits,
        _ => probe(lo, &mut stats, &mut it_stats)?,
    };
    if hits.is_empty() {
        return Err(AlgoError::NoSolution);
    }

    it_stats.survivors = hits.len();
    stats.timings.total = search_span.finish();
    it_stats.wall = stats.timings.total;
    stats.push_iteration(it_stats);
    let generalizations: Vec<Generalization> = hits
        .into_iter()
        .map(|id| Generalization { levels: lattice.node(id).levels() })
        .collect();
    Ok(AnonymizationResult::new(qi, cfg.k, cfg.max_suppress, generalizations, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{exhaustive_truth, patients};

    #[test]
    fn finds_the_minimal_height_set() {
        let t = patients();
        let cfg = Config::new(2);
        let r = samarati_binary_search(&t, &[1, 2], &cfg).unwrap();
        // Truth: anonymous gens are {⟨0,2⟩, ⟨1,0⟩, ⟨1,1⟩, ⟨1,2⟩}; minimal
        // height is 1, achieved only by ⟨1,0⟩.
        assert_eq!(r.minimal_height(), Some(1));
        let got: Vec<Vec<u8>> = r.generalizations().iter().map(|g| g.levels.clone()).collect();
        assert_eq!(got, vec![vec![1, 0]]);
    }

    #[test]
    fn height_is_minimal_across_truth() {
        let t = patients();
        for k in [1, 2, 3, 6] {
            let cfg = Config::new(k);
            let truth = exhaustive_truth(&t, &[0, 1, 2], &cfg);
            let min_truth = truth
                .iter()
                .map(|ls| ls.iter().map(|&l| l as u32).sum::<u32>())
                .min()
                .unwrap();
            let r = samarati_binary_search(&t, &[0, 1, 2], &cfg).unwrap();
            assert_eq!(r.minimal_height(), Some(min_truth), "k={k}");
            // Every returned generalization is genuinely k-anonymous.
            for g in r.generalizations() {
                assert!(truth.contains(&g.levels));
                assert_eq!(g.height(), min_truth);
            }
        }
    }

    #[test]
    fn k1_returns_the_bottom_node() {
        let t = patients();
        let r = samarati_binary_search(&t, &[0, 1, 2], &Config::new(1)).unwrap();
        assert_eq!(r.generalizations().len(), 1);
        assert_eq!(r.generalizations()[0].levels, vec![0, 0, 0]);
    }

    #[test]
    fn unsatisfiable_reports_no_solution() {
        let t = patients();
        assert!(matches!(
            samarati_binary_search(&t, &[0, 1, 2], &Config::new(7)),
            Err(AlgoError::NoSolution)
        ));
    }

    #[test]
    fn suppression_lowers_the_minimal_height() {
        let t = patients();
        let strict = samarati_binary_search(&t, &[1, 2], &Config::new(2)).unwrap();
        let relaxed =
            samarati_binary_search(&t, &[1, 2], &Config::new(2).with_suppression(2)).unwrap();
        assert!(relaxed.minimal_height().unwrap() < strict.minimal_height().unwrap());
        assert_eq!(relaxed.minimal_height(), Some(0));
    }
}
