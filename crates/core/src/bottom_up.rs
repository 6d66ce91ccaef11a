//! The exhaustive bottom-up breadth-first baseline of §2.2, with and
//! without rollup aggregation.
//!
//! This is the algorithm Incognito is benchmarked against in Figure 10: a
//! breadth-first traversal of the complete multi-attribute generalization
//! lattice over the *full* quasi-identifier, checking k-anonymity at every
//! node (no a-priori subset pruning, no generalization-property marking —
//! it is run exhaustively to produce all k-anonymous generalizations, as in
//! the paper's experiments). The `rollup` flag chooses between scanning the
//! table per node and rolling up "the frequency set of (one of) the
//! generalization(s) of which the node is a direct generalization".

use std::collections::VecDeque;

use incognito_table::fxhash::FxHashMap;
use incognito_table::Table;
use incognito_lattice::{CandidateGraph, NodeId};

use crate::error::validate_qi;
use crate::provider::{FreqHandle, FreqProvider};
use crate::{AlgoError, AnonymizationResult, Config, Generalization, IterationStats, SearchStats};

/// Exhaustive bottom-up BFS over the full-QI lattice. Returns all
/// k-anonymous full-domain generalizations. `cfg.rollup` selects the
/// "with rollup" refinement of §2.2.
pub fn bottom_up_search(
    table: &Table,
    qi: &[usize],
    cfg: &Config,
) -> Result<AnonymizationResult, AlgoError> {
    let schema = table.schema().clone();
    let qi = validate_qi(&schema, qi, cfg.k)?;
    let search_span = incognito_obs::span("search")
        .arg("algo", if cfg.rollup { "bottom_up_rollup" } else { "bottom_up" })
        .arg("k", cfg.k)
        .arg("qi_arity", qi.len() as u64);
    let lattice = CandidateGraph::full_lattice(&schema, &qi);
    let num = lattice.num_nodes();

    let mut stats = SearchStats::default();
    stats.timings.candidate_gen = search_span.elapsed();
    let mut it_stats = IterationStats {
        arity: qi.len(),
        candidates: num,
        edges: lattice.num_edges(),
        ..IterationStats::default()
    };

    let mut in_adj: Vec<Vec<NodeId>> = vec![Vec::new(); num];
    for &(s, e) in lattice.edges() {
        in_adj[e as usize].push(s);
    }
    // BFS from the bottom node in height order; a full lattice has exactly
    // one root (the all-zeros node), and BFS order guarantees every
    // non-root is visited after at least one direct specialization.
    let mut order: VecDeque<NodeId> = VecDeque::new();
    let mut seen = vec![false; num];
    for r in lattice.roots() {
        order.push_back(r);
        seen[r as usize] = true;
    }

    let mut anonymous = vec![false; num];
    let provider = FreqProvider::new(table, cfg);
    // Cache for rollup: freed once all direct generalizations are computed.
    let mut cache: FxHashMap<NodeId, FreqHandle> = FxHashMap::default();
    let mut pending_out: Vec<u32> =
        (0..num).map(|id| lattice.direct_generalizations(id as NodeId).len() as u32).collect();

    while let Some(node) = order.pop_front() {
        let mut check_span = incognito_obs::span("check");
        if check_span.is_traced() {
            check_span.set_arg("node", crate::trace::spec_label(&lattice.node(node).parts));
        }
        let spec = lattice.node(node).to_group_spec()?;
        let freq = if cfg.rollup {
            match in_adj[node as usize].iter().find_map(|&p| cache.get(&p)) {
                Some(pfreq) => {
                    stats.freq_from_rollup += 1;
                    let t0 = std::time::Instant::now();
                    let f = provider.rollup(pfreq, &schema, &lattice.node(node).levels())?;
                    stats.timings.rollup += t0.elapsed();
                    f
                }
                None => {
                    stats.freq_from_scan += 1;
                    stats.table_scans += 1;
                    let t0 = std::time::Instant::now();
                    let f = provider.scan(&spec, cfg.threads)?;
                    stats.timings.scan += t0.elapsed();
                    f
                }
            }
        } else {
            stats.freq_from_scan += 1;
            stats.table_scans += 1;
            let t0 = std::time::Instant::now();
            let f = provider.scan(&spec, cfg.threads)?;
            stats.timings.scan += t0.elapsed();
            f
        };
        it_stats.nodes_checked += 1;
        anonymous[node as usize] = cfg.passes_handle(&freq)?;
        check_span.set_arg("anonymous", anonymous[node as usize]);

        for &g in lattice.direct_generalizations(node) {
            if !seen[g as usize] {
                seen[g as usize] = true;
                order.push_back(g);
            }
        }
        if cfg.rollup {
            if pending_out[node as usize] > 0 {
                cache.insert(node, freq);
            }
            for &p in &in_adj[node as usize] {
                pending_out[p as usize] -= 1;
                if pending_out[p as usize] == 0 {
                    cache.remove(&p);
                }
            }
        }
    }

    it_stats.survivors = anonymous.iter().filter(|&&a| a).count();
    stats.timings.total = search_span.finish();
    it_stats.wall = stats.timings.total;
    stats.push_iteration(it_stats);

    let generalizations: Vec<Generalization> = anonymous
        .iter()
        .enumerate()
        .filter(|&(_, &a)| a)
        .map(|(id, _)| Generalization { levels: lattice.node(id as NodeId).levels() })
        .collect();
    Ok(AnonymizationResult::new(qi, cfg.k, cfg.max_suppress, generalizations, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incognito;
    use crate::testutil::{exhaustive_truth, patients};

    #[test]
    fn matches_exhaustive_truth_with_and_without_rollup() {
        let t = patients();
        for k in [1, 2, 3, 6] {
            for rollup in [true, false] {
                let cfg = Config::new(k).with_rollup(rollup);
                let r = bottom_up_search(&t, &[0, 1, 2], &cfg).unwrap();
                let got: Vec<Vec<u8>> =
                    r.generalizations().iter().map(|g| g.levels.clone()).collect();
                assert_eq!(got, exhaustive_truth(&t, &[0, 1, 2], &cfg), "k={k} rollup={rollup}");
            }
        }
    }

    #[test]
    fn checks_every_lattice_node() {
        // Bottom-up is exhaustive: 2 × 2 × 3 = 12 nodes for ⟨B, S, Z⟩.
        let t = patients();
        let r = bottom_up_search(&t, &[0, 1, 2], &Config::new(2)).unwrap();
        assert_eq!(r.stats().nodes_checked(), 12);
        assert_eq!(r.stats().iterations[0].candidates, 12);
    }

    #[test]
    fn rollup_reduces_scans_to_one() {
        let t = patients();
        let with = bottom_up_search(&t, &[0, 1, 2], &Config::new(2)).unwrap();
        let without =
            bottom_up_search(&t, &[0, 1, 2], &Config::new(2).with_rollup(false)).unwrap();
        assert_eq!(with.stats().table_scans, 1);
        assert_eq!(without.stats().table_scans, 12);
        assert_eq!(with.generalizations(), without.generalizations());
    }

    #[test]
    fn agrees_with_incognito() {
        let t = patients();
        for k in [2, 3] {
            let cfg = Config::new(k);
            let a = bottom_up_search(&t, &[1, 2], &cfg).unwrap();
            let b = incognito(&t, &[1, 2], &cfg).unwrap();
            assert_eq!(a.generalizations(), b.generalizations());
        }
    }

    #[test]
    fn suppression_is_honored() {
        let t = patients();
        let cfg = Config::new(2).with_suppression(2);
        let r = bottom_up_search(&t, &[1, 2], &cfg).unwrap();
        assert!(r.contains(&[0, 0]));
        assert_eq!(
            r.generalizations(),
            incognito(&t, &[1, 2], &cfg).unwrap().generalizations()
        );
    }
}
