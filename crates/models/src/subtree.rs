//! Single-dimension hierarchy-based recoding beyond full-domain (§5.1.1):
//!
//! * **Full-subtree recoding** (Iyengar \[11\]): a per-attribute recoding
//!   function may generalize *some* values while leaving others intact, but
//!   whenever it maps anything to a generalized value `g` it must map the
//!   entire value-subtree rooted at `g` to `g`.
//! * **Unrestricted recoding**: each ground value independently maps to any
//!   of its ancestors (the paper includes it while noting the inference
//!   caveat of footnote 3).
//!
//! Both are implemented with the same greedy search (promote the values of
//! the smallest violating equivalence class until k-anonymity holds), so
//! the taxonomy comparison isolates the *model's* flexibility: every
//! full-subtree recoding is also a valid unrestricted recoding, hence the
//! unrestricted greedy can only do better or equal.

use incognito_hierarchy::LevelNo;
use incognito_table::fxhash::FxHashMap;
use incognito_table::{Table, TableError};

use crate::release::{build_view_from_labels, subtree_sizes, AnonymizedRelease};

/// Which single-dimension hierarchy model to enforce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubtreeMode {
    /// Sibling-closure: generalizing a value drags its whole subtree along.
    FullSubtree,
    /// Each ground value recodes independently.
    Unrestricted,
}

/// Greedy single-dimension recoding under `mode`. The result is k-anonymous
/// whenever `|T| ≥ k` (in the worst case every attribute reaches its
/// hierarchy top, a single equivalence class).
pub fn full_subtree_anonymize(
    table: &Table,
    qi: &[usize],
    k: u64,
    mode: SubtreeMode,
) -> Result<AnonymizedRelease, TableError> {
    let schema = table.schema().clone();
    let n_rows = table.num_rows();
    // assignment[pos][ground_id] = released level of that value.
    let mut assignment: Vec<Vec<LevelNo>> =
        qi.iter().map(|&a| vec![0u8; schema.hierarchy(a).ground_size()]).collect();

    // Rows suppressed because their class got stuck at the hierarchy tops
    // with fewer than k members (only possible in unrestricted mode; a
    // full-subtree cut at the tops puts the whole table in one class).
    let mut dropped = vec![false; n_rows];

    loop {
        // Group live rows by released values — keyed by (level, id) pairs,
        // since ids alone collide across levels.
        let mut groups: FxHashMap<Vec<(LevelNo, u32)>, Vec<usize>> = FxHashMap::default();
        for row in (0..n_rows).filter(|&r| !dropped[r]) {
            let key: Vec<(LevelNo, u32)> = qi
                .iter()
                .enumerate()
                .map(|(pos, &a)| {
                    let v = table.column(a)[row];
                    let l = assignment[pos][v as usize];
                    (l, schema.hierarchy(a).generalize(v, l))
                })
                .collect();
            groups.entry(key).or_default().push(row);
        }
        // Find the smallest violating class (deterministically: smallest
        // size, then smallest key).
        let violator = groups
            .iter()
            .filter(|(_, rows)| (rows.len() as u64) < k)
            .min_by(|a, b| a.1.len().cmp(&b.1.len()).then(a.0.cmp(b.0)));
        let Some((_, rows)) = violator else { break };
        let row = rows[0];

        // Promote the attribute with headroom whose released domain is
        // currently the most fragmented (Datafly's greedy choice applied
        // per-value).
        let mut best: Option<(usize, usize)> = None; // (distinct released, pos)
        for (pos, &a) in qi.iter().enumerate() {
            let h = schema.hierarchy(a);
            let v = table.column(a)[row];
            if assignment[pos][v as usize] >= h.height() {
                continue;
            }
            let distinct: std::collections::HashSet<(LevelNo, u32)> = table
                .column(a)
                .iter()
                .map(|&w| {
                    let l = assignment[pos][w as usize];
                    (l, h.generalize(w, l))
                })
                .collect();
            if best.is_none_or(|(d, _)| distinct.len() > d) {
                best = Some((distinct.len(), pos));
            }
        }
        let Some((_, pos)) = best else {
            // The class's values sit at every hierarchy top: suppress its
            // rows (the §2.1 outlier treatment) and continue.
            for &r in rows {
                dropped[r] = true;
            }
            continue;
        };
        let a = qi[pos];
        let h = schema.hierarchy(a);
        let v = table.column(a)[row];
        let new_level = assignment[pos][v as usize] + 1;
        match mode {
            SubtreeMode::Unrestricted => {
                assignment[pos][v as usize] = new_level;
            }
            SubtreeMode::FullSubtree => {
                // Move the whole subtree under the new ancestor to it. The
                // cut invariant guarantees no value under the ancestor sits
                // above `new_level`, so plain assignment preserves it.
                let anchor = h.generalize(v, new_level);
                for w in 0..h.ground_size() as u32 {
                    if h.generalize(w, new_level) == anchor {
                        assignment[pos][w as usize] = new_level;
                    }
                }
            }
        }
    }

    // Materialize labels and losses; suppressed rows charge full loss.
    let sizes: Vec<Vec<Vec<usize>>> =
        qi.iter().map(|&a| subtree_sizes(schema.hierarchy(a))).collect();
    let suppressed = dropped.iter().filter(|&&d| d).count() as u64;
    let mut precision_loss = suppressed as f64 * qi.len() as f64;
    let mut lm_loss = suppressed as f64 * qi.len() as f64;
    let kept: Vec<usize> = (0..n_rows).filter(|&r| !dropped[r]).collect();
    let mut qi_labels: Vec<Vec<String>> = Vec::with_capacity(kept.len());
    for &row in &kept {
        let labels: Vec<String> = qi
            .iter()
            .enumerate()
            .map(|(pos, &a)| {
                let h = schema.hierarchy(a);
                let v = table.column(a)[row];
                let l = assignment[pos][v as usize];
                let g = h.generalize(v, l);
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

/// Validate the full-subtree property on an assignment (exposed for tests
/// and for checking hand-built recodings): whenever a value is released at
/// level `ℓ > 0` under ancestor `g`, every value under `g` is released at
/// exactly `ℓ`.
pub fn is_valid_full_subtree(
    schema: &incognito_table::Schema,
    attr: usize,
    assignment: &[LevelNo],
) -> bool {
    let h = schema.hierarchy(attr);
    for v in 0..h.ground_size() as u32 {
        let l = assignment[v as usize];
        if l == 0 {
            continue;
        }
        let g = h.generalize(v, l);
        for w in 0..h.ground_size() as u32 {
            if h.generalize(w, l) == g && assignment[w as usize] != l {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use incognito_data::{adults, patients, AdultsConfig};

    #[test]
    fn both_modes_reach_k_anonymity() {
        let t = patients();
        for mode in [SubtreeMode::FullSubtree, SubtreeMode::Unrestricted] {
            let r = full_subtree_anonymize(&t, &[0, 1, 2], 2, mode).unwrap();
            assert!(r.is_k_anonymous(2), "{mode:?}");
            assert_eq!(r.view.num_rows(), 6);
        }
    }

    #[test]
    fn unrestricted_mode_valid_on_adults() {
        // The unrestricted *model* subsumes full-subtree recoding, but the
        // greedy search gives no dominance guarantee — only validity.
        let t = adults(&AdultsConfig { rows: 1_500, seed: 21 });
        let k = 10;
        let r = full_subtree_anonymize(&t, &[0, 3, 4], k, SubtreeMode::Unrestricted).unwrap();
        assert!(r.is_k_anonymous(k));
        assert_eq!(r.view.num_rows() as u64 + r.suppressed, 1_500);
        let m = r.metrics(k);
        assert!(m.loss > 0.0 && m.loss <= 1.0);
    }

    #[test]
    fn subtree_beats_full_domain_on_skewed_data() {
        // Full-domain must generalize the *whole* domain to fix one sparse
        // region; full-subtree recoding can leave the dense region intact.
        let t = adults(&AdultsConfig { rows: 1_500, seed: 22 });
        let qi = [0usize, 1];
        let k = 10u64;
        let sub = full_subtree_anonymize(&t, &qi, k, SubtreeMode::FullSubtree).unwrap();
        assert!(sub.is_k_anonymous(k));
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
        assert!(sub.metrics(k).loss <= best_full + 1e-9);
    }

    #[test]
    fn full_subtree_assignments_stay_valid() {
        // Run the greedy, then re-derive the assignment from the released
        // labels and check the closure property.
        let t = patients();
        let r = full_subtree_anonymize(&t, &[1, 2], 2, SubtreeMode::FullSubtree).unwrap();
        assert_eq!(r.suppressed, 0);
        // Reconstruct per-value levels from the view for the Zipcode attr.
        let h = t.schema().hierarchy(2);
        let mut assignment: Vec<Option<u8>> = vec![None; h.ground_size()];
        for (view_row, &src_row) in r.kept_rows.iter().enumerate() {
            let released = r.view.label(view_row, 2);
            let v = t.column(2)[src_row];
            let level = (0..=h.height())
                .find(|&l| h.label(l, h.generalize(v, l)) == released)
                .expect("released label lies on the value's ancestor chain");
            assignment[v as usize] = Some(level);
        }
        // Values absent from the data are unobservable through the release;
        // the recoding function maps them with their observed subtree
        // siblings, so fill them accordingly before validating.
        let observed: Vec<(u32, u8)> =
            assignment.iter().enumerate().filter_map(|(v, l)| l.map(|l| (v as u32, l))).collect();
        let assignment: Vec<u8> = assignment
            .iter()
            .enumerate()
            .map(|(w, l)| {
                l.unwrap_or_else(|| {
                    observed
                        .iter()
                        .find(|&&(v, l)| l > 0 && h.generalize(w as u32, l) == h.generalize(v, l))
                        .map(|&(_, l)| l)
                        .unwrap_or(0)
                })
            })
            .collect();
        assert!(is_valid_full_subtree(t.schema(), 2, &assignment));
    }

    #[test]
    fn validator_rejects_broken_closure() {
        let t = patients();
        // Zipcode: map 53715 to 5371* but leave 53710 at ground — invalid.
        let h = t.schema().hierarchy(2);
        let mut assignment = vec![0u8; h.ground_size()];
        assignment[h.ground_id("53715").unwrap() as usize] = 1;
        assert!(!is_valid_full_subtree(t.schema(), 2, &assignment));
        assignment[h.ground_id("53710").unwrap() as usize] = 1;
        assert!(is_valid_full_subtree(t.schema(), 2, &assignment));
    }
}
