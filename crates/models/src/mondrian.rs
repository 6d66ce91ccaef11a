//! Multi-dimension ordered-set partitioning (§5.1.4) — the greedy
//! median-split algorithm of the paper's reference \[12\] (LeFevre et al.,
//! "Multidimensional k-anonymity", a.k.a. Mondrian, strict variant).
//!
//! The quasi-identifier's multi-attribute domain is covered by disjoint
//! multi-dimensional intervals; the recoding function maps each tuple to
//! the interval containing it. Splits recurse on the attribute with the
//! widest normalized range, at the median, and only while both halves keep
//! at least k tuples — so the result is k-anonymous whenever the table has
//! at least k rows.

use incognito_table::{Table, TableError};

use crate::release::{build_view_from_labels, AnonymizedRelease};

/// Run strict Mondrian over `qi` (attribute domains are treated as
/// totally-ordered sets in ground-dictionary order, which the dataset
/// builders keep sorted for numeric attributes).
pub fn mondrian_anonymize(
    table: &Table,
    qi: &[usize],
    k: u64,
) -> Result<AnonymizedRelease, TableError> {
    let schema = table.schema().clone();
    let n_rows = table.num_rows();
    let domains: Vec<usize> = qi.iter().map(|&a| schema.hierarchy(a).ground_size()).collect();

    // Recursive splitting over row-index partitions.
    let mut leaves: Vec<Vec<usize>> = Vec::new();
    let mut stack: Vec<Vec<usize>> = vec![(0..n_rows).collect()];
    while let Some(part) = stack.pop() {
        match best_split(table, qi, &domains, &part, k) {
            Some((left, right)) => {
                stack.push(left);
                stack.push(right);
            }
            None => leaves.push(part),
        }
    }

    // Label each leaf by its per-attribute value range.
    let mut qi_labels: Vec<Vec<String>> = vec![Vec::new(); n_rows];
    let mut precision_loss = 0.0;
    let mut lm_loss = 0.0;
    for part in &leaves {
        let labels: Vec<String> = qi
            .iter()
            .enumerate()
            .map(|(pos, &a)| {
                let (lo, hi) = min_max(table.column(a), part);
                let h = schema.hierarchy(a);
                let width_fraction = if domains[pos] <= 1 {
                    0.0
                } else {
                    (hi - lo) as f64 / (domains[pos] - 1) as f64
                };
                precision_loss += part.len() as f64 * width_fraction;
                lm_loss += part.len() as f64 * width_fraction;
                if lo == hi {
                    h.label(0, lo).to_string()
                } else {
                    format!("[{}-{}]", h.label(0, lo), h.label(0, hi))
                }
            })
            .collect();
        for &row in part {
            qi_labels[row] = labels.clone();
        }
    }

    let kept: Vec<usize> = (0..n_rows).collect();
    let (view, class_sizes) = build_view_from_labels(table, qi, &kept, &qi_labels)?;
    Ok(AnonymizedRelease {
        view,
        qi: qi.to_vec(),
        suppressed: 0,
        kept_rows: kept,
        source_rows: n_rows as u64,
        class_sizes,
        precision_loss,
        lm_loss,
    })
}

fn min_max(col: &[u32], rows: &[usize]) -> (u32, u32) {
    let mut lo = u32::MAX;
    let mut hi = 0u32;
    for &r in rows {
        lo = lo.min(col[r]);
        hi = hi.max(col[r]);
    }
    (lo, hi)
}

/// Find an allowable median split of `part`: try attributes in decreasing
/// normalized-range order; return the first split leaving ≥ k rows on both
/// sides.
fn best_split(
    table: &Table,
    qi: &[usize],
    domains: &[usize],
    part: &[usize],
    k: u64,
) -> Option<(Vec<usize>, Vec<usize>)> {
    if (part.len() as u64) < 2 * k {
        return None;
    }
    // Rank attributes by normalized range over this partition.
    let mut ranked: Vec<(f64, usize)> = qi
        .iter()
        .enumerate()
        .map(|(pos, &a)| {
            let (lo, hi) = min_max(table.column(a), part);
            let norm =
                if domains[pos] <= 1 { 0.0 } else { (hi - lo) as f64 / (domains[pos] - 1) as f64 };
            (norm, a)
        })
        .collect();
    ranked.sort_by(|x, y| y.0.partial_cmp(&x.0).unwrap_or(std::cmp::Ordering::Equal));

    for &(range, a) in &ranked {
        if range == 0.0 {
            break; // constant in every remaining attribute
        }
        let col = table.column(a);
        let mut vals: Vec<u32> = part.iter().map(|&r| col[r]).collect();
        vals.sort_unstable();
        let median = vals[vals.len() / 2];
        // Try both conventions — left = (v < median) and left = (v ≤ median)
        // — keeping whichever leaves ≥ k rows on both sides.
        for strict in [true, false] {
            let (mut left, mut right) = (Vec::new(), Vec::new());
            for &r in part {
                let goes_left = if strict { col[r] < median } else { col[r] <= median };
                if goes_left {
                    left.push(r);
                } else {
                    right.push(r);
                }
            }
            if left.len() as u64 >= k && right.len() as u64 >= k {
                return Some((left, right));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use incognito_data::{adults, patients, AdultsConfig};

    #[test]
    fn patients_mondrian_is_2_anonymous() {
        let t = patients();
        let r = mondrian_anonymize(&t, &[0, 1, 2], 2).unwrap();
        assert!(r.is_k_anonymous(2));
        assert_eq!(r.suppressed, 0);
        assert_eq!(r.view.num_rows(), 6);
        // With 6 rows and k=2 there are at most 3 classes.
        assert!(r.num_classes() <= 3 && r.num_classes() >= 1);
    }

    #[test]
    fn adults_subset_mondrian_k5() {
        let t = adults(&AdultsConfig { rows: 2_000, seed: 42 });
        let r = mondrian_anonymize(&t, &[0, 1, 3], 5).unwrap();
        assert!(r.is_k_anonymous(5));
        // Multidimensional recoding should beat full suppression: several
        // classes, not one.
        assert!(r.num_classes() > 10, "got {}", r.num_classes());
    }

    #[test]
    fn multidimensional_beats_single_dimensional_full_domain() {
        // The result [12] the paper cites: multi-dimension recodings can be
        // strictly better. Compare discernibility against the best
        // full-domain generalization for the same table/k.
        let t = adults(&AdultsConfig { rows: 1_000, seed: 3 });
        let qi = [0usize, 1];
        let k = 10;
        let mond = mondrian_anonymize(&t, &qi, k).unwrap();
        assert!(mond.is_k_anonymous(k));
        let full = incognito_core::incognito(&t, &qi, &incognito_core::Config::new(k)).unwrap();
        let best_full = full
            .generalizations()
            .iter()
            .map(|g| {
                crate::release::full_domain_release(&t, &qi, &g.levels, None)
                    .unwrap()
                    .metrics(k)
                    .discernibility
            })
            .min()
            .unwrap();
        let mond_dm = mond.metrics(k).discernibility;
        assert!(
            mond_dm <= best_full,
            "mondrian {mond_dm} should not lose to best full-domain {best_full}"
        );
    }

    #[test]
    fn tiny_table_collapses_to_one_class() {
        let t = patients();
        let r = mondrian_anonymize(&t, &[0, 1, 2], 6).unwrap();
        assert_eq!(r.num_classes(), 1);
        assert!(r.is_k_anonymous(6));
    }

    #[test]
    fn k_larger_than_table_not_anonymous_but_single_class() {
        let t = patients();
        let r = mondrian_anonymize(&t, &[0, 1, 2], 10).unwrap();
        assert_eq!(r.num_classes(), 1);
        assert!(!r.is_k_anonymous(10));
    }
}
