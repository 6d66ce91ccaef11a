//! Single-dimension ordered-set partitioning (§5.1.2; the recoding model of
//! Bayardo & Agrawal \[3\] and of Iyengar \[11\] for numeric data).
//!
//! Each attribute's ground domain is a totally-ordered set; the recoding
//! maps it onto disjoint covering intervals. This implementation uses a
//! simple greedy coarsening — repeatedly halve the interval count of the
//! attribute currently contributing the most distinct intervals — which is
//! the partition-based analogue of Datafly's greedy generalization. (The
//! optimal set-enumeration search of \[3\] is out of scope; the *model* is
//! what the taxonomy compares.)

use incognito_table::fxhash::FxHashMap;
use incognito_table::{Table, TableError};

use crate::release::{build_view_from_labels, AnonymizedRelease};

/// Greedily coarsen per-attribute interval partitions until the projection
/// over `qi` is k-anonymous (or every attribute has collapsed to a single
/// interval, which is k-anonymous whenever `|T| ≥ k`).
pub fn ordered_partition_anonymize(
    table: &Table,
    qi: &[usize],
    k: u64,
) -> Result<AnonymizedRelease, TableError> {
    let schema = table.schema().clone();
    let n_rows = table.num_rows();
    let domains: Vec<usize> = qi.iter().map(|&a| schema.hierarchy(a).ground_size()).collect();

    // boundaries[pos] = ascending start ids of each interval; interval j of
    // attribute pos covers [boundaries[j], boundaries[j+1]).
    let mut boundaries: Vec<Vec<u32>> = domains.iter().map(|&d| (0..d as u32).collect()).collect();

    loop {
        // Map every value to its interval index, group rows, test k-anonymity.
        let maps: Vec<Vec<u32>> =
            boundaries.iter().zip(&domains).map(|(b, &d)| interval_map(b, d)).collect();
        let mut counts: FxHashMap<Vec<u32>, u64> = FxHashMap::default();
        for row in 0..n_rows {
            let key: Vec<u32> = qi
                .iter()
                .enumerate()
                .map(|(pos, &a)| maps[pos][table.column(a)[row] as usize])
                .collect();
            *counts.entry(key).or_insert(0) += 1;
        }
        if counts.values().all(|&c| c >= k) {
            break;
        }
        // Coarsen the attribute with the most intervals by merging its
        // lightest interval (by marginal row count) into the lighter of
        // its neighbors — this collapses sparse tails instead of blindly
        // halving everything. Stop when every attribute is one interval.
        let victim = (0..qi.len())
            .filter(|&pos| boundaries[pos].len() > 1)
            .max_by_key(|&pos| boundaries[pos].len());
        let Some(pos) = victim else { break };
        let a = qi[pos];
        let mut marginal = vec![0u64; boundaries[pos].len()];
        for row in 0..n_rows {
            marginal[maps[pos][table.column(a)[row] as usize] as usize] += 1;
        }
        let lightest =
            (0..marginal.len()).min_by_key(|&j| marginal[j]).expect("at least two intervals");
        // Merge interval `lightest` with its lighter neighbor by deleting
        // the boundary between them: deleting boundary j merges intervals
        // j-1 and j.
        let merge_right = lightest == 0
            || (lightest + 1 < marginal.len() && marginal[lightest + 1] < marginal[lightest - 1]);
        let delete = if merge_right { lightest + 1 } else { lightest };
        boundaries[pos].remove(delete);
    }

    // Label rows by their interval ranges and tally losses.
    let maps: Vec<Vec<u32>> =
        boundaries.iter().zip(&domains).map(|(b, &d)| interval_map(b, d)).collect();
    let mut precision_loss = 0.0;
    let mut lm_loss = 0.0;
    let mut qi_labels: Vec<Vec<String>> = Vec::with_capacity(n_rows);
    for row in 0..n_rows {
        let labels: Vec<String> = qi
            .iter()
            .enumerate()
            .map(|(pos, &a)| {
                let h = schema.hierarchy(a);
                let v = table.column(a)[row];
                let j = maps[pos][v as usize] as usize;
                let lo = boundaries[pos][j];
                let hi =
                    boundaries[pos].get(j + 1).map(|&b| b - 1).unwrap_or(domains[pos] as u32 - 1);
                let frac = if domains[pos] <= 1 {
                    0.0
                } else {
                    (hi - lo) as f64 / (domains[pos] - 1) as f64
                };
                precision_loss += frac;
                lm_loss += frac;
                if lo == hi {
                    h.label(0, lo).to_string()
                } else {
                    format!("[{}-{}]", h.label(0, lo), h.label(0, hi))
                }
            })
            .collect();
        qi_labels.push(labels);
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

/// value id → interval index, given ascending interval start ids.
fn interval_map(boundaries: &[u32], domain: usize) -> Vec<u32> {
    let mut map = vec![0u32; domain];
    let mut j = 0usize;
    for v in 0..domain as u32 {
        while j + 1 < boundaries.len() && boundaries[j + 1] <= v {
            j += 1;
        }
        map[v as usize] = j as u32;
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use incognito_data::{adults, patients, AdultsConfig};

    #[test]
    fn interval_map_basics() {
        assert_eq!(interval_map(&[0, 2, 4], 6), vec![0, 0, 1, 1, 2, 2]);
        assert_eq!(interval_map(&[0], 3), vec![0, 0, 0]);
    }

    #[test]
    fn patients_partition_is_2_anonymous() {
        let t = patients();
        let r = ordered_partition_anonymize(&t, &[0, 1, 2], 2).unwrap();
        assert!(r.is_k_anonymous(2));
        assert_eq!(r.view.num_rows(), 6);
    }

    #[test]
    fn adults_age_gender_partition() {
        let t = adults(&AdultsConfig { rows: 3_000, seed: 11 });
        let r = ordered_partition_anonymize(&t, &[0, 1], 25).unwrap();
        assert!(r.is_k_anonymous(25));
        assert!(r.num_classes() > 1);
        let m = r.metrics(25);
        assert!(m.loss < 1.0);
    }

    #[test]
    fn mondrian_at_least_as_good_as_single_dimension() {
        // §5.1's observation: multi-dimension models encompass solutions the
        // single-dimension ones cannot express.
        let t = adults(&AdultsConfig { rows: 2_000, seed: 9 });
        let k = 20u64;
        let single = ordered_partition_anonymize(&t, &[0, 4], k).unwrap().metrics(k);
        let multi = crate::mondrian::mondrian_anonymize(&t, &[0, 4], k).unwrap().metrics(k);
        assert!(multi.discernibility <= single.discernibility);
    }
}
