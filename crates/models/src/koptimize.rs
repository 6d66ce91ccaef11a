//! K-Optimize — Bayardo & Agrawal's optimal search for the
//! single-dimension ordered-set partitioning model (\[3\], discussed in
//! §5.1.2/§6 of the paper; building algorithms for the flexible §5 models
//! is the future work §7 calls out).
//!
//! The model: every quasi-identifier attribute's ordered domain is covered
//! by disjoint intervals; an anonymization is a choice of *split points*
//! (an interval starts at each chosen value). K-Optimize explores the
//! power set of split points with a set-enumeration tree — the root is the
//! empty set (every attribute one interval, most general), each child adds
//! one split with a higher canonical index — searching depth-first for the
//! split set minimizing the **discernibility cost**
//!
//! ```text
//! cost = Σ_{classes ≥ k} |class|²  +  Σ_{classes < k} |class| · |T|
//! ```
//!
//! (small classes are suppressed and charged |T| per tuple, as in \[3\]).
//!
//! Pruning uses the model's key monotonicity: adding splits only *refines*
//! equivalence classes, so a class already below k stays below k in every
//! descendant — its suppression cost is committed — and every tuple in a
//! surviving class contributes at least k to the cost. That yields the
//! admissible lower bound
//!
//! ```text
//! LB = Σ_{classes < k} |class| · |T|  +  Σ_{classes ≥ k} |class| · k
//! ```
//!
//! and a subtree is pruned when `LB ≥ best`. This reproduces \[3\]'s
//! algorithmic idea at reproduction scale (the full paper adds further
//! bound tightening and reordering heuristics).

use incognito_table::fxhash::FxHashMap;
use incognito_table::{Table, TableError};

use crate::release::{build_view_from_labels, AnonymizedRelease};

/// Upper bound on the split alphabet (total split points across the QI)
/// before [`koptimize_anonymize`] refuses: the search is exponential, as
/// the optimal problem is NP-hard.
pub const MAX_ALPHABET: usize = 24;

/// Outcome of the optimal search.
#[derive(Debug, Clone)]
pub struct KOptimizeOutcome {
    /// The release built from the optimal split set.
    pub release: AnonymizedRelease,
    /// The optimal discernibility cost (with the \[3\] suppression charge).
    pub cost: u128,
    /// Set-enumeration nodes evaluated.
    pub nodes_evaluated: usize,
    /// Subtrees pruned by the lower bound.
    pub subtrees_pruned: usize,
}

/// Errors specific to the optimal search.
#[derive(Debug)]
pub enum KOptimizeError {
    /// The combined split alphabet exceeds [`MAX_ALPHABET`].
    AlphabetTooLarge {
        /// The alphabet size of this workload.
        size: usize,
    },
    /// Table-layer failure.
    Table(TableError),
}

impl std::fmt::Display for KOptimizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KOptimizeError::AlphabetTooLarge { size } => write!(
                f,
                "split alphabet of {size} exceeds the exhaustive-search cap of {MAX_ALPHABET}"
            ),
            KOptimizeError::Table(e) => write!(f, "table error: {e}"),
        }
    }
}

impl std::error::Error for KOptimizeError {}

impl From<TableError> for KOptimizeError {
    fn from(e: TableError) -> Self {
        KOptimizeError::Table(e)
    }
}

/// One split point: `(qi position, domain value id)` — an interval begins
/// at this value when the split is included.
type Split = (usize, u32);

/// Run K-Optimize over `qi` with parameter `k`. Suppressed tuples (classes
/// below k at the optimum) are removed from the release, per the model.
pub fn koptimize_anonymize(
    table: &Table,
    qi: &[usize],
    k: u64,
) -> Result<KOptimizeOutcome, KOptimizeError> {
    let schema = table.schema().clone();
    let n_rows = table.num_rows();
    let domains: Vec<usize> = qi.iter().map(|&a| schema.hierarchy(a).ground_size()).collect();

    // Canonical split alphabet: for each attribute, a split before every
    // domain value except the first. Restrict to values that actually
    // appear so empty intervals don't inflate the alphabet.
    let mut alphabet: Vec<Split> = Vec::new();
    for (pos, &a) in qi.iter().enumerate() {
        let mut present = vec![false; domains[pos]];
        for &v in table.column(a) {
            present[v as usize] = true;
        }
        for v in 1..domains[pos] as u32 {
            if present[v as usize] {
                alphabet.push((pos, v));
            }
        }
    }
    if alphabet.len() > MAX_ALPHABET {
        return Err(KOptimizeError::AlphabetTooLarge { size: alphabet.len() });
    }

    // DFS over the set-enumeration tree.
    struct Search<'a> {
        table: &'a Table,
        qi: &'a [usize],
        alphabet: &'a [Split],
        k: u64,
        n_rows: u64,
        best_cost: u128,
        best_set: Vec<usize>,
        nodes: usize,
        pruned: usize,
    }

    impl Search<'_> {
        /// Group rows under the split set; return (cost, lower bound).
        fn evaluate(&mut self, set: &[usize]) -> (u128, u128) {
            self.nodes += 1;
            // interval id per attribute = number of included splits ≤ value.
            let mut splits_per_attr: Vec<Vec<u32>> = vec![Vec::new(); self.qi.len()];
            for &s in set {
                let (pos, v) = self.alphabet[s];
                splits_per_attr[pos].push(v);
            }
            for s in &mut splits_per_attr {
                s.sort_unstable();
            }
            let mut counts: FxHashMap<Vec<u32>, u64> = FxHashMap::default();
            for row in 0..self.table.num_rows() {
                let key: Vec<u32> = self
                    .qi
                    .iter()
                    .enumerate()
                    .map(|(pos, &a)| {
                        let v = self.table.column(a)[row];
                        splits_per_attr[pos].partition_point(|&b| b <= v) as u32
                    })
                    .collect();
                *counts.entry(key).or_insert(0) += 1;
            }
            let mut cost = 0u128;
            let mut lb = 0u128;
            for &c in counts.values() {
                if c >= self.k {
                    cost += (c as u128) * (c as u128);
                    lb += (c as u128) * (self.k as u128);
                } else {
                    let sup = (c as u128) * (self.n_rows as u128);
                    cost += sup;
                    lb += sup;
                }
            }
            (cost, lb)
        }

        fn dfs(&mut self, set: &mut Vec<usize>, next: usize) {
            let (cost, lb) = self.evaluate(set);
            if cost < self.best_cost {
                self.best_cost = cost;
                self.best_set = set.clone();
            }
            if lb >= self.best_cost {
                self.pruned += 1;
                return;
            }
            for s in next..self.alphabet.len() {
                set.push(s);
                self.dfs(set, s + 1);
                set.pop();
            }
        }
    }

    let mut search = Search {
        table,
        qi,
        alphabet: &alphabet,
        k,
        n_rows: n_rows as u64,
        best_cost: u128::MAX,
        best_set: Vec::new(),
        nodes: 0,
        pruned: 0,
    };
    search.dfs(&mut Vec::new(), 0);

    // Materialize the optimal release.
    let mut splits_per_attr: Vec<Vec<u32>> = vec![Vec::new(); qi.len()];
    for &s in &search.best_set {
        let (pos, v) = alphabet[s];
        splits_per_attr[pos].push(v);
    }
    for s in &mut splits_per_attr {
        s.sort_unstable();
    }

    // Interval label per (attr, interval id).
    let interval_label = |pos: usize, a: usize, iv: usize| -> String {
        let h = schema.hierarchy(a);
        let lo = if iv == 0 { 0 } else { splits_per_attr[pos][iv - 1] };
        let hi = splits_per_attr[pos].get(iv).map(|&b| b - 1).unwrap_or(domains[pos] as u32 - 1);
        if lo == hi {
            h.label(0, lo).to_string()
        } else {
            format!("[{}-{}]", h.label(0, lo), h.label(0, hi))
        }
    };

    // Group once more under the optimum to find suppressed classes.
    let mut groups: FxHashMap<Vec<u32>, Vec<usize>> = FxHashMap::default();
    for row in 0..n_rows {
        let key: Vec<u32> = qi
            .iter()
            .enumerate()
            .map(|(pos, &a)| {
                let v = table.column(a)[row];
                splits_per_attr[pos].partition_point(|&b| b <= v) as u32
            })
            .collect();
        groups.entry(key).or_default().push(row);
    }
    let mut dropped = vec![false; n_rows];
    for rows in groups.values() {
        if (rows.len() as u64) < k {
            for &r in rows {
                dropped[r] = true;
            }
        }
    }
    let suppressed = dropped.iter().filter(|&&d| d).count() as u64;
    let kept: Vec<usize> = (0..n_rows).filter(|&r| !dropped[r]).collect();
    let mut precision_loss = suppressed as f64 * qi.len() as f64;
    let mut lm_loss = suppressed as f64 * qi.len() as f64;
    let mut qi_labels: Vec<Vec<String>> = Vec::with_capacity(kept.len());
    for &row in &kept {
        let labels: Vec<String> = qi
            .iter()
            .enumerate()
            .map(|(pos, &a)| {
                let v = table.column(a)[row];
                let iv = splits_per_attr[pos].partition_point(|&b| b <= v);
                let lo = if iv == 0 { 0 } else { splits_per_attr[pos][iv - 1] };
                let hi =
                    splits_per_attr[pos].get(iv).map(|&b| b - 1).unwrap_or(domains[pos] as u32 - 1);
                let frac = if domains[pos] <= 1 {
                    0.0
                } else {
                    (hi - lo) as f64 / (domains[pos] - 1) as f64
                };
                precision_loss += frac;
                lm_loss += frac;
                interval_label(pos, a, iv)
            })
            .collect();
        qi_labels.push(labels);
    }
    let (view, class_sizes) = build_view_from_labels(table, qi, &kept, &qi_labels)?;
    let release = AnonymizedRelease {
        view,
        qi: qi.to_vec(),
        suppressed,
        kept_rows: kept,
        source_rows: n_rows as u64,
        class_sizes,
        precision_loss,
        lm_loss,
    };
    Ok(KOptimizeOutcome {
        release,
        cost: search.best_cost,
        nodes_evaluated: search.nodes,
        subtrees_pruned: search.pruned,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use incognito_data::{adults, patients, AdultsConfig};

    /// Brute-force reference: evaluate every subset of the alphabet.
    fn brute_force_cost(table: &Table, qi: &[usize], k: u64) -> u128 {
        let schema = table.schema().clone();
        let domains: Vec<usize> = qi.iter().map(|&a| schema.hierarchy(a).ground_size()).collect();
        let mut alphabet: Vec<(usize, u32)> = Vec::new();
        for (pos, &a) in qi.iter().enumerate() {
            let mut present = vec![false; domains[pos]];
            for &v in table.column(a) {
                present[v as usize] = true;
            }
            for v in 1..domains[pos] as u32 {
                if present[v as usize] {
                    alphabet.push((pos, v));
                }
            }
        }
        let n = table.num_rows() as u128;
        let mut best = u128::MAX;
        for mask in 0u32..(1 << alphabet.len()) {
            let mut splits: Vec<Vec<u32>> = vec![Vec::new(); qi.len()];
            for (s, &(pos, v)) in alphabet.iter().enumerate() {
                if mask & (1 << s) != 0 {
                    splits[pos].push(v);
                }
            }
            for sp in &mut splits {
                sp.sort_unstable();
            }
            let mut counts: FxHashMap<Vec<u32>, u64> = FxHashMap::default();
            for row in 0..table.num_rows() {
                let key: Vec<u32> = qi
                    .iter()
                    .enumerate()
                    .map(|(pos, &a)| {
                        let v = table.column(a)[row];
                        splits[pos].partition_point(|&b| b <= v) as u32
                    })
                    .collect();
                *counts.entry(key).or_insert(0) += 1;
            }
            let cost: u128 = counts
                .values()
                .map(|&c| if c >= k { (c as u128) * (c as u128) } else { (c as u128) * n })
                .sum();
            best = best.min(cost);
        }
        best
    }

    #[test]
    fn optimal_on_patients_matches_brute_force() {
        let t = patients();
        for k in [1u64, 2, 3] {
            let out = koptimize_anonymize(&t, &[1, 2], k).unwrap();
            assert_eq!(out.cost, brute_force_cost(&t, &[1, 2], k), "k={k}");
            // Kept classes are all ≥ k.
            assert!(out.release.is_k_anonymous(k));
        }
    }

    #[test]
    fn pruning_saves_work_but_not_optimality() {
        let t = adults(&AdultsConfig { rows: 400, seed: 60 });
        // Gender + Marital (small domains). A high k makes suppression
        // dominate deep in the tree, which is when the committed-
        // suppression bound bites.
        let out = koptimize_anonymize(&t, &[1, 3], 60).unwrap();
        assert_eq!(out.cost, brute_force_cost(&t, &[1, 3], 60));
        assert!(out.subtrees_pruned > 0, "expected the bound to fire");
        // Strictly fewer nodes than the full power set.
        assert!(out.nodes_evaluated < (1 << 7));
    }

    #[test]
    fn optimal_never_worse_than_greedy_partitioning() {
        let t = adults(&AdultsConfig { rows: 500, seed: 61 });
        let k = 10u64;
        let opt = koptimize_anonymize(&t, &[1, 3], k).unwrap();
        let greedy = crate::partition1d::ordered_partition_anonymize(&t, &[1, 3], k).unwrap();
        let greedy_cost = greedy.metrics(k).discernibility;
        assert!(
            opt.cost <= greedy_cost,
            "optimal {} must not exceed greedy {greedy_cost}",
            opt.cost
        );
    }

    #[test]
    fn alphabet_guard() {
        let t = adults(&AdultsConfig { rows: 200, seed: 62 });
        // Age alone has 73 split points.
        assert!(matches!(
            koptimize_anonymize(&t, &[0], 5),
            Err(KOptimizeError::AlphabetTooLarge { .. })
        ));
    }
}
