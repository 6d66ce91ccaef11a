//! The common output form of every anonymizer in this crate, plus the
//! full-domain and attribute-suppression reference models.

use incognito_hierarchy::{Hierarchy, LevelNo};
use incognito_table::fxhash::FxHashMap;
use incognito_table::{Attribute, GroupSpec, Schema, Table, TableError};

use crate::metrics::Metrics;

/// An anonymized release: the recoded view plus the equivalence-class
/// profile and per-cell information-loss tallies that the [`crate::metrics`]
/// module turns into comparable scores.
#[derive(Debug, Clone)]
pub struct AnonymizedRelease {
    /// The recoded table (quasi-identifier recoded, other attributes
    /// released intact).
    pub view: Table,
    /// Positions of the quasi-identifier attributes within `view`.
    pub qi: Vec<usize>,
    /// Rows of the source table that were suppressed entirely.
    pub suppressed: u64,
    /// Source-row index of each view row (view rows preserve source
    /// order with suppressed rows removed).
    pub kept_rows: Vec<usize>,
    /// Rows in the source table.
    pub source_rows: u64,
    /// Sizes of the equivalence classes of `view` over `qi`.
    pub class_sizes: Vec<u64>,
    /// Σ over released cells of `level / hierarchy height` (fraction of the
    /// generalization chain consumed); suppressed rows contribute 1 per
    /// cell. Basis of the Precision (Prec) metric \[17\].
    pub precision_loss: f64,
    /// Σ over released cells of `(leaves(value) - 1) / (|domain| - 1)`
    /// (fraction of the ground domain indistinguishable after recoding);
    /// suppressed rows contribute 1 per cell. Basis of the loss metric (LM)
    /// of \[11\].
    pub lm_loss: f64,
}

impl AnonymizedRelease {
    /// Whether every equivalence class in the release has at least `k`
    /// members.
    pub fn is_k_anonymous(&self, k: u64) -> bool {
        self.class_sizes.iter().all(|&c| c >= k)
    }

    /// Number of equivalence classes.
    pub fn num_classes(&self) -> usize {
        self.class_sizes.len()
    }

    /// Convenience: compute the comparison metrics for this release.
    pub fn metrics(&self, k: u64) -> Metrics {
        Metrics::for_release(self, k)
    }
}

/// Fraction of attribute `h`'s generalization chain consumed at `level`
/// (0 for a height-0 hierarchy, which cannot be generalized).
pub(crate) fn precision_fraction(h: &Hierarchy, level: LevelNo) -> f64 {
    if h.height() == 0 {
        0.0
    } else {
        level as f64 / h.height() as f64
    }
}

/// Fraction of attribute `h`'s ground domain merged into the value `id` at
/// `level` — the per-cell LM / GenILoss term.
pub(crate) fn lm_fraction(h: &Hierarchy, level: LevelNo, leaves_under: usize) -> f64 {
    let _ = level;
    let domain = h.ground_size();
    if domain <= 1 {
        0.0
    } else {
        (leaves_under - 1) as f64 / (domain - 1) as f64
    }
}

/// Per-level histogram of subtree sizes: `result[level][id]` = number of
/// ground values mapping to `id` at `level`.
pub(crate) fn subtree_sizes(h: &Hierarchy) -> Vec<Vec<usize>> {
    (0..=h.height())
        .map(|l| {
            let mut counts = vec![0usize; h.level_size(l)];
            for &v in h.map_to_level(l) {
                counts[v as usize] += 1;
            }
            counts
        })
        .collect()
}

/// Build a release view from per-row QI labels (the shared back end for the
/// local-recoding and multi-dimensional anonymizers).
///
/// `kept` lists surviving row indices of `source`; `qi_labels[i]` gives the
/// recoded QI labels for `kept[i]` (one per QI attribute, in `qi` order).
/// Non-QI attributes are copied through at ground level.
pub(crate) fn build_view_from_labels(
    source: &Table,
    qi: &[usize],
    kept: &[usize],
    qi_labels: &[Vec<String>],
) -> Result<(Table, Vec<u64>), TableError> {
    assert_eq!(kept.len(), qi_labels.len());
    let src_schema = source.schema();
    let is_qi: Vec<bool> = {
        let mut v = vec![false; src_schema.arity()];
        for &a in qi {
            v[a] = true;
        }
        v
    };

    // Build dictionaries: QI attributes from the recoded labels, non-QI
    // attributes reuse the source ground dictionary.
    let mut attrs: Vec<Attribute> = Vec::with_capacity(src_schema.arity());
    let mut qi_dicts: FxHashMap<usize, FxHashMap<String, u32>> = FxHashMap::default();
    for (a, &a_is_qi) in is_qi.iter().enumerate() {
        if a_is_qi {
            let pos = qi.iter().position(|&q| q == a).expect("qi attr");
            let mut labels: Vec<String> = Vec::new();
            let mut index: FxHashMap<String, u32> = FxHashMap::default();
            for row_labels in qi_labels {
                let l = &row_labels[pos];
                if !index.contains_key(l) {
                    index.insert(l.clone(), labels.len() as u32);
                    labels.push(l.clone());
                }
            }
            if labels.is_empty() {
                labels.push("*".to_string()); // empty release still needs a domain
            }
            let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
            let hier =
                incognito_hierarchy::builders::identity(src_schema.attribute(a).name(), &refs)
                    .expect("labels are distinct by construction");
            attrs.push(Attribute::new(src_schema.attribute(a).name(), hier));
            qi_dicts
                .insert(a, labels.iter().enumerate().map(|(i, l)| (l.clone(), i as u32)).collect());
        } else {
            attrs.push(Attribute::new(
                src_schema.attribute(a).name(),
                src_schema.hierarchy(a).clone(),
            ));
        }
    }
    let schema = Schema::new(attrs)?;

    let mut cols: Vec<Vec<u32>> = vec![Vec::with_capacity(kept.len()); src_schema.arity()];
    for (i, &row) in kept.iter().enumerate() {
        for a in 0..src_schema.arity() {
            if is_qi[a] {
                let pos = qi.iter().position(|&q| q == a).expect("qi attr");
                cols[a].push(qi_dicts[&a][&qi_labels[i][pos]]);
            } else {
                cols[a].push(source.column(a)[row]);
            }
        }
    }
    let view = Table::from_columns(schema, cols)?;
    let class_sizes = class_sizes_of(&view, qi)?;
    Ok((view, class_sizes))
}

/// Equivalence-class sizes of `view` over `qi` at the view's ground level.
pub(crate) fn class_sizes_of(view: &Table, qi: &[usize]) -> Result<Vec<u64>, TableError> {
    let freq = view.frequency_set(&GroupSpec::ground(qi)?)?;
    Ok(freq.iter().map(|(_, c)| c).collect())
}

/// Build the release for a **full-domain generalization** (the model the
/// Incognito algorithms search over): `levels[i]` is the level of `qi[i]`.
/// With `suppress = Some(k)`, tuples in groups smaller than `k` are removed
/// (§2.1's suppression threshold).
pub fn full_domain_release(
    table: &Table,
    qi: &[usize],
    levels: &[LevelNo],
    suppress: Option<u64>,
) -> Result<AnonymizedRelease, TableError> {
    let schema = table.schema().clone();
    let mut full_levels = vec![0u8; schema.arity()];
    for (&a, &l) in qi.iter().zip(levels) {
        full_levels[a] = l;
    }
    let (view, suppressed) =
        table.generalize_with_suppression(&full_levels, suppress.map(|k| (k, qi)))?;
    let class_sizes = class_sizes_of(&view, qi)?;

    // Tally losses from the source frequency set at the chosen levels: kept
    // groups charge their per-cell generalization cost, suppressed groups
    // (those below k when a threshold is set) charge full loss.
    let spec = GroupSpec::new(qi.iter().zip(levels).map(|(&a, &l)| (a, l)).collect())?;
    let freq = table.frequency_set(&spec)?;
    let sizes: Vec<Vec<Vec<usize>>> =
        qi.iter().map(|&a| subtree_sizes(schema.hierarchy(a))).collect();
    let mut precision_loss = 0.0;
    let mut lm_loss = 0.0;
    for (key, count) in freq.iter() {
        let n = count as f64;
        if suppress.is_some_and(|k| count < k) {
            precision_loss += n * qi.len() as f64;
            lm_loss += n * qi.len() as f64;
            continue;
        }
        for (pos, (&a, &l)) in qi.iter().zip(levels).enumerate() {
            let h = schema.hierarchy(a);
            let g = key.as_slice()[pos];
            precision_loss += n * precision_fraction(h, l);
            lm_loss += n * lm_fraction(h, l, sizes[pos][l as usize][g as usize]);
        }
    }

    // Which source rows survived (view rows preserve order).
    let kept_rows: Vec<usize> = match suppress {
        Some(k) if suppressed > 0 => {
            let keep = table.suppression_keep_mask(&spec, k)?;
            (0..table.num_rows()).filter(|&row| keep[row]).collect()
        }
        _ => (0..table.num_rows()).collect(),
    };
    debug_assert_eq!(kept_rows.len(), view.num_rows());

    Ok(AnonymizedRelease {
        view,
        qi: qi.to_vec(),
        suppressed,
        kept_rows,
        source_rows: table.num_rows() as u64,
        class_sizes,
        precision_loss,
        lm_loss,
    })
}

/// **Attribute suppression** (§5.1.1's special case of full-domain
/// generalization): greedily suppress whole attributes (map every value to
/// the hierarchy top) until the table is k-anonymous, preferring to
/// suppress the attribute whose removal from the grouping most reduces
/// violations. Attributes stay intact or vanish entirely.
pub fn attribute_suppression_release(
    table: &Table,
    qi: &[usize],
    k: u64,
) -> Result<AnonymizedRelease, TableError> {
    let schema = table.schema().clone();
    let mut levels: Vec<LevelNo> = vec![0; qi.len()];
    loop {
        let spec = GroupSpec::new(qi.iter().zip(&levels).map(|(&a, &l)| (a, l)).collect())?;
        let freq = table.frequency_set(&spec)?;
        if freq.is_k_anonymous(k) {
            break;
        }
        // Suppress the not-yet-suppressed attribute with the most distinct
        // ground values (the Datafly-style greedy choice).
        let victim = qi
            .iter()
            .enumerate()
            .filter(|&(i, _)| levels[i] == 0)
            .max_by_key(|&(_, &a)| schema.hierarchy(a).ground_size());
        match victim {
            Some((i, &a)) => levels[i] = schema.hierarchy(a).height(),
            None => break, // everything suppressed: single class of |T| rows
        }
    }
    full_domain_release(table, qi, &levels, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use incognito_data::patients;

    #[test]
    fn full_domain_release_s1z0() {
        let t = patients();
        // ⟨S1, Z0⟩ — the minimal 2-anonymous generalization of ⟨Sex, Zipcode⟩.
        let r = full_domain_release(&t, &[1, 2], &[1, 0], None).unwrap();
        assert!(r.is_k_anonymous(2));
        assert_eq!(r.suppressed, 0);
        assert_eq!(r.view.num_rows(), 6);
        assert_eq!(r.num_classes(), 3);
        // Precision loss: 6 cells of Sex at 1/1 + 6 cells of Zip at 0/2.
        assert!((r.precision_loss - 6.0).abs() < 1e-9);
        // LM: Sex cells merge the whole 2-value domain: (2-1)/(2-1) = 1 each.
        assert!((r.lm_loss - 6.0).abs() < 1e-9);
    }

    #[test]
    fn full_domain_release_with_suppression() {
        let t = patients();
        let r = full_domain_release(&t, &[1, 2], &[0, 0], Some(2)).unwrap();
        assert!(r.is_k_anonymous(2));
        assert_eq!(r.suppressed, 2);
        assert_eq!(r.view.num_rows(), 4);
        // Suppressed rows charge full loss: 2 rows × 2 QI cells.
        assert!((r.precision_loss - 4.0).abs() < 1e-9);
        assert!((r.lm_loss - 4.0).abs() < 1e-9);
    }

    #[test]
    fn suppressed_release_keeps_exactly_the_rows_in_large_groups() {
        // More rows than one scan block, at mixed levels.
        let t = incognito_data::adults(&incognito_data::AdultsConfig { rows: 4_173, seed: 5 });
        let (qi, levels, k) = ([0usize, 2, 3], [1u8, 0, 1], 5u64);
        let r = full_domain_release(&t, &qi, &levels, Some(k)).unwrap();
        // Brute force: count each row's generalized key, keep rows whose
        // key occurs at least k times.
        let key = |row: usize| -> Vec<u32> {
            qi.iter()
                .zip(levels)
                .map(|(&a, l)| t.schema().hierarchy(a).map_to_level(l)[t.column(a)[row] as usize])
                .collect()
        };
        let mut counts = std::collections::HashMap::new();
        for row in 0..t.num_rows() {
            *counts.entry(key(row)).or_insert(0u64) += 1;
        }
        let expected: Vec<usize> =
            (0..t.num_rows()).filter(|&row| counts[&key(row)] >= k).collect();
        assert!(r.suppressed > 0, "the case must suppress some rows");
        assert_eq!(r.kept_rows, expected);
        assert_eq!(r.suppressed, (t.num_rows() - expected.len()) as u64);
        assert!(r.is_k_anonymous(k));
    }

    #[test]
    fn attribute_suppression_reaches_anonymity() {
        let t = patients();
        let r = attribute_suppression_release(&t, &[0, 1, 2], 2).unwrap();
        assert!(r.is_k_anonymous(2));
        // Under pure attribute suppression each QI column is either intact
        // or constant `*`.
        for &a in &[0usize, 1, 2] {
            let col = r.view.column(a);
            let distinct: std::collections::HashSet<_> = col.iter().collect();
            let ground = t.schema().hierarchy(a).ground_size();
            assert!(
                distinct.len() == 1 || distinct.len() <= ground,
                "attribute {a} must be constant or intact"
            );
        }
    }

    #[test]
    fn build_view_from_labels_groups_correctly() {
        let t = patients();
        let kept: Vec<usize> = (0..6).collect();
        let labels: Vec<Vec<String>> =
            (0..6).map(|i| vec![if i < 3 { "A" } else { "B" }.to_string()]).collect();
        let (view, classes) = build_view_from_labels(&t, &[1], &kept, &labels).unwrap();
        assert_eq!(view.num_rows(), 6);
        let mut sizes = classes;
        sizes.sort_unstable();
        assert_eq!(sizes, vec![3, 3]);
        // Non-QI columns copied through.
        assert_eq!(view.label(0, 0), "1/21/76");
        assert_eq!(view.label(0, 3), "Flu");
    }
}
