//! Frequency sets as SQL over the star schema: `SELECT COUNT(*) … GROUP
//! BY` for the base computation (§1.1's definition), and `SUM(count) …
//! GROUP BY` through a dimension table for the Rollup Property (§3).

use incognito_hierarchy::LevelNo;
use incognito_rel::{Aggregate, Relation, Value};

use crate::schema::{col_name, StarSchema};
use crate::StarError;

/// `SELECT <level columns>, COUNT(*) AS count FROM fact JOIN dims … GROUP
/// BY <level columns>` — the paper's frequency-set query. `parts` is the
/// generalization node: `(attribute, level)` pairs, attribute-sorted.
pub fn frequency_set_sql(
    star: &StarSchema,
    parts: &[(usize, LevelNo)],
) -> Result<Relation, StarError> {
    let _span = incognito_obs::span("sql.scan").arg("rows", star.fact().len() as u64);
    // Start from the fact columns we need (level-0 names).
    let base_cols: Vec<(String, String)> =
        parts.iter().map(|&(a, _)| (col_name(a, 0), col_name(a, 0))).collect();
    let proj: Vec<(&str, &str)> = base_cols.iter().map(|(s, d)| (s.as_str(), d.as_str())).collect();
    let mut rel = star.fact().project(&proj)?;

    // Join each attribute needing generalization with its dimension and
    // carry the level column along.
    for &(a, l) in parts {
        if l == 0 {
            continue;
        }
        let dim = star.dim(a).expect("attribute is in the star schema");
        let key0 = col_name(a, 0);
        let keyl = col_name(a, l);
        let dim_proj = dim.project(&[(&key0, &key0), (&keyl, &keyl)])?;
        let prefix = format!("d{a}_");
        rel = rel.join(&dim_proj, &[(&key0, &key0)], &prefix)?;
        // Normalize: drop the ground column, keep the level column under
        // its plain name.
        let mut keep: Vec<(String, String)> = Vec::new();
        for name in rel.names() {
            if name == &key0 || name == &format!("{prefix}{key0}") {
                continue;
            }
            if name == &format!("{prefix}{keyl}") {
                keep.push((name.clone(), keyl.clone()));
            } else {
                keep.push((name.clone(), name.clone()));
            }
        }
        let keep_refs: Vec<(&str, &str)> =
            keep.iter().map(|(s, d)| (s.as_str(), d.as_str())).collect();
        rel = rel.project(&keep_refs)?;
    }

    let group_cols: Vec<String> = parts.iter().map(|&(a, l)| col_name(a, l)).collect();
    let group_refs: Vec<&str> = group_cols.iter().map(String::as_str).collect();
    Ok(rel.group_by(&group_refs, &[Aggregate::count("count")])?)
}

/// The Rollup Property as SQL: produce the frequency set at `to` from one
/// at `from` by joining with each changed attribute's (distinct) level map
/// and summing counts — "joining F1 with the Zipcode dimension table, and
/// issuing a SUM(count) query" in the paper's words.
pub fn rollup_sql(
    star: &StarSchema,
    freq: &Relation,
    from: &[(usize, LevelNo)],
    to: &[LevelNo],
) -> Result<Relation, StarError> {
    let _span = incognito_obs::span("sql.rollup").arg("groups_in", freq.len() as u64);
    assert_eq!(from.len(), to.len());
    let mut rel = freq.clone();
    for (&(a, fl), &tl) in from.iter().zip(to) {
        if tl == fl {
            continue;
        }
        assert!(tl > fl, "rollup goes upward");
        let dim = star.dim(a).expect("attribute in star schema");
        let keyf = col_name(a, fl);
        let keyt = col_name(a, tl);
        // Level map: distinct (from-level, to-level) label pairs.
        let map = dim.project(&[(&keyf, &keyf), (&keyt, &keyt)])?.distinct();
        let prefix = format!("m{a}_");
        rel = rel.join(&map, &[(&keyf, &keyf)], &prefix)?;
        let mut keep: Vec<(String, String)> = Vec::new();
        for name in rel.names() {
            if name == &keyf || name == &format!("{prefix}{keyf}") {
                continue;
            }
            if name == &format!("{prefix}{keyt}") {
                keep.push((name.clone(), keyt.clone()));
            } else {
                keep.push((name.clone(), name.clone()));
            }
        }
        let keep_refs: Vec<(&str, &str)> =
            keep.iter().map(|(s, d)| (s.as_str(), d.as_str())).collect();
        rel = rel.project(&keep_refs)?;
    }
    let group_cols: Vec<String> =
        from.iter().zip(to).map(|(&(a, _), &tl)| col_name(a, tl)).collect();
    let group_refs: Vec<&str> = group_cols.iter().map(String::as_str).collect();
    Ok(rel.group_by(&group_refs, &[Aggregate::sum("count", "count")])?)
}

/// The k-anonymity predicate over a frequency relation, with the §2.1
/// suppression allowance (`max_suppress` tuples in groups below k may be
/// dropped).
pub fn is_k_anonymous_sql(freq: &Relation, k: u64, max_suppress: u64) -> Result<bool, StarError> {
    let idx = freq.column_index("count")?;
    let mut below = 0u64;
    for row in 0..freq.len() {
        if let Value::Int(c) = freq.column_at(idx).value(row) {
            let c = c.max(0) as u64;
            if c < k {
                below += c;
            }
        }
    }
    Ok(below <= max_suppress)
}

#[cfg(test)]
mod tests {
    use super::*;
    use incognito_data::patients;
    use incognito_table::GroupSpec;

    fn star() -> (incognito_table::Table, StarSchema) {
        let t = patients();
        let s = StarSchema::build(&t, &[0, 1, 2]).unwrap();
        (t, s)
    }

    /// Render a native frequency set and a SQL frequency relation in a
    /// comparable, sorted label form.
    fn native_rows(t: &incognito_table::Table, parts: &[(usize, u8)]) -> Vec<(Vec<String>, u64)> {
        let f = t.frequency_set(&GroupSpec::new(parts.to_vec()).unwrap()).unwrap();
        f.to_labeled_rows(t.schema())
    }

    fn sql_rows(rel: &Relation, parts: &[(usize, u8)]) -> Vec<(Vec<String>, u64)> {
        let mut out = Vec::new();
        for row in 0..rel.len() {
            let labels: Vec<String> = parts
                .iter()
                .map(|&(a, l)| rel.value(row, &col_name(a, l)).unwrap().to_string())
                .collect();
            let count = match rel.value(row, "count").unwrap() {
                Value::Int(c) => c as u64,
                Value::Text(_) => unreachable!(),
            };
            out.push((labels, count));
        }
        out.sort();
        out
    }

    #[test]
    fn sql_frequency_sets_match_native_engine() {
        let (t, star) = star();
        for parts in [
            vec![(1usize, 0u8), (2, 0)],
            vec![(1, 1), (2, 0)],
            vec![(0, 0), (1, 1), (2, 2)],
            vec![(2, 1)],
        ] {
            let sql = frequency_set_sql(&star, &parts).unwrap();
            assert_eq!(sql_rows(&sql, &parts), native_rows(&t, &parts), "{parts:?}");
        }
    }

    #[test]
    fn sql_rollup_matches_direct_sql() {
        let (_t, star) = star();
        let ground = frequency_set_sql(&star, &[(1, 0), (2, 0)]).unwrap();
        let rolled = rollup_sql(&star, &ground, &[(1, 0), (2, 0)], &[1, 1]).unwrap();
        let direct = frequency_set_sql(&star, &[(1, 1), (2, 1)]).unwrap();
        assert_eq!(sql_rows(&rolled, &[(1, 1), (2, 1)]), sql_rows(&direct, &[(1, 1), (2, 1)]));
    }

    #[test]
    fn k_anonymity_predicate_over_relations() {
        let (_t, star) = star();
        // §1.1: not 2-anonymous w.r.t. ⟨Sex, Zipcode⟩, but ⟨S1, Z0⟩ passes.
        let f = frequency_set_sql(&star, &[(1, 0), (2, 0)]).unwrap();
        assert!(!is_k_anonymous_sql(&f, 2, 0).unwrap());
        assert!(is_k_anonymous_sql(&f, 2, 2).unwrap()); // 2 outliers allowed
        let g = frequency_set_sql(&star, &[(1, 1), (2, 0)]).unwrap();
        assert!(is_k_anonymous_sql(&g, 2, 0).unwrap());
    }
}
