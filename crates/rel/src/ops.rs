//! Relational operators: projection, selection, hash join, and hash
//! aggregation — the pieces needed to express every query in §3 of the
//! paper.

use incognito_table::fxhash::FxHashMap;

use crate::relation::{ColumnData, Relation, Value};
use crate::RelError;

/// One aggregate in a `GROUP BY` (the paper needs exactly these two).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Aggregate {
    /// `COUNT(*) AS <alias>`.
    CountStar {
        /// Output column name.
        alias: String,
    },
    /// `SUM(<column>) AS <alias>` over an Int column.
    SumInt {
        /// Input column.
        column: String,
        /// Output column name.
        alias: String,
    },
}

impl Aggregate {
    /// `COUNT(*) AS alias`.
    pub fn count(alias: &str) -> Aggregate {
        Aggregate::CountStar { alias: alias.to_string() }
    }

    /// `SUM(column) AS alias`.
    pub fn sum(column: &str, alias: &str) -> Aggregate {
        Aggregate::SumInt { column: column.to_string(), alias: alias.to_string() }
    }
}

/// An equi-join key pair: `left.0 = right.1`.
pub type JoinKey<'a> = (&'a str, &'a str);

impl Relation {
    /// `SELECT <cols> FROM self` with optional renaming:
    /// each entry is `(source column, output name)`.
    pub fn project(&self, cols: &[(&str, &str)]) -> Result<Relation, RelError> {
        let mut out = Vec::with_capacity(cols.len());
        for &(src, alias) in cols {
            let idx = self.column_index(src)?;
            out.push((alias, self.column_at(idx).clone()));
        }
        Relation::new(out)
    }

    /// `WHERE <predicate>` with an arbitrary row predicate (used for the
    /// inequality conjuncts like `p.dim1 < q.dim1` that hash joins cannot
    /// express).
    pub fn filter(&self, pred: impl Fn(&Relation, usize) -> bool) -> Relation {
        let mut out = self.empty_like();
        for row in 0..self.len() {
            if pred(self, row) {
                out.push_row_from(self, row);
            }
        }
        out
    }

    /// `WHERE <column> = <value>`.
    pub fn filter_eq(&self, column: &str, value: &Value) -> Result<Relation, RelError> {
        let idx = self.column_index(column)?;
        Ok(self.filter(|r, row| r.column_at(idx).value(row) == *value))
    }

    /// Inner hash equi-join. Output columns: all of `self` (names kept),
    /// then all of `other` prefixed with `prefix` (SQL's `q.` alias) to
    /// avoid collisions.
    pub fn join(
        &self,
        other: &Relation,
        on: &[JoinKey<'_>],
        prefix: &str,
    ) -> Result<Relation, RelError> {
        let left_keys: Vec<usize> =
            on.iter().map(|&(l, _)| self.column_index(l)).collect::<Result<_, _>>()?;
        let right_keys: Vec<usize> =
            on.iter().map(|&(_, r)| other.column_index(r)).collect::<Result<_, _>>()?;

        // Build on the smaller side conceptually; keep it simple: build right.
        let mut index: FxHashMap<Vec<Value>, Vec<usize>> = FxHashMap::default();
        for row in 0..other.len() {
            let key: Vec<Value> =
                right_keys.iter().map(|&k| other.column_at(k).value(row)).collect();
            index.entry(key).or_default().push(row);
        }

        // Output schema.
        let mut cols: Vec<(String, ColumnData)> = Vec::new();
        for (name, col) in self.names().iter().zip((0..self.arity()).map(|i| self.column_at(i))) {
            cols.push((name.clone(), empty_like(col)));
        }
        for (name, col) in other.names().iter().zip((0..other.arity()).map(|i| other.column_at(i)))
        {
            cols.push((format!("{prefix}{name}"), empty_like(col)));
        }

        for lrow in 0..self.len() {
            let key: Vec<Value> =
                left_keys.iter().map(|&k| self.column_at(k).value(lrow)).collect();
            if let Some(matches) = index.get(&key) {
                for &rrow in matches {
                    for (i, (_, col)) in cols.iter_mut().enumerate().take(self.arity()) {
                        push_from(col, self.column_at(i), lrow);
                    }
                    for (j, (_, col)) in cols.iter_mut().enumerate().skip(self.arity()) {
                        push_from(col, other.column_at(j - self.arity()), rrow);
                    }
                }
            }
        }
        let refs: Vec<(&str, ColumnData)> =
            cols.into_iter().map(|(n, c)| (leak_name(n), c)).collect();
        Relation::new(refs)
    }

    /// `SELECT keys..., aggs... FROM self GROUP BY keys...`.
    pub fn group_by(&self, keys: &[&str], aggs: &[Aggregate]) -> Result<Relation, RelError> {
        let key_idx: Vec<usize> =
            keys.iter().map(|&k| self.column_index(k)).collect::<Result<_, _>>()?;
        let sum_idx: Vec<Option<usize>> = aggs
            .iter()
            .map(|a| match a {
                Aggregate::CountStar { .. } => Ok(None),
                Aggregate::SumInt { column, .. } => {
                    let idx = self.column_index(column)?;
                    match self.column_at(idx) {
                        ColumnData::Int(_) => Ok(Some(idx)),
                        ColumnData::Text(_) => {
                            Err(RelError::TypeMismatch { op: "SUM", column: column.clone() })
                        }
                    }
                }
            })
            .collect::<Result<_, _>>()?;

        // group key -> (representative row, accumulator per aggregate)
        let mut groups: FxHashMap<Vec<Value>, (usize, Vec<i64>)> = FxHashMap::default();
        let mut order: Vec<Vec<Value>> = Vec::new();
        for row in 0..self.len() {
            let key: Vec<Value> = key_idx.iter().map(|&k| self.column_at(k).value(row)).collect();
            let entry = groups.entry(key.clone()).or_insert_with(|| {
                order.push(key);
                (row, vec![0i64; aggs.len()])
            });
            for (acc, src) in entry.1.iter_mut().zip(&sum_idx) {
                match src {
                    None => *acc += 1,
                    Some(idx) => match self.column_at(*idx) {
                        ColumnData::Int(v) => *acc += v[row],
                        ColumnData::Text(_) => unreachable!("validated above"),
                    },
                }
            }
        }

        // Assemble output columns: group keys then aggregates.
        let mut cols: Vec<(String, ColumnData)> = Vec::new();
        for (&ki, &kname) in key_idx.iter().zip(keys) {
            cols.push((kname.to_string(), empty_like(self.column_at(ki))));
        }
        for a in aggs {
            let alias = match a {
                Aggregate::CountStar { alias } | Aggregate::SumInt { alias, .. } => alias.clone(),
            };
            cols.push((alias, ColumnData::Int(Vec::new())));
        }
        for key in &order {
            let (rep, accs) = &groups[key];
            for (i, (_, col)) in cols.iter_mut().enumerate().take(key_idx.len()) {
                push_from(col, self.column_at(key_idx[i]), *rep);
            }
            for (j, (_, col)) in cols.iter_mut().enumerate().skip(key_idx.len()) {
                match col {
                    ColumnData::Int(v) => v.push(accs[j - key_idx.len()]),
                    ColumnData::Text(_) => unreachable!("aggregates are Int"),
                }
            }
        }
        let refs: Vec<(&str, ColumnData)> =
            cols.into_iter().map(|(n, c)| (leak_name(n), c)).collect();
        Relation::new(refs)
    }
}

fn empty_like(c: &ColumnData) -> ColumnData {
    match c {
        ColumnData::Int(_) => ColumnData::Int(Vec::new()),
        ColumnData::Text(_) => ColumnData::Text(Vec::new()),
    }
}

fn push_from(dst: &mut ColumnData, src: &ColumnData, row: usize) {
    match (dst, src) {
        (ColumnData::Int(d), ColumnData::Int(s)) => d.push(s[row]),
        (ColumnData::Text(d), ColumnData::Text(s)) => d.push(s[row].clone()),
        _ => unreachable!("columns are created type-consistent"),
    }
}

// `Relation::new` borrows names; keep construction simple by leaking the
// handful of short-lived output names. Bounded by query text, not data.
fn leak_name(n: String) -> &'static str {
    Box::leak(n.into_boxed_str())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(v: &[i64]) -> ColumnData {
        ColumnData::Int(v.to_vec())
    }

    fn texts(v: &[&str]) -> ColumnData {
        ColumnData::Text(v.iter().map(|s| s.to_string()).collect())
    }

    fn patients_sz() -> Relation {
        Relation::new(vec![
            ("sex", texts(&["M", "F", "M", "M", "F", "F"])),
            ("zip", texts(&["53715", "53715", "53703", "53703", "53706", "53706"])),
        ])
        .unwrap()
    }

    #[test]
    fn project_and_rename() {
        let r = patients_sz();
        let p = r.project(&[("zip", "zipcode")]).unwrap();
        assert_eq!(p.names(), ["zipcode"]);
        assert_eq!(p.len(), 6);
        assert!(r.project(&[("nope", "x")]).is_err());
    }

    #[test]
    fn filter_variants() {
        let r = patients_sz();
        let m = r.filter_eq("sex", &Value::Text("M".into())).unwrap();
        assert_eq!(m.len(), 3);
        let idx = r.column_index("zip").unwrap();
        let z = r.filter(|rel, row| {
            matches!(rel.column_at(idx).value(row), Value::Text(t) if t.starts_with("5370"))
        });
        assert_eq!(z.len(), 4);
    }

    #[test]
    fn group_by_count_matches_sql_example() {
        // §1.1's example query: SELECT COUNT(*) FROM Patients GROUP BY
        // Sex, Zipcode — a group of size 1 exists, so not 2-anonymous.
        let r = patients_sz();
        let g = r.group_by(&["sex", "zip"], &[Aggregate::count("cnt")]).unwrap().sorted();
        assert_eq!(g.len(), 4);
        let counts: Vec<Value> = (0..4).map(|i| g.value(i, "cnt").unwrap()).collect();
        assert!(counts.contains(&Value::Int(1)));
        let min = counts
            .iter()
            .map(|v| match v {
                Value::Int(i) => *i,
                Value::Text(_) => unreachable!(),
            })
            .min()
            .unwrap();
        assert_eq!(min, 1);
    }

    #[test]
    fn group_by_sum_rolls_up() {
        // SUM(count) GROUP BY — the Rollup Property query.
        let freq = Relation::new(vec![
            ("zip", texts(&["53715", "53715", "53703", "53706"])),
            ("sex", texts(&["M", "F", "M", "F"])),
            ("count", ints(&[1, 1, 2, 2])),
        ])
        .unwrap();
        let rolled = freq.group_by(&["zip"], &[Aggregate::sum("count", "count")]).unwrap().sorted();
        assert_eq!(rolled.len(), 3);
        assert_eq!(rolled.value(2, "count").unwrap(), Value::Int(2)); // 53715 = 1+1
        assert!(freq.group_by(&["zip"], &[Aggregate::sum("sex", "s")]).is_err());
    }

    #[test]
    fn hash_join_inner() {
        let dim = Relation::new(vec![
            ("zip", texts(&["53715", "53703", "53706"])),
            ("zip1", texts(&["5371*", "5370*", "5370*"])),
        ])
        .unwrap();
        let joined = patients_sz().join(&dim, &[("zip", "zip")], "d_").unwrap();
        assert_eq!(joined.len(), 6);
        assert_eq!(joined.names(), ["sex", "zip", "d_zip", "d_zip1"]);
        // Generalized grouping through the dimension table:
        let g = joined.group_by(&["sex", "d_zip1"], &[Aggregate::count("cnt")]).unwrap().sorted();
        assert_eq!(g.len(), 4); // (F,5370*) (F,5371*) (M,5370*) (M,5371*)
                                // Missing key on either side yields an error.
        assert!(patients_sz().join(&dim, &[("zip", "nope")], "d_").is_err());
    }

    #[test]
    fn join_drops_unmatched() {
        let left = Relation::new(vec![("k", ints(&[1, 2, 3]))]).unwrap();
        let right = Relation::new(vec![("k", ints(&[2, 2, 4]))]).unwrap();
        let j = left.join(&right, &[("k", "k")], "r_").unwrap();
        assert_eq!(j.len(), 2); // 2 matches twice, 1/3/4 unmatched
    }

    #[test]
    fn group_by_empty_input() {
        let r = Relation::new(vec![("x", ints(&[]))]).unwrap();
        let g = r.group_by(&["x"], &[Aggregate::count("c")]).unwrap();
        assert_eq!(g.len(), 0);
    }
}
