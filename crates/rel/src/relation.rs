use std::fmt;

use incognito_table::fxhash::FxHashMap;

use crate::RelError;

/// A single cell value.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// 64-bit integer (ids, counts, levels).
    Int(i64),
    /// Text (labels, dimension names).
    Text(String),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Text(t) => write!(f, "{t}"),
        }
    }
}

/// Columnar storage for one attribute of a relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnData {
    /// Integer column.
    Int(Vec<i64>),
    /// Text column.
    Text(Vec<String>),
}

impl ColumnData {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int(v) => v.len(),
            ColumnData::Text(v) => v.len(),
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at `row`.
    pub fn value(&self, row: usize) -> Value {
        match self {
            ColumnData::Int(v) => Value::Int(v[row]),
            ColumnData::Text(v) => Value::Text(v[row].clone()),
        }
    }

    fn empty_like(&self) -> ColumnData {
        match self {
            ColumnData::Int(_) => ColumnData::Int(Vec::new()),
            ColumnData::Text(_) => ColumnData::Text(Vec::new()),
        }
    }

    fn push_from(&mut self, src: &ColumnData, row: usize) {
        match (self, src) {
            (ColumnData::Int(dst), ColumnData::Int(s)) => dst.push(s[row]),
            (ColumnData::Text(dst), ColumnData::Text(s)) => dst.push(s[row].clone()),
            _ => unreachable!("columns are created type-consistent"),
        }
    }
}

/// A named-column relation with multiset semantics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relation {
    names: Vec<String>,
    columns: Vec<ColumnData>,
}

impl Relation {
    /// Build a relation from `(name, column)` pairs. Names must be unique
    /// and columns equally long.
    pub fn new(columns: Vec<(&str, ColumnData)>) -> Result<Relation, RelError> {
        let mut names = Vec::with_capacity(columns.len());
        let mut data = Vec::with_capacity(columns.len());
        let mut len: Option<usize> = None;
        for (name, col) in columns {
            if names.iter().any(|n| n == name) {
                return Err(RelError::DuplicateColumn(name.to_string()));
            }
            match len {
                None => len = Some(col.len()),
                Some(l) if l != col.len() => {
                    return Err(RelError::RaggedColumns { expected: l, actual: col.len() })
                }
                _ => {}
            }
            names.push(name.to_string());
            data.push(col);
        }
        Ok(Relation { names, columns: data })
    }

    /// An empty relation with the same schema as `self`.
    pub fn empty_like(&self) -> Relation {
        Relation {
            names: self.names.clone(),
            columns: self.columns.iter().map(ColumnData::empty_like).collect(),
        }
    }

    /// Column names, in order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.names.len()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.columns.first().map_or(0, ColumnData::len)
    }

    /// True when the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Index of column `name`.
    pub fn column_index(&self, name: &str) -> Result<usize, RelError> {
        self.names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| RelError::UnknownColumn(name.to_string()))
    }

    /// The column named `name`.
    pub fn column(&self, name: &str) -> Result<&ColumnData, RelError> {
        Ok(&self.columns[self.column_index(name)?])
    }

    /// The column at position `idx`.
    pub fn column_at(&self, idx: usize) -> &ColumnData {
        &self.columns[idx]
    }

    /// The cell at (`row`, `name`).
    pub fn value(&self, row: usize, name: &str) -> Result<Value, RelError> {
        Ok(self.column(name)?.value(row))
    }

    /// One whole row as values (for tests and display).
    pub fn row(&self, row: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.value(row)).collect()
    }

    /// Append `other`'s rows (SQL `UNION ALL`). Schemas must match by name
    /// and type.
    pub fn union_all(&self, other: &Relation) -> Result<Relation, RelError> {
        self.check_same_schema(other)?;
        let mut out = self.clone();
        for (dst, src) in out.columns.iter_mut().zip(&other.columns) {
            for row in 0..src.len() {
                dst.push_from(src, row);
            }
        }
        Ok(out)
    }

    /// SQL `EXCEPT` (set semantics): rows of `self` not present in
    /// `other`, deduplicated.
    pub fn except(&self, other: &Relation) -> Result<Relation, RelError> {
        self.check_same_schema(other)?;
        let mut exclude: FxHashMap<Vec<Value>, ()> = FxHashMap::default();
        for row in 0..other.len() {
            exclude.insert(other.row(row), ());
        }
        let mut seen: FxHashMap<Vec<Value>, ()> = FxHashMap::default();
        let mut out = self.empty_like();
        for row in 0..self.len() {
            let key = self.row(row);
            if exclude.contains_key(&key) || seen.insert(key, ()).is_some() {
                continue;
            }
            out.push_row_from(self, row);
        }
        Ok(out)
    }

    /// Deduplicate rows (SQL `SELECT DISTINCT *`).
    pub fn distinct(&self) -> Relation {
        let mut seen: FxHashMap<Vec<Value>, ()> = FxHashMap::default();
        let mut out = self.empty_like();
        for row in 0..self.len() {
            if seen.insert(self.row(row), ()).is_none() {
                out.push_row_from(self, row);
            }
        }
        out
    }

    /// Sort rows lexicographically by all columns (for deterministic
    /// output; SQL `ORDER BY *`).
    pub fn sorted(&self) -> Relation {
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.sort_by_key(|&a| self.row(a));
        let mut out = self.empty_like();
        for row in order {
            out.push_row_from(self, row);
        }
        out
    }

    pub(crate) fn push_row_from(&mut self, src: &Relation, row: usize) {
        for (dst, s) in self.columns.iter_mut().zip(&src.columns) {
            dst.push_from(s, row);
        }
    }

    pub(crate) fn check_same_schema(&self, other: &Relation) -> Result<(), RelError> {
        let type_of = |c: &ColumnData| matches!(c, ColumnData::Int(_));
        if self.names != other.names
            || self.columns.iter().zip(&other.columns).any(|(a, b)| type_of(a) != type_of(b))
        {
            return Err(RelError::SchemaMismatch {
                left: self.names.clone(),
                right: other.names.clone(),
            });
        }
        Ok(())
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.names.join(" | "))?;
        for row in 0..self.len() {
            let cells: Vec<String> = self.row(row).iter().map(Value::to_string).collect();
            writeln!(f, "{}", cells.join(" | "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn ints(v: &[i64]) -> ColumnData {
        ColumnData::Int(v.to_vec())
    }

    pub(crate) fn texts(v: &[&str]) -> ColumnData {
        ColumnData::Text(v.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn construction_and_accessors() {
        let r = Relation::new(vec![("id", ints(&[1, 2])), ("name", texts(&["a", "b"]))]).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.arity(), 2);
        assert_eq!(r.value(1, "name").unwrap(), Value::Text("b".into()));
        assert!(r.column("nope").is_err());
        assert!(Relation::new(vec![("x", ints(&[1])), ("x", ints(&[2]))]).is_err());
        assert!(Relation::new(vec![("x", ints(&[1])), ("y", ints(&[1, 2]))]).is_err());
    }

    #[test]
    fn union_all_keeps_duplicates() {
        let a = Relation::new(vec![("x", ints(&[1, 2]))]).unwrap();
        let b = Relation::new(vec![("x", ints(&[2, 3]))]).unwrap();
        let u = a.union_all(&b).unwrap();
        assert_eq!(u.len(), 4);
        let bad = Relation::new(vec![("y", ints(&[1]))]).unwrap();
        assert!(a.union_all(&bad).is_err());
    }

    #[test]
    fn except_is_set_difference() {
        let a = Relation::new(vec![("x", ints(&[1, 1, 2, 3]))]).unwrap();
        let b = Relation::new(vec![("x", ints(&[2]))]).unwrap();
        let d = a.except(&b).unwrap().sorted();
        assert_eq!(d.len(), 2); // {1, 3} — deduplicated, 2 removed
        assert_eq!(d.value(0, "x").unwrap(), Value::Int(1));
        assert_eq!(d.value(1, "x").unwrap(), Value::Int(3));
    }

    #[test]
    fn distinct_and_sorted() {
        let r = Relation::new(vec![("x", ints(&[3, 1, 3, 2]))]).unwrap();
        let d = r.distinct();
        assert_eq!(d.len(), 3);
        let s = d.sorted();
        assert_eq!(
            (0..3).map(|i| s.value(i, "x").unwrap()).collect::<Vec<_>>(),
            vec![Value::Int(1), Value::Int(2), Value::Int(3)]
        );
    }

    #[test]
    fn schema_mismatch_detects_types() {
        let a = Relation::new(vec![("x", ints(&[1]))]).unwrap();
        let b = Relation::new(vec![("x", texts(&["1"]))]).unwrap();
        assert!(a.union_all(&b).is_err());
        assert!(a.except(&b).is_err());
    }
}
