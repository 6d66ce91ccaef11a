use std::sync::{Arc, OnceLock};

use incognito_hierarchy::{LevelNo, ValueId};

use crate::freq::{
    blocks, CodeKernel, FrequencySet, GroupKey, GroupSpec, KeySpace, MAX_KEY_ATTRS, SCAN_BLOCK_ROWS,
};
use crate::schema::Schema;
use crate::TableError;

/// An in-memory, dictionary-encoded, column-oriented relation (a multiset of
/// tuples, per the paper's definitions in §1.1).
///
/// Every cell stores the `u32` ground id of its value in the attribute's
/// hierarchy dictionary. This is the substrate on which frequency sets —
/// `SELECT COUNT(*) ... GROUP BY ...` in the paper's DB2 implementation —
/// are computed.
///
/// Scans also read *level columns*: for an attribute level above ground
/// with 2–256 values, the column's ids mapped through γ to that level,
/// one byte per row — the star schema's dimension join done once per
/// table instead of once per scan. Each is built on first use and
/// dropped when a row is appended.
#[derive(Debug, Clone)]
pub struct Table {
    schema: Arc<Schema>,
    /// One column per attribute; all columns have equal length.
    columns: Vec<Vec<ValueId>>,
    /// `level_columns[a][l - 1]`: attribute `a`'s level-`l` column, once
    /// built (see [`Table::level_column`]).
    level_columns: Vec<Vec<OnceLock<Box<[u8]>>>>,
}

/// Most values a level may have to get a byte column.
const LEVEL_COLUMN_MAX_VALUES: usize = 1 << u8::BITS;

/// One empty level-column slot per level above ground of every attribute.
fn no_level_columns(schema: &Schema) -> Vec<Vec<OnceLock<Box<[u8]>>>> {
    (0..schema.arity())
        .map(|a| (0..schema.hierarchy(a).height()).map(|_| OnceLock::new()).collect())
        .collect()
}

impl Table {
    /// Create an empty table over `schema`.
    pub fn empty(schema: Arc<Schema>) -> Self {
        let columns = (0..schema.arity()).map(|_| Vec::new()).collect();
        let level_columns = no_level_columns(&schema);
        Table { schema, columns, level_columns }
    }

    /// Build a table from pre-encoded columns.
    ///
    /// All columns must have the same length and every id must lie within
    /// its attribute's ground domain.
    pub fn from_columns(
        schema: Arc<Schema>,
        columns: Vec<Vec<ValueId>>,
    ) -> Result<Self, TableError> {
        if columns.len() != schema.arity() {
            return Err(TableError::RowArity { expected: schema.arity(), actual: columns.len() });
        }
        let nrows = columns.first().map_or(0, Vec::len);
        for (i, col) in columns.iter().enumerate() {
            if col.len() != nrows {
                return Err(TableError::RowArity { expected: nrows, actual: col.len() });
            }
            let domain = schema.hierarchy(i).ground_size();
            if let Some(&bad) = col.iter().find(|&&id| id as usize >= domain) {
                return Err(TableError::IdOutOfRange {
                    attribute: schema.attribute(i).name().to_string(),
                    id: bad,
                    domain,
                });
            }
        }
        incognito_obs::incr("table.build.count");
        incognito_obs::add("table.build.rows", nrows as u64);
        let dict: usize = (0..schema.arity()).map(|i| schema.hierarchy(i).ground_size()).sum();
        incognito_obs::add("table.build.dict_values", dict as u64);
        let level_columns = no_level_columns(&schema);
        Ok(Table { schema, columns, level_columns })
    }

    /// Append a row given as labels, resolving each against the attribute's
    /// ground dictionary.
    pub fn push_row(&mut self, fields: &[&str]) -> Result<(), TableError> {
        if fields.len() != self.schema.arity() {
            return Err(TableError::RowArity {
                expected: self.schema.arity(),
                actual: fields.len(),
            });
        }
        // Resolve every field before mutating any column so a failed push
        // leaves the table unchanged.
        let mut ids = Vec::with_capacity(fields.len());
        for (i, field) in fields.iter().enumerate() {
            let h = self.schema.hierarchy(i);
            let id = h.ground_id(field).ok_or_else(|| TableError::UnknownValue {
                attribute: self.schema.attribute(i).name().to_string(),
                value: field.to_string(),
            })?;
            ids.push(id);
        }
        for (col, id) in self.columns.iter_mut().zip(ids) {
            col.push(id);
        }
        self.drop_level_columns();
        Ok(())
    }

    /// Append a row of pre-encoded ids.
    pub fn push_ids(&mut self, ids: &[ValueId]) -> Result<(), TableError> {
        if ids.len() != self.schema.arity() {
            return Err(TableError::RowArity { expected: self.schema.arity(), actual: ids.len() });
        }
        for (i, &id) in ids.iter().enumerate() {
            let domain = self.schema.hierarchy(i).ground_size();
            if id as usize >= domain {
                return Err(TableError::IdOutOfRange {
                    attribute: self.schema.attribute(i).name().to_string(),
                    id,
                    domain,
                });
            }
        }
        for (col, &id) in self.columns.iter_mut().zip(ids) {
            col.push(id);
        }
        self.drop_level_columns();
        Ok(())
    }

    /// Forget every built level column: they no longer cover every row.
    fn drop_level_columns(&mut self) {
        for column in self.level_columns.iter_mut().flatten() {
            column.take();
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of tuples.
    pub fn num_rows(&self) -> usize {
        self.columns.first().map_or(0, Vec::len)
    }

    /// Encoded column for attribute `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is out of range.
    pub fn column(&self, idx: usize) -> &[ValueId] {
        &self.columns[idx]
    }

    /// Attribute `attr`'s ids at `level`, one byte per row, when the level
    /// is above ground and has 2–256 values; `None` otherwise. Built on
    /// first use (counted in `table.level_columns.{count,bytes}`) and
    /// kept until a row is appended.
    ///
    /// # Panics
    /// Panics if `attr` or `level` is out of range.
    pub(crate) fn level_column(&self, attr: usize, level: LevelNo) -> Option<&[u8]> {
        let h = self.schema.hierarchy(attr);
        if level == 0 || !(2..=LEVEL_COLUMN_MAX_VALUES).contains(&h.level_size(level)) {
            return None;
        }
        let column = self.level_columns[attr][level as usize - 1].get_or_init(|| {
            let map = h.map_to_level(level);
            let column: Box<[u8]> =
                self.columns[attr].iter().map(|&v| map[v as usize] as u8).collect();
            incognito_obs::incr("table.level_columns.count");
            incognito_obs::add("table.level_columns.bytes", column.len() as u64);
            column
        });
        Some(column)
    }

    /// Decode cell `(row, attr)` to its ground label.
    pub fn label(&self, row: usize, attr: usize) -> &str {
        self.schema.hierarchy(attr).label(0, self.columns[attr][row])
    }

    /// Compute the frequency set of this table with respect to `spec` — the
    /// `SELECT COUNT(*) GROUP BY` of §1.1, where each grouped attribute is
    /// first generalized to the level given in the spec (the star-schema join
    /// + projection of Figure 4). One full scan of the involved columns.
    pub fn frequency_set(&self, spec: &GroupSpec) -> Result<FrequencySet, TableError> {
        spec.validate(&self.schema)?;
        Ok(FrequencySet::scan(self, spec, 1))
    }

    /// Like [`Table::frequency_set`], sharding the scan's rows over up to
    /// `threads` tasks on the shared executor (`incognito_exec::shared`;
    /// counts merge associatively, so the result is identical). Falls back
    /// to the serial scan for small tables or `threads <= 1`.
    pub fn frequency_set_parallel(
        &self,
        spec: &GroupSpec,
        threads: usize,
    ) -> Result<FrequencySet, TableError> {
        spec.validate(&self.schema)?;
        Ok(FrequencySet::scan(self, spec, threads))
    }

    /// Convenience: is this table k-anonymous with respect to the given
    /// attributes at the given levels (no suppression)?
    pub fn is_k_anonymous(&self, spec: &GroupSpec, k: u64) -> Result<bool, TableError> {
        Ok(self.frequency_set(spec)?.is_k_anonymous(k))
    }

    /// Materialize the full-domain generalization of this table defined by
    /// `levels` (one level per attribute, `levels.len() == arity`): every
    /// value of attribute `i` is replaced by its γ⁺ image at `levels[i]`.
    ///
    /// The result is a new `Table` whose attribute dictionaries are the
    /// generalized domains (each with a height-0 hierarchy — the view is a
    /// release artifact, not a further-generalizable base table).
    pub fn generalize(&self, levels: &[LevelNo]) -> Result<Table, TableError> {
        self.generalize_with_suppression(levels, None).map(|(t, _)| t)
    }

    /// Which rows survive tuple suppression (§2.1) over `spec`: a row is
    /// kept when its group of `spec` holds at least `k` rows.
    pub fn suppression_keep_mask(&self, spec: &GroupSpec, k: u64) -> Result<Vec<bool>, TableError> {
        let freq = self.frequency_set(spec)?;
        let kernel = CodeKernel::new(self, spec, &KeySpace::for_spec(&self.schema, spec));
        let zero = GroupKey::from_slice(&[0; MAX_KEY_ATTRS][..spec.len()]);
        let mut keys = vec![zero; self.num_rows().min(SCAN_BLOCK_ROWS)];
        let mut keep = Vec::with_capacity(self.num_rows());
        for block in blocks(0..self.num_rows()) {
            let keys = &mut keys[..block.len()];
            kernel.keys(block, keys, |key| key);
            keep.extend(keys.iter().map(|key| freq.count(key) >= k));
        }
        Ok(keep)
    }

    /// Like [`Table::generalize`], but if `suppress` is `Some((k, qi))`,
    /// rows whose generalized value combination over the attributes `qi`
    /// occurs fewer than `k` times are removed entirely (the
    /// tuple-suppression extension of §2.1). Grouping for suppression is
    /// over `qi` only — sensitive attributes do not split groups.
    /// Returns the view plus the number of suppressed tuples.
    pub fn generalize_with_suppression(
        &self,
        levels: &[LevelNo],
        suppress: Option<(u64, &[usize])>,
    ) -> Result<(Table, u64), TableError> {
        let mut span = incognito_obs::span("table.generalize").arg("rows", self.num_rows() as u64);
        if levels.len() != self.schema.arity() {
            return Err(TableError::RowArity {
                expected: self.schema.arity(),
                actual: levels.len(),
            });
        }
        for (i, &l) in levels.iter().enumerate() {
            let h = self.schema.hierarchy(i);
            if l > h.height() {
                return Err(TableError::LevelOutOfRange {
                    attribute: self.schema.attribute(i).name().to_string(),
                    level: l,
                    height: h.height(),
                });
            }
        }

        // Build the output schema: one identity hierarchy per generalized domain.
        let mut attrs = Vec::with_capacity(self.schema.arity());
        for (i, &l) in levels.iter().enumerate() {
            let h = self.schema.hierarchy(i);
            let labels: Vec<&str> = h.level(l).labels().iter().map(String::as_str).collect();
            let ident = incognito_hierarchy::builders::identity(h.name(), &labels)
                .expect("level dictionaries are valid domains");
            attrs.push(crate::schema::Attribute::new(self.schema.attribute(i).name(), ident));
        }
        let out_schema = Schema::new(attrs)?;

        // Decide which rows survive suppression.
        let keep = match suppress {
            None => None,
            Some((k, qi)) => {
                let spec = GroupSpec::new(qi.iter().map(|&a| (a, levels[a])).collect())?;
                Some(self.suppression_keep_mask(&spec, k)?)
            }
        };

        let mut out_cols: Vec<Vec<ValueId>> = Vec::with_capacity(self.schema.arity());
        for (i, col) in self.columns.iter().enumerate() {
            let map = self.schema.hierarchy(i).map_to_level(levels[i]);
            let out: Vec<ValueId> = match &keep {
                None => col.iter().map(|&v| map[v as usize]).collect(),
                Some(keep) => col
                    .iter()
                    .zip(keep)
                    .filter(|&(_, &kf)| kf)
                    .map(|(&v, _)| map[v as usize])
                    .collect(),
            };
            out_cols.push(out);
        }
        let suppressed = self.num_rows() as u64 - out_cols.first().map_or(0, |c| c.len() as u64);
        let table = Table::from_columns(out_schema, out_cols)?;
        incognito_obs::incr("table.generalize.count");
        incognito_obs::add("table.generalize.rows_suppressed", suppressed);
        span.set_arg("suppressed", suppressed);
        Ok((table, suppressed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Attribute;
    use incognito_hierarchy::builders;

    /// The Patients table of Figure 1, restricted to ⟨Sex, Zipcode⟩.
    fn patients_sz() -> Table {
        let schema = Schema::new(vec![
            Attribute::new("Sex", builders::suppression("Sex", &["Male", "Female"]).unwrap()),
            Attribute::new(
                "Zipcode",
                builders::round_digits("Zipcode", &["53715", "53710", "53706", "53703"], 2)
                    .unwrap(),
            ),
        ])
        .unwrap();
        let mut t = Table::empty(schema);
        for row in [
            ["Male", "53715"],
            ["Female", "53715"],
            ["Male", "53703"],
            ["Male", "53703"],
            ["Female", "53706"],
            ["Female", "53706"],
        ] {
            t.push_row(&row).unwrap();
        }
        t
    }

    #[test]
    fn push_and_decode() {
        let t = patients_sz();
        assert_eq!(t.num_rows(), 6);
        assert_eq!(t.label(0, 0), "Male");
        assert_eq!(t.label(1, 1), "53715");
        assert_eq!(t.column(0).len(), 6);
    }

    #[test]
    fn push_row_errors_are_atomic() {
        let mut t = patients_sz();
        let err = t.push_row(&["Male", "99999"]).unwrap_err();
        assert!(matches!(err, TableError::UnknownValue { .. }));
        assert_eq!(t.num_rows(), 6);
        assert_eq!(t.column(0).len(), t.column(1).len());
        let err = t.push_row(&["Male"]).unwrap_err();
        assert!(matches!(err, TableError::RowArity { .. }));
    }

    #[test]
    fn from_columns_validates() {
        let schema = patients_sz().schema.clone();
        assert!(Table::from_columns(schema.clone(), vec![vec![0], vec![0, 1]]).is_err());
        assert!(Table::from_columns(schema.clone(), vec![vec![9], vec![0]]).is_err());
        assert!(Table::from_columns(schema, vec![vec![1], vec![3]]).is_ok());
    }

    #[test]
    fn k_anonymity_of_patients_example() {
        // §1.1: Patients is NOT 2-anonymous w.r.t. ⟨Sex, Zipcode⟩ ...
        let t = patients_sz();
        let spec0 = GroupSpec::new(vec![(0, 0), (1, 0)]).unwrap();
        assert!(!t.is_k_anonymous(&spec0, 2).unwrap());
        // ... but IS 2-anonymous w.r.t. ⟨S1, Z0⟩ (Example 3.1).
        let spec_s1 = GroupSpec::new(vec![(0, 1), (1, 0)]).unwrap();
        assert!(t.is_k_anonymous(&spec_s1, 2).unwrap());
        // And w.r.t. ⟨S0⟩ alone.
        let spec_s0 = GroupSpec::new(vec![(0, 0)]).unwrap();
        assert!(t.is_k_anonymous(&spec_s0, 2).unwrap());
    }

    #[test]
    fn generalize_materializes_view() {
        let t = patients_sz();
        let v = t.generalize(&[1, 0]).unwrap();
        assert_eq!(v.num_rows(), 6);
        assert_eq!(v.label(0, 0), "*");
        assert_eq!(v.label(0, 1), "53715");
        // The view is 2-anonymous at its own ground level.
        let spec = GroupSpec::new(vec![(0, 0), (1, 0)]).unwrap();
        assert!(v.is_k_anonymous(&spec, 2).unwrap());
    }

    #[test]
    fn generalize_rejects_bad_levels() {
        let t = patients_sz();
        assert!(matches!(t.generalize(&[2, 0]).unwrap_err(), TableError::LevelOutOfRange { .. }));
        assert!(matches!(t.generalize(&[0]).unwrap_err(), TableError::RowArity { .. }));
    }

    #[test]
    fn suppression_removes_small_groups() {
        let t = patients_sz();
        // At ground level: (M,53715)=1, (F,53715)=1, (M,53703)=2, (F,53706)=2.
        let (v, suppressed) = t.generalize_with_suppression(&[0, 0], Some((2, &[0, 1]))).unwrap();
        assert_eq!(suppressed, 2);
        assert_eq!(v.num_rows(), 4);
        let spec = GroupSpec::new(vec![(0, 0), (1, 0)]).unwrap();
        assert!(v.is_k_anonymous(&spec, 2).unwrap());
        // No suppression requested: nothing removed.
        let (v, suppressed) = t.generalize_with_suppression(&[0, 0], None).unwrap();
        assert_eq!(suppressed, 0);
        assert_eq!(v.num_rows(), 6);
        // Grouping only over attribute 1 (Zipcode): all zip groups have
        // ≥ 1... zip counts are 2/2/2 except 53715 twice → nothing below 2.
        let (v, suppressed) = t.generalize_with_suppression(&[0, 0], Some((2, &[1]))).unwrap();
        assert_eq!(suppressed, 0);
        assert_eq!(v.num_rows(), 6);
        // Rows over more than two 2,048-row blocks, grouped at mixed
        // levels (`b` at level 1 has one value): against a brute-force
        // count of each row's group.
        let t = crate::freq::tests::mid_table(4_173);
        for (levels, qi, k) in [([1, 1, 0], vec![0, 1, 2], 3), ([1, 0, 1], vec![0, 2], 52)] {
            let key = |row: usize| -> Vec<u32> {
                let map = |a: usize| t.schema().hierarchy(a).map_to_level(levels[a]);
                qi.iter().map(|&a| map(a)[t.column(a)[row] as usize]).collect()
            };
            let mut counts = std::collections::HashMap::new();
            (0..t.num_rows()).for_each(|row| *counts.entry(key(row)).or_insert(0u64) += 1);
            let below = (0..t.num_rows()).filter(|&row| counts[&key(row)] < k).count() as u64;
            let (v, suppressed) = t.generalize_with_suppression(&levels, Some((k, &qi))).unwrap();
            assert!(below > 0 && below < t.num_rows() as u64, "{levels:?}");
            assert_eq!((suppressed, v.num_rows() as u64), (below, t.num_rows() as u64 - below));
        }
    }

    #[test]
    fn empty_table_is_trivially_anonymous() {
        let t = Table::empty(patients_sz().schema.clone());
        let spec = GroupSpec::new(vec![(0, 0), (1, 0)]).unwrap();
        assert!(t.is_k_anonymous(&spec, 2).unwrap());
        let v = t.generalize(&[1, 2]).unwrap();
        assert_eq!(v.num_rows(), 0);
    }
}
