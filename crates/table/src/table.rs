use std::sync::Arc;

use incognito_hierarchy::{LevelNo, ValueId};

use crate::freq::{FrequencySet, GroupSpec};
use crate::schema::Schema;
use crate::TableError;

/// An in-memory, dictionary-encoded, column-oriented relation (a multiset of
/// tuples, per the paper's definitions in §1.1).
///
/// Every cell stores the `u32` ground id of its value in the attribute's
/// hierarchy dictionary. This is the substrate on which frequency sets —
/// `SELECT COUNT(*) ... GROUP BY ...` in the paper's DB2 implementation —
/// are computed.
#[derive(Debug, Clone)]
pub struct Table {
    schema: Arc<Schema>,
    /// One column per attribute; all columns have equal length.
    columns: Vec<Vec<ValueId>>,
}

impl Table {
    /// Create an empty table over `schema`.
    pub fn empty(schema: Arc<Schema>) -> Self {
        let columns = (0..schema.arity()).map(|_| Vec::new()).collect();
        Table { schema, columns }
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
        Ok(Table { schema, columns })
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
        Ok(())
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
        let mut span =
            incognito_obs::span("table.generalize").arg("rows", self.num_rows() as u64);
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
        let keep: Option<Vec<bool>> = match suppress {
            None => None,
            Some((k, qi)) => {
                let spec = GroupSpec::new(qi.iter().map(|&a| (a, levels[a])).collect())?;
                spec.validate(&self.schema)?;
                let freq = self.frequency_set(&spec)?;
                let mut keep = vec![true; self.num_rows()];
                let maps: Vec<&[ValueId]> = qi
                    .iter()
                    .map(|&a| self.schema.hierarchy(a).map_to_level(levels[a]))
                    .collect();
                for (row, flag) in keep.iter_mut().enumerate() {
                    let mut key = crate::freq::GroupKey::default();
                    for (&a, map) in qi.iter().zip(&maps) {
                        key.push(map[self.columns[a][row] as usize]);
                    }
                    if freq.count(&key) < k {
                        *flag = false;
                    }
                }
                Some(keep)
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
        let suppressed = self.num_rows() as u64
            - out_cols.first().map_or(0, |c| c.len() as u64);
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
        assert!(matches!(
            t.generalize(&[2, 0]).unwrap_err(),
            TableError::LevelOutOfRange { .. }
        ));
        assert!(matches!(t.generalize(&[0]).unwrap_err(), TableError::RowArity { .. }));
    }

    #[test]
    fn suppression_removes_small_groups() {
        let t = patients_sz();
        // At ground level: (M,53715)=1, (F,53715)=1, (M,53703)=2, (F,53706)=2.
        let (v, suppressed) =
            t.generalize_with_suppression(&[0, 0], Some((2, &[0, 1]))).unwrap();
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
        let (v, suppressed) =
            t.generalize_with_suppression(&[0, 0], Some((2, &[1]))).unwrap();
        assert_eq!(suppressed, 0);
        assert_eq!(v.num_rows(), 6);
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
