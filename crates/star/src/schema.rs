use incognito_hierarchy::LevelNo;
use incognito_rel::{ColumnData, Relation};
use incognito_table::Table;

use crate::StarError;

/// The Figure 4 star schema: a fact relation holding the microdata's
/// quasi-identifier columns at ground level, plus one dimension relation
/// per attribute materializing its value generalization function at every
/// level.
///
/// Column naming: the fact relation's column for attribute `a` is
/// `a__0` (its ground labels); attribute `a`'s dimension relation has
/// columns `a__0, a__1, …, a__h` — one row per ground value, giving that
/// value's label at each level. Joining fact with a dimension on `a__0`
/// and projecting `a__l` is exactly the paper's "join T with the dimension
/// table of A and project A_l".
pub struct StarSchema {
    /// Quasi-identifier attribute indices (sorted), in fact-column order.
    qi: Vec<usize>,
    fact: Relation,
    /// One dimension per QI attribute, aligned with `qi`.
    dims: Vec<Relation>,
    /// Hierarchy heights, aligned with `qi`.
    heights: Vec<LevelNo>,
}

impl StarSchema {
    /// Materialize the star schema for `table` restricted to `qi`.
    pub fn build(table: &Table, qi: &[usize]) -> Result<StarSchema, StarError> {
        let mut sorted = qi.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let schema = table.schema();

        // Fact relation: ground labels of each QI column.
        let mut fact_cols: Vec<(String, ColumnData)> = Vec::new();
        for &a in &sorted {
            let h = schema.hierarchy(a);
            let labels: Vec<String> =
                table.column(a).iter().map(|&v| h.label(0, v).to_string()).collect();
            fact_cols.push((col_name(a, 0), ColumnData::Text(labels)));
        }
        let fact = relation_from_owned(fact_cols)?;

        // Dimension relations: one row per ground value, a column per level.
        let mut dims = Vec::with_capacity(sorted.len());
        let mut heights = Vec::with_capacity(sorted.len());
        for &a in &sorted {
            let h = schema.hierarchy(a);
            let mut cols: Vec<(String, ColumnData)> = Vec::new();
            for l in 0..=h.height() {
                let labels: Vec<String> = (0..h.ground_size() as u32)
                    .map(|g| h.label(l, h.generalize(g, l)).to_string())
                    .collect();
                cols.push((col_name(a, l), ColumnData::Text(labels)));
            }
            dims.push(relation_from_owned(cols)?);
            heights.push(h.height());
        }
        Ok(StarSchema { qi: sorted, fact, dims, heights })
    }

    /// The (sorted) quasi-identifier.
    pub fn qi(&self) -> &[usize] {
        &self.qi
    }

    /// The fact relation.
    pub fn fact(&self) -> &Relation {
        &self.fact
    }

    /// The dimension relation of attribute `attr` (a QI member).
    pub fn dim(&self, attr: usize) -> Option<&Relation> {
        self.qi.iter().position(|&a| a == attr).map(|p| &self.dims[p])
    }

    /// Hierarchy height of `attr`.
    pub fn height(&self, attr: usize) -> Option<LevelNo> {
        self.qi.iter().position(|&a| a == attr).map(|p| self.heights[p])
    }
}

///`attr__level` — the star schema's column naming convention.
pub(crate) fn col_name(attr: usize, level: LevelNo) -> String {
    format!("a{attr}__{level}")
}

pub(crate) fn relation_from_owned(cols: Vec<(String, ColumnData)>) -> Result<Relation, StarError> {
    let refs: Vec<(&str, ColumnData)> =
        cols.into_iter().map(|(n, c)| (Box::leak(n.into_boxed_str()) as &str, c)).collect();
    Ok(Relation::new(refs)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use incognito_data::patients;
    use incognito_rel::Value;

    #[test]
    fn star_schema_matches_figure4() {
        let t = patients();
        let star = StarSchema::build(&t, &[0, 1, 2]).unwrap();
        assert_eq!(star.qi(), &[0, 1, 2]);
        assert_eq!(star.fact().len(), 6);
        assert_eq!(star.fact().names().len(), 3);
        // Zipcode dimension: 4 ground values × 3 levels.
        let zd = star.dim(2).unwrap();
        assert_eq!(zd.len(), 4);
        assert_eq!(zd.names(), [col_name(2, 0), col_name(2, 1), col_name(2, 2)]);
        // 53715's row maps to 5371* then 537**.
        let row = (0..4)
            .find(|&r| zd.value(r, &col_name(2, 0)).unwrap() == Value::Text("53715".into()))
            .unwrap();
        assert_eq!(zd.value(row, &col_name(2, 1)).unwrap(), Value::Text("5371*".into()));
        assert_eq!(zd.value(row, &col_name(2, 2)).unwrap(), Value::Text("537**".into()));
        assert_eq!(star.height(2), Some(2));
        assert_eq!(star.height(1), Some(1));
        assert_eq!(star.dim(3), None); // Disease not in the QI
    }
}
