//! Candidate graphs as relations (Figure 6) and the §3.1.2 SQL statements.
//!
//! A nodes relation for iteration `i` has columns
//! `ID, dim1, index1, …, dimi, indexi, parent1, parent2` (dims are
//! attribute indices; the paper displays them as names). An edges relation
//! has `start, end`. The **join phase** is the paper's self-join over
//! `Sᵢ₋₁`; the **prune phase** removes candidates with subsets missing
//! from `Sᵢ₋₁` (done with a hash structure outside SQL, as in the paper);
//! **edge generation** is the `CandidateEdges … EXCEPT` statement,
//! expressed as three joins, a union, and a set difference.

use incognito_hierarchy::LevelNo;
use incognito_rel::{ColumnData, Relation, Value};
use incognito_table::fxhash::FxHashSet;

use crate::schema::relation_from_owned;
use crate::StarError;

/// Column name helpers for the Figure 6 layout.
fn dim_col(pos: usize) -> String {
    format!("dim{}", pos + 1)
}

fn index_col(pos: usize) -> String {
    format!("index{}", pos + 1)
}

/// Read an Int column cell as i64.
fn int_at(rel: &Relation, row: usize, col: &str) -> i64 {
    match rel.value(row, col).expect("known column") {
        Value::Int(v) => v,
        Value::Text(_) => unreachable!("column is Int by construction"),
    }
}

/// Extract node `row`'s `(attr, level)` parts from a nodes relation of
/// arity `i`.
pub fn parts_of(nodes: &Relation, row: usize, arity: usize) -> Vec<(usize, LevelNo)> {
    (0..arity)
        .map(|p| {
            (int_at(nodes, row, &dim_col(p)) as usize, int_at(nodes, row, &index_col(p)) as LevelNo)
        })
        .collect()
}

/// The id of node `row`.
pub fn id_of(nodes: &Relation, row: usize) -> i64 {
    int_at(nodes, row, "ID")
}

/// Build `C₁`/`E₁` relations from the hierarchies of the sorted `qi`.
pub fn initial_relations(heights: &[(usize, LevelNo)]) -> Result<(Relation, Relation), StarError> {
    let (mut ids, mut dims, mut indexes) = (Vec::new(), Vec::new(), Vec::new());
    let (mut starts, mut ends) = (Vec::new(), Vec::new());
    let mut next_id = 0i64;
    for &(attr, h) in heights {
        for l in 0..=h {
            ids.push(next_id);
            dims.push(attr as i64);
            indexes.push(l as i64);
            if l > 0 {
                starts.push(next_id - 1);
                ends.push(next_id);
            }
            next_id += 1;
        }
    }
    let nodes = relation_from_owned(vec![
        ("ID".to_string(), ColumnData::Int(ids)),
        (dim_col(0), ColumnData::Int(dims)),
        (index_col(0), ColumnData::Int(indexes)),
        ("parent1".to_string(), ColumnData::Int(vec![-1; next_id as usize])),
        ("parent2".to_string(), ColumnData::Int(vec![-1; next_id as usize])),
    ])?;
    let edges = relation_from_owned(vec![
        ("start".to_string(), ColumnData::Int(starts)),
        ("end".to_string(), ColumnData::Int(ends)),
    ])?;
    Ok((nodes, edges))
}

/// The **join phase** (§3.1.2's first SQL statement): self-join the
/// survivor relation `s_prev` (arity `i-1`) on its first `i-2` dim/index
/// pairs with `p.dim_{i-1} < q.dim_{i-1}`, producing the candidate nodes
/// of arity `i` with fresh IDs and parent references.
pub fn join_phase(s_prev: &Relation, prev_arity: usize) -> Result<Relation, StarError> {
    // Equality keys: dim1..dim_{i-2}, index1..index_{i-2}.
    let mut key_names: Vec<String> = Vec::new();
    for p in 0..prev_arity.saturating_sub(1) {
        key_names.push(dim_col(p));
        key_names.push(index_col(p));
    }
    let on: Vec<(&str, &str)> = key_names.iter().map(|k| (k.as_str(), k.as_str())).collect();
    let joined = s_prev.join(s_prev, &on, "q_")?;

    // WHERE p.dim_{i-1} < q.dim_{i-1}.
    let last_dim = dim_col(prev_arity - 1);
    let p_idx = joined.column_index(&last_dim)?;
    let q_idx = joined.column_index(&format!("q_{last_dim}"))?;
    let filtered = joined.filter(|r, row| {
        let p = match r.column_at(p_idx).value(row) {
            Value::Int(v) => v,
            Value::Text(_) => unreachable!(),
        };
        let q = match r.column_at(q_idx).value(row) {
            Value::Int(v) => v,
            Value::Text(_) => unreachable!(),
        };
        p < q
    });

    // SELECT p.dims…, q.dim_{i-1}, q.index_{i-1}, p.ID, q.ID with fresh IDs.
    let arity = prev_arity + 1;
    let mut cols: Vec<(String, ColumnData)> = Vec::new();
    cols.push(("ID".to_string(), ColumnData::Int((0..filtered.len() as i64).collect())));
    for p in 0..arity {
        let (src_dim, src_idx) = if p < prev_arity {
            (dim_col(p), index_col(p))
        } else {
            (format!("q_{}", dim_col(prev_arity - 1)), format!("q_{}", index_col(prev_arity - 1)))
        };
        let dim_data = filtered.column(&src_dim)?.clone();
        let idx_data = filtered.column(&src_idx)?.clone();
        cols.push((dim_col(p), dim_data));
        cols.push((index_col(p), idx_data));
    }
    cols.push(("parent1".to_string(), filtered.column("ID")?.clone()));
    cols.push(("parent2".to_string(), filtered.column("q_ID")?.clone()));
    relation_from_owned(cols)
}

/// The **prune phase**: drop candidates having any `(i-1)`-subset absent
/// from the survivor set (hash-set membership, as the paper's hash tree).
/// IDs are re-assigned densely afterwards.
pub fn prune_phase(
    candidates: &Relation,
    s_prev: &Relation,
    prev_arity: usize,
) -> Result<Relation, StarError> {
    let arity = prev_arity + 1;
    let survivors: FxHashSet<Vec<(usize, LevelNo)>> =
        (0..s_prev.len()).map(|row| parts_of(s_prev, row, prev_arity)).collect();
    let mut keep_rows: Vec<usize> = Vec::new();
    'rows: for row in 0..candidates.len() {
        let parts = parts_of(candidates, row, arity);
        for drop in 0..arity {
            let subset: Vec<(usize, LevelNo)> =
                parts.iter().enumerate().filter(|&(j, _)| j != drop).map(|(_, &x)| x).collect();
            if !survivors.contains(&subset) {
                continue 'rows;
            }
        }
        keep_rows.push(row);
    }

    // Rebuild with dense IDs, preserving parents.
    let mut cols: Vec<(String, ColumnData)> = Vec::new();
    cols.push(("ID".to_string(), ColumnData::Int((0..keep_rows.len() as i64).collect())));
    for p in 0..arity {
        for name in [dim_col(p), index_col(p)] {
            let src = candidates.column(&name)?;
            let data: Vec<i64> = keep_rows
                .iter()
                .map(|&r| match src.value(r) {
                    Value::Int(v) => v,
                    Value::Text(_) => unreachable!(),
                })
                .collect();
            cols.push((name, ColumnData::Int(data)));
        }
    }
    for name in ["parent1", "parent2"] {
        let src = candidates.column(name)?;
        let data: Vec<i64> = keep_rows
            .iter()
            .map(|&r| match src.value(r) {
                Value::Int(v) => v,
                Value::Text(_) => unreachable!(),
            })
            .collect();
        cols.push((name.to_string(), ColumnData::Int(data)));
    }
    relation_from_owned(cols)
}

/// **Edge generation** — the paper's second SQL statement, verbatim in
/// relational algebra:
///
/// ```sql
/// WITH CandidateEdges (start, end) AS (
///   SELECT p.ID, q.ID FROM Ci p, Ci q, Ei-1 e, Ei-1 f
///   WHERE (e.start = p.parent1 ∧ e.end = q.parent1
///          ∧ f.start = p.parent2 ∧ f.end = q.parent2)
///      ∨ (e.start = p.parent1 ∧ e.end = q.parent1 ∧ p.parent2 = q.parent2)
///      ∨ (e.start = p.parent2 ∧ e.end = q.parent2 ∧ p.parent1 = q.parent1)
/// )
/// SELECT D.start, D.end FROM CandidateEdges D
/// EXCEPT
/// SELECT D1.start, D2.end FROM CandidateEdges D1, CandidateEdges D2
/// WHERE D1.end = D2.start
/// ```
pub fn edge_generation(ci: &Relation, e_prev: &Relation) -> Result<Relation, StarError> {
    let pq = |left_parent: &str, right_parent: &str| -> Result<Relation, StarError> {
        // p JOIN e ON e.start = p.<left_parent> JOIN q ON q.<right_parent> = e.end
        let pe = ci.join(e_prev, &[(left_parent, "start")], "e_")?;
        let pq = pe.join(ci, &[("e_end", right_parent)], "q_")?;
        Ok(pq)
    };

    // Disjunct 1: parent1 edges AND parent2 edges.
    let d1 = {
        let base = pq("parent1", "parent1")?;
        // JOIN f ON f.start = p.parent2 AND f.end = q.parent2.
        let with_f = base.join(e_prev, &[("parent2", "start"), ("q_parent2", "end")], "f_")?;
        with_f.project(&[("ID", "start"), ("q_ID", "end")])?
    };
    // Disjunct 2: parent1 edge, equal parent2.
    let d2 = {
        let base = pq("parent1", "parent1")?;
        let idx_p = base.column_index("parent2")?;
        let idx_q = base.column_index("q_parent2")?;
        base.filter(|r, row| r.column_at(idx_p).value(row) == r.column_at(idx_q).value(row))
            .project(&[("ID", "start"), ("q_ID", "end")])?
    };
    // Disjunct 3: parent2 edge, equal parent1.
    let d3 = {
        let base = pq("parent2", "parent2")?;
        let idx_p = base.column_index("parent1")?;
        let idx_q = base.column_index("q_parent1")?;
        base.filter(|r, row| r.column_at(idx_p).value(row) == r.column_at(idx_q).value(row))
            .project(&[("ID", "start"), ("q_ID", "end")])?
    };
    let candidate_edges = d1.union_all(&d2)?.union_all(&d3)?.distinct();

    // EXCEPT: remove two-step-implied edges.
    let implied = candidate_edges
        .join(&candidate_edges, &[("end", "start")], "j_")?
        .project(&[("start", "start"), ("j_end", "end")])?;
    Ok(candidate_edges.except(&implied)?.sorted())
}

#[cfg(test)]
mod tests {
    use super::*;
    use incognito_lattice::{generate_next, CandidateGraph, PruneStrategy};
    use incognito_table::{Attribute, Schema};
    use std::sync::Arc;

    fn bsz_schema() -> Arc<Schema> {
        use incognito_hierarchy::builders;
        Schema::new(vec![
            Attribute::new(
                "Birthdate",
                builders::suppression("Birthdate", &["1/21/76", "2/28/76", "4/13/86"]).unwrap(),
            ),
            Attribute::new("Sex", builders::suppression("Sex", &["Male", "Female"]).unwrap()),
            Attribute::new(
                "Zipcode",
                builders::round_digits("Zipcode", &["53715", "53710", "53706", "53703"], 2)
                    .unwrap(),
            ),
        ])
        .unwrap()
    }

    fn node_specs(nodes: &Relation, arity: usize) -> Vec<Vec<(usize, LevelNo)>> {
        let mut v: Vec<_> = (0..nodes.len()).map(|r| parts_of(nodes, r, arity)).collect();
        v.sort();
        v
    }

    type Spec = Vec<(usize, LevelNo)>;

    fn edge_pairs(nodes: &Relation, edges: &Relation, arity: usize) -> Vec<(Spec, Spec)> {
        let by_id: std::collections::HashMap<i64, Vec<(usize, LevelNo)>> =
            (0..nodes.len()).map(|r| (id_of(nodes, r), parts_of(nodes, r, arity))).collect();
        let mut v: Vec<_> = (0..edges.len())
            .map(|r| {
                (by_id[&int_at(edges, r, "start")].clone(), by_id[&int_at(edges, r, "end")].clone())
            })
            .collect();
        v.sort();
        v
    }

    /// The SQL candidate generation must produce exactly the same graphs as
    /// the native implementation, iteration by iteration, including the
    /// Figure 7(a) case (everything alive).
    #[test]
    fn sql_candidate_generation_matches_native() {
        let schema = bsz_schema();
        let heights: Vec<(usize, LevelNo)> =
            (0..3).map(|a| (a, schema.hierarchy(a).height())).collect();

        // Native path.
        let c1 = CandidateGraph::initial(&schema, &[0, 1, 2]);
        let c2 = generate_next(&c1, &vec![true; c1.num_nodes()], PruneStrategy::HashTree);
        let c3 = generate_next(&c2, &vec![true; c2.num_nodes()], PruneStrategy::HashTree);

        // SQL path.
        let (n1, e1) = initial_relations(&heights).unwrap();
        let cand2 = join_phase(&n1, 1).unwrap();
        let n2 = prune_phase(&cand2, &n1, 1).unwrap();
        let e2 = edge_generation(&n2, &e1).unwrap();
        let cand3 = join_phase(&n2, 2).unwrap();
        let n3 = prune_phase(&cand3, &n2, 2).unwrap();
        let e3 = edge_generation(&n3, &e2).unwrap();

        // Node sets agree at every arity.
        let native2: Vec<_> = {
            let mut v: Vec<_> = c2.nodes().iter().map(|n| n.parts.clone()).collect();
            v.sort();
            v
        };
        assert_eq!(node_specs(&n2, 2), native2);
        let native3: Vec<_> = {
            let mut v: Vec<_> = c3.nodes().iter().map(|n| n.parts.clone()).collect();
            v.sort();
            v
        };
        assert_eq!(node_specs(&n3, 3), native3);

        // Edge sets agree (compared as spec pairs; IDs differ).
        let native_e = |g: &CandidateGraph| {
            let mut v: Vec<_> = g
                .edges()
                .iter()
                .map(|&(s, e)| (g.node(s).parts.clone(), g.node(e).parts.clone()))
                .collect();
            v.sort();
            v
        };
        assert_eq!(edge_pairs(&n2, &e2, 2), native_e(&c2));
        assert_eq!(edge_pairs(&n3, &e3, 3), native_e(&c3));
    }

    /// Pruning through the SQL path agrees with the native path on a
    /// partial survivor set.
    #[test]
    fn sql_prune_respects_survivors() {
        let schema = bsz_schema();
        let heights: Vec<(usize, LevelNo)> =
            (0..3).map(|a| (a, schema.hierarchy(a).height())).collect();
        let (n1, _e1) = initial_relations(&heights).unwrap();
        let cand2 = join_phase(&n1, 1).unwrap();
        let n2 = prune_phase(&cand2, &n1, 1).unwrap();

        // Kill every ⟨Sex, Zipcode⟩ candidate (dim pair (1, 2)).
        let keep =
            n2.filter(|r, row| !(int_at(r, row, "dim1") == 1 && int_at(r, row, "dim2") == 2));
        let cand3 = join_phase(&keep, 2).unwrap();
        let n3 = prune_phase(&cand3, &keep, 2).unwrap();
        assert_eq!(n3.len(), 0, "3-candidates need all 2-subsets alive");
    }
}
