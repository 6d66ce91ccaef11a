//! Basic Incognito executed entirely through the relational engine — the
//! control flow of Figure 8 in Rust (as the paper's was in Java), with
//! every data operation a query over the star schema and the Figure 6
//! candidate relations.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use incognito_core::{AlgoError, Config};
use incognito_hierarchy::LevelNo;
use incognito_rel::Relation;
use incognito_table::fxhash::FxHashMap;
use incognito_table::Table;

use crate::candidate::{
    edge_generation, id_of, initial_relations, join_phase, parts_of, prune_phase,
};
use crate::freq::{frequency_set_sql, is_k_anonymous_sql, rollup_sql};
use crate::schema::StarSchema;
use crate::StarError;

/// Result of the SQL-path search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SqlSearchOutcome {
    /// The quasi-identifier, sorted ascending.
    pub qi: Vec<usize>,
    /// All k-anonymous full-domain generalizations (levels aligned with
    /// `qi`), sorted lexicographically.
    pub generalizations: Vec<Vec<LevelNo>>,
    /// Nodes whose k-anonymity was decided by running a query.
    pub nodes_checked: usize,
    /// Nodes decided by the generalization property.
    pub nodes_marked: usize,
    /// Frequency-set queries answered by `SUM(count)` rollups.
    pub rollup_queries: usize,
    /// Frequency-set queries answered by scanning the fact relation.
    pub scan_queries: usize,
}

/// Run Basic Incognito over the star schema. Produces exactly the same
/// generalization set as `incognito_core::incognito` (asserted by the test
/// suite), while exercising the paper's relational formulation.
pub fn incognito_sql(
    table: &Table,
    qi: &[usize],
    cfg: &Config,
) -> Result<SqlSearchOutcome, StarError> {
    // Workload validation mirroring the native engine.
    if qi.is_empty() {
        return Err(StarError::Algo(AlgoError::EmptyQuasiIdentifier));
    }
    if cfg.k == 0 {
        return Err(StarError::Algo(AlgoError::InvalidK(0)));
    }
    let mut sorted = qi.to_vec();
    sorted.sort_unstable();
    for w in sorted.windows(2) {
        if w[0] == w[1] {
            return Err(StarError::Algo(AlgoError::DuplicateQiAttribute(w[0])));
        }
    }
    if let Some(&bad) = sorted.iter().find(|&&a| a >= table.schema().arity()) {
        return Err(StarError::Table(incognito_table::TableError::AttributeOutOfRange {
            index: bad,
            arity: table.schema().arity(),
        }));
    }

    let _search_span = incognito_obs::span("search")
        .arg("algo", "sql")
        .arg("k", cfg.k)
        .arg("qi_arity", sorted.len() as u64);
    let star = StarSchema::build(table, &sorted)?;
    let heights: Vec<(usize, LevelNo)> =
        sorted.iter().map(|&a| (a, star.height(a).expect("attr in star"))).collect();
    let n = sorted.len();

    let (mut nodes, mut edges) = initial_relations(&heights)?;
    let mut outcome = SqlSearchOutcome {
        qi: sorted.clone(),
        generalizations: Vec::new(),
        nodes_checked: 0,
        nodes_marked: 0,
        rollup_queries: 0,
        scan_queries: 0,
    };

    for i in 1..=n {
        let mut iter_span = incognito_obs::span("sql.iteration")
            .arg("arity", i as u64)
            .arg("candidates", nodes.len() as u64)
            .arg("edges", edges.len() as u64);
        let marked_before = outcome.nodes_marked;
        let num = nodes.len();
        // Adjacency over dense IDs (initial_relations and prune_phase both
        // assign IDs 0..num in row order).
        let mut out_adj: Vec<Vec<usize>> = vec![Vec::new(); num];
        let mut in_adj: Vec<Vec<usize>> = vec![Vec::new(); num];
        for row in 0..edges.len() {
            let s = match edges.value(row, "start")? {
                incognito_rel::Value::Int(v) => v as usize,
                incognito_rel::Value::Text(_) => unreachable!("edge ids are Int"),
            };
            let e = match edges.value(row, "end")? {
                incognito_rel::Value::Int(v) => v as usize,
                incognito_rel::Value::Text(_) => unreachable!("edge ids are Int"),
            };
            out_adj[s].push(e);
            in_adj[e].push(s);
        }
        let parts: Vec<Vec<(usize, LevelNo)>> =
            (0..num).map(|row| parts_of(&nodes, row, i)).collect();
        let height = |row: usize| -> u32 { parts[row].iter().map(|&(_, l)| l as u32).sum() };

        let mut alive = vec![true; num];
        let mut marked = vec![false; num];
        let mut processed = vec![false; num];
        // Cached frequency relations for rollup (freed with the iteration).
        let mut cache: FxHashMap<usize, Relation> = FxHashMap::default();

        let mut queue: BinaryHeap<Reverse<(u32, usize)>> = BinaryHeap::new();
        for (row, preds) in in_adj.iter().enumerate() {
            if preds.is_empty() {
                queue.push(Reverse((height(row), row)));
            }
        }
        while let Some(Reverse((_h, node))) = queue.pop() {
            if processed[node] || marked[node] {
                continue;
            }
            processed[node] = true;

            let mut check_span = incognito_obs::span("sql.check");
            let freq = match in_adj[node].iter().find(|&&p| cache.contains_key(&p)) {
                Some(&p) => {
                    outcome.rollup_queries += 1;
                    check_span.set_arg("via", "rollup");
                    let target: Vec<LevelNo> = parts[node].iter().map(|&(_, l)| l).collect();
                    rollup_sql(&star, &cache[&p], &parts[p], &target)?
                }
                None => {
                    outcome.scan_queries += 1;
                    check_span.set_arg("via", "scan");
                    frequency_set_sql(&star, &parts[node])?
                }
            };
            outcome.nodes_checked += 1;
            let anonymous = is_k_anonymous_sql(&freq, cfg.k, cfg.max_suppress)?;
            check_span.set_arg("anonymous", anonymous);

            if anonymous {
                // Generalization property: mark transitively.
                let mut stack = out_adj[node].clone();
                while let Some(y) = stack.pop() {
                    if marked[y] {
                        continue;
                    }
                    marked[y] = true;
                    if !processed[y] {
                        outcome.nodes_marked += 1;
                    }
                    stack.extend_from_slice(&out_adj[y]);
                }
            } else {
                alive[node] = false;
                for &g in &out_adj[node] {
                    if !processed[g] && !marked[g] {
                        queue.push(Reverse((height(g), g)));
                    }
                }
                cache.insert(node, freq);
            }
        }

        iter_span.set_arg("marked", (outcome.nodes_marked - marked_before) as u64);
        iter_span.set_arg("survivors", alive.iter().filter(|&&a| a).count() as u64);
        if i == n {
            for (row, &a) in alive.iter().enumerate() {
                if a {
                    outcome.generalizations.push(parts[row].iter().map(|&(_, l)| l).collect());
                }
            }
            outcome.generalizations.sort();
        } else {
            // Sᵢ = alive rows; regenerate with the SQL statements.
            let survivors = nodes.filter(|r, row| {
                let id = id_of(r, row) as usize;
                alive[id]
            });
            let cand = join_phase(&survivors, i)?;
            let pruned = prune_phase(&cand, &survivors, i)?;
            edges = edge_generation(&pruned, &edges)?;
            nodes = pruned;
        }
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use incognito_core::incognito;
    use incognito_data::patients;

    #[test]
    fn sql_path_matches_native_on_patients() {
        let t = patients();
        for k in [1u64, 2, 3, 6] {
            let cfg = Config::new(k);
            let sql = incognito_sql(&t, &[0, 1, 2], &cfg).unwrap();
            let native = incognito(&t, &[0, 1, 2], &cfg).unwrap();
            let native_levels: Vec<Vec<LevelNo>> =
                native.generalizations().iter().map(|g| g.levels.clone()).collect();
            assert_eq!(sql.generalizations, native_levels, "k={k}");
            assert_eq!(
                sql.nodes_checked,
                native.stats().nodes_checked(),
                "same nodes checked at k={k}"
            );
            assert_eq!(sql.nodes_marked, native.stats().nodes_marked());
        }
    }

    #[test]
    fn sql_path_with_suppression() {
        let t = patients();
        let cfg = Config::new(2).with_suppression(2);
        let sql = incognito_sql(&t, &[1, 2], &cfg).unwrap();
        let native = incognito(&t, &[1, 2], &cfg).unwrap();
        let native_levels: Vec<Vec<LevelNo>> =
            native.generalizations().iter().map(|g| g.levels.clone()).collect();
        assert_eq!(sql.generalizations, native_levels);
    }

    #[test]
    fn sql_path_validates_workload() {
        let t = patients();
        assert!(matches!(
            incognito_sql(&t, &[], &Config::new(2)),
            Err(StarError::Algo(AlgoError::EmptyQuasiIdentifier))
        ));
        assert!(matches!(
            incognito_sql(&t, &[0, 0], &Config::new(2)),
            Err(StarError::Algo(AlgoError::DuplicateQiAttribute(0)))
        ));
        assert!(matches!(
            incognito_sql(&t, &[0], &Config::new(0)),
            Err(StarError::Algo(AlgoError::InvalidK(0)))
        ));
        assert!(matches!(incognito_sql(&t, &[99], &Config::new(2)), Err(StarError::Table(_))));
    }

    #[test]
    fn rollups_dominate_scans() {
        // The SQL path inherits the paper's efficiency structure: only
        // roots scan the fact table.
        let t = patients();
        let sql = incognito_sql(&t, &[0, 1, 2], &Config::new(2)).unwrap();
        assert!(sql.rollup_queries > 0);
        assert!(sql.scan_queries < sql.nodes_checked);
    }
}
