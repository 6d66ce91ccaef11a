//! Samarati's distance-vector-matrix k-anonymity check — the alternative
//! the paper's footnote 2 describes and rejects: *"Samarati suggests an
//! alternative approach whereby a matrix of distance vectors is
//! constructed between unique tuples. However, we found constructing this
//! matrix prohibitively expensive for large databases."*
//!
//! Reproduced here so the benchmark suite can regenerate that finding. The
//! distance vector between two tuples is, per attribute, the lowest
//! hierarchy level at which their values coincide; tuple `t` is covered by
//! generalization `G` at distance vector `d(t, u)` ≤ `G` for enough tuples
//! `u`. Building the matrix is Θ(u² · |QI|) in the number of distinct
//! tuples `u` — quadratic where a frequency set is linear, which is
//! exactly why the paper's group-by formulation wins.

use incognito_hierarchy::LevelNo;
use incognito_table::fxhash::FxHashMap;
use incognito_table::Table;

use crate::error::validate_qi;
use crate::{AlgoError, Config};

/// The matrix of pairwise distance vectors between the distinct
/// quasi-identifier tuples of a table.
pub struct DistanceMatrix {
    qi: Vec<usize>,
    /// Distinct ground tuples (by QI), with their multiplicities.
    tuples: Vec<(Vec<u32>, u64)>,
    /// Row-major upper-triangular-with-diagonal pairwise vectors:
    /// `matrix[i][j]` for j ≥ i holds `d(tuples[i], tuples[j])`.
    matrix: Vec<Vec<Vec<LevelNo>>>,
}

impl DistanceMatrix {
    /// Build the matrix (footnote 2's expensive step).
    pub fn build(table: &Table, qi: &[usize], k: u64) -> Result<DistanceMatrix, AlgoError> {
        let schema = table.schema().clone();
        let qi = validate_qi(&schema, qi, k)?;

        // Distinct tuples with counts.
        let mut index: FxHashMap<Vec<u32>, u64> = FxHashMap::default();
        for row in 0..table.num_rows() {
            let t: Vec<u32> = qi.iter().map(|&a| table.column(a)[row]).collect();
            *index.entry(t).or_insert(0) += 1;
        }
        let mut tuples: Vec<(Vec<u32>, u64)> = index.into_iter().collect();
        tuples.sort();

        // Per attribute, the lowest common level of every ground pair can
        // be answered from the composed maps; precompute per level.
        let heights: Vec<LevelNo> = qi.iter().map(|&a| schema.hierarchy(a).height()).collect();
        let lca_level = |attr_pos: usize, x: u32, y: u32| -> LevelNo {
            let h = schema.hierarchy(qi[attr_pos]);
            (0..=heights[attr_pos])
                .find(|&l| h.generalize(x, l) == h.generalize(y, l))
                .unwrap_or(heights[attr_pos])
        };

        let u = tuples.len();
        let mut matrix: Vec<Vec<Vec<LevelNo>>> = Vec::with_capacity(u);
        for i in 0..u {
            let mut row = Vec::with_capacity(u - i);
            for j in i..u {
                let d: Vec<LevelNo> =
                    (0..qi.len()).map(|p| lca_level(p, tuples[i].0[p], tuples[j].0[p])).collect();
                row.push(d);
            }
            matrix.push(row);
        }
        Ok(DistanceMatrix { qi, tuples, matrix })
    }

    /// Number of distinct quasi-identifier tuples (the matrix dimension).
    pub fn num_tuples(&self) -> usize {
        self.tuples.len()
    }

    /// The quasi-identifier (sorted).
    pub fn qi(&self) -> &[usize] {
        &self.qi
    }

    /// `d(i, j)` — the component-wise lowest common generalization levels.
    pub fn distance(&self, i: usize, j: usize) -> &[LevelNo] {
        let (lo, hi) = if i <= j { (i, j) } else { (j, i) };
        &self.matrix[lo][hi - lo]
    }

    /// Check k-anonymity of a generalization `levels` from the matrix: each
    /// tuple's equivalence class under `levels` is the set of tuples whose
    /// distance vector is component-wise ≤ `levels`; the class weight must
    /// reach k.
    pub fn is_k_anonymous(&self, levels: &[LevelNo], cfg: &Config) -> bool {
        let u = self.tuples.len();
        let mut below = 0u64;
        for i in 0..u {
            let mut class = 0u64;
            for (j, t) in self.tuples.iter().enumerate() {
                let d = self.distance(i, j);
                if d.iter().zip(levels).all(|(&dv, &lv)| dv <= lv) {
                    class += t.1;
                }
            }
            if class < cfg.k {
                below += self.tuples[i].1;
            }
        }
        below <= cfg.max_suppress
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{exhaustive_truth, patients};
    use incognito_lattice::CandidateGraph;

    #[test]
    fn matrix_distances_match_hierarchies() {
        let t = patients();
        let m = DistanceMatrix::build(&t, &[1, 2], 2).unwrap();
        // Distinct ⟨Sex, Zipcode⟩ tuples: (M,53715) (F,53715) (M,53703)
        // (F,53706) → 4.
        assert_eq!(m.num_tuples(), 4);
        // d(t, t) = 0 vector.
        for i in 0..4 {
            assert!(m.distance(i, i).iter().all(|&l| l == 0));
        }
        // Symmetric.
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(m.distance(i, j), m.distance(j, i));
            }
        }
    }

    #[test]
    fn matrix_check_agrees_with_frequency_sets() {
        let t = patients();
        for k in [1u64, 2, 3, 6] {
            let cfg = Config::new(k);
            let m = DistanceMatrix::build(&t, &[0, 1, 2], k).unwrap();
            let truth = exhaustive_truth(&t, &[0, 1, 2], &cfg);
            let lattice = CandidateGraph::full_lattice(t.schema(), &[0, 1, 2]);
            for node in lattice.nodes() {
                let levels = node.levels();
                assert_eq!(
                    m.is_k_anonymous(&levels, &cfg),
                    truth.contains(&levels),
                    "k={k} levels={levels:?}"
                );
            }
        }
    }

    #[test]
    fn matrix_check_honors_suppression() {
        let t = patients();
        let cfg = Config::new(2).with_suppression(2);
        let m = DistanceMatrix::build(&t, &[1, 2], 2).unwrap();
        // At ground level two singleton tuples exist — within the budget.
        assert!(m.is_k_anonymous(&[0, 0], &cfg));
        assert!(!m.is_k_anonymous(&[0, 0], &Config::new(2)));
    }
}
