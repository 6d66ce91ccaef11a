//! Multi-dimension full-subgraph recoding (§5.1.3).
//!
//! The recoding function operates on the multi-attribute value
//! generalization lattice (Figure 13): it may map a value *vector* to any
//! of its (direct or implied) generalizations, but whenever it maps
//! anything to a node `⟨g₁, ..., gₙ⟩` it must map **every** vector in the
//! sub-graph rooted at that node to it. The paper's example: mapping
//! ⟨Male, 53715⟩ to ⟨Person, 5371*⟩ forces ⟨Female, 53715⟩, ⟨Male, 53710⟩,
//! and ⟨Female, 53710⟩ there too.
//!
//! A used node is identified by a level vector plus the generalized value
//! vector; the subgraph-closure invariant is maintained by a fix-point:
//! whenever two used nodes' subgraphs overlap on any vector present in the
//! table, both are raised to their join until no overlap remains.

use incognito_hierarchy::LevelNo;
use incognito_table::fxhash::{FxHashMap, FxHashSet};
use incognito_table::{Schema, Table, TableError};

use crate::release::{build_view_from_labels, subtree_sizes, AnonymizedRelease};

/// Greedy multi-dimension full-subgraph recoding to k-anonymity.
pub fn full_subgraph_anonymize(
    table: &Table,
    qi: &[usize],
    k: u64,
) -> Result<AnonymizedRelease, TableError> {
    let schema = table.schema().clone();
    let n_rows = table.num_rows();

    // Distinct ground QI vectors and the rows holding each.
    let mut vectors: Vec<Vec<u32>> = Vec::new();
    let mut vec_rows: Vec<Vec<usize>> = Vec::new();
    {
        let mut index: FxHashMap<Vec<u32>, usize> = FxHashMap::default();
        for row in 0..n_rows {
            let v: Vec<u32> = qi.iter().map(|&a| table.column(a)[row]).collect();
            let slot = *index.entry(v.clone()).or_insert_with(|| {
                vectors.push(v);
                vec_rows.push(Vec::new());
                vectors.len() - 1
            });
            vec_rows[slot].push(row);
        }
    }

    // levels[i] = assigned level vector of ground vector i.
    let mut levels: Vec<Vec<LevelNo>> = vec![vec![0; qi.len()]; vectors.len()];
    let heights: Vec<LevelNo> = qi.iter().map(|&a| schema.hierarchy(a).height()).collect();

    let image = |schema: &Schema, v: &[u32], ls: &[LevelNo]| -> Vec<u32> {
        qi.iter()
            .enumerate()
            .map(|(pos, &a)| schema.hierarchy(a).generalize(v[pos], ls[pos]))
            .collect()
    };

    loop {
        // Group vectors by their released node (levels + image).
        let mut groups: FxHashMap<(Vec<LevelNo>, Vec<u32>), Vec<usize>> = FxHashMap::default();
        for (i, v) in vectors.iter().enumerate() {
            let key = (levels[i].clone(), image(&schema, v, &levels[i]));
            groups.entry(key).or_default().push(i);
        }
        let violator = groups
            .iter()
            .map(|(key, members)| {
                let size: usize = members.iter().map(|&i| vec_rows[i].len()).sum();
                (size, key.clone(), members.clone())
            })
            .filter(|(size, _, _)| (*size as u64) < k)
            .min_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        let Some((_, (node_levels, _node_vals), members)) = violator else { break };

        // Promote the first promotable attribute with the most headroom
        // (deepest remaining chain), preferring wide domains.
        let promote_pos =
            (0..qi.len()).filter(|&pos| node_levels[pos] < heights[pos]).max_by_key(|&pos| {
                (heights[pos] - node_levels[pos]) as usize * schema.hierarchy(qi[pos]).ground_size()
            });
        let Some(pos) = promote_pos else { break };
        let mut new_levels = node_levels.clone();
        new_levels[pos] += 1;
        let anchor = image(&schema, &vectors[members[0]], &new_levels);

        // Subgraph closure: every vector whose image at the new levels is
        // the anchor moves to the new node (absorbing members of other
        // nodes as the model requires).
        for (i, v) in vectors.iter().enumerate() {
            if image(&schema, v, &new_levels) == anchor {
                for (pos2, l) in levels[i].iter_mut().enumerate() {
                    *l = (*l).max(new_levels[pos2]);
                }
                // Raising component-wise can overshoot the anchor's levels
                // for vectors previously promoted elsewhere; those keep
                // their higher levels — the fix-point below reconciles.
            }
        }

        // Fix-point: eliminate partial subgraph overlaps by joining nodes.
        resolve_overlaps(&schema, qi, &vectors, &mut levels);
    }

    // Materialize.
    let sizes: Vec<Vec<Vec<usize>>> =
        qi.iter().map(|&a| subtree_sizes(schema.hierarchy(a))).collect();
    let mut precision_loss = 0.0;
    let mut lm_loss = 0.0;
    let mut qi_labels: Vec<Vec<String>> = vec![Vec::new(); n_rows];
    for (i, v) in vectors.iter().enumerate() {
        let labels: Vec<String> = qi
            .iter()
            .enumerate()
            .map(|(pos, &a)| {
                let h = schema.hierarchy(a);
                let l = levels[i][pos];
                let g = h.generalize(v[pos], l);
                h.label(l, g).to_string()
            })
            .collect();
        for &row in &vec_rows[i] {
            for (pos, &a) in qi.iter().enumerate() {
                let h = schema.hierarchy(a);
                let l = levels[i][pos];
                let g = h.generalize(v[pos], l);
                precision_loss += crate::release::precision_fraction(h, l);
                lm_loss += crate::release::lm_fraction(h, l, sizes[pos][l as usize][g as usize]);
            }
            qi_labels[row] = labels.clone();
        }
    }
    let kept: Vec<usize> = (0..n_rows).collect();
    let (view, class_sizes) = build_view_from_labels(table, qi, &kept, &qi_labels)?;
    Ok(AnonymizedRelease {
        view,
        qi: qi.to_vec(),
        suppressed: 0,
        kept_rows: kept,
        source_rows: n_rows as u64,
        class_sizes,
        precision_loss,
        lm_loss,
    })
}

/// Raise nodes until no used node's subgraph contains a vector assigned to
/// a different node — the full-subgraph validity invariant.
///
/// Each pass maps every vector to its image once per distinct level
/// vector in use, not once per used node: a vector lies in the subgraph
/// of a node at levels `nl` exactly when its image at `nl` is the image
/// of a vector assigned `nl`. A pass only raises levels to component-wise
/// maxima over a set of nodes fixed at its start, so the order the nodes
/// are visited in does not change its outcome.
fn resolve_overlaps(
    schema: &Schema,
    qi: &[usize],
    vectors: &[Vec<u32>],
    levels: &mut [Vec<LevelNo>],
) {
    let image = |v: &[u32], ls: &[LevelNo]| -> Vec<u32> {
        qi.iter()
            .enumerate()
            .map(|(pos, &a)| schema.hierarchy(a).generalize(v[pos], ls[pos]))
            .collect()
    };
    loop {
        let mut changed = false;
        // The used nodes: the images of the vectors at each level vector.
        let mut nodes: FxHashMap<Vec<LevelNo>, FxHashSet<Vec<u32>>> = FxHashMap::default();
        for (v, ls) in vectors.iter().zip(levels.iter()) {
            nodes.entry(ls.clone()).or_default().insert(image(v, ls));
        }
        for (nl, images) in &nodes {
            for (v, ls) in vectors.iter().zip(levels.iter_mut()) {
                // Is this vector inside a node's subgraph at `nl` but
                // assigned elsewhere?
                if ls != nl && images.contains(&image(v, nl)) {
                    // Join: component-wise max levels.
                    for (l, &n) in ls.iter_mut().zip(nl) {
                        *l = (*l).max(n);
                    }
                    changed = true;
                }
            }
        }
        if !changed {
            return;
        }
    }
}

/// Check the full-subgraph validity of an assignment: every vector lying in
/// a used node's subgraph must be assigned exactly that node.
pub fn is_valid_full_subgraph(
    schema: &Schema,
    qi: &[usize],
    vectors: &[Vec<u32>],
    levels: &[Vec<LevelNo>],
) -> bool {
    let image = |v: &[u32], ls: &[LevelNo]| -> Vec<u32> {
        qi.iter()
            .enumerate()
            .map(|(pos, &a)| schema.hierarchy(a).generalize(v[pos], ls[pos]))
            .collect()
    };
    for (i, _) in vectors.iter().enumerate() {
        let (nl, nv) = (&levels[i], image(&vectors[i], &levels[i]));
        for (j, w) in vectors.iter().enumerate() {
            if image(w, nl) == nv && levels[j] != *nl {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use incognito_data::{adults, patients, AdultsConfig};

    #[test]
    fn patients_subgraph_is_2_anonymous_and_valid() {
        let t = patients();
        let r = full_subgraph_anonymize(&t, &[1, 2], 2).unwrap();
        assert!(r.is_k_anonymous(2));
        assert_eq!(r.view.num_rows(), 6);
    }

    #[test]
    fn closure_example_from_figure13() {
        // Build the ⟨Sex, Zipcode⟩ vectors of the paper's example and
        // verify the validity checker enforces the Figure 13 closure:
        // mapping ⟨Male, 53715⟩ to ⟨Person, 5371*⟩ (levels [1, 1]) without
        // moving ⟨Female, 53715⟩ is invalid.
        let t = patients();
        let schema = t.schema().clone();
        let qi = [1usize, 2];
        let male = schema.hierarchy(1).ground_id("Male").unwrap();
        let female = schema.hierarchy(1).ground_id("Female").unwrap();
        let z15 = schema.hierarchy(2).ground_id("53715").unwrap();
        let vectors = vec![vec![male, z15], vec![female, z15]];
        let bad = vec![vec![1u8, 1], vec![0u8, 0]];
        assert!(!is_valid_full_subgraph(&schema, &qi, &vectors, &bad));
        let good = vec![vec![1u8, 1], vec![1u8, 1]];
        assert!(is_valid_full_subgraph(&schema, &qi, &vectors, &good));
    }

    #[test]
    fn greedy_result_passes_the_validity_checker() {
        let t = adults(&AdultsConfig { rows: 400, seed: 17 });
        let qi = [1usize, 3];
        let r = full_subgraph_anonymize(&t, &qi, 5).unwrap();
        assert!(r.is_k_anonymous(5));
        // Reconstruct levels from released labels and validate.
        let schema = t.schema().clone();
        let mut index: FxHashMap<Vec<u32>, usize> = FxHashMap::default();
        let mut vectors: Vec<Vec<u32>> = Vec::new();
        let mut levels: Vec<Vec<LevelNo>> = Vec::new();
        for row in 0..t.num_rows() {
            let v: Vec<u32> = qi.iter().map(|&a| t.column(a)[row]).collect();
            if index.contains_key(&v) {
                continue;
            }
            let ls: Vec<LevelNo> = qi
                .iter()
                .enumerate()
                .map(|(pos, &a)| {
                    let h = schema.hierarchy(a);
                    let released = r.view.label(row, a);
                    (0..=h.height())
                        .find(|&l| h.label(l, h.generalize(v[pos], l)) == released)
                        .expect("label on ancestor chain")
                })
                .collect();
            index.insert(v.clone(), vectors.len());
            vectors.push(v);
            levels.push(ls);
        }
        assert!(is_valid_full_subgraph(&schema, &qi, &vectors, &levels));
    }

    #[test]
    fn multi_dim_subgraph_no_worse_than_full_domain() {
        let t = adults(&AdultsConfig { rows: 800, seed: 4 });
        let qi = [1usize, 3];
        let k = 15u64;
        let sg = full_subgraph_anonymize(&t, &qi, k).unwrap();
        assert!(sg.is_k_anonymous(k));
        let full = incognito_core::incognito(&t, &qi, &incognito_core::Config::new(k)).unwrap();
        let best_full = full
            .generalizations()
            .iter()
            .map(|g| {
                crate::release::full_domain_release(&t, &qi, &g.levels, None)
                    .unwrap()
                    .metrics(k)
                    .loss
            })
            .fold(f64::INFINITY, f64::min);
        assert!(sg.metrics(k).loss <= best_full + 1e-9);
    }
}
