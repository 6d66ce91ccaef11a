//! A-priori candidate graph generation: the join, prune, and
//! edge-generation phases of §3.1.2.
//!
//! Given the surviving nodes `Sᵢ` (those with respect to which the table is
//! k-anonymous) and the edges `Eᵢ` of iteration `i`, [`generate_next`]
//! produces the candidate graph `(Cᵢ₊₁, Eᵢ₊₁)` for iteration `i + 1`:
//!
//! 1. **Join** — pair survivors agreeing on their first `i - 1`
//!    `(dim, index)` components with `p.dimᵢ < q.dimᵢ`, mirroring the
//!    paper's self-join SQL over `Sᵢ₋₁` (the dimension ordering exists
//!    purely to avoid duplicates, as in Apriori);
//! 2. **Prune** — drop candidates having any `i`-subset absent from `Sᵢ`,
//!    using an Apriori hash tree (or a flat hash set; see
//!    [`PruneStrategy`]);
//! 3. **Edge generation** — derive candidate direct-generalization edges
//!    from the parents' edges (the three-disjunct `CandidateEdges` query),
//!    then delete implied edges, i.e. those that are the composition of two
//!    candidate edges (the `EXCEPT` clause).

use incognito_hierarchy::LevelNo;
use incognito_table::fxhash::{FxHashMap, FxHashSet};

use crate::graph::{CandidateGraph, NodeId, NodeSpec};
use crate::hash_tree::{HashTree, SpecSet};

/// How the prune phase tests subset membership in `Sᵢ`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneStrategy {
    /// The Apriori hash tree of \[2\], as the paper describes.
    HashTree,
    /// A flat hash set — same semantics, different constant factors
    /// (compared in the `ablation_prune_structure` bench).
    HashSet,
    /// Skip the subset check entirely (join results only). Used by the
    /// a-priori ablation; Incognito proper always prunes.
    None,
}

enum Membership {
    Tree(HashTree),
    Set(SpecSet),
    None,
}

impl Membership {
    fn contains(&self, spec: &[(usize, LevelNo)]) -> bool {
        match self {
            Membership::Tree(t) => t.contains(spec),
            Membership::Set(s) => s.contains(spec),
            Membership::None => true,
        }
    }
}

/// Generate `(Cᵢ₊₁, Eᵢ₊₁)` from iteration `i`'s candidate graph, the
/// aliveness of its nodes (`alive[id]` ⇔ node `id` ∈ `Sᵢ`), and its edges.
///
/// Returns the new graph; its nodes' `parent1`/`parent2` reference ids in
/// `prev`, matching the paper's Nodes relation.
///
/// # Panics
/// Panics if `alive.len() != prev.num_nodes()`.
pub fn generate_next(
    prev: &CandidateGraph,
    alive: &[bool],
    strategy: PruneStrategy,
) -> CandidateGraph {
    assert_eq!(alive.len(), prev.num_nodes(), "aliveness vector must cover all nodes");
    let mut span = incognito_obs::span("lattice.generate").arg("arity", (prev.arity() + 1) as u64);
    incognito_obs::incr("lattice.generate.count");
    let arity = prev.arity() + 1;

    // ---- Join phase -------------------------------------------------------
    // Bucket survivors by their first (arity_prev - 1) components; within a
    // bucket, pair p, q with p's last attribute < q's last attribute.
    let join_span = incognito_obs::span("lattice.generate.join");
    let survivors: Vec<NodeId> =
        (0..prev.num_nodes() as NodeId).filter(|&id| alive[id as usize]).collect();
    incognito_obs::add("lattice.generate.survivors_in", survivors.len() as u64);
    let mut buckets: std::collections::BTreeMap<Vec<(usize, LevelNo)>, Vec<NodeId>> =
        std::collections::BTreeMap::new();
    for &id in &survivors {
        let parts = &prev.node(id).parts;
        buckets.entry(parts[..parts.len() - 1].to_vec()).or_default().push(id);
    }

    // Prune-phase membership structure over the survivor specs.
    let membership = match strategy {
        PruneStrategy::HashTree => Membership::Tree(HashTree::from_specs(
            survivors.iter().map(|&id| prev.node(id).parts.clone()),
        )),
        PruneStrategy::HashSet => Membership::Set(SpecSet::from_specs(
            survivors.iter().map(|&id| prev.node(id).parts.clone()),
        )),
        PruneStrategy::None => Membership::None,
    };

    let mut nodes: Vec<NodeSpec> = Vec::new();
    let mut pruned = 0u64;
    let mut subset_buf: Vec<(usize, LevelNo)> = Vec::with_capacity(arity - 1);
    for bucket in buckets.values() {
        for (bi, &p) in bucket.iter().enumerate() {
            for &q in &bucket[bi + 1..] {
                let (pp, qp) = (&prev.node(p).parts, &prev.node(q).parts);
                let (pl, ql) = (pp[pp.len() - 1], qp[qp.len() - 1]);
                // Within a bucket the last components may share an
                // attribute (same prefix, different level of the same
                // dimension); those pairs are not joinable.
                let (lo, hi, parent1, parent2) = if pl.0 < ql.0 {
                    (pl, ql, p, q)
                } else if ql.0 < pl.0 {
                    (ql, pl, q, p)
                } else {
                    continue;
                };
                let mut parts = prev.node(parent1).parts.clone();
                parts.pop();
                parts.push(lo);
                parts.push(hi);

                // ---- Prune phase -----------------------------------------
                // Every (arity - 1)-subset must be in Sᵢ. Dropping the last
                // component reproduces parent1 and dropping the second-to-
                // last reproduces parent2, both survivors by construction,
                // so only the remaining subsets need checking.
                let mut keep = true;
                if !matches!(strategy, PruneStrategy::None) && arity > 2 {
                    for drop in 0..arity - 2 {
                        subset_buf.clear();
                        subset_buf.extend(
                            parts.iter().enumerate().filter(|&(j, _)| j != drop).map(|(_, &x)| x),
                        );
                        if !membership.contains(&subset_buf) {
                            keep = false;
                            break;
                        }
                    }
                }
                if keep {
                    nodes.push(NodeSpec { parts, parent1: Some(parent1), parent2: Some(parent2) });
                } else {
                    pruned += 1;
                }
            }
        }
    }
    join_span
        .arg("survivors_in", survivors.len() as u64)
        .arg("pruned", pruned)
        .arg("candidates_out", nodes.len() as u64)
        .finish();
    incognito_obs::add("lattice.generate.pruned", pruned);
    incognito_obs::add("lattice.generate.candidates_out", nodes.len() as u64);

    // ---- Edge generation --------------------------------------------------
    let edge_span = incognito_obs::span("lattice.generate.edges");
    let edges = generate_edges(prev, &nodes);
    edge_span.arg("edges_out", edges.len() as u64).finish();
    incognito_obs::add("lattice.generate.edges_out", edges.len() as u64);
    span.set_arg("candidates_out", nodes.len() as u64);
    CandidateGraph::new(arity, nodes, edges)
}

/// The edge-generation phase: candidate edges from the three disjuncts of
/// the paper's `CandidateEdges` query, minus implied edges (compositions of
/// two candidate edges).
fn generate_edges(prev: &CandidateGraph, nodes: &[NodeSpec]) -> Vec<(NodeId, NodeId)> {
    let prev_edges: FxHashSet<(NodeId, NodeId)> = prev.edges().iter().copied().collect();

    // Index the new candidates by their parents.
    let mut by_parent1: FxHashMap<NodeId, Vec<NodeId>> = FxHashMap::default();
    let mut by_parent2: FxHashMap<NodeId, Vec<NodeId>> = FxHashMap::default();
    for (id, n) in nodes.iter().enumerate() {
        let (p1, p2) = (
            n.parent1.expect("joined nodes have parents"),
            n.parent2.expect("joined nodes have parents"),
        );
        by_parent1.entry(p1).or_default().push(id as NodeId);
        by_parent2.entry(p2).or_default().push(id as NodeId);
    }
    let parent2 = |id: NodeId| nodes[id as usize].parent2.expect("checked above");

    let mut candidate: FxHashSet<(NodeId, NodeId)> = FxHashSet::default();
    // Disjunct 1 and 2: an edge between the first parents, with the second
    // parents either also connected by an edge (1) or equal (2).
    for &(s, e) in prev.edges() {
        if let (Some(ps), Some(qs)) = (by_parent1.get(&s), by_parent1.get(&e)) {
            for &p in ps {
                for &q in qs {
                    let (p2, q2) = (parent2(p), parent2(q));
                    if p2 == q2 || prev_edges.contains(&(p2, q2)) {
                        candidate.insert((p, q));
                    }
                }
            }
        }
    }
    // Disjunct 3: equal first parents, edge between second parents.
    for (_, group) in by_parent1.iter() {
        for &p in group {
            for &q in group {
                if p != q && prev_edges.contains(&(parent2(p), parent2(q))) {
                    candidate.insert((p, q));
                }
            }
        }
    }

    // EXCEPT: remove edges implied by a two-edge path within the candidate
    // set (the paper observes implied relationships here are separated by
    // at most one node).
    let mut out: FxHashMap<NodeId, FxHashSet<NodeId>> = FxHashMap::default();
    for &(s, e) in &candidate {
        out.entry(s).or_default().insert(e);
    }
    let mut edges: Vec<(NodeId, NodeId)> = candidate
        .iter()
        .copied()
        .filter(|&(s, e)| {
            !out.get(&s).is_some_and(|mids| {
                mids.iter().any(|&m| m != e && out.get(&m).is_some_and(|o| o.contains(&e)))
            })
        })
        .collect();
    edges.sort_unstable();
    edges
}

/// Reference edge construction: the cover relation of the generalization
/// partial order restricted to `nodes` — `p → q` iff `q` generalizes `p`
/// and no other candidate lies strictly between them. Quadratic; used by
/// tests and the edge-generation ablation to validate [`generate_next`].
pub fn edges_by_cover(nodes: &[NodeSpec]) -> Vec<(NodeId, NodeId)> {
    let n = nodes.len();
    let mut edges = Vec::new();
    for s in 0..n {
        for e in 0..n {
            if s == e || !nodes[s].is_generalized_by(&nodes[e]) {
                continue;
            }
            let has_mid = (0..n).any(|m| {
                m != s
                    && m != e
                    && nodes[s].is_generalized_by(&nodes[m])
                    && nodes[m].is_generalized_by(&nodes[e])
            });
            if !has_mid {
                edges.push((s as NodeId, e as NodeId));
            }
        }
    }
    edges.sort_unstable();
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use incognito_hierarchy::builders;
    use incognito_table::{Attribute, Schema};
    use std::sync::Arc;

    /// Schema over ⟨Birthdate, Sex, Zipcode⟩ with Figure 2's hierarchies.
    fn bsz_schema() -> Arc<Schema> {
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

    #[test]
    fn join_from_singletons_builds_pairwise_lattices() {
        let schema = bsz_schema();
        let c1 = CandidateGraph::initial(&schema, &[0, 1, 2]);
        let alive = vec![true; c1.num_nodes()];
        let c2 = generate_next(&c1, &alive, PruneStrategy::HashTree);
        assert_eq!(c2.arity(), 2);
        // Families: (B,S) 2*2=4, (B,Z) 2*3=6, (S,Z) 2*3=6 nodes.
        assert_eq!(c2.num_nodes(), 16);
        let fams = c2.families();
        assert_eq!(fams.len(), 3);
        assert_eq!(fams[&vec![0, 1]].len(), 4);
        assert_eq!(fams[&vec![0, 2]].len(), 6);
        assert_eq!(fams[&vec![1, 2]].len(), 6);
        // Each family's edges match the full pairwise lattice's cover edges.
        assert_eq!(c2.edges().len(), edges_by_cover(c2.nodes()).len());
        assert_eq!(c2.edges(), &edges_by_cover(c2.nodes())[..]);
        // Roots: the all-zeros node of each family.
        let roots = c2.roots();
        assert_eq!(roots.len(), 3);
        for r in roots {
            assert_eq!(c2.node(r).height(), 0);
        }
    }

    #[test]
    fn parents_recorded_during_join() {
        let schema = bsz_schema();
        let c1 = CandidateGraph::initial(&schema, &[1, 2]);
        let alive = vec![true; c1.num_nodes()];
        let c2 = generate_next(&c1, &alive, PruneStrategy::HashTree);
        for n in c2.nodes() {
            let p1 = c1.node(n.parent1.unwrap());
            let p2 = c1.node(n.parent2.unwrap());
            assert_eq!(p1.parts[0], n.parts[0]);
            assert_eq!(p2.parts[0], n.parts[1]);
        }
    }

    /// Reproduces Figure 5 → Figure 7(a): from the surviving 2-attribute
    /// nodes of the Patients example, the 3-attribute candidate graph has
    /// exactly the five nodes ⟨B1,S1,Z0⟩, ⟨B1,S1,Z1⟩, ⟨B1,S0,Z2⟩, ⟨B0,S1,Z2⟩,
    /// ⟨B1,S1,Z2⟩ with the four drawn edges.
    #[test]
    fn figure7_graph_from_figure5_survivors() {
        let schema = bsz_schema();
        let c1 = CandidateGraph::initial(&schema, &[0, 1, 2]);
        let alive1 = vec![true; c1.num_nodes()];
        let c2 = generate_next(&c1, &alive1, PruneStrategy::HashTree);

        // Survivors per Figure 5's final frames:
        //   ⟨B,S⟩: ⟨B1,S0⟩, ⟨B0,S1⟩, ⟨B1,S1⟩
        //   ⟨B,Z⟩: ⟨B1,Z0⟩, ⟨B1,Z1⟩, ⟨B0,Z2⟩, ⟨B1,Z2⟩
        //   ⟨S,Z⟩: ⟨S1,Z0⟩, ⟨S1,Z1⟩, ⟨S0,Z2⟩, ⟨S1,Z2⟩
        let surviving: Vec<Vec<(usize, LevelNo)>> = vec![
            vec![(0, 1), (1, 0)],
            vec![(0, 0), (1, 1)],
            vec![(0, 1), (1, 1)],
            vec![(0, 1), (2, 0)],
            vec![(0, 1), (2, 1)],
            vec![(0, 0), (2, 2)],
            vec![(0, 1), (2, 2)],
            vec![(1, 1), (2, 0)],
            vec![(1, 1), (2, 1)],
            vec![(1, 0), (2, 2)],
            vec![(1, 1), (2, 2)],
        ];
        let mut alive2 = vec![false; c2.num_nodes()];
        for spec in &surviving {
            let id = c2.find(spec).expect("survivor exists in C2");
            alive2[id as usize] = true;
        }
        let c3 = generate_next(&c2, &alive2, PruneStrategy::HashTree);

        let mut specs: Vec<Vec<(usize, LevelNo)>> =
            c3.nodes().iter().map(|n| n.parts.clone()).collect();
        specs.sort();
        let mut expected = vec![
            vec![(0, 1), (1, 1), (2, 0)],
            vec![(0, 1), (1, 1), (2, 1)],
            vec![(0, 1), (1, 0), (2, 2)],
            vec![(0, 0), (1, 1), (2, 2)],
            vec![(0, 1), (1, 1), (2, 2)],
        ];
        expected.sort();
        assert_eq!(specs, expected, "Figure 7(a) candidate nodes");

        // Figure 7(a) edges: B1S1Z0→B1S1Z1, B1S1Z1→B1S1Z2,
        // B1S0Z2→B1S1Z2, B0S1Z2→B1S1Z2.
        let id = |spec: &[(usize, LevelNo)]| c3.find(spec).unwrap();
        let mut expected_edges = [
            (id(&[(0, 1), (1, 1), (2, 0)]), id(&[(0, 1), (1, 1), (2, 1)])),
            (id(&[(0, 1), (1, 1), (2, 1)]), id(&[(0, 1), (1, 1), (2, 2)])),
            (id(&[(0, 1), (1, 0), (2, 2)]), id(&[(0, 1), (1, 1), (2, 2)])),
            (id(&[(0, 0), (1, 1), (2, 2)]), id(&[(0, 1), (1, 1), (2, 2)])),
        ];
        expected_edges.sort_unstable();
        assert_eq!(c3.edges(), &expected_edges[..]);

        // And they agree with the cover relation.
        assert_eq!(c3.edges(), &edges_by_cover(c3.nodes())[..]);

        // Super-root grouping (§3.3.1): all three roots of this family
        // share the GLB ⟨B0,S0,Z0⟩... the paper's example states the roots
        // are ⟨B1,S1,Z0⟩, ⟨B1,S0,Z2⟩, ⟨B0,S1,Z2⟩ with GLB ⟨B0,S0,Z0⟩.
        let roots = c3.roots();
        assert_eq!(roots.len(), 3);
        let glb = c3.family_glb(&roots).unwrap();
        assert_eq!(glb.parts, vec![(0, 0), (1, 0), (2, 0)]);
    }

    #[test]
    fn prune_drops_candidates_with_dead_subsets() {
        let schema = bsz_schema();
        let c1 = CandidateGraph::initial(&schema, &[0, 1, 2]);
        let alive1 = vec![true; c1.num_nodes()];
        let c2 = generate_next(&c1, &alive1, PruneStrategy::HashSet);
        // Kill every ⟨S, Z⟩ node: no 3-attribute candidate can survive the
        // prune because its ⟨S, Z⟩ subset is gone.
        let mut alive2 = vec![true; c2.num_nodes()];
        for (i, n) in c2.nodes().iter().enumerate() {
            if n.attr_set() == vec![1, 2] {
                alive2[i] = false;
            }
        }
        let c3 = generate_next(&c2, &alive2, PruneStrategy::HashSet);
        assert_eq!(c3.num_nodes(), 0);
        // Without the prune, join results (B,S)×(B,Z)-driven candidates remain.
        let c3_unpruned = generate_next(&c2, &alive2, PruneStrategy::None);
        assert!(c3_unpruned.num_nodes() > 0);
    }

    #[test]
    fn strategies_agree() {
        let schema = bsz_schema();
        let c1 = CandidateGraph::initial(&schema, &[0, 1, 2]);
        let alive1 = vec![true; c1.num_nodes()];
        let c2 = generate_next(&c1, &alive1, PruneStrategy::HashTree);
        // Arbitrary aliveness pattern.
        let alive2: Vec<bool> = (0..c2.num_nodes()).map(|i| i % 4 != 1).collect();
        let a = generate_next(&c2, &alive2, PruneStrategy::HashTree);
        let b = generate_next(&c2, &alive2, PruneStrategy::HashSet);
        assert_eq!(a.nodes(), b.nodes());
        assert_eq!(a.edges(), b.edges());
    }

    #[test]
    fn empty_survivors_yield_empty_graph() {
        let schema = bsz_schema();
        let c1 = CandidateGraph::initial(&schema, &[0, 1]);
        let alive = vec![false; c1.num_nodes()];
        let c2 = generate_next(&c1, &alive, PruneStrategy::HashTree);
        assert_eq!(c2.num_nodes(), 0);
        assert_eq!(c2.num_edges(), 0);
        assert!(c2.roots().is_empty());
    }

    use incognito_hierarchy::LevelNo;
}
