//! Property tests for the a-priori candidate generation: over random
//! schemas and random survivor patterns, the generated graphs satisfy the
//! structural invariants the Incognito search depends on.
//!
//! Schemas and survivor patterns are drawn from the workspace's seeded
//! PRNG so every run checks the same case set.

use incognito_hierarchy::builders;
use incognito_lattice::{candidate, generate_next, CandidateGraph, PruneStrategy};
use incognito_obs::Rng;
use incognito_table::{Attribute, Schema};
use std::sync::Arc;

/// Random 3-attribute schema with hierarchy heights 1–3.
fn random_schema(rng: &mut Rng) -> Arc<Schema> {
    let attrs = (0..3)
        .map(|i| {
            let h = 1 + rng.below(3) as u8;
            let name = ["A", "B", "C"][i];
            // Fixed-width codes of length h rounded digit by digit give
            // a chain of exactly height h.
            let width = h as usize;
            let values: Vec<String> = (0..4u32).map(|v| format!("{v:0width$}")).collect();
            let refs: Vec<&str> = values.iter().map(String::as_str).collect();
            Attribute::new(name, builders::round_digits(name, &refs, width).unwrap())
        })
        .collect();
    Schema::new(attrs).unwrap()
}

/// 64 random survivor bits, like proptest's `vec(any::<bool>(), 64)`.
fn random_bits(rng: &mut Rng) -> Vec<bool> {
    (0..64).map(|_| rng.gen_bool(0.5)).collect()
}

fn subsets_of(parts: &[(usize, u8)]) -> Vec<Vec<(usize, u8)>> {
    (0..parts.len())
        .map(|drop| parts.iter().enumerate().filter(|&(j, _)| j != drop).map(|(_, &x)| x).collect())
        .collect()
}

/// Iterating C1 → C2 → C3 under a random aliveness pattern yields
/// graphs whose edges are strict generalization relations with no
/// two-step-implied edges, and whose nodes pass the prune criterion
/// exactly (soundness and completeness of join+prune).
#[test]
fn candidate_graphs_satisfy_invariants() {
    for case in 0..96u64 {
        let mut rng = Rng::seed_from_u64(0xCA4D_0000 + case);
        let schema = random_schema(&mut rng);
        let seed = random_bits(&mut rng);

        let c1 = CandidateGraph::initial(&schema, &[0, 1, 2]);
        let alive1 = vec![true; c1.num_nodes()];
        let c2 = generate_next(&c1, &alive1, PruneStrategy::HashTree);

        // Random survivor pattern over C2, but keep at least the all-zero
        // nodes alive so C3 is non-trivial sometimes.
        let alive2: Vec<bool> = (0..c2.num_nodes())
            .map(|i| c2.node(i as u32).height() == 0 || seed[i % seed.len()])
            .collect();
        let c3 = generate_next(&c2, &alive2, PruneStrategy::HashTree);

        // Survivor spec set of C2.
        let s2: std::collections::HashSet<Vec<(usize, u8)>> = (0..c2.num_nodes())
            .filter(|&i| alive2[i])
            .map(|i| c2.node(i as u32).parts.clone())
            .collect();

        // (a) prune soundness: every C3 node's 2-subsets are in S2.
        for n in c3.nodes() {
            for sub in subsets_of(&n.parts) {
                assert!(s2.contains(&sub), "case {case}: unpruned candidate {:?}", n.parts);
            }
        }

        // (b) prune completeness: every 3-spec whose 2-subsets are all in
        // S2 appears in C3.
        let full = CandidateGraph::full_lattice(&schema, &[0, 1, 2]);
        for node in full.nodes() {
            let qualifies = subsets_of(&node.parts).iter().all(|s| s2.contains(s));
            let present = c3.find(&node.parts).is_some();
            assert_eq!(qualifies, present, "case {case}: spec {:?}", node.parts);
        }

        // (c) edges are strict generalizations, deduplicated, and not
        // implied by a two-edge path.
        for graph in [&c2, &c3] {
            let edge_set: std::collections::HashSet<(u32, u32)> =
                graph.edges().iter().copied().collect();
            assert_eq!(edge_set.len(), graph.num_edges(), "case {case}: duplicate edges");
            for &(s, e) in graph.edges() {
                assert!(graph.node(s).is_generalized_by(graph.node(e)), "case {case}");
                for &m in graph.direct_generalizations(s) {
                    if m != e {
                        assert!(
                            !edge_set.contains(&(m, e)),
                            "case {case}: edge ({s},{e}) implied via {m}"
                        );
                    }
                }
            }
        }

        // (d) prune strategies agree.
        let via_set = generate_next(&c2, &alive2, PruneStrategy::HashSet);
        assert_eq!(c3.nodes(), via_set.nodes(), "case {case}");
        assert_eq!(c3.edges(), via_set.edges(), "case {case}");
    }
}

/// With everything alive, generated edges equal the cover relation of
/// the candidate set (the lattice case, where the paper's relational
/// edge construction is exact). The schema space is 3 heights in 1–3, so
/// all 27 are enumerated via seeds.
#[test]
fn full_survivor_edges_equal_cover() {
    for case in 0..32u64 {
        let mut rng = Rng::seed_from_u64(0xC0FE_0000 + case);
        let schema = random_schema(&mut rng);
        let c1 = CandidateGraph::initial(&schema, &[0, 1, 2]);
        let mut graph = c1;
        for _ in 0..2 {
            let alive = vec![true; graph.num_nodes()];
            graph = generate_next(&graph, &alive, PruneStrategy::HashTree);
            assert_eq!(graph.edges(), &candidate::edges_by_cover(graph.nodes())[..], "case {case}");
        }
    }
}

/// BFS reachability: every non-root node of a generated graph is
/// reachable from the roots (the search visits or marks every node).
#[test]
fn roots_reach_everything() {
    for case in 0..96u64 {
        let mut rng = Rng::seed_from_u64(0x2007_0000 + case);
        let schema = random_schema(&mut rng);
        let seed = random_bits(&mut rng);
        let c1 = CandidateGraph::initial(&schema, &[0, 1, 2]);
        let c2 = generate_next(&c1, &vec![true; c1.num_nodes()], PruneStrategy::HashTree);
        let alive2: Vec<bool> = (0..c2.num_nodes()).map(|i| seed[i % seed.len()]).collect();
        let c3 = generate_next(&c2, &alive2, PruneStrategy::HashTree);
        let mut seen = vec![false; c3.num_nodes()];
        let mut stack = c3.roots();
        while let Some(n) = stack.pop() {
            if std::mem::replace(&mut seen[n as usize], true) {
                continue;
            }
            stack.extend_from_slice(c3.direct_generalizations(n));
        }
        assert!(seen.iter().all(|&s| s), "case {case}: unreachable candidate node");
    }
}
