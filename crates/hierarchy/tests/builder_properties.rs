//! Property tests for the hierarchy builders: whatever the input, a built
//! hierarchy satisfies the structural laws the rest of the system assumes
//! (γ⁺ composition, nesting, onto-ness, monotone level sizes).
//!
//! Inputs are generated from the workspace's seeded PRNG
//! ([`incognito_obs::Rng`]) so every run checks the same case set —
//! failures reproduce by case number.

use std::collections::BTreeSet;

use incognito_hierarchy::{builders, Hierarchy};
use incognito_obs::Rng;

/// Structural laws every hierarchy must satisfy.
fn check_laws(h: &Hierarchy) {
    // Level sizes shrink (weakly) going up; composition of γ equals γ⁺.
    for l in 0..h.height() {
        assert!(h.level_size(l + 1) <= h.level_size(l), "level sizes must not grow");
        for g in 0..h.ground_size() as u32 {
            assert_eq!(h.parent(l, h.generalize(g, l)), h.generalize(g, l + 1));
        }
        // γ is onto: every value above has a child.
        for id in 0..h.level_size(l + 1) as u32 {
            assert!(!h.children(l + 1, id).is_empty());
        }
    }
    // between_map composes with map_to_level.
    for from in 0..=h.height() {
        for to in from..=h.height() {
            let m = h.between_map(from, to).unwrap();
            for g in 0..h.ground_size() as u32 {
                assert_eq!(m[h.generalize(g, from) as usize], h.generalize(g, to));
            }
        }
    }
    // Subtree leaves partition the ground domain at every level.
    for l in 0..=h.height() {
        let mut covered = vec![false; h.ground_size()];
        for id in 0..h.level_size(l) as u32 {
            for leaf in h.subtree_leaves(l, id) {
                assert!(!covered[leaf as usize], "leaf in two subtrees");
                covered[leaf as usize] = true;
            }
        }
        assert!(covered.iter().all(|&c| c), "subtrees must cover the domain");
    }
}

/// A random set of `1..max_len` distinct values drawn from `draw`.
fn random_set<T: Ord>(
    rng: &mut Rng,
    max_len: usize,
    mut draw: impl FnMut(&mut Rng) -> T,
) -> Vec<T> {
    let target = rng.range_usize(1, max_len);
    let mut set = BTreeSet::new();
    // Domains are much larger than max_len, so this converges quickly.
    while set.len() < target {
        set.insert(draw(rng));
    }
    set.into_iter().collect()
}

#[test]
fn ranges_builder_laws() {
    for case in 0..128u64 {
        let mut rng = Rng::seed_from_u64(0xB11D_0000 + case);
        let values = random_set(&mut rng, 40, |r| r.range_usize(0, 1000) as i64 - 500);
        let base = rng.range_usize(2, 5) as i64;
        let depth = rng.range_usize(1, 4);
        let suppress = rng.gen_bool(0.5);

        let widths: Vec<i64> = (1..=depth as u32).map(|d| base.pow(d)).collect();
        let h = builders::ranges("X", &values, &widths, suppress).unwrap();
        assert_eq!(h.ground_size(), values.len(), "case {case}");
        let expected_height = depth as u8 + u8::from(suppress);
        assert_eq!(h.height(), expected_height, "case {case}");
        check_laws(&h);
        // Ground dictionary is numerically sorted.
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for (i, v) in sorted.iter().enumerate() {
            assert_eq!(h.label(0, i as u32), v.to_string(), "case {case}");
        }
        // Interval labels nest: same level-1 bucket ⇒ same level-2 bucket.
        if depth >= 2 {
            for a in 0..values.len() as u32 {
                for b in 0..values.len() as u32 {
                    if h.generalize(a, 1) == h.generalize(b, 1) {
                        assert_eq!(h.generalize(a, 2), h.generalize(b, 2), "case {case}");
                    }
                }
            }
        }
    }
}

#[test]
fn round_digits_builder_laws() {
    for case in 0..128u64 {
        let mut rng = Rng::seed_from_u64(0xD161_0000 + case);
        let codes = random_set(&mut rng, 60, |r| r.below(100_000) as u32);
        let steps = rng.range_usize(1, 6);

        let labels: Vec<String> = codes.iter().map(|c| format!("{c:05}")).collect();
        let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
        let h = builders::round_digits("Zip", &refs, steps).unwrap();
        assert_eq!(h.height(), steps as u8, "case {case}");
        check_laws(&h);
        // The level-ℓ label of a value is its prefix plus ℓ stars.
        for (i, label) in labels.iter().enumerate() {
            for l in 1..=steps {
                let expect = format!("{}{}", &label[..5 - l], "*".repeat(l));
                assert_eq!(
                    h.label(l as u8, h.generalize(i as u32, l as u8)),
                    expect,
                    "case {case}"
                );
            }
        }
    }
}

#[test]
fn suppression_builder_laws() {
    // The input space is one small integer — check it exhaustively.
    for n in 1usize..50 {
        let labels: Vec<String> = (0..n).map(|i| format!("v{i}")).collect();
        let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
        let h = builders::suppression("S", &refs).unwrap();
        assert_eq!(h.height(), 1);
        assert_eq!(h.level_size(1), 1);
        check_laws(&h);
    }
}

/// Balanced taxonomy trees: build with a given shape, verify ground size
/// and laws. `shape[d]` = children per node at depth `d`; leaves at depth
/// `shape.len()`. The shape space (1–3 levels of fan-out 1–3) is small, so
/// it is enumerated exhaustively.
#[test]
fn taxonomy_builder_laws() {
    fn grow(shape: &[usize], depth: usize, counter: &mut u32) -> builders::TaxonomyNode {
        if depth == shape.len() {
            *counter += 1;
            return builders::TaxonomyNode::leaf(format!("leaf-{counter}"));
        }
        let children = (0..shape[depth]).map(|_| grow(shape, depth + 1, counter)).collect();
        *counter += 1;
        builders::TaxonomyNode::node(format!("n{depth}-{counter}"), children)
    }

    let mut shapes: Vec<Vec<usize>> = Vec::new();
    for a in 1..4 {
        shapes.push(vec![a]);
        for b in 1..4 {
            shapes.push(vec![a, b]);
            for c in 1..4 {
                shapes.push(vec![a, b, c]);
            }
        }
    }
    for shape in shapes {
        let mut counter = 0;
        let root = grow(&shape, 0, &mut counter);
        let h = builders::taxonomy("T", root).unwrap();
        assert_eq!(h.height() as usize, shape.len(), "shape {shape:?}");
        assert_eq!(h.ground_size(), shape.iter().product::<usize>(), "shape {shape:?}");
        check_laws(&h);
    }
}
