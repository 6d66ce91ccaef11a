//! An Apriori-style hash tree over candidate specs.
//!
//! The paper's prune phase (§3.1.2) uses "a hash tree structure similar to
//! that described in \[2\]" — Agrawal & Srikant's *Fast Algorithms for Mining
//! Association Rules* — to test whether every `(i-1)`-subset of an
//! `i`-attribute candidate survived the previous iteration. This module is
//! that structure: interior nodes hash one spec component per depth into a
//! fixed fanout, leaves hold small buckets that are split when they
//! overflow. A flat [`SpecSet`] built on a hash set provides the same
//! membership interface so the ablation benchmark can compare the two.

use incognito_hierarchy::LevelNo;
use incognito_table::fxhash::FxHashSet;

/// One spec component: `(attribute index, level)`.
pub type Item = (usize, LevelNo);

/// Fanout of interior nodes. Agrawal & Srikant used small fixed fanouts;
/// 8 keeps interior nodes cache-friendly for the spec sizes at play (≤ 16).
const FANOUT: usize = 8;

/// Leaf bucket capacity before splitting (if components remain to hash on).
const LEAF_CAPACITY: usize = 16;

#[derive(Debug)]
enum Node {
    Interior(Box<[Node; FANOUT]>),
    Leaf(Vec<Vec<Item>>),
}

impl Node {
    fn empty_leaf() -> Node {
        Node::Leaf(Vec::new())
    }
}

#[inline]
fn bucket_of(item: &Item) -> usize {
    // Mix both fields; the exact mix only affects balance, not correctness.
    let h = (item.0 as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(item.1 as u64);
    (h % FANOUT as u64) as usize
}

/// Membership structure used by the prune phase.
#[derive(Debug)]
pub struct HashTree {
    root: Node,
    /// Specs too short to descend to their target leaf after a split made
    /// the tree deeper than they are. The prune phase only ever stores
    /// uniform-length specs, so this stays empty there, but the structure
    /// must be correct for mixed lengths too.
    stranded: FxHashSet<Vec<Item>>,
    len: usize,
}

impl Default for HashTree {
    fn default() -> Self {
        Self::new()
    }
}

impl HashTree {
    /// An empty tree.
    pub fn new() -> Self {
        HashTree { root: Node::empty_leaf(), stranded: FxHashSet::default(), len: 0 }
    }

    /// Build a tree from an iterator of specs.
    pub fn from_specs<I: IntoIterator<Item = Vec<Item>>>(specs: I) -> Self {
        let mut t = HashTree::new();
        for s in specs {
            t.insert(s);
        }
        t
    }

    /// Number of specs stored (duplicates are not re-inserted).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no specs are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert `spec`; returns `false` if it was already present.
    pub fn insert(&mut self, spec: Vec<Item>) -> bool {
        fn insert_at(
            node: &mut Node,
            spec: Vec<Item>,
            depth: usize,
            stranded: &mut FxHashSet<Vec<Item>>,
        ) -> bool {
            match node {
                Node::Interior(children) => {
                    if depth >= spec.len() {
                        return stranded.insert(spec);
                    }
                    let b = bucket_of(&spec[depth]);
                    insert_at(&mut children[b], spec, depth + 1, stranded)
                }
                Node::Leaf(bucket) => {
                    if bucket.contains(&spec) {
                        return false;
                    }
                    bucket.push(spec);
                    // Split when overflowing, provided every resident spec
                    // still has a component at this depth to hash on.
                    if bucket.len() > LEAF_CAPACITY && bucket.iter().all(|s| s.len() > depth) {
                        let specs = std::mem::take(bucket);
                        let mut children: [Node; FANOUT] =
                            std::array::from_fn(|_| Node::empty_leaf());
                        for s in specs {
                            let b = bucket_of(&s[depth]);
                            match &mut children[b] {
                                Node::Leaf(v) => v.push(s),
                                Node::Interior(_) => unreachable!("fresh children are leaves"),
                            }
                        }
                        *node = Node::Interior(Box::new(children));
                    }
                    true
                }
            }
        }
        let inserted = insert_at(&mut self.root, spec, 0, &mut self.stranded);
        if inserted {
            self.len += 1;
        }
        inserted
    }

    /// Membership test.
    pub fn contains(&self, spec: &[Item]) -> bool {
        let mut node = &self.root;
        let mut depth = 0;
        loop {
            match node {
                Node::Interior(children) => {
                    if depth >= spec.len() {
                        // Tree split deeper than this spec's length; such
                        // specs live in the stranded set.
                        return self.stranded.contains(spec);
                    }
                    node = &children[bucket_of(&spec[depth])];
                    depth += 1;
                }
                Node::Leaf(bucket) => return bucket.iter().any(|s| s == spec),
            }
        }
    }
}

/// Flat hash-set membership structure with the same interface, for the
/// prune-structure ablation.
#[derive(Debug, Default)]
pub struct SpecSet {
    set: FxHashSet<Vec<Item>>,
}

impl SpecSet {
    /// Build from an iterator of specs.
    pub fn from_specs<I: IntoIterator<Item = Vec<Item>>>(specs: I) -> Self {
        SpecSet { set: specs.into_iter().collect() }
    }

    /// Membership test.
    pub fn contains(&self, spec: &[Item]) -> bool {
        self.set.contains(spec)
    }

    /// Number of specs stored.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(parts: &[(usize, u8)]) -> Vec<Item> {
        parts.to_vec()
    }

    #[test]
    fn insert_and_contains() {
        let mut t = HashTree::new();
        assert!(t.is_empty());
        assert!(t.insert(spec(&[(0, 1), (2, 0)])));
        assert!(!t.insert(spec(&[(0, 1), (2, 0)]))); // duplicate
        assert!(t.insert(spec(&[(0, 1), (2, 1)])));
        assert_eq!(t.len(), 2);
        assert!(t.contains(&spec(&[(0, 1), (2, 0)])));
        assert!(!t.contains(&spec(&[(0, 1), (3, 0)])));
        assert!(!t.contains(&spec(&[(0, 1)])));
    }

    #[test]
    fn splits_and_still_finds_everything() {
        let mut t = HashTree::new();
        let mut all = Vec::new();
        for a in 0..6usize {
            for b in (a + 1)..7usize {
                for l in 0..4u8 {
                    let s = spec(&[(a, l), (b, 3 - l)]);
                    all.push(s.clone());
                    t.insert(s);
                }
            }
        }
        assert_eq!(t.len(), all.len());
        for s in &all {
            assert!(t.contains(s), "missing {s:?}");
        }
        assert!(!t.contains(&spec(&[(9, 0), (10, 0)])));
    }

    #[test]
    fn mixed_lengths() {
        let mut t = HashTree::new();
        for i in 0..100usize {
            t.insert(spec(&[(i, 0)]));
        }
        t.insert(spec(&[(0, 0), (1, 0), (2, 0)]));
        assert!(t.contains(&spec(&[(57, 0)])));
        assert!(t.contains(&spec(&[(0, 0), (1, 0), (2, 0)])));
        assert!(!t.contains(&spec(&[(0, 0), (1, 0)])));
    }

    #[test]
    fn agrees_with_spec_set() {
        let specs: Vec<Vec<Item>> =
            (0..50).map(|i| spec(&[(i % 7, (i % 3) as u8), (7 + i % 5, (i % 2) as u8)])).collect();
        let t = HashTree::from_specs(specs.clone());
        let s = SpecSet::from_specs(specs.clone());
        assert_eq!(t.len(), s.len());
        for q in &specs {
            assert_eq!(t.contains(q), s.contains(q));
        }
        let absent = spec(&[(100, 0), (101, 1)]);
        assert_eq!(t.contains(&absent), s.contains(&absent));
    }
}
