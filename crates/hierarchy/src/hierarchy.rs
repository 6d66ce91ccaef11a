use std::collections::HashMap;

use crate::{HierarchyError, LevelNo, ValueId};

/// One domain in a generalization chain: the dictionary of its values.
///
/// Level 0 holds the ground (most specific) domain; higher levels hold the
/// generalized domains, e.g. `Z1 = {5371*, 5370*}` in Figure 2 of the paper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Level {
    labels: Vec<String>,
}

impl Level {
    /// Number of distinct values in this domain.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the domain is empty (never true for a valid hierarchy).
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Label of value `id`.
    pub fn label(&self, id: ValueId) -> &str {
        &self.labels[id as usize]
    }

    /// All labels, in id order.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }
}

/// A domain generalization hierarchy (DGH) for one attribute.
///
/// Conceptually this is the chain `D0 <D D1 <D ... <D Dh` from Section 2 of
/// the paper plus the value generalization functions `γ` between consecutive
/// levels, as in Figure 2. `height()` is `h`, the number of generalization
/// steps; the ground domain is level 0.
///
/// Internally every level's values are dictionary-encoded as dense `u32` ids
/// and `γ` is a parent lookup table. The composed maps `γ⁺ : D0 → Dℓ` are
/// precomputed at construction so that generalizing an entire column to any
/// level is a single gather per row — this is the in-memory analogue of the
/// materialized dimension tables the paper used in its relational star schema
/// (Figure 4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hierarchy {
    name: String,
    levels: Vec<Level>,
    /// `parent[l][id]` = id of the level-`l+1` generalization of value `id`
    /// at level `l`. One entry per level except the top.
    parent: Vec<Vec<ValueId>>,
    /// `ground_to[l][gid]` = id at level `l` of ground value `gid`
    /// (γ⁺ composed; `ground_to\[0\]` is the identity).
    ground_to: Vec<Vec<ValueId>>,
    /// Lookup from ground label to ground id.
    ground_index: HashMap<String, ValueId>,
    /// `between[from][to - from][id_at_from]` = id at `to`: every composed
    /// γ⁺ gather array, materialized once at construction. Rollup asks for
    /// these once per checked lattice node, so rebuilding them per call
    /// (composing the parent maps each time) was measurable search-loop
    /// overhead.
    between: Vec<Vec<Vec<ValueId>>>,
}

impl Hierarchy {
    /// Build a hierarchy from explicit level dictionaries and parent maps.
    ///
    /// `levels\[0\]` is the ground domain. `parent_maps[l]` maps each id of
    /// `levels[l]` to an id of `levels[l + 1]`; there must be exactly
    /// `levels.len() - 1` maps. Every generalized value must be the parent of
    /// at least one value below it (γ is onto), matching the definition of a
    /// value generalization function.
    pub fn from_levels(
        name: impl Into<String>,
        levels: Vec<Vec<String>>,
        parent_maps: Vec<Vec<ValueId>>,
    ) -> Result<Self, HierarchyError> {
        let name = name.into();
        if levels.is_empty() || levels[0].is_empty() {
            return Err(HierarchyError::EmptyDomain);
        }
        if levels.len() == 1 && !parent_maps.is_empty() {
            return Err(HierarchyError::ParentMapLength {
                level: 0,
                expected: 0,
                actual: parent_maps[0].len(),
            });
        }
        if parent_maps.len() + 1 != levels.len() {
            return Err(HierarchyError::ParentMapLength {
                level: parent_maps.len() as u8,
                expected: levels.len() - 1,
                actual: parent_maps.len(),
            });
        }

        // Validate per-level label uniqueness and build the level structs.
        let mut built_levels = Vec::with_capacity(levels.len());
        for (lno, labels) in levels.into_iter().enumerate() {
            let mut seen = HashMap::with_capacity(labels.len());
            for label in &labels {
                if seen.insert(label.clone(), ()).is_some() {
                    return Err(HierarchyError::DuplicateLabel {
                        level: lno as u8,
                        label: label.clone(),
                    });
                }
            }
            built_levels.push(Level { labels });
        }

        // Validate the parent maps: right length, in-range, onto.
        for (lno, map) in parent_maps.iter().enumerate() {
            let src = built_levels[lno].len();
            let dst = built_levels[lno + 1].len();
            if map.len() != src {
                return Err(HierarchyError::ParentMapLength {
                    level: lno as u8,
                    expected: src,
                    actual: map.len(),
                });
            }
            let mut covered = vec![false; dst];
            for (child, &p) in map.iter().enumerate() {
                if (p as usize) >= dst {
                    return Err(HierarchyError::ParentOutOfRange {
                        level: lno as u8,
                        child: child as u32,
                        parent: p,
                    });
                }
                covered[p as usize] = true;
            }
            if let Some(orphan) = covered.iter().position(|c| !c) {
                return Err(HierarchyError::UnreachableValue {
                    level: (lno + 1) as u8,
                    id: orphan as u32,
                });
            }
        }

        // Precompute γ⁺ from the ground level to every level.
        let ground_size = built_levels[0].len();
        let mut ground_to = Vec::with_capacity(built_levels.len());
        ground_to.push((0..ground_size as u32).collect::<Vec<_>>());
        for map in &parent_maps {
            let prev = ground_to.last().expect("at least identity level");
            let next: Vec<ValueId> = prev.iter().map(|&id| map[id as usize]).collect();
            ground_to.push(next);
        }

        let ground_index = built_levels[0]
            .labels
            .iter()
            .enumerate()
            .map(|(i, l)| (l.clone(), i as ValueId))
            .collect();

        // Precompute every composed γ⁺ gather array `from → to` by
        // extending `from → to-1` with one parent-map step.
        let mut between: Vec<Vec<Vec<ValueId>>> = Vec::with_capacity(built_levels.len());
        for from in 0..built_levels.len() {
            let mut maps = Vec::with_capacity(built_levels.len() - from);
            maps.push((0..built_levels[from].len() as u32).collect::<Vec<_>>());
            for to in from + 1..built_levels.len() {
                let step = &parent_maps[to - 1];
                let prev = maps.last().expect("identity map seeded");
                maps.push(prev.iter().map(|&id| step[id as usize]).collect());
            }
            between.push(maps);
        }

        Ok(Hierarchy {
            name,
            levels: built_levels,
            parent: parent_maps,
            ground_to,
            ground_index,
            between,
        })
    }

    /// Attribute name this hierarchy generalizes.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Height `h` of the hierarchy: the number of generalization steps above
    /// the ground domain. A bare suppression hierarchy has height 1.
    pub fn height(&self) -> LevelNo {
        (self.levels.len() - 1) as LevelNo
    }

    /// Number of levels, i.e. `height() + 1`.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// The domain at `level`.
    ///
    /// # Panics
    /// Panics if `level > height()`.
    pub fn level(&self, level: LevelNo) -> &Level {
        &self.levels[level as usize]
    }

    /// Number of distinct values at `level`.
    pub fn level_size(&self, level: LevelNo) -> usize {
        self.levels[level as usize].len()
    }

    /// Number of distinct ground values.
    pub fn ground_size(&self) -> usize {
        self.levels[0].len()
    }

    /// Ground id of `label`, if present.
    pub fn ground_id(&self, label: &str) -> Option<ValueId> {
        self.ground_index.get(label).copied()
    }

    /// γ⁺: map ground value `ground` to its generalization at `level`.
    ///
    /// # Panics
    /// Panics if `level > height()` or `ground` is out of range.
    #[inline]
    pub fn generalize(&self, ground: ValueId, level: LevelNo) -> ValueId {
        self.ground_to[level as usize][ground as usize]
    }

    /// The full γ⁺ map from the ground domain to `level`, as a gather array.
    ///
    /// `map_to_level(0)` is the identity.
    #[inline]
    pub fn map_to_level(&self, level: LevelNo) -> &[ValueId] {
        &self.ground_to[level as usize]
    }

    /// γ between consecutive levels: map `id` at `level` to `level + 1`.
    ///
    /// # Panics
    /// Panics if `level >= height()` or `id` is out of range.
    #[inline]
    pub fn parent(&self, level: LevelNo, id: ValueId) -> ValueId {
        self.parent[level as usize][id as usize]
    }

    /// The γ map from `level` to `level + 1` as a gather array.
    #[inline]
    pub fn parent_map(&self, level: LevelNo) -> &[ValueId] {
        &self.parent[level as usize]
    }

    /// Map `id` at `from` to its (possibly implied) generalization at `to`.
    ///
    /// Returns an error unless `from <= to <= height()`.
    pub fn map_between(
        &self,
        from: LevelNo,
        to: LevelNo,
        id: ValueId,
    ) -> Result<ValueId, HierarchyError> {
        if to > self.height() || from > to {
            return Err(HierarchyError::LevelOutOfRange { level: to, height: self.height() });
        }
        let mut cur = id;
        for l in from..to {
            cur = self.parent(l, cur);
        }
        Ok(cur)
    }

    /// The full γ⁺ gather array from `from` to `to`:
    /// `result[id_at_from] = id_at_to`. This is how the Rollup Property is
    /// executed over frequency sets — the in-memory analogue of joining a
    /// frequency set with a dimension table. All `(from, to)` pairs are
    /// materialized at construction, so this is an O(1) borrow.
    pub fn between_map(&self, from: LevelNo, to: LevelNo) -> Result<&[ValueId], HierarchyError> {
        if to > self.height() || from > to {
            return Err(HierarchyError::LevelOutOfRange { level: to, height: self.height() });
        }
        Ok(&self.between[from as usize][(to - from) as usize])
    }

    /// Label of value `id` at `level`.
    ///
    /// # Panics
    /// Panics if out of range.
    pub fn label(&self, level: LevelNo, id: ValueId) -> &str {
        self.levels[level as usize].label(id)
    }

    /// Ground values whose γ⁺ image at `level` is `id` — the leaves of the
    /// value-generalization subtree rooted at that value (Figure 2 b/d/f).
    pub fn subtree_leaves(&self, level: LevelNo, id: ValueId) -> Vec<ValueId> {
        self.ground_to[level as usize]
            .iter()
            .enumerate()
            .filter_map(|(g, &v)| (v == id).then_some(g as ValueId))
            .collect()
    }

    /// Direct children of value `id` at `level` (ids at `level - 1`).
    ///
    /// Returns an empty vector for `level == 0`.
    pub fn children(&self, level: LevelNo, id: ValueId) -> Vec<ValueId> {
        if level == 0 {
            return Vec::new();
        }
        self.parent[(level - 1) as usize]
            .iter()
            .enumerate()
            .filter_map(|(c, &p)| (p == id).then_some(c as ValueId))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zip() -> Hierarchy {
        // Figure 2 (a, b): Z0 = {53715, 53710, 53706, 53703}.
        Hierarchy::from_levels(
            "Zipcode",
            vec![
                vec!["53715".into(), "53710".into(), "53706".into(), "53703".into()],
                vec!["5371*".into(), "5370*".into()],
                vec!["537**".into()],
            ],
            vec![vec![0, 0, 1, 1], vec![0, 0]],
        )
        .unwrap()
    }

    #[test]
    fn basic_accessors() {
        let z = zip();
        assert_eq!(z.name(), "Zipcode");
        assert_eq!(z.height(), 2);
        assert_eq!(z.num_levels(), 3);
        assert_eq!(z.ground_size(), 4);
        assert_eq!(z.level_size(1), 2);
        assert_eq!(z.level_size(2), 1);
        assert_eq!(z.ground_id("53706"), Some(2));
        assert_eq!(z.ground_id("99999"), None);
    }

    #[test]
    fn generalization_composes() {
        let z = zip();
        let g = z.ground_id("53715").unwrap();
        assert_eq!(z.label(1, z.generalize(g, 1)), "5371*");
        assert_eq!(z.label(2, z.generalize(g, 2)), "537**");
        // γ⁺ equals repeated γ.
        for ground in 0..z.ground_size() as u32 {
            let via_parent = z.parent(1, z.parent(0, ground));
            assert_eq!(z.generalize(ground, 2), via_parent);
        }
    }

    #[test]
    fn map_between_levels() {
        let z = zip();
        let at1 = z.generalize(0, 1);
        assert_eq!(z.map_between(1, 2, at1).unwrap(), 0);
        assert_eq!(z.map_between(0, 0, 3).unwrap(), 3);
        assert!(z.map_between(2, 1, 0).is_err());
        assert!(z.map_between(0, 3, 0).is_err());
    }

    #[test]
    fn subtree_and_children() {
        let z = zip();
        let mut leaves = z.subtree_leaves(1, 0);
        leaves.sort_unstable();
        assert_eq!(leaves, vec![0, 1]); // 53715, 53710 under 5371*
        assert_eq!(z.subtree_leaves(2, 0).len(), 4);
        assert_eq!(z.children(1, 1), vec![2, 3]);
        assert!(z.children(0, 0).is_empty());
    }

    #[test]
    fn between_map_composes_gammas() {
        let z = zip();
        assert_eq!(z.between_map(0, 1).unwrap(), vec![0, 0, 1, 1]);
        assert_eq!(z.between_map(1, 2).unwrap(), vec![0, 0]);
        assert_eq!(z.between_map(0, 2).unwrap(), vec![0, 0, 0, 0]);
        assert_eq!(z.between_map(1, 1).unwrap(), vec![0, 1]);
        assert!(z.between_map(2, 1).is_err());
    }

    #[test]
    fn identity_map_at_level_zero() {
        let z = zip();
        assert_eq!(z.map_to_level(0), &[0, 1, 2, 3]);
    }

    #[test]
    fn rejects_empty_domain() {
        let err = Hierarchy::from_levels("x", vec![], vec![]).unwrap_err();
        assert_eq!(err, HierarchyError::EmptyDomain);
        let err = Hierarchy::from_levels("x", vec![vec![]], vec![]).unwrap_err();
        assert_eq!(err, HierarchyError::EmptyDomain);
    }

    #[test]
    fn rejects_duplicate_labels() {
        let err = Hierarchy::from_levels(
            "x",
            vec![vec!["a".into(), "a".into()], vec!["*".into()]],
            vec![vec![0, 0]],
        )
        .unwrap_err();
        assert!(matches!(err, HierarchyError::DuplicateLabel { level: 0, .. }));
    }

    #[test]
    fn rejects_bad_parent_maps() {
        // Wrong length.
        let err = Hierarchy::from_levels(
            "x",
            vec![vec!["a".into(), "b".into()], vec!["*".into()]],
            vec![vec![0]],
        )
        .unwrap_err();
        assert!(matches!(err, HierarchyError::ParentMapLength { .. }));
        // Out of range parent.
        let err = Hierarchy::from_levels(
            "x",
            vec![vec!["a".into(), "b".into()], vec!["*".into()]],
            vec![vec![0, 5]],
        )
        .unwrap_err();
        assert!(matches!(err, HierarchyError::ParentOutOfRange { .. }));
        // Orphan generalized value (γ not onto).
        let err = Hierarchy::from_levels(
            "x",
            vec![vec!["a".into(), "b".into()], vec!["p".into(), "q".into()]],
            vec![vec![0, 0]],
        )
        .unwrap_err();
        assert!(matches!(err, HierarchyError::UnreachableValue { level: 1, id: 1 }));
        // Missing map entirely.
        let err = Hierarchy::from_levels("x", vec![vec!["a".into()], vec!["*".into()]], vec![])
            .unwrap_err();
        assert!(matches!(err, HierarchyError::ParentMapLength { .. }));
    }

    #[test]
    fn single_level_hierarchy_allowed() {
        // Height-0 chains are used for attributes that are never generalized.
        let h = Hierarchy::from_levels("id", vec![vec!["a".into(), "b".into()]], vec![]).unwrap();
        assert_eq!(h.height(), 0);
        assert_eq!(h.generalize(1, 0), 1);
    }
}
