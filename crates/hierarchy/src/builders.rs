//! Constructors for the generalization styles used in the paper's
//! experimental schemas (Figure 9): categorical taxonomy trees, digit
//! rounding, numeric ranges, and plain attribute suppression.

use crate::{Hierarchy, HierarchyError, ValueId};

/// A node of a categorical taxonomy tree (e.g. the Marital Status or
/// Education hierarchies of the Adults schema).
///
/// Leaves become the ground domain (in depth-first order); each interior
/// level of the tree becomes one generalization level. All leaves must sit at
/// the same depth, because full-domain generalization maps an entire domain
/// to a single more general domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaxonomyNode {
    /// Human-readable label of this node.
    pub label: String,
    /// Child nodes; empty for leaves.
    pub children: Vec<TaxonomyNode>,
}

impl TaxonomyNode {
    /// An interior node.
    pub fn node(label: impl Into<String>, children: Vec<TaxonomyNode>) -> Self {
        TaxonomyNode { label: label.into(), children }
    }

    /// A leaf value.
    pub fn leaf(label: impl Into<String>) -> Self {
        TaxonomyNode { label: label.into(), children: Vec::new() }
    }

    fn depth_of_leaves(
        &self,
        depth: usize,
        first: &mut Option<usize>,
    ) -> Result<(), HierarchyError> {
        if self.children.is_empty() {
            match *first {
                None => *first = Some(depth),
                Some(d) if d != depth => {
                    return Err(HierarchyError::UnbalancedTaxonomy {
                        expected_depth: d,
                        leaf: self.label.clone(),
                        actual_depth: depth,
                    })
                }
                Some(_) => {}
            }
            return Ok(());
        }
        for c in &self.children {
            c.depth_of_leaves(depth + 1, first)?;
        }
        Ok(())
    }
}

/// Build a [`Hierarchy`] from a balanced taxonomy tree.
///
/// The tree root becomes the single value of the top level; its label is
/// conventionally `"*"` or a category name like `"Person"` (Figure 2 f).
pub fn taxonomy(name: impl Into<String>, root: TaxonomyNode) -> Result<Hierarchy, HierarchyError> {
    let mut leaf_depth = None;
    root.depth_of_leaves(0, &mut leaf_depth)?;
    let height = leaf_depth.expect("tree has at least the root");
    // levels[l] for l in 0..=height; level `height` is the root.
    let mut levels: Vec<Vec<String>> = vec![Vec::new(); height + 1];
    let mut parent_maps: Vec<Vec<ValueId>> = vec![Vec::new(); height];

    // Depth-first walk assigning ids level by level. `stack` holds
    // (node, depth-from-root, parent-id-at-that-level).
    fn walk(
        node: &TaxonomyNode,
        depth: usize,
        height: usize,
        parent_id: Option<ValueId>,
        levels: &mut [Vec<String>],
        parent_maps: &mut [Vec<ValueId>],
    ) {
        let level = height - depth;
        let my_id = levels[level].len() as ValueId;
        levels[level].push(node.label.clone());
        if let Some(p) = parent_id {
            // parent_maps[level] maps level -> level + 1.
            parent_maps[level].push(p);
        }
        for c in &node.children {
            walk(c, depth + 1, height, Some(my_id), levels, parent_maps);
        }
    }
    walk(&root, 0, height, None, &mut levels, &mut parent_maps);
    Hierarchy::from_levels(name, levels, parent_maps)
}

/// Suppression-only hierarchy: ground values generalize directly to `"*"`
/// (height 1). Used for Gender, Race, Salary class, Quantity, Shipment, and
/// Style in the paper's schemas.
pub fn suppression(name: impl Into<String>, values: &[&str]) -> Result<Hierarchy, HierarchyError> {
    let ground: Vec<String> = values.iter().map(|s| s.to_string()).collect();
    let map = vec![0; ground.len()];
    Hierarchy::from_levels(name, vec![ground, vec!["*".into()]], vec![map])
}

/// Height-0 hierarchy for attributes that are never generalized (sensitive
/// attributes kept alongside the quasi-identifier).
pub fn identity(name: impl Into<String>, values: &[&str]) -> Result<Hierarchy, HierarchyError> {
    let ground: Vec<String> = values.iter().map(|s| s.to_string()).collect();
    Hierarchy::from_levels(name, vec![ground], vec![])
}

/// Digit-rounding hierarchy for fixed-width codes such as zipcodes: each step
/// replaces one more trailing character with `*` ("Round each digit" in
/// Figure 9). With `steps` equal to the code width the top level is full
/// suppression.
///
/// All values must have the same width and `steps` must not exceed it.
pub fn round_digits(
    name: impl Into<String>,
    values: &[&str],
    steps: usize,
) -> Result<Hierarchy, HierarchyError> {
    if values.is_empty() {
        return Err(HierarchyError::EmptyDomain);
    }
    let width = values[0].chars().count();
    for v in values {
        if v.chars().count() != width {
            return Err(HierarchyError::UnknownValue(format!(
                "value {v:?} does not have uniform width {width}"
            )));
        }
    }
    if steps > width {
        return Err(HierarchyError::LevelOutOfRange { level: steps as u8, height: width as u8 });
    }
    let rounded = |v: &str, s: usize| -> String {
        let keep: String = v.chars().take(width - s).collect();
        format!("{keep}{}", "*".repeat(s))
    };
    build_derived(name, values, (1..=steps).map(|s| move |v: &str| rounded(v, s)))
}

/// Numeric-range hierarchy: the ground domain is the distinct numeric values;
/// each width `w` in `widths` adds a level of `[lo, lo+w)` intervals aligned
/// to multiples of `w` (the "5-, 10-, 20-year ranges" of the Adults Age
/// attribute). If `suppress_top` is set, a final `*` level is appended, which
/// matches Figure 9's height of 4 for Age.
///
/// Each width must be a multiple of the previous one so the intervals nest,
/// as full-domain generalization requires.
pub fn ranges(
    name: impl Into<String>,
    values: &[i64],
    widths: &[i64],
    suppress_top: bool,
) -> Result<Hierarchy, HierarchyError> {
    if values.is_empty() {
        return Err(HierarchyError::EmptyDomain);
    }
    let mut prev = 1i64;
    for &w in widths {
        if w <= 0 || w % prev != 0 {
            return Err(HierarchyError::UnknownValue(format!(
                "range width {w} does not nest over {prev}"
            )));
        }
        prev = w;
    }
    let mut ground: Vec<i64> = values.to_vec();
    ground.sort_unstable();
    ground.dedup();
    let ground_labels: Vec<String> = ground.iter().map(|v| v.to_string()).collect();
    let ground_refs: Vec<&str> = ground_labels.iter().map(|s| s.as_str()).collect();

    type Derivation = Box<dyn Fn(&str) -> String>;
    let bucket = |v: i64, w: i64| -> i64 { v.div_euclid(w) * w };
    let mut derivations: Vec<Derivation> = Vec::new();
    for &w in widths {
        derivations.push(Box::new(move |s: &str| {
            let v: i64 = s.parse().expect("ground labels are integers");
            let lo = bucket(v, w);
            format!("[{}-{})", lo, lo + w)
        }));
    }
    if suppress_top {
        derivations.push(Box::new(|_s: &str| "*".to_string()));
    }
    // The derivation functions operate on *ground* labels; build_derived
    // handles deduplication and parent-map construction level by level.
    build_derived(name, &ground_refs, derivations.into_iter())
}

/// Shared construction for hierarchies where each level's label is a function
/// of the ground label. Consecutive levels must nest: two ground values with
/// equal labels at level `l` must also have equal labels at level `l + 1`.
fn build_derived<F>(
    name: impl Into<String>,
    ground: &[&str],
    derivations: impl Iterator<Item = F>,
) -> Result<Hierarchy, HierarchyError>
where
    F: Fn(&str) -> String,
{
    let ground_labels: Vec<String> = ground.iter().map(|s| s.to_string()).collect();
    let mut levels: Vec<Vec<String>> = vec![ground_labels];
    let mut parent_maps: Vec<Vec<ValueId>> = Vec::new();
    // prev_ground_ids[g] = id of ground value g at the previous level.
    let mut prev_ids: Vec<ValueId> = (0..ground.len() as u32).collect();

    for derive in derivations {
        let mut labels: Vec<String> = Vec::new();
        let mut index: std::collections::HashMap<String, ValueId> =
            std::collections::HashMap::new();
        let mut cur_ids: Vec<ValueId> = Vec::with_capacity(ground.len());
        for g in ground {
            let lbl = derive(g);
            let id = *index.entry(lbl.clone()).or_insert_with(|| {
                labels.push(lbl);
                (labels.len() - 1) as ValueId
            });
            cur_ids.push(id);
        }
        // Build the parent map prev-level -> current-level and check nesting.
        let prev_size = levels.last().expect("nonempty").len();
        let mut map: Vec<Option<ValueId>> = vec![None; prev_size];
        for (g, (&pid, &cid)) in prev_ids.iter().zip(cur_ids.iter()).enumerate() {
            match map[pid as usize] {
                None => map[pid as usize] = Some(cid),
                Some(existing) if existing != cid => {
                    return Err(HierarchyError::UnknownValue(format!(
                        "derivation does not nest: ground {:?} splits level value",
                        ground[g]
                    )));
                }
                Some(_) => {}
            }
        }
        let map: Vec<ValueId> =
            map.into_iter().map(|m| m.expect("every prev value has a ground witness")).collect();
        parent_maps.push(map);
        levels.push(labels);
        prev_ids = cur_ids;
    }
    if levels.len() == 1 {
        return Err(HierarchyError::NoGeneralizations);
    }
    Hierarchy::from_levels(name, levels, parent_maps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppression_builder() {
        // Figure 2 (e, f): Sex generalizes to Person/'*'.
        let s = suppression("Sex", &["Male", "Female"]).unwrap();
        assert_eq!(s.height(), 1);
        assert_eq!(s.level_size(1), 1);
        assert_eq!(s.generalize(0, 1), s.generalize(1, 1));
    }

    #[test]
    fn identity_builder() {
        let h = identity("Disease", &["Flu", "Hepatitis"]).unwrap();
        assert_eq!(h.height(), 0);
    }

    #[test]
    fn round_digits_zipcode() {
        let z = round_digits("Zipcode", &["53715", "53710", "53706", "53703"], 5).unwrap();
        assert_eq!(z.height(), 5);
        let g = z.ground_id("53715").unwrap();
        assert_eq!(z.label(1, z.generalize(g, 1)), "5371*");
        assert_eq!(z.label(2, z.generalize(g, 2)), "537**");
        assert_eq!(z.label(5, z.generalize(g, 5)), "*****");
        assert_eq!(z.level_size(5), 1);
        // {53715, 53710} -> 5371*, {53706, 53703} -> 5370* at level 1.
        assert_eq!(z.level_size(1), 2);
        assert_eq!(z.level_size(2), 1);
    }

    #[test]
    fn round_digits_rejects_ragged_values() {
        assert!(round_digits("z", &["123", "4567"], 1).is_err());
        assert!(round_digits("z", &["123"], 4).is_err());
    }

    #[test]
    fn ranges_age() {
        let ages: Vec<i64> = (17..=90).collect(); // 74 distinct, like Adults
        let h = ranges("Age", &ages, &[5, 10, 20], true).unwrap();
        assert_eq!(h.height(), 4);
        let id30 = h.ground_id("30").unwrap();
        assert_eq!(h.label(1, h.generalize(id30, 1)), "[30-35)");
        assert_eq!(h.label(2, h.generalize(id30, 2)), "[30-40)");
        assert_eq!(h.label(3, h.generalize(id30, 3)), "[20-40)");
        assert_eq!(h.label(4, h.generalize(id30, 4)), "*");
        let id34 = h.ground_id("34").unwrap();
        assert_eq!(h.generalize(id30, 1), h.generalize(id34, 1));
        let id35 = h.ground_id("35").unwrap();
        assert_ne!(h.generalize(id30, 1), h.generalize(id35, 1));
        assert_eq!(h.generalize(id30, 2), h.generalize(id35, 2));
    }

    #[test]
    fn ranges_reject_non_nesting_widths() {
        assert!(ranges("x", &[1, 2, 3], &[4, 6], false).is_err());
        assert!(ranges("x", &[1], &[0], false).is_err());
    }

    #[test]
    fn ranges_handle_negatives() {
        let h = ranges("t", &[-7, -3, 2, 9], &[5], false).unwrap();
        let m7 = h.ground_id("-7").unwrap();
        assert_eq!(h.label(1, h.generalize(m7, 1)), "[-10--5)");
    }

    #[test]
    fn taxonomy_builder_balanced() {
        // A small work-class style tree of height 2.
        let root = TaxonomyNode::node(
            "*",
            vec![
                TaxonomyNode::node(
                    "employed",
                    vec![TaxonomyNode::leaf("private"), TaxonomyNode::leaf("gov")],
                ),
                TaxonomyNode::node(
                    "not-employed",
                    vec![TaxonomyNode::leaf("unemployed"), TaxonomyNode::leaf("retired")],
                ),
            ],
        );
        let h = taxonomy("WorkClass", root).unwrap();
        assert_eq!(h.height(), 2);
        assert_eq!(h.ground_size(), 4);
        assert_eq!(h.level_size(1), 2);
        assert_eq!(h.level_size(2), 1);
        let private = h.ground_id("private").unwrap();
        let gov = h.ground_id("gov").unwrap();
        let retired = h.ground_id("retired").unwrap();
        assert_eq!(h.generalize(private, 1), h.generalize(gov, 1));
        assert_ne!(h.generalize(private, 1), h.generalize(retired, 1));
        assert_eq!(h.generalize(private, 2), h.generalize(retired, 2));
        assert_eq!(h.label(1, h.generalize(private, 1)), "employed");
    }

    #[test]
    fn taxonomy_rejects_unbalanced() {
        let root = TaxonomyNode::node(
            "*",
            vec![
                TaxonomyNode::leaf("shallow"),
                TaxonomyNode::node("deep", vec![TaxonomyNode::leaf("leafy")]),
            ],
        );
        let err = taxonomy("x", root).unwrap_err();
        assert!(matches!(err, HierarchyError::UnbalancedTaxonomy { .. }));
    }

    #[test]
    fn derived_levels_nest() {
        // Rounding by character always nests; ranges with nesting widths nest.
        let z = round_digits("z", &["11", "12", "21"], 2).unwrap();
        for g in 0..z.ground_size() as u32 {
            let l1 = z.generalize(g, 1);
            let via = z.parent(1, l1);
            assert_eq!(via, z.generalize(g, 2));
        }
    }
}
