use std::collections::BTreeMap;

use incognito_hierarchy::LevelNo;
use incognito_table::fxhash::FxHashMap;
use incognito_table::{GroupSpec, Schema, TableError};

/// Identifier of a node within one [`CandidateGraph`] (the `ID` column of
/// the paper's Nodes relation, Figure 6).
pub type NodeId = u32;

/// One candidate multi-attribute generalization: the `(dim, index)` pairs of
/// the paper's Nodes relation, sorted by dimension (attribute index), plus
/// the ids of the two `(i-1)`-nodes joined to produce it (`parent1`,
/// `parent2`; `None` in the first iteration).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSpec {
    /// `(attribute index, generalization level)` pairs, strictly increasing
    /// by attribute index.
    pub parts: Vec<(usize, LevelNo)>,
    /// First join parent in the previous candidate graph.
    pub parent1: Option<NodeId>,
    /// Second join parent in the previous candidate graph.
    pub parent2: Option<NodeId>,
}

impl NodeSpec {
    /// The generalization height: the sum of the node's levels, i.e. the sum
    /// of the distance vector from the all-zeros node (§2).
    pub fn height(&self) -> u32 {
        self.parts.iter().map(|&(_, l)| l as u32).sum()
    }

    /// The attribute indices (the node's "family" — which QI subset it
    /// generalizes).
    pub fn attr_set(&self) -> Vec<usize> {
        self.parts.iter().map(|&(a, _)| a).collect()
    }

    /// The levels, in attribute order.
    pub fn levels(&self) -> Vec<LevelNo> {
        self.parts.iter().map(|&(_, l)| l).collect()
    }

    /// Convert to a [`GroupSpec`] for frequency-set computation.
    pub fn to_group_spec(&self) -> Result<GroupSpec, TableError> {
        GroupSpec::new(self.parts.clone())
    }

    /// True if `other` is a (direct or implied) multi-attribute
    /// generalization of `self`: same attribute set, every level ≥, and at
    /// least one strictly greater.
    pub fn is_generalized_by(&self, other: &NodeSpec) -> bool {
        if self.parts.len() != other.parts.len() {
            return false;
        }
        let mut strict = false;
        for (&(a, la), &(b, lb)) in self.parts.iter().zip(&other.parts) {
            if a != b || lb < la {
                return false;
            }
            if lb > la {
                strict = true;
            }
        }
        strict
    }
}

/// A candidate generalization graph `(Cᵢ, Eᵢ)`: the in-memory analogue of
/// the paper's Nodes and Edges relations (Figure 6).
#[derive(Debug, Clone)]
pub struct CandidateGraph {
    /// Number of attributes per node (the iteration number `i`).
    arity: usize,
    nodes: Vec<NodeSpec>,
    edges: Vec<(NodeId, NodeId)>,
    /// Outgoing adjacency (direct generalizations of each node).
    out_adj: Vec<Vec<NodeId>>,
    /// Number of incoming edges per node (0 ⇒ root).
    in_degree: Vec<u32>,
}

impl CandidateGraph {
    /// Assemble a graph from nodes and edges, building adjacency.
    pub fn new(arity: usize, nodes: Vec<NodeSpec>, edges: Vec<(NodeId, NodeId)>) -> Self {
        let mut out_adj = vec![Vec::new(); nodes.len()];
        let mut in_degree = vec![0u32; nodes.len()];
        for &(s, e) in &edges {
            out_adj[s as usize].push(e);
            in_degree[e as usize] += 1;
        }
        for adj in &mut out_adj {
            adj.sort_unstable();
        }
        CandidateGraph { arity, nodes, edges, out_adj, in_degree }
    }

    /// `C₁`/`E₁`: one node per (attribute, level) of every quasi-identifier
    /// attribute's hierarchy, with the hierarchy chain edges.
    pub fn initial(schema: &Schema, qi: &[usize]) -> Self {
        let mut nodes = Vec::new();
        let mut edges = Vec::new();
        for &a in qi {
            let h = schema.hierarchy(a);
            let base = nodes.len() as NodeId;
            for l in 0..=h.height() {
                nodes.push(NodeSpec { parts: vec![(a, l)], parent1: None, parent2: None });
                if l > 0 {
                    edges.push((base + (l - 1) as NodeId, base + l as NodeId));
                }
            }
        }
        CandidateGraph::new(1, nodes, edges)
    }

    /// The complete multi-attribute generalization lattice over the full
    /// quasi-identifier (Figure 3): every combination of levels, with the
    /// one-step direct generalization edges. Used by the baseline
    /// algorithms, which do not perform a-priori pruning.
    pub fn full_lattice(schema: &Schema, qi: &[usize]) -> Self {
        let heights: Vec<LevelNo> = qi.iter().map(|&a| schema.hierarchy(a).height()).collect();
        // Enumerate level vectors in mixed-radix order; index arithmetic
        // gives each node's id directly.
        let mut radix_suffix = vec![1usize; qi.len() + 1];
        for i in (0..qi.len()).rev() {
            radix_suffix[i] = radix_suffix[i + 1] * (heights[i] as usize + 1);
        }
        let total = radix_suffix[0];
        let mut nodes = Vec::with_capacity(total);
        let mut edges = Vec::new();
        let mut levels = vec![0u8; qi.len()];
        for id in 0..total {
            // Decode `id` into its level vector.
            let mut rem = id;
            for i in 0..qi.len() {
                levels[i] = (rem / radix_suffix[i + 1]) as u8;
                rem %= radix_suffix[i + 1];
            }
            nodes.push(NodeSpec {
                parts: qi.iter().copied().zip(levels.iter().copied()).collect(),
                parent1: None,
                parent2: None,
            });
            // Direct generalizations: +1 in exactly one component.
            for i in 0..qi.len() {
                if levels[i] < heights[i] {
                    edges.push((id as NodeId, (id + radix_suffix[i + 1]) as NodeId));
                }
            }
        }
        CandidateGraph::new(qi.len(), nodes, edges)
    }

    /// Number of attributes per node.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The node with id `id`.
    pub fn node(&self, id: NodeId) -> &NodeSpec {
        &self.nodes[id as usize]
    }

    /// All nodes, indexed by id.
    pub fn nodes(&self) -> &[NodeSpec] {
        &self.nodes
    }

    /// All direct-generalization edges.
    pub fn edges(&self) -> &[(NodeId, NodeId)] {
        &self.edges
    }

    /// Ids of the direct generalizations of `id` (outgoing edges).
    pub fn direct_generalizations(&self, id: NodeId) -> &[NodeId] {
        &self.out_adj[id as usize]
    }

    /// Roots: nodes that are not the direct generalization of any other node
    /// in the graph (no incoming edge). The BFS starts from these.
    pub fn roots(&self) -> Vec<NodeId> {
        (0..self.nodes.len() as NodeId).filter(|&n| self.in_degree[n as usize] == 0).collect()
    }

    /// Group node ids by family (attribute set). Iteration order is
    /// deterministic (sorted by attribute set).
    pub fn families(&self) -> BTreeMap<Vec<usize>, Vec<NodeId>> {
        let mut fam: BTreeMap<Vec<usize>, Vec<NodeId>> = BTreeMap::new();
        for (id, n) in self.nodes.iter().enumerate() {
            fam.entry(n.attr_set()).or_default().push(id as NodeId);
        }
        fam
    }

    /// Greatest lower bound of a set of nodes from the same family: the
    /// component-wise minimum of their level vectors. This is the
    /// "super-root" of §3.3.1 — it need not itself be a node of the graph.
    ///
    /// Returns `None` if `ids` is empty or the nodes span different families.
    pub fn family_glb(&self, ids: &[NodeId]) -> Option<NodeSpec> {
        let first = self.node(*ids.first()?);
        let mut parts = first.parts.clone();
        for &id in &ids[1..] {
            let n = self.node(id);
            if n.parts.len() != parts.len() {
                return None;
            }
            for (acc, &(a, l)) in parts.iter_mut().zip(&n.parts) {
                if acc.0 != a {
                    return None;
                }
                acc.1 = acc.1.min(l);
            }
        }
        Some(NodeSpec { parts, parent1: None, parent2: None })
    }

    /// Look up a node id by its `(attribute, level)` parts.
    pub fn find(&self, parts: &[(usize, LevelNo)]) -> Option<NodeId> {
        self.nodes.iter().position(|n| n.parts == parts).map(|p| p as NodeId)
    }

    /// Build a spec → id index for the whole graph.
    pub fn spec_index(&self) -> FxHashMap<Vec<(usize, LevelNo)>, NodeId> {
        self.nodes.iter().enumerate().map(|(id, n)| (n.parts.clone(), id as NodeId)).collect()
    }

    /// Render the graph in Graphviz DOT form, labelling each node
    /// `⟨Name:level, …⟩` using `schema`'s attribute names — handy for
    /// eyeballing the Figure 3/5/7 lattices (`dot -Tsvg`).
    pub fn to_dot(&self, schema: &Schema) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("digraph generalization_lattice {\n  rankdir=BT;\n");
        for (id, node) in self.nodes.iter().enumerate() {
            let label: Vec<String> = node
                .parts
                .iter()
                .map(|&(a, l)| format!("{}:{}", schema.attribute(a).name(), l))
                .collect();
            let _ = writeln!(out, "  n{id} [label=\"⟨{}⟩\"];", label.join(", "));
        }
        for &(s, e) in &self.edges {
            let _ = writeln!(out, "  n{s} -> n{e};");
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incognito_hierarchy::builders;
    use incognito_table::Attribute;
    use std::sync::Arc;

    fn sz_schema() -> Arc<Schema> {
        Schema::new(vec![
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
    fn initial_graph_is_the_hierarchy_chains() {
        let s = sz_schema();
        let g = CandidateGraph::initial(&s, &[0, 1]);
        assert_eq!(g.arity(), 1);
        assert_eq!(g.num_nodes(), 2 + 3); // S0,S1 + Z0,Z1,Z2
        assert_eq!(g.num_edges(), 1 + 2);
        let roots = g.roots();
        assert_eq!(roots.len(), 2);
        for r in roots {
            assert_eq!(g.node(r).height(), 0);
        }
        let s0 = g.find(&[(0, 0)]).unwrap();
        let s1 = g.find(&[(0, 1)]).unwrap();
        assert_eq!(g.direct_generalizations(s0), &[s1]);
        assert!(g.direct_generalizations(s1).is_empty());
    }

    #[test]
    fn full_lattice_matches_figure3() {
        // Figure 3 (a): the ⟨Sex, Zipcode⟩ lattice has 2 × 3 = 6 nodes and
        // 7 edges.
        let s = sz_schema();
        let g = CandidateGraph::full_lattice(&s, &[0, 1]);
        assert_eq!(g.num_nodes(), 6);
        assert_eq!(g.num_edges(), 7);
        assert_eq!(g.roots(), vec![0]);
        let bottom = g.node(0);
        assert_eq!(bottom.parts, vec![(0, 0), (1, 0)]);
        assert_eq!(bottom.height(), 0);
        let top = g.find(&[(0, 1), (1, 2)]).unwrap();
        assert!(g.direct_generalizations(top).is_empty());
        assert_eq!(g.node(top).height(), 3);
        // ⟨S1, Z1⟩ has height 2, per §2.
        let s1z1 = g.find(&[(0, 1), (1, 1)]).unwrap();
        assert_eq!(g.node(s1z1).height(), 2);
        // Edges go up by exactly one level in one attribute.
        for &(a, b) in g.edges() {
            let (na, nb) = (g.node(a), g.node(b));
            assert!(na.is_generalized_by(nb));
            assert_eq!(na.height() + 1, nb.height());
        }
    }

    #[test]
    fn generalization_partial_order() {
        let s = sz_schema();
        let g = CandidateGraph::full_lattice(&s, &[0, 1]);
        let s0z0 = g.node(g.find(&[(0, 0), (1, 0)]).unwrap()).clone();
        let s0z2 = g.node(g.find(&[(0, 0), (1, 2)]).unwrap()).clone();
        let s1z0 = g.node(g.find(&[(0, 1), (1, 0)]).unwrap()).clone();
        assert!(s0z0.is_generalized_by(&s0z2));
        assert!(!s0z2.is_generalized_by(&s0z0));
        assert!(!s0z2.is_generalized_by(&s1z0)); // incomparable
        assert!(!s0z0.is_generalized_by(&s0z0)); // strict
        let single = NodeSpec { parts: vec![(0, 1)], parent1: None, parent2: None };
        assert!(!s0z0.is_generalized_by(&single)); // different arity
    }

    #[test]
    fn families_and_glb() {
        let s = sz_schema();
        let g = CandidateGraph::full_lattice(&s, &[0, 1]);
        let fam = g.families();
        assert_eq!(fam.len(), 1);
        let ids = &fam[&vec![0usize, 1]];
        assert_eq!(ids.len(), 6);
        let a = g.find(&[(0, 1), (1, 0)]).unwrap();
        let b = g.find(&[(0, 0), (1, 2)]).unwrap();
        let glb = g.family_glb(&[a, b]).unwrap();
        assert_eq!(glb.parts, vec![(0, 0), (1, 0)]);
        assert!(g.family_glb(&[]).is_none());
    }

    #[test]
    fn spec_index_roundtrips() {
        let s = sz_schema();
        let g = CandidateGraph::full_lattice(&s, &[0, 1]);
        let idx = g.spec_index();
        for (id, n) in g.nodes().iter().enumerate() {
            assert_eq!(idx[&n.parts], id as NodeId);
        }
    }

    #[test]
    fn dot_export_mentions_every_node_and_edge() {
        let s = sz_schema();
        let g = CandidateGraph::full_lattice(&s, &[0, 1]);
        let dot = g.to_dot(&s);
        assert!(dot.starts_with("digraph"));
        assert_eq!(dot.matches("label=").count(), g.num_nodes());
        assert_eq!(dot.matches(" -> ").count(), g.num_edges());
        assert!(dot.contains("⟨Sex:1, Zipcode:0⟩"));
    }

    #[test]
    fn full_lattice_single_attribute() {
        let s = sz_schema();
        let g = CandidateGraph::full_lattice(&s, &[1]);
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.roots(), vec![0]);
    }
}
