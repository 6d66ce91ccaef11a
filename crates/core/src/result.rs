use incognito_hierarchy::LevelNo;
use incognito_table::{Schema, Table};

use crate::{AlgoError, SearchStats};

/// One full-domain generalization of the quasi-identifier: a level per QI
/// attribute, aligned with [`AnonymizationResult::qi`] (ascending attribute
/// order). This is a point of the Figure 3 lattice, and equivalently the
/// distance vector from the all-zeros node.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Generalization {
    /// Generalization level per QI attribute.
    pub levels: Vec<LevelNo>,
}

impl Generalization {
    /// Height: the sum of the levels (§2's height of a multi-attribute
    /// generalization).
    pub fn height(&self) -> u32 {
        self.levels.iter().map(|&l| l as u32).sum()
    }

    /// True if `other` dominates `self` component-wise with at least one
    /// strict inequality (i.e. `other` is a generalization of `self`).
    pub fn is_generalized_by(&self, other: &Generalization) -> bool {
        self.levels.len() == other.levels.len()
            && self.levels.iter().zip(&other.levels).all(|(&a, &b)| a <= b)
            && self.levels != other.levels
    }

    /// Render as e.g. `⟨Sex:1, Zipcode:0⟩` for reporting.
    pub fn describe(&self, schema: &Schema, qi: &[usize]) -> String {
        let parts: Vec<String> = qi
            .iter()
            .zip(&self.levels)
            .map(|(&a, &l)| format!("{}:{}", schema.attribute(a).name(), l))
            .collect();
        format!("⟨{}⟩", parts.join(", "))
    }
}

/// The outcome of a full-domain anonymization search.
///
/// For the sound-and-complete algorithms (Incognito and exhaustive
/// bottom-up), `generalizations` is the set of **all** k-anonymous
/// full-domain generalizations of the quasi-identifier; "minimal" ones can
/// then be selected under any criterion (§3.2). For single-solution
/// algorithms (binary search, Datafly) it holds the generalizations found.
#[derive(Debug, Clone)]
pub struct AnonymizationResult {
    /// The quasi-identifier, sorted ascending.
    qi: Vec<usize>,
    /// The anonymity parameter.
    k: u64,
    /// The suppression allowance used.
    max_suppress: u64,
    /// K-anonymous generalizations, sorted lexicographically by levels.
    generalizations: Vec<Generalization>,
    /// Search counters.
    stats: SearchStats,
}

impl AnonymizationResult {
    pub(crate) fn new(
        qi: Vec<usize>,
        k: u64,
        max_suppress: u64,
        mut generalizations: Vec<Generalization>,
        stats: SearchStats,
    ) -> Self {
        generalizations.sort();
        generalizations.dedup();
        AnonymizationResult { qi, k, max_suppress, generalizations, stats }
    }

    /// The quasi-identifier attribute indices, ascending.
    pub fn qi(&self) -> &[usize] {
        &self.qi
    }

    /// The anonymity parameter k.
    pub fn k(&self) -> u64 {
        self.k
    }

    /// The suppression allowance.
    pub fn max_suppress(&self) -> u64 {
        self.max_suppress
    }

    /// All generalizations found, sorted lexicographically.
    pub fn generalizations(&self) -> &[Generalization] {
        &self.generalizations
    }

    /// Search statistics.
    pub fn stats(&self) -> &SearchStats {
        &self.stats
    }

    pub(crate) fn stats_mut(&mut self) -> &mut SearchStats {
        &mut self.stats
    }

    /// Number of generalizations found.
    pub fn len(&self) -> usize {
        self.generalizations.len()
    }

    /// True if no k-anonymous generalization was found.
    pub fn is_empty(&self) -> bool {
        self.generalizations.is_empty()
    }

    /// True if `levels` is among the found generalizations.
    pub fn contains(&self, levels: &[LevelNo]) -> bool {
        self.generalizations.iter().any(|g| g.levels == levels)
    }

    /// The minimum height over all found generalizations.
    pub fn minimal_height(&self) -> Option<u32> {
        self.generalizations.iter().map(Generalization::height).min()
    }

    /// Generalizations of minimal height — minimal in the Samarati/Sweeney
    /// sense of §2.1.
    pub fn minimal_by_height(&self) -> Vec<&Generalization> {
        let Some(min) = self.minimal_height() else { return Vec::new() };
        self.generalizations.iter().filter(|g| g.height() == min).collect()
    }

    /// The minimal frontier: generalizations with no other found
    /// generalization strictly below them. Any user-defined notion of
    /// minimality picks from this antichain.
    pub fn minimal_frontier(&self) -> Vec<&Generalization> {
        self.generalizations
            .iter()
            .filter(|g| !self.generalizations.iter().any(|other| other.is_generalized_by(g)))
            .collect()
    }

    /// The generalization minimizing an arbitrary cost function — the
    /// "users introduce their own notions of minimality" flexibility the
    /// paper contrasts against binary search (§3.2). Ties break toward the
    /// lexicographically smaller level vector.
    pub fn min_by_cost<F, C>(&self, mut cost: F) -> Option<&Generalization>
    where
        F: FnMut(&Generalization) -> C,
        C: PartialOrd,
    {
        let mut best: Option<(&Generalization, C)> = None;
        for g in &self.generalizations {
            let c = cost(g);
            match &best {
                Some((_, bc)) if *bc <= c => {}
                _ => best = Some((g, c)),
            }
        }
        best.map(|(g, _)| g)
    }

    /// Materialize the anonymized view of `table` under `gen`: QI attributes
    /// are generalized to their levels, non-QI attributes released intact,
    /// and (if a suppression allowance was configured) tuples in groups
    /// smaller than k removed. Returns the view and the suppressed count.
    pub fn materialize(
        &self,
        table: &Table,
        gen: &Generalization,
    ) -> Result<(Table, u64), AlgoError> {
        let mut levels = vec![0u8; table.schema().arity()];
        for (&a, &l) in self.qi.iter().zip(&gen.levels) {
            levels[a] = l;
        }
        let suppress = (self.max_suppress > 0).then_some((self.k, self.qi.as_slice()));
        Ok(table.generalize_with_suppression(&levels, suppress)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(gens: Vec<Vec<LevelNo>>) -> AnonymizationResult {
        AnonymizationResult::new(
            vec![0, 1],
            2,
            0,
            gens.into_iter().map(|levels| Generalization { levels }).collect(),
            SearchStats::default(),
        )
    }

    #[test]
    fn ordering_and_dedup() {
        let r = result(vec![vec![1, 1], vec![0, 2], vec![1, 1], vec![1, 2]]);
        assert_eq!(r.len(), 3);
        assert_eq!(r.generalizations()[0].levels, vec![0, 2]);
        assert!(r.contains(&[1, 1]));
        assert!(!r.contains(&[0, 0]));
    }

    #[test]
    fn minimality_selectors() {
        // Found set: {⟨0,2⟩, ⟨1,0⟩, ⟨1,1⟩, ⟨1,2⟩} (the Patients S/Z answer).
        let r = result(vec![vec![0, 2], vec![1, 0], vec![1, 1], vec![1, 2]]);
        assert_eq!(r.minimal_height(), Some(1));
        let by_height: Vec<_> = r.minimal_by_height().iter().map(|g| g.levels.clone()).collect();
        assert_eq!(by_height, vec![vec![1, 0]]);
        let frontier: Vec<_> = r.minimal_frontier().iter().map(|g| g.levels.clone()).collect();
        assert_eq!(frontier, vec![vec![0, 2], vec![1, 0]]);
        // A cost function preferring to keep attribute 0 intact flips the choice.
        let pick = r.min_by_cost(|g| (g.levels[0], g.height())).unwrap();
        assert_eq!(pick.levels, vec![0, 2]);
    }

    #[test]
    fn generalization_partial_order() {
        let a = Generalization { levels: vec![0, 1] };
        let b = Generalization { levels: vec![1, 1] };
        let c = Generalization { levels: vec![1, 0] };
        assert!(a.is_generalized_by(&b));
        assert!(!b.is_generalized_by(&a));
        assert!(!a.is_generalized_by(&c));
        assert!(!a.is_generalized_by(&a));
        assert_eq!(b.height(), 2);
    }

    #[test]
    fn empty_result() {
        let r = result(vec![]);
        assert!(r.is_empty());
        assert_eq!(r.minimal_height(), None);
        assert!(r.minimal_by_height().is_empty());
        assert!(r.minimal_frontier().is_empty());
        assert!(r.min_by_cost(|g| g.height()).is_none());
    }
}
