use std::time::Duration;

use crate::incognito::Checked;
use crate::trace::CheckSource;

/// Counters describing one subset-size iteration of a search.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IterationStats {
    /// Subset size `i` of this iteration (1-based).
    pub arity: usize,
    /// Candidate nodes in `Cᵢ`.
    pub candidates: usize,
    /// Edges in `Eᵢ`.
    pub edges: usize,
    /// Nodes whose k-anonymity was determined by computing a frequency set.
    pub nodes_checked: usize,
    /// Nodes skipped because the generalization property marked them.
    pub nodes_marked: usize,
    /// Nodes found k-anonymous in this iteration (size of `Sᵢ`).
    pub survivors: usize,
    /// Wall-clock spent in this iteration (checking plus, for Incognito,
    /// generating the next candidate graph).
    pub wall: Duration,
}

/// Wall-clock breakdown of a completed search by phase. The phases are not
/// exhaustive (bookkeeping between them is unattributed), so the parts sum
/// to less than `total`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// End-to-end wall-clock of the search itself. For Cube Incognito this
    /// excludes the cube pre-computation, which is reported separately in
    /// `cube_build` (matching §4.2.3's build/anonymization split).
    pub total: Duration,
    /// Wall-clock spent pre-computing the zero-generalization cube
    /// (Cube Incognito only; the Figure 12 "cube build time" bar).
    pub cube_build: Option<Duration>,
    /// Time spent computing frequency sets by scanning the base table.
    pub scan: Duration,
    /// Time spent deriving frequency sets without touching the base table
    /// (rollups and cube projections).
    pub rollup: Duration,
    /// Time spent generating candidate graphs (or building the full
    /// lattice, for the baselines).
    pub candidate_gen: Duration,
}

/// Aggregate search statistics — the quantities behind §4.2 of the paper
/// (nodes searched, base-table scans saved by super-roots, frequency sets
/// answered by rollup instead of scans), plus the per-phase wall-clock
/// breakdown.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Per-iteration breakdown (one entry per subset size for Incognito;
    /// a single entry for the whole-lattice baselines).
    pub iterations: Vec<IterationStats>,
    /// Frequency sets computed by scanning the base table.
    pub freq_from_scan: usize,
    /// Frequency sets computed by rolling up another frequency set.
    pub freq_from_rollup: usize,
    /// Frequency sets computed by projecting a wider frequency set
    /// (Cube Incognito's zero-generalization pre-computation).
    pub freq_from_projection: usize,
    /// Full passes over the base table.
    pub table_scans: usize,
    /// Per-phase wall-clock breakdown.
    pub timings: PhaseTimings,
}

impl SearchStats {
    /// Total nodes whose k-anonymity status was determined by computing a
    /// frequency set — the "nodes searched" column of the §4.2.1 table.
    pub fn nodes_checked(&self) -> usize {
        self.iterations.iter().map(|i| i.nodes_checked).sum()
    }

    /// Total nodes skipped via the generalization property.
    pub fn nodes_marked(&self) -> usize {
        self.iterations.iter().map(|i| i.nodes_marked).sum()
    }

    /// Total candidate nodes generated across iterations.
    pub fn candidates(&self) -> usize {
        self.iterations.iter().map(|i| i.candidates).sum()
    }

    /// Tally one checked node: its frequency set came from a table scan
    /// or was derived, as `checked.via` says.
    pub(crate) fn tally(&mut self, it: &mut IterationStats, checked: &Checked) {
        if checked.via == CheckSource::TableScan {
            self.freq_from_scan += 1;
            self.table_scans += 1;
            self.timings.scan += checked.time;
        } else {
            self.freq_from_rollup += 1;
            self.timings.rollup += checked.time;
        }
        it.nodes_checked += 1;
    }

    /// Record an iteration.
    pub(crate) fn push_iteration(&mut self, it: IterationStats) {
        self.iterations.push(it);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_sum_iterations() {
        let mut s = SearchStats::default();
        s.push_iteration(IterationStats {
            arity: 1,
            candidates: 5,
            edges: 3,
            nodes_checked: 4,
            nodes_marked: 1,
            survivors: 5,
            ..IterationStats::default()
        });
        s.push_iteration(IterationStats {
            arity: 2,
            candidates: 8,
            edges: 7,
            nodes_checked: 6,
            nodes_marked: 2,
            survivors: 4,
            ..IterationStats::default()
        });
        assert_eq!(s.nodes_checked(), 10);
        assert_eq!(s.nodes_marked(), 3);
        assert_eq!(s.candidates(), 13);
    }

    #[test]
    fn cube_build_lives_in_timings() {
        let mut s = SearchStats::default();
        s.timings.cube_build = Some(Duration::from_millis(7));
        assert_eq!(s.timings.cube_build, Some(Duration::from_millis(7)));
    }
}
