//! Independent verification of anonymization results — a downstream user's
//! due-diligence API: confirm that a claimed result set really is sound
//! (every reported generalization is k-anonymous) and, for lattices small
//! enough to brute-force, complete (nothing k-anonymous was missed) —
//! the §3.2 theorem, checked at runtime.

use incognito_lattice::CandidateGraph;
use incognito_table::{GroupSpec, Table};

use crate::{AlgoError, AnonymizationResult, Config};

/// How a verification failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// A reported generalization is not actually k-anonymous.
    Unsound {
        /// The offending level vector.
        levels: Vec<u8>,
    },
    /// A k-anonymous generalization is missing from the result
    /// (completeness check only).
    Incomplete {
        /// The missing level vector.
        levels: Vec<u8>,
    },
    /// The completeness check was requested but the lattice exceeds
    /// `max_lattice` nodes.
    LatticeTooLarge {
        /// Actual lattice size.
        size: usize,
        /// The configured cap.
        cap: usize,
    },
    /// Underlying computation failed.
    Algo(AlgoError),
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::Unsound { levels } => {
                write!(f, "reported generalization {levels:?} is not k-anonymous")
            }
            VerifyError::Incomplete { levels } => {
                write!(f, "k-anonymous generalization {levels:?} missing from the result")
            }
            VerifyError::LatticeTooLarge { size, cap } => {
                write!(f, "lattice of {size} nodes exceeds the verification cap of {cap}")
            }
            VerifyError::Algo(e) => write!(f, "verification computation failed: {e}"),
        }
    }
}

impl std::error::Error for VerifyError {}

impl From<AlgoError> for VerifyError {
    fn from(e: AlgoError) -> Self {
        VerifyError::Algo(e)
    }
}

/// Soundness: every generalization in `result` passes the k-anonymity
/// predicate (with `result`'s suppression allowance) against `table`.
pub fn verify_soundness(table: &Table, result: &AnonymizationResult) -> Result<(), VerifyError> {
    let cfg = Config::new(result.k()).with_suppression(result.max_suppress());
    for g in result.generalizations() {
        let spec =
            GroupSpec::new(result.qi().iter().zip(&g.levels).map(|(&a, &l)| (a, l)).collect())
                .map_err(AlgoError::from)?;
        let freq = table.frequency_set(&spec).map_err(AlgoError::from)?;
        if !cfg.passes(&freq) {
            return Err(VerifyError::Unsound { levels: g.levels.clone() });
        }
    }
    Ok(())
}

/// Soundness **and** completeness by exhaustive lattice enumeration.
/// Refuses lattices above `max_lattice` nodes (the check is a full
/// brute-force pass; Adults QI 9 is ~13k nodes and fine, but the cap keeps
/// accidental Lands-End-sized requests from running for hours).
pub fn verify_complete(
    table: &Table,
    result: &AnonymizationResult,
    max_lattice: usize,
) -> Result<(), VerifyError> {
    let lattice = CandidateGraph::full_lattice(table.schema(), result.qi());
    if lattice.num_nodes() > max_lattice {
        return Err(VerifyError::LatticeTooLarge { size: lattice.num_nodes(), cap: max_lattice });
    }
    let cfg = Config::new(result.k()).with_suppression(result.max_suppress());
    for node in lattice.nodes() {
        let freq = table
            .frequency_set(&node.to_group_spec().map_err(AlgoError::from)?)
            .map_err(AlgoError::from)?;
        let anonymous = cfg.passes(&freq);
        let reported = result.contains(&node.levels());
        match (anonymous, reported) {
            (true, false) => return Err(VerifyError::Incomplete { levels: node.levels() }),
            (false, true) => return Err(VerifyError::Unsound { levels: node.levels() }),
            _ => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::patients;
    use crate::{incognito, Generalization, SearchStats};

    #[test]
    fn real_results_verify() {
        let t = patients();
        for k in [1, 2, 3] {
            let r = incognito(&t, &[0, 1, 2], &Config::new(k)).unwrap();
            verify_soundness(&t, &r).unwrap();
            verify_complete(&t, &r, 1_000).unwrap();
        }
        let sup = incognito(&t, &[1, 2], &Config::new(2).with_suppression(2)).unwrap();
        verify_complete(&t, &sup, 1_000).unwrap();
    }

    #[test]
    fn tampered_results_are_caught() {
        let t = patients();
        let real = incognito(&t, &[1, 2], &Config::new(2)).unwrap();

        // Inject a bogus generalization (⟨S0, Z0⟩ is not 2-anonymous).
        let mut padded: Vec<Generalization> = real.generalizations().to_vec();
        padded.push(Generalization { levels: vec![0, 0] });
        let unsound = AnonymizationResult::new(vec![1, 2], 2, 0, padded, SearchStats::default());
        assert!(matches!(verify_soundness(&t, &unsound), Err(VerifyError::Unsound { .. })));

        // Drop a genuine one (⟨S1, Z0⟩).
        let trimmed: Vec<Generalization> =
            real.generalizations().iter().filter(|g| g.levels != vec![1, 0]).cloned().collect();
        let incomplete =
            AnonymizationResult::new(vec![1, 2], 2, 0, trimmed, SearchStats::default());
        assert!(matches!(
            verify_complete(&t, &incomplete, 1_000),
            Err(VerifyError::Incomplete { .. })
        ));
    }

    #[test]
    fn lattice_cap_is_enforced() {
        let t = patients();
        let r = incognito(&t, &[0, 1, 2], &Config::new(2)).unwrap();
        assert!(matches!(
            verify_complete(&t, &r, 3),
            Err(VerifyError::LatticeTooLarge { size: 12, cap: 3 })
        ));
    }
}
