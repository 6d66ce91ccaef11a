//! Information-loss metrics for comparing anonymization models — the cost
//! criteria the paper's §2.1/§5 cite for choosing among minimal
//! generalizations (\[11\]'s loss metric and classification context,
//! \[17\]'s precision, and the discernibility metric of \[3\]).

use crate::release::AnonymizedRelease;

/// Comparable quality scores for one release.
#[derive(Debug, Clone, PartialEq)]
pub struct Metrics {
    /// Discernibility metric `C_DM` \[3\]: Σ over classes of |class|², plus
    /// |T|·(suppressed count) — each suppressed tuple is indistinguishable
    /// from the whole table.
    pub discernibility: u128,
    /// Normalized average equivalence class size
    /// `C_AVG = (kept / classes) / k` \[12\]: 1.0 is ideal.
    pub avg_class_size: f64,
    /// Precision `Prec` \[17\]: 1 − (mean fraction of each cell's
    /// generalization chain consumed). 1.0 = raw data, 0.0 = fully
    /// suppressed.
    pub precision: f64,
    /// Loss metric `LM` \[11\]: mean fraction of each cell's ground domain
    /// merged by the recoding. 0.0 = raw data, 1.0 = fully generalized.
    pub loss: f64,
    /// Number of equivalence classes in the release.
    pub classes: usize,
    /// Tuples suppressed outright.
    pub suppressed: u64,
}

impl Metrics {
    /// Compute all metrics for `release` under anonymity parameter `k`.
    pub fn for_release(release: &AnonymizedRelease, k: u64) -> Metrics {
        let kept: u64 = release.class_sizes.iter().sum();
        let cells = (release.source_rows as f64) * (release.qi.len() as f64);
        let discernibility: u128 =
            release.class_sizes.iter().map(|&c| (c as u128) * (c as u128)).sum::<u128>()
                + (release.suppressed as u128) * (release.source_rows as u128);
        let avg_class_size = if release.class_sizes.is_empty() || k == 0 {
            f64::NAN
        } else {
            (kept as f64 / release.class_sizes.len() as f64) / k as f64
        };
        let precision = if cells == 0.0 { 1.0 } else { 1.0 - release.precision_loss / cells };
        let loss = if cells == 0.0 { 0.0 } else { release.lm_loss / cells };
        Metrics {
            discernibility,
            avg_class_size,
            precision,
            loss,
            classes: release.class_sizes.len(),
            suppressed: release.suppressed,
        }
    }
}

#[cfg(test)]
mod tests {

    use crate::release::full_domain_release;
    use incognito_data::patients;

    #[test]
    fn raw_data_scores_perfectly() {
        let t = patients();
        // k=1 at ground level: every metric at its ideal.
        let r = full_domain_release(&t, &[1, 2], &[0, 0], None).unwrap();
        let m = r.metrics(1);
        assert_eq!(m.suppressed, 0);
        assert!((m.precision - 1.0).abs() < 1e-9);
        assert!((m.loss - 0.0).abs() < 1e-9);
        // Classes: (M,53715) (F,53715) (M,53703)x2 (F,53706)x2 → 4 classes.
        assert_eq!(m.classes, 4);
        assert_eq!(m.discernibility, 1 + 1 + 4 + 4);
    }

    #[test]
    fn full_generalization_scores_worst() {
        let t = patients();
        let r = full_domain_release(&t, &[1, 2], &[1, 2], None).unwrap();
        let m = r.metrics(2);
        assert_eq!(m.classes, 1);
        assert_eq!(m.discernibility, 36);
        assert!((m.precision - 0.0).abs() < 1e-9);
        assert!((m.loss - 1.0).abs() < 1e-9);
        assert!((m.avg_class_size - 3.0).abs() < 1e-9); // (6/1)/2
    }

    #[test]
    fn less_generalization_dominates_metrics() {
        let t = patients();
        let better = full_domain_release(&t, &[1, 2], &[1, 0], None).unwrap().metrics(2);
        let worse = full_domain_release(&t, &[1, 2], &[1, 2], None).unwrap().metrics(2);
        assert!(better.discernibility < worse.discernibility);
        assert!(better.precision > worse.precision);
        assert!(better.loss < worse.loss);
        assert!(better.avg_class_size < worse.avg_class_size);
    }

    #[test]
    fn suppression_counts_against_discernibility() {
        let t = patients();
        let r = full_domain_release(&t, &[1, 2], &[0, 0], Some(2)).unwrap();
        let m = r.metrics(2);
        assert_eq!(m.suppressed, 2);
        // Two kept classes of 2 (4+4) plus 2 suppressed × 6 rows.
        assert_eq!(m.discernibility, 8 + 12);
    }
}
