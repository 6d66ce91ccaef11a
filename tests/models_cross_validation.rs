//! Cross-validation of the Section 5 model implementations against the
//! core full-domain machinery and against each other, on the synthetic
//! experiment data.

use incognito::algo::{incognito as run_incognito, Config};
use incognito::data::{adults, patients, AdultsConfig};
use incognito::models::genetic::{genetic_anonymize, GeneticConfig};
use incognito::models::local::{cell_generalization_anonymize, cell_suppression_anonymize};
use incognito::models::mondrian::mondrian_anonymize;
use incognito::models::partition1d::ordered_partition_anonymize;
use incognito::models::release::{attribute_suppression_release, full_domain_release};
use incognito::models::subgraph::full_subgraph_anonymize;
use incognito::models::subtree::{full_subtree_anonymize, SubtreeMode};
use incognito::models::tds::tds_anonymize;
use incognito::table::Table;

fn workloads() -> Vec<(Table, Vec<usize>, u64)> {
    vec![
        (patients(), vec![0, 1, 2], 2),
        (adults(&AdultsConfig { rows: 2_000, seed: 50 }), vec![0, 1], 10),
        (adults(&AdultsConfig { rows: 2_000, seed: 51 }), vec![0, 3, 4], 15),
    ]
}

#[test]
fn every_model_produces_a_k_anonymous_release() {
    for (table, qi, k) in workloads() {
        let checks: Vec<(&str, incognito::models::AnonymizedRelease)> = vec![
            ("attr-suppression", attribute_suppression_release(&table, &qi, k).unwrap()),
            (
                "full-subtree",
                full_subtree_anonymize(&table, &qi, k, SubtreeMode::FullSubtree).unwrap(),
            ),
            (
                "unrestricted",
                full_subtree_anonymize(&table, &qi, k, SubtreeMode::Unrestricted).unwrap(),
            ),
            ("partition-1d", ordered_partition_anonymize(&table, &qi, k).unwrap()),
            ("subgraph", full_subgraph_anonymize(&table, &qi, k).unwrap()),
            ("mondrian", mondrian_anonymize(&table, &qi, k).unwrap()),
            ("cell-suppression", cell_suppression_anonymize(&table, &qi, k).unwrap()),
            ("cell-generalization", cell_generalization_anonymize(&table, &qi, k).unwrap()),
            ("tds", tds_anonymize(&table, &qi, k).unwrap()),
            (
                "genetic",
                genetic_anonymize(
                    &table,
                    &qi,
                    k,
                    &GeneticConfig { generations: 8, ..GeneticConfig::default() },
                )
                .unwrap(),
            ),
        ];
        for (name, release) in checks {
            assert!(release.is_k_anonymous(k), "{name} on {} rows, k={k}", table.num_rows());
            assert_eq!(
                release.view.num_rows() as u64 + release.suppressed,
                table.num_rows() as u64,
                "{name} must account for every source row"
            );
            let m = release.metrics(k);
            assert!(
                m.precision >= -1e-9 && m.precision <= 1.0 + 1e-9,
                "{name} Prec {}",
                m.precision
            );
            assert!(m.loss >= -1e-9 && m.loss <= 1.0 + 1e-9, "{name} LM {}", m.loss);
            // Discernibility is bounded below by the k-anonymous ideal
            // (all classes exactly k) and above by a single class.
            let n = table.num_rows() as u128;
            assert!(m.discernibility <= n * n);
        }
    }
}

#[test]
fn full_domain_release_consistent_with_incognito_verdicts() {
    for (table, qi, k) in workloads() {
        let complete = run_incognito(&table, &qi, &Config::new(k)).unwrap();
        // Reported generalizations build k-anonymous releases; the bottom
        // node (if absent from the result) builds a violating one.
        for g in complete.generalizations().iter().take(6) {
            let rel = full_domain_release(&table, &qi, &g.levels, None).unwrap();
            assert!(rel.is_k_anonymous(k));
        }
        let bottom = vec![0u8; qi.len()];
        let bottom_rel = full_domain_release(&table, &qi, &bottom, None).unwrap();
        assert_eq!(bottom_rel.is_k_anonymous(k), complete.contains(&bottom));
    }
}

#[test]
fn flexible_models_never_lose_to_best_full_domain_on_discernibility() {
    // The §5 flexibility ordering on the metric the models optimize
    // implicitly (equivalence-class structure): Mondrian and the local
    // recodings partition at least as finely as the best full-domain
    // generalization.
    for (table, qi, k) in workloads() {
        let complete = run_incognito(&table, &qi, &Config::new(k)).unwrap();
        let best_full = complete
            .generalizations()
            .iter()
            .map(|g| {
                full_domain_release(&table, &qi, &g.levels, None).unwrap().metrics(k).discernibility
            })
            .min()
            .unwrap();
        let mondrian = mondrian_anonymize(&table, &qi, k).unwrap().metrics(k).discernibility;
        assert!(
            mondrian <= best_full,
            "mondrian {mondrian} vs full-domain {best_full} ({} rows)",
            table.num_rows()
        );
    }
}

#[test]
fn local_models_keep_non_qi_columns_intact() {
    let table = patients();
    let r = cell_generalization_anonymize(&table, &[0, 1, 2], 2).unwrap();
    for (view_row, &src_row) in r.kept_rows.iter().enumerate() {
        assert_eq!(r.view.label(view_row, 3), table.label(src_row, 3));
    }
}

#[test]
fn releases_are_deterministic() {
    let table = adults(&AdultsConfig { rows: 1_000, seed: 52 });
    let a = mondrian_anonymize(&table, &[0, 1, 3], 10).unwrap();
    let b = mondrian_anonymize(&table, &[0, 1, 3], 10).unwrap();
    assert_eq!(a.class_sizes, b.class_sizes);
    let a = cell_suppression_anonymize(&table, &[0, 1], 10).unwrap();
    let b = cell_suppression_anonymize(&table, &[0, 1], 10).unwrap();
    assert_eq!(a.class_sizes, b.class_sizes);
}
