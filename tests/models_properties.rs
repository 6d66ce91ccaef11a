//! Property tests for the Section 5 model implementations: on random
//! tables with random hierarchies, every anonymizer's output is
//! k-anonymous (after its suppression, where the model allows it) and
//! accounts for every source row.
//!
//! Tables are drawn from the workspace's seeded PRNG so every run checks
//! the same case set.

use incognito::hierarchy::Hierarchy;
use incognito::models::local::cell_generalization_anonymize;
use incognito::models::mondrian::mondrian_anonymize;
use incognito::models::partition1d::ordered_partition_anonymize;
use incognito::models::subtree::{full_subtree_anonymize, SubtreeMode};
use incognito::models::tds::tds_anonymize;
use incognito::obs::Rng;
use incognito::table::{Attribute, Schema, Table};

/// Random balanced hierarchy: ground size 2–6, height 1–2 plus suppression.
fn random_hierarchy(rng: &mut Rng, name: &'static str) -> Hierarchy {
    let ground = rng.range_usize(2, 7);
    let mid = (ground / 2).max(1);
    let mut map: Vec<u32> = (0..ground).map(|_| rng.below(mid as u64) as u32).collect();
    for (i, slot) in map.iter_mut().enumerate().take(mid) {
        *slot = i as u32; // force onto
    }
    let levels = vec![
        (0..ground).map(|i| format!("{name}{i}")).collect::<Vec<_>>(),
        (0..mid).map(|i| format!("{name}m{i}")).collect(),
        vec![format!("{name}*")],
    ];
    Hierarchy::from_levels(name, levels, vec![map, vec![0; mid]]).expect("constructed valid")
}

fn random_table(rng: &mut Rng) -> Table {
    let hx = random_hierarchy(rng, "x");
    let hy = random_hierarchy(rng, "y");
    let (gx, gy) = (hx.ground_size(), hy.ground_size());
    let schema = Schema::new(vec![Attribute::new("x", hx), Attribute::new("y", hy)])
        .expect("distinct names");
    let rows = rng.range_usize(1, 60);
    let mut cols = vec![Vec::new(), Vec::new()];
    for _ in 0..rows {
        cols[0].push(rng.below(gx as u64) as u32);
        cols[1].push(rng.below(gy as u64) as u32);
    }
    Table::from_columns(schema, cols).expect("ids in range")
}

#[test]
fn all_models_produce_valid_releases() {
    for case in 0..48u64 {
        let mut rng = Rng::seed_from_u64(0x40DE_0000 + case);
        let table = random_table(&mut rng);
        let k = 1 + rng.below(7);
        let qi = [0usize, 1];
        let n = table.num_rows() as u64;
        type Anonymizer =
            fn(
                &Table,
                &[usize],
                u64,
            )
                -> Result<incognito::models::AnonymizedRelease, incognito::table::TableError>;
        let subtree: Anonymizer =
            |t, q, k| full_subtree_anonymize(t, q, k, SubtreeMode::FullSubtree);
        let unrestricted: Anonymizer =
            |t, q, k| full_subtree_anonymize(t, q, k, SubtreeMode::Unrestricted);
        let runs: Vec<(&str, Anonymizer)> = vec![
            ("mondrian", mondrian_anonymize as Anonymizer),
            ("partition1d", ordered_partition_anonymize as Anonymizer),
            ("subtree", subtree),
            ("unrestricted", unrestricted),
            ("cell-gen", cell_generalization_anonymize as Anonymizer),
            ("tds", tds_anonymize as Anonymizer),
        ];
        for (name, run) in runs {
            let r = run(&table, &qi, k).expect("anonymizer runs");
            assert_eq!(
                r.view.num_rows() as u64 + r.suppressed,
                n,
                "case {case}: {name} must account for all rows"
            );
            // Global hierarchy/partition models cannot suppress-as-fallback
            // when |T| ≥ k (full generalization is always available);
            // Mondrian/partition never suppress at all.
            if n >= k {
                assert!(
                    r.is_k_anonymous(k),
                    "case {case}: {name} must be k-anonymous for |T| ≥ k (classes {:?})",
                    r.class_sizes
                );
            }
            let m = r.metrics(k);
            assert!(m.loss >= -1e-9 && m.loss <= 1.0 + 1e-9, "case {case}: {name} LM {}", m.loss);
            assert!(
                m.precision >= -1e-9 && m.precision <= 1.0 + 1e-9,
                "case {case}: {name} Prec {}",
                m.precision
            );
        }
    }
}
