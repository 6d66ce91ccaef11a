//! The Section 5 taxonomy, side by side: anonymize the same table under
//! every recoding model in the paper's catalog and compare information
//! loss — the "explicit tradeoffs between performance and flexibility" the
//! section calls for.
//!
//! Run with: `cargo run --release --example model_taxonomy`

use std::time::Instant;

use incognito::algo::{incognito as run_incognito, Config};
use incognito::data::{adults, AdultsConfig};
use incognito::models::genetic::{genetic_anonymize, GeneticConfig};
use incognito::models::koptimize::koptimize_anonymize;
use incognito::models::local::{cell_generalization_anonymize, cell_suppression_anonymize};
use incognito::models::mondrian::mondrian_anonymize;
use incognito::models::partition1d::ordered_partition_anonymize;
use incognito::models::release::{
    attribute_suppression_release, full_domain_release, AnonymizedRelease,
};
use incognito::models::subgraph::full_subgraph_anonymize;
use incognito::models::subtree::{full_subtree_anonymize, SubtreeMode};
use incognito::models::tds::tds_anonymize;
use incognito::models::{taxonomy, Metrics};

fn main() {
    let table = adults(&AdultsConfig { rows: 5_000, seed: 99 });
    let qi = [0usize, 1, 3]; // Age, Gender, Marital Status
    let k = 10u64;

    println!("Section 5 model catalog:");
    for m in taxonomy() {
        println!(
            "  {:44} {:6?} recoding, {:15?}, {:6?}-dimension   [{}]",
            m.name, m.recoding, m.style, m.dimensionality, m.reference
        );
    }

    println!(
        "\nAnonymizing {} rows over ⟨Age, Gender, Marital Status⟩ with k = {k} under each model:\n",
        table.num_rows()
    );

    // Full-domain: the discernibility-optimal member of Incognito's
    // complete answer set.
    let complete = run_incognito(&table, &qi, &Config::new(k)).expect("valid workload");
    let full_domain = complete
        .generalizations()
        .iter()
        .map(|g| full_domain_release(&table, &qi, &g.levels, None).expect("valid gen"))
        .min_by_key(|r| r.metrics(k).discernibility)
        .expect("nonempty result");

    let runs: Vec<(&str, AnonymizedRelease)> = vec![
        ("Full-domain (best of Incognito)", full_domain),
        (
            "Attribute suppression",
            attribute_suppression_release(&table, &qi, k).expect("valid workload"),
        ),
        (
            "Single-dim full-subtree",
            full_subtree_anonymize(&table, &qi, k, SubtreeMode::FullSubtree)
                .expect("valid workload"),
        ),
        (
            "Unrestricted single-dim",
            full_subtree_anonymize(&table, &qi, k, SubtreeMode::Unrestricted)
                .expect("valid workload"),
        ),
        (
            "Single-dim full-subtree via TDS [7]",
            tds_anonymize(&table, &qi, k).expect("valid workload"),
        ),
        (
            "Single-dim full-subtree via GA [11]",
            genetic_anonymize(&table, &qi, k, &GeneticConfig::default()).expect("valid workload"),
        ),
        (
            "Single-dim ordered partitioning",
            ordered_partition_anonymize(&table, &qi, k).expect("valid workload"),
        ),
        (
            "Single-dim partitioning via K-Optimize [3]",
            // K-Optimize is exponential in the split alphabet; run it on
            // the two small-domain attributes only.
            koptimize_anonymize(&table, &[1, 3], k).expect("small alphabet").release,
        ),
        (
            "Multi-dim full-subgraph",
            full_subgraph_anonymize(&table, &qi, k).expect("valid workload"),
        ),
        (
            "Multi-dim ordered partitioning (Mondrian)",
            mondrian_anonymize(&table, &qi, k).expect("valid workload"),
        ),
        (
            "Cell suppression (local)",
            cell_suppression_anonymize(&table, &qi, k).expect("valid workload"),
        ),
        (
            "Cell generalization (local)",
            cell_generalization_anonymize(&table, &qi, k).expect("valid workload"),
        ),
    ];

    println!(
        "{:44} {:>9} {:>12} {:>8} {:>9} {:>7} {:>10}",
        "Model", "classes", "C_DM", "C_AVG", "Prec", "LM", "suppressed"
    );
    println!("{}", "-".repeat(108));
    for (name, release) in &runs {
        assert!(release.is_k_anonymous(k), "{name} must be k-anonymous");
        let m: Metrics = release.metrics(k);
        println!(
            "{:44} {:>9} {:>12} {:>8.2} {:>9.3} {:>7.3} {:>10}",
            name, m.classes, m.discernibility, m.avg_class_size, m.precision, m.loss, m.suppressed
        );
    }

    println!(
        "\nReading the table: multi-dimension and local models sit lower on C_DM/LM than \
         single-dimension global models — the flexibility ordering §5 predicts. Timings for \
         the search algorithms themselves are in the fig10/fig11 harness binaries.\n\
         (K-Optimize runs on the two small-domain attributes ⟨Gender, Marital⟩ only — the \
         optimal search is exponential in the split alphabet — so its row is not directly \
         comparable to the three-attribute ones.)"
    );

    // A quick flexibility-vs-cost illustration: how long the full-domain
    // search took vs the greedy Mondrian.
    let t0 = Instant::now();
    let _ = run_incognito(&table, &qi, &Config::new(k)).expect("valid workload");
    let full_t = t0.elapsed();
    let t1 = Instant::now();
    let _ = mondrian_anonymize(&table, &qi, k).expect("valid workload");
    let mond_t = t1.elapsed();
    println!(
        "\nSearch cost: Incognito (complete) {:.3}s vs Mondrian (greedy) {:.3}s on this workload.",
        full_t.as_secs_f64(),
        mond_t.as_secs_f64()
    );
}
