//! Medical-microdata release workflow on the (synthetic) Adults census
//! table — the scenario the paper's introduction motivates: publish
//! microdata for public-health research without enabling joining attacks.
//!
//! Steps:
//! 1. quantify the re-identification risk of the raw table (how many
//!    records have a unique quasi-identifier combination);
//! 2. run Incognito to get *all* k-anonymous full-domain generalizations;
//! 3. pick minimal releases under three different minimality criteria
//!    (§2.1's height, the discernibility metric, and a criterion that
//!    insists Gender stays intact);
//! 4. materialize and re-check the chosen release, then export it as CSV.
//!
//! Run with: `cargo run --release --example medical_microdata`

use incognito::algo::{incognito as run_incognito, Config};
use incognito::data::csvio::write_csv;
use incognito::data::{adults, AdultsConfig};
use incognito::models::release::full_domain_release;
use incognito::table::{GroupSpec, Table};

fn unique_fraction(table: &Table, qi: &[usize]) -> f64 {
    let freq = table.frequency_set(&GroupSpec::ground(qi).expect("valid qi")).expect("valid qi");
    let unique: u64 = freq.iter().filter(|&(_, c)| c == 1).map(|(_, c)| c).sum();
    unique as f64 / table.num_rows() as f64
}

fn main() {
    let table = adults(&AdultsConfig { rows: 45_222, seed: 7 });
    // QI: Age, Gender, Race, Marital Status, Education (the attributes an
    // attacker plausibly finds in public registries).
    let qi = [0usize, 1, 2, 3, 4];
    let k = 5u64;

    println!(
        "Raw table: {} records; {:.1}% have a UNIQUE ⟨Age, Gender, Race, Marital, Education⟩ \
         combination (cf. the 87% zipcode/sex/birthdate statistic in the paper's introduction).",
        table.num_rows(),
        100.0 * unique_fraction(&table, &qi)
    );

    println!("\nSearching all {k}-anonymous full-domain generalizations (Incognito)...");
    let result = run_incognito(&table, &qi, &Config::new(k)).expect("valid workload");
    println!(
        "  {} k-anonymous generalizations found ({} nodes checked, {} marked, {} table scans).",
        result.len(),
        result.stats().nodes_checked(),
        result.stats().nodes_marked(),
        result.stats().table_scans,
    );

    let schema = table.schema();

    // Criterion 1: minimal height (the Samarati/Sweeney definition).
    let by_height = result.minimal_by_height();
    println!("\nMinimal by height:");
    for g in by_height.iter().take(5) {
        println!("  {}", g.describe(schema, result.qi()));
    }

    // Criterion 2: minimal discernibility over the minimal frontier.
    let frontier = result.minimal_frontier();
    println!("\nMinimal frontier has {} incomparable generalizations.", frontier.len());
    let best_dm = frontier
        .iter()
        .map(|g| {
            let rel = full_domain_release(&table, &qi, &g.levels, None).expect("valid gen");
            (rel.metrics(k).discernibility, *g)
        })
        .min_by_key(|(dm, _)| *dm)
        .expect("nonempty frontier");
    println!(
        "Best by discernibility: {} (C_DM = {})",
        best_dm.1.describe(schema, result.qi()),
        best_dm.0
    );

    // Criterion 3: keep Gender intact, then minimize height — the
    // user-defined minimality the paper says binary search cannot serve.
    let gender_pos = result.qi().iter().position(|&a| a == 1).expect("gender in QI");
    let keep_gender =
        result.min_by_cost(|g| (g.levels[gender_pos], g.height())).expect("nonempty result");
    println!("Best with Gender released intact: {}", keep_gender.describe(schema, result.qi()));

    // Materialize the discernibility-optimal release and verify it.
    let (view, suppressed) = result.materialize(&table, best_dm.1).expect("valid gen");
    assert_eq!(suppressed, 0);
    let spec = GroupSpec::ground(&qi).expect("valid qi");
    assert!(view.is_k_anonymous(&spec, k).expect("valid qi"));
    println!(
        "\nReleased view: {} records, re-identification risk {:.2}% unique (was {:.1}%).",
        view.num_rows(),
        100.0 * unique_fraction(&view, &qi),
        100.0 * unique_fraction(&table, &qi)
    );
    println!("Sample rows:");
    for row in [0usize, 1, 2] {
        let cells: Vec<&str> = (0..view.schema().arity()).map(|a| view.label(row, a)).collect();
        println!("  {}", cells.join(" | "));
    }

    let path = std::env::temp_dir().join("adults_k5_release.csv");
    let file = std::fs::File::create(&path).expect("temp dir writable");
    write_csv(&view, file).expect("csv export");
    println!("\nRelease exported to {}.", path.display());
}
