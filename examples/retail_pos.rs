//! Retail point-of-sale anonymization at scale — the Lands End scenario:
//! a large transaction table whose ⟨Zipcode, Order date, Gender, Style⟩
//! combination links purchases to customers.
//!
//! Demonstrates the parts of Incognito that matter at this scale:
//! super-roots (fewer base-table scans), the zero-generalization cube
//! (build once, anonymize many times for different k), and the §2.1
//! tuple-suppression threshold that spares the release from over-
//! generalizing because of a few outlier transactions.
//!
//! Run with: `cargo run --release --example retail_pos [-- --rows N]`

use std::time::Instant;

use incognito::algo::cube::{anonymize_with_cube, Cube};
use incognito::algo::{incognito as run_incognito, Config};
use incognito::data::{lands_end, LandsEndConfig};

fn main() {
    let rows = std::env::args()
        .skip_while(|a| a != "--rows")
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(200_000);
    println!("Generating synthetic Lands End table ({rows} rows)...");
    let table = lands_end(&LandsEndConfig { rows, ..LandsEndConfig::default() });
    let qi = [0usize, 1, 2, 3]; // Zipcode, Order date, Gender, Style
    let k = 10u64;

    // Basic vs super-roots: same answer, fewer scans of the big table.
    let t0 = Instant::now();
    let basic = run_incognito(&table, &qi, &Config::new(k)).expect("valid workload");
    let basic_time = t0.elapsed();
    let t1 = Instant::now();
    let sup =
        run_incognito(&table, &qi, &Config::new(k).with_superroots(true)).expect("valid workload");
    let sup_time = t1.elapsed();
    assert_eq!(basic.generalizations(), sup.generalizations());
    println!(
        "Basic Incognito:      {:>7.3}s, {} table scans",
        basic_time.as_secs_f64(),
        basic.stats().table_scans
    );
    println!(
        "Super-roots variant:  {:>7.3}s, {} table scans (same {} generalizations)",
        sup_time.as_secs_f64(),
        sup.stats().table_scans,
        sup.len()
    );

    // The cube amortizes across repeated anonymization runs (different k).
    let t2 = Instant::now();
    let cube = Cube::build(&table, &qi, k).expect("valid workload");
    println!(
        "\nZero-generalization cube: {} frequency sets in {:.3}s.",
        cube.store().len(),
        t2.elapsed().as_secs_f64()
    );
    for k in [2u64, 10, 50] {
        let t = Instant::now();
        let r = anonymize_with_cube(&table, &cube, &Config::new(k), &mut |_| {})
            .expect("valid workload");
        println!(
            "  k = {k:>2}: {} generalizations in {:.3}s (marginal, cube reused)",
            r.len(),
            t.elapsed().as_secs_f64()
        );
    }

    // Suppression threshold: tolerate 0.1% outlier transactions.
    let budget = (rows as u64) / 1000;
    let strict = run_incognito(&table, &qi, &Config::new(k)).expect("valid workload");
    let relaxed = run_incognito(&table, &qi, &Config::new(k).with_suppression(budget))
        .expect("valid workload");
    let schema = table.schema();
    println!(
        "\nSuppression threshold {budget} tuples: minimal height {} -> {}",
        strict.minimal_height().map_or("none".into(), |h| h.to_string()),
        relaxed.minimal_height().map_or("none".into(), |h| h.to_string()),
    );
    if let Some(g) = relaxed.minimal_by_height().first() {
        let (view, suppressed) = relaxed.materialize(&table, g).expect("valid gen");
        println!(
            "Released {} under {} with {suppressed} transactions suppressed.",
            view.num_rows(),
            g.describe(schema, relaxed.qi())
        );
        println!("Sample released rows:");
        for row in [0usize, 1, 2] {
            let cells: Vec<&str> = (0..view.schema().arity()).map(|a| view.label(row, a)).collect();
            println!("  {}", cells.join(" | "));
        }
    }
}
