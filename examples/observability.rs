//! Observability: what the engine actually did, Basic vs. Cube Incognito.
//!
//! Enables the global metrics layer, runs Basic Incognito and Cube
//! Incognito over the same Adults workload, and prints the table-engine
//! and lattice counters side by side — making the paper's §3.3.2 claim
//! visible in numbers: the cube variant answers every frequency-set
//! question from one materialized cube instead of repeated base-table
//! work.
//!
//! Run with: `cargo run --release --example observability`

use std::time::Instant;

use incognito::algo::cube::{anonymize_with_cube, Cube};
use incognito::algo::{incognito::incognito, Config, SearchStats};
use incognito::data::{adults, AdultsConfig};
use incognito::obs::{self, MetricValue, MetricsSnapshot};

fn main() {
    // Everything the engine records is gated on this flag; when it is off
    // (the default) the probes cost a single relaxed atomic load.
    obs::set_enabled(true);

    let cfg = AdultsConfig { rows: 5_000, ..AdultsConfig::default() };
    let table = adults(&cfg);
    let qi: Vec<usize> = (0..6).collect();
    let config = Config::new(2);
    println!(
        "Adults ({} rows), quasi-identifier = first {} attributes, k = {}\n",
        cfg.rows,
        qi.len(),
        config.k
    );

    // --- Basic Incognito -----------------------------------------------
    let before = obs::snapshot();
    let t0 = Instant::now();
    let basic = incognito(&table, &qi, &config).expect("valid workload");
    let basic_wall = t0.elapsed();
    let basic_metrics = obs::snapshot().diff(&before);

    // --- Cube Incognito ------------------------------------------------
    let before = obs::snapshot();
    let t0 = Instant::now();
    let cube = Cube::build(&table, &qi, config.k).expect("valid workload");
    let cubed = anonymize_with_cube(&table, &cube, &config, &mut |_| {}).expect("valid workload");
    let cube_wall = t0.elapsed();
    let cube_metrics = obs::snapshot().diff(&before);

    assert_eq!(basic.generalizations(), cubed.generalizations(), "variants agree");
    println!("Both variants found the same {} k-anonymous generalizations.", basic.len());
    println!(
        "Wall-clock: Basic {:.3}s, Cube {:.3}s (incl. {:.3}s cube build)\n",
        basic_wall.as_secs_f64(),
        cube_wall.as_secs_f64(),
        cubed.stats().timings.cube_build.unwrap_or_default().as_secs_f64()
    );

    phase_table("Basic", basic.stats());
    phase_table("Cube", cubed.stats());

    println!("\n{:<40} {:>14} {:>14}", "engine metric", "Basic", "Cube");
    println!("{}", "-".repeat(70));
    let names: std::collections::BTreeSet<&str> =
        basic_metrics.iter().map(|(n, _)| n).chain(cube_metrics.iter().map(|(n, _)| n)).collect();
    for name in names {
        let (a, b) = (fmt_metric(&basic_metrics, name), fmt_metric(&cube_metrics, name));
        println!("{name:<40} {a:>14} {b:>14}");
    }

    let b_scans = basic_metrics.counter("table.scan.count");
    let c_scans = cube_metrics.counter("table.scan.count");
    println!(
        "\nThe cube variant issued {c_scans} base-table scan(s) against Basic's {b_scans}: \
         after the single cube pass, every frequency set is a projection."
    );
}

/// Print the per-phase wall-clock breakdown recorded in [`SearchStats`].
fn phase_table(label: &str, stats: &SearchStats) {
    let t = &stats.timings;
    println!(
        "{label:<6} phases: total {:.3}s = scan {:.3}s + rollup {:.3}s + candidate-gen {:.3}s{}",
        t.total.as_secs_f64(),
        t.scan.as_secs_f64(),
        t.rollup.as_secs_f64(),
        t.candidate_gen.as_secs_f64(),
        match t.cube_build {
            Some(d) => format!(" (+ cube build {:.3}s)", d.as_secs_f64()),
            None => String::new(),
        }
    );
}

/// One metric rendered for the comparison table: counters as counts,
/// timers as their total in milliseconds.
fn fmt_metric(s: &MetricsSnapshot, name: &str) -> String {
    match s.iter().find(|(n, _)| *n == name) {
        Some((_, MetricValue::Counter(v))) => v.to_string(),
        Some((_, MetricValue::Gauge(v))) => v.to_string(),
        Some((_, MetricValue::Timer(t))) => {
            format!("{:.2}ms/{}", t.total.as_secs_f64() * 1e3, t.count)
        }
        None => "-".to_string(),
    }
}
