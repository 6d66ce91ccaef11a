//! E3 — the §4.2.1 nodes-searched table: for the Adults database with
//! k = 2 and quasi-identifier sizes 3–9, the number of generalization
//! nodes whose k-anonymity status was determined by computing a frequency
//! set, for exhaustive Bottom-Up vs. Incognito.
//!
//! The paper's numbers (real Adults data):
//!
//! ```text
//! QID size   Bottom-Up   Incognito
//!        3          14          14
//!        4          47          35
//!        5         206         103
//!        6         680         246
//!        7        2088         664
//!        8        6366        1778
//!        9       12818        4307
//! ```
//!
//! Usage: `cargo run -p incognito-bench --release --bin table_nodes_searched
//!         [--rows-adults N] [--k K] [--threads N] [--mem-budget BYTES]
//!         [--trace [path]]`

use incognito_bench::{init_tracing, write_trace, Algo, BenchReport, Cli, Series};
use incognito_data::adults;

fn main() {
    let cli = Cli::from_env();
    let k: u64 = cli.get("k").unwrap_or(2);
    let cfg = cli.adults_config();

    let threads = cli.threads();
    let mem_budget = cli.mem_budget();
    let trace = init_tracing(&cli, "table_nodes_searched");
    let mut report = BenchReport::new("table_nodes_searched");
    report.set("rows_adults", cfg.rows);
    report.set("k", k);
    report.set("threads", threads);
    report.set_mem_budget(mem_budget);

    eprintln!("generating Adults ({} rows)...", cfg.rows);
    let table = adults::adults(&cfg);

    let mut series = Series::new(
        "table_nodes_searched",
        &["QID size", "Bottom-Up", "Incognito", "Incognito candidates", "Incognito marked"],
    );
    for n in 3..=9usize {
        let qi: Vec<usize> = (0..n).collect();
        let (bu, bu_wall) = Algo::BottomUpRollup.run_with_opts(&table, &qi, k, threads, mem_budget);
        let (inc, inc_wall) =
            Algo::BasicIncognito.run_with_opts(&table, &qi, k, threads, mem_budget);
        series.push(vec![
            n.to_string(),
            bu.stats().nodes_checked().to_string(),
            inc.stats().nodes_checked().to_string(),
            inc.stats().candidates().to_string(),
            inc.stats().nodes_marked().to_string(),
        ]);
        eprintln!(
            "  qi={n}: bottom-up={} incognito={}",
            bu.stats().nodes_checked(),
            inc.stats().nodes_checked()
        );
        report.record_run(Algo::BottomUpRollup.label(), "adults", k, n, &bu, bu_wall);
        report.record_run(Algo::BasicIncognito.label(), "adults", k, n, &inc, inc_wall);
    }
    series.emit();
    println!("Paper (real Adults, k=2): 14/14, 47/35, 206/103, 680/246, 2088/664, 6366/1778, 12818/4307.");

    if cli.has("mem") {
        report.print_memory_table();
    }
    report.finish();
    if let Some(path) = trace {
        write_trace(&path);
    }
}
