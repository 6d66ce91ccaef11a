//! E4 — Figure 11: performance for fixed quasi-identifier size and varied
//! k ∈ {2, 5, 10, 25, 50}.
//!
//! Left panel (Adults, QI size 8): Binary Search, Bottom-Up (w/ rollup),
//! Basic Incognito, Super-roots Incognito. Right panel (Lands End,
//! staggered QI): Binary Search at QI 6, Basic and Super-roots Incognito
//! at QI 8 — the paper staggers the sizes because binary search cannot
//! finish QI 8 on the large table in reasonable time.
//!
//! Usage: `cargo run -p incognito-bench --release --bin fig11_vary_k
//!         [--rows-adults N] [--rows-landsend N] [--threads N]
//!         [--mem-budget BYTES] [--quick] [--trace [path]]`

use incognito_bench::{init_tracing, secs, write_trace, Algo, BenchReport, Cli, Series};
use incognito_data::{adults, landsend};

const KS: [u64; 5] = [2, 5, 10, 25, 50];

fn main() {
    let cli = Cli::from_env();
    let quick = cli.has("quick");
    let adults_cfg = cli.adults_config();
    let landsend_cfg = cli.landsend_config(100_000);

    let threads = cli.threads();
    let mem_budget = cli.mem_budget();
    let trace = init_tracing(&cli, "fig11_vary_k");
    let mut report = BenchReport::new("fig11_vary_k");
    report.set("rows_adults", adults_cfg.rows);
    report.set("rows_landsend", landsend_cfg.rows);
    report.set("quick", quick);
    report.set("threads", threads);
    report.set_mem_budget(mem_budget);

    eprintln!("generating Adults ({} rows)...", adults_cfg.rows);
    let a = adults::adults(&adults_cfg);
    let adults_n = if quick { 6 } else { 8 };
    let adults_qi: Vec<usize> = (0..adults_n).collect();
    let algos =
        [Algo::BinarySearch, Algo::BottomUpRollup, Algo::BasicIncognito, Algo::SuperRootsIncognito];
    let mut headers = vec!["k".to_string()];
    headers.extend(algos.iter().map(|a| a.label().to_string()));
    let hdr: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut series = Series::new("fig11_adults_qid8", &hdr);
    for k in KS {
        let mut row = vec![k.to_string()];
        for algo in algos {
            let (r, elapsed) = algo.run_with_opts(&a, &adults_qi, k, threads, mem_budget);
            row.push(secs(elapsed));
            eprintln!(
                "  adults k={k} {}: {}s ({} checked)",
                algo.label(),
                secs(elapsed),
                r.stats().nodes_checked()
            );
            report.record_run(algo.label(), "adults", k, adults_n, &r, elapsed);
        }
        series.push(row);
    }
    series.emit();
    drop(a);

    eprintln!("generating Lands End ({} rows)...", landsend_cfg.rows);
    let l = landsend::lands_end(&landsend_cfg);
    let (bs_n, inc_n) = if quick { (4, 6) } else { (6, 8) };
    let bs_qi: Vec<usize> = (0..bs_n).collect();
    let inc_qi: Vec<usize> = (0..inc_n).collect();
    let mut series = Series::new(
        "fig11_landsend_staggered",
        &[
            "k",
            &format!("Binary Search (QID = {bs_n})"),
            &format!("Basic Incognito (QID = {inc_n})"),
            &format!("Super-roots Incognito (QID = {inc_n})"),
        ],
    );
    for k in KS {
        let mut row = vec![k.to_string()];
        for (algo, qi) in [
            (Algo::BinarySearch, &bs_qi),
            (Algo::BasicIncognito, &inc_qi),
            (Algo::SuperRootsIncognito, &inc_qi),
        ] {
            let (r, elapsed) = algo.run_with_opts(&l, qi, k, threads, mem_budget);
            row.push(secs(elapsed));
            eprintln!(
                "  landsend k={k} {} qi={}: {}s ({} checked)",
                algo.label(),
                qi.len(),
                secs(elapsed),
                r.stats().nodes_checked()
            );
            report.record_run(algo.label(), "landsend", k, qi.len(), &r, elapsed);
        }
        series.push(row);
    }
    series.emit();

    if cli.has("mem") {
        report.print_memory_table();
    }
    report.finish();
    if let Some(path) = trace {
        write_trace(&path);
    }
}
