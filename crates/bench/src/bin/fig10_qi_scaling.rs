//! E2 — Figure 10: elapsed time of all six algorithms as the
//! quasi-identifier grows, on Adults and Lands End, for k = 2 and k = 10.
//!
//! The paper begins with the first three attributes of each schema
//! (Figure 9 order) and adds attributes in listed order; Adults sweeps QI
//! sizes 3–9, Lands End 1–6. Output: one table (and CSV) per panel, one
//! column per algorithm, elapsed seconds; plus `BENCH_fig10_qi_scaling.json`
//! with per-run timings and engine metrics.
//!
//! Usage: `cargo run -p incognito-bench --release --bin fig10_qi_scaling
//!         [--rows-adults N] [--rows-landsend N] [--threads N]
//!         [--mem-budget BYTES] [--quick] [--trace [path]]`
//!
//! `--quick` trims each sweep's largest sizes and the slowest baseline so a
//! laptop pass completes in ~a minute.

use incognito_bench::{init_tracing, secs, write_trace, Algo, BenchReport, Cli, Series};
use incognito_data::{adults, landsend};
use incognito_table::Table;

#[allow(clippy::too_many_arguments)]
fn panel(
    name: &str,
    dataset: &str,
    table: &Table,
    k: u64,
    sizes: &[usize],
    algos: &[Algo],
    threads: usize,
    mem_budget: Option<u64>,
    report: &mut BenchReport,
) {
    let mut headers = vec!["QI size".to_string()];
    headers.extend(algos.iter().map(|a| a.label().to_string()));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut series = Series::new(name, &header_refs);
    for &n in sizes {
        let qi: Vec<usize> = (0..n).collect();
        let mut row = vec![n.to_string()];
        for &algo in algos {
            let (result, elapsed) = algo.run_with_opts(table, &qi, k, threads, mem_budget);
            row.push(secs(elapsed));
            eprintln!(
                "  {name} qi={n} {}: {}s ({} gens, {} nodes checked)",
                algo.label(),
                secs(elapsed),
                result.len(),
                result.stats().nodes_checked()
            );
            report.record_run(algo.label(), dataset, k, n, &result, elapsed);
        }
        series.push(row);
    }
    series.emit();
}

fn main() {
    let cli = Cli::from_env();
    let quick = cli.has("quick");
    let adults_cfg = cli.adults_config();
    let landsend_cfg = cli.landsend_config(100_000);

    let threads = cli.threads();
    let mem_budget = cli.mem_budget();
    let trace = init_tracing(&cli, "fig10_qi_scaling");
    let mut report = BenchReport::new("fig10_qi_scaling");
    report.set("rows_adults", adults_cfg.rows);
    report.set("rows_landsend", landsend_cfg.rows);
    report.set("quick", quick);
    report.set("threads", threads);
    report.set_mem_budget(mem_budget);

    let algos: Vec<Algo> = if quick {
        Algo::ALL.into_iter().filter(|a| *a != Algo::BottomUpNoRollup).collect()
    } else {
        Algo::ALL.to_vec()
    };

    eprintln!("generating Adults ({} rows)...", adults_cfg.rows);
    let a = adults::adults(&adults_cfg);
    let adult_sizes: Vec<usize> = if quick { (3..=6).collect() } else { (3..=9).collect() };
    panel(
        "fig10_adults_k2",
        "adults",
        &a,
        2,
        &adult_sizes,
        &algos,
        threads,
        mem_budget,
        &mut report,
    );
    panel(
        "fig10_adults_k10",
        "adults",
        &a,
        10,
        &adult_sizes,
        &algos,
        threads,
        mem_budget,
        &mut report,
    );
    drop(a);

    eprintln!("generating Lands End ({} rows)...", landsend_cfg.rows);
    let l = landsend::lands_end(&landsend_cfg);
    let lands_sizes: Vec<usize> = if quick { (1..=4).collect() } else { (1..=6).collect() };
    panel(
        "fig10_landsend_k2",
        "landsend",
        &l,
        2,
        &lands_sizes,
        &algos,
        threads,
        mem_budget,
        &mut report,
    );
    panel(
        "fig10_landsend_k10",
        "landsend",
        &l,
        10,
        &lands_sizes,
        &algos,
        threads,
        mem_budget,
        &mut report,
    );

    if cli.has("mem") {
        report.print_memory_table();
    }
    report.finish();
    if let Some(path) = trace {
        write_trace(&path);
    }
}
