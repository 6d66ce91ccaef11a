//! E7 — out-of-core scaling: the §7 "what if the frequency sets don't fit
//! in memory" case. Runs Basic Incognito on Lands End (whose Zipcode
//! domain is ~32k values, so ground frequency sets genuinely grow with
//! the data) at growing row counts (×1, ×2, ×4), once unbudgeted and once
//! under a fixed memory budget, and measures each search's **peak
//! allocation delta** — the high-water mark of live bytes above the level
//! at search start (the table itself grows with the rows, so the absolute
//! peak cannot be flat; the search's own footprint can).
//!
//! The property to demonstrate: the unbudgeted search's peak grows with
//! the data, while the budgeted search's peak stays roughly flat — its
//! frequency sets spill to hash partitions on disk and are processed one
//! partition at a time, with a row-count-independent write-buffer cap.
//! Both modes must return identical generalizations (asserted here).
//!
//! Usage: `cargo run -p incognito-bench --release --bin scale_out_of_core
//!         [--rows N] [--k K] [--threads N] [--mem-budget BYTES] [--quick]
//!         [--trace [path]]`
//!
//! `--rows` sets the ×1 base (default 40,000; `--quick` halves it);
//! `--mem-budget` sets the budgeted mode's cap (default 256 KiB — below
//! the base table's own footprint at every scale, so every frequency set
//! spills).

use incognito_bench::{init_tracing, secs, write_trace, Algo, BenchReport, Cli, Series};
use incognito_data::{landsend::lands_end, LandsEndConfig};
use incognito_obs::Json;

fn mb(bytes: u64) -> String {
    format!("{:.2} MB", bytes as f64 / (1 << 20) as f64)
}

fn main() {
    let cli = Cli::from_env();
    let quick = cli.has("quick");
    let base_rows: usize = cli.get("rows").unwrap_or(if quick { 20_000 } else { 40_000 });
    let k: u64 = cli.get("k").unwrap_or(2);
    let threads = cli.threads();
    let budget: u64 = cli.get("mem-budget").unwrap_or(256 << 10);
    let qi: Vec<usize> = (0..3).collect(); // Zipcode × Order date × Gender

    let trace = init_tracing(&cli, "scale_out_of_core");
    let mut report = BenchReport::new("scale_out_of_core");
    report.set("base_rows", base_rows);
    report.set("k", k);
    report.set("qi_arity", qi.len());
    report.set("threads", threads);
    report.set_mem_budget(Some(budget));

    let mut series = Series::new(
        "scale_out_of_core",
        &["rows", "in-memory peak", "budgeted peak", "spilled", "in-memory time", "budgeted time"],
    );

    let mut budgeted_peaks: Vec<u64> = Vec::new();
    for scale in [1usize, 2, 4] {
        let rows = base_rows * scale;
        eprintln!("generating Lands End ({rows} rows)...");
        let table = lands_end(&LandsEndConfig { rows, ..LandsEndConfig::default() });
        // Absorb the table-generation allocations into a setup point, so
        // the subsequent run records reflect the searches alone.
        let mut setup = Json::obj();
        setup.set("rows", rows);
        report.record_point("setup", setup);

        let mut measure = |mem_budget: Option<u64>, mode: &str| {
            incognito_obs::mem::reset_peak();
            let live0 = incognito_obs::mem::live_bytes();
            let before = incognito_obs::snapshot();
            let (r, wall) = Algo::BasicIncognito.run_with_opts(&table, &qi, k, threads, mem_budget);
            let peak_delta = incognito_obs::mem::peak_live_bytes().saturating_sub(live0);
            let after = incognito_obs::snapshot();
            let spilled_bytes =
                after.gauge("table.spill.bytes") - before.gauge("table.spill.bytes");
            let spilled_sets =
                after.gauge("table.spill.spilled_sets") - before.gauge("table.spill.spilled_sets");

            let mut point = Json::obj();
            point.set("rows", rows);
            point.set("mode", mode);
            match mem_budget {
                Some(b) => point.set("mem_budget", b),
                None => point.set("mem_budget", Json::Null),
            };
            point.set("peak_delta_bytes", peak_delta);
            point.set("wall_secs", wall.as_secs_f64());
            point.set("generalizations", r.len());
            point.set("spilled_bytes", spilled_bytes);
            point.set("spilled_sets", spilled_sets);
            report.record_point(&format!("{mode} rows={rows}"), point);
            eprintln!(
                "  rows={rows} {mode}: peak Δ {} spilled {} in {}s",
                mb(peak_delta),
                mb(spilled_bytes.max(0) as u64),
                secs(wall)
            );
            (r, wall, peak_delta, spilled_bytes)
        };

        let (r_mem, wall_mem, peak_mem, _) = measure(None, "in-memory");
        let (r_ext, wall_ext, peak_ext, spilled) = measure(Some(budget), "budgeted");
        assert_eq!(
            r_mem.generalizations(),
            r_ext.generalizations(),
            "budgeted results must be identical to in-memory (rows={rows})"
        );
        budgeted_peaks.push(peak_ext);

        series.push(vec![
            rows.to_string(),
            mb(peak_mem),
            mb(peak_ext),
            mb(spilled.max(0) as u64),
            secs(wall_mem),
            secs(wall_ext),
        ]);
    }
    series.emit();

    let (first, last) = (budgeted_peaks[0], budgeted_peaks[budgeted_peaks.len() - 1]);
    let growth = last as f64 / first.max(1) as f64;
    report.set("budgeted_peak_growth_x4_rows", growth);
    println!(
        "Budgeted peak grew {growth:.2}x while rows grew 4x (in-memory peak tracks the data); \
         results identical at every budget."
    );

    if cli.has("mem") {
        report.print_memory_table();
    }
    report.finish();
    if let Some(path) = trace {
        write_trace(&path);
    }
}
