//! `incognito-report explain` must account for every check of a traced
//! search, serial or on the work-stealing pool: per iteration, the
//! scan + rollup + sroot + cube columns sum to the engine's
//! `nodes_checked` and the `marked` column equals its `nodes_marked`.
//! On the pool a check nests as `check → exec.task → iteration`, so a
//! fold that only counts an iteration's direct children misses it.
//!
//! Trace collection is process-global, so this file holds exactly one
//! test function.

use incognito::algo::{incognito as run_incognito, Config};
use incognito::data::{adults, AdultsConfig};
use incognito::obs::trace;
use incognito::report::explain_trace;

/// The explain table's iteration rows (section headings and totals
/// skipped), each cell parsed where it is an integer.
fn iteration_rows(plan: &str) -> Vec<Vec<u64>> {
    plan.lines()
        .take_while(|l| !l.starts_with("span profile"))
        .filter(|l| l.starts_with(|c: char| c.is_ascii_digit()))
        .map(|l| l.split_whitespace().map(|c| c.parse().unwrap_or(u64::MAX)).collect())
        .collect()
}

#[test]
fn explain_counts_every_check_at_every_thread_count() {
    let table = adults(&AdultsConfig { rows: 2_000, ..AdultsConfig::default() });
    let qi: Vec<usize> = (0..5).collect();
    for superroots in [false, true] {
        for threads in [1, 4] {
            let cfg = Config::new(2).with_superroots(superroots).with_threads(threads);
            trace::clear();
            trace::set_enabled(true);
            let result = run_incognito(&table, &qi, &cfg).expect("valid workload");
            trace::set_enabled(false);
            let plan = explain_trace(&trace::drain());

            let label = format!("superroots={superroots} threads={threads}");
            let rows = iteration_rows(&plan);
            let stats = result.stats();
            assert_eq!(rows.len(), stats.iterations.len(), "{label}\n{plan}");
            // Columns: iter cands edges scan rollup sroot cube marked anon surv wall.
            for (row, it) in rows.iter().zip(&stats.iterations) {
                assert_eq!(row[0], it.arity as u64, "{label}\n{plan}");
                let checks: u64 = row[3..7].iter().sum();
                assert_eq!(checks, it.nodes_checked as u64, "{label}: checks\n{plan}");
                assert_eq!(row[7], it.nodes_marked as u64, "{label}: marked\n{plan}");
                assert_eq!(row[9], it.survivors as u64, "{label}: survivors\n{plan}");
            }
            let sroot: u64 = rows.iter().map(|r| r[5]).sum();
            assert_eq!(sroot > 0, superroots, "{label}: super-root checks\n{plan}");
        }
    }
}
