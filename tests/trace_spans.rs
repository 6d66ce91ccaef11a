//! The ISSUE 2 acceptance criterion for the trace tree: running Basic
//! Incognito with tracing enabled must produce a Chrome-trace span
//! forest nesting search → iteration → node-check → table scan/rollup.
//!
//! Trace collection is process-global, so this file holds exactly one
//! test function.

use incognito::algo::{incognito as run_incognito, Config};
use incognito::data::patients;
use incognito::obs::trace;
use incognito::obs::Json;

#[test]
fn incognito_run_emits_nested_iteration_check_scan_spans() {
    trace::clear();
    trace::set_enabled(true);
    let table = patients();
    let result = run_incognito(&table, &[0, 1, 2], &Config::new(2)).expect("valid workload");
    trace::set_enabled(false);
    let records = trace::drain();
    assert!(!result.generalizations().is_empty());
    assert!(!records.is_empty(), "tracing was enabled, spans must exist");

    let find = |seq: u64| records.iter().find(|r| r.seq == seq).unwrap();

    // The search root carries the workload identity.
    let search = records.iter().find(|r| r.name == "search").expect("search span");
    assert_eq!(search.parent, None);
    assert!(search.args.iter().any(|(k, v)| k == "algo" && v.as_str() == Some("basic")));
    assert!(search.args.iter().any(|(k, v)| k == "k" && v.as_int() == Some(2)));

    // Every iteration hangs off the search; the patients workload has
    // three subset-size iterations.
    let iterations: Vec<_> = records.iter().filter(|r| r.name == "iteration").collect();
    assert_eq!(iterations.len(), 3, "qi arity 3 means iterations 1..=3");
    for it in &iterations {
        assert_eq!(it.parent, Some(search.seq), "iteration nests under search");
    }

    // Every check nests under an iteration — directly when run serially,
    // or through the `exec.task` that ran it on the pool (`INCOGNITO_THREADS`)
    // — and at least one table scan and one rollup nest under checks: the
    // full chain the acceptance criterion names.
    let checks: Vec<_> = records.iter().filter(|r| r.name == "check").collect();
    assert!(!checks.is_empty());
    for c in &checks {
        let parent = find(c.parent.expect("check has a parent"));
        let shape = match parent.name.as_str() {
            "exec.task" => {
                let grandparent = find(parent.parent.expect("exec.task has a parent"));
                ["check", "exec.task", grandparent.name.as_str()].join(" → ")
            }
            other => ["check", other].join(" → "),
        };
        assert!(
            shape == "check → iteration" || shape == "check → exec.task → iteration",
            "check nests under iteration, found {shape}"
        );
    }
    let mut scans_under_checks = 0;
    let mut rollups_under_checks = 0;
    for r in &records {
        if r.name != "table.scan" && r.name != "table.rollup" {
            continue;
        }
        if let Some(p) = r.parent {
            if find(p).name == "check" {
                if r.name == "table.scan" {
                    scans_under_checks += 1;
                } else {
                    rollups_under_checks += 1;
                }
            }
        }
    }
    assert!(scans_under_checks > 0, "table.scan spans nest under checks");
    assert!(rollups_under_checks > 0, "table.rollup spans nest under checks");

    // Candidate generation runs at the end of each iteration, under it.
    let gen = records.iter().find(|r| r.name == "lattice.generate").expect("lattice spans");
    assert_eq!(find(gen.parent.unwrap()).name, "iteration");

    // The emitted Chrome JSON is well-formed and keeps the chain intact.
    let doc = trace::to_chrome_json(&records);
    assert!(Json::parse(&doc.to_pretty_string()).is_ok());
    let back = trace::from_chrome_json(&doc).unwrap();
    assert_eq!(back.len(), records.len());

    // The explain renderer folds the same records into one row per
    // iteration with the totals the engine reported.
    let plan = incognito::report::explain_trace(&records);
    assert!(plan.contains("basic"), "{plan}");
    assert!(plan.lines().filter(|l| l.trim_start().starts_with(char::is_numeric)).count() >= 3);
    assert!(plan.contains("span profile"), "{plan}");
}
