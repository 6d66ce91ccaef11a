//! Under a zero memory budget every frequency set spills, so the scans
//! that `tests/trace_spans.rs` finds as `table.scan` run as `spill.build`:
//! those must nest under their checks just the same.
//!
//! Trace collection is process-global, so this file holds exactly one
//! test function.

use incognito::algo::{incognito as run_incognito, Config};
use incognito::data::patients;
use incognito::obs::trace;

#[test]
fn spilled_scans_nest_under_checks() {
    trace::clear();
    trace::set_enabled(true);
    let cfg = Config::new(2).with_memory_budget(0);
    let result = run_incognito(&patients(), &[0, 1, 2], &cfg).expect("valid workload");
    trace::set_enabled(false);
    let records = trace::drain();
    assert!(!result.generalizations().is_empty());

    let builds: Vec<_> = records.iter().filter(|r| r.name == "spill.build").collect();
    assert!(!builds.is_empty(), "a zero budget spills every scan");
    for build in builds {
        let parent = build.parent.expect("spill.build has a parent");
        let parent = records.iter().find(|r| r.seq == parent).expect("parent recorded");
        assert_eq!(parent.name, "check", "spill.build nests under its check");
    }
}
