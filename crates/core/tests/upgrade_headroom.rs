//! Budget admission of a spilled child, in a test binary of its own.
//!
//! The test below sets its budget from the process-wide
//! `incognito_obs::mem::live_bytes()` with only 256 KiB of headroom, so a
//! test running beside it in the same process that frees a few hundred KiB
//! between that sample and the upgrade check would make the child fit. As
//! the only test of this binary, nothing runs beside it.

use incognito_core::{Config, FreqHandle, FreqProvider};
use incognito_data::{adults, AdultsConfig};
use incognito_table::{ExternalFrequencySet, GroupSpec};

#[test]
fn upgrade_requires_headroom_for_materialized_size_not_just_budget() {
    // A ground spec over every attribute keeps the group count near the
    // row count, so the same-level rollup below produces a child whose
    // estimated in-memory footprint (a code run of ~20,000 groups, about
    // 0.3 MB) exceeds the 256 KiB of headroom granted.
    let t = adults(&AdultsConfig { rows: 20_000, seed: 13 });
    let spec = GroupSpec::ground(&(0..t.schema().arity()).collect::<Vec<_>>()).unwrap();
    let ext = ExternalFrequencySet::build(&t, &spec, 8, &std::env::temp_dir()).unwrap();
    let parent = FreqHandle::Ext(ext);
    // Live bytes sit under this budget (the pre-fix point-in-time
    // check would admit the upgrade), but the headroom is far below
    // the child's estimated materialized size.
    let budget = incognito_obs::mem::live_bytes() + (256 << 10);
    let cfg = Config::new(2).with_memory_budget(budget);
    let p = FreqProvider::new(&t, &cfg);
    assert!(!p.over_budget(), "precondition: the sample alone says 'under budget'");
    let child = p.rollup(&parent, t.schema(), &vec![0; spec.len()]).unwrap();
    assert!(child.is_spilled(), "a child too big for the remaining headroom must stay on disk");
}
