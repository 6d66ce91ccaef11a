//! In-memory vs. out-of-core equivalence: every engine must return
//! byte-identical results at every memory budget. The budget changes the
//! *representation* of the frequency sets (in memory vs. spilled to hash
//! partitions on disk), never the search: generalization sets,
//! per-iteration survivor counts, and per-generalization suppression
//! tallies all must match the unbudgeted reference exactly.
//!
//! Budgets exercised: unlimited (nothing spills), tight (1 KiB — below
//! any table's live footprint, so everything spills), and zero (the
//! degenerate always-over-budget case). Plus: the disk-backed rollup
//! must agree group-for-group with `FrequencySet::rollup` on the
//! Figure 9 datasets.

use incognito::algo::bottom_up::bottom_up_search;
use incognito::algo::cube::cube_incognito;
use incognito::algo::materialize::{incognito_with_store, FreqStore, MaterializationPolicy};
use incognito::algo::{incognito as run_incognito, AnonymizationResult, Config};
use incognito::data::{adults, lands_end, AdultsConfig, LandsEndConfig};
use incognito::table::{ExternalFrequencySet, GroupSpec, Table};

const KS: [u64; 2] = [2, 10];

fn table() -> Table {
    adults(&AdultsConfig { rows: 3_000, seed: 42 })
}

fn qi() -> Vec<usize> {
    (0..4).collect()
}

/// The three budget regimes, applied to an engine config. `None` lifts
/// any budget (including an `INCOGNITO_MEM_BUDGET` from the environment —
/// the CI out-of-core job sets one, and the unlimited case must still be
/// genuinely unlimited there).
fn budgets() -> [(&'static str, Option<u64>); 3] {
    [("unlimited", None), ("tight", Some(1024)), ("zero", Some(0))]
}

fn with_budget(cfg: Config, budget: Option<u64>) -> Config {
    match budget {
        Some(b) => cfg.with_memory_budget(b),
        None => cfg.with_unlimited_memory(),
    }
}

/// Exact-match assertion: generalization sets, per-iteration survivor
/// counts, and the suppression tally of every returned generalization.
fn assert_matches(
    table: &Table,
    reference: &AnonymizationResult,
    got: &AnonymizationResult,
    label: &str,
) {
    assert_eq!(
        got.generalizations(),
        reference.generalizations(),
        "{label}: generalization sets diverge"
    );
    let ref_survivors: Vec<usize> =
        reference.stats().iterations.iter().map(|i| i.survivors).collect();
    let got_survivors: Vec<usize> = got.stats().iterations.iter().map(|i| i.survivors).collect();
    assert_eq!(got_survivors, ref_survivors, "{label}: per-iteration survivors diverge");

    // tuples_below at each returned generalization: recompute from the
    // base table under both results' (qi, k) and compare. With identical
    // generalization sets this can only diverge if the result carries
    // different qi/k metadata — assert those too via the tally.
    assert_eq!(got.qi(), reference.qi(), "{label}: qi diverges");
    for (rg, gg) in reference.generalizations().iter().zip(got.generalizations()) {
        let spec = |g: &incognito::algo::Generalization, qi: &[usize]| {
            GroupSpec::new(qi.iter().copied().zip(g.levels.iter().copied()).collect()).unwrap()
        };
        let rt =
            table.frequency_set(&spec(rg, reference.qi())).unwrap().tuples_below(reference.k());
        let gt = table.frequency_set(&spec(gg, got.qi())).unwrap().tuples_below(got.k());
        assert_eq!(gt, rt, "{label}: tuples_below tally diverges at {:?}", gg.levels);
    }
}

#[test]
fn basic_incognito_is_budget_invariant() {
    let t = table();
    let qi = qi();
    for k in KS {
        let reference =
            run_incognito(&t, &qi, &Config::new(k).with_suppression(k).with_unlimited_memory())
                .unwrap();
        for (name, budget) in budgets() {
            let cfg = with_budget(Config::new(k).with_suppression(k), budget);
            let r = run_incognito(&t, &qi, &cfg).unwrap();
            assert_matches(&t, &reference, &r, &format!("basic k={k} budget={name}"));
        }
    }
}

#[test]
fn superroots_incognito_is_budget_invariant() {
    let t = table();
    let qi = qi();
    for k in KS {
        let base = || Config::new(k).with_superroots(true);
        let reference = run_incognito(&t, &qi, &base().with_unlimited_memory()).unwrap();
        for (name, budget) in budgets() {
            let r = run_incognito(&t, &qi, &with_budget(base(), budget)).unwrap();
            assert_matches(&t, &reference, &r, &format!("superroots k={k} budget={name}"));
        }
    }
}

#[test]
fn cube_incognito_is_budget_invariant() {
    let t = table();
    let qi = qi();
    for k in KS {
        let reference = cube_incognito(&t, &qi, &Config::new(k).with_unlimited_memory()).unwrap();
        for (name, budget) in budgets() {
            let r = cube_incognito(&t, &qi, &with_budget(Config::new(k), budget)).unwrap();
            assert_matches(&t, &reference, &r, &format!("cube k={k} budget={name}"));
        }
    }
}

/// Sets spilled so far in this process: the `table.spill.spilled_sets`
/// gauge, which only rises (while observation is enabled).
fn spilled_sets() -> i64 {
    incognito::obs::global().gauge("table.spill.spilled_sets").get()
}

#[test]
fn store_backed_incognito_is_budget_invariant() {
    incognito::obs::set_enabled(true);
    let t = table();
    let qi = qi();
    let policies =
        [MaterializationPolicy::ZeroCube, MaterializationPolicy::LeveledCube { max_groups: 64 }];
    for policy in policies {
        for k in KS {
            let unlimited = Config::new(k).with_unlimited_memory();
            let mut ref_store = FreqStore::build(&t, &qi, policy, &unlimited).unwrap();
            let reference = incognito_with_store(&t, &qi, &unlimited, &mut ref_store).unwrap();
            for (name, budget) in budgets() {
                let label = format!("store {policy:?} k={k} budget={name}");
                let cfg = with_budget(Config::new(k), budget);
                let mut store = FreqStore::build(&t, &qi, policy, &cfg).unwrap();
                let before = spilled_sets();
                let r = incognito_with_store(&t, &qi, &cfg, &mut store).unwrap();
                assert_matches(&t, &reference, &r, &label);
                if budget == Some(0) {
                    // The search's own rollups from the spilled store spill.
                    assert!(spilled_sets() > before, "{label}: the search spilled nothing");
                }
            }
        }
    }
}

#[test]
fn bottom_up_is_budget_invariant_with_and_without_rollup() {
    let t = table();
    let qi = qi();
    for k in KS {
        for rollup in [true, false] {
            let base = || Config::new(k).with_rollup(rollup);
            let reference = bottom_up_search(&t, &qi, &base().with_unlimited_memory()).unwrap();
            for (name, budget) in budgets() {
                let r = bottom_up_search(&t, &qi, &with_budget(base(), budget)).unwrap();
                assert_matches(
                    &t,
                    &reference,
                    &r,
                    &format!("bottom-up rollup={rollup} k={k} budget={name}"),
                );
            }
        }
    }
}

#[test]
fn engines_agree_with_each_other_under_a_tight_budget() {
    let t = table();
    let qi = qi();
    let cfg = Config::new(2).with_memory_budget(1024);
    let basic = run_incognito(&t, &qi, &cfg).unwrap();
    let superroots =
        run_incognito(&t, &qi, &Config::new(2).with_superroots(true).with_memory_budget(1024))
            .unwrap();
    let cube = cube_incognito(&t, &qi, &cfg).unwrap();
    let bu = bottom_up_search(&t, &qi, &cfg).unwrap();
    for (label, r) in [("superroots", &superroots), ("cube", &cube), ("bottom-up", &bu)] {
        assert_eq!(
            r.generalizations(),
            basic.generalizations(),
            "{label} vs basic under tight budget"
        );
    }
}

/// The disk-backed rollup agrees group-for-group with the in-memory
/// rollup on the Figure 9 (quick-size) datasets: same groups, same
/// counts, at every reachable target.
#[test]
fn external_rollup_agrees_with_in_memory_on_fig09_datasets() {
    let spill = std::env::temp_dir();
    let datasets: [(&str, Table); 2] = [
        ("adults", adults(&AdultsConfig { rows: 4_000, seed: 7 })),
        ("landsend", lands_end(&LandsEndConfig { rows: 5_000, ..LandsEndConfig::default() })),
    ];
    for (name, t) in &datasets {
        let schema = t.schema();
        let qi: Vec<usize> = (0..3).collect();
        let spec = GroupSpec::ground(&qi).unwrap();
        let mem = t.frequency_set(&spec).unwrap();
        let ext = ExternalFrequencySet::build(t, &spec, 16, &spill).unwrap();
        assert_eq!(ext.total(), mem.total(), "{name}: totals diverge");

        // Every single-step target above ground, plus the all-top target.
        let heights: Vec<u8> = qi.iter().map(|&a| schema.hierarchy(a).height()).collect();
        let mut targets: Vec<Vec<u8>> = Vec::new();
        for i in 0..qi.len() {
            if heights[i] >= 1 {
                let mut levels = vec![0u8; qi.len()];
                levels[i] = 1;
                targets.push(levels);
            }
        }
        targets.push(heights.clone());
        for target in &targets {
            let mem_child = mem.rollup(schema, target).unwrap();
            let ext_child = ext.rollup(schema, target, &spill).unwrap();
            assert_eq!(
                ext_child.into_frequency_set().unwrap().to_labeled_rows(schema),
                mem_child.to_labeled_rows(schema),
                "{name}: rollup to {target:?} diverges"
            );
        }
    }
}
