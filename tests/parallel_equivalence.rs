//! Parallel/serial equivalence: every engine must return the identical
//! generalization set — and identical per-iteration survivor counts — no
//! matter how many worker threads drive it. The wave-parallel search is
//! designed to replay the serial engine's state transitions exactly
//! (DESIGN.md §8); this suite is the enforcement.

use incognito::algo::cube::cube_incognito;
use incognito::algo::materialize::{incognito_with_store, FreqStore, MaterializationPolicy};
use incognito::algo::{incognito as run_incognito, AnonymizationResult, Config};
use incognito::data::{adults, AdultsConfig};
use incognito::table::Table;

const THREADS: [usize; 3] = [1, 2, 8];
const KS: [u64; 2] = [2, 10];

fn table() -> Table {
    adults(&AdultsConfig { rows: 5_000, seed: 42 })
}

fn qi() -> Vec<usize> {
    (0..5).collect()
}

/// Generalization sets and per-iteration survivor counts must match the
/// serial reference exactly, not merely be equivalent up to reordering.
fn assert_matches(reference: &AnonymizationResult, got: &AnonymizationResult, label: &str) {
    assert_eq!(
        got.generalizations(),
        reference.generalizations(),
        "{label}: generalization sets diverge"
    );
    let ref_survivors: Vec<usize> =
        reference.stats().iterations.iter().map(|i| i.survivors).collect();
    let got_survivors: Vec<usize> = got.stats().iterations.iter().map(|i| i.survivors).collect();
    assert_eq!(got_survivors, ref_survivors, "{label}: per-iteration survivors diverge");
}

#[test]
fn basic_incognito_is_thread_count_invariant() {
    let t = table();
    let qi = qi();
    for k in KS {
        let reference = run_incognito(&t, &qi, &Config::new(k).with_threads(1)).unwrap();
        for threads in THREADS {
            let cfg = Config::new(k).with_threads(threads);
            let r = run_incognito(&t, &qi, &cfg).unwrap();
            assert_matches(&reference, &r, &format!("basic k={k} threads={threads}"));
        }
    }
}

#[test]
fn superroots_incognito_is_thread_count_invariant() {
    let t = table();
    let qi = qi();
    for k in KS {
        let serial = Config::new(k).with_superroots(true).with_threads(1);
        let reference = run_incognito(&t, &qi, &serial).unwrap();
        for threads in THREADS {
            let cfg = Config::new(k).with_superroots(true).with_threads(threads);
            let r = run_incognito(&t, &qi, &cfg).unwrap();
            assert_matches(&reference, &r, &format!("superroots k={k} threads={threads}"));
        }
    }
}

#[test]
fn cube_incognito_is_thread_count_invariant() {
    let t = table();
    let qi = qi();
    for k in KS {
        let reference = cube_incognito(&t, &qi, &Config::new(k).with_threads(1)).unwrap();
        for threads in THREADS {
            let cfg = Config::new(k).with_threads(threads);
            let r = cube_incognito(&t, &qi, &cfg).unwrap();
            assert_matches(&reference, &r, &format!("cube k={k} threads={threads}"));
        }
    }
}

#[test]
fn store_backed_incognito_is_thread_count_invariant() {
    let t = table();
    let qi = qi();
    for k in KS {
        let serial = Config::new(k).with_threads(1);
        let mut ref_store =
            FreqStore::build(&t, &qi, MaterializationPolicy::ZeroCube, &serial).unwrap();
        let reference = incognito_with_store(&t, &qi, &serial, &mut ref_store).unwrap();
        for threads in THREADS {
            // A store per run, built at the run's thread count.
            let cfg = Config::new(k).with_threads(threads);
            let mut store =
                FreqStore::build(&t, &qi, MaterializationPolicy::ZeroCube, &cfg).unwrap();
            let r = incognito_with_store(&t, &qi, &cfg, &mut store).unwrap();
            assert_matches(&reference, &r, &format!("store k={k} threads={threads}"));
        }
    }
}

#[test]
fn engines_agree_with_each_other_at_every_thread_count() {
    let t = table();
    let qi = qi();
    for threads in THREADS {
        let cfg = Config::new(2).with_threads(threads);
        let basic = run_incognito(&t, &qi, &cfg).unwrap();
        let superroots =
            run_incognito(&t, &qi, &Config::new(2).with_superroots(true).with_threads(threads))
                .unwrap();
        let cube = cube_incognito(&t, &qi, &cfg).unwrap();
        let mut store = FreqStore::build(&t, &qi, MaterializationPolicy::ZeroCube, &cfg).unwrap();
        let stored = incognito_with_store(&t, &qi, &cfg, &mut store).unwrap();
        for (label, r) in [("superroots", &superroots), ("cube", &cube), ("store", &stored)] {
            assert_eq!(
                r.generalizations(),
                basic.generalizations(),
                "{label} vs basic at threads={threads}"
            );
        }
    }
}
