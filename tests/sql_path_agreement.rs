//! The SQL-path implementation (star schema + relational engine, the way
//! the paper actually ran Incognito) must agree with the native columnar
//! engine on realistic data, not just the running example.

use incognito::algo::{incognito as run_incognito, Config};
use incognito::data::{adults, AdultsConfig};
use incognito::hierarchy::LevelNo;
use incognito::star::incognito_sql;

#[test]
fn sql_and_native_agree_on_synthetic_adults() {
    let table = adults(&AdultsConfig { rows: 3_000, seed: 77 });
    for (qi, k) in [(vec![0usize, 1], 5u64), (vec![1, 2, 3], 10), (vec![0, 3, 4], 25)] {
        let sql = incognito_sql(&table, &qi, &Config::new(k)).unwrap();
        let native = run_incognito(&table, &qi, &Config::new(k)).unwrap();
        let native_levels: Vec<Vec<LevelNo>> =
            native.generalizations().iter().map(|g| g.levels.clone()).collect();
        assert_eq!(sql.generalizations, native_levels, "qi={qi:?} k={k}");
        assert_eq!(sql.nodes_checked, native.stats().nodes_checked(), "qi={qi:?} k={k}");
        assert_eq!(sql.nodes_marked, native.stats().nodes_marked(), "qi={qi:?} k={k}");
    }
}

#[test]
fn sql_path_with_suppression_agrees() {
    let table = adults(&AdultsConfig { rows: 2_000, seed: 78 });
    let qi = [0usize, 1];
    let cfg = Config::new(20).with_suppression(50);
    let sql = incognito_sql(&table, &qi, &cfg).unwrap();
    let native = run_incognito(&table, &qi, &cfg).unwrap();
    let native_levels: Vec<Vec<LevelNo>> =
        native.generalizations().iter().map(|g| g.levels.clone()).collect();
    assert_eq!(sql.generalizations, native_levels);
}
