//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! * **A1 rollup** — Incognito with rollup-from-parent on vs. off
//!   (§4.2.1's "rollup goes a long way");
//! * **A2 a-priori pruning** — the prune phase on vs. off (Figure 7's
//!   pruned graph vs. the full join product);
//! * **A3 prune structure** — Apriori hash tree vs. flat hash set in the
//!   prune phase;
//! * **A4 super-roots** — root grouping on vs. off (§4.2.2's scan savings).
//!
//! Plain `fn main()` harness (see `incognito_bench::micro`); run with
//! `cargo bench -p incognito-bench --bench ablations`.

use incognito_bench::micro::Micro;
use incognito_core::{incognito, Config};
use incognito_data::{adults, AdultsConfig};
use incognito_lattice::{generate_next, CandidateGraph, PruneStrategy};

fn bench_rollup_ablation() {
    let table = adults(&AdultsConfig { rows: 45_222, seed: 1 });
    let qi: Vec<usize> = (0..5).collect();
    let group = Micro::group("ablation_rollup");
    group.case("with_rollup", || incognito(&table, &qi, &Config::new(2)).unwrap());
    group.case("without_rollup", || {
        incognito(&table, &qi, &Config::new(2).with_rollup(false)).unwrap()
    });
}

fn bench_apriori_ablation() {
    let table = adults(&AdultsConfig { rows: 45_222, seed: 1 });
    let qi: Vec<usize> = (0..6).collect();
    let group = Micro::group("ablation_apriori");
    group.case("with_prune", || incognito(&table, &qi, &Config::new(2)).unwrap());
    group.case("without_prune", || {
        incognito(&table, &qi, &Config::new(2).with_prune(PruneStrategy::None)).unwrap()
    });
}

fn bench_prune_structure() {
    // Isolate the candidate-generation step: all C2 nodes alive, generate
    // C3 with each membership structure.
    let table = adults(&AdultsConfig { rows: 1, seed: 1 });
    let schema = table.schema().clone();
    let qi: Vec<usize> = (0..9).collect();
    let c1 = CandidateGraph::initial(&schema, &qi);
    let c2 = generate_next(&c1, &vec![true; c1.num_nodes()], PruneStrategy::HashTree);
    // Kill a third of the nodes so the prune phase has real work.
    let alive: Vec<bool> = (0..c2.num_nodes()).map(|i| i % 3 != 0).collect();

    let group = Micro::group("ablation_prune_structure").samples(20);
    group.case("hash_tree", || generate_next(&c2, &alive, PruneStrategy::HashTree));
    group.case("hash_set", || generate_next(&c2, &alive, PruneStrategy::HashSet));
}

fn bench_superroots_ablation() {
    let table = adults(&AdultsConfig { rows: 45_222, seed: 1 });
    let qi: Vec<usize> = (0..6).collect();
    let group = Micro::group("ablation_superroots");
    group.case("basic", || incognito(&table, &qi, &Config::new(2)).unwrap());
    group.case("superroots", || {
        incognito(&table, &qi, &Config::new(2).with_superroots(true)).unwrap()
    });
}

fn bench_materialization_ablation() {
    // §7 future work: repeated anonymization (varying k) with and without
    // a materialized frequency-set store.
    use incognito_core::materialize::{incognito_with_store, FreqStore, MaterializationPolicy};
    let table = adults(&AdultsConfig { rows: 45_222, seed: 1 });
    let qi: Vec<usize> = (0..5).collect();
    let ks = [2u64, 5, 10, 25, 50];
    let group = Micro::group("ablation_materialization");
    group.case("rescan_each_k", || {
        for &k in &ks {
            std::hint::black_box(incognito(&table, &qi, &Config::new(k)).unwrap());
        }
    });
    group.case("zero_cube_store", || {
        let mut store =
            FreqStore::build(&table, &qi, MaterializationPolicy::ZeroCube, &Config::new(2))
                .unwrap();
        for &k in &ks {
            std::hint::black_box(
                incognito_with_store(&table, &qi, &Config::new(k), &mut store).unwrap(),
            );
        }
    });
}

fn bench_sql_substrate_overhead() {
    // Native columnar engine vs the star-schema SQL path (the paper's DB2
    // formulation): same algorithm, generic relational substrate.
    let table = adults(&AdultsConfig { rows: 5_000, seed: 1 });
    let qi: Vec<usize> = vec![0, 1, 3];
    let group = Micro::group("ablation_sql_substrate");
    group.case("native_columnar", || incognito(&table, &qi, &Config::new(5)).unwrap());
    group.case("sql_star_schema", || {
        incognito_star::incognito_sql(&table, &qi, &Config::new(5)).unwrap()
    });
}

fn main() {
    bench_rollup_ablation();
    bench_apriori_ablation();
    bench_prune_structure();
    bench_superroots_ablation();
    bench_materialization_ablation();
    bench_sql_substrate_overhead();
}
