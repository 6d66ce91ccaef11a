//! Property-based verification of the paper's §3.2 theorem — *Basic
//! Incognito is sound and complete for producing k-anonymous full-domain
//! generalizations* — plus the three structural properties it rests on
//! (Generalization, Rollup, Subset), over randomly generated tables and
//! hierarchies.
//!
//! Tables and hierarchies are drawn from the workspace's seeded PRNG
//! ([`incognito::obs::Rng`]) so every run checks the same case set and
//! failures reproduce by case number.

use incognito::algo::{
    binary_search::samarati_binary_search, bottom_up::bottom_up_search, cube::cube_incognito,
    incognito as run_incognito, Config,
};
use incognito::hierarchy::Hierarchy;
use incognito::lattice::CandidateGraph;
use incognito::lattice::PruneStrategy;
use incognito::obs::Rng;
use incognito::table::{Attribute, GroupSpec, Schema, Table};

/// A random generalization hierarchy: 2–7 leaf values, random nested
/// merges up to a random height, topped with full suppression.
fn random_hierarchy(rng: &mut Rng, name: &'static str) -> Hierarchy {
    let ground = rng.range_usize(2, 8);
    let mid_levels = rng.range_usize(1, 3);
    // Random parent maps: at each level, values merge into ~half as many
    // parents, with the first `next` children pinned so γ is onto.
    let mut maps: Vec<Vec<u32>> = Vec::new();
    let mut sizes = vec![ground];
    let mut size = ground;
    for _ in 0..mid_levels {
        let next = size.div_ceil(2).max(1);
        let mut map: Vec<u32> = (0..size).map(|_| rng.below(next as u64) as u32).collect();
        for (i, slot) in map.iter_mut().enumerate().take(next) {
            *slot = i as u32;
        }
        maps.push(map);
        sizes.push(next);
        size = next;
    }
    let mut levels: Vec<Vec<String>> = Vec::new();
    for (l, &sz) in sizes.iter().enumerate() {
        levels.push((0..sz).map(|i| format!("{name}-L{l}-{i}")).collect());
    }
    // Top it with a suppression level unless already singleton.
    if *sizes.last().expect("nonempty") > 1 {
        maps.push(vec![0; *sizes.last().expect("nonempty")]);
        levels.push(vec![format!("{name}-*")]);
    }
    Hierarchy::from_levels(name, levels, maps).expect("constructed valid")
}

/// A random 3-attribute table of 0–39 rows (7 × arbitrary hierarchies
/// would explode the lattice; 3 keeps brute force honest while covering
/// the multi-attribute machinery).
fn random_table(rng: &mut Rng) -> Table {
    let ha = random_hierarchy(rng, "A");
    let hb = random_hierarchy(rng, "B");
    let hc = random_hierarchy(rng, "C");
    let (ga, gb, gc) = (ha.ground_size(), hb.ground_size(), hc.ground_size());
    let schema = Schema::new(vec![
        Attribute::new("A", ha),
        Attribute::new("B", hb),
        Attribute::new("C", hc),
    ])
    .expect("distinct names");
    let rows = rng.range_usize(0, 40);
    let mut cols = vec![Vec::new(), Vec::new(), Vec::new()];
    for _ in 0..rows {
        cols[0].push(rng.below(ga as u64) as u32);
        cols[1].push(rng.below(gb as u64) as u32);
        cols[2].push(rng.below(gc as u64) as u32);
    }
    Table::from_columns(schema, cols).expect("ids in range")
}

/// A random k in 1..6, matching the proptest range the suite started with.
fn random_k(rng: &mut Rng) -> u64 {
    1 + rng.below(5)
}

/// Brute force: test every node of the full lattice directly.
fn brute_force(table: &Table, qi: &[usize], k: u64) -> Vec<Vec<u8>> {
    let lattice = CandidateGraph::full_lattice(table.schema(), qi);
    let mut out: Vec<Vec<u8>> = lattice
        .nodes()
        .iter()
        .filter(|n| {
            table
                .frequency_set(&n.to_group_spec().expect("valid spec"))
                .expect("valid spec")
                .is_k_anonymous(k)
        })
        .map(|n| n.levels())
        .collect();
    out.sort();
    out
}

/// §3.2: Incognito (all variants) returns exactly the brute-force set.
#[test]
fn incognito_sound_and_complete() {
    for case in 0..64u64 {
        let mut rng = Rng::seed_from_u64(0x50D0_0000 + case);
        let table = random_table(&mut rng);
        let k = random_k(&mut rng);
        let qi = [0usize, 1, 2];
        let truth = brute_force(&table, &qi, k);
        for cfg in [
            Config::new(k),
            Config::new(k).with_superroots(true),
            Config::new(k).with_rollup(false),
            Config::new(k).with_prune(PruneStrategy::HashSet),
        ] {
            let r = run_incognito(&table, &qi, &cfg).expect("valid workload");
            let got: Vec<Vec<u8>> = r.generalizations().iter().map(|g| g.levels.clone()).collect();
            assert_eq!(&got, &truth, "case {case}: cfg {cfg:?}");
        }
        let cube = cube_incognito(&table, &qi, &Config::new(k)).expect("valid workload");
        let got: Vec<Vec<u8>> = cube.generalizations().iter().map(|g| g.levels.clone()).collect();
        assert_eq!(&got, &truth, "case {case}: cube variant");
        let bu = bottom_up_search(&table, &qi, &Config::new(k)).expect("valid workload");
        let got: Vec<Vec<u8>> = bu.generalizations().iter().map(|g| g.levels.clone()).collect();
        assert_eq!(&got, &truth, "case {case}: bottom-up");
    }
}

/// Binary search finds exactly the minimal-height members of the truth.
#[test]
fn binary_search_finds_minimal_height() {
    for case in 0..64u64 {
        let mut rng = Rng::seed_from_u64(0xB14A_0000 + case);
        let table = random_table(&mut rng);
        let k = random_k(&mut rng);
        let qi = [0usize, 1, 2];
        let truth = brute_force(&table, &qi, k);
        let result = samarati_binary_search(&table, &qi, &Config::new(k));
        if truth.is_empty() {
            assert!(result.is_err(), "case {case}");
        } else {
            let min_h = truth
                .iter()
                .map(|ls| ls.iter().map(|&l| l as u32).sum::<u32>())
                .min()
                .expect("nonempty");
            let r = result.expect("satisfiable");
            assert_eq!(r.minimal_height(), Some(min_h), "case {case}");
            for g in r.generalizations() {
                assert!(truth.contains(&g.levels), "case {case}");
                assert_eq!(g.height(), min_h, "case {case}");
            }
        }
    }
}

/// Generalization Property: k-anonymous at P ⇒ k-anonymous at any
/// generalization Q of P.
#[test]
fn generalization_property() {
    for case in 0..64u64 {
        let mut rng = Rng::seed_from_u64(0x6E4E_0000 + case);
        let table = random_table(&mut rng);
        let k = random_k(&mut rng);
        let schema = table.schema().clone();
        let lattice = CandidateGraph::full_lattice(&schema, &[0, 1, 2]);
        for &(s, e) in lattice.edges() {
            let fs = table
                .frequency_set(&lattice.node(s).to_group_spec().expect("valid"))
                .expect("valid");
            if fs.is_k_anonymous(k) {
                let fe = table
                    .frequency_set(&lattice.node(e).to_group_spec().expect("valid"))
                    .expect("valid");
                assert!(fe.is_k_anonymous(k), "case {case}");
            }
        }
    }
}

/// Rollup Property: rolling a frequency set up equals rescanning at the
/// higher levels.
#[test]
fn rollup_property() {
    for case in 0..64u64 {
        let mut rng = Rng::seed_from_u64(0x2011_0000 + case);
        let table = random_table(&mut rng);
        let lift: Vec<u8> = (0..3).map(|_| rng.below(3) as u8).collect();
        let schema = table.schema().clone();
        let ground =
            table.frequency_set(&GroupSpec::ground(&[0, 1, 2]).expect("valid")).expect("valid");
        let target: Vec<u8> = (0..3).map(|i| lift[i].min(schema.hierarchy(i).height())).collect();
        let rolled = ground.rollup(&schema, &target).expect("upward");
        let spec = GroupSpec::new((0..3).map(|i| (i, target[i])).collect()).expect("valid");
        let scanned = table.frequency_set(&spec).expect("valid");
        assert_eq!(
            rolled.to_labeled_rows(&schema),
            scanned.to_labeled_rows(&schema),
            "case {case}"
        );
    }
}

/// Subset Property: k-anonymous w.r.t. Q ⇒ k-anonymous w.r.t. P ⊆ Q;
/// equivalently projections of frequency sets match narrow scans.
#[test]
fn subset_property() {
    for case in 0..64u64 {
        let mut rng = Rng::seed_from_u64(0x5B5E_0000 + case);
        let table = random_table(&mut rng);
        let k = random_k(&mut rng);
        let schema = table.schema().clone();
        let wide =
            table.frequency_set(&GroupSpec::ground(&[0, 1, 2]).expect("valid")).expect("valid");
        for keep in [vec![0usize], vec![1], vec![2], vec![0, 1], vec![0, 2], vec![1, 2]] {
            let proj = wide.project(&keep).expect("valid positions");
            let attrs: Vec<usize> = keep.clone();
            let scan =
                table.frequency_set(&GroupSpec::ground(&attrs).expect("valid")).expect("valid");
            assert_eq!(proj.to_labeled_rows(&schema), scan.to_labeled_rows(&schema), "case {case}");
            if wide.is_k_anonymous(k) {
                assert!(proj.is_k_anonymous(k), "case {case}");
            }
        }
    }
}

/// Every generalization Incognito reports materializes to a view that
/// really is k-anonymous; the bottom lattice node is reported iff the
/// raw table is k-anonymous.
#[test]
fn reported_generalizations_materialize_k_anonymous() {
    for case in 0..64u64 {
        let mut rng = Rng::seed_from_u64(0x3A7E_0000 + case);
        let table = random_table(&mut rng);
        let k = random_k(&mut rng);
        let qi = [0usize, 1, 2];
        let r = run_incognito(&table, &qi, &Config::new(k)).expect("valid workload");
        for g in r.generalizations().iter().take(8) {
            let (view, suppressed) = r.materialize(&table, g).expect("reported gens valid");
            assert_eq!(suppressed, 0, "case {case}");
            let spec = GroupSpec::ground(&qi).expect("valid");
            assert!(view.is_k_anonymous(&spec, k).expect("valid"), "case {case}");
        }
        let raw_anonymous = table
            .frequency_set(&GroupSpec::ground(&qi).expect("valid"))
            .expect("valid")
            .is_k_anonymous(k);
        assert_eq!(r.contains(&[0, 0, 0]), raw_anonymous, "case {case}");
    }
}

/// Suppression-threshold semantics hold under the same property regime.
#[test]
fn suppression_matches_brute_force_on_fixed_tables() {
    let t = incognito::data::patients();
    for k in [2u64, 3] {
        for max_sup in [0u64, 1, 2, 3] {
            let cfg = Config::new(k).with_suppression(max_sup);
            let r = run_incognito(&t, &[0, 1, 2], &cfg).expect("valid workload");
            let lattice = CandidateGraph::full_lattice(t.schema(), &[0, 1, 2]);
            let mut truth: Vec<Vec<u8>> = lattice
                .nodes()
                .iter()
                .filter(|n| {
                    let f = t.frequency_set(&n.to_group_spec().expect("valid")).expect("valid");
                    if max_sup == 0 {
                        f.is_k_anonymous(k)
                    } else {
                        f.is_k_anonymous_with_suppression(k, max_sup)
                    }
                })
                .map(|n| n.levels())
                .collect();
            truth.sort();
            let got: Vec<Vec<u8>> = r.generalizations().iter().map(|g| g.levels.clone()).collect();
            assert_eq!(got, truth, "k={k} max_sup={max_sup}");
        }
    }
}
