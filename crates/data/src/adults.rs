//! Synthetic **Adults** dataset matching Figure 9 of the paper.
//!
//! Schema (attribute index, name, distinct ground values, hierarchy):
//!
//! | # | Attribute      | Distinct | Generalizations            |
//! |---|----------------|----------|-----------------------------|
//! | 0 | Age            | 74       | 5-, 10-, 20-year ranges (4) |
//! | 1 | Gender         | 2        | Suppression (1)             |
//! | 2 | Race           | 5        | Suppression (1)             |
//! | 3 | Marital Status | 7        | Taxonomy tree (2)           |
//! | 4 | Education      | 16       | Taxonomy tree (3)           |
//! | 5 | Native Country | 41       | Taxonomy tree (2)           |
//! | 6 | Work Class     | 7       | Taxonomy tree (2)           |
//! | 7 | Occupation     | 14       | Taxonomy tree (2)           |
//! | 8 | Salary Class   | 2        | Suppression (1)             |
//!
//! The default row count is 45,222 — the paper's table size after removing
//! records with unknown values. Value frequencies are skewed to resemble
//! the census marginals (majority-class dominance, age concentration in the
//! working years) with light age→marital and education→salary correlation,
//! so frequency-set shapes behave like the real data's.

use std::sync::Arc;

use incognito_hierarchy::builders::{self, TaxonomyNode};
use incognito_obs::Rng;
use incognito_table::{Attribute, Schema, Table};

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct AdultsConfig {
    /// Number of rows to generate.
    pub rows: usize,
    /// RNG seed; identical seeds produce identical tables.
    pub seed: u64,
}

impl Default for AdultsConfig {
    fn default() -> Self {
        AdultsConfig { rows: 45_222, seed: 0x1ce5_0a11 }
    }
}

/// The paper-scale Adults table (45,222 rows, default seed).
pub fn adults_default() -> Table {
    adults(&AdultsConfig::default())
}

/// Generate the synthetic Adults table.
pub fn adults(cfg: &AdultsConfig) -> Table {
    let schema = adults_schema();
    let mut rng = Rng::seed_from_u64(cfg.seed);

    let mut cols: Vec<Vec<u32>> = vec![Vec::with_capacity(cfg.rows); schema.arity()];
    let age_sampler = Sampler::new(&age_weights());
    let gender = Sampler::new(&[67.0, 33.0]);
    let race = Sampler::new(&[85.4, 9.4, 3.1, 0.9, 1.2]);
    let marital_young = Sampler::new(&[15.0, 0.2, 1.0, 55.0, 18.0, 9.0, 1.8]);
    let marital_old = Sampler::new(&[52.0, 0.3, 1.5, 12.0, 19.0, 6.0, 9.2]);
    let education = Sampler::new(&[
        0.3, 1.0, 1.5, 2.0, 2.2, 3.0, 3.5, 1.6, // Preschool..12th
        32.0, 22.0, 4.5, 3.4, // HS-grad, Some-college, Assoc-voc, Assoc-acdm
        16.0, 5.5, 1.5, 1.2, // Bachelors, Masters, Prof-school, Doctorate
    ]);
    let country = Sampler::new(&country_weights());
    let workclass = Sampler::new(&[73.0, 8.0, 3.5, 3.0, 4.0, 6.4, 0.1]);
    let occupation = Sampler::new(&[
        12.6, 12.5, 12.4, 11.2, 10.1, 10.0, 4.2, 6.1, 11.5, 3.0, 4.8, 0.5, 2.0, 0.1,
    ]);

    for _ in 0..cfg.rows {
        let age_idx = age_sampler.sample(&mut rng) as u32; // 0..74 ⇔ age 17..90
        let age_years = 17 + age_idx;
        cols[0].push(age_idx);
        cols[1].push(gender.sample(&mut rng) as u32);
        cols[2].push(race.sample(&mut rng) as u32);
        let marital = if age_years < 30 {
            marital_young.sample(&mut rng)
        } else {
            marital_old.sample(&mut rng)
        };
        cols[3].push(marital as u32);
        let edu = education.sample(&mut rng);
        cols[4].push(edu as u32);
        cols[5].push(country.sample(&mut rng) as u32);
        cols[6].push(workclass.sample(&mut rng) as u32);
        cols[7].push(occupation.sample(&mut rng) as u32);
        // Salary: >50K more likely with higher education and age ≥ 30.
        let p_high = 0.08 + 0.02 * (edu as f64) + if age_years >= 30 { 0.08 } else { 0.0 };
        cols[8].push(u32::from(rng.gen_bool(p_high.min(0.9))));
    }

    Table::from_columns(schema, cols).expect("generated ids are in range")
}

/// The Adults schema with the Figure 9 hierarchies (no rows).
pub fn adults_schema() -> Arc<Schema> {
    let ages: Vec<i64> = (17..=90).collect(); // 74 distinct values
    Schema::new(vec![
        Attribute::new(
            "Age",
            builders::ranges("Age", &ages, &[5, 10, 20], true).expect("static hierarchy"),
        ),
        Attribute::new(
            "Gender",
            builders::suppression("Gender", &["Male", "Female"]).expect("static hierarchy"),
        ),
        Attribute::new(
            "Race",
            builders::suppression(
                "Race",
                &["White", "Black", "Asian-Pac-Islander", "Amer-Indian-Eskimo", "Other"],
            )
            .expect("static hierarchy"),
        ),
        Attribute::new("Marital Status", marital_taxonomy()),
        Attribute::new("Education", education_taxonomy()),
        Attribute::new("Native Country", country_taxonomy()),
        Attribute::new("Work Class", workclass_taxonomy()),
        Attribute::new("Occupation", occupation_taxonomy()),
        Attribute::new(
            "Salary Class",
            builders::suppression("Salary Class", &["<=50K", ">50K"]).expect("static hierarchy"),
        ),
    ])
    .expect("static schema")
}

/// Age frequencies for ages 17..=90: a working-age hump with a long tail.
fn age_weights() -> Vec<f64> {
    (17..=90)
        .map(|a| {
            let x = a as f64;
            // Peak near 36, slow decay into retirement ages.
            (-((x - 36.0) * (x - 36.0)) / (2.0 * 14.0 * 14.0)).exp() + 0.02
        })
        .collect()
}

fn marital_taxonomy() -> incognito_hierarchy::Hierarchy {
    // 7 leaves at depth 2 (height 2).
    let leaf = TaxonomyNode::leaf;
    builders::taxonomy(
        "Marital Status",
        TaxonomyNode::node(
            "*",
            vec![
                TaxonomyNode::node(
                    "Married",
                    vec![
                        leaf("Married-civ-spouse"),
                        leaf("Married-AF-spouse"),
                        leaf("Married-spouse-absent"),
                    ],
                ),
                TaxonomyNode::node(
                    "Not-married",
                    vec![
                        leaf("Never-married"),
                        leaf("Divorced"),
                        leaf("Separated"),
                        leaf("Widowed"),
                    ],
                ),
            ],
        ),
    )
    .expect("static taxonomy")
}

fn education_taxonomy() -> incognito_hierarchy::Hierarchy {
    // 16 leaves at depth 3 (height 3).
    let leaf = TaxonomyNode::leaf;
    builders::taxonomy(
        "Education",
        TaxonomyNode::node(
            "*",
            vec![
                TaxonomyNode::node(
                    "Without-post-secondary",
                    vec![
                        TaxonomyNode::node(
                            "Elementary",
                            vec![
                                leaf("Preschool"),
                                leaf("1st-4th"),
                                leaf("5th-6th"),
                                leaf("7th-8th"),
                            ],
                        ),
                        TaxonomyNode::node(
                            "Secondary",
                            vec![leaf("9th"), leaf("10th"), leaf("11th"), leaf("12th")],
                        ),
                    ],
                ),
                TaxonomyNode::node(
                    "With-post-secondary",
                    vec![
                        TaxonomyNode::node(
                            "Some-post-secondary",
                            vec![
                                leaf("HS-grad"),
                                leaf("Some-college"),
                                leaf("Assoc-voc"),
                                leaf("Assoc-acdm"),
                            ],
                        ),
                        TaxonomyNode::node(
                            "University",
                            vec![
                                leaf("Bachelors"),
                                leaf("Masters"),
                                leaf("Prof-school"),
                                leaf("Doctorate"),
                            ],
                        ),
                    ],
                ),
            ],
        ),
    )
    .expect("static taxonomy")
}

/// 41 countries grouped into 5 regions (height 2).
fn country_names() -> Vec<(&'static str, &'static [&'static str])> {
    vec![
        ("North-America", &["United-States", "Canada", "Outlying-US"][..]),
        (
            "Latin-America",
            &[
                "Mexico",
                "Puerto-Rico",
                "Cuba",
                "Jamaica",
                "Honduras",
                "Haiti",
                "Dominican-Republic",
                "El-Salvador",
                "Guatemala",
                "Nicaragua",
                "Columbia",
                "Ecuador",
                "Peru",
                "Trinadad&Tobago",
            ][..],
        ),
        (
            "Europe",
            &[
                "England",
                "Germany",
                "Greece",
                "Italy",
                "Poland",
                "Portugal",
                "Ireland",
                "France",
                "Hungary",
                "Scotland",
                "Yugoslavia",
                "Holand-Netherlands",
            ][..],
        ),
        (
            "Asia",
            &[
                "India",
                "Japan",
                "China",
                "Iran",
                "Philippines",
                "Cambodia",
                "Thailand",
                "Laos",
                "Taiwan",
                "Vietnam",
                "Hong",
            ][..],
        ),
        ("Other-region", &["South"][..]),
    ]
}

fn country_taxonomy() -> incognito_hierarchy::Hierarchy {
    let regions = country_names()
        .into_iter()
        .map(|(region, countries)| {
            TaxonomyNode::node(region, countries.iter().map(|&c| TaxonomyNode::leaf(c)).collect())
        })
        .collect();
    builders::taxonomy("Native Country", TaxonomyNode::node("*", regions)).expect("static taxonomy")
}

/// Weights aligned with the leaf order of [`country_taxonomy`]
/// (depth-first): the United States dominates, the rest follow a 1/rank
/// tail.
fn country_weights() -> Vec<f64> {
    let total: usize = country_names().iter().map(|(_, cs)| cs.len()).sum();
    debug_assert_eq!(total, 41);
    let mut w = Vec::with_capacity(total);
    for (i, _) in (0..total).enumerate() {
        w.push(if i == 0 { 600.0 } else { 10.0 / (i as f64) });
    }
    w
}

fn workclass_taxonomy() -> incognito_hierarchy::Hierarchy {
    let leaf = TaxonomyNode::leaf;
    builders::taxonomy(
        "Work Class",
        TaxonomyNode::node(
            "*",
            vec![
                TaxonomyNode::node("Non-government", vec![leaf("Private"), leaf("Without-pay")]),
                TaxonomyNode::node(
                    "Self-employed",
                    vec![leaf("Self-emp-not-inc"), leaf("Self-emp-inc")],
                ),
                TaxonomyNode::node(
                    "Government",
                    vec![leaf("Federal-gov"), leaf("State-gov"), leaf("Local-gov")],
                ),
            ],
        ),
    )
    .expect("static taxonomy")
}

fn occupation_taxonomy() -> incognito_hierarchy::Hierarchy {
    let leaf = TaxonomyNode::leaf;
    builders::taxonomy(
        "Occupation",
        TaxonomyNode::node(
            "*",
            vec![
                TaxonomyNode::node(
                    "White-collar",
                    vec![
                        leaf("Exec-managerial"),
                        leaf("Prof-specialty"),
                        leaf("Adm-clerical"),
                        leaf("Sales"),
                        leaf("Tech-support"),
                    ],
                ),
                TaxonomyNode::node(
                    "Blue-collar",
                    vec![
                        leaf("Craft-repair"),
                        leaf("Machine-op-inspct"),
                        leaf("Handlers-cleaners"),
                        leaf("Transport-moving"),
                        leaf("Farming-fishing"),
                    ],
                ),
                TaxonomyNode::node(
                    "Service",
                    vec![
                        leaf("Other-service"),
                        leaf("Priv-house-serv"),
                        leaf("Protective-serv"),
                        leaf("Armed-Forces"),
                    ],
                ),
            ],
        ),
    )
    .expect("static taxonomy")
}

/// Cumulative-distribution sampler over arbitrary positive weights.
pub(crate) struct Sampler {
    cumulative: Vec<f64>,
}

impl Sampler {
    pub(crate) fn new(weights: &[f64]) -> Sampler {
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in weights {
            assert!(w >= 0.0, "weights must be non-negative");
            acc += w;
            cumulative.push(acc);
        }
        assert!(acc > 0.0, "total weight must be positive");
        Sampler { cumulative }
    }

    /// Zipf-like weights `1 / (rank + 1)^s` over `n` items.
    pub(crate) fn zipf(n: usize, s: f64) -> Sampler {
        Sampler::new(&(0..n).map(|i| 1.0 / ((i + 1) as f64).powf(s)).collect::<Vec<_>>())
    }

    #[inline]
    pub(crate) fn sample(&self, rng: &mut Rng) -> usize {
        let total = *self.cumulative.last().expect("nonempty");
        let x: f64 = rng.range_f64(0.0, total);
        self.cumulative.partition_point(|&c| c <= x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_matches_figure9() {
        let s = adults_schema();
        let expect = [
            ("Age", 74usize, 4u8),
            ("Gender", 2, 1),
            ("Race", 5, 1),
            ("Marital Status", 7, 2),
            ("Education", 16, 3),
            ("Native Country", 41, 2),
            ("Work Class", 7, 2),
            ("Occupation", 14, 2),
            ("Salary Class", 2, 1),
        ];
        assert_eq!(s.arity(), 9);
        for (i, (name, distinct, height)) in expect.iter().enumerate() {
            let h = s.hierarchy(i);
            assert_eq!(s.attribute(i).name(), *name);
            assert_eq!(h.ground_size(), *distinct, "{name} distinct");
            assert_eq!(h.height(), *height, "{name} height");
        }
    }

    #[test]
    fn deterministic_generation() {
        let cfg = AdultsConfig { rows: 500, seed: 7 };
        let a = adults(&cfg);
        let b = adults(&cfg);
        assert_eq!(a.num_rows(), 500);
        for c in 0..a.schema().arity() {
            assert_eq!(a.column(c), b.column(c));
        }
        let other = adults(&AdultsConfig { rows: 500, seed: 8 });
        assert_ne!(a.column(0), other.column(0));
    }

    #[test]
    fn skew_shapes_look_censusy() {
        let t = adults(&AdultsConfig { rows: 20_000, seed: 1 });
        // Majority race dominates.
        let white = t.column(2).iter().filter(|&&v| v == 0).count();
        assert!(white as f64 / 20_000.0 > 0.7);
        // US dominates country.
        let us = t.column(5).iter().filter(|&&v| v == 0).count();
        assert!(us as f64 / 20_000.0 > 0.8);
        // Age values span a wide range.
        let distinct_ages = {
            let mut v: Vec<u32> = t.column(0).to_vec();
            v.sort_unstable();
            v.dedup();
            v.len()
        };
        assert!(distinct_ages > 60);
    }

    #[test]
    fn sampler_respects_weights() {
        let s = Sampler::new(&[90.0, 10.0]);
        let mut rng = Rng::seed_from_u64(3);
        let hits = (0..10_000).filter(|_| s.sample(&mut rng) == 0).count();
        assert!((8_500..9_500).contains(&hits), "got {hits}");
        let z = Sampler::zipf(5, 1.0);
        let first = (0..10_000).filter(|_| z.sample(&mut rng) == 0).count();
        assert!(first > 3_000);
    }

    #[test]
    fn generalizing_adults_is_consistent() {
        // Sanity: the paper's property that generalization only merges
        // groups — distinct count never increases up the Age hierarchy.
        let t = adults(&AdultsConfig { rows: 5_000, seed: 2 });
        let h = t.schema().hierarchy(0);
        let mut prev = usize::MAX;
        for level in 0..=h.height() {
            let spec = incognito_table::GroupSpec::new(vec![(0, level)]).unwrap();
            let groups = t.frequency_set(&spec).unwrap().num_groups();
            assert!(groups <= prev);
            prev = groups;
        }
        assert_eq!(prev, 1); // suppressed top
    }
}
