//! Synthetic **Lands End** point-of-sale dataset matching Figure 9.
//!
//! The real table (4,591,581 rows, 268 MB) is proprietary and was never
//! released; this generator reproduces its schema shape exactly:
//!
//! | # | Attribute  | Distinct | Generalizations      |
//! |---|------------|----------|----------------------|
//! | 0 | Zipcode    | 31,953   | Round each digit (5) |
//! | 1 | Order date | 320      | Taxonomy tree (3)    |
//! | 2 | Gender     | 2        | Suppression (1)      |
//! | 3 | Style      | 1,509    | Suppression (1)      |
//! | 4 | Price      | 346      | Round each digit (4) |
//! | 5 | Quantity   | 1        | Suppression (1)      |
//! | 6 | Cost       | 1,412    | Round each digit (4) |
//! | 7 | Shipment   | 2        | Suppression (1)      |
//!
//! The default row count is 500,000 so the harness runs at laptop speed;
//! pass `rows: 4_591_581` for paper scale. Zipcodes, styles, prices, and
//! costs follow heavy-tailed (Zipf-like) frequency distributions, as retail
//! sales do.

use std::sync::Arc;

use incognito_hierarchy::builders;
use incognito_obs::Rng;
use incognito_table::{Attribute, Schema, Table};

use crate::adults::Sampler;

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct LandsEndConfig {
    /// Number of rows to generate (paper scale: 4,591,581).
    pub rows: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LandsEndConfig {
    fn default() -> Self {
        LandsEndConfig { rows: 500_000, seed: 0x1a4d_5e4d }
    }
}

/// The default-scale Lands End table (500,000 rows).
pub fn lands_end_default() -> Table {
    lands_end(&LandsEndConfig::default())
}

/// Generate the synthetic Lands End table.
pub fn lands_end(cfg: &LandsEndConfig) -> Table {
    let schema = lands_end_schema();
    let mut rng = Rng::seed_from_u64(cfg.seed);

    let zip = Sampler::zipf(31_953, 0.6);
    let date = Sampler::zipf(320, 0.2);
    let gender = Sampler::new(&[62.0, 38.0]);
    let style = Sampler::zipf(1_509, 0.9);
    let price = Sampler::zipf(346, 0.7);
    let cost = Sampler::zipf(1_412, 0.7);
    let shipment = Sampler::new(&[88.0, 12.0]);

    let mut cols: Vec<Vec<u32>> = vec![Vec::with_capacity(cfg.rows); schema.arity()];
    for _ in 0..cfg.rows {
        cols[0].push(zip.sample(&mut rng) as u32);
        cols[1].push(date.sample(&mut rng) as u32);
        cols[2].push(gender.sample(&mut rng) as u32);
        cols[3].push(style.sample(&mut rng) as u32);
        cols[4].push(price.sample(&mut rng) as u32);
        cols[5].push(0); // Quantity has a single distinct value in Figure 9
        cols[6].push(cost.sample(&mut rng) as u32);
        cols[7].push(shipment.sample(&mut rng) as u32);
    }
    Table::from_columns(schema, cols).expect("generated ids are in range")
}

/// The Lands End schema with the Figure 9 hierarchies (no rows).
pub fn lands_end_schema() -> Arc<Schema> {
    // 31,953 distinct 5-digit zipcodes: a deterministic stride through
    // 00000..=99999 that yields exactly that many distinct codes.
    let zips: Vec<String> =
        (0..31_953u32).map(|i| format!("{:05}", (i * 3 + 7) % 100_000)).collect();
    let zip_refs: Vec<&str> = zips.iter().map(String::as_str).collect();

    // 320 order dates spanning 16 months × 20 days each; the taxonomy is
    // day → month → quarter → all (height 3).
    let dates: Vec<String> = (0..320u32)
        .map(|i| {
            let month = i / 20; // 0..16
            let year = 2001 + month / 12;
            let m = month % 12 + 1;
            let d = (i % 20) + 1;
            format!("{year:04}-{m:02}-{d:02}")
        })
        .collect();
    let date_refs: Vec<&str> = dates.iter().map(String::as_str).collect();
    let order_date =
        builders::taxonomy("Order date", date_taxonomy(&date_refs)).expect("static hierarchy");

    let styles: Vec<String> = (0..1_509u32).map(|i| format!("style-{i:04}")).collect();
    let style_refs: Vec<&str> = styles.iter().map(String::as_str).collect();

    // Prices and costs as 4-digit dollar amounts (rounded digit by digit);
    // the strides stay below 9990 so every label is distinct.
    let prices: Vec<String> = (0..346u32).map(|i| format!("{:04}", 10 + i * 7)).collect();
    let price_refs: Vec<&str> = prices.iter().map(String::as_str).collect();
    let costs: Vec<String> = (0..1_412u32).map(|i| format!("{:04}", 5 + i * 7)).collect();
    let cost_refs: Vec<&str> = costs.iter().map(String::as_str).collect();

    Schema::new(vec![
        Attribute::new(
            "Zipcode",
            builders::round_digits("Zipcode", &zip_refs, 5).expect("static hierarchy"),
        ),
        Attribute::new("Order date", order_date),
        Attribute::new(
            "Gender",
            builders::suppression("Gender", &["Female", "Male"]).expect("static hierarchy"),
        ),
        Attribute::new(
            "Style",
            builders::suppression("Style", &style_refs).expect("static hierarchy"),
        ),
        Attribute::new(
            "Price",
            builders::round_digits("Price", &price_refs, 4).expect("static hierarchy"),
        ),
        Attribute::new(
            "Quantity",
            builders::suppression("Quantity", &["1"]).expect("static hierarchy"),
        ),
        Attribute::new(
            "Cost",
            builders::round_digits("Cost", &cost_refs, 4).expect("static hierarchy"),
        ),
        Attribute::new(
            "Shipment",
            builders::suppression("Shipment", &["Standard", "Express"]).expect("static hierarchy"),
        ),
    ])
    .expect("static schema")
}

/// Build the day → month → quarter → * taxonomy over ISO date labels.
fn date_taxonomy(dates: &[&str]) -> builders::TaxonomyNode {
    use builders::TaxonomyNode as N;
    // Group by quarter then month, preserving input order within groups.
    let quarter_of = |d: &str| -> String {
        let month: u32 = d[5..7].parse().expect("ISO date");
        format!("{}-Q{}", &d[..4], (month - 1) / 3 + 1)
    };
    let month_of = |d: &str| -> String { d[..7].to_string() };

    type MonthGroup = (String, Vec<String>);
    let mut quarters: Vec<(String, Vec<MonthGroup>)> = Vec::new();
    for &d in dates {
        let q = quarter_of(d);
        let m = month_of(d);
        let qe = match quarters.iter_mut().find(|(name, _)| *name == q) {
            Some(e) => e,
            None => {
                quarters.push((q.clone(), Vec::new()));
                quarters.last_mut().expect("just pushed")
            }
        };
        let me = match qe.1.iter_mut().find(|(name, _)| *name == m) {
            Some(e) => e,
            None => {
                qe.1.push((m.clone(), Vec::new()));
                qe.1.last_mut().expect("just pushed")
            }
        };
        me.1.push(d.to_string());
    }
    N::node(
        "*",
        quarters
            .into_iter()
            .map(|(q, months)| {
                N::node(
                    q,
                    months
                        .into_iter()
                        .map(|(m, days)| N::node(m, days.into_iter().map(N::leaf).collect()))
                        .collect(),
                )
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_matches_figure9() {
        let s = lands_end_schema();
        let expect = [
            ("Zipcode", 31_953usize, 5u8),
            ("Order date", 320, 3),
            ("Gender", 2, 1),
            ("Style", 1_509, 1),
            ("Price", 346, 4),
            ("Quantity", 1, 1),
            ("Cost", 1_412, 4),
            ("Shipment", 2, 1),
        ];
        assert_eq!(s.arity(), 8);
        for (i, (name, distinct, height)) in expect.iter().enumerate() {
            let h = s.hierarchy(i);
            assert_eq!(s.attribute(i).name(), *name);
            assert_eq!(h.ground_size(), *distinct, "{name} distinct");
            assert_eq!(h.height(), *height, "{name} height");
        }
    }

    #[test]
    fn date_hierarchy_nests_correctly() {
        let s = lands_end_schema();
        let h = s.hierarchy(1);
        let d = h.ground_id("2001-01-01").unwrap();
        assert_eq!(h.label(1, h.generalize(d, 1)), "2001-01");
        assert_eq!(h.label(2, h.generalize(d, 2)), "2001-Q1");
        assert_eq!(h.label(3, h.generalize(d, 3)), "*");
        let d2 = h.ground_id("2001-04-05").unwrap();
        assert_ne!(h.generalize(d, 2), h.generalize(d2, 2));
    }

    #[test]
    fn zip_rounding_levels() {
        let s = lands_end_schema();
        let h = s.hierarchy(0);
        assert_eq!(h.level_size(5), 1);
        assert!(h.level_size(1) <= 10_000);
        let z = h.ground_id("00007").unwrap();
        assert_eq!(h.label(1, h.generalize(z, 1)), "0000*");
    }

    #[test]
    fn deterministic_and_skewed() {
        let cfg = LandsEndConfig { rows: 10_000, seed: 5 };
        let a = lands_end(&cfg);
        let b = lands_end(&cfg);
        assert_eq!(a.column(0), b.column(0));
        // Zipf skew: the most popular style should appear far more than
        // 1/1509 of the time.
        let top_style = a.column(3).iter().filter(|&&v| v == 0).count();
        assert!(top_style > 50, "got {top_style}");
        // Quantity is constant.
        assert!(a.column(5).iter().all(|&v| v == 0));
    }
}
