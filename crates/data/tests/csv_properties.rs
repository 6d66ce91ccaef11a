//! Property tests for CSV round-tripping: arbitrary labels (including
//! commas, quotes, carriage returns, newlines and embedded whitespace)
//! survive write → read intact.
//!
//! Cases are generated from the workspace's seeded PRNG so every run
//! checks the same set.

use std::collections::BTreeSet;

use incognito_data::csvio::{read_csv, write_csv};
use incognito_hierarchy::builders;
use incognito_obs::Rng;
use incognito_table::{Attribute, Schema, Table};

/// A random label of 1–12 characters: printable ASCII plus `\r` and `\n`,
/// so commas, quotes and line breaks all occur.
fn printable_label(rng: &mut Rng) -> String {
    let len = rng.range_usize(1, 13);
    (0..len)
        .map(|_| match rng.below(97) {
            95 => '\r',
            96 => '\n',
            c => char::from(b' ' + c as u8),
        })
        .collect()
}

/// Write a two-attribute table whose every cell holds one of `labels`,
/// read it back, and compare cell by cell.
fn assert_roundtrips(labels: &[&str]) {
    let schema = Schema::new(vec![
        Attribute::new("X", builders::identity("X", labels).unwrap()),
        Attribute::new("Y", builders::identity("Y", labels).unwrap()),
    ])
    .unwrap();
    let mut table = Table::empty(schema);
    for (i, x) in labels.iter().enumerate() {
        table.push_row(&[x, labels[(i + 1) % labels.len()]]).unwrap();
    }
    let mut buf = Vec::new();
    write_csv(&table, &mut buf).unwrap();
    let back = read_csv(table.schema().clone(), &buf[..]).unwrap();
    assert_eq!(back.num_rows(), table.num_rows());
    for row in 0..table.num_rows() {
        assert_eq!(back.label(row, 0), table.label(row, 0));
        assert_eq!(back.label(row, 1), table.label(row, 1));
    }
}

#[test]
fn label_with_embedded_newline_roundtrips() {
    assert_roundtrips(&["a\nb", "c"]);
}

#[test]
fn label_ending_in_carriage_return_roundtrips() {
    assert_roundtrips(&["x\r", "y"]);
}

#[test]
fn roundtrip_arbitrary_labels() {
    for case in 0..64u64 {
        let mut rng = Rng::seed_from_u64(0xC5F_0000 + case);
        let labels: BTreeSet<String> = {
            let target = rng.range_usize(1, 12);
            let mut set = BTreeSet::new();
            while set.len() < target {
                set.insert(printable_label(&mut rng));
            }
            set
        };
        let rows: Vec<u8> = {
            let len = rng.range_usize(0, 50);
            (0..len).map(|_| rng.below(256) as u8).collect()
        };

        let labels: Vec<String> = labels.into_iter().collect();
        let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
        let schema = Schema::new(vec![
            Attribute::new("X", builders::identity("X", &refs).unwrap()),
            Attribute::new("Y", builders::identity("Y", &refs).unwrap()),
        ])
        .unwrap();
        let mut table = Table::empty(schema);
        for r in &rows {
            let x = &labels[*r as usize % labels.len()];
            let y = &labels[(*r as usize / 7) % labels.len()];
            table.push_row(&[x, y]).unwrap();
        }
        let mut buf = Vec::new();
        write_csv(&table, &mut buf).unwrap();
        let back = read_csv(table.schema().clone(), &buf[..]).unwrap();
        assert_eq!(back.num_rows(), table.num_rows(), "case {case}");
        for row in 0..table.num_rows() {
            assert_eq!(back.label(row, 0), table.label(row, 0), "case {case}");
            assert_eq!(back.label(row, 1), table.label(row, 1), "case {case}");
        }
    }
}
