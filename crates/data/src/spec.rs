//! A small text format for declaring a schema's generalization hierarchies,
//! so the command-line tool can anonymize arbitrary CSV files.
//!
//! One attribute per line: `NAME: KIND [ARGS]`, where KIND is one of
//!
//! * `identity` — never generalized (sensitive attributes);
//! * `suppression` — one step to `*`;
//! * `round N` — fixed-width codes, generalize N trailing characters one at
//!   a time (zipcodes);
//! * `ranges W1,W2,... [suppress]` — integer attribute bucketed into nested
//!   ranges of the given widths, optionally topped with `*`;
//! * `taxonomy` — followed by an indented tree block (two spaces per
//!   level), leaves at uniform depth:
//!
//! ```text
//! WorkClass: taxonomy
//!   employed
//!     private
//!     gov
//!   not-employed
//!     unemployed
//!     retired
//! ```
//!
//! Blank lines and `#` comments are ignored. Ground domains for
//! `identity`/`suppression`/`round`/`ranges` are inferred from the data by
//! [`load_csv_with_spec`].

use std::collections::BTreeSet;
use std::io::BufRead;
use std::sync::Arc;

use incognito_hierarchy::builders::{self, TaxonomyNode};
use incognito_table::{Attribute, Schema, Table};

use crate::csvio::{CsvError, Record, Records};

/// How one attribute generalizes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttrSpec {
    /// Height-0 hierarchy.
    Identity,
    /// Ground → `*`.
    Suppression,
    /// Round `n` trailing characters, one per level.
    Round(usize),
    /// Nested integer ranges with the given widths; `suppress` adds a top
    /// `*` level.
    Ranges {
        /// Nested bucket widths (each a multiple of the previous).
        widths: Vec<i64>,
        /// Whether to append a final `*` level.
        suppress: bool,
    },
    /// Explicit taxonomy tree (fixed ground domain).
    Taxonomy(TaxonomyNode),
}

/// A parsed schema spec: attribute names with their generalization kinds,
/// in declaration order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaSpec {
    /// `(attribute name, spec)` pairs.
    pub attributes: Vec<(String, AttrSpec)>,
}

/// Errors from spec parsing.
#[derive(Debug)]
pub enum SpecError {
    /// Malformed line with its 1-based number.
    Parse {
        /// Line number.
        line: usize,
        /// Problem description.
        message: String,
    },
    /// Building a hierarchy from the spec failed.
    Hierarchy(incognito_hierarchy::HierarchyError),
    /// CSV loading failed.
    Csv(CsvError),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Parse { line, message } => write!(f, "spec line {line}: {message}"),
            SpecError::Hierarchy(e) => write!(f, "hierarchy: {e}"),
            SpecError::Csv(e) => write!(f, "csv: {e}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<incognito_hierarchy::HierarchyError> for SpecError {
    fn from(e: incognito_hierarchy::HierarchyError) -> Self {
        SpecError::Hierarchy(e)
    }
}

impl From<CsvError> for SpecError {
    fn from(e: CsvError) -> Self {
        SpecError::Csv(e)
    }
}

impl SchemaSpec {
    /// Parse the text format described in the module docs.
    pub fn parse(text: &str) -> Result<SchemaSpec, SpecError> {
        let lines: Vec<(usize, &str)> = text
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l))
            .filter(|(_, l)| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
            .collect();
        let mut attributes = Vec::new();
        let mut i = 0;
        while i < lines.len() {
            let (lineno, line) = lines[i];
            if line.starts_with(' ') {
                return Err(SpecError::Parse {
                    line: lineno,
                    message: "unexpected indentation outside a taxonomy block".into(),
                });
            }
            let (name, rest) = line.split_once(':').ok_or(SpecError::Parse {
                line: lineno,
                message: "expected `NAME: KIND [ARGS]`".into(),
            })?;
            let name = name.trim().to_string();
            let mut words = rest.split_whitespace();
            let kind = words.next().unwrap_or("");
            i += 1;
            let spec = match kind {
                "identity" => AttrSpec::Identity,
                "suppression" => AttrSpec::Suppression,
                "round" => {
                    let n: usize =
                        words.next().and_then(|w| w.parse().ok()).ok_or(SpecError::Parse {
                            line: lineno,
                            message: "round needs a digit count".into(),
                        })?;
                    AttrSpec::Round(n)
                }
                "ranges" => {
                    let widths: Vec<i64> = words
                        .next()
                        .map(|w| w.split(',').filter_map(|x| x.parse().ok()).collect())
                        .unwrap_or_default();
                    if widths.is_empty() {
                        return Err(SpecError::Parse {
                            line: lineno,
                            message: "ranges needs comma-separated widths".into(),
                        });
                    }
                    let suppress = words.next() == Some("suppress");
                    AttrSpec::Ranges { widths, suppress }
                }
                "taxonomy" => {
                    // Consume the indented block.
                    let mut block: Vec<(usize, &str)> = Vec::new();
                    while i < lines.len() && lines[i].1.starts_with(' ') {
                        block.push(lines[i]);
                        i += 1;
                    }
                    if block.is_empty() {
                        return Err(SpecError::Parse {
                            line: lineno,
                            message: "taxonomy needs an indented tree block".into(),
                        });
                    }
                    AttrSpec::Taxonomy(parse_tree(&name, &block)?)
                }
                other => {
                    return Err(SpecError::Parse {
                        line: lineno,
                        message: format!("unknown kind {other:?}"),
                    })
                }
            };
            attributes.push((name, spec));
        }
        if attributes.is_empty() {
            return Err(SpecError::Parse { line: 0, message: "empty spec".into() });
        }
        Ok(SchemaSpec { attributes })
    }
}

/// Parse an indented block (two spaces per level) into a taxonomy rooted at
/// `*`.
fn parse_tree(attr: &str, block: &[(usize, &str)]) -> Result<TaxonomyNode, SpecError> {
    fn depth_of(line: &str) -> usize {
        (line.len() - line.trim_start().len()) / 2
    }
    // Parse as a forest at depth 1, children of an implicit "*" root.
    fn build(
        block: &[(usize, &str)],
        pos: &mut usize,
        depth: usize,
    ) -> Result<Vec<TaxonomyNode>, SpecError> {
        let mut out = Vec::new();
        while *pos < block.len() {
            let (lineno, line) = block[*pos];
            let d = depth_of(line);
            match d.cmp(&depth) {
                std::cmp::Ordering::Less => break,
                std::cmp::Ordering::Greater => {
                    return Err(SpecError::Parse {
                        line: lineno,
                        message: format!("indentation jumped to depth {d}, expected {depth}"),
                    })
                }
                std::cmp::Ordering::Equal => {
                    let label = line.trim().to_string();
                    *pos += 1;
                    let children = build(block, pos, depth + 1)?;
                    out.push(TaxonomyNode { label, children });
                }
            }
        }
        Ok(out)
    }
    let mut pos = 0;
    let children = build(block, &mut pos, 1)?;
    Ok(TaxonomyNode::node(format!("{attr}:*"), children))
}

/// Load a CSV under a spec: the header must list the spec's attributes in
/// order. Records are parsed by the same reader as
/// [`crate::csvio::read_csv`], so quoted fields may hold commas, quotes and
/// line breaks; unquoted fields are trimmed of surrounding whitespace.
/// Ground domains for the inferred kinds are collected from the data
/// (numerics sorted numerically so ordered-set models behave sensibly).
pub fn load_csv_with_spec<R: BufRead>(spec: &SchemaSpec, input: R) -> Result<Table, SpecError> {
    // First pass: buffer the records and collect distinct values per column.
    let mut records = Records::trimmed(input);
    let header = records
        .next()
        .ok_or(SpecError::Parse { line: 1, message: "missing CSV header".into() })??;
    let expected: Vec<&str> = spec.attributes.iter().map(|(n, _)| n.as_str()).collect();
    if header.fields != expected {
        return Err(SpecError::Parse {
            line: header.line,
            message: format!("CSV header {:?} does not match spec {expected:?}", header.fields),
        });
    }
    let mut rows: Vec<Record> = Vec::new();
    let mut domains: Vec<BTreeSet<String>> = vec![BTreeSet::new(); spec.attributes.len()];
    for record in records {
        let record = record?;
        if record.fields.len() != spec.attributes.len() {
            return Err(SpecError::Parse {
                line: record.line,
                message: format!(
                    "row has {} fields, expected {}",
                    record.fields.len(),
                    spec.attributes.len()
                ),
            });
        }
        for (d, f) in domains.iter_mut().zip(&record.fields) {
            d.insert(f.clone());
        }
        rows.push(record);
    }

    // Build hierarchies per attribute.
    let mut attrs = Vec::with_capacity(spec.attributes.len());
    for ((name, aspec), domain) in spec.attributes.iter().zip(&domains) {
        let mut values: Vec<&str> = domain.iter().map(String::as_str).collect();
        // Sort numerically when every value parses as an integer, so that
        // interval models see a meaningful order.
        if !values.is_empty() && values.iter().all(|v| v.parse::<i64>().is_ok()) {
            values.sort_by_key(|v| v.parse::<i64>().expect("checked"));
        }
        let hierarchy = match aspec {
            AttrSpec::Identity => builders::identity(name, &values)?,
            AttrSpec::Suppression => builders::suppression(name, &values)?,
            AttrSpec::Round(n) => builders::round_digits(name, &values, *n)?,
            AttrSpec::Ranges { widths, suppress } => {
                let nums: Result<Vec<i64>, _> = values.iter().map(|v| v.parse::<i64>()).collect();
                let nums = nums.map_err(|_| SpecError::Parse {
                    line: 0,
                    message: format!("attribute {name:?} declared `ranges` but holds non-integers"),
                })?;
                builders::ranges(name, &nums, widths, *suppress)?
            }
            AttrSpec::Taxonomy(tree) => builders::taxonomy(name, tree.clone())?,
        };
        attrs.push(Attribute::new(name, hierarchy));
    }
    let schema: Arc<Schema> = Schema::new(attrs).map_err(|e| SpecError::Csv(CsvError::Table(e)))?;

    let mut table = Table::empty(schema);
    for record in &rows {
        let refs: Vec<&str> = record.fields.iter().map(String::as_str).collect();
        table
            .push_row(&refs)
            .map_err(|e| SpecError::Parse { line: record.line, message: e.to_string() })?;
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = "\
# patients demo
Age: ranges 5,10 suppress
Sex: suppression
Zip: round 2
Work: taxonomy
  employed
    private
    gov
  other
    retired
Disease: identity
";

    #[test]
    fn parse_all_kinds() {
        let s = SchemaSpec::parse(SPEC).unwrap();
        assert_eq!(s.attributes.len(), 5);
        assert_eq!(s.attributes[0].1, AttrSpec::Ranges { widths: vec![5, 10], suppress: true });
        assert_eq!(s.attributes[1].1, AttrSpec::Suppression);
        assert_eq!(s.attributes[2].1, AttrSpec::Round(2));
        assert!(matches!(s.attributes[3].1, AttrSpec::Taxonomy(_)));
        assert_eq!(s.attributes[4].1, AttrSpec::Identity);
    }

    #[test]
    fn parse_errors_report_lines() {
        assert!(matches!(
            SchemaSpec::parse("Age ranges 5").unwrap_err(),
            SpecError::Parse { line: 1, .. }
        ));
        assert!(matches!(
            SchemaSpec::parse("Age: bogus").unwrap_err(),
            SpecError::Parse { line: 1, .. }
        ));
        assert!(matches!(
            SchemaSpec::parse("Age: round").unwrap_err(),
            SpecError::Parse { line: 1, .. }
        ));
        assert!(matches!(
            SchemaSpec::parse("W: taxonomy\nNext: identity").unwrap_err(),
            SpecError::Parse { .. }
        ));
        assert!(matches!(
            SpecError::from(incognito_hierarchy::HierarchyError::EmptyDomain),
            SpecError::Hierarchy(_)
        ));
    }

    #[test]
    fn load_csv_infers_domains_and_builds_hierarchies() {
        let spec = SchemaSpec::parse(SPEC).unwrap();
        let csv = "\
Age,Sex,Zip,Work,Disease
31,M,53715,private,flu
34,F,53710,gov,cold
47,M,53706,retired,flu
8,F,53703,private,cold
";
        let t = load_csv_with_spec(&spec, csv.as_bytes()).unwrap();
        assert_eq!(t.num_rows(), 4);
        let age = t.schema().hierarchy(0);
        assert_eq!(age.height(), 3); // 5yr, 10yr, *
        assert_eq!(age.label(1, age.generalize(age.ground_id("31").unwrap(), 1)), "[30-35)");
        // Numeric sort: ground id order is 8 < 31 < 34 < 47.
        assert_eq!(age.label(0, 0), "8");
        let work = t.schema().hierarchy(3);
        assert_eq!(work.height(), 2);
        let private = work.ground_id("private").unwrap();
        assert_eq!(work.label(1, work.generalize(private, 1)), "employed");
        assert_eq!(work.label(2, work.generalize(private, 2)), "Work:*");
        let zip = t.schema().hierarchy(2);
        assert_eq!(zip.height(), 2);
    }

    #[test]
    fn csv_header_mismatch() {
        let spec = SchemaSpec::parse("A: identity\nB: identity").unwrap();
        let err = load_csv_with_spec(&spec, "A,C\n1,2\n".as_bytes()).unwrap_err();
        assert!(matches!(err, SpecError::Parse { line: 1, .. }));
    }

    #[test]
    fn quoted_fields_keep_commas_and_unquoted_fields_are_trimmed() {
        let spec = SchemaSpec::parse("City: identity\nZip: round 1").unwrap();
        let csv = "City , Zip\n\"Madison, WI\", 53715\n Ann Arbor ,48104\n";
        let t = load_csv_with_spec(&spec, csv.as_bytes()).unwrap();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.label(0, 0), "Madison, WI");
        assert_eq!(t.label(0, 1), "53715");
        assert_eq!(t.label(1, 0), "Ann Arbor");
    }

    #[test]
    fn ragged_rows_rejected() {
        let spec = SchemaSpec::parse("A: identity\nB: identity").unwrap();
        let err = load_csv_with_spec(&spec, "A,B\n1\n".as_bytes()).unwrap_err();
        assert!(matches!(err, SpecError::Parse { line: 2, .. }));
    }

    #[test]
    fn taxonomy_depth_jump_rejected() {
        let bad = "W: taxonomy\n  a\n      deep\n";
        assert!(matches!(SchemaSpec::parse(bad).unwrap_err(), SpecError::Parse { .. }));
    }
}
