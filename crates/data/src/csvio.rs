//! Minimal CSV import/export for [`Table`]s: header row of attribute
//! names, RFC-4180-style quoting for fields containing commas, quotes,
//! carriage returns or newlines. Enough for moving anonymized releases in
//! and out of the library without pulling a dependency.

use std::borrow::Cow;
use std::io::{self, BufRead, Write};
use std::sync::Arc;

use incognito_hierarchy::ValueId;
use incognito_table::{Schema, Table, TableError};

/// Errors from CSV parsing.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying IO failure.
    Io(io::Error),
    /// The header did not match the schema's attribute names.
    HeaderMismatch {
        /// Expected names (schema order).
        expected: Vec<String>,
        /// Names found in the file.
        found: Vec<String>,
    },
    /// A row failed to parse or load.
    Row {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// A value was rejected by the table.
    Table(TableError),
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "io error: {e}"),
            CsvError::HeaderMismatch { expected, found } => {
                write!(f, "header mismatch: expected {expected:?}, found {found:?}")
            }
            CsvError::Row { line, message } => write!(f, "line {line}: {message}"),
            CsvError::Table(e) => write!(f, "table error: {e}"),
        }
    }
}

impl std::error::Error for CsvError {}

impl From<io::Error> for CsvError {
    fn from(e: io::Error) -> Self {
        CsvError::Io(e)
    }
}

impl From<TableError> for CsvError {
    fn from(e: TableError) -> Self {
        CsvError::Table(e)
    }
}

/// Size of the buffer [`write_csv`] fills before each `write_all`.
const WRITE_BUF_BYTES: usize = 64 * 1024;

/// `field` as one CSV field: verbatim, or in quotes with inner quotes
/// doubled when it holds a comma, a quote, `\r` or `\n`. An empty field
/// that is its record's only one (`alone`) is written `""`: left bare it
/// would make an empty line, which a reader skips as blank.
fn quoted(field: &str, alone: bool) -> Cow<'_, str> {
    if field.contains([',', '"', '\r', '\n']) {
        Cow::Owned(format!("\"{}\"", field.replace('"', "\"\"")))
    } else if alone && field.is_empty() {
        Cow::Borrowed("\"\"")
    } else {
        Cow::Borrowed(field)
    }
}

/// One CSV record: its fields and the 1-based line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Record {
    /// Line of the record's first byte.
    pub(crate) line: usize,
    /// Field values, unquoted.
    pub(crate) fields: Vec<String>,
}

/// Reads CSV records from a [`BufRead`], honoring quotes: a quoted field
/// may hold commas, doubled quotes and line breaks, so one record may span
/// several lines. Each record's `\n` or `\r\n` terminator is dropped and
/// blank lines are skipped. [`read_csv`] and
/// [`crate::spec::load_csv_with_spec`] both parse through it.
pub(crate) struct Records<R> {
    input: R,
    trim: bool,
    line: String,
    lineno: usize,
}

impl<R: BufRead> Records<R> {
    /// Fields exactly as written (inside or outside quotes).
    pub(crate) fn new(input: R) -> Self {
        Records { input, trim: false, line: String::new(), lineno: 0 }
    }

    /// Unquoted fields trimmed of surrounding whitespace; a quoted field
    /// keeps its quoted text verbatim and loses only the whitespace outside
    /// its quotes.
    pub(crate) fn trimmed(input: R) -> Self {
        Records { trim: true, ..Records::new(input) }
    }

    /// Read the next line into `self.line`; false at end of input.
    fn next_line(&mut self) -> Result<bool, CsvError> {
        self.line.clear();
        if self.input.read_line(&mut self.line)? == 0 {
            return Ok(false);
        }
        self.lineno += 1;
        Ok(true)
    }

    fn read_record(&mut self) -> Result<Option<Record>, CsvError> {
        loop {
            if !self.next_line()? {
                return Ok(None);
            }
            if !matches!(self.line.as_str(), "\n" | "\r\n") {
                break;
            }
        }
        let start = self.lineno;
        let mut fields = Vec::new();
        let mut cur = String::new();
        let mut in_quotes = false;
        // `cur.len()` when the current field's closing quote was read.
        let mut closed_at: Option<usize> = None;
        loop {
            let mut chars = self.line.chars().peekable();
            while let Some(c) = chars.next() {
                if in_quotes {
                    match c {
                        '"' if chars.peek() == Some(&'"') => {
                            chars.next();
                            cur.push('"');
                        }
                        '"' => {
                            in_quotes = false;
                            closed_at = Some(cur.len());
                        }
                        _ => cur.push(c),
                    }
                } else {
                    match c {
                        '"' if closed_at.is_none()
                            && (cur.is_empty() || self.trim && cur.trim().is_empty()) =>
                        {
                            cur.clear();
                            in_quotes = true;
                        }
                        ',' => fields.push(finish_field(&mut cur, closed_at.take(), self.trim)),
                        '\n' => {}
                        '\r' if chars.peek() == Some(&'\n') => {}
                        _ => cur.push(c),
                    }
                }
            }
            if !in_quotes {
                break;
            }
            if !self.next_line()? {
                return Err(CsvError::Row {
                    line: start,
                    message: "unterminated quoted field".to_string(),
                });
            }
        }
        fields.push(finish_field(&mut cur, closed_at, self.trim));
        Ok(Some(Record { line: start, fields }))
    }
}

impl<R: BufRead> Iterator for Records<R> {
    type Item = Result<Record, CsvError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.read_record().transpose()
    }
}

/// Take the field accumulated in `cur`, trimming it when asked: all of an
/// unquoted field, only what follows the closing quote of a quoted one.
fn finish_field(cur: &mut String, closed_at: Option<usize>, trim: bool) -> String {
    let mut field = std::mem::take(cur);
    if trim {
        match closed_at {
            Some(end) => {
                let tail = field[end..].trim_end().len();
                field.truncate(end + tail);
            }
            None if field.trim().len() != field.len() => field = field.trim().to_string(),
            None => {}
        }
    }
    field
}

/// Write `table` as CSV (ground labels) with a header row.
///
/// Each attribute's ground labels are quoted once into a label table;
/// the rows are then pure byte copies from those tables into one reused
/// buffer, handed to `out` with `write_all` whenever it fills.
pub fn write_csv<W: Write>(table: &Table, mut out: W) -> io::Result<()> {
    let schema = table.schema();
    let alone = schema.arity() == 1;
    let label_tables: Vec<Vec<Cow<'_, str>>> = schema
        .attributes()
        .iter()
        .map(|a| a.hierarchy().level(0).labels().iter().map(|l| quoted(l, alone)).collect())
        .collect();
    let columns: Vec<&[ValueId]> = (0..schema.arity()).map(|a| table.column(a)).collect();
    let mut buf = Vec::with_capacity(WRITE_BUF_BYTES);

    for (a, attr) in schema.attributes().iter().enumerate() {
        if a > 0 {
            buf.push(b',');
        }
        buf.extend_from_slice(quoted(attr.name(), alone).as_bytes());
    }
    buf.push(b'\n');
    for row in 0..table.num_rows() {
        for (a, (column, labels)) in columns.iter().zip(&label_tables).enumerate() {
            if a > 0 {
                buf.push(b',');
            }
            buf.extend_from_slice(labels[column[row] as usize].as_bytes());
        }
        buf.push(b'\n');
        if buf.len() >= WRITE_BUF_BYTES {
            out.write_all(&buf)?;
            buf.clear();
        }
    }
    out.write_all(&buf)?;
    out.flush()
}

/// Read a CSV written by [`write_csv`] (or hand-made with the same layout)
/// into a table over `schema`. The header must list the schema's attribute
/// names in order; every field must be present in the corresponding ground
/// domain.
pub fn read_csv<R: BufRead>(schema: Arc<Schema>, input: R) -> Result<Table, CsvError> {
    let mut records = Records::new(input);
    let header = records
        .next()
        .ok_or(CsvError::Row { line: 1, message: "missing header".to_string() })??;
    let expected: Vec<String> = schema.attributes().iter().map(|a| a.name().to_string()).collect();
    if header.fields != expected {
        return Err(CsvError::HeaderMismatch { expected, found: header.fields });
    }

    let mut table = Table::empty(schema);
    for record in records {
        let record = record?;
        let refs: Vec<&str> = record.fields.iter().map(String::as_str).collect();
        table
            .push_row(&refs)
            .map_err(|e| CsvError::Row { line: record.line, message: e.to_string() })?;
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{adults, lands_end, patients, AdultsConfig, LandsEndConfig};
    use incognito_hierarchy::builders;
    use incognito_obs::Rng;
    use incognito_table::Attribute;

    /// The writer before label tables, kept as the byte-for-byte oracle:
    /// quote every cell on its own, build each row as a `String`.
    fn reference_quote(field: &str) -> String {
        if field.contains(',')
            || field.contains('"')
            || field.contains('\n')
            || field.contains('\r')
        {
            format!("\"{}\"", field.replace('"', "\"\""))
        } else {
            field.to_string()
        }
    }

    fn reference_write_csv(table: &Table) -> Vec<u8> {
        let mut w = Vec::new();
        let schema = table.schema();
        let header: Vec<String> =
            schema.attributes().iter().map(|a| reference_quote(a.name())).collect();
        writeln!(w, "{}", header.join(",")).unwrap();
        for row in 0..table.num_rows() {
            let mut line = String::new();
            for attr in 0..schema.arity() {
                if attr > 0 {
                    line.push(',');
                }
                line.push_str(&reference_quote(table.label(row, attr)));
            }
            writeln!(w, "{line}").unwrap();
        }
        w
    }

    fn written(table: &Table) -> Vec<u8> {
        let mut buf = Vec::new();
        write_csv(table, &mut buf).unwrap();
        buf
    }

    fn assert_matches_reference(table: &Table) {
        let got = written(table);
        let want = reference_write_csv(table);
        assert_eq!(got.len(), want.len());
        assert!(got == want, "writer output differs from the reference");
    }

    /// A view of `table` with every attribute generalized one level where
    /// its hierarchy allows it.
    fn release_view(table: &Table) -> Table {
        let levels: Vec<_> = (0..table.schema().arity())
            .map(|a| table.schema().hierarchy(a).height().min(1))
            .collect();
        table.generalize(&levels).unwrap()
    }

    fn lands_end_20k() -> Table {
        lands_end(&LandsEndConfig { rows: 20_000, ..LandsEndConfig::default() })
    }

    fn lands_end_view() -> Table {
        release_view(&lands_end_20k())
    }

    fn roundtrip(table: &Table) -> Table {
        read_csv(table.schema().clone(), &written(table)[..]).unwrap()
    }

    fn assert_same_labels(a: &Table, b: &Table) {
        assert_eq!(a.num_rows(), b.num_rows());
        for r in 0..a.num_rows() {
            for c in 0..a.schema().arity() {
                assert_eq!(a.label(r, c), b.label(r, c), "row {r} attribute {c}");
            }
        }
    }

    /// A two-attribute table over `labels` (identity hierarchies) whose
    /// rows visit every label in both columns.
    fn label_table(labels: &[&str]) -> Table {
        let schema = Schema::new(vec![
            Attribute::new("X", builders::identity("X", labels).unwrap()),
            Attribute::new("Y", builders::identity("Y", labels).unwrap()),
        ])
        .unwrap();
        let mut table = Table::empty(schema);
        for (i, x) in labels.iter().enumerate() {
            table.push_row(&[x, labels[(i + 1) % labels.len()]]).unwrap();
        }
        table
    }

    #[test]
    fn roundtrip_patients() {
        let t = patients();
        let text = String::from_utf8(written(&t)).unwrap();
        assert!(text.starts_with("Birthdate,Sex,Zipcode,Disease\n"));
        assert_same_labels(&roundtrip(&t), &t);
    }

    #[test]
    fn quoting_roundtrip() {
        assert_eq!(quoted("plain", false), "plain");
        assert_eq!(quoted("a,b", false), "\"a,b\"");
        assert_eq!(quoted("say \"hi\"", false), "\"say \"\"hi\"\"\"");
        assert_eq!(quoted("x\r", false), "\"x\r\"");
        assert_eq!(quoted("a\nb", false), "\"a\nb\"");
        assert_eq!(quoted("", false), "");
        assert_eq!(quoted("", true), "\"\"");
        assert_eq!(quoted("plain", true), "plain");
        let records: Vec<Record> =
            Records::new(&b"\"a,b\",c,\"say \"\"hi\"\"\"\n"[..]).map(Result::unwrap).collect();
        assert_eq!(
            records,
            vec![Record { line: 1, fields: vec!["a,b".into(), "c".into(), "say \"hi\"".into()] }]
        );
        assert!(matches!(
            Records::new(&b"\"oops"[..]).next(),
            Some(Err(CsvError::Row { line: 1, .. }))
        ));
    }

    #[test]
    fn quoted_fields_span_lines() {
        let input = b"A,B\r\n\"one\r\ntwo\",x\r\n\n\"\",\"3\n\"\"\"\n";
        let records: Vec<Record> = Records::new(&input[..]).map(Result::unwrap).collect();
        assert_eq!(
            records,
            vec![
                Record { line: 1, fields: vec!["A".into(), "B".into()] },
                Record { line: 2, fields: vec!["one\r\ntwo".into(), "x".into()] },
                Record { line: 5, fields: vec!["".into(), "3\n\"".into()] },
            ]
        );
        // An unterminated field reports the line its record starts on.
        match Records::new(&b"A\n\"open\n\nstill open\n"[..]).nth(1) {
            Some(Err(CsvError::Row { line: 2, message })) => {
                assert!(message.contains("unterminated"), "{message}")
            }
            other => panic!("expected an unterminated-field error, got {other:?}"),
        }
    }

    #[test]
    fn trimmed_records_trim_only_outside_quotes() {
        let input = b" a , \" b,c \" ,d\n";
        let record = Records::trimmed(&input[..]).next().unwrap().unwrap();
        assert_eq!(record.fields, vec!["a", " b,c ", "d"]);
        let record = Records::new(&input[..]).next().unwrap().unwrap();
        assert_eq!(record.fields, vec![" a ", " \" b", "c \" ", "d"]);
    }

    #[test]
    fn label_with_newline_roundtrips() {
        let t = label_table(&["a\nb", "plain"]);
        assert_eq!(written(&t), b"X,Y\n\"a\nb\",plain\nplain,\"a\nb\"\n");
        assert_same_labels(&roundtrip(&t), &t);
    }

    #[test]
    fn label_ending_in_carriage_return_roundtrips() {
        let t = label_table(&["x\r", "y"]);
        assert_eq!(written(&t), b"X,Y\n\"x\r\",y\ny,\"x\r\"\n");
        assert_same_labels(&roundtrip(&t), &t);
    }

    #[test]
    fn empty_lone_field_roundtrips() {
        // One attribute, named "", whose labels include "": both the
        // header and the empty label are written `""`, not as blank lines.
        let schema =
            Schema::new(vec![Attribute::new("", builders::identity("", &["", "a"]).unwrap())])
                .unwrap();
        let mut t = Table::empty(schema);
        for label in ["a", "", "a", ""] {
            t.push_row(&[label]).unwrap();
        }
        assert_eq!(written(&t), b"\"\"\na\n\"\"\na\n\"\"\n");
        assert_same_labels(&roundtrip(&t), &t);
        // With a second attribute the empty fields stay bare.
        let t = label_table(&["", "a"]);
        assert_eq!(written(&t), b"X,Y\n,a\na,\n");
        assert_same_labels(&roundtrip(&t), &t);
    }

    #[test]
    fn writer_matches_reference_on_patients() {
        assert_matches_reference(&patients());
    }

    #[test]
    fn writer_matches_reference_on_adults_release_view() {
        let view = release_view(&adults(&AdultsConfig::default()));
        assert_matches_reference(&view);
        assert_same_labels(&roundtrip(&view), &view);
    }

    #[test]
    fn writer_matches_reference_on_lands_end_release_view() {
        let base = lands_end_20k();
        let view = release_view(&base);
        assert!(written(&view).len() > 2 * WRITE_BUF_BYTES, "crosses several flushes");
        assert_matches_reference(&view);
        assert_matches_reference(&base);
    }

    #[test]
    fn writer_matches_reference_on_random_labels() {
        const ALPHABET: &[u8] = b",,,\"\"\"ab \r\n";
        for case in 0..32u64 {
            let mut rng = Rng::seed_from_u64(0x5EED_C5F0 + case);
            let mut labels: Vec<String> = vec![String::new()];
            while labels.len() < 2 + rng.range_usize(0, 10) {
                let len = rng.range_usize(0, 9);
                let label: String = (0..len)
                    .map(|_| char::from(ALPHABET[rng.below(ALPHABET.len() as u64) as usize]))
                    .collect();
                if !labels.contains(&label) {
                    labels.push(label);
                }
            }
            let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
            let schema = Schema::new(vec![
                Attribute::new("a,\"b\"", builders::identity("A", &refs).unwrap()),
                Attribute::new("", builders::identity("B", &refs).unwrap()),
                Attribute::new("C", builders::identity("C", &refs).unwrap()),
            ])
            .unwrap();
            let mut table = Table::empty(schema);
            for _ in 0..rng.range_usize(0, 4_000) {
                let ids: Vec<ValueId> =
                    (0..3).map(|_| rng.below(labels.len() as u64) as ValueId).collect();
                table.push_ids(&ids).unwrap();
            }
            assert_matches_reference(&table);
            assert_same_labels(&roundtrip(&table), &table);
        }
    }

    /// A sink that accepts `budget` bytes and then fails, counting the
    /// `flush` calls that reach it.
    struct Sink {
        budget: usize,
        bytes: usize,
        flushes: usize,
    }

    impl Write for Sink {
        fn write(&mut self, data: &[u8]) -> io::Result<usize> {
            let n = data.len().min(self.budget - self.bytes);
            if n == 0 && !data.is_empty() {
                return Err(io::Error::other("sink full"));
            }
            self.bytes += n;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            self.flushes += 1;
            Ok(())
        }
    }

    #[test]
    fn a_failing_sink_surfaces_as_err() {
        let view = lands_end_view();
        let total = written(&view).len();
        for budget in [0, 1, WRITE_BUF_BYTES - 1, WRITE_BUF_BYTES + 7, total / 2, total - 1] {
            let mut sink = Sink { budget, bytes: 0, flushes: 0 };
            let err = write_csv(&view, &mut sink).expect_err("the sink ran out of room");
            assert_eq!(err.to_string(), "sink full", "budget {budget}");
            assert_eq!(sink.bytes, budget);
        }
    }

    #[test]
    fn exactly_one_flush_reaches_the_sink() {
        let view = lands_end_view();
        let mut sink = Sink { budget: usize::MAX, bytes: 0, flushes: 0 };
        write_csv(&view, &mut sink).unwrap();
        assert_eq!(sink.bytes, reference_write_csv(&view).len());
        assert_eq!(sink.flushes, 1);
    }

    #[test]
    fn header_mismatch_detected() {
        let t = patients();
        let bad = b"Nope,Sex,Zipcode,Disease\n".to_vec();
        assert!(matches!(
            read_csv(t.schema().clone(), &bad[..]),
            Err(CsvError::HeaderMismatch { .. })
        ));
    }

    #[test]
    fn unknown_value_reports_line() {
        let t = patients();
        let bad = b"Birthdate,Sex,Zipcode,Disease\n1/21/76,Male,99999,Flu\n".to_vec();
        match read_csv(t.schema().clone(), &bad[..]) {
            Err(CsvError::Row { line: 2, .. }) => {}
            other => panic!("expected row error, got {other:?}"),
        }
    }

    #[test]
    fn blank_lines_are_skipped() {
        let t = patients();
        let csv = b"Birthdate,Sex,Zipcode,Disease\n\n1/21/76,Male,53715,Flu\n\n".to_vec();
        let back = read_csv(t.schema().clone(), &csv[..]).unwrap();
        assert_eq!(back.num_rows(), 1);
    }
}
