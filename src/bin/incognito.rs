//! Command-line front end: anonymize arbitrary CSV files with the
//! algorithms in this workspace.
//!
//! ```text
//! incognito describe  --spec schema.spec --data table.csv
//! incognito check     --spec schema.spec --data table.csv --qi Age,Sex,Zip --k 5
//! incognito anonymize --spec schema.spec --data table.csv --qi Age,Sex,Zip --k 5 \
//!                     [--max-suppress N] [--algorithm basic|superroots|cube|binary-search|datafly] \
//!                     [--select height|discernibility] [--list] [--output out.csv]
//! ```
//!
//! `anonymize` writes the released CSV to `--output`, or to stdout when
//! that flag is absent; its status lines go to stderr, so
//! `incognito anonymize ... > out.csv` yields a valid CSV.
//!
//! The spec format is documented in `incognito::data::spec` (one line per
//! attribute: `identity`, `suppression`, `round N`, `ranges W1,W2 [suppress]`,
//! or `taxonomy` with an indented tree).

use std::fs::File;
use std::io::BufReader;
use std::process::ExitCode;

use incognito::algo::{
    binary_search::samarati_binary_search, cube::cube_incognito, datafly::datafly,
    incognito as run_incognito, AnonymizationResult, Config,
};
use incognito::data::csvio::write_csv;
use incognito::data::spec::{load_csv_with_spec, SchemaSpec};
use incognito::models::release::full_domain_release;
use incognito::table::{GroupSpec, Table};

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

struct Args(Vec<String>);

impl Args {
    fn get(&self, name: &str) -> Option<&str> {
        let flag = format!("--{name}");
        self.0.iter().position(|a| *a == flag).and_then(|i| self.0.get(i + 1)).map(String::as_str)
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == &format!("--{name}"))
    }

    fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name).ok_or_else(|| format!("missing required flag --{name}"))
    }
}

fn run() -> Result<(), String> {
    let mut argv = std::env::args().skip(1);
    let Some(command) = argv.next() else {
        return Err(USAGE.to_string());
    };
    let args = Args(argv.collect());
    match command.as_str() {
        "describe" => describe(&args),
        "check" => check(&args),
        "anonymize" => anonymize(&args),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    }
}

const USAGE: &str = "usage:
  incognito describe  --spec S --data D
  incognito check     --spec S --data D --qi A,B,C --k K
  incognito anonymize --spec S --data D --qi A,B,C --k K
                      [--max-suppress N] [--algorithm basic|superroots|cube|binary-search|datafly]
                      [--select height|discernibility] [--list] [--output OUT.csv]";

fn load(args: &Args) -> Result<Table, String> {
    let spec_path = args.require("spec")?;
    let data_path = args.require("data")?;
    let spec_text =
        std::fs::read_to_string(spec_path).map_err(|e| format!("reading {spec_path}: {e}"))?;
    let spec = SchemaSpec::parse(&spec_text).map_err(|e| e.to_string())?;
    let file = File::open(data_path).map_err(|e| format!("opening {data_path}: {e}"))?;
    load_csv_with_spec(&spec, BufReader::new(file)).map_err(|e| e.to_string())
}

fn parse_qi(args: &Args, table: &Table) -> Result<Vec<usize>, String> {
    let qi_arg = args.require("qi")?;
    qi_arg
        .split(',')
        .map(|name| {
            table
                .schema()
                .index_of(name.trim())
                .ok_or_else(|| format!("unknown attribute {name:?} in --qi"))
        })
        .collect()
}

fn parse_k(args: &Args) -> Result<u64, String> {
    args.require("k")?.parse().map_err(|_| "--k must be a positive integer".to_string())
}

fn describe(args: &Args) -> Result<(), String> {
    let table = load(args)?;
    println!("{} rows, schema {}", table.num_rows(), table.schema());
    for attr in table.schema().attributes() {
        let h = attr.hierarchy();
        println!(
            "  {:20} {:>7} distinct values, hierarchy height {}",
            attr.name(),
            h.ground_size(),
            h.height()
        );
    }
    Ok(())
}

fn check(args: &Args) -> Result<(), String> {
    let table = load(args)?;
    let qi = parse_qi(args, &table)?;
    let k = parse_k(args)?;
    let spec = GroupSpec::ground(&qi).map_err(|e| e.to_string())?;
    let freq = table.frequency_set(&spec).map_err(|e| e.to_string())?;
    let ok = freq.is_k_anonymous(k);
    println!(
        "{}: {} equivalence classes, smallest {}, {} tuples below k",
        if ok { "k-anonymous" } else { "NOT k-anonymous" },
        freq.num_groups(),
        freq.min_count().unwrap_or(0),
        freq.tuples_below(k)
    );
    if !ok {
        return Err(format!("table is not {k}-anonymous over the given quasi-identifier"));
    }
    Ok(())
}

fn anonymize(args: &Args) -> Result<(), String> {
    let table = load(args)?;
    let qi = parse_qi(args, &table)?;
    let k = parse_k(args)?;
    let max_suppress: u64 = args
        .get("max-suppress")
        .map(|v| v.parse().map_err(|_| "--max-suppress must be an integer".to_string()))
        .transpose()?
        .unwrap_or(0);
    let mut cfg = Config::new(k).with_suppression(max_suppress);

    let algorithm = args.get("algorithm").unwrap_or("basic");
    let result: AnonymizationResult = match algorithm {
        "basic" => run_incognito(&table, &qi, &cfg).map_err(|e| e.to_string())?,
        "superroots" => {
            cfg = cfg.with_superroots(true);
            run_incognito(&table, &qi, &cfg).map_err(|e| e.to_string())?
        }
        "cube" => cube_incognito(&table, &qi, &cfg).map_err(|e| e.to_string())?,
        "binary-search" => samarati_binary_search(&table, &qi, &cfg).map_err(|e| e.to_string())?,
        "datafly" => datafly(&table, &qi, &cfg).map_err(|e| e.to_string())?,
        other => return Err(format!("unknown --algorithm {other:?}")),
    };

    if result.is_empty() {
        return Err("no k-anonymous full-domain generalization exists under this budget".into());
    }
    eprintln!(
        "{} k-anonymous generalization(s) found; {} nodes checked, {} table scans.",
        result.len(),
        result.stats().nodes_checked(),
        result.stats().table_scans
    );
    if args.has("list") {
        for g in result.generalizations() {
            eprintln!("  {}  (height {})", g.describe(table.schema(), result.qi()), g.height());
        }
    }

    let select = args.get("select").unwrap_or("height");
    let chosen = match select {
        "height" => {
            *result.minimal_by_height().first().expect("nonempty result has a minimal element")
        }
        "discernibility" => result
            .minimal_frontier()
            .into_iter()
            .min_by_key(|g| {
                full_domain_release(&table, result.qi(), &g.levels, None)
                    .map(|r| r.metrics(k).discernibility)
                    .unwrap_or(u128::MAX)
            })
            .expect("nonempty result has a frontier"),
        other => return Err(format!("unknown --select {other:?}")),
    };
    eprintln!("selected {} (by {select})", chosen.describe(table.schema(), result.qi()));

    let (view, suppressed) = result.materialize(&table, chosen).map_err(|e| e.to_string())?;
    eprintln!("released {} rows ({suppressed} suppressed)", view.num_rows());
    if let Some(path) = args.get("output") {
        let file = File::create(path).map_err(|e| format!("creating {path}: {e}"))?;
        write_csv(&view, file).map_err(|e| e.to_string())?;
        eprintln!("written to {path}");
    } else {
        write_csv(&view, std::io::stdout().lock()).map_err(|e| e.to_string())?;
    }
    Ok(())
}
