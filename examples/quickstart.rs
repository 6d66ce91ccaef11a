//! Quickstart: the paper's running example end to end.
//!
//! Reproduces the Figure 1 joining attack, then walks Basic Incognito over
//! the Patients table exactly as Examples 3.1/3.2 describe, prints every
//! search decision, and materializes the minimal 2-anonymous view.
//!
//! Run with: `cargo run --release --example quickstart`

use incognito::algo::trace::TraceEvent;
use incognito::algo::{incognito::incognito_traced, Config};
use incognito::data::{patients, voter_registration};

fn main() {
    let patients = patients();
    let voters = voter_registration();

    // --- The joining attack (Figure 1) --------------------------------
    println!("Patients table (quasi-identifier: Birthdate, Sex, Zipcode):");
    for row in 0..patients.num_rows() {
        println!(
            "  {:8} {:6} {:5}  {}",
            patients.label(row, 0),
            patients.label(row, 1),
            patients.label(row, 2),
            patients.label(row, 3),
        );
    }
    println!("\nJoining with the public voter registration list re-identifies:");
    for vr in 0..voters.num_rows() {
        for pr in 0..patients.num_rows() {
            if voters.label(vr, 1) == patients.label(pr, 0)
                && voters.label(vr, 2) == patients.label(pr, 1)
                && voters.label(vr, 3) == patients.label(pr, 2)
            {
                println!(
                    "  {} -> {} (via ⟨{}, {}, {}⟩)",
                    voters.label(vr, 0),
                    patients.label(pr, 3),
                    voters.label(vr, 1),
                    voters.label(vr, 2),
                    voters.label(vr, 3),
                );
            }
        }
    }

    // --- Incognito search (Examples 3.1 / 3.2) -------------------------
    let qi = [0usize, 1, 2];
    let k = 2;
    println!("\nRunning Basic Incognito (k = {k}) over ⟨Birthdate, Sex, Zipcode⟩...");
    let (result, trace) =
        incognito_traced(&patients, &qi, &Config::new(k)).expect("valid workload");
    let schema = patients.schema();
    let show = |spec: &[(usize, u8)]| -> String {
        let parts: Vec<String> = spec
            .iter()
            .map(|&(a, l)| format!("{}{}", initial(schema.attribute(a).name()), l))
            .collect();
        format!("⟨{}⟩", parts.join(","))
    };
    for event in &trace {
        match event {
            TraceEvent::IterationStart { arity, candidates, edges } => {
                println!("  iteration {arity}: {candidates} candidate nodes, {edges} edges");
            }
            TraceEvent::Checked { spec, via, anonymous } => {
                println!(
                    "    check {:10} via {:?}: {}",
                    show(spec),
                    via,
                    if *anonymous { "k-anonymous" } else { "NOT k-anonymous" }
                );
            }
            TraceEvent::Marked { spec, implied_by } => {
                println!("    mark  {:10} (implied by {})", show(spec), show(implied_by));
            }
            TraceEvent::IterationEnd { survivors } => {
                println!("    -> {survivors} nodes survive");
            }
        }
    }

    println!("\nAll {} k-anonymous full-domain generalizations:", result.len());
    for g in result.generalizations() {
        println!("  {}  (height {})", g.describe(schema, result.qi()), g.height());
    }
    let minimal = result.minimal_by_height();
    println!("\nMinimal (height-optimal) generalization(s):");
    for g in &minimal {
        println!("  {}", g.describe(schema, result.qi()));
    }

    let (view, suppressed) =
        result.materialize(&patients, minimal[0]).expect("reported gens are valid");
    println!(
        "\nReleased view under {} ({suppressed} tuples suppressed):",
        minimal[0].describe(schema, result.qi())
    );
    for row in 0..view.num_rows() {
        println!(
            "  {:8} {:6} {:5}  {}",
            view.label(row, 0),
            view.label(row, 1),
            view.label(row, 2),
            view.label(row, 3),
        );
    }
    println!("\nThe join key ⟨Birthdate, Sex, Zipcode⟩ now matches ≥ {k} patients per voter: the attack is blunted.");
}

fn initial(name: &str) -> char {
    name.chars().next().unwrap_or('?')
}
