//! Drives the `incognito` binary end to end on the Patients table of
//! Figure 1: `anonymize` must put the released CSV, and nothing else, on
//! stdout, byte-identical to what `--output` writes.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const SPEC: &str = "\
Birthdate: suppression
Sex: suppression
Zipcode: round 2
Disease: identity
";

const DATA: &str = "\
Birthdate,Sex,Zipcode,Disease
1/21/76,Male,53715,Flu
4/13/86,Female,53715,Hepatitis
2/28/76,Male,53703,Brochitis
1/21/76,Male,53703,Broken Arm
4/13/86,Female,53706,Sprained Ankle
2/28/76,Female,53706,Hang Nail
";

/// A fresh directory under the system temp dir holding the spec and CSV.
fn workdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("incognito_cli_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("patients.spec"), SPEC).unwrap();
    std::fs::write(dir.join("patients.csv"), DATA).unwrap();
    dir
}

fn anonymize(dir: &Path, extra: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_incognito"))
        .arg("anonymize")
        .arg("--spec")
        .arg(dir.join("patients.spec"))
        .arg("--data")
        .arg(dir.join("patients.csv"))
        .args(["--qi", "Birthdate,Sex,Zipcode", "--k", "2"])
        .args(extra)
        .output()
        .expect("run the incognito binary");
    assert!(out.status.success(), "incognito failed: {}", String::from_utf8_lossy(&out.stderr));
    out
}

/// The row count from the `released N rows (...)` status line.
fn released_rows(stderr: &[u8]) -> usize {
    let text = String::from_utf8_lossy(stderr);
    let line = text
        .lines()
        .find(|l| l.starts_with("released "))
        .unwrap_or_else(|| panic!("no `released` status line in stderr:\n{text}"));
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

#[test]
fn anonymize_writes_only_the_csv_to_stdout() {
    let dir = workdir();
    let to_stdout = anonymize(&dir, &[]);
    let rows = released_rows(&to_stdout.stderr);
    assert_eq!(rows, 6, "k = 2 is reachable without suppression");
    let stdout = String::from_utf8(to_stdout.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines[0], "Birthdate,Sex,Zipcode,Disease");
    assert_eq!(lines.len(), rows + 1, "stdout is the header plus one line per row:\n{stdout}");
    assert!(stdout.ends_with('\n'));

    let path = dir.join("released.csv");
    let to_file = anonymize(&dir, &["--output", path.to_str().unwrap()]);
    assert!(to_file.stdout.is_empty(), "with --output, stdout stays empty");
    assert_eq!(released_rows(&to_file.stderr), rows);
    assert_eq!(std::fs::read(&path).unwrap(), stdout.as_bytes());
    std::fs::remove_dir_all(&dir).unwrap();
}
