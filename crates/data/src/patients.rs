//! The running example of the paper: the Patients table of Figure 1 with
//! the Zipcode / Birthdate / Sex hierarchies of Figure 2, plus the voter
//! registration table used to demonstrate the joining attack.

use incognito_hierarchy::builders;
use incognito_table::{Attribute, Schema, Table};

/// The hospital Patients table of Figure 1.
///
/// Quasi-identifier: ⟨Birthdate (0), Sex (1), Zipcode (2)⟩; Disease (3) is
/// the sensitive attribute. Hierarchies follow Figure 2: Birthdate and Sex
/// suppress in one step, Zipcode rounds a digit at a time (two levels, as
/// drawn: Z0 → Z1 → Z2).
pub fn patients() -> Table {
    let schema = Schema::new(vec![
        Attribute::new(
            "Birthdate",
            builders::suppression("Birthdate", &["1/21/76", "2/28/76", "4/13/86"])
                .expect("static domain"),
        ),
        Attribute::new(
            "Sex",
            builders::suppression("Sex", &["Male", "Female"]).expect("static domain"),
        ),
        Attribute::new(
            "Zipcode",
            builders::round_digits("Zipcode", &["53715", "53710", "53706", "53703"], 2)
                .expect("static domain"),
        ),
        Attribute::new(
            "Disease",
            builders::identity(
                "Disease",
                &["Flu", "Hepatitis", "Brochitis", "Broken Arm", "Sprained Ankle", "Hang Nail"],
            )
            .expect("static domain"),
        ),
    ])
    .expect("static schema");
    let mut t = Table::empty(schema);
    for row in [
        ["1/21/76", "Male", "53715", "Flu"],
        ["4/13/86", "Female", "53715", "Hepatitis"],
        ["2/28/76", "Male", "53703", "Brochitis"],
        ["1/21/76", "Male", "53703", "Broken Arm"],
        ["4/13/86", "Female", "53706", "Sprained Ankle"],
        ["2/28/76", "Female", "53706", "Hang Nail"],
    ] {
        t.push_row(&row).expect("static rows");
    }
    t
}

/// The public voter registration table of Figure 1 — the external data a
/// joining attack links against. All attributes use identity hierarchies
/// (an attacker does not generalize their own data).
pub fn voter_registration() -> Table {
    let schema = Schema::new(vec![
        Attribute::new(
            "Name",
            builders::identity("Name", &["Andre", "Beth", "Carol", "Dan", "Ellen"])
                .expect("static domain"),
        ),
        Attribute::new(
            "Birthdate",
            builders::identity(
                "Birthdate",
                &["1/21/76", "1/10/81", "10/1/44", "2/21/84", "4/19/72"],
            )
            .expect("static domain"),
        ),
        Attribute::new(
            "Sex",
            builders::identity("Sex", &["Male", "Female"]).expect("static domain"),
        ),
        Attribute::new(
            "Zipcode",
            builders::identity("Zipcode", &["53715", "55410", "90210", "02174", "02237"])
                .expect("static domain"),
        ),
    ])
    .expect("static schema");
    let mut t = Table::empty(schema);
    for row in [
        ["Andre", "1/21/76", "Male", "53715"],
        ["Beth", "1/10/81", "Female", "55410"],
        ["Carol", "10/1/44", "Female", "90210"],
        ["Dan", "2/21/84", "Male", "02174"],
        ["Ellen", "4/19/72", "Female", "02237"],
    ] {
        t.push_row(&row).expect("static rows");
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use incognito_table::GroupSpec;

    #[test]
    fn patients_matches_figure1() {
        let t = patients();
        assert_eq!(t.num_rows(), 6);
        assert_eq!(t.schema().arity(), 4);
        assert_eq!(t.schema().hierarchy(2).height(), 2);
        // Not 2-anonymous at ground level over the QI (the motivating attack).
        let spec = GroupSpec::ground(&[0, 1, 2]).unwrap();
        assert!(!t.is_k_anonymous(&spec, 2).unwrap());
    }

    #[test]
    fn joining_attack_identifies_andre() {
        // Figure 1's attack: Andre's (Birthdate, Sex, Zipcode) is unique in
        // Patients, so the voter join re-identifies his Disease.
        let p = patients();
        let v = voter_registration();
        let mut matches = Vec::new();
        for vr in 0..v.num_rows() {
            for pr in 0..p.num_rows() {
                if v.label(vr, 1) == p.label(pr, 0) // birthdate
                    && v.label(vr, 2) == p.label(pr, 1) // sex
                    && v.label(vr, 3) == p.label(pr, 2)
                // zipcode
                {
                    matches.push((v.label(vr, 0).to_string(), p.label(pr, 3).to_string()));
                }
            }
        }
        assert_eq!(matches, vec![("Andre".to_string(), "Flu".to_string())]);
    }
}
