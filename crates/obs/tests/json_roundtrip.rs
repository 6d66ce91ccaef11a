//! Seeded round-trip property tests for `obs::json`: any value the writer
//! can emit must parse back to an identical value, through both the
//! pretty and the compact serializer. The generator leans on the
//! workspace's own [`incognito_obs::Rng`] so failures reproduce exactly.

use incognito_obs::{Json, Rng};

/// Characters chosen to stress the escaper: quotes, backslashes, the
/// named control escapes, bare control bytes (escaped as `\\u00XX`),
/// multi-byte BMP text, and an astral-plane scalar.
const NASTY_CHARS: [char; 12] =
    ['"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', 'é', 'µ', '💡', 'a', ' '];

fn arbitrary_string(rng: &mut Rng) -> String {
    (0..rng.below(12)).map(|_| *rng.choose(&NASTY_CHARS).unwrap()).collect()
}

fn arbitrary_finite_f64(rng: &mut Rng) -> f64 {
    // Bit-pattern floats cover subnormals and extreme exponents; fall
    // back to a bounded range for the non-finite patterns.
    let v = f64::from_bits(rng.next_u64());
    if v.is_finite() {
        v
    } else {
        rng.range_f64(-1e18, 1e18)
    }
}

fn arbitrary(rng: &mut Rng, depth: usize) -> Json {
    // Leaves only once the depth budget is spent.
    let pick = if depth == 0 { rng.below(5) } else { rng.below(7) };
    match pick {
        0 => Json::Null,
        1 => Json::Bool(rng.gen_bool(0.5)),
        2 => Json::Int(rng.next_u64() as i64),
        3 => Json::Num(arbitrary_finite_f64(rng)),
        4 => Json::Str(arbitrary_string(rng)),
        5 => Json::Arr((0..rng.below(5)).map(|_| arbitrary(rng, depth - 1)).collect()),
        _ => Json::Obj(
            (0..rng.below(5))
                .map(|i| (format!("k{i}_{}", arbitrary_string(rng)), arbitrary(rng, depth - 1)))
                .collect(),
        ),
    }
}

#[test]
fn seeded_values_round_trip_through_both_writers() {
    let mut rng = Rng::seed_from_u64(0x1f09_2005);
    for case in 0..300 {
        let v = arbitrary(&mut rng, 4);
        let pretty = v.to_pretty_string();
        assert_eq!(Json::parse(&pretty).unwrap(), v, "pretty round-trip, case {case}");
        let compact = v.to_compact_string();
        assert_eq!(Json::parse(&compact).unwrap(), v, "compact round-trip, case {case}");
    }
}

#[test]
fn deeply_nested_values_round_trip() {
    // A 64-deep array/object ladder — far past anything a report emits.
    let mut v = Json::Int(7);
    for i in 0..64 {
        v = if i % 2 == 0 { Json::Arr(vec![v]) } else { Json::Obj(vec![("level".to_owned(), v)]) };
    }
    assert_eq!(Json::parse(&v.to_pretty_string()).unwrap(), v);
    assert_eq!(Json::parse(&v.to_compact_string()).unwrap(), v);
}

#[test]
fn escape_heavy_strings_round_trip() {
    for s in ["", "\"\\\n\r\t", "\u{1}\u{1f}", "µs & 💡", "say \"hi\"\\no", "trailing \\"] {
        let v = Json::Str(s.to_owned());
        assert_eq!(Json::parse(&v.to_compact_string()).unwrap(), v, "string {s:?}");
    }
}

#[test]
fn nonfinite_floats_degrade_to_null_not_invalid_json() {
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut doc = Json::obj();
        doc.set("ok", 1.5f64);
        doc.set("bad", bad);
        doc.set("nested", Json::Arr(vec![Json::Num(bad), Json::Int(2)]));
        let text = doc.to_pretty_string();
        // The document must stay parseable; the non-finite slots read
        // back as null (JSON has no NaN/∞), everything else intact.
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.get("ok"), Some(&Json::Num(1.5)));
        assert_eq!(back.get("bad"), Some(&Json::Null));
        assert_eq!(
            back.get("nested").and_then(Json::as_arr),
            Some(&[Json::Null, Json::Int(2)][..])
        );
    }
}
