//! The [`TraceEvent`] stream and the [`SearchStats`] counters are two
//! independent recordings of the same search; this test asserts they agree
//! — per iteration and in aggregate — for Basic, Super-roots, and Cube
//! Incognito over the Patients table. A drift between them means one of
//! the two observability paths lies about what the algorithm did.

use incognito::algo::cube::cube_incognito_traced;
use incognito::algo::trace::TraceEvent;
use incognito::algo::{incognito::incognito_traced, AnonymizationResult, Config};
use incognito::data::patients;

/// Per-iteration counts reconstructed from a trace stream.
#[derive(Debug, Default, PartialEq, Eq)]
struct IterCounts {
    arity: usize,
    candidates: usize,
    edges: usize,
    checked: usize,
    marked: usize,
    survivors: usize,
}

fn counts_from_trace(trace: &[TraceEvent]) -> Vec<IterCounts> {
    let mut iters: Vec<IterCounts> = Vec::new();
    for event in trace {
        match event {
            TraceEvent::IterationStart { arity, candidates, edges } => {
                iters.push(IterCounts {
                    arity: *arity,
                    candidates: *candidates,
                    edges: *edges,
                    ..IterCounts::default()
                });
            }
            TraceEvent::Checked { .. } => iters.last_mut().expect("start precedes").checked += 1,
            TraceEvent::Marked { .. } => iters.last_mut().expect("start precedes").marked += 1,
            TraceEvent::IterationEnd { survivors } => {
                iters.last_mut().expect("start precedes").survivors = *survivors;
            }
        }
    }
    iters
}

fn assert_consistent(label: &str, result: &AnonymizationResult, trace: &[TraceEvent]) {
    let from_trace = counts_from_trace(trace);
    let stats = result.stats();
    assert_eq!(
        from_trace.len(),
        stats.iterations.len(),
        "{label}: iteration count differs between trace and stats"
    );
    for (t, s) in from_trace.iter().zip(stats.iterations.iter()) {
        assert_eq!(t.arity, s.arity, "{label}: arity");
        assert_eq!(t.candidates, s.candidates, "{label}: candidates at arity {}", s.arity);
        assert_eq!(t.edges, s.edges, "{label}: edges at arity {}", s.arity);
        assert_eq!(t.checked, s.nodes_checked, "{label}: checked at arity {}", s.arity);
        assert_eq!(t.marked, s.nodes_marked, "{label}: marked at arity {}", s.arity);
        assert_eq!(t.survivors, s.survivors, "{label}: survivors at arity {}", s.arity);
    }
    // Aggregates agree with the per-iteration sums by construction, but
    // assert anyway: the accessors are what the bench reports serialize.
    let checked: usize = from_trace.iter().map(|i| i.checked).sum();
    let marked: usize = from_trace.iter().map(|i| i.marked).sum();
    assert_eq!(checked, stats.nodes_checked(), "{label}: aggregate checked");
    assert_eq!(marked, stats.nodes_marked(), "{label}: aggregate marked");
}

#[test]
fn basic_incognito_trace_matches_stats() {
    let t = patients();
    let (result, trace) = incognito_traced(&t, &[0, 1, 2], &Config::new(2)).unwrap();
    assert!(trace.iter().any(|e| matches!(e, TraceEvent::Checked { .. })));
    assert_consistent("basic", &result, &trace);
}

#[test]
fn superroots_incognito_trace_matches_stats() {
    let t = patients();
    let cfg = Config::new(2).with_superroots(true);
    let (result, trace) = incognito_traced(&t, &[0, 1, 2], &cfg).unwrap();
    assert_consistent("superroots", &result, &trace);
}

#[test]
fn cube_incognito_trace_matches_stats() {
    let t = patients();
    let mut trace = Vec::new();
    let result =
        cube_incognito_traced(&t, &[0, 1, 2], &Config::new(2), &mut |e| trace.push(e)).unwrap();
    assert_consistent("cube", &result, &trace);
}

#[test]
fn all_three_variants_agree_on_the_answer() {
    let t = patients();
    let cfg = Config::new(2);
    let (basic, _) = incognito_traced(&t, &[0, 1, 2], &cfg).unwrap();
    let (sup, _) = incognito_traced(&t, &[0, 1, 2], &cfg.clone().with_superroots(true)).unwrap();
    let cube = cube_incognito_traced(&t, &[0, 1, 2], &cfg, &mut |_| {}).unwrap();
    assert_eq!(basic.generalizations(), sup.generalizations());
    assert_eq!(basic.generalizations(), cube.generalizations());
}
