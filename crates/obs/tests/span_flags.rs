//! One span guard, two sinks: a probe records the timer named after it
//! only while metrics are on, a trace record only while tracing is on,
//! both under the same name when both are on — and with both off it
//! records nothing but still measures its duration.
//!
//! The metrics and trace flags are process-global, so this file holds
//! exactly one test function.

use incognito_obs::{self as obs, trace};

/// Open and close one `name` probe; return how many observations its
/// timer gained and how many trace records it left.
fn probe(name: &'static str) -> (u64, usize) {
    let before = obs::snapshot().timer(name).count;
    obs::span(name).arg("k", 2u64).finish();
    let timed = obs::snapshot().timer(name).count - before;
    let traced = trace::drain().iter().filter(|r| r.name == name).count();
    (timed, traced)
}

#[test]
fn one_probe_feeds_the_timer_and_the_trace_by_flag() {
    trace::clear();

    // Both flags off: nothing recorded, but the guard still times.
    obs::set_enabled(false);
    trace::set_enabled(false);
    let span = obs::span("probe.off");
    assert!(!span.is_traced());
    let spin = std::time::Instant::now();
    while spin.elapsed().is_zero() {}
    assert!(span.elapsed() > std::time::Duration::ZERO);
    drop(span);
    assert_eq!(probe("probe.off"), (0, 0));
    assert!(obs::snapshot().iter().all(|(name, _)| name != "probe.off"));

    // Metrics only: the timer, no trace record.
    obs::set_enabled(true);
    assert_eq!(probe("probe.metrics"), (1, 0));

    // Tracing only: the trace record with its args, no timer.
    obs::set_enabled(false);
    trace::set_enabled(true);
    let span = obs::span("probe.trace").arg("k", 2u64);
    assert!(span.is_traced());
    drop(span);
    let records = trace::drain();
    let rec = records.iter().find(|r| r.name == "probe.trace").expect("traced");
    assert_eq!(rec.args.iter().find(|(k, _)| k == "k").and_then(|(_, v)| v.as_int()), Some(2));
    assert_eq!(obs::snapshot().timer("probe.trace").count, 0);

    // Both: one timer observation and one record, under the same name,
    // measuring the same interval.
    obs::set_enabled(true);
    let before = obs::snapshot();
    let measured = obs::span("probe.both").finish();
    let timer = obs::snapshot().diff(&before).timer("probe.both");
    let records = trace::drain();
    let recs: Vec<_> = records.iter().filter(|r| r.name == "probe.both").collect();
    assert_eq!((timer.count, recs.len()), (1, 1));
    assert_eq!(timer.total, measured);
    assert_eq!(recs[0].dur_ns as u128, measured.as_nanos());

    obs::set_enabled(false);
    trace::set_enabled(false);
}
