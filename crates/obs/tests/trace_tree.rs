//! Abuse tests for the trace-tree span stack: unbalanced drop order and
//! cross-thread drops must not corrupt the tree, and the emitted Chrome
//! trace JSON must stay well-formed and lossless.
//!
//! The trace collector is process-global, so everything lives in ONE
//! test function — separate `#[test]`s would race on the shared state.

use incognito_obs::trace;
use incognito_obs::Json;

#[test]
fn span_stack_survives_abuse_and_chrome_json_stays_well_formed() {
    trace::clear();
    trace::set_enabled(true);

    // 1. Balanced nesting: a > b > c.
    {
        let mut a = trace::span("a").arg("x", 1u64);
        {
            let _b = trace::span("b");
            let _c = trace::span("c");
        }
        a.set_arg("y", 2u64);
    }

    // 2. Unbalanced drop order: the parent closes while its child is
    //    still open. Closing the parent truncates the leaked child off
    //    the stack; the child's later drop must find nothing and leave
    //    other spans alone.
    let parent = trace::span("unbalanced.parent");
    let child = trace::span("unbalanced.child");
    drop(parent);
    let sibling = trace::span("unbalanced.sibling");
    drop(child);
    drop(sibling);

    // 3. Cross-thread drop: a span opened here but dropped on another
    //    thread records there without touching that thread's stack, and
    //    spans opened on the other thread get their own root.
    let moved = trace::span("moved");
    std::thread::spawn(move || {
        let _other = trace::span("other.thread");
        drop(moved);
    })
    .join()
    .unwrap();

    // 4. After all that abuse, fresh nesting on this thread still works.
    {
        let _after = trace::span("after");
        let _leaf = trace::span("after.leaf");
    }

    trace::set_enabled(false);
    let records = trace::drain();
    let by_name = |name: &str| records.iter().find(|r| r.name == name).unwrap();

    // The balanced chain kept its parent links.
    assert_eq!(by_name("a").parent, None);
    assert_eq!(by_name("b").parent, Some(by_name("a").seq));
    assert_eq!(by_name("c").parent, Some(by_name("b").seq));
    assert_eq!(by_name("a").args.len(), 2, "both args survive");

    // The unbalanced child recorded, under its original parent; the
    // sibling opened after the parent closed is NOT a child of the
    // leaked child.
    assert_eq!(by_name("unbalanced.child").parent, Some(by_name("unbalanced.parent").seq));
    assert_ne!(by_name("unbalanced.sibling").parent, Some(by_name("unbalanced.child").seq));

    // Cross-thread: the other thread's own span is a root on its own
    // tid; the moved span kept the parentage from its opening thread.
    assert_eq!(by_name("other.thread").parent, None);
    assert_ne!(by_name("other.thread").tid, by_name("a").tid);
    assert_eq!(by_name("moved").parent, None);

    // Nesting after the abuse is intact (the stale "moved" entry on this
    // thread's stack may re-parent "after", but never corrupts below it).
    assert_eq!(by_name("after.leaf").parent, Some(by_name("after").seq));

    // The tree builder places every record exactly once, panics on
    // nothing, and the forest covers all records.
    let forest = trace::build_tree(&records);
    let mut seen = 0;
    let mut stack: Vec<&trace::TraceNode> = forest.iter().collect();
    while let Some(node) = stack.pop() {
        seen += 1;
        stack.extend(node.children.iter());
    }
    assert_eq!(seen, records.len());

    // Chrome trace JSON: parseable, every event a complete "X" phase
    // with non-negative timestamps/durations, and lossless.
    let doc = trace::to_chrome_json(&records);
    let reparsed = Json::parse(&doc.to_pretty_string()).expect("trace JSON must be valid");
    let events = reparsed.get("traceEvents").and_then(Json::as_arr).unwrap();
    assert_eq!(events.len(), records.len());
    for e in events {
        assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"), "only complete events");
        assert!(!e.get("name").and_then(Json::as_str).unwrap_or("").is_empty());
        for field in ["ts", "dur"] {
            let v = match e.get(field) {
                Some(Json::Num(v)) => *v,
                Some(Json::Int(v)) => *v as f64,
                other => panic!("{field} must be a number, got {other:?}"),
            };
            assert!(v >= 0.0, "{field} must be non-negative");
        }
    }
    // Round-trip: structure and args are lossless; timestamps go
    // through the format's microsecond floats, so allow 1 ns of
    // conversion rounding.
    let back = trace::from_chrome_json(&doc).unwrap();
    assert_eq!(back.len(), records.len());
    for (b, r) in back.iter().zip(&records) {
        assert_eq!((&b.name, b.tid, b.seq, b.parent), (&r.name, r.tid, r.seq, r.parent));
        assert_eq!(b.args, r.args, "span {}", r.name);
        assert!(b.ts_ns.abs_diff(r.ts_ns) <= 1, "ts of {}: {} vs {}", r.name, b.ts_ns, r.ts_ns);
        assert!(
            b.dur_ns.abs_diff(r.dur_ns) <= 1,
            "dur of {}: {} vs {}",
            r.name,
            b.dur_ns,
            r.dur_ns
        );
    }

    // Draining emptied the collector.
    assert!(trace::drain().is_empty());
}
