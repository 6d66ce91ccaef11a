//! Stress test for the tracking allocator's span attribution under the
//! work-stealing executor: 8 workers open nested spans and allocate;
//! every span must carry its own thread's allocation delta, no
//! allocation may be lost from the global flows, and a guard that
//! crosses threads must get *no* memory args rather than a
//! misattributed delta.
//!
//! Trace collection and the allocator's attribution switch are
//! process-global, so this file holds exactly one test function.

use incognito::exec::Executor;
use incognito::obs::trace;
use incognito::obs::Json;

const WORKERS: usize = 8;
const TASKS: usize = 64;
const LEAF_BYTES: usize = 1 << 16; // 64 KiB per leaf allocation

fn arg_int(r: &trace::TraceRecord, key: &str) -> Option<i64> {
    r.args.iter().find(|(k, _)| k == key).and_then(|(_, v)| v.as_int())
}

#[test]
fn eight_workers_attribute_allocations_without_loss_or_crosstalk() {
    trace::clear();
    trace::set_enabled(true);
    incognito::obs::mem::set_enabled(true);

    let before = incognito::obs::mem::stats();
    let pool = Executor::new(WORKERS);
    pool.scope(|s| {
        for i in 0..TASKS {
            s.spawn(move || {
                let outer = trace::span("stress.outer").arg("task", i as u64);
                let mut keep: Vec<Vec<u8>> = Vec::new();
                {
                    let inner = trace::span("stress.inner");
                    keep.push(vec![0u8; LEAF_BYTES]);
                    inner.finish();
                }
                keep.push(vec![0u8; LEAF_BYTES]);
                std::hint::black_box(&keep);
                outer.finish();
            });
        }
    });

    // A guard opened here and closed on another thread: the delta would
    // mix two threads' counters, so it must carry no memory args.
    let crossing = trace::span("stress.cross_thread");
    std::thread::spawn(move || crossing.finish()).join().unwrap();

    let after = incognito::obs::mem::stats();
    trace::set_enabled(false);
    incognito::obs::mem::set_enabled(false);
    let records = trace::drain();
    let _ = trace::drain_counter_samples();

    // Per-span attribution: every inner span saw at least its own leaf
    // allocation; every outer span additionally covers the nested one.
    let inners: Vec<_> = records.iter().filter(|r| r.name == "stress.inner").collect();
    let outers: Vec<_> = records.iter().filter(|r| r.name == "stress.outer").collect();
    assert_eq!(inners.len(), TASKS);
    assert_eq!(outers.len(), TASKS);
    for r in &inners {
        let bytes = arg_int(r, "alloc_bytes").expect("inner span has alloc_bytes");
        assert!(bytes >= LEAF_BYTES as i64, "inner delta {bytes} < leaf size");
        assert!(arg_int(r, "allocs").expect("inner span has allocs") >= 1);
    }
    let mut attributed: i64 = 0;
    for r in &outers {
        let bytes = arg_int(r, "alloc_bytes").expect("outer span has alloc_bytes");
        assert!(bytes >= 2 * LEAF_BYTES as i64, "outer delta {bytes} misses nested alloc");
        attributed += bytes;
    }

    // No lost allocations: the spans' thread-local deltas are bounded by
    // the global flow delta, and the workload floor is visible in both.
    let global_delta = after.allocated_bytes.saturating_sub(before.allocated_bytes) as i64;
    assert!(global_delta >= (TASKS * 2 * LEAF_BYTES) as i64, "global flow lost allocations");
    assert!(
        attributed <= global_delta,
        "spans attribute {attributed} bytes but the process only allocated {global_delta}"
    );

    // Every span above closed on the thread that opened it — that is
    // what earned it memory args. How many distinct threads the tasks
    // landed on is the scheduler's business (the caller drains jobs
    // too, and on a single-core box it can drain all of them), so the
    // spread is not asserted — the attribution rules above hold at any
    // spread, and the cross-thread guard below covers the other side.

    // No cross-thread misattribution: the guard that crossed threads
    // recorded, but without memory args.
    let crossing =
        records.iter().find(|r| r.name == "stress.cross_thread").expect("crossing span recorded");
    assert!(
        !crossing.args.iter().any(|(k, _)| k == "alloc_bytes" || k == "allocs"),
        "cross-thread drop must not claim a delta: {:?}",
        crossing.args
    );

    // The executor attributed per-worker flows too.
    let exec_tasks: Vec<_> = records.iter().filter(|r| r.name == "exec.task").collect();
    assert!(!exec_tasks.is_empty(), "executor wraps jobs in exec.task spans");
    for r in exec_tasks {
        if let Some((_, v)) = r.args.iter().find(|(k, _)| k == "worker") {
            assert!(!matches!(v, Json::Null));
        }
    }
}
