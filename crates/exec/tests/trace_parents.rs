//! `exec.task` spans nest under the span that was open where each task
//! was spawned, whichever thread runs the task.
//!
//! Trace collection is process-global, so this file holds exactly one
//! test function.

use std::collections::HashMap;
use std::sync::Barrier;

use incognito_exec::Executor;
use incognito_obs::trace;

#[test]
fn every_task_span_nests_under_its_spawn_site() {
    trace::clear();
    trace::set_enabled(true);
    let pool = Executor::new(4);
    // Four tasks that wait for each other run on four different threads,
    // so three of them run on a worker, away from the spawning thread.
    let all_running = Barrier::new(4);
    let outer = trace::span("spawner");
    let outer_seq = trace::current().expect("the spawner span is open");
    pool.scope(|s| {
        for _ in 0..4 {
            let (pool, all_running) = (&pool, &all_running);
            s.spawn(move || {
                all_running.wait();
                // Each task spawns two more from inside a span of its own,
                // on whichever thread it landed on.
                let _inner = trace::span("inner");
                pool.scope(|s| {
                    for _ in 0..2 {
                        s.spawn(|| {});
                    }
                });
            });
        }
    });
    drop(outer);
    trace::set_enabled(false);
    let records = trace::drain();

    let by_seq: HashMap<u64, _> = records.iter().map(|r| (r.seq, r)).collect();
    let tasks: Vec<_> = records.iter().filter(|r| r.name == "exec.task").collect();
    assert_eq!(tasks.len(), 4 + 8);
    let mut under_outer = 0;
    let mut children_of_inner: HashMap<u64, usize> = HashMap::new();
    let mut cross_thread = 0;
    for task in &tasks {
        let parent = by_seq[&task.parent.expect("every task span has a parent")];
        if parent.tid != task.tid {
            cross_thread += 1;
        }
        match parent.name.as_str() {
            "spawner" => {
                assert_eq!(parent.seq, outer_seq);
                under_outer += 1;
            }
            "inner" => *children_of_inner.entry(parent.seq).or_default() += 1,
            other => panic!("exec.task nested under {other:?}"),
        }
    }
    assert_eq!(under_outer, 4);
    assert_eq!(children_of_inner.len(), 4);
    assert!(children_of_inner.values().all(|&n| n == 2));
    assert!(cross_thread >= 3, "three outer tasks ran on workers, away from the spawner");
    // Each `inner` span nests under the `exec.task` that ran it.
    for r in records.iter().filter(|r| r.name == "inner") {
        assert_eq!(by_seq[&r.parent.unwrap()].name, "exec.task");
    }
}
