//! A hand-rolled, zero-dependency, persistent work-stealing thread pool.
//!
//! The container this project builds in is offline, so rayon is not an
//! option (see KNOWN_FAILURES.md); this crate provides the small subset of
//! its surface the Incognito stack needs, on `std` alone:
//!
//! * [`Executor::scope`] — structured fork/join: spawn borrowing tasks,
//!   return once every one of them has completed (panics propagate);
//! * [`Executor::parallel_map`] — evaluate a function over a slice and
//!   collect results in input order;
//! * [`Executor::parallel_for_chunks`] — split an index range into
//!   contiguous chunks, one task per chunk.
//!
//! # Design
//!
//! An [`Executor`] built with `threads = N` owns `N - 1` persistent worker
//! threads; the thread that calls [`Executor::scope`] participates as the
//! N-th worker while it waits, so a pool never idles the caller. Each
//! worker owns a deque it pops LIFO (fresh tasks are cache-hot); idle
//! workers steal FIFO from the shared injector first and then from their
//! siblings' deques, which drains the oldest — widest — work first. With
//! `threads == 1` no workers are spawned and every spawn executes inline
//! at the call site, so a serial executor is byte-for-byte the serial
//! program (the determinism contract the regression gate relies on; see
//! DESIGN.md §8).
//!
//! Worker activity is observable: the pool emits `exec.*` counters through
//! `incognito-obs` (`exec.tasks`, `exec.inline`, `exec.steals`,
//! `exec.parks`) and every stolen-or-popped task runs inside an
//! `exec.task` trace span tagged with the worker index, so Perfetto
//! exports show which worker ran which `check` span. That span's parent
//! is the span open at the spawn site, so the trace tree stays one tree
//! across threads.
//!
//! # Safety
//!
//! This is the only crate in the workspace that contains `unsafe`: one
//! lifetime-erasing transmute in [`Scope::spawn`], the same trick rayon
//! and crossbeam use for scoped tasks. Soundness rests on [`Executor::scope`]
//! not returning until every spawned task has run to completion (it waits
//! even when the closure that spawned the tasks panics), so no task can
//! outlive the `'scope` borrows it captures.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::any::Any;
use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::marker::PhantomData;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// A queued task. Tasks are `'static` from the queue's point of view;
/// [`Scope::spawn`] erases the true `'scope` lifetime and
/// [`Executor::scope`] restores the guarantee by joining.
struct Job {
    task: Box<dyn FnOnce() + Send + 'static>,
    /// The trace span open on the spawning thread (captured only while
    /// tracing is on): the job's `exec.task` span nests under it on
    /// whichever thread runs the job.
    parent: Option<u64>,
}

/// How long a parked worker sleeps before re-checking the queues. Parks
/// are also interrupted eagerly by every push, so this only bounds the
/// latency of lost-wakeup corner cases.
const PARK_TIMEOUT: Duration = Duration::from_millis(10);

/// How long a scope waiter with no runnable task sleeps before re-polling
/// the queues (its own notification arrives eagerly from the last task).
const HELP_TIMEOUT: Duration = Duration::from_millis(1);

static POOL_IDS: AtomicUsize = AtomicUsize::new(1);

thread_local! {
    /// `(pool id, worker index)` when the current thread is a pool worker.
    static WORKER: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

/// Shared state between an [`Executor`] handle and its workers.
struct Inner {
    /// Distinguishes pools so a worker of pool A pushing into pool B does
    /// not treat B's injector as its own deque.
    id: usize,
    /// Total parallelism, including the scope caller.
    threads: usize,
    /// One deque per worker thread (`threads - 1` of them).
    queues: Vec<Mutex<VecDeque<Job>>>,
    /// Overflow queue for tasks submitted from non-worker threads.
    injector: Mutex<VecDeque<Job>>,
    /// Count of queued-but-not-yet-claimed jobs; lets a parking worker
    /// detect a push that raced past its idle check.
    ready: AtomicUsize,
    /// Lock/condvar pair for worker parking. Pushers notify while holding
    /// the lock, so a worker holding it either sees `ready > 0` or is
    /// guaranteed to receive the notification.
    park: Mutex<()>,
    unpark: Condvar,
    shutdown: AtomicBool,
}

impl Inner {
    /// Pop the freshest job from `queues[me]` (LIFO).
    fn pop_own(&self, me: usize) -> Option<Job> {
        let job = self.queues[me].lock().unwrap().pop_back();
        if job.is_some() {
            self.ready.fetch_sub(1, Ordering::AcqRel);
        }
        job
    }

    /// Claim the oldest job from the injector or any sibling deque (FIFO).
    /// `me` is the worker to skip (`usize::MAX` for non-workers).
    fn steal(&self, me: usize) -> Option<Job> {
        if let Some(job) = self.injector.lock().unwrap().pop_front() {
            self.ready.fetch_sub(1, Ordering::AcqRel);
            return Some(job);
        }
        for (i, q) in self.queues.iter().enumerate() {
            if i == me {
                continue;
            }
            if let Some(job) = q.lock().unwrap().pop_front() {
                self.ready.fetch_sub(1, Ordering::AcqRel);
                incognito_obs::incr("exec.steals");
                return Some(job);
            }
        }
        None
    }

    /// Queue a job: onto the current thread's own deque when called from
    /// one of this pool's workers, onto the injector otherwise.
    fn push(&self, job: Job) {
        let own = WORKER.with(|w| w.get()).filter(|&(pool, _)| pool == self.id);
        match own {
            Some((_, idx)) => self.queues[idx].lock().unwrap().push_back(job),
            None => self.injector.lock().unwrap().push_back(job),
        }
        self.ready.fetch_add(1, Ordering::AcqRel);
        let _guard = self.park.lock().unwrap();
        self.unpark.notify_all();
    }

    /// Worker main loop: drain own deque, steal, park.
    fn worker(&self, me: usize) {
        while !self.shutdown.load(Ordering::Acquire) {
            if let Some(job) = self.pop_own(me).or_else(|| self.steal(me)) {
                run_job(job, me);
                continue;
            }
            let guard = self.park.lock().unwrap();
            if self.shutdown.load(Ordering::Acquire) || self.ready.load(Ordering::Acquire) > 0 {
                continue;
            }
            incognito_obs::incr("exec.parks");
            let _ = self.unpark.wait_timeout(guard, PARK_TIMEOUT).unwrap();
        }
    }
}

/// Execute one claimed job, wrapped in a trace span so worker activity is
/// visible in Perfetto exports (`worker` is the deque index, or the word
/// "caller" for scope participants). The span nests under the span that
/// was open where the job was spawned, not under whatever the executing
/// thread has open.
///
/// With memory attribution on, the span also carries the job's
/// `alloc_bytes` delta and the `exec.alloc_bytes` counter accumulates it
/// across workers. Both read the *executing* thread's counters between
/// claim and completion, so attribution lands on whichever worker stole
/// the job — stealing moves work, never its accounting.
fn run_job(job: Job, me: usize) {
    incognito_obs::incr("exec.tasks");
    let mem_at_start = if incognito_obs::mem::enabled() {
        Some(incognito_obs::mem::thread_allocated_bytes())
    } else {
        None
    };
    let span = incognito_obs::span_under("exec.task", job.parent);
    let span = if me == usize::MAX { span.arg("worker", "caller") } else { span.arg("worker", me as u64) };
    (job.task)();
    span.finish();
    if let Some(bytes_at_start) = mem_at_start {
        let delta = incognito_obs::mem::thread_allocated_bytes().saturating_sub(bytes_at_start);
        incognito_obs::add("exec.alloc_bytes", delta);
    }
}

/// Book-keeping for one [`Executor::scope`] call: outstanding task count
/// and the first panic payload raised by any task.
struct ScopeState {
    pending: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
}

impl ScopeState {
    fn new() -> Self {
        ScopeState { pending: Mutex::new(0), done: Condvar::new(), panic: Mutex::new(None) }
    }

    fn task_started(&self) {
        *self.pending.lock().unwrap() += 1;
    }

    fn task_finished(&self, panic: Option<Box<dyn Any + Send + 'static>>) {
        if let Some(p) = panic {
            self.panic.lock().unwrap().get_or_insert(p);
        }
        let mut pending = self.pending.lock().unwrap();
        *pending -= 1;
        if *pending == 0 {
            self.done.notify_all();
        }
    }
}

/// A fork/join scope handed to the closure of [`Executor::scope`]; spawn
/// tasks that borrow from the enclosing stack frame.
pub struct Scope<'pool, 'scope> {
    exec: &'pool Executor,
    state: Arc<ScopeState>,
    /// Invariant over `'scope` so the borrow checker cannot shrink the
    /// lifetime the spawned closures must outlive.
    _marker: PhantomData<Cell<&'scope mut ()>>,
}

impl<'pool, 'scope> Scope<'pool, 'scope> {
    /// Spawn a task onto the pool. The task may borrow anything that
    /// outlives `'scope`; the enclosing [`Executor::scope`] call joins it
    /// before returning. A panicking task does not abort its siblings —
    /// the payload is re-raised from `scope` once all tasks finish.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        self.state.task_started();
        let state = Arc::clone(&self.state);
        let task: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            let result = catch_unwind(AssertUnwindSafe(f));
            state.task_finished(result.err());
        });
        // SAFETY: the only lifetime in the boxed closure's type is
        // `'scope`; extending it to `'static` is sound because
        // `Executor::scope` does not return before `ScopeState::pending`
        // reaches zero (it waits even when the scope closure panics), so
        // the task — and every `'scope` borrow it captures — is dropped
        // while the borrowed stack frame is still alive.
        let task: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(task) };
        self.exec.inner.push(Job { task, parent: incognito_obs::trace::current() });
    }
}

/// A persistent work-stealing thread pool. See the crate docs for the
/// scheduling model; get one from [`Executor::new`] (owned) or [`shared`]
/// (process-wide, cached per thread count).
pub struct Executor {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl Executor {
    /// Build a pool with `threads` total parallelism (clamped to ≥ 1):
    /// `threads - 1` worker threads plus the calling thread inside
    /// [`Executor::scope`]. `Executor::new(1)` spawns nothing and runs
    /// every task inline, exactly like serial code.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let inner = Arc::new(Inner {
            id: POOL_IDS.fetch_add(1, Ordering::Relaxed),
            threads,
            queues: (1..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            injector: Mutex::new(VecDeque::new()),
            ready: AtomicUsize::new(0),
            park: Mutex::new(()),
            unpark: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..threads - 1)
            .map(|me| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("incognito-exec-{me}"))
                    .spawn(move || {
                        WORKER.with(|w| w.set(Some((inner.id, me))));
                        inner.worker(me);
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        Executor { inner, workers }
    }

    /// Total parallelism (worker threads plus the participating caller).
    pub fn threads(&self) -> usize {
        self.inner.threads
    }

    /// Run a fork/join scope: `f` receives a [`Scope`] whose spawned tasks
    /// may borrow locals of the caller; when `scope` returns, every task
    /// has completed. The calling thread executes queued tasks while it
    /// waits. The first panic raised by any task is re-raised here after
    /// all tasks finish.
    pub fn scope<'pool, 'scope, F, R>(&'pool self, f: F) -> R
    where
        'pool: 'scope,
        F: FnOnce(&Scope<'pool, 'scope>) -> R,
    {
        let scope =
            Scope { exec: self, state: Arc::new(ScopeState::new()), _marker: PhantomData };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // Join unconditionally — the lifetime-erasure in `spawn` is sound
        // only because this wait happens on every exit path.
        self.help_until_done(&scope.state);
        if let Some(p) = scope.state.panic.lock().unwrap().take() {
            resume_unwind(p);
        }
        match result {
            Ok(r) => r,
            Err(p) => resume_unwind(p),
        }
    }

    /// Caller participation: claim and run queued tasks until this scope's
    /// outstanding count reaches zero.
    fn help_until_done(&self, state: &ScopeState) {
        let me = WORKER
            .with(|w| w.get())
            .filter(|&(pool, _)| pool == self.inner.id)
            .map(|(_, idx)| idx)
            .unwrap_or(usize::MAX);
        loop {
            if *state.pending.lock().unwrap() == 0 {
                return;
            }
            let job = if me == usize::MAX {
                self.inner.steal(me)
            } else {
                self.inner.pop_own(me).or_else(|| self.inner.steal(me))
            };
            match job {
                Some(job) => run_job(job, me),
                None => {
                    // Nothing runnable: our remaining tasks are executing
                    // on workers. Sleep until the last one notifies (with
                    // a timeout so a task spawned by a sibling scope on
                    // this pool cannot strand us).
                    let pending = state.pending.lock().unwrap();
                    if *pending == 0 {
                        return;
                    }
                    let _ = state.done.wait_timeout(pending, HELP_TIMEOUT).unwrap();
                }
            }
        }
    }

    /// Apply `f` to every element of `items` concurrently and collect the
    /// results in input order. `f` gets `(index, &item)`. With a serial
    /// pool or fewer than two items this is a plain inline `map`
    /// (`exec.inline` counts those short-circuits).
    pub fn parallel_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        if self.threads() <= 1 || items.len() <= 1 {
            incognito_obs::incr("exec.inline");
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
        self.scope(|s| {
            for (i, (item, slot)) in items.iter().zip(&slots).enumerate() {
                let f = &f;
                s.spawn(move || {
                    *slot.lock().unwrap() = Some(f(i, item));
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.into_inner().unwrap().expect("scope joined every task"))
            .collect()
    }

    /// Split `0..len` into at most `threads()` contiguous chunks of at
    /// least `min_chunk` indices, run `f` on each chunk concurrently, and
    /// collect the per-chunk results in range order.
    pub fn parallel_for_chunks<R, F>(&self, len: usize, min_chunk: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Range<usize>) -> R + Sync,
    {
        if len == 0 {
            return Vec::new();
        }
        let min_chunk = min_chunk.max(1);
        let chunks = len.div_ceil(min_chunk).min(self.threads()).max(1);
        let per = len / chunks;
        let extra = len % chunks;
        let mut ranges = Vec::with_capacity(chunks);
        let mut start = 0;
        for i in 0..chunks {
            let end = start + per + usize::from(i < extra);
            ranges.push(start..end);
            start = end;
        }
        self.parallel_map(&ranges, |_, r| f(r.clone()))
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        {
            let _guard = self.inner.park.lock().unwrap();
            self.inner.unpark.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Process-wide pool cache: one persistent [`Executor`] per thread count,
/// built on first request and reused for the life of the process. This is
/// what the algorithm layer uses so that every iteration of every search
/// schedules onto the same warm workers instead of respawning threads.
pub fn shared(threads: usize) -> Arc<Executor> {
    static POOLS: OnceLock<Mutex<HashMap<usize, Arc<Executor>>>> = OnceLock::new();
    let threads = threads.max(1);
    let pools = POOLS.get_or_init(|| Mutex::new(HashMap::new()));
    Arc::clone(
        pools.lock().unwrap().entry(threads).or_insert_with(|| Arc::new(Executor::new(threads))),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn parallel_map_matches_serial_map() {
        let pool = Executor::new(4);
        let items: Vec<u64> = (0..257).collect();
        let out = pool.parallel_map(&items, |i, &x| x * x + i as u64);
        let expect: Vec<u64> = items.iter().enumerate().map(|(i, &x)| x * x + i as u64).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn serial_pool_runs_inline() {
        let pool = Executor::new(1);
        assert_eq!(pool.threads(), 1);
        assert!(pool.workers.is_empty());
        let out = pool.parallel_map(&[1u64, 2, 3], |_, &x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn scope_tasks_borrow_stack_data() {
        let pool = Executor::new(3);
        let inputs: Vec<u64> = (1..=100).collect();
        let total = AtomicU64::new(0);
        pool.scope(|s| {
            for chunk in inputs.chunks(7) {
                let total = &total;
                s.spawn(move || {
                    total.fetch_add(chunk.iter().sum::<u64>(), Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 5050);
    }

    #[test]
    fn chunked_ranges_cover_exactly_once() {
        let pool = Executor::new(4);
        let hits: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
        let ranges = pool.parallel_for_chunks(1000, 64, |r| {
            for i in r.clone() {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
            r.len()
        });
        assert_eq!(ranges.iter().sum::<usize>(), 1000);
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn zero_len_chunks() {
        let pool = Executor::new(2);
        let out = pool.parallel_for_chunks(0, 8, |r| r.len());
        assert!(out.is_empty());
    }

    #[test]
    fn shared_pools_are_cached_per_thread_count() {
        let a = shared(3);
        let b = shared(3);
        let c = shared(2);
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(c.threads(), 2);
    }
}
