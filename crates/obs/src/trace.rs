//! Spans — one guard for timers, trace trees and phase timings — and the
//! trace trees they build, serialized to Chrome Trace Event Format,
//! loadable in Perfetto or `chrome://tracing`.
//!
//! A [`Span`] (opened by [`span`] or [`span_under`], re-exported at the
//! crate root) is the workspace's one instrumentation probe. It always
//! reads the clock at open, so [`Span::finish`] hands the engines their
//! phase timings. While metrics are on ([`crate::set_enabled`]) it
//! records into the flat timer named after it (aggregate
//! count/total/max). While tracing is on ([`set_enabled`]) it also
//! records one **event per occurrence** with its position in the call
//! tree: each thread keeps a stack of open spans, a span's parent is
//! whatever was on top of that stack when it opened (or, for work handed
//! across threads, the span [`current`] reported on the handing thread,
//! passed to [`span_under`]), and the completed events land in a
//! process-global collector. [`drain`] hands the events back;
//! [`write_chrome_trace`] serializes them as complete (`"ph": "X"`)
//! events with microsecond timestamps relative to a common epoch, so the
//! nesting Perfetto renders is exactly the nesting the engines executed.
//!
//! Tracing is gated by its own flag, separate from the metrics flag:
//! metrics are cheap enough to leave on for a whole benchmark suite,
//! while tracing allocates one record per span and is meant for targeted
//! `--trace` runs. With both flags off a span costs two relaxed atomic
//! loads and one clock read (one more when [`Span::finish`] or
//! [`Span::elapsed`] asks for the duration) — no allocation, no lock.
//!
//! The tree is rebuilt from parent links, not inferred from timestamp
//! containment, so unbalanced drops (a parent finished before its child,
//! a guard carried across threads) degrade a span into a root rather than
//! corrupting its siblings.
//!
//! When memory attribution is on ([`crate::mem::set_enabled`]), every
//! span additionally samples its thread's allocation counters at open and
//! close, recording the delta as `alloc_bytes`/`allocs` args plus the
//! process-wide `peak_live` high-water mark, and contributes one
//! `mem.live_bytes` [`CounterSample`] per close — exported as Chrome
//! `"ph": "C"` counter events, which Perfetto renders as a live-bytes
//! counter track under the trace. A guard dropped on a different thread
//! than it was opened on gets *no* memory args: the open-time sample
//! belongs to another thread's counter, so attributing the difference
//! would charge one thread's allocations to another. The span itself
//! still records (as a root, per the self-healing above).

use std::cell::RefCell;
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::metrics::TimerHandle;

/// Process-global switch for trace collection, independent of the metrics
/// flag. Off by default.
static TRACE_ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static NEXT_SEQ: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Small sequential thread id (Chrome traces want integer tids).
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    /// The stack of currently open span sequence numbers on this thread.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The common clock origin for all span timestamps. Pinned when tracing is
/// first enabled (or at first use) so every `ts` is a small offset.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn collector() -> &'static Mutex<Vec<TraceRecord>> {
    static COLLECTOR: OnceLock<Mutex<Vec<TraceRecord>>> = OnceLock::new();
    COLLECTOR.get_or_init(|| Mutex::new(Vec::new()))
}

fn counter_collector() -> &'static Mutex<Vec<CounterSample>> {
    static COLLECTOR: OnceLock<Mutex<Vec<CounterSample>>> = OnceLock::new();
    COLLECTOR.get_or_init(|| Mutex::new(Vec::new()))
}

/// Turn trace collection on or off. Enabling pins the trace epoch.
pub fn set_enabled(on: bool) {
    if on {
        epoch();
    }
    TRACE_ENABLED.store(on, Ordering::Relaxed);
}

/// Is trace collection currently enabled?
#[inline]
pub fn enabled() -> bool {
    TRACE_ENABLED.load(Ordering::Relaxed)
}

/// One completed span.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Span name (the Chrome event `name`).
    pub name: String,
    /// Small sequential id of the recording thread.
    pub tid: u64,
    /// Process-wide open order; parents always have a smaller `seq` than
    /// their children.
    pub seq: u64,
    /// `seq` of the enclosing span: the innermost one open on the same
    /// thread, or the one passed to [`span_under`].
    pub parent: Option<u64>,
    /// Open time in nanoseconds since the trace epoch.
    pub ts_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
    /// Key/value annotations (the Chrome event `args`).
    pub args: Vec<(String, Json)>,
}

/// One sample of a numeric counter track (exported as a Chrome
/// `"ph": "C"` event, rendered by Perfetto as a counter graph).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSample {
    /// Track name (e.g. `mem.live_bytes`).
    pub name: String,
    /// Small sequential id of the sampling thread.
    pub tid: u64,
    /// Sample time in nanoseconds since the trace epoch.
    pub ts_ns: u64,
    /// Sampled value.
    pub value: u64,
}

/// Record one counter-track sample at the current time. No-op while trace
/// collection is disabled.
pub fn sample_counter(name: &str, value: u64) {
    if !enabled() {
        return;
    }
    let sample = CounterSample {
        name: name.to_owned(),
        tid: TID.with(|t| *t),
        ts_ns: duration_ns(Instant::now().saturating_duration_since(epoch())),
        value,
    };
    counter_collector().lock().unwrap().push(sample);
}

/// The one span guard of the workspace: a named, timed scope. Obtain via
/// [`span`] or [`span_under`]. It reads the clock when it opens, and on
/// drop (or [`Span::finish`]) it records
///
/// * one observation into the global timer named after the span, when
///   metrics ([`crate::enabled`]) were on at open;
/// * one [`TraceRecord`] with its args (and memory attribution), when
///   tracing ([`enabled`]) was on at open;
/// * nothing else: with both flags off it holds no timer, no record and
///   no allocation, and takes no lock.
///
/// [`Span::elapsed`] and [`Span::finish`] report the measured duration
/// whatever the flags, so the engines take their phase timings from the
/// same guard that feeds the timer and the trace.
#[must_use = "a span records on drop; binding it to `_` drops it immediately"]
pub struct Span {
    name: &'static str,
    start: Instant,
    timer: Option<TimerHandle>,
    trace: Option<TraceState>,
}

/// What a span needs to become a [`TraceRecord`].
struct TraceState {
    tid: u64,
    seq: u64,
    parent: Option<u64>,
    args: Vec<(String, Json)>,
    /// This thread's (allocated_bytes, alloc_count) at open, when memory
    /// attribution was enabled; the close-time delta becomes the span's
    /// `alloc_bytes`/`allocs` args.
    mem_at_open: Option<(u64, u64)>,
}

/// Open a span named `name`, nested under the innermost span currently
/// open on this thread.
pub fn span(name: &'static str) -> Span {
    open(name, None)
}

/// Open a span named `name` nested under `parent` — a `seq` from
/// [`current`], possibly taken on another thread — instead of under this
/// thread's innermost open span. Spans opened on this thread while it is
/// open still nest under it.
pub fn span_under(name: &'static str, parent: Option<u64>) -> Span {
    open(name, Some(parent))
}

/// The `seq` of the innermost span open on this thread; `None` when no
/// span is open or trace collection is disabled (one relaxed load then).
/// Capture it where work is handed to another thread and pass it to
/// [`span_under`] there, so the tree follows the hand-off.
#[inline]
pub fn current() -> Option<u64> {
    if !enabled() {
        return None;
    }
    STACK.with(|s| s.borrow().last().copied())
}

/// Shared body of [`span`] and [`span_under`]: `parent` overrides the
/// thread's innermost open span when given.
fn open(name: &'static str, parent: Option<Option<u64>>) -> Span {
    let timer = crate::enabled().then(|| crate::global().timer(name));
    Span::start(name, timer, enabled(), parent)
}

impl Span {
    /// Open a span recording into `timer` and, when `traced`, into the
    /// trace under `parent` (see [`open`]).
    fn start(
        name: &'static str,
        timer: Option<TimerHandle>,
        traced: bool,
        parent: Option<Option<u64>>,
    ) -> Span {
        let trace = traced.then(|| TraceState::open(parent));
        Span { name, start: Instant::now(), timer, trace }
    }

    /// True when this span will become a trace record, i.e. keeps its
    /// args. Use to skip computing expensive argument values in
    /// instrumented hot paths.
    pub fn is_traced(&self) -> bool {
        self.trace.is_some()
    }

    /// Time since the span opened.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Attach (or replace) an annotation; builder form of
    /// [`Span::set_arg`].
    pub fn arg(mut self, key: &str, value: impl Into<Json>) -> Span {
        self.set_arg(key, value);
        self
    }

    /// Attach (or replace) an annotation. No-op unless the span is traced.
    pub fn set_arg(&mut self, key: &str, value: impl Into<Json>) {
        if let Some(state) = &mut self.trace {
            match state.args.iter_mut().find(|(k, _)| k == key) {
                Some((_, v)) => *v = value.into(),
                None => state.args.push((key.to_owned(), value.into())),
            }
        }
    }

    /// Record now instead of at end of scope, and return the duration
    /// measured.
    pub fn finish(mut self) -> Duration {
        self.record()
    }

    fn record(&mut self) -> Duration {
        let dur = self.start.elapsed();
        if let Some(timer) = self.timer.take() {
            timer.record(dur);
        }
        if let Some(state) = self.trace.take() {
            state.record(self.name, self.start, dur);
        }
        dur
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.timer.is_some() || self.trace.is_some() {
            self.record();
        }
    }
}

impl TraceState {
    fn open(parent: Option<Option<u64>>) -> TraceState {
        let seq = NEXT_SEQ.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let innermost = s.last().copied();
            s.push(seq);
            parent.unwrap_or(innermost)
        });
        let mem_at_open = crate::mem::enabled()
            .then(|| (crate::mem::thread_allocated_bytes(), crate::mem::thread_alloc_count()));
        TraceState { tid: TID.with(|t| *t), seq, parent, args: Vec::new(), mem_at_open }
    }

    fn record(mut self, name: &str, start: Instant, dur: Duration) {
        // Attribute this thread's allocation delta to the span — but only
        // when the guard closes on the thread that opened it; the open
        // sample belongs to that thread's counter, so a cross-thread drop
        // gets no memory args rather than a misattributed delta.
        if let Some((bytes_at_open, count_at_open)) = self.mem_at_open {
            if TID.with(|t| *t) == self.tid {
                let alloc_bytes =
                    crate::mem::thread_allocated_bytes().saturating_sub(bytes_at_open);
                let allocs = crate::mem::thread_alloc_count().saturating_sub(count_at_open);
                self.args.push(("alloc_bytes".to_owned(), Json::from(alloc_bytes)));
                self.args.push(("allocs".to_owned(), Json::from(allocs)));
                self.args.push(("peak_live".to_owned(), Json::from(crate::mem::peak_live_bytes())));
                sample_counter("mem.live_bytes", crate::mem::live_bytes());
            }
        }
        // Pop this span off its thread's stack. A guard dropped on a
        // different thread (or after its parent) simply is not found and
        // leaves the other thread's stack alone; truncating at the found
        // position also clears any children that were leaked open.
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&q| q == self.seq) {
                s.truncate(pos);
            }
        });
        let record = TraceRecord {
            name: name.to_owned(),
            tid: self.tid,
            seq: self.seq,
            parent: self.parent,
            ts_ns: duration_ns(start.saturating_duration_since(epoch())),
            dur_ns: duration_ns(dur),
            args: self.args,
        };
        collector().lock().unwrap().push(record);
    }
}

fn duration_ns(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

/// Take every collected record out of the global collector, sorted by
/// open order (`seq`). Subsequent spans start a fresh trace.
pub fn drain() -> Vec<TraceRecord> {
    let mut records = std::mem::take(&mut *collector().lock().unwrap());
    records.sort_by_key(|r| r.seq);
    records
}

/// Take every collected counter sample out of the global collector,
/// sorted by sample time.
pub fn drain_counter_samples() -> Vec<CounterSample> {
    let mut samples = std::mem::take(&mut *counter_collector().lock().unwrap());
    samples.sort_by_key(|s| s.ts_ns);
    samples
}

/// Discard all collected records and counter samples without returning
/// them.
pub fn clear() {
    collector().lock().unwrap().clear();
    counter_collector().lock().unwrap().clear();
}

/// Render records as a Chrome Trace Event Format document: an object with
/// a `traceEvents` array of complete (`"ph": "X"`) events, timestamps and
/// durations in (fractional) microseconds. `seq`/`parent_seq` ride along
/// inside each event's `args` so [`from_chrome_json`] can rebuild the
/// exact tree; Perfetto ignores them.
pub fn to_chrome_json(records: &[TraceRecord]) -> Json {
    to_chrome_json_with_counters(records, &[])
}

/// [`to_chrome_json`] plus counter tracks: each [`CounterSample`] becomes
/// a `"ph": "C"` event, which Perfetto renders as a counter graph (one
/// track per sample name) alongside the span rows.
pub fn to_chrome_json_with_counters(records: &[TraceRecord], samples: &[CounterSample]) -> Json {
    let mut events: Vec<Json> = records
        .iter()
        .map(|r| {
            let mut args = Json::obj();
            args.set("seq", r.seq);
            match r.parent {
                Some(p) => args.set("parent_seq", p),
                None => args.set("parent_seq", Json::Null),
            };
            for (k, v) in &r.args {
                args.set(k, v.clone());
            }
            let mut e = Json::obj();
            e.set("name", r.name.as_str());
            e.set("cat", "incognito");
            e.set("ph", "X");
            e.set("ts", r.ts_ns as f64 / 1_000.0);
            e.set("dur", r.dur_ns as f64 / 1_000.0);
            e.set("pid", 1u64);
            e.set("tid", r.tid);
            e.set("args", args);
            e
        })
        .collect();
    for s in samples {
        let mut args = Json::obj();
        args.set("value", s.value);
        let mut e = Json::obj();
        e.set("name", s.name.as_str());
        e.set("cat", "incognito");
        e.set("ph", "C");
        e.set("ts", s.ts_ns as f64 / 1_000.0);
        e.set("pid", 1u64);
        e.set("tid", s.tid);
        e.set("args", args);
        events.push(e);
    }
    let mut doc = Json::obj();
    doc.set("traceEvents", Json::Arr(events));
    doc.set("displayTimeUnit", "ms");
    doc
}

/// Serialize `records` as Chrome Trace Event Format JSON, re-parse the
/// output as a self-check (like [`crate::RunReport::write_to`]), and write
/// it to `path`, creating parent directories. Returns bytes written.
pub fn write_chrome_trace(path: &Path, records: &[TraceRecord]) -> io::Result<usize> {
    write_chrome_trace_with_counters(path, records, &[])
}

/// [`write_chrome_trace`] plus counter tracks (see
/// [`to_chrome_json_with_counters`]).
pub fn write_chrome_trace_with_counters(
    path: &Path,
    records: &[TraceRecord],
    samples: &[CounterSample],
) -> io::Result<usize> {
    let text = to_chrome_json_with_counters(records, samples).to_pretty_string();
    if let Err(e) = Json::parse(&text) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("trace failed its own JSON round-trip: {e}"),
        ));
    }
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, &text)?;
    Ok(text.len())
}

/// Parse a Chrome Trace Event Format document (an object with
/// `traceEvents`, or a bare event array) back into [`TraceRecord`]s.
/// Only complete (`"ph": "X"`) events are kept; events written by other
/// tools (without `seq` in `args`) get synthetic sequence numbers and no
/// parent, i.e. they load as a forest of roots.
pub fn from_chrome_json(doc: &Json) -> Result<Vec<TraceRecord>, String> {
    let events = match doc {
        Json::Arr(items) => items.as_slice(),
        Json::Obj(_) => doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .ok_or("document has no traceEvents array")?,
        _ => return Err("expected a trace object or event array".to_owned()),
    };
    let mut max_seq = 0u64;
    let mut records = Vec::new();
    for e in events {
        if e.get("ph").and_then(Json::as_str) != Some("X") {
            continue;
        }
        let name = e.get("name").and_then(Json::as_str).unwrap_or("?").to_owned();
        let tid = e.get("tid").and_then(Json::as_int).unwrap_or(0).max(0) as u64;
        let micros = |key: &str| -> f64 {
            match e.get(key) {
                Some(Json::Num(v)) => *v,
                Some(Json::Int(v)) => *v as f64,
                _ => 0.0,
            }
        };
        let args_json = e.get("args");
        let seq =
            args_json.and_then(|a| a.get("seq")).and_then(Json::as_int).map(|v| v.max(0) as u64);
        let parent = args_json
            .and_then(|a| a.get("parent_seq"))
            .and_then(Json::as_int)
            .map(|v| v.max(0) as u64);
        let mut args = Vec::new();
        if let Some(Json::Obj(fields)) = args_json {
            for (k, v) in fields {
                if k != "seq" && k != "parent_seq" {
                    args.push((k.clone(), v.clone()));
                }
            }
        }
        records.push(TraceRecord {
            name,
            tid,
            seq: seq.unwrap_or(0),
            parent,
            ts_ns: (micros("ts").max(0.0) * 1_000.0) as u64,
            dur_ns: (micros("dur").max(0.0) * 1_000.0) as u64,
            args,
        });
        max_seq = max_seq.max(seq.unwrap_or(0));
    }
    // Synthesize sequence numbers for foreign events (seq 0 is reserved).
    for r in &mut records {
        if r.seq == 0 {
            max_seq += 1;
            r.seq = max_seq;
        }
    }
    records.sort_by_key(|r| r.seq);
    Ok(records)
}

/// One node of a rebuilt trace tree: an index into the record slice the
/// tree was built from, plus its children in open order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceNode {
    /// Index of this span in the records slice passed to [`build_tree`].
    pub index: usize,
    /// Child spans, ordered by open time.
    pub children: Vec<TraceNode>,
}

/// Rebuild the span forest from parent links. A record whose parent is
/// absent (never closed, foreign trace, cross-thread drop) becomes a
/// root; nothing panics on malformed input.
pub fn build_tree(records: &[TraceRecord]) -> Vec<TraceNode> {
    let by_seq: HashMap<u64, usize> = records.iter().enumerate().map(|(i, r)| (r.seq, i)).collect();
    // children[i] = indices of records whose parent is record i.
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); records.len()];
    let mut roots: Vec<usize> = Vec::new();
    let mut order: Vec<usize> = (0..records.len()).collect();
    order.sort_by_key(|&i| records[i].seq);
    for &i in &order {
        match records[i].parent.and_then(|p| by_seq.get(&p)).copied() {
            // A self-parenting record (malformed input) is a root too.
            Some(p) if p != i => children[p].push(i),
            _ => roots.push(i),
        }
    }
    fn assemble(index: usize, children: &[Vec<usize>]) -> TraceNode {
        TraceNode {
            index,
            children: children[index].iter().map(|&c| assemble(c, children)).collect(),
        }
    }
    roots.into_iter().map(|i| assemble(i, &children)).collect()
}

/// One row of an aggregated span profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileRow {
    /// Span name.
    pub name: String,
    /// Number of spans with this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their durations minus their direct children's durations
    /// (time attributable to the span itself).
    pub self_ns: u64,
    /// Largest single duration.
    pub max_ns: u64,
}

/// Aggregate records by span name, with self-time computed from the
/// rebuilt tree. Rows are sorted by total duration, descending.
pub fn profile(records: &[TraceRecord]) -> Vec<ProfileRow> {
    let mut child_ns: Vec<u64> = vec![0; records.len()];
    let forest = build_tree(records);
    let mut stack: Vec<&TraceNode> = forest.iter().collect();
    while let Some(node) = stack.pop() {
        child_ns[node.index] = node.children.iter().map(|c| records[c.index].dur_ns).sum();
        stack.extend(node.children.iter());
    }
    let mut rows: HashMap<&str, ProfileRow> = HashMap::new();
    for (i, r) in records.iter().enumerate() {
        let row = rows.entry(r.name.as_str()).or_insert_with(|| ProfileRow {
            name: r.name.clone(),
            count: 0,
            total_ns: 0,
            self_ns: 0,
            max_ns: 0,
        });
        row.count += 1;
        row.total_ns += r.dur_ns;
        row.self_ns += r.dur_ns.saturating_sub(child_ns[i]);
        row.max_ns = row.max_ns.max(r.dur_ns);
    }
    let mut rows: Vec<ProfileRow> = rows.into_values().collect();
    rows.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(&b.name)));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    fn rec(name: &str, seq: u64, parent: Option<u64>, ts: u64, dur: u64) -> TraceRecord {
        TraceRecord {
            name: name.to_owned(),
            tid: 1,
            seq,
            parent,
            ts_ns: ts,
            dur_ns: dur,
            args: Vec::new(),
        }
    }

    #[test]
    fn tree_follows_parent_links() {
        let records = vec![
            rec("root", 1, None, 0, 100),
            rec("child", 2, Some(1), 10, 40),
            rec("grandchild", 3, Some(2), 15, 10),
            rec("sibling", 4, Some(1), 60, 30),
        ];
        let forest = build_tree(&records);
        assert_eq!(forest.len(), 1);
        assert_eq!(records[forest[0].index].name, "root");
        assert_eq!(forest[0].children.len(), 2);
        assert_eq!(records[forest[0].children[0].index].name, "child");
        assert_eq!(forest[0].children[0].children.len(), 1);
    }

    #[test]
    fn orphans_and_self_parents_become_roots() {
        let records = vec![rec("orphan", 2, Some(99), 0, 10), rec("selfie", 3, Some(3), 20, 10)];
        let forest = build_tree(&records);
        assert_eq!(forest.len(), 2);
    }

    #[test]
    fn profile_computes_self_time() {
        let records = vec![
            rec("outer", 1, None, 0, 100),
            rec("inner", 2, Some(1), 10, 30),
            rec("inner", 3, Some(1), 50, 20),
        ];
        let rows = profile(&records);
        assert_eq!(rows[0].name, "outer");
        assert_eq!(rows[0].total_ns, 100);
        assert_eq!(rows[0].self_ns, 50);
        assert_eq!(rows[1].name, "inner");
        assert_eq!(rows[1].count, 2);
        assert_eq!(rows[1].self_ns, 50);
    }

    #[test]
    fn chrome_json_round_trips_records() {
        let mut records =
            vec![rec("root", 1, None, 0, 100_000), rec("child", 2, Some(1), 10_000, 40_000)];
        records[1].args.push(("via".to_owned(), Json::from("rollup")));
        records[1].args.push(("anonymous".to_owned(), Json::Bool(true)));
        let doc = to_chrome_json(&records);
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        for e in events {
            assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"));
        }
        let back = from_chrome_json(&doc).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].name, "root");
        assert_eq!(back[1].parent, Some(1));
        assert_eq!(back[1].args, records[1].args);
        assert_eq!(back[1].ts_ns, 10_000);
        assert_eq!(back[1].dur_ns, 40_000);
    }

    #[test]
    fn span_records_once_on_drop() {
        let reg = MetricsRegistry::new();
        {
            let _s = Span::start("op", Some(reg.timer("op")), false, None);
        }
        assert_eq!(reg.snapshot().timer("op").count, 1);
    }

    #[test]
    fn finish_preempts_drop() {
        let reg = MetricsRegistry::new();
        let s = Span::start("op", Some(reg.timer("op")), false, None);
        let d = s.finish();
        let t = reg.snapshot().timer("op");
        assert_eq!(t.count, 1);
        assert_eq!(t.total, d);
    }

    #[test]
    fn inert_span_records_nothing_but_still_times() {
        let reg = MetricsRegistry::new();
        let s = Span::start("op", None, false, None);
        assert!(!s.is_traced());
        let spin = Instant::now();
        while spin.elapsed().is_zero() {}
        assert!(s.elapsed() > Duration::ZERO);
        assert!(s.finish() > Duration::ZERO);
        assert!(reg.snapshot().is_empty());
    }

    // Trace + mem attribution flags are process-global; this is the only
    // test in the obs binary that enables them or drains the collectors,
    // so it exercises the whole live-span protocol serially.
    #[test]
    fn spans_attribute_allocation_deltas_and_counter_samples() {
        set_enabled(true);
        crate::mem::set_enabled(true);
        let outer = span("mem_attr_test");
        let v: Vec<u8> = Vec::with_capacity(1 << 18);
        outer.finish();
        drop(v);
        crate::mem::set_enabled(false);
        set_enabled(false);

        let records = drain();
        let r = records.iter().find(|r| r.name == "mem_attr_test").expect("span recorded");
        let get = |k: &str| r.args.iter().find(|(key, _)| key == k).and_then(|(_, v)| v.as_int());
        assert!(get("alloc_bytes").expect("alloc_bytes arg") >= 1 << 18);
        assert!(get("allocs").expect("allocs arg") >= 1);
        assert!(get("peak_live").expect("peak_live arg") > 0);

        let samples = drain_counter_samples();
        assert!(
            samples.iter().any(|s| s.name == "mem.live_bytes" && s.value > 0),
            "span close must sample the live-bytes counter track"
        );
    }

    #[test]
    fn counter_samples_export_as_ph_c_events() {
        let records = vec![rec("root", 1, None, 0, 100_000)];
        let samples = vec![CounterSample {
            name: "mem.live_bytes".to_owned(),
            tid: 1,
            ts_ns: 5_000,
            value: 42,
        }];
        let doc = to_chrome_json_with_counters(&records, &samples);
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        let c = &events[1];
        assert_eq!(c.get("ph").and_then(Json::as_str), Some("C"));
        assert_eq!(c.get("name").and_then(Json::as_str), Some("mem.live_bytes"));
        assert_eq!(c.get("args").and_then(|a| a.get("value")).and_then(Json::as_int), Some(42));
        // Counter events are render-only: the span loader skips them.
        assert_eq!(from_chrome_json(&doc).unwrap().len(), 1);
    }

    #[test]
    fn foreign_events_load_as_roots() {
        let text = r#"{"traceEvents":[
            {"name":"a","ph":"X","ts":1.5,"dur":2.5,"pid":1,"tid":7},
            {"name":"meta","ph":"M","args":{"name":"process_name"}},
            {"name":"b","ph":"X","ts":4,"dur":1,"pid":1,"tid":7}
        ]}"#;
        let records = from_chrome_json(&Json::parse(text).unwrap()).unwrap();
        assert_eq!(records.len(), 2); // the "M" metadata event is skipped
        assert!(records.iter().all(|r| r.parent.is_none() && r.seq > 0));
        assert_eq!(records[0].ts_ns, 1_500);
        assert_eq!(build_tree(&records).len(), 2);
    }
}
