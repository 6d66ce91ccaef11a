//! The traced run: search with observation on, then replay that search's
//! own plan against each layer's public functions, timing every call with
//! spans recorded here, and check the replay reproduces the search.

use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

use incognito_core::incognito::incognito_traced;
use incognito_core::trace::{CheckSource, TraceEvent};
use incognito_core::verify::verify_complete;
use incognito_core::{incognito, Config, FreqHandle, FreqProvider, SearchStats};
use incognito_lattice::{generate_next, CandidateGraph, NodeId};
use incognito_obs::{MetricsSnapshot, TraceRecord};
use incognito_table::Table;

use crate::pipeline::{
    check_digest, check_same_as_unbudgeted, check_spill_dir_empty, generate, pipeline_op, Op,
    SETUP_MIN_SECONDS, SETUP_REPEATS,
};
use crate::workload::Workload;
use crate::{median, Outcome};

/// Untraced/traced search pairs behind `obs.overhead_ratio`.
const OVERHEAD_PAIRS: usize = 2;

/// Lattice-size cap for the exhaustive completeness check; the
/// workloads' full lattices have 12,960 (Adults, QI 9) and 480 (Lands End,
/// QI 5) nodes.
const VERIFY_MAX_NODES: usize = 20_000;

/// Spans recorded around the replay's calls into each layer. A span's
/// self time is its duration minus its children's; the replay is serial,
/// so children never overlap.
#[derive(Default)]
struct Spans {
    recs: Vec<(&'static str, Option<usize>, Instant, Duration)>,
    open: Vec<usize>,
}

impl Spans {
    fn enter(&mut self, name: &'static str) -> usize {
        self.recs.push((name, self.open.last().copied(), Instant::now(), Duration::ZERO));
        self.open.push(self.recs.len() - 1);
        self.recs.len() - 1
    }

    /// Close span `id` (the innermost open one) under its final name.
    fn exit_as(&mut self, id: usize, name: &'static str) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let rec = &mut self.recs[id];
        rec.0 = name;
        rec.3 = rec.2.elapsed();
    }

    fn exit(&mut self, id: usize) {
        let name = self.recs[id].0;
        self.exit_as(id, name);
    }

    fn count(&self, name: &str) -> usize {
        self.recs.iter().filter(|r| r.0 == name).count()
    }

    fn self_secs(&self, name: &str) -> f64 {
        let mut own: Vec<Duration> = self.recs.iter().map(|r| r.3).collect();
        for r in &self.recs {
            if let Some(p) = r.1 {
                own[p] = own[p].saturating_sub(r.3);
            }
        }
        self.recs
            .iter()
            .zip(own)
            .filter(|(r, _)| r.0 == name)
            .map(|(_, d)| d)
            .sum::<Duration>()
            .as_secs_f64()
    }
}

/// Per-iteration search state the replay needs to find rollup parents:
/// the frequency sets of failed checked nodes, each dropped once every
/// direct generalization of its node is determined (checked or marked).
struct IterState {
    in_adj: Vec<Vec<NodeId>>,
    pending_out: Vec<usize>,
    determined: Vec<bool>,
    alive: Vec<bool>,
    cache: HashMap<NodeId, FreqHandle>,
}

impl IterState {
    fn new(graph: &CandidateGraph) -> Self {
        let n = graph.num_nodes();
        let mut in_adj = vec![Vec::new(); n];
        for &(s, e) in graph.edges() {
            in_adj[e as usize].push(s);
        }
        IterState {
            in_adj,
            pending_out: (0..n)
                .map(|id| graph.direct_generalizations(id as NodeId).len())
                .collect(),
            determined: vec![false; n],
            alive: vec![true; n],
            cache: HashMap::new(),
        }
    }

    fn determine(&mut self, node: NodeId) {
        if std::mem::replace(&mut self.determined[node as usize], true) {
            return;
        }
        for &x in &self.in_adj[node as usize] {
            self.pending_out[x as usize] -= 1;
            if self.pending_out[x as usize] == 0 {
                self.cache.remove(&x);
            }
        }
    }
}

/// What the replay counted besides its spans.
#[derive(Default)]
struct Replay {
    scans: usize,
    rollups: usize,
    /// Scans per kernel tier: dense, packed, hash.
    kernels: [u64; 3],
    /// Heap bytes of every in-memory frequency set built.
    resident_bytes: u64,
}

/// Replay `events` (one search of `table` under `cfg`) and check it
/// reproduces the search: graph sizes, verdicts, survivors, and the
/// scan and rollup counts in `stats`.
fn replay(
    table: &Table,
    cfg: &Config,
    qi: &[usize],
    events: &[TraceEvent],
    stats: &SearchStats,
    spans: &mut Spans,
) -> Result<Replay, String> {
    let schema = table.schema();
    let provider = FreqProvider::new(table, cfg);
    let reg = incognito_obs::global();
    let (dense, packed) = (reg.counter("table.scan.dense"), reg.counter("table.scan.packed"));
    let mut rep = Replay::default();
    let mut graph: Option<CandidateGraph> = None;
    let mut state: Option<IterState> = None;
    let root = spans.enter("search");
    for event in events {
        match event {
            TraceEvent::IterationStart { arity, candidates, edges } => {
                let s = spans.enter("lattice.generate");
                let next = match (graph.take(), state.take()) {
                    (Some(prev), Some(st)) => generate_next(&prev, &st.alive, cfg.prune),
                    _ => CandidateGraph::initial(schema, qi),
                };
                spans.exit(s);
                let got = (next.arity(), next.num_nodes(), next.num_edges());
                if got != (*arity, *candidates, *edges) {
                    return Err(format!(
                        "replayed graph (arity, nodes, edges) {got:?} != logged {:?}",
                        (arity, candidates, edges)
                    ));
                }
                state = Some(IterState::new(&next));
                graph = Some(next);
            }
            TraceEvent::Checked { spec, via, anonymous } => {
                let (g, st) =
                    graph.as_ref().zip(state.as_mut()).ok_or("check before any iteration")?;
                let node = g
                    .find(spec)
                    .ok_or_else(|| format!("checked node {spec:?} not in the graph"))?;
                let check = spans.enter("check");
                let freq = match via {
                    CheckSource::TableScan => {
                        rep.scans += 1;
                        let spec = g.node(node).to_group_spec().map_err(|e| e.to_string())?;
                        let (d0, p0) = (dense.get(), packed.get());
                        let s = spans.enter("table.scan");
                        let freq = provider.scan(&spec, 1).map_err(|e| e.to_string())?;
                        spans.exit_as(
                            s,
                            if freq.is_spilled() { "spill.build" } else { "table.scan" },
                        );
                        if !freq.is_spilled() {
                            let tier = if dense.get() > d0 {
                                0
                            } else if packed.get() > p0 {
                                1
                            } else {
                                2
                            };
                            rep.kernels[tier] += 1;
                        }
                        freq
                    }
                    CheckSource::Rollup => {
                        rep.rollups += 1;
                        let parent = st.in_adj[node as usize]
                            .iter()
                            .find_map(|p| st.cache.get(p))
                            .ok_or_else(|| {
                                format!("no cached direct specialization to roll {spec:?} up from")
                            })?;
                        let name =
                            if parent.is_spilled() { "spill.rollup" } else { "table.rollup" };
                        let s = spans.enter(name);
                        let freq = provider
                            .rollup(parent, schema, &g.node(node).levels())
                            .map_err(|e| e.to_string())?;
                        spans.exit(s);
                        freq
                    }
                    other => {
                        return Err(format!(
                            "unexpected source {:?} in a Basic Incognito search",
                            other
                        ))
                    }
                };
                rep.resident_bytes += freq.resident_bytes();
                let verdict = if cfg.max_suppress == 0 {
                    freq.is_k_anonymous(cfg.k)
                } else {
                    freq.is_k_anonymous_with_suppression(cfg.k, cfg.max_suppress)
                }
                .map_err(|e| e.to_string())?;
                if verdict != *anonymous {
                    return Err(format!(
                        "replayed verdict {verdict} != logged {anonymous} for {spec:?}"
                    ));
                }
                if !verdict {
                    st.alive[node as usize] = false;
                    if st.pending_out[node as usize] > 0 {
                        st.cache.insert(node, freq);
                    }
                }
                st.determine(node);
                spans.exit(check);
            }
            TraceEvent::Marked { spec, .. } => {
                let (g, st) =
                    graph.as_ref().zip(state.as_mut()).ok_or("mark before any iteration")?;
                let node =
                    g.find(spec).ok_or_else(|| format!("marked node {spec:?} not in the graph"))?;
                st.determine(node);
            }
            TraceEvent::IterationEnd { survivors } => {
                let st = state.as_mut().ok_or("iteration end before its start")?;
                st.cache.clear();
                let alive = st.alive.iter().filter(|&&a| a).count();
                if alive != *survivors {
                    return Err(format!("replayed survivors {alive} != logged {survivors}"));
                }
            }
        }
    }
    spans.exit(root);
    if (rep.scans, rep.rollups) != (stats.freq_from_scan, stats.freq_from_rollup) {
        return Err(format!(
            "replayed (scans, rollups) {:?} != searched {:?}",
            (rep.scans, rep.rollups),
            (stats.freq_from_scan, stats.freq_from_rollup)
        ));
    }
    Ok(rep)
}

/// Turn metrics, trace and memory attribution on or off together.
fn observe(on: bool) {
    incognito_obs::set_enabled(on);
    incognito_obs::trace::set_enabled(on);
    incognito_obs::mem::set_enabled(on);
}

/// One traced search: its pipeline operation, event log, counters and
/// trace records.
struct Traced {
    op: Op,
    events: Vec<TraceEvent>,
    counters: MetricsSnapshot,
    records: Vec<TraceRecord>,
}

fn traced_op(
    table: &Table,
    qi: &[usize],
    cfg: &Config,
    spill_dir: &Path,
) -> Result<Traced, String> {
    let mut events = Vec::new();
    incognito_obs::reset();
    incognito_obs::trace::clear();
    let op = pipeline_op(table, qi, spill_dir, || {
        observe(true);
        let out = incognito_traced(table, qi, cfg);
        observe(false);
        let (result, ev) = out?;
        events = ev;
        Ok(result)
    })?;
    let counters = incognito_obs::snapshot();
    let records = incognito_obs::trace::drain();
    Ok(Traced { op, events, counters, records })
}

/// The traced run: per-layer metrics of one workload.
pub fn traced_run(w: &Workload, seed: u64, spill_dir: &Path) -> Result<Outcome, String> {
    let mut generations = Vec::new();
    let (table, table_bytes) =
        generate(w, seed, SETUP_REPEATS, SETUP_MIN_SECONDS, &mut generations);
    let cfg = w.config(spill_dir);
    let qi = w.qi();
    let mut out = Outcome::default();

    // Observation overhead: alternate untraced and traced searches.
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..OVERHEAD_PAIRS {
        out.attempt();
        match pipeline_op(&table, &qi, spill_dir, || incognito(&table, &qi, &cfg))
            .and_then(|op| check_digest(w, &op.result).map(|()| op))
        {
            Ok(op) => untraced_s.push(op.search_s),
            Err(e) => out.fail(e),
        }
        out.attempt();
        match traced_op(&table, &qi, &cfg, spill_dir)
            .and_then(|t| check_digest(w, &t.op.result).map(|()| t))
        {
            Ok(t) => {
                traced_s.push(t.op.search_s);
                last = Some(t);
            }
            Err(e) => out.fail(e),
        }
    }
    if w.budget.is_some() {
        out.attempt();
        if let Err(e) = check_same_as_unbudgeted(w, &table, &qi, &cfg) {
            out.fail(e);
        }
    }
    let Some(Traced { op, events, counters, records }) = last else {
        return Err("no traced search succeeded".into());
    };
    let stats = op.result.stats();

    // Replay with metrics on (the kernel counters classify each scan) but
    // trace and memory attribution off.
    out.attempt();
    let mut spans = Spans::default();
    incognito_obs::set_enabled(true);
    let replayed = replay(&table, &cfg, &qi, &events, stats, &mut spans);
    incognito_obs::set_enabled(false);
    let rep = match replayed.and_then(|r| check_spill_dir_empty(spill_dir).map(|()| r)) {
        Ok(rep) => rep,
        Err(e) => {
            out.fail(format!("replay: {e}"));
            Replay::default()
        }
    };

    out.attempt();
    if let Err(e) = verify_complete(&table, &op.result, VERIFY_MAX_NODES) {
        out.fail(format!("completeness check: {e}"));
    }

    let c = |name: &str| counters.counter(name) as f64;
    let g = |name: &str| counters.gauge(name) as f64;
    let checked = stats.nodes_checked() as f64;
    let marked = stats.nodes_marked() as f64;
    let exec_task_s =
        records.iter().filter(|r| r.name == "exec.task").map(|r| r.dur_ns).sum::<u64>() as f64
            / 1e9;
    out.metric("lattice.generate.calls", spans.count("lattice.generate") as f64);
    out.metric("lattice.generate.s", spans.self_secs("lattice.generate"));
    out.metric("lattice.candidates", stats.candidates() as f64);
    out.metric("lattice.edges", stats.iterations.iter().map(|i| i.edges).sum::<usize>() as f64);
    out.metric("lattice.pruned", c("lattice.generate.pruned"));
    out.metric("table.scan.calls", c("table.scan.count"));
    out.metric("table.scan.s", spans.self_secs("table.scan"));
    out.metric("table.scan.rows", c("table.scan.rows"));
    out.metric("table.kernel.dense.calls", rep.kernels[0] as f64);
    out.metric("table.kernel.packed.calls", rep.kernels[1] as f64);
    out.metric("table.kernel.hash.calls", rep.kernels[2] as f64);
    out.metric("table.rollup.calls", c("table.rollup.count"));
    out.metric("table.rollup.s", spans.self_secs("table.rollup"));
    out.metric("table.rollup.groups_in", c("table.rollup.groups_in"));
    out.metric("table.rollup.groups_out", c("table.rollup.groups_out"));
    out.metric("table.set.resident_mb", rep.resident_bytes as f64 / 1e6);
    out.metric("spill.sets", g("table.spill.spilled_sets"));
    out.metric("spill.partitions", g("table.spill.partitions"));
    out.metric("spill.upgrades", g("table.spill.upgrades"));
    out.metric("spill.s", spans.self_secs("spill.build") + spans.self_secs("spill.rollup"));
    out.metric("spill.mb", g("table.spill.bytes") / 1e6);
    out.metric("spill.bytes_per_input_byte", g("table.spill.bytes") / table_bytes.max(1) as f64);
    out.metric("core.nodes_checked", checked);
    out.metric("core.nodes_marked", marked);
    out.metric("core.mark_ratio", marked / (checked + marked).max(1.0));
    out.metric("core.freq_from_scan", stats.freq_from_scan as f64);
    out.metric("core.freq_from_rollup", stats.freq_from_rollup as f64);
    out.metric("core.check_overhead_s", spans.self_secs("search") + spans.self_secs("check"));
    out.metric("core.freq_cache.peak_mb", g("core.freq_cache.peak_bytes") / 1e6);
    out.metric("exec.tasks", c("exec.tasks"));
    out.metric("exec.steals", c("exec.steals"));
    out.metric("exec.inline", c("exec.inline"));
    out.metric("exec.busy_ratio", exec_task_s / (w.threads as f64 * op.search_s));
    out.metric("release.materialize.s", op.release.materialize_s);
    out.metric("release.csv_write.s", op.release.csv_s);
    out.metric("release.csv_mb", op.release.csv_bytes as f64 / 1e6);
    out.metric("release.suppressed", op.release.suppressed as f64);
    out.metric("data.generate.s", median(&generations));
    out.metric("obs.overhead_ratio", median(&traced_s) / median(&untraced_s));
    Ok(out)
}
