//! Basic and Super-roots Incognito (Figure 8 and §3.3.1 of the paper).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

use incognito_hierarchy::LevelNo;
use incognito_lattice::{generate_next, CandidateGraph, NodeId};
use incognito_table::fxhash::FxHashMap;
use incognito_table::{GroupSpec, Table};

use crate::error::validate_qi;
use crate::materialize::{FreqStore, MaterializationPolicy};
use crate::provider::{FreqHandle, FreqProvider};
use crate::trace::{CheckSource, TraceEvent};
use crate::{AlgoError, AnonymizationResult, Config, Generalization, IterationStats, SearchStats};

/// Run Incognito and return **all** k-anonymous full-domain generalizations
/// of the quasi-identifier `qi` (soundness and completeness, §3.2).
///
/// `cfg` selects Basic vs Super-roots behaviour, the prune structure, the
/// suppression allowance, and the rollup ablation switch.
///
/// ```
/// # use incognito_core::{incognito, Config};
/// # use incognito_hierarchy::builders;
/// # use incognito_table::{Attribute, Schema, Table};
/// # let schema = Schema::new(vec![
/// #     Attribute::new("Sex", builders::suppression("Sex", &["Male", "Female"]).unwrap()),
/// #     Attribute::new("Zipcode",
/// #         builders::round_digits("Zipcode", &["53715", "53710", "53706", "53703"], 2).unwrap()),
/// # ]).unwrap();
/// # let mut t = Table::empty(schema);
/// # for row in [["Male", "53715"], ["Female", "53715"], ["Male", "53703"],
/// #             ["Male", "53703"], ["Female", "53706"], ["Female", "53706"]] {
/// #     t.push_row(&row).unwrap();
/// # }
/// let result = incognito(&t, &[0, 1], &Config::new(2)).unwrap();
/// assert!(result.contains(&[1, 0])); // ⟨S1, Z0⟩ is 2-anonymous
/// assert!(!result.contains(&[0, 0]));
/// ```
pub fn incognito(
    table: &Table,
    qi: &[usize],
    cfg: &Config,
) -> Result<AnonymizationResult, AlgoError> {
    incognito_impl(table, qi, cfg, &mut |_| {}, None)
}

/// Like [`incognito`], but also returns the full [`TraceEvent`] log.
pub fn incognito_traced(
    table: &Table,
    qi: &[usize],
    cfg: &Config,
) -> Result<(AnonymizationResult, Vec<TraceEvent>), AlgoError> {
    let mut events = Vec::new();
    let result = incognito_impl(table, qi, cfg, &mut |e| events.push(e), None)?;
    Ok((result, events))
}

/// How one node will obtain its frequency set. Incognito decides a wave's
/// plans serially against the wave-start cache state; because candidates
/// of equal lattice height share no edges, no same-wave check can insert
/// or evict a frequency set a sibling's plan depends on, so these plans
/// are exactly the ones the serial engine would make one at a time
/// (DESIGN.md §8).
pub(crate) enum FreqPlan<'f> {
    /// Roll `source` up to `target`: a cached direct specialization's
    /// frequency set, a materialized store's (Cube Incognito's zero cube,
    /// §7's strategic materialization), or this root family's shared
    /// super-root set, as `via` records.
    Rollup { source: &'f FreqHandle, target: Vec<LevelNo>, via: CheckSource },
    /// Scan the base table.
    Scan { spec: GroupSpec },
}

/// Decide how `node` gets its frequency set, mirroring the serial
/// engine's source preference: cached-parent rollup, then the store, then
/// the super-root, then a table scan.
pub(crate) fn plan_freq<'f>(
    node: NodeId,
    cfg: &Config,
    graph: &CandidateGraph,
    in_adj: &[Vec<NodeId>],
    cache: &'f FxHashMap<NodeId, FreqHandle>,
    superroot_freq: &'f FxHashMap<Vec<usize>, FreqHandle>,
    store: Option<&'f FreqStore<'_>>,
) -> Result<FreqPlan<'f>, AlgoError> {
    let spec = graph.node(node).to_group_spec()?;
    if !cfg.rollup {
        return Ok(FreqPlan::Scan { spec });
    }
    let target = || graph.node(node).levels();
    if let Some(source) = in_adj[node as usize].iter().find_map(|&p| cache.get(&p)) {
        return Ok(FreqPlan::Rollup { source, target: target(), via: CheckSource::Rollup });
    }
    if let Some(source) = store.and_then(|s| s.source(&graph.node(node).parts)) {
        return Ok(FreqPlan::Rollup { source, target: target(), via: CheckSource::Cube });
    }
    if let Some(source) = superroot_freq.get(&graph.node(node).attr_set()) {
        return Ok(FreqPlan::Rollup { source, target: target(), via: CheckSource::SuperRoot });
    }
    Ok(FreqPlan::Scan { spec })
}

/// The outcome of checking one node. Incognito computes a wave's verdicts
/// and timings concurrently, then applies them to the search state
/// serially in wave order.
pub(crate) struct Checked {
    pub(crate) freq: FreqHandle,
    pub(crate) via: CheckSource,
    pub(crate) anonymous: bool,
    /// Time spent building `freq`: a scan's or a rollup's, as `via` says.
    pub(crate) time: Duration,
}

/// Check the node `parts` by evaluating `plan` through the provider; the
/// one check path of every engine. Reads only shared state, so it is safe
/// on any pool worker; the `check` trace span opens on the executing
/// thread, which is what makes multi-worker checks visible in Perfetto
/// exports.
pub(crate) fn eval_plan(
    provider: &FreqProvider<'_>,
    cfg: &Config,
    parts: &[(usize, LevelNo)],
    plan: &FreqPlan<'_>,
    scan_threads: usize,
) -> Result<Checked, AlgoError> {
    let mut check_span = incognito_obs::span("check");
    if check_span.is_traced() {
        check_span.set_arg("node", crate::trace::spec_label(parts));
    }
    let t0 = Instant::now();
    let (freq, via) = match plan {
        FreqPlan::Rollup { source, target, via } => {
            (provider.rollup(source, provider.table().schema(), target)?, *via)
        }
        FreqPlan::Scan { spec } => (provider.scan(spec, scan_threads)?, CheckSource::TableScan),
    };
    let time = t0.elapsed();
    let anonymous = cfg.passes_handle(&freq)?;
    check_span.set_arg("via", via.as_str());
    check_span.set_arg("anonymous", anonymous);
    Ok(Checked { freq, via, anonymous, time })
}

/// Incrementally tracked occupancy of the per-iteration frequency-set
/// cache, published as `core.freq_cache.*` gauges: the current level
/// (`entries`/`bytes`), and process-monotone high-water marks
/// (`peak_entries`/`peak_bytes`). Evictions bump the
/// `core.freq_cache.evictions` counter. Tracking is plain integer
/// arithmetic on the serial apply path, so it cannot perturb the
/// byte-identical-counters contract (DESIGN.md §8).
#[derive(Default)]
struct CacheGauges {
    entries: i64,
    bytes: i64,
    peak_entries: i64,
    peak_bytes: i64,
}

impl CacheGauges {
    fn on_insert(&mut self, freq: &FreqHandle) {
        self.entries += 1;
        self.bytes += freq.resident_bytes() as i64;
        self.peak_entries = self.peak_entries.max(self.entries);
        self.peak_bytes = self.peak_bytes.max(self.bytes);
    }

    fn on_evict(&mut self, freq: &FreqHandle) {
        self.entries -= 1;
        self.bytes -= freq.resident_bytes() as i64;
        incognito_obs::incr("core.freq_cache.evictions");
    }

    fn publish(&self) {
        if !incognito_obs::enabled() {
            return;
        }
        let reg = incognito_obs::global();
        reg.gauge("core.freq_cache.entries").set(self.entries);
        reg.gauge("core.freq_cache.bytes").set(self.bytes);
        // Peaks stay monotone across iterations and runs in one process.
        let pe = reg.gauge("core.freq_cache.peak_entries");
        pe.set(pe.get().max(self.peak_entries));
        let pb = reg.gauge("core.freq_cache.peak_bytes");
        pb.set(pb.get().max(self.peak_bytes));
    }
}

/// Shared engine behind Basic, Super-roots, Cube, and store-backed
/// Incognito. A `store` answers each node that has no cached parent by a
/// rollup of its cheapest set over the node's attributes.
pub(crate) fn incognito_impl(
    table: &Table,
    qi: &[usize],
    cfg: &Config,
    sink: &mut dyn FnMut(TraceEvent),
    store: Option<&FreqStore<'_>>,
) -> Result<AnonymizationResult, AlgoError> {
    let schema = table.schema().clone();
    let qi = validate_qi(&schema, qi, cfg.k)?;
    let n = qi.len();

    let algo = match (store.map(FreqStore::policy), cfg.superroots) {
        (None, false) => "basic",
        (None, true) => "superroots",
        (Some(MaterializationPolicy::ZeroCube), _) => "cube",
        (Some(_), _) => "store",
    };
    let search_span =
        incognito_obs::span("search").arg("algo", algo).arg("k", cfg.k).arg("qi_arity", n as u64);
    let mut stats = SearchStats::default();
    let mut graph = CandidateGraph::initial(&schema, &qi);
    let mut final_alive: Vec<bool> = Vec::new();
    // Every frequency set the search touches comes through the provider,
    // which spills to disk while the process is over the memory budget.
    let provider = FreqProvider::new(table, cfg);

    // Shared work-stealing pool for wave-parallel node checks and family
    // scans. `None` (threads == 1) keeps the engine on the strictly serial
    // path whose counters the committed regression baseline pins.
    let pool = (cfg.threads > 1).then(|| incognito_exec::shared(cfg.threads));

    for i in 1..=n {
        let mut iter_span = incognito_obs::span("iteration")
            .arg("arity", i as u64)
            .arg("candidates", graph.num_nodes() as u64)
            .arg("edges", graph.num_edges() as u64);
        sink(TraceEvent::IterationStart {
            arity: i,
            candidates: graph.num_nodes(),
            edges: graph.num_edges(),
        });
        let num = graph.num_nodes();
        let mut alive = vec![true; num];
        let mut marked = vec![false; num];
        let mut processed = vec![false; num];
        let mut it_stats = IterationStats {
            arity: i,
            candidates: num,
            edges: graph.num_edges(),
            ..IterationStats::default()
        };

        // In-adjacency (direct specializations), for rollup sources and
        // frequency-set cache eviction.
        let mut in_adj: Vec<Vec<NodeId>> = vec![Vec::new(); num];
        for &(s, e) in graph.edges() {
            in_adj[e as usize].push(s);
        }

        // Super-roots (§3.3.1): scan once per family at the greatest lower
        // bound of that family's roots, then roll up to each root. (The
        // paper's prose says "least upper bound" but its example computes
        // ⟨B0,S0,Z0⟩ from the three roots of Figure 7(a) — the component-
        // wise minimum — which is what rolling *up* to each root requires.)
        let mut superroot_freq: FxHashMap<Vec<usize>, FreqHandle> = FxHashMap::default();
        if cfg.superroots && store.is_none() {
            let roots = graph.roots();
            let mut fams: std::collections::BTreeMap<Vec<usize>, Vec<NodeId>> =
                std::collections::BTreeMap::new();
            for &r in &roots {
                fams.entry(graph.node(r).attr_set()).or_default().push(r);
            }
            // Lone roots scan directly (no sharing to win); each multi-root
            // family is one unit of work.
            let work: Vec<(Vec<usize>, Vec<NodeId>)> =
                fams.into_iter().filter(|(_, fam_roots)| fam_roots.len() >= 2).collect();
            let scan_family = |fam_roots: &[NodeId],
                               scan_threads: usize|
             -> Result<(FreqHandle, Duration), AlgoError> {
                let glb = graph.family_glb(fam_roots).expect("same family");
                let mut sr_span =
                    incognito_obs::span("superroot.scan").arg("roots", fam_roots.len() as u64);
                if sr_span.is_traced() {
                    sr_span.set_arg("glb", crate::trace::spec_label(&glb.parts));
                }
                let freq = provider.scan(&glb.to_group_spec()?, scan_threads)?;
                Ok((freq, sr_span.finish()))
            };
            let scanned: Vec<Result<(FreqHandle, Duration), AlgoError>> = match &pool {
                // One task per family; each family's scan stays serial —
                // the parallelism is across families. A lone family gets
                // the row-parallel scan instead.
                Some(pool) if work.len() > 1 => {
                    pool.parallel_map(&work, |_, (_, fam_roots)| scan_family(fam_roots, 1))
                }
                _ => {
                    work.iter().map(|(_, fam_roots)| scan_family(fam_roots, cfg.threads)).collect()
                }
            };
            for ((attrs, _), out) in work.into_iter().zip(scanned) {
                let (freq, scan_time) = out?;
                stats.timings.scan += scan_time;
                stats.freq_from_scan += 1;
                stats.table_scans += 1;
                superroot_freq.insert(attrs, freq);
            }
            if incognito_obs::enabled() {
                incognito_obs::gauge_set("core.superroot.entries", superroot_freq.len() as i64);
                incognito_obs::gauge_set(
                    "core.superroot.bytes",
                    superroot_freq.values().map(FreqHandle::resident_bytes).sum::<u64>() as i64,
                );
            }
        }

        // Frequency-set cache keyed by node id, evicted once every direct
        // generalization of the node has had its status determined.
        let mut cache: FxHashMap<NodeId, FreqHandle> = FxHashMap::default();
        let mut cache_gauges = CacheGauges::default();
        let mut pending_out: Vec<u32> =
            (0..num).map(|id| graph.direct_generalizations(id as NodeId).len() as u32).collect();
        // A node's status becomes determined when it is processed or first
        // marked; that's when its specializations' caches may drain.
        let mut determined = vec![false; num];

        let mut queue: BinaryHeap<Reverse<(u32, NodeId)>> = BinaryHeap::new();
        for r in graph.roots() {
            queue.push(Reverse((graph.node(r).height(), r)));
        }

        // Transitively mark everything reachable from `from` as k-anonymous
        // (generalization property; Example 3.1 marks implied
        // generalizations too).
        let mark_from = |from: NodeId,
                         marked: &mut [bool],
                         processed: &[bool],
                         determined: &mut [bool],
                         pending_out: &mut [u32],
                         cache: &mut FxHashMap<NodeId, FreqHandle>,
                         cache_gauges: &mut CacheGauges,
                         it_stats: &mut IterationStats,
                         sink: &mut dyn FnMut(TraceEvent)| {
            let mut stack: Vec<NodeId> = graph.direct_generalizations(from).to_vec();
            while let Some(y) = stack.pop() {
                if marked[y as usize] {
                    continue;
                }
                marked[y as usize] = true;
                if !processed[y as usize] {
                    it_stats.nodes_marked += 1;
                    sink(TraceEvent::Marked {
                        spec: graph.node(y).parts.clone(),
                        implied_by: graph.node(from).parts.clone(),
                    });
                }
                if !determined[y as usize] {
                    determined[y as usize] = true;
                    for &x in &in_adj[y as usize] {
                        pending_out[x as usize] -= 1;
                        if pending_out[x as usize] == 0 {
                            if let Some(f) = cache.remove(&x) {
                                cache_gauges.on_evict(&f);
                            }
                        }
                    }
                }
                stack.extend_from_slice(graph.direct_generalizations(y));
            }
        };

        while let Some(Reverse((height, first))) = queue.pop() {
            // Wave collection: with a pool, drain every equally-ranked
            // ready candidate so their checks can run concurrently.
            // Candidates of equal height share no lattice edges, so no
            // same-wave check can mark a sibling, change its plan, or
            // evict a cache entry it rolls up from — the wave's plans,
            // verdicts, and counters are exactly the serial engine's
            // (determinism contract, DESIGN.md §8). With threads == 1 a
            // wave is the single popped node: the serial loop verbatim.
            let mut wave: Vec<NodeId> = vec![first];
            if pool.is_some() {
                while let Some(&Reverse((h, id))) = queue.peek() {
                    if h != height {
                        break;
                    }
                    queue.pop();
                    if wave.last() != Some(&id) {
                        wave.push(id); // duplicate entries pop adjacently
                    }
                }
            }
            wave.retain(|&nd| !processed[nd as usize] && !marked[nd as usize]);
            for &nd in &wave {
                processed[nd as usize] = true;
            }

            // Evaluate: plan every node against the wave-start cache, then
            // check the wave on the pool. Scans inside a multi-node wave stay
            // serial — the parallelism is across nodes; a lone node gets the
            // row-parallel scan instead.
            let scan_threads = if wave.len() > 1 { 1 } else { cfg.threads };
            let plans = wave
                .iter()
                .map(|&nd| plan_freq(nd, cfg, &graph, &in_adj, &cache, &superroot_freq, store))
                .collect::<Result<Vec<_>, _>>()?;
            let check = |i: usize, plan: &FreqPlan<'_>| {
                eval_plan(&provider, cfg, &graph.node(wave[i]).parts, plan, scan_threads)
            };
            let results: Vec<Result<Checked, AlgoError>> = match &pool {
                Some(pool) if wave.len() > 1 => pool.parallel_map(&plans, check),
                _ => plans.iter().enumerate().map(|(i, plan)| check(i, plan)).collect(),
            };
            drop(plans);

            // Apply phase, strictly serial and in wave (ascending node id)
            // order — the same order the serial heap pops — so marking,
            // pruning, cache seeding, and eviction replay the serial
            // engine's state transitions exactly.
            for (&node, res) in wave.iter().zip(results) {
                let checked = res?;
                stats.tally(&mut it_stats, &checked);
                let Checked { freq, via, anonymous, .. } = checked;
                sink(TraceEvent::Checked { spec: graph.node(node).parts.clone(), via, anonymous });

                if anonymous {
                    mark_from(
                        node,
                        &mut marked,
                        &processed,
                        &mut determined,
                        &mut pending_out,
                        &mut cache,
                        &mut cache_gauges,
                        &mut it_stats,
                        sink,
                    );
                } else {
                    alive[node as usize] = false;
                    for &g in graph.direct_generalizations(node) {
                        if !processed[g as usize] && !marked[g as usize] {
                            queue.push(Reverse((graph.node(g).height(), g)));
                        }
                    }
                    // Only failing nodes' frequency sets seed rollups upward —
                    // anonymous nodes' generalizations are marked, not computed.
                    if cfg.rollup && pending_out[node as usize] > 0 {
                        cache_gauges.on_insert(&freq);
                        cache.insert(node, freq);
                    }
                }

                if !determined[node as usize] {
                    determined[node as usize] = true;
                    for &x in &in_adj[node as usize] {
                        pending_out[x as usize] -= 1;
                        if pending_out[x as usize] == 0 {
                            if let Some(f) = cache.remove(&x) {
                                cache_gauges.on_evict(&f);
                            }
                        }
                    }
                }
            }
        }

        it_stats.survivors = alive.iter().filter(|&&a| a).count();
        if i == n {
            final_alive = alive;
        } else {
            let gen_start = Instant::now();
            graph = generate_next(&graph, &alive, cfg.prune);
            stats.timings.candidate_gen += gen_start.elapsed();
        }
        cache_gauges.publish();
        sink(TraceEvent::IterationEnd { survivors: it_stats.survivors });
        iter_span.set_arg("checked", it_stats.nodes_checked as u64);
        iter_span.set_arg("marked", it_stats.nodes_marked as u64);
        iter_span.set_arg("survivors", it_stats.survivors as u64);
        it_stats.wall = iter_span.finish();
        stats.push_iteration(it_stats);
    }
    stats.timings.total = search_span.finish();

    let generalizations: Vec<Generalization> = final_alive
        .iter()
        .enumerate()
        .filter(|&(_, &a)| a)
        .map(|(id, _)| Generalization { levels: graph.node(id as NodeId).levels() })
        .collect();
    Ok(AnonymizationResult::new(qi, cfg.k, cfg.max_suppress, generalizations, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{exhaustive_truth, patients};
    use crate::trace::CheckSource;

    #[test]
    fn patients_2anonymous_sz() {
        // Example 3.1 / Figure 5(a): over ⟨Sex, Zipcode⟩ with k = 2 the
        // anonymous generalizations are ⟨S1,Z0⟩, ⟨S1,Z1⟩, ⟨S1,Z2⟩, ⟨S0,Z2⟩.
        let t = patients();
        let r = incognito(&t, &[1, 2], &Config::new(2)).unwrap();
        let got: Vec<Vec<u8>> = r.generalizations().iter().map(|g| g.levels.clone()).collect();
        assert_eq!(got, vec![vec![0, 2], vec![1, 0], vec![1, 1], vec![1, 2]]);
        assert_eq!(r.minimal_height(), Some(1));
    }

    #[test]
    fn patients_full_qi_matches_exhaustive_truth() {
        let t = patients();
        for k in [1, 2, 3, 6, 7] {
            let cfg = Config::new(k);
            let r = incognito(&t, &[0, 1, 2], &cfg).unwrap();
            let got: Vec<Vec<u8>> = r.generalizations().iter().map(|g| g.levels.clone()).collect();
            assert_eq!(got, exhaustive_truth(&t, &[0, 1, 2], &cfg), "k={k}");
        }
    }

    #[test]
    fn figure5a_search_narrative() {
        // The ⟨Sex, Zipcode⟩ iteration of Example 3.1: ⟨S0,Z0⟩ fails, its
        // generalizations ⟨S1,Z0⟩ and ⟨S0,Z1⟩ are checked via rollup;
        // ⟨S1,Z0⟩ passes (marking ⟨S1,Z1⟩, ⟨S1,Z2⟩); ⟨S0,Z1⟩ fails; ⟨S0,Z2⟩
        // passes. Exactly 4 checks and 2 marks in iteration 2.
        let t = patients();
        let (_r, events) = incognito_traced(&t, &[1, 2], &Config::new(2)).unwrap();
        let iter2_start = events
            .iter()
            .position(|e| matches!(e, TraceEvent::IterationStart { arity: 2, .. }))
            .unwrap();
        let iter2 = &events[iter2_start..];
        let checks: Vec<_> = iter2
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Checked { spec, anonymous, via } => {
                    Some((spec.clone(), *anonymous, *via))
                }
                _ => None,
            })
            .collect();
        assert_eq!(checks.len(), 4);
        assert_eq!(checks[0].0, vec![(1, 0), (2, 0)]);
        assert!(!checks[0].1);
        assert_eq!(checks[0].2, CheckSource::TableScan);
        // All later checks in the iteration derive from rollup.
        assert!(checks[1..].iter().all(|c| c.2 == CheckSource::Rollup));
        let verdicts: std::collections::HashMap<_, _> =
            checks.iter().map(|(s, a, _)| (s.clone(), *a)).collect();
        assert!(verdicts[&vec![(1, 1), (2, 0)]]);
        assert!(!verdicts[&vec![(1, 0), (2, 1)]]);
        assert!(verdicts[&vec![(1, 0), (2, 2)]]);
        let marks: Vec<_> = iter2
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Marked { spec, .. } => Some(spec.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(marks.len(), 2);
        assert!(marks.contains(&vec![(1, 1), (2, 1)]));
        assert!(marks.contains(&vec![(1, 1), (2, 2)]));
    }

    #[test]
    fn superroots_and_prune_variants_agree_with_basic() {
        let t = patients();
        let base = incognito(&t, &[0, 1, 2], &Config::new(2)).unwrap();
        for cfg in [
            Config::new(2).with_superroots(true),
            Config::new(2).with_prune(incognito_lattice::PruneStrategy::HashSet),
            Config::new(2).with_rollup(false),
            Config::new(2).with_superroots(true).with_rollup(false),
        ] {
            let r = incognito(&t, &[0, 1, 2], &cfg).unwrap();
            assert_eq!(r.generalizations(), base.generalizations(), "{cfg:?}");
        }
    }

    #[test]
    fn suppression_threshold_expands_the_result_set() {
        let t = patients();
        // Without suppression ⟨B0,S0,Z0⟩-adjacent nodes fail; allowing 2
        // outliers makes strictly more generalizations pass.
        let strict = incognito(&t, &[1, 2], &Config::new(2)).unwrap();
        let relaxed = incognito(&t, &[1, 2], &Config::new(2).with_suppression(2)).unwrap();
        assert!(relaxed.len() > strict.len());
        for g in strict.generalizations() {
            assert!(relaxed.contains(&g.levels));
        }
        // ⟨S0,Z0⟩ has two singleton groups — suppressible within budget 2.
        assert!(relaxed.contains(&[0, 0]));
        assert!(!strict.contains(&[0, 0]));
    }

    #[test]
    fn k1_accepts_everything() {
        let t = patients();
        let r = incognito(&t, &[1, 2], &Config::new(1)).unwrap();
        assert_eq!(r.len(), 6); // entire ⟨Sex, Zipcode⟩ lattice
                                // Only the roots are ever checked (S0 and Z0 in iteration 1,
                                // ⟨S0, Z0⟩ in iteration 2); everything above them is marked.
        assert_eq!(r.stats().nodes_checked(), 3);
        assert_eq!(r.stats().nodes_marked(), 3 + 5);
        assert_eq!(r.stats().table_scans, 3);
    }

    #[test]
    fn unsatisfiable_k_returns_empty() {
        let t = patients();
        let r = incognito(&t, &[0, 1, 2], &Config::new(7)).unwrap();
        assert!(r.is_empty()); // only 6 tuples exist
        let r6 = incognito(&t, &[0, 1, 2], &Config::new(6)).unwrap();
        assert_eq!(
            r6.generalizations().iter().map(|g| g.levels.clone()).collect::<Vec<_>>(),
            vec![vec![1, 1, 2]] // full suppression only
        );
    }

    #[test]
    fn single_attribute_qi() {
        let t = patients();
        let r = incognito(&t, &[2], &Config::new(2)).unwrap();
        // Zipcode alone: Z0 has singletons? Counts: 53715×1? rows:
        // 53715,53715,53703,53703,53706,53706 → Z0 counts (2,2,2) → 2-anon.
        assert!(r.contains(&[0]));
        assert_eq!(r.len(), 3);
        assert_eq!(r.stats().iterations.len(), 1);
    }

    #[test]
    fn qi_order_is_canonicalized() {
        let t = patients();
        let a = incognito(&t, &[2, 1, 0], &Config::new(2)).unwrap();
        let b = incognito(&t, &[0, 1, 2], &Config::new(2)).unwrap();
        assert_eq!(a.qi(), b.qi());
        assert_eq!(a.generalizations(), b.generalizations());
    }

    #[test]
    fn validation_errors() {
        let t = patients();
        assert!(matches!(
            incognito(&t, &[], &Config::new(2)),
            Err(AlgoError::EmptyQuasiIdentifier)
        ));
        assert!(matches!(
            incognito(&t, &[0, 0], &Config::new(2)),
            Err(AlgoError::DuplicateQiAttribute(0))
        ));
        assert!(matches!(incognito(&t, &[0], &Config::new(0)), Err(AlgoError::InvalidK(0))));
        assert!(matches!(incognito(&t, &[9], &Config::new(2)), Err(AlgoError::Table(_))));
    }

    #[test]
    fn materialize_minimal_view() {
        let t = patients();
        let r = incognito(&t, &[1, 2], &Config::new(2)).unwrap();
        let min = r.minimal_by_height()[0];
        assert_eq!(min.levels, vec![1, 0]);
        let (view, suppressed) = r.materialize(&t, min).unwrap();
        assert_eq!(suppressed, 0);
        assert_eq!(view.num_rows(), 6);
        assert_eq!(view.label(0, 1), "*"); // Sex generalized away
        assert_eq!(view.label(0, 2), "53715"); // Zipcode intact
        assert_eq!(view.label(0, 0), "1/21/76"); // non-QI Birthdate untouched
        assert_eq!(view.label(0, 3), "Flu"); // sensitive attribute untouched
    }
}
