//! Named atomic counters and timers, and immutable snapshots of them.
//!
//! A [`MetricsRegistry`] is a lazily-populated map from metric name to an
//! atomic cell. Handles ([`CounterHandle`], [`TimerHandle`]) are cheap
//! `Arc` clones — look one up once and record against it lock-free; the
//! registry lock is only taken on first registration and on snapshot.
//!
//! Timers keep a count, a running total, a maximum, and a power-of-two
//! histogram of nanosecond durations (bucket `i` counts durations whose
//! bit length is `i`), which is enough to read tail behaviour out of a
//! `BENCH_*.json` without any external tooling.
//!
//! Gauges ([`GaugeHandle`]) are signed set/add cells for occupancy-style
//! metrics — cache entries, resident bytes — where the *current level*
//! matters, not a monotone total. `diff` keeps the later snapshot's value
//! for them, since occupancy is a point-in-time reading.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

/// Number of power-of-two histogram buckets. Bucket 47 holds durations of
/// roughly 2^46..2^47 ns (≈ 20–39 h), far beyond any run we time.
pub const TIMER_BUCKETS: usize = 48;

#[derive(Default)]
struct CounterCell {
    value: AtomicU64,
}

struct TimerCell {
    count: AtomicU64,
    total_nanos: AtomicU64,
    max_nanos: AtomicU64,
    buckets: [AtomicU64; TIMER_BUCKETS],
}

impl Default for TimerCell {
    fn default() -> Self {
        TimerCell {
            count: AtomicU64::new(0),
            total_nanos: AtomicU64::new(0),
            max_nanos: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A cheap, clonable handle onto one registered counter.
#[derive(Clone)]
pub struct CounterHandle {
    cell: Arc<CounterCell>,
}

impl CounterHandle {
    /// Add `v` to the counter.
    #[inline]
    pub fn add(&self, v: u64) {
        self.cell.value.fetch_add(v, Ordering::Relaxed);
    }

    /// Increment the counter by one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.value.load(Ordering::Relaxed)
    }
}

#[derive(Default)]
struct GaugeCell {
    value: AtomicI64,
}

/// A cheap, clonable handle onto one registered gauge.
#[derive(Clone)]
pub struct GaugeHandle {
    cell: Arc<GaugeCell>,
}

impl GaugeHandle {
    /// Set the gauge to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        self.cell.value.store(v, Ordering::Relaxed);
    }

    /// Add `v` (possibly negative) to the gauge.
    #[inline]
    pub fn add(&self, v: i64) {
        self.cell.value.fetch_add(v, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.cell.value.load(Ordering::Relaxed)
    }
}

/// A cheap, clonable handle onto one registered timer.
#[derive(Clone)]
pub struct TimerHandle {
    cell: Arc<TimerCell>,
}

impl TimerHandle {
    /// Record one observation.
    pub fn record(&self, d: Duration) {
        let nanos = d.as_nanos().min(u64::MAX as u128) as u64;
        self.cell.count.fetch_add(1, Ordering::Relaxed);
        self.cell.total_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.cell.max_nanos.fetch_max(nanos, Ordering::Relaxed);
        let bucket = (64 - nanos.leading_zeros() as usize).min(TIMER_BUCKETS - 1);
        self.cell.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }
}

enum Cell {
    Counter(Arc<CounterCell>),
    Gauge(Arc<GaugeCell>),
    Timer(Arc<TimerCell>),
}

impl Cell {
    fn kind(&self) -> &'static str {
        match self {
            Cell::Counter(_) => "counter",
            Cell::Gauge(_) => "gauge",
            Cell::Timer(_) => "timer",
        }
    }
}

/// A registry of named metrics. Create one per scope of interest, or use
/// the process-global one via [`crate::global`].
#[derive(Default)]
pub struct MetricsRegistry {
    cells: RwLock<BTreeMap<String, Cell>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Handle for the named counter, registering it on first use.
    ///
    /// Panics if `name` is already registered as a timer — metric names
    /// are typed, and mixing kinds under one name is an instrumentation
    /// bug worth failing loudly on.
    pub fn counter(&self, name: &str) -> CounterHandle {
        if let Some(cell) = self.cells.read().unwrap().get(name) {
            return match cell {
                Cell::Counter(c) => CounterHandle { cell: c.clone() },
                other => panic!("metric {name:?} is a {}, not a counter", other.kind()),
            };
        }
        let mut cells = self.cells.write().unwrap();
        let cell = cells
            .entry(name.to_owned())
            .or_insert_with(|| Cell::Counter(Arc::new(CounterCell::default())));
        match cell {
            Cell::Counter(c) => CounterHandle { cell: c.clone() },
            other => panic!("metric {name:?} is a {}, not a counter", other.kind()),
        }
    }

    /// Handle for the named gauge, registering it on first use. Panics if
    /// `name` is already registered as another kind.
    pub fn gauge(&self, name: &str) -> GaugeHandle {
        if let Some(cell) = self.cells.read().unwrap().get(name) {
            return match cell {
                Cell::Gauge(g) => GaugeHandle { cell: g.clone() },
                other => panic!("metric {name:?} is a {}, not a gauge", other.kind()),
            };
        }
        let mut cells = self.cells.write().unwrap();
        let cell = cells
            .entry(name.to_owned())
            .or_insert_with(|| Cell::Gauge(Arc::new(GaugeCell::default())));
        match cell {
            Cell::Gauge(g) => GaugeHandle { cell: g.clone() },
            other => panic!("metric {name:?} is a {}, not a gauge", other.kind()),
        }
    }

    /// Handle for the named timer, registering it on first use. Panics if
    /// `name` is already registered as a counter.
    pub fn timer(&self, name: &str) -> TimerHandle {
        if let Some(cell) = self.cells.read().unwrap().get(name) {
            return match cell {
                Cell::Timer(t) => TimerHandle { cell: t.clone() },
                other => panic!("metric {name:?} is a {}, not a timer", other.kind()),
            };
        }
        let mut cells = self.cells.write().unwrap();
        let cell = cells
            .entry(name.to_owned())
            .or_insert_with(|| Cell::Timer(Arc::new(TimerCell::default())));
        match cell {
            Cell::Timer(t) => TimerHandle { cell: t.clone() },
            other => panic!("metric {name:?} is a {}, not a timer", other.kind()),
        }
    }

    /// Immutable copy of every metric's current value.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let cells = self.cells.read().unwrap();
        let values = cells
            .iter()
            .map(|(name, cell)| {
                let value = match cell {
                    Cell::Counter(c) => MetricValue::Counter(c.value.load(Ordering::Relaxed)),
                    Cell::Gauge(g) => MetricValue::Gauge(g.value.load(Ordering::Relaxed)),
                    Cell::Timer(t) => MetricValue::Timer(TimerValue {
                        count: t.count.load(Ordering::Relaxed),
                        total: Duration::from_nanos(t.total_nanos.load(Ordering::Relaxed)),
                        max: Duration::from_nanos(t.max_nanos.load(Ordering::Relaxed)),
                        buckets: t.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
                    }),
                };
                (name.clone(), value)
            })
            .collect();
        MetricsSnapshot { values }
    }

    /// Zero every registered metric (handles stay valid).
    pub fn reset(&self) {
        let cells = self.cells.read().unwrap();
        for cell in cells.values() {
            match cell {
                Cell::Counter(c) => c.value.store(0, Ordering::Relaxed),
                Cell::Gauge(g) => g.value.store(0, Ordering::Relaxed),
                Cell::Timer(t) => {
                    t.count.store(0, Ordering::Relaxed);
                    t.total_nanos.store(0, Ordering::Relaxed);
                    t.max_nanos.store(0, Ordering::Relaxed);
                    for b in &t.buckets {
                        b.store(0, Ordering::Relaxed);
                    }
                }
            }
        }
    }
}

/// One timer's state at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TimerValue {
    /// Number of recorded observations.
    pub count: u64,
    /// Sum of all observations.
    pub total: Duration,
    /// Largest single observation.
    pub max: Duration,
    /// Power-of-two histogram over nanoseconds (see [`TIMER_BUCKETS`]).
    pub buckets: Vec<u64>,
}

impl TimerValue {
    /// Mean observation, or zero if none were recorded.
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            Duration::ZERO
        } else {
            self.total / self.count as u32
        }
    }
}

/// One metric's state at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// A monotonically increasing count.
    Counter(u64),
    /// A signed occupancy level (cache entries, resident bytes).
    Gauge(i64),
    /// A duration distribution.
    Timer(TimerValue),
}

/// An immutable, ordered copy of a registry's metrics.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    values: BTreeMap<String, MetricValue>,
}

impl MetricsSnapshot {
    /// Iterate metrics in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.values.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of metrics captured.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no metrics were captured.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The named counter's value, defaulting to 0 when absent. Panics if
    /// the name is registered as another kind.
    pub fn counter(&self, name: &str) -> u64 {
        match self.values.get(name) {
            None => 0,
            Some(MetricValue::Counter(v)) => *v,
            Some(_) => panic!("metric {name:?} is not a counter"),
        }
    }

    /// The named gauge's level, defaulting to 0 when absent. Panics if the
    /// name is registered as another kind.
    pub fn gauge(&self, name: &str) -> i64 {
        match self.values.get(name) {
            None => 0,
            Some(MetricValue::Gauge(v)) => *v,
            Some(_) => panic!("metric {name:?} is not a gauge"),
        }
    }

    /// The named timer's value, defaulting to an empty distribution when
    /// absent. Panics if the name is registered as a counter.
    pub fn timer(&self, name: &str) -> TimerValue {
        match self.values.get(name) {
            None => TimerValue::default(),
            Some(MetricValue::Timer(t)) => t.clone(),
            Some(_) => panic!("metric {name:?} is not a timer"),
        }
    }

    /// `self - earlier`, per metric. Counters and timer counts/totals
    /// subtract (saturating); a timer's `max` is not differentiable and a
    /// gauge is a point-in-time level, so the later snapshot's value is
    /// kept for both. Metrics absent from `earlier` pass through
    /// unchanged.
    pub fn diff(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let values = self
            .values
            .iter()
            .map(|(name, v)| {
                let dv = match (v, earlier.values.get(name)) {
                    (MetricValue::Counter(a), Some(MetricValue::Counter(b))) => {
                        MetricValue::Counter(a.saturating_sub(*b))
                    }
                    (MetricValue::Timer(a), Some(MetricValue::Timer(b))) => {
                        MetricValue::Timer(TimerValue {
                            count: a.count.saturating_sub(b.count),
                            total: a.total.saturating_sub(b.total),
                            max: a.max,
                            buckets: a
                                .buckets
                                .iter()
                                .zip(b.buckets.iter().chain(std::iter::repeat(&0)))
                                .map(|(x, y)| x.saturating_sub(*y))
                                .collect(),
                        })
                    }
                    (v, _) => v.clone(),
                };
                (name.clone(), dv)
            })
            .collect();
        MetricsSnapshot { values }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("scans");
        c.add(3);
        c.incr();
        reg.counter("scans").add(6); // same cell via re-lookup
        assert_eq!(c.get(), 10);
        assert_eq!(reg.snapshot().counter("scans"), 10);
        assert_eq!(reg.snapshot().counter("absent"), 0);
    }

    #[test]
    fn timers_track_count_total_max_and_buckets() {
        let reg = MetricsRegistry::new();
        let t = reg.timer("scan_time");
        t.record(Duration::from_nanos(100)); // bit length 7
        t.record(Duration::from_nanos(1000)); // bit length 10
        let v = reg.snapshot().timer("scan_time");
        assert_eq!(v.count, 2);
        assert_eq!(v.total, Duration::from_nanos(1100));
        assert_eq!(v.max, Duration::from_nanos(1000));
        assert_eq!(v.mean(), Duration::from_nanos(550));
        assert_eq!(v.buckets[7], 1);
        assert_eq!(v.buckets[10], 1);
        assert_eq!(v.buckets.iter().sum::<u64>(), 2);
    }

    #[test]
    fn diff_subtracts_counters_and_timer_totals() {
        let reg = MetricsRegistry::new();
        reg.counter("a").add(2);
        reg.timer("t").record(Duration::from_micros(5));
        let early = reg.snapshot();
        reg.counter("a").add(5);
        reg.counter("b").add(1);
        reg.timer("t").record(Duration::from_micros(7));
        let late = reg.snapshot();

        let d = late.diff(&early);
        assert_eq!(d.counter("a"), 5);
        assert_eq!(d.counter("b"), 1);
        let t = d.timer("t");
        assert_eq!(t.count, 1);
        assert_eq!(t.total, Duration::from_micros(7));
        assert_eq!(t.buckets.iter().sum::<u64>(), 1);
    }

    #[test]
    fn reset_zeroes_without_invalidating_handles() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("n");
        c.add(9);
        reg.reset();
        assert_eq!(reg.snapshot().counter("n"), 0);
        c.add(1);
        assert_eq!(reg.snapshot().counter("n"), 1);
    }

    #[test]
    fn gauges_set_add_and_keep_later_value_in_diff() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("cache.entries");
        g.set(10);
        g.add(5);
        g.add(-3);
        assert_eq!(g.get(), 12);
        let early = reg.snapshot();
        assert_eq!(early.gauge("cache.entries"), 12);
        assert_eq!(early.gauge("absent"), 0);
        g.set(7);
        let late = reg.snapshot();
        // Occupancy is point-in-time: diff keeps the later level.
        assert_eq!(late.diff(&early).gauge("cache.entries"), 7);
        reg.reset();
        assert_eq!(reg.snapshot().gauge("cache.entries"), 0);
    }

    #[test]
    #[should_panic(expected = "is a timer")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.timer("x");
        reg.counter("x");
    }

    #[test]
    #[should_panic(expected = "is a gauge")]
    fn gauge_counter_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.gauge("y");
        reg.counter("y");
    }
}
