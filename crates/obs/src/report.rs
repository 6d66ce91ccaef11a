//! Machine-readable run reports: the `BENCH_<name>.json` format.
//!
//! A [`RunReport`] is an ordered JSON object with a handful of typed
//! helpers (metrics snapshots, provenance) and a self-validating writer:
//! after serializing, the written text is re-parsed with this crate's own
//! JSON parser before it hits disk, so a malformed report is a hard error
//! at the producing site rather than a mystery downstream.

use std::io;
use std::path::Path;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use crate::json::Json;
use crate::metrics::{MetricValue, MetricsSnapshot};

/// Builder for one machine-readable run report.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    root: Json,
}

impl RunReport {
    /// A fresh report. `name` becomes the leading `"name"` field and, by
    /// convention, the `BENCH_<name>.json` file stem.
    pub fn new(name: &str) -> RunReport {
        let mut root = Json::obj();
        root.set("name", name);
        RunReport { root }
    }

    /// Set a top-level field (appends, or replaces an existing key).
    pub fn set(&mut self, key: &str, value: impl Into<Json>) -> &mut RunReport {
        self.root.set(key, value);
        self
    }

    /// Attach a metrics snapshot under `key` (see [`snapshot_to_json`]).
    pub fn set_metrics(&mut self, key: &str, snapshot: &MetricsSnapshot) -> &mut RunReport {
        self.root.set(key, snapshot_to_json(snapshot));
        self
    }

    /// Record provenance: report-format version, unix timestamp, and — when
    /// the binary runs inside a git checkout — `git describe`.
    pub fn set_provenance(&mut self, tool_version: &str) -> &mut RunReport {
        self.root.set("report_version", 1i64);
        self.root.set("tool_version", tool_version);
        self.root.set("unix_time", unix_timestamp());
        match git_describe() {
            Some(desc) => self.root.set("git", desc),
            None => self.root.set("git", Json::Null),
        };
        self
    }

    /// The report's name field.
    pub fn name(&self) -> &str {
        self.root.get("name").and_then(Json::as_str).unwrap_or("")
    }

    /// The report as a JSON value.
    pub fn to_json(&self) -> &Json {
        &self.root
    }

    /// Serialize pretty-printed, re-parse as a self-check, and write to
    /// `path` (creating parent directories). Returns the number of bytes
    /// written.
    pub fn write_to(&self, path: &Path) -> io::Result<usize> {
        let text = self.root.to_pretty_string();
        if let Err(e) = Json::parse(&text) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("report failed its own JSON round-trip: {e}"),
            ));
        }
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, &text)?;
        Ok(text.len())
    }
}

/// Render a snapshot as an ordered JSON object: counters and gauges
/// become integers under their own names; the timer of span `<name>`
/// becomes `<name>.time: {count, total_ns, mean_ns, max_ns, hist}`, where
/// `hist` lists the non-empty power-of-two buckets as
/// `[bit_length, count]` pairs.
pub fn snapshot_to_json(snapshot: &MetricsSnapshot) -> Json {
    let mut obj = Json::obj();
    for (name, value) in snapshot.iter() {
        match value {
            MetricValue::Counter(v) => {
                obj.set(name, *v);
            }
            MetricValue::Gauge(v) => {
                obj.set(name, *v);
            }
            MetricValue::Timer(t) => {
                let mut timer = Json::obj();
                timer.set("count", t.count);
                timer.set("total_ns", duration_ns(t.total));
                timer.set("mean_ns", duration_ns(t.mean()));
                timer.set("max_ns", duration_ns(t.max));
                let hist: Vec<Json> = t
                    .buckets
                    .iter()
                    .enumerate()
                    .filter(|&(_, &n)| n > 0)
                    .map(|(bit, &n)| Json::Arr(vec![Json::from(bit), Json::from(n)]))
                    .collect();
                timer.set("hist", Json::Arr(hist));
                obj.set(&format!("{name}.time"), timer);
            }
        }
    }
    obj
}

fn duration_ns(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

/// Seconds since the unix epoch (0 if the clock is before it).
pub fn unix_timestamp() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_secs()).unwrap_or(0)
}

/// `git describe --always --dirty`, or `None` when not in a checkout / git
/// is unavailable. Never fails — provenance is best-effort.
pub fn git_describe() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let desc = String::from_utf8(out.stdout).ok()?;
    let desc = desc.trim();
    if desc.is_empty() {
        None
    } else {
        Some(desc.to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    #[test]
    fn report_builds_in_insertion_order_and_round_trips() {
        let mut r = RunReport::new("fig09_datasets");
        r.set("dataset", "adults").set("k", 2u64).set("rows", 45_222usize);
        assert_eq!(r.name(), "fig09_datasets");
        let text = r.to_json().to_pretty_string();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.get("name").and_then(Json::as_str), Some("fig09_datasets"));
        assert_eq!(back.get("k").and_then(Json::as_int), Some(2));
        // Name stays the leading field.
        assert!(text.trim_start().starts_with("{\n  \"name\""));
    }

    #[test]
    fn snapshot_renders_counters_and_timers() {
        let reg = MetricsRegistry::new();
        reg.counter("table.scan.count").add(3);
        reg.timer("table.scan").record(Duration::from_micros(10));
        let j = snapshot_to_json(&reg.snapshot());
        assert_eq!(j.get("table.scan.count").and_then(Json::as_int), Some(3));
        let t = j.get("table.scan.time").unwrap();
        assert_eq!(t.get("count").and_then(Json::as_int), Some(1));
        assert_eq!(t.get("total_ns").and_then(Json::as_int), Some(10_000));
        assert_eq!(t.get("hist").and_then(Json::as_arr).unwrap().len(), 1);
    }

    #[test]
    fn write_to_emits_parseable_json() {
        let dir = std::env::temp_dir().join("incognito-obs-test");
        let path = dir.join("BENCH_unit.json");
        let mut r = RunReport::new("unit");
        r.set_provenance("0.0.0-test");
        let n = r.write_to(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.len(), n);
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed.get("report_version").and_then(Json::as_int), Some(1));
        assert!(parsed.get("unix_time").and_then(Json::as_int).is_some());
        std::fs::remove_file(&path).ok();
    }
}
