#!/usr/bin/env sh
# Regenerate the Figure-9 bench report plus its trace and validate both,
# then check that everything under results/ is documented.
#
# Usage: scripts/bench_report.sh [--thread-sweep] [extra bin args...]
#        scripts/bench_report.sh -h | --help   (print this and exit)
# e.g.   scripts/bench_report.sh --quick
#        scripts/bench_report.sh --quick --thread-sweep
#        scripts/bench_report.sh --rows-adults 5000 --rows-landsend 20000
#
# --thread-sweep additionally reruns the bin at 1/2/4/8 worker threads
# and snapshots each report to results/BENCH_fig09_datasets_t<N>.json —
# the thread-scaling evidence behind the EXPERIMENTS.md table.
#
# The report writer re-parses everything it serializes before committing
# the file, so existence already implies well-formedness; this script
# additionally checks the files from the outside (python3 when
# available) and asserts the fields the acceptance criteria name.

set -eu

# -h / --help prints the usage block above, before anything is built or
# any file under results/ is touched.
for a in "$@"; do
  case "$a" in
    -h | --help)
      sed -n '2,/^$/s/^# \{0,1\}//p' "$0"
      exit 0
      ;;
  esac
done

cd "$(dirname "$0")/.."

# Pull --thread-sweep out of the pass-through args.
sweep=0
i=0
n=$#
while [ "$i" -lt "$n" ]; do
  a=$1
  shift
  if [ "$a" = "--thread-sweep" ]; then sweep=1; else set -- "$@" "$a"; fi
  i=$((i + 1))
done

# All args (including --quick, which trims the Lands End row count)
# pass straight through to the bin; --trace is always added.
cargo run --release -p incognito-bench --bin fig09_datasets -- "$@" \
  --trace results/TRACE_fig09_datasets.json

report="results/BENCH_fig09_datasets.json"
trace="results/TRACE_fig09_datasets.json"
[ -f "$report" ] || { echo "FAIL: $report was not written" >&2; exit 1; }
[ -f "$trace" ] || { echo "FAIL: $trace was not written" >&2; exit 1; }

if command -v python3 >/dev/null 2>&1; then
  python3 - "$report" "$trace" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
runs = doc["runs"]
assert runs, "report has no runs"
for run in runs:
    assert run["iterations"], f"run {run['label']!r} has no iterations"
    for it in run["iterations"]:
        assert "wall_secs" in it, "iteration missing wall-clock"
    for key in ("nodes_checked", "freq_from_scan", "freq_from_rollup"):
        assert key in run["stats"], f"stats missing {key}"
    assert run["metrics"].get("table.scan.count", 0) > 0, "engine counters absent"
print(f"OK: {sys.argv[1]} valid ({len(runs)} runs)")

with open(sys.argv[2]) as f:
    tdoc = json.load(f)
events = tdoc["traceEvents"]
assert events, "trace has no events"
names = set()
counter_tracks = set()
for e in events:
    assert e["ph"] in ("X", "C"), f"unexpected phase {e['ph']!r}"
    assert e["ts"] >= 0, "negative timestamp"
    if e["ph"] == "X":
        assert e["dur"] >= 0, "negative duration"
        names.add(e["name"])
    else:
        counter_tracks.add(e["name"])
for required in ("search", "iteration", "check", "table.scan"):
    assert required in names, f"trace lacks {required!r} spans"
assert "mem.live_bytes" in counter_tracks, "trace lacks the live-bytes counter track"
print(f"OK: {sys.argv[2]} valid ({len(events)} events, counter tracks: {sorted(counter_tracks)})")
PY
else
  # Minimal fallback: the files are non-empty and mention required keys.
  for key in '"runs"' '"iterations"' '"wall_secs"' '"table.scan.count"'; do
    grep -q "$key" "$report" || { echo "FAIL: $report lacks $key" >&2; exit 1; }
  done
  for key in '"traceEvents"' '"ph": "X"' '"iteration"' '"table.scan"'; do
    grep -q "$key" "$trace" || { echo "FAIL: $trace lacks $key" >&2; exit 1; }
  done
  echo "OK: $report and $trace present with required fields (python3 unavailable; grep check)"
fi

# Thread sweep: rerun at 1/2/4/8 workers, snapshotting each report. The
# sweep's thread count is prepended so it wins over any --threads in the
# pass-through args; the serial (t1) report also becomes the main
# artifact so committed counters stay serial.
if [ "$sweep" -eq 1 ]; then
  for t in 1 2 4 8; do
    cargo run --release -p incognito-bench --bin fig09_datasets -- \
      --threads "$t" "$@"
    cp "$report" "results/BENCH_fig09_datasets_t${t}.json"
    echo "OK: thread sweep t=$t -> results/BENCH_fig09_datasets_t${t}.json"
  done
  cp results/BENCH_fig09_datasets_t1.json "$report"
fi

# Memory accounting: every report under results/ (and the committed
# baseline) must carry the tracking allocator's numbers — a top-level
# process summary plus per-run peaks and allocation counts.
if command -v python3 >/dev/null 2>&1; then
  for f in results/BENCH_*.json results/baseline/BENCH_*.json; do
    [ -e "$f" ] || continue
    python3 - "$f" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
mem = doc.get("memory")
assert mem, "report has no top-level memory section"
assert mem["peak_live_bytes"] > 0, "zero process peak"
for run in doc["runs"]:
    m = run.get("memory")
    assert m, f"run {run['label']!r} has no memory section"
    assert m["peak_live_bytes"] > 0, f"run {run['label']!r} has zero peak"
    assert m["allocs"] > 0, f"run {run['label']!r} has zero allocs"
print(f"OK: {sys.argv[1]} memory sections valid")
PY
  done
else
  for f in results/BENCH_*.json results/baseline/BENCH_*.json; do
    [ -e "$f" ] || continue
    grep -q '"peak_live_bytes"' "$f" || {
      echo "FAIL: $f lacks memory accounting" >&2
      exit 1
    }
  done
  echo "OK: memory sections present (python3 unavailable; grep check)"
fi

# Spill accounting: every freshly generated report must carry the
# out-of-core section (the `table.spill.*` gauges) so budgeted and
# unbudgeted runs are distinguishable. Scoped to results/BENCH_*.json —
# the committed baseline predates the section and the gate only compares
# metrics present on both sides.
if command -v python3 >/dev/null 2>&1; then
  for f in results/BENCH_*.json; do
    [ -e "$f" ] || continue
    python3 - "$f" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
spill = doc.get("spill")
assert spill is not None, "report has no top-level spill section"
for key in ("spilled_sets", "partitions", "bytes", "upgrades"):
    assert key in spill, f"spill section missing {key!r}"
    assert spill[key] >= 0, f"negative spill gauge {key!r}"
if spill["spilled_sets"] > 0:
    assert spill["partitions"] > 0, "spilled sets but no partitions"
    assert spill["bytes"] > 0, "spilled sets but no bytes"
print(f"OK: {sys.argv[1]} spill section valid")
PY
  done
else
  for f in results/BENCH_*.json; do
    [ -e "$f" ] || continue
    grep -q '"spill"' "$f" || {
      echo "FAIL: $f lacks the spill section" >&2
      exit 1
    }
  done
  echo "OK: spill sections present (python3 unavailable; grep check)"
fi

# Inventory: every output under results/ must be documented in
# results/README.md — undocumented artifacts are a doc bug.
status=0
for f in results/*; do
  name=$(basename "$f")
  [ "$name" = "README.md" ] && continue
  [ "$name" = "baseline" ] && continue
  grep -q "$name" results/README.md || {
    echo "FAIL: results/$name is not documented in results/README.md" >&2
    status=1
  }
done
for f in results/baseline/*; do
  [ -e "$f" ] || continue
  name=$(basename "$f")
  grep -q "baseline/$name" results/README.md || {
    echo "FAIL: results/baseline/$name is not documented in results/README.md" >&2
    status=1
  }
done
[ "$status" -eq 0 ] && echo "OK: results/ inventory matches results/README.md"
exit "$status"
