#!/usr/bin/env bash
# Pre-merge smoke gate: lint, tier-1 tests, the scenario catalog, two
# paper experiment commands at toy horizons, a 2-worker mini-sweep,
# one-line user errors on a file that is not a store, a sharded sweep +
# merge and a 2-worker run that must export byte-identically to the
# unsharded run, and the service.
#
# Usage: bash scripts/smoke.sh
#
# Designed to fail fast in non-interactive CI shells: no reliance on a
# pre-activated venv (set PYTHON to pick an interpreter explicitly),
# every stage runs under `set -euo pipefail`, and optional tooling
# (ruff) is detected rather than assumed.  Set SMOKE_SKIP_TESTS=1 when
# the tier-1 suite already ran in a separate CI step.
#
# The mini-sweep exercises the full orchestration path (spec expansion,
# process-parallel execution, SQLite result store) end to end: it runs
# the same grid cold, then warm, and the warm pass must execute zero
# cells (true resume).  Set SMOKE_STORE_DIR to keep the store directory
# after the run (CI uploads its results.sqlite as an artifact);
# otherwise a temp directory is used and cleaned up.

set -euo pipefail
cd "$(dirname "$0")/.."

if [[ -z "${PYTHON:-}" ]]; then
    if command -v python3 >/dev/null 2>&1; then
        PYTHON=python3
    elif command -v python >/dev/null 2>&1; then
        PYTHON=python
    else
        echo "smoke FAILED: no python interpreter on PATH" >&2
        exit 1
    fi
fi

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== lint (ruff) =="
if command -v ruff >/dev/null 2>&1; then
    ruff check .
else
    echo "ruff not installed; skipping lint (CI installs it via .[dev])"
fi

if [[ "${SMOKE_SKIP_TESTS:-0}" != "1" ]]; then
    echo
    echo "== tier-1 tests =="
    "$PYTHON" -m pytest -x -q
fi

echo
echo "== scenario catalog =="
"$PYTHON" -m repro scenarios list
"$PYTHON" -m repro sweep --scenario surge-4x4 --duration 120

echo
echo "== paper experiment commands (one shared dispatcher) =="
TABLE3=$("$PYTHON" -m repro table3 --engine meso --scale 0.02)
echo "$TABLE3"
echo "$TABLE3" | grep -q "Table III" \
    || { echo "smoke FAILED: repro table3 printed no Table III"; exit 1; }
ABLATION=$("$PYTHON" -m repro ablations alpha-beta-order --duration 60)
echo "$ABLATION"
echo "$ABLATION" | grep -q "Ablation: alpha-beta-order" \
    || { echo "smoke FAILED: repro ablations printed no study table"; exit 1; }

echo
echo "== 2-worker mini-sweep (cold, then warm from the result store) =="
if [[ -n "${SMOKE_STORE_DIR:-}" ]]; then
    CACHE_DIR="$SMOKE_STORE_DIR"
    mkdir -p "$CACHE_DIR"
    KEEP_STORE=1
else
    CACHE_DIR="$(mktemp -d)"
    KEEP_STORE=0
fi
STORE="$CACHE_DIR/results.sqlite"
SERVE_PID=""
cleanup() {
    [[ -n "$SERVE_PID" ]] && kill "$SERVE_PID" 2>/dev/null || true
    [[ "$KEEP_STORE" == "0" ]] && rm -rf "$CACHE_DIR" || true
}
trap cleanup EXIT

"$PYTHON" -m repro sweep \
    --patterns I II \
    --controllers util-bp cap-bp:period=18 \
    --duration 300 --workers 2 --store "$STORE"

WARM=$("$PYTHON" -m repro sweep \
    --patterns I II \
    --controllers util-bp cap-bp:period=18 \
    --duration 300 --workers 2 --store "$STORE")
echo "$WARM"
echo "$WARM" | grep -q "executed 0," \
    || { echo "smoke FAILED: warm-store sweep re-executed cells"; exit 1; }

[[ -f "$STORE" ]] \
    || { echo "smoke FAILED: sweep left no store at $STORE"; exit 1; }

echo
echo "== result store inspection =="
"$PYTHON" -m repro results list --store "$STORE"
"$PYTHON" -m repro results export --store "$STORE" --format csv | head -n 3

echo
echo "== user errors (a file that is not a store: one line, exit 2) =="
# A user error is a ReproError: every command must report it as one
# stderr line and exit 2, never as a traceback.
NOT_A_STORE="$CACHE_DIR/not-a-store.sqlite"
echo "this is not a SQLite store" > "$NOT_A_STORE"
for COMMAND in "results list" "results export" "analyze changepoints" \
        "sweep --patterns I --duration 10"; do
    CODE=0
    # shellcheck disable=SC2086  # COMMAND is split into its words
    "$PYTHON" -m repro $COMMAND --store "$NOT_A_STORE" \
        > /dev/null 2> "$CACHE_DIR/error.txt" || CODE=$?
    cat "$CACHE_DIR/error.txt"
    [[ "$CODE" == "2" ]] \
        || { echo "smoke FAILED: repro $COMMAND exited $CODE (want 2)"; exit 1; }
    LINES=$(wc -l < "$CACHE_DIR/error.txt")
    [[ "$LINES" == "1" ]] \
        || { echo "smoke FAILED: repro $COMMAND printed $LINES stderr lines (want 1)"; exit 1; }
    ! grep -q Traceback "$CACHE_DIR/error.txt" \
        || { echo "smoke FAILED: repro $COMMAND printed a traceback"; exit 1; }
done

echo
echo "== sharded sweep (2 shards + merge == 2 workers == unsharded run, bit for bit) =="
# The same 4-cell grid runs three ways: serially into one store, as
# two deterministic --shard halves merged by spec hash (the multi-host
# path), and on 2 pool workers (the one-host path).  All three stores
# must export byte-identically — execution strategy must leave no
# trace in the results — and a resume against the merged store must
# compute nothing.
SHARD_ARGS=(--patterns I --controllers util-bp --seeds 1 2 3 4 --duration 120)
"$PYTHON" -m repro sweep "${SHARD_ARGS[@]}" --store "$CACHE_DIR/whole.sqlite"
"$PYTHON" -m repro sweep "${SHARD_ARGS[@]}" --shard 0/2 \
    --store "$CACHE_DIR/shard-0.sqlite"
"$PYTHON" -m repro sweep "${SHARD_ARGS[@]}" --shard 1/2 \
    --store "$CACHE_DIR/shard-1.sqlite"
"$PYTHON" -m repro results merge "$CACHE_DIR/sharded.sqlite" \
    "$CACHE_DIR/shard-0.sqlite" "$CACHE_DIR/shard-1.sqlite"
"$PYTHON" -m repro results export --store "$CACHE_DIR/whole.sqlite" \
    --format csv > "$CACHE_DIR/whole.csv"
"$PYTHON" -m repro results export --store "$CACHE_DIR/sharded.sqlite" \
    --format csv > "$CACHE_DIR/sharded.csv"
cmp "$CACHE_DIR/whole.csv" "$CACHE_DIR/sharded.csv" \
    || { echo "smoke FAILED: sharded+merged export differs from the unsharded run"; exit 1; }
RESUME=$("$PYTHON" -m repro sweep "${SHARD_ARGS[@]}" \
    --store "$CACHE_DIR/sharded.sqlite")
echo "$RESUME"
echo "$RESUME" | grep -q "executed 0," \
    || { echo "smoke FAILED: resume after merge re-executed cells"; exit 1; }

PARALLEL=$("$PYTHON" -m repro sweep "${SHARD_ARGS[@]}" --workers 2 \
    --store "$CACHE_DIR/parallel.sqlite")
echo "$PARALLEL"
echo "$PARALLEL" | grep -q "executed 4, cache hits 0, workers 2" \
    || { echo "smoke FAILED: 2-worker sweep did not execute its 4 cells"; exit 1; }
"$PYTHON" -m repro results export --store "$CACHE_DIR/parallel.sqlite" \
    --format csv > "$CACHE_DIR/parallel.csv"
cmp "$CACHE_DIR/whole.csv" "$CACHE_DIR/parallel.csv" \
    || { echo "smoke FAILED: 2-worker export differs from the unsharded run"; exit 1; }

echo
echo "== batched meso-vec sweep (seed fan-out through the pool) =="
# Two seeds of one scenario on the batch engine run as ONE batched
# simulation; the store must still end up with one row per seed (cache
# keys are per spec, so batch execution stays resumable cell by cell).
"$PYTHON" -m repro sweep \
    --scenario steady-4x4 --engine meso-vec \
    --seeds 1 2 --duration 300 --store "$STORE"

VEC_ROWS=$("$PYTHON" - "$STORE" <<'EOF'
import sys

from repro.results import ResultStore

store = ResultStore(sys.argv[1])
rows = store.query(engine="meso-vec", pattern="steady-4x4")
print(len(rows))
seeds = sorted(record.spec.seed for record in rows)
assert seeds == [1, 2], f"expected one row per seed, got seeds {seeds}"
for record in rows:
    assert record.summary.delay_mode == "aggregate", record.summary
EOF
)
[[ "$VEC_ROWS" == "2" ]] \
    || { echo "smoke FAILED: meso-vec sweep left $VEC_ROWS rows (want 2)"; exit 1; }

echo
echo "== event-driven engine (meso-events sweep + parity spot-check) =="
# One sweep cell on the calendar-queue engine, then replay the same
# cell serially on meso-counts: the stored summary must match exactly
# (the event engine's contract is bit-identical trajectories, not
# statistical agreement).
"$PYTHON" -m repro sweep \
    --scenario steady-4x4 --engine meso-events \
    --seeds 3 --duration 300 --store "$STORE"
"$PYTHON" - "$STORE" <<'EOF'
import sys

from repro.results import ResultStore
from repro.experiments.runner import run_scenario
from repro.scenarios import build_named_scenario

store = ResultStore(sys.argv[1])
[record] = store.query(engine="meso-events", pattern="steady-4x4")
assert record.summary.delay_mode == "aggregate", record.summary
reference = run_scenario(
    build_named_scenario("steady-4x4", seed=record.spec.seed),
    controller=record.spec.controller,
    controller_params=dict(record.spec.controller_params),
    duration=record.spec.duration,
    engine="meso-counts",
)
assert record.summary == reference.summary, (
    f"meso-events summary diverged from meso-counts:\n"
    f"  events: {record.summary}\n  counts: {reference.summary}"
)
print("meso-events sweep cell == serial meso-counts replay")
EOF

echo
echo "== simulation service (serve + submit over the shared store) =="
# Boot the service on a random port against the store the sweeps just
# filled.  A cell the sweeps already computed must be served from the
# store without simulating; a fresh cell submitted twice must trigger
# exactly one engine execution (the second submission shares the
# first's in-flight/completed cell).
SERVE_PORT=$((20000 + RANDOM % 20000))
SERVE_URL="http://127.0.0.1:$SERVE_PORT"
SERVE_LOG="$CACHE_DIR/serve.log"
"$PYTHON" -m repro serve --store "$STORE" --port "$SERVE_PORT" 2> "$SERVE_LOG" &
SERVE_PID=$!

for _ in $(seq 1 50); do
    if "$PYTHON" -c "import urllib.request as u; u.urlopen('$SERVE_URL/healthz', timeout=1)" 2>/dev/null; then
        break
    fi
    kill -0 "$SERVE_PID" 2>/dev/null \
        || { echo "smoke FAILED: repro serve died at startup"; cat "$SERVE_LOG" >&2; exit 1; }
    sleep 0.2
done

# 1. A cell the meso-vec sweep already stored: instant store hit.
HIT=$("$PYTHON" -m repro submit --url "$SERVE_URL" \
    --scenario steady-4x4 --engine meso-vec --seeds 1 \
    --duration 300 --wait 60)
echo "$HIT"
echo "$HIT" | grep -q "(1 from store, 0 executed" \
    || { echo "smoke FAILED: warm cell was not served from the store"; cat "$SERVE_LOG" >&2; exit 1; }

# 2. A fresh cell submitted twice: one execution, the repeat is instant.
FIRST=$("$PYTHON" -m repro submit --url "$SERVE_URL" \
    --scenario steady-4x4 --engine meso-vec --seeds 9 \
    --duration 300 --wait 120)
echo "$FIRST"
echo "$FIRST" | grep -q "(0 from store, 1 executed" \
    || { echo "smoke FAILED: fresh cell was not executed"; cat "$SERVE_LOG" >&2; exit 1; }
SECOND=$("$PYTHON" -m repro submit --url "$SERVE_URL" \
    --scenario steady-4x4 --engine meso-vec --seeds 9 \
    --duration 300 --wait 60)
echo "$SECOND"
echo "$SECOND" | grep -q "1 shared with earlier jobs" \
    || { echo "smoke FAILED: repeat submission did not share the cell"; cat "$SERVE_LOG" >&2; exit 1; }

# The service's pool must have executed exactly one cell in total.
"$PYTHON" - "$SERVE_URL" <<'EOF'
import json
import sys
import urllib.request

with urllib.request.urlopen(sys.argv[1] + "/healthz", timeout=5) as response:
    stats = json.load(response)["stats"]
assert stats["executed"] == 1, f"expected exactly 1 execution, got {stats}"
assert stats["cache_hits"] == 1, f"expected 1 store hit, got {stats}"
print(f"service stats: {stats}")
EOF

# Every service log line must be structured JSON.
"$PYTHON" - "$SERVE_LOG" <<'EOF'
import json
import sys

lines = [line for line in open(sys.argv[1]) if line.strip()]
assert lines, "service wrote no log lines"
for line in lines:
    record = json.loads(line)
    assert {"ts", "level", "component", "event"} <= set(record), record
print(f"service log: {len(lines)} structured JSON lines")
EOF

kill "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""

echo
echo "== regime-shift analysis (gridlock breakdown vs steady stable) =="
# A tiny gridlock-vs-steady pair with entry-queue recording on, run as
# two --shard halves merged by spec hash so the analyzer consumes a
# *merged* store; the CUSUM analyzer must flag the overloaded family
# as a breakdown with a finite onset and call the steady family
# stable, and the CSV export must round-trip the same verdicts.
ANALYZE_STORE="$CACHE_DIR/analyze.sqlite"
for INDEX in 0 1; do
    "$PYTHON" -m repro sweep \
        --scenario gridlock-3x3 steady-3x3 --engine meso-counts \
        --seeds 1 2 --duration 900 --record-entry-queues -1 \
        --shard "$INDEX/2" --store "$CACHE_DIR/analyze-$INDEX.sqlite" >/dev/null
done
"$PYTHON" -m repro results merge "$ANALYZE_STORE" \
    "$CACHE_DIR/analyze-0.sqlite" "$CACHE_DIR/analyze-1.sqlite"
ANALYSIS=$("$PYTHON" -m repro analyze changepoints --store "$ANALYZE_STORE")
echo "$ANALYSIS"
echo "$ANALYSIS" | grep -E "gridlock-3x3.*breakdown@[0-9]+s" >/dev/null \
    || { echo "smoke FAILED: gridlock cell was not flagged as a breakdown"; exit 1; }
echo "$ANALYSIS" | grep -E "steady-3x3.*\| stable" >/dev/null \
    || { echo "smoke FAILED: steady cell was not judged stable"; exit 1; }
"$PYTHON" -m repro analyze changepoints --store "$ANALYZE_STORE" \
    --format csv --output "$CACHE_DIR/verdicts.csv"
"$PYTHON" - "$CACHE_DIR/verdicts.csv" <<'EOF'
import csv
import sys

with open(sys.argv[1], newline="") as handle:
    rows = list(csv.DictReader(handle))
by_pattern = {row["pattern"]: row for row in rows}
gridlock = by_pattern["gridlock-3x3"]
steady = by_pattern["steady-3x3"]
assert gridlock["status"] == "breakdown", gridlock
assert float(gridlock["onset"]) > 0, gridlock
assert float(gridlock["onset_lo"]) <= float(gridlock["onset_hi"]), gridlock
assert steady["status"] == "stable", steady
print(f"verdict CSV round-trip: {len(rows)} rows, "
      f"gridlock breakdown@{float(gridlock['onset']):.0f}s, steady stable")
EOF

echo
echo "smoke OK"
