#!/usr/bin/env bash
# Benchmark regression gate for the storage layer: bench/bench_storage
# (Figure 8 workload) must load a .dsa arena via mmap at least 10x faster
# than parsing the same corpus from SPMF (DISC_PERF_FLOOR_STORAGE), and must
# not regress >10% against the committed BENCH_storage.json baseline ratio.
# End-to-end mining speed is measured by perfbench/run.py, not here
# (docs/BENCHMARKS.md).
#
# Override the env knobs for noisy machines. A failing full run is retried
# up to twice before the gate reports failure: load ratios wobble a few
# percent across processes (ASLR / page-cache effects, bursty co-tenant
# load), and retries only mask flakes — a real regression fails every
# attempt. DISC_PERF_REPS (default 7) sets the interleaved best-of-N reps
# per side; raise it on very noisy machines.
#
#   $ tools/check_perf.sh                    # full run, gate vs baseline
#   $ tools/check_perf.sh --smoke            # tiny workloads, no gating
#   $ tools/check_perf.sh --update           # refresh the committed baseline
#   $ tools/check_perf.sh --build-dir DIR    # default: build
#
# See docs/BENCHMARKS.md for the baseline-refresh workflow.
set -euo pipefail

cd "$(dirname "$0")/.."

# Both the smoke and full paths extract ratios with jq; bail out with an
# actionable message before building anything or touching the baseline.
if ! command -v jq >/dev/null 2>&1; then
  echo "check_perf.sh: jq is required to extract speedups from the bench" \
       "JSON; install it (e.g. 'apt install jq' / 'brew install jq') and" \
       "re-run" >&2
  exit 2
fi

BUILD_DIR=build
SMOKE=0
UPDATE=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --smoke) SMOKE=1 ;;
    --update) UPDATE=1 ;;
    --build-dir) BUILD_DIR="$2"; shift ;;
    --build-dir=*) BUILD_DIR="${1#*=}" ;;
    *) echo "check_perf.sh: unknown argument: $1" >&2; exit 2 ;;
  esac
  shift
done

STORAGE_BIN="$BUILD_DIR/bench/bench_storage"
if [[ ! -x "$STORAGE_BIN" ]]; then
  cmake -B "$BUILD_DIR" -S . >/dev/null
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target bench_storage
fi

STORAGE_BASELINE=BENCH_storage.json
STORAGE_OUT="$BUILD_DIR/BENCH_storage.json"

# parse-over-mmap wall-time ratio of a bench_storage report.
storage_speedup() {
  jq -r '
    ([.runs[] | select(.miner == "storage.parse")] | last | .wall_seconds) /
    ([.runs[] | select(.miner == "storage.mmap")] | last | .wall_seconds)' "$1"
}

# Asserts every named run is in a bench report with a positive wall time.
expect_runs() {
  local report="$1"
  shift
  for run in "$@"; do
    jq -e --arg m "$run" \
      '.runs[] | select(.miner == $m) | .wall_seconds > 0' "$report" \
      >/dev/null \
      || { echo "check_perf.sh: smoke run missing $run in $report" >&2
           exit 1; }
  done
}

if [[ "$SMOKE" == 1 ]]; then
  # Tiny workload: asserts the bench pipeline runs end to end (binary,
  # JSON report, run extraction) without gating the ratio — it is pure
  # noise at this size. The binary gates byte-identity itself.
  "$STORAGE_BIN" --ncust=300 --reps=2 --workdir="$BUILD_DIR" \
    --json-out="$STORAGE_OUT" >/dev/null
  expect_runs "$STORAGE_OUT" storage.parse storage.mmap
  echo "perf gate smoke: ok ($STORAGE_OUT)"
  exit 0
fi

FLOOR_STORAGE="${DISC_PERF_FLOOR_STORAGE:-10}"
REPS="${DISC_PERF_REPS:-7}"

if [[ "$UPDATE" == 1 ]]; then
  # The baseline file commits alongside the code it measures; refreshing it
  # from an uncommitted tree would stamp a "-dirty" library_version nobody
  # can reproduce. Commit (or stash) first.
  if [[ -n "$(git status --porcelain 2>/dev/null)" ]]; then
    echo "check_perf.sh: refusing --update on a dirty tree — the baseline" \
         "must record a reproducible library_version; commit or stash" \
         "first (git status --porcelain is non-empty)" >&2
    exit 2
  fi
  # A refresh skips the floor so a noisy run cannot block it — eyeball the
  # refreshed ratio instead (docs/BENCHMARKS.md).
  "$STORAGE_BIN" --reps="$REPS" --json-out="$STORAGE_OUT"
  cp "$STORAGE_OUT" "$STORAGE_BASELINE"
  echo "check_perf.sh: baseline refreshed: $STORAGE_BASELINE"
  exit 0
fi

# The binary enforces the absolute floor and byte-identity; the baseline
# comparison below enforces no >10% regression.
storage_run() {
  "$STORAGE_BIN" --reps="$REPS" --min-load-speedup="$FLOOR_STORAGE" \
    --json-out="$STORAGE_OUT"
}
attempt=1
until storage_run; do
  if [[ "$attempt" -ge 3 ]]; then
    echo "check_perf.sh: storage run failed $attempt times — treating as a" \
         "real regression, not noise" >&2
    exit 1
  fi
  attempt=$((attempt + 1))
  echo "check_perf.sh: storage run failed (attempt $((attempt - 1)));" \
       "retrying" >&2
done

if [[ ! -f "$STORAGE_BASELINE" ]]; then
  echo "check_perf.sh: no baseline at $STORAGE_BASELINE; run" \
       "tools/check_perf.sh --update" >&2
  exit 1
fi
fresh="$(storage_speedup "$STORAGE_OUT")"
base="$(storage_speedup "$STORAGE_BASELINE")"
if ! awk -v f="$fresh" -v b="$base" 'BEGIN {
      lim = 0.9 * b
      printf "storage.load: speedup %.1fx (baseline %.1fx, limit %.1fx)\n", \
             f, b, lim
      exit !(f >= lim)
    }'; then
  echo "check_perf.sh: storage load speedup regressed >10% vs" \
       "$STORAGE_BASELINE" >&2
  exit 1
fi
echo "perf gate: ok"
