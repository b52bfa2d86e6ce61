#!/usr/bin/env bash
# End-to-end fault-injection smoke check for the robustness layer: drives
# the seqmine CLI through every failure family (I/O faults, malformed data
# in strict vs permissive mode, deadline expiry, worker-task crashes) and
# asserts the documented exit-code convention (docs/ROBUSTNESS.md):
#
#   0 success    2 usage/config    3 data or internal error    4 stopped
#
# Every injected fault must come back as a clean non-zero exit with a
# diagnostic on stderr — never an abort, sanitizer report, or core dump.
#
#   $ tools/check_failpoints.sh path/to/seqmine
set -u

SEQMINE="${1:-}"
if [[ -z "$SEQMINE" || ! -x "$SEQMINE" ]]; then
  echo "usage: $0 path/to/seqmine" >&2
  exit 2
fi

WORK="$(mktemp -d "${TMPDIR:-/tmp}/disc_failpoints.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

GOOD="$WORK/good.spmf"
BAD="$WORK/bad.spmf"
printf '1 2 -1 3 -1 -2\n1 -1 3 -1 -2\n2 3 -1 -2\n1 -1 2 -1 -2\n' > "$GOOD"
printf '1 2 -1 3 -1 -2\nbogus -1 -2\n2 3 -1 -2\n' > "$BAD"

failures=0

# run <want-exit> <label> [--env SPEC] -- <args...>
run() {
  local want="$1" label="$2" fps=""
  shift 2
  if [[ "$1" == "--env" ]]; then fps="$2"; shift 2; fi
  [[ "$1" == "--" ]] && shift
  local errfile="$WORK/stderr.txt"
  if [[ -n "$fps" ]]; then
    DISC_FAILPOINTS="$fps" "$SEQMINE" "$@" >/dev/null 2>"$errfile"
  else
    "$SEQMINE" "$@" >/dev/null 2>"$errfile"
  fi
  local got=$?
  if [[ "$got" -ne "$want" ]]; then
    echo "FAIL: $label: exit $got, want $want" >&2
    sed 's/^/    stderr: /' "$errfile" >&2
    failures=$((failures + 1))
    return
  fi
  # 128+N means the process died on a signal (abort, segfault): never OK.
  if [[ "$got" -ge 128 ]]; then
    echo "FAIL: $label: killed by signal $((got - 128))" >&2
    failures=$((failures + 1))
    return
  fi
  echo "ok: $label (exit $got)"
}

# expect_stderr <pattern> <label> — checks the stderr of the last run().
expect_stderr() {
  if ! grep -q "$1" "$WORK/stderr.txt"; then
    echo "FAIL: $2: stderr missing '$1'" >&2
    sed 's/^/    stderr: /' "$WORK/stderr.txt" >&2
    failures=$((failures + 1))
  fi
}

# --- Clean run: the convention's zero ---------------------------------------
run 0 "clean mine"            -- "$GOOD" --delta=2 --quiet

# --- Usage errors (exit 2) --------------------------------------------------
run 2 "unknown algorithm"     -- "$GOOD" --algo=no-such-miner --quiet
run 2 "malformed failpoints"  -- "$GOOD" --failpoints='io.read=explode' --quiet
run 2 "bad minsup"            -- "$GOOD" --minsup=7 --quiet

# --- Data errors: strict fails, permissive recovers (exit 3 vs 0) -----------
run 3 "strict malformed data" -- "$BAD" --delta=2 --quiet
expect_stderr "line 2" "strict malformed data"
run 0 "permissive skips bad"  -- "$BAD" --delta=2 --permissive --quiet
expect_stderr "skipped 1 malformed record" "permissive skips bad"

# --- Injected I/O fault: recoverable error, not an abort (exit 3) -----------
run 3 "io.read fault (env)"   --env 'io.read=error' -- "$GOOD" --delta=2 --quiet
expect_stderr "io.read" "io.read fault (env)"
run 3 "io.write fault"        -- "$GOOD" --delta=2 --quiet \
                                 --failpoints='io.write=error' \
                                 --out="$WORK/patterns.spmf"

# --- Deadline: partial result, dedicated exit code (exit 4) -----------------
run 4 "deadline with slow pool" -- "$GOOD" --delta=2 --quiet --threads=4 \
                                   --deadline-ms=1 \
                                   --failpoints='pool.task=delay:30'

# --- Worker crash containment: internal error, pool survives (exit 3) -------
run 3 "reduce crash parallel" -- "$GOOD" --delta=2 --quiet --threads=2 \
                                 --failpoints='disc.reduce=throw'
expect_stderr "partition mining failed" "reduce crash parallel"
run 3 "reduce crash serial"   -- "$GOOD" --delta=2 --quiet \
                                 --failpoints='disc.reduce=throw'
expect_stderr "partition mining failed" "reduce crash serial"

if [[ "$failures" -ne 0 ]]; then
  echo "failpoints: $failures check(s) failed" >&2
  exit 1
fi
echo "failpoints: all checks passed"
