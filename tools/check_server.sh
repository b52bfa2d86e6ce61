#!/usr/bin/env bash
# seqmined line-protocol smoke check: drives scripted sessions over the
# golden-corpus dataset and asserts the documented server contract
# (docs/SERVER.md):
#
#   * mining the same --minsup twice in one session yields byte-identical
#     pattern blocks, with cache=miss on the first response, cache=hit on
#     the second, and `stat` reporting disc.cache hits >= 1;
#   * a default mine (every core) and a --threads 1 mine return the same
#     block byte for byte;
#   * a --cancel-after run reports status=partial reason=cancelled and its
#     pattern block is an exact byte-prefix of the full run's block;
#   * a live `stop` sent mid-mine (mining slowed via the pool.task delay
#     fail point) cancels the in-flight session: `ok stop id=...`, a
#     partial response, and again the exact byte-prefix guarantee;
#   * over a unix socket (when a seqmine client binary is available):
#     concurrent clients mine byte-identical blocks, an over-limit client
#     is shed with `err busy` and succeeds on retry, SIGTERM drain hands
#     the in-flight client a byte-prefix partial and exits 0, and a chaos
#     loop over the net.accept/net.read/net.write/admit.reject fail points
#     leaves the server alive and still able to drain cleanly.
#
#   $ tools/check_server.sh [path/to/seqmined] [path/to/seqmine]
#   # defaults: build/examples/seqmined, build/examples/seqmine
set -euo pipefail

SEQMINED="${1:-}"
SEQMINE="${2:-build/examples/seqmine}"
cd "$(dirname "$0")/.."

if [[ -z "$SEQMINED" ]]; then
  SEQMINED=build/examples/seqmined
  if [[ ! -x "$SEQMINED" ]]; then
    cmake -B build -S . >/dev/null
    cmake --build build -j "$(nproc)" --target seqmined seqmine >/dev/null
  fi
fi
if [[ ! -x "$SEQMINED" ]]; then
  echo "check_server.sh: no seqmined binary at $SEQMINED" >&2
  exit 2
fi

DATA=tests/data/quest_mid.spmf
WORK="$(mktemp -d "${TMPDIR:-/tmp}/disc_server.XXXXXX")"
SERVER_PIDS=()
cleanup() {
  for pid in "${SERVER_PIDS[@]:-}"; do
    kill "$pid" 2>/dev/null || true
  done
  wait 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

failures=0
fail() {
  echo "check_server.sh: FAIL: $1" >&2
  failures=$((failures + 1))
}

# The pattern lines of the i-th `ok mine` response (between its header and
# the matching `end`), and the i-th header itself.
mine_block() {
  awk -v want="$2" '
    /^ok mine /  { n++; if (n == want) { inblk = 1; next } }
    /^end$/      { if (inblk) exit }
    inblk        { print }
  ' "$1"
}
mine_header() {
  awk -v want="$2" '/^ok mine / { if (++n == want) { print; exit } }' "$1"
}

# --- session 1: same query twice => cache hit, byte-identical blocks -----
# stat is interruptive (it jumps the FIFO to report on an in-flight mine),
# so the script sleeps until both mines are done before asking for it.
{ printf 'load %s\nmine --minsup 0.1\nmine --minsup 0.1\n' "$DATA"
  sleep 1
  printf 'stat\nquit\n'
} | "$SEQMINED" > "$WORK/conv1.txt" \
  || fail "cached-sweep session exited $? (expected 0)"

grep -q '^info seqmined ready$' "$WORK/conv1.txt" \
  || fail "missing ready banner"
grep -q '^ok load sequences=' "$WORK/conv1.txt" \
  || fail "missing ok load response"
tail -n 1 "$WORK/conv1.txt" | grep -q '^ok quit$' \
  || fail "session does not end with ok quit"

mine_header "$WORK/conv1.txt" 1 | grep -q ' cache=miss ' \
  || fail "first mine response is not cache=miss"
mine_header "$WORK/conv1.txt" 2 | grep -q ' cache=hit ' \
  || fail "second mine response is not cache=hit"

mine_block "$WORK/conv1.txt" 1 > "$WORK/block1.txt"
mine_block "$WORK/conv1.txt" 2 > "$WORK/block2.txt"
[[ -s "$WORK/block1.txt" ]] || fail "first mine block is empty"
cmp -s "$WORK/block1.txt" "$WORK/block2.txt" \
  || fail "repeated query is not byte-identical across the cache hit"

grep -E '^info cache hits=[1-9]' "$WORK/conv1.txt" >/dev/null \
  || fail "stat does not report cache hits >= 1"

# --- session 2: deterministic partial via --cancel-after -----------------
# A default request mines on every core; its block must equal a serial
# run's byte for byte. The --cancel-after cut is deterministic only on a
# serial run, so that request names --threads 1.
printf 'load %s\nmine --minsup 0.05\nmine --minsup 0.05 --threads 1\nquit\n' \
  "$DATA" | "$SEQMINED" > "$WORK/full.txt" \
  || fail "full-run session exited $? (expected 0)"
printf 'load %s\nmine --minsup 0.05 --threads 1 --cancel-after 5\nquit\n' \
  "$DATA" | "$SEQMINED" > "$WORK/partial.txt" \
  || fail "cancel-after session exited $? (expected 0)"

mine_header "$WORK/partial.txt" 1 \
  | grep -q ' status=partial reason=cancelled ' \
  || fail "--cancel-after response is not status=partial reason=cancelled"

mine_block "$WORK/full.txt" 1 > "$WORK/full_block.txt"
mine_block "$WORK/full.txt" 2 > "$WORK/serial_block.txt"
mine_block "$WORK/partial.txt" 1 > "$WORK/partial_block.txt"
[[ -s "$WORK/full_block.txt" ]] || fail "full mine block is empty"
cmp -s "$WORK/full_block.txt" "$WORK/serial_block.txt" \
  || fail "default-threads block differs from the --threads 1 block"
head -c "$(wc -c < "$WORK/partial_block.txt")" "$WORK/full_block.txt" \
  | cmp -s - "$WORK/partial_block.txt" \
  || fail "--cancel-after block is not a byte-prefix of the full block"
if [[ "$(wc -l < "$WORK/partial_block.txt")" -ge \
      "$(wc -l < "$WORK/full_block.txt")" ]]; then
  fail "--cancel-after block is not strictly shorter than the full block"
fi

# --- session 3: live stop mid-mine => partial + byte-prefix --------------
# pool.task=delay:100 stalls every pool task (the session dispatch and each
# partition task) long enough that the stop sent after one second lands
# while the mine is still running.
{ printf 'load %s\nmine --minsup 0.05 --threads 4\n' "$DATA"
  sleep 1
  printf 'stop\nquit\n'
} | DISC_FAILPOINTS=pool.task=delay:100 "$SEQMINED" > "$WORK/conv3.txt" \
  || fail "live-stop session exited $? (expected 0)"

grep -q '^ok stop id=' "$WORK/conv3.txt" \
  || fail "stop did not find an in-flight mine"
mine_header "$WORK/conv3.txt" 1 \
  | grep -q ' status=partial reason=cancelled ' \
  || fail "stopped mine is not status=partial reason=cancelled"
mine_block "$WORK/conv3.txt" 1 > "$WORK/stopped_block.txt"
head -c "$(wc -c < "$WORK/stopped_block.txt")" "$WORK/full_block.txt" \
  | cmp -s - "$WORK/stopped_block.txt" \
  || fail "stopped block is not a byte-prefix of the full block"

# --- socket transport checks (need the seqmine client binary) ------------
socket_checks_ran=0
if [[ -x "$SEQMINE" ]]; then
  socket_checks_ran=1

  # Starts a seqmined in the background and waits for its unix socket to
  # appear. start_server <sock> [server flags...]; sets SERVER_PID.
  start_server() {
    local sock="$1"; shift
    "$SEQMINED" --listen-unix "$sock" "$@" > /dev/null 2>&1 &
    SERVER_PID=$!
    SERVER_PIDS+=("$SERVER_PID")
    for _ in $(seq 100); do
      [[ -S "$sock" ]] && return 0
      kill -0 "$SERVER_PID" 2>/dev/null || break
      sleep 0.05
    done
    fail "server did not create socket $sock"
    return 1
  }

  # TERMs a server and asserts graceful drain (exit 0).
  stop_server() {
    local what="$1" rc=0
    kill -TERM "$SERVER_PID" 2>/dev/null || true
    wait "$SERVER_PID" || rc=$?
    [[ "$rc" -eq 0 ]] || fail "$what: drain exited $rc (expected 0)"
  }

  # --- socket 1: concurrent clients mine byte-identical blocks -----------
  if start_server "$WORK/s1.sock"; then
    rc_a=0 rc_b=0
    "$SEQMINE" --connect "unix:$WORK/s1.sock" "$DATA" --minsup 0.05 \
      --quiet > "$WORK/sock_a.txt" 2>/dev/null &
    CLIENT_A=$!
    "$SEQMINE" --connect "unix:$WORK/s1.sock" "$DATA" --minsup 0.05 \
      --quiet > "$WORK/sock_b.txt" 2>/dev/null &
    CLIENT_B=$!
    wait "$CLIENT_A" || rc_a=$?
    wait "$CLIENT_B" || rc_b=$?
    [[ "$rc_a" -eq 0 && "$rc_b" -eq 0 ]] \
      || fail "concurrent socket clients exited $rc_a/$rc_b (expected 0/0)"
    cmp -s "$WORK/sock_a.txt" "$WORK/full_block.txt" \
      || fail "socket client A block differs from the stdin full block"
    cmp -s "$WORK/sock_b.txt" "$WORK/full_block.txt" \
      || fail "socket client B block differs from the stdin full block"
    stop_server "idle server"
  fi

  # --- socket 2: over-limit shed with err busy, then retry succeeds ------
  # pool.task=delay pins the first client's mine in flight; --per-client 1
  # means the second connection (same uid) must be shed. A zero-retry
  # client surfaces the err busy line; a retrying client waits it out.
  # The delay and settle sleeps are generous so the ordering holds under
  # sanitizer slowdowns (check_tsan.sh runs this same script). The mines
  # name --threads 1: a parallel mine queues a delayed task per partition.
  if DISC_FAILPOINTS=pool.task=delay:4000 \
     start_server "$WORK/s2.sock" --per-client 1; then
    rc_pin=0 rc_busy=0 rc_retry=0
    "$SEQMINE" --connect "unix:$WORK/s2.sock" "$DATA" --minsup 0.05 \
      --threads 1 --quiet > "$WORK/sock_pin.txt" 2>/dev/null &
    CLIENT_PIN=$!
    sleep 1.5  # the pinned mine is admitted and sleeping in its pool task
    "$SEQMINE" --connect "unix:$WORK/s2.sock" "$DATA" --minsup 0.05 \
      --retries 0 --quiet > /dev/null 2> "$WORK/busy_err.txt" || rc_busy=$?
    [[ "$rc_busy" -eq 3 ]] \
      || fail "shed client exited $rc_busy (expected 3)"
    grep -q 'err busy retry-after-ms=' "$WORK/busy_err.txt" \
      || fail "shed client did not report the err busy line"
    grep -q 'reason=client' "$WORK/busy_err.txt" \
      || fail "shed reason is not the per-client limit"
    "$SEQMINE" --connect "unix:$WORK/s2.sock" "$DATA" --minsup 0.05 \
      --threads 1 --retries 10 --retry-base-ms 50 --quiet \
      > "$WORK/sock_retry.txt" 2>/dev/null || rc_retry=$?
    wait "$CLIENT_PIN" || rc_pin=$?
    [[ "$rc_pin" -eq 0 ]] || fail "pinned client exited $rc_pin (expected 0)"
    [[ "$rc_retry" -eq 0 ]] \
      || fail "retrying client exited $rc_retry (expected 0 after backoff)"
    cmp -s "$WORK/sock_retry.txt" "$WORK/full_block.txt" \
      || fail "retried mine block differs from the stdin full block"
    stop_server "busy-check server"
  fi

  # --- socket 3: SIGTERM drain => byte-prefix partial, exit 0 ------------
  # One thread, as in socket 2.
  if DISC_FAILPOINTS=pool.task=delay:4000 \
     start_server "$WORK/s3.sock" --drain-deadline-ms 15000; then
    rc_drain=0
    "$SEQMINE" --connect "unix:$WORK/s3.sock" "$DATA" --minsup 0.05 \
      --threads 1 --quiet > "$WORK/drain_block.txt" 2>/dev/null &
    CLIENT_DRAIN=$!
    sleep 1.5  # mine admitted, pinned in its delayed pool task
    stop_server "drain server"
    wait "$CLIENT_DRAIN" || rc_drain=$?
    [[ "$rc_drain" -eq 4 ]] \
      || fail "drained client exited $rc_drain (expected 4 = partial)"
    head -c "$(wc -c < "$WORK/drain_block.txt")" "$WORK/full_block.txt" \
      | cmp -s - "$WORK/drain_block.txt" \
      || fail "drain partial is not a byte-prefix of the full block"
  fi

  # --- socket 4: fail-point chaos loop -----------------------------------
  # Each injected fault must degrade one request path, never the server:
  # after the client fails, the process is still alive and drains to
  # exit 0. The short idle timeout keeps the net.write case (server mute,
  # client waiting) from parking either side.
  for site in net.accept=error net.read=error net.write=error \
              admit.reject=error; do
    if DISC_FAILPOINTS="$site" \
       start_server "$WORK/chaos.sock" --idle-timeout-ms 500; then
      rc_chaos=0
      "$SEQMINE" --connect "unix:$WORK/chaos.sock" "$DATA" --minsup 0.1 \
        --retries 1 --retry-base-ms 10 --quiet \
        > /dev/null 2> "$WORK/chaos_err.txt" || rc_chaos=$?
      [[ "$rc_chaos" -ne 0 ]] \
        || fail "chaos $site: client unexpectedly succeeded"
      if [[ "$site" == admit.reject=error ]]; then
        grep -q 'reason=injected' "$WORK/chaos_err.txt" \
          || fail "chaos $site: shed line does not carry reason=injected"
      fi
      kill -0 "$SERVER_PID" 2>/dev/null \
        || fail "chaos $site: server died"
      stop_server "chaos $site server"
      rm -f "$WORK/chaos.sock"
    fi
  done
else
  echo "check_server.sh: note: no seqmine client at $SEQMINE;" \
       "skipping socket checks" >&2
fi

if [[ "$failures" -gt 0 ]]; then
  echo "check_server.sh: $failures check(s) failed" >&2
  exit 1
fi
if [[ "$socket_checks_ran" -eq 1 ]]; then
  echo "server cli smoke: ok ($(wc -l < "$WORK/block1.txt") cached patterns, \
$(wc -l < "$WORK/partial_block.txt")/$(wc -l < "$WORK/full_block.txt") partial, \
socket + chaos ok)"
else
  echo "server cli smoke: ok ($(wc -l < "$WORK/block1.txt") cached patterns, \
$(wc -l < "$WORK/partial_block.txt")/$(wc -l < "$WORK/full_block.txt") partial)"
fi
