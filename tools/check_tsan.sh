#!/usr/bin/env bash
# ThreadSanitizer smoke check for the parallel mining engine: builds the
# suite with -fsanitize=thread (DISC_SANITIZE=thread) and runs the
# concurrency-sensitive tests (thread pool, parallel determinism, and the
# obs layer). Any data race fails the run.
#
#   $ tools/check_tsan.sh [build-dir]      # default build-tsan
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . -DDISC_SANITIZE=thread >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)" --target \
  thread_pool_test scheduler_test parallel_determinism_test obs_test \
  obs_live_test \
  failpoint_test engine_test server_protocol_test \
  admission_test server_transport_test bench_parallel seqmine seqmined

export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"
"$BUILD_DIR/tests/thread_pool_test"
"$BUILD_DIR/tests/scheduler_test"
"$BUILD_DIR/tests/parallel_determinism_test"
"$BUILD_DIR/tests/obs_test"
"$BUILD_DIR/tests/obs_live_test"
"$BUILD_DIR/tests/failpoint_test"
# Concurrent sessions racing the LRU QueryCache and database loads, plus
# the server's reader-thread/main-loop handoff.
"$BUILD_DIR/tests/engine_test"
"$BUILD_DIR/tests/server_protocol_test"
# The socket serving layer: accept loop vs connection reaper vs admission
# controller vs drain signal, all sharing state across threads.
"$BUILD_DIR/tests/admission_test"
"$BUILD_DIR/tests/server_transport_test"
# A tiny end-to-end parallel mine through the bench driver.
"$BUILD_DIR/bench/bench_parallel" --ncust=200 --minsup=0.05 \
  --threads-list=1,4 --json-out=

# The socket + chaos smoke end to end under TSan: concurrent seqmine
# clients, SIGTERM drain, and the net.*/admit.reject fail-point loop must
# be race-free with no leaked sessions.
./tools/check_server.sh "$BUILD_DIR/examples/seqmined" \
  "$BUILD_DIR/examples/seqmine"

echo "tsan: all checks passed"
