#!/usr/bin/env bash
# ThreadSanitizer check: builds the whole tree with -fsanitize=thread
# (DISC_SANITIZE=thread) and runs the full ctest suite under it, CLI and
# bench smokes included. Any data race fails the run. The suite's
# concurrency-heavy cases are the thread pool and partition scheduler,
# parallel determinism and cancellation, the obs layer's live telemetry,
# concurrent engine sessions racing the LRU QueryCache and database loads,
# and the socket serving layer (accept loop vs connection reaper vs
# admission controller vs drain signal). A tiny end-to-end parallel mine
# through the bench driver and the socket + chaos smoke follow.
#
#   $ tools/check_tsan.sh [build-dir]      # default build-tsan
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . -DDISC_SANITIZE=thread >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)"

export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"
(cd "$BUILD_DIR" && ctest --output-on-failure -j "$(nproc)")
# A tiny end-to-end parallel mine through the bench driver.
"$BUILD_DIR/bench/bench_parallel" --ncust=200 --minsup=0.05 \
  --threads-list=1,4 --json-out=

# The socket + chaos smoke end to end under TSan: concurrent seqmine
# clients, SIGTERM drain, and the net.*/admit.reject fail-point loop must
# be race-free with no leaked sessions.
./tools/check_server.sh "$BUILD_DIR/examples/seqmined" \
  "$BUILD_DIR/examples/seqmine"

echo "tsan: all checks passed"
