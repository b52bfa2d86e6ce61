#!/usr/bin/env bash
# AddressSanitizer + UBSan check: builds the whole tree with
# -fsanitize=address,undefined (DISC_SANITIZE=address,undefined) and runs
# the full ctest suite under it, CLI and bench smokes included. Lifetime
# bugs hide wherever a test reaches: dangling views after arena growth,
# off-by-one offset arithmetic, scratch reuse after Clear, the k-sorted
# database's in-place merge into the slots below its head,
# attacker-controlled .dsa bytes, shared_ptr snapshots and socket
# streambufs in the server.
# A tiny end-to-end parallel mine through the bench driver then exercises
# the per-worker scratch state under real partition scheduling.
#
#   $ tools/check_asan.sh [build-dir]      # default build-asan
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"

cmake -B "$BUILD_DIR" -S . -DDISC_SANITIZE=address,undefined >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)"

export ASAN_OPTIONS="halt_on_error=1 detect_leaks=1 ${ASAN_OPTIONS:-}"
export UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1 ${UBSAN_OPTIONS:-}"
(cd "$BUILD_DIR" && ctest --output-on-failure -j "$(nproc)")
"$BUILD_DIR/bench/bench_parallel" --ncust=200 --minsup=0.05 \
  --threads-list=1,4 --json-out=

echo "asan: all checks passed"
