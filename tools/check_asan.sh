#!/usr/bin/env bash
# AddressSanitizer + UBSan smoke check for the arena/view pipeline: builds
# with -fsanitize=address,undefined (DISC_SANITIZE=address,undefined) and
# runs the tests most likely to catch lifetime bugs in the flat-arena
# database and the non-owning SequenceView read paths (dangling views after
# arena growth, off-by-one offset arithmetic, scratch reuse after Clear),
# plus the k-sorted database (index arithmetic in the locative AVL tree's
# node pool and bucket links, scan-state reuse across CKMS advances).
#
#   $ tools/check_asan.sh [build-dir]      # default build-asan
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"

cmake -B "$BUILD_DIR" -S . -DDISC_SANITIZE=address,undefined >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)" --target \
  view_arena_test parse_io_test sequence_test index_test \
  disc_all_test parallel_determinism_test status_test failpoint_test \
  order_property_test locative_avl_test kms_test ksorted_test \
  scheduler_test storage_format_test shard_merge_test \
  engine_test server_protocol_test admission_test server_transport_test \
  bench_parallel seqmine seqmined

export ASAN_OPTIONS="halt_on_error=1 detect_leaks=1 ${ASAN_OPTIONS:-}"
export UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1 ${UBSAN_OPTIONS:-}"
"$BUILD_DIR/tests/view_arena_test"
"$BUILD_DIR/tests/parse_io_test"
"$BUILD_DIR/tests/sequence_test"
"$BUILD_DIR/tests/index_test"
"$BUILD_DIR/tests/disc_all_test"
"$BUILD_DIR/tests/parallel_determinism_test"
"$BUILD_DIR/tests/status_test"
"$BUILD_DIR/tests/failpoint_test"
"$BUILD_DIR/tests/order_property_test"
# The AVL tree's nodes live in a growing vector addressed by index: a node
# reference held across pool growth is a use-after-free ASan reports, and a
# stale index reads a recycled node, which the randomized reference test
# and the KMS/CKMS oracles catch.
"$BUILD_DIR/tests/locative_avl_test"
"$BUILD_DIR/tests/kms_test"
"$BUILD_DIR/tests/ksorted_test"
# The partition scheduler's stop, failure and merge bookkeeping, driven by
# fake partitions at several worker counts.
"$BUILD_DIR/tests/scheduler_test"
# The .dsa hostile-input battery reads attacker-controlled bytes through
# the mmap adoption path — every fuzzed flip must fail cleanly, not read
# out of bounds; the shard merge suite exercises the masked first-level
# injection and per-shard mapped lifetimes.
"$BUILD_DIR/tests/storage_format_test"
"$BUILD_DIR/tests/shard_merge_test"
# The engine/server layer juggles shared_ptr snapshots, reader threads,
# socket streambufs, and cancelled partial results — lifetime territory.
"$BUILD_DIR/tests/engine_test"
"$BUILD_DIR/tests/server_protocol_test"
"$BUILD_DIR/tests/admission_test"
"$BUILD_DIR/tests/server_transport_test"
# A tiny end-to-end parallel mine through the bench driver (exercises the
# per-worker scratch arenas under real partition scheduling).
"$BUILD_DIR/bench/bench_parallel" --ncust=200 --minsup=0.05 \
  --threads-list=1,4 --json-out=

echo "asan: all checks passed"
