#!/usr/bin/env bash
# Runs every sanitizer smoke check in sequence: ASan+UBSan (memory/lifetime
# bugs in the arena/view pipeline), TSan (data races in the parallel
# partition scheduler), the fail-point CLI smoke (exit-code convention
# under injected faults), the live-telemetry CLI smoke (progress ticker,
# event log, exposition), the seqmined line-protocol + socket smoke
# (cache hits, byte-identical repeats, stop/cancel/drain byte-prefix,
# load shedding, net.* chaos loop), the storage CLI smoke (.dsa pack/shard
# round trips, corruption exit codes, pack atomicity — under ASan), the
# benchmark regression gate for the .dsa load path, the full ctest suite
# in a Release build with DISC_ENABLE_OBS=OFF (the build the next check
# times: compiling telemetry out must change no pattern or output), then
# the telemetry-cost check (instrumented vs DISC_ENABLE_OBS=OFF CPU pairs
# for disc-all and pseudo). Each check uses its own build directory, so
# repeat runs are incremental.
#
#   $ tools/check_all.sh
set -euo pipefail

# From the repo root: the legs that take a binary cd there before they
# look for it, so every path below is root-relative.
cd "$(dirname "$0")/.."

tools/check_asan.sh
tools/check_tsan.sh
tools/check_failpoints.sh build-asan/examples/seqmine
tools/check_obs.sh build-asan/examples/seqmine
tools/check_server.sh build-asan/examples/seqmined build-asan/examples/seqmine
tools/check_storage.sh build-asan/examples/seqmine build-asan/examples/seqmined
tools/check_perf.sh
cmake -B build-obs-off -S . -DCMAKE_BUILD_TYPE=Release \
  -DDISC_ENABLE_OBS=OFF >/dev/null
cmake --build build-obs-off -j "$(nproc)"
(cd build-obs-off && ctest --output-on-failure -j "$(nproc)")
tools/check_obs_cost.sh

echo "all checks passed"
