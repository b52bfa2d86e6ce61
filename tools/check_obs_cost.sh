#!/usr/bin/env bash
# Telemetry-cost check: what the compiled-in instrumentation costs the
# miners the paper compares. Builds Release seqmine twice, with
# DISC_ENABLE_OBS ON and OFF (build-obs-on, build-obs-off), generates the
# Figure 9 shape (1,000 customers, slen 8, tlen 8, seq_patlen 8, 1,000
# items) and mines it at minsup 0.0075 with disc-all and pseudo in
# alternating pairs, timing each run's user+sys CPU. It prints each
# miner's median instrumented/uninstrumented ratio and fails only when the
# instrumented side is slower in at least 9 of 10 pairs and its median
# ratio exceeds 1.03.
#
#   $ tools/check_obs_cost.sh [pairs]      # default 10 pairs per miner
set -euo pipefail

cd "$(dirname "$0")/.."
PAIRS="${1:-10}"

for obs in on off; do
  cmake -B "build-obs-$obs" -S . -DCMAKE_BUILD_TYPE=Release \
    -DDISC_ENABLE_OBS="${obs^^}" >/dev/null
  cmake --build "build-obs-$obs" -j "$(nproc)" \
    --target seqmine generate_data >/dev/null
done

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
DB="$WORK/fig9.spmf"
build-obs-on/examples/generate_data "$DB" --ncust=1000 --slen=8 --tlen=8 \
  --seq_patlen=8 --nitems=1000 >/dev/null

# User+sys CPU seconds of one single-threaded mine: cpu BUILD_DIR ALGO.
cpu() {
  local TIMEFORMAT='%3U %3S' times
  times=$( { time "$1/examples/seqmine" "$DB" --algo="$2" --minsup=0.0075 \
               --threads=1 --quiet --out="$WORK/$2.spmf" >/dev/null 2>&1; } \
             2>&1 )
  awk '{ print $1 + $2 }' <<<"$times"
}

status=0
for algo in disc-all pseudo; do
  ratios=()
  losses=0
  for ((i = 0; i < PAIRS; ++i)); do
    if ((i % 2 == 0)); then
      on=$(cpu build-obs-on "$algo")
      off=$(cpu build-obs-off "$algo")
    else
      off=$(cpu build-obs-off "$algo")
      on=$(cpu build-obs-on "$algo")
    fi
    ratios+=("$(awk -v a="$on" -v b="$off" 'BEGIN { printf "%.4f", a / b }')")
    if awk -v a="$on" -v b="$off" 'BEGIN { exit !(a > b) }'; then
      losses=$((losses + 1))
    fi
  done
  median=$(printf '%s\n' "${ratios[@]}" | sort -g | awk '
    { v[NR] = $1 }
    END { if (NR % 2) print v[(NR + 1) / 2];
          else printf "%.4f\n", (v[NR / 2] + v[NR / 2 + 1]) / 2 }')
  echo "$algo: instrumented/uninstrumented CPU, median ratio $median;" \
       "instrumented slower in $losses/$PAIRS pairs (ratios: ${ratios[*]})"
  if ((losses * 10 >= PAIRS * 9)) &&
     awk -v m="$median" 'BEGIN { exit !(m > 1.03) }'; then
    echo "check_obs_cost: $algo pays more than 3% for its telemetry" >&2
    status=1
  fi
done
exit "$status"
