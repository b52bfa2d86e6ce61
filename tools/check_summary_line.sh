#!/usr/bin/env bash
# seqmine summary-line smoke: mines a golden-corpus dataset and checks both
# forms of the line seqmine prints without --quiet. By default the line
# names the pattern count, max length and max support only; the maximal
# and closed counts, quadratic in the pattern count, appear only under
# --maximal or --closed. The pattern count must equal the golden file's.
#
#   $ tools/check_summary_line.sh path/to/seqmine [data-dir]
set -euo pipefail

SEQMINE="$1"
DATA="${2:-$(dirname "$0")/../tests/data}"
DB="$DATA/quest_tiny.spmf"
GOLDEN="$DATA/quest_tiny.delta4.golden.spmf"
OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT

fail() { echo "check_summary_line: $*" >&2; exit 1; }

want=$(wc -l < "$GOLDEN")
plain=$("$SEQMINE" "$DB" --delta=4 --out="$OUT/p.spmf" | grep '^disc-all: ')
[[ "$plain" =~ ^disc-all:\ ([0-9]+)\ patterns,\ max\ length\ [0-9]+,\ max\ support\ [0-9]+,\ [0-9.]+s$ ]] ||
  fail "unexpected default summary: $plain"
[ "${BASH_REMATCH[1]}" -eq "$want" ] ||
  fail "default summary counts ${BASH_REMATCH[1]} patterns, golden has $want"
cmp -s "$OUT/p.spmf" "$GOLDEN" || fail "patterns differ from $GOLDEN"

for flag in maximal closed; do
  line=$("$SEQMINE" "$DB" --delta=4 --"$flag" --out="$OUT/$flag.spmf" |
         grep '^disc-all: ')
  [[ "$line" =~ ^disc-all:\ ([0-9]+)\ patterns\ \(([0-9]+)\ maximal,\ ([0-9]+)\ closed\),\ max\ length\ [0-9]+,\ max\ support\ [0-9]+,\ [0-9.]+s$ ]] ||
    fail "unexpected --$flag summary: $line"
  [ "${BASH_REMATCH[1]}" -eq "$(wc -l < "$OUT/$flag.spmf")" ] ||
    fail "--$flag summary count disagrees with its output"
  [ "${BASH_REMATCH[1]}" -gt 0 ] && [ "${BASH_REMATCH[1]}" -lt "$want" ] ||
    fail "--$flag kept ${BASH_REMATCH[1]} of $want patterns"
done

echo "summary line: ok"
