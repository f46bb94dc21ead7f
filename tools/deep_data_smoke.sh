#!/usr/bin/env bash
# Runs the two deep-data examples — a left-deep tree a million levels
# deep and a chain of 200,000 composed closures — under every strategy
# and algorithm with --verify at an 8 MiB C++ stack. Each run must print
# the expected value, collect at least once, and leave no verify
# violation. A tracer that recursed on the heap's depth would crash here.
#
# Usage: tools/deep_data_smoke.sh [TFGC]   (default: build/tools/tfgc)
set -eu

ROOT=$(cd "$(dirname "$0")/.." && pwd)
TFGC=${1:-"$ROOT/build/tools/tfgc"}
OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT
ulimit -s 8192

# run PROGRAM EXPECTED HEAP(copying, mark-sweep) HEAP(generational)
run() {
  for STRATEGY in tagged compiled interpreted appel; do
    for ALGO in copying marksweep generational; do
      HEAP=$3
      [ "$ALGO" = generational ] && HEAP=$4
      NAME="$(basename "$1" .mml)-$STRATEGY-$ALGO"
      "$TFGC" --strategy=$STRATEGY --algo=$ALGO --heap=$HEAP --verify \
          --stats-json="$OUT/$NAME.json" "$ROOT/examples/programs/$1" \
          > "$OUT/$NAME.txt"
      python3 - "$OUT/$NAME" "$2" <<'EOF'
import json, sys
base, expected = sys.argv[1], sys.argv[2]
value = open(base + ".txt").read().strip()
c = json.load(open(base + ".json"))["counters"]
assert value == expected, f"{base}: printed {value!r}, want {expected}"
assert c["gc.collections"] > 0, f"{base}: no collection"
assert c["gc.verify_violations"] == 0, f"{base}: verify violations"
print(f"{base.rsplit('/', 1)[-1]}: {value}, "
      f"{c['gc.collections']} collections")
EOF
    done
  done
}

run deep_left_tree.mml 1000000 4194304 33554432
run compose_chain.mml 200000 1048576 4194304
