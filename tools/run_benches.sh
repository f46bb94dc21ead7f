#!/usr/bin/env sh
# Runs every bench binary in JSON mode, writing BENCH_<name>.json at the
# repo root: the deterministic table counters that tools/bench_diff.py
# compares against the committed baselines. The timing tables go to
# stdout.
#
# Usage: tools/run_benches.sh [build-dir]   (default: build)
set -eu

ROOT=$(cd "$(dirname "$0")/.." && pwd)
BUILD=${1:-"$ROOT/build"}
BENCH_DIR="$BUILD/bench"

if [ ! -d "$BENCH_DIR" ]; then
  echo "error: $BENCH_DIR not found — build first:" >&2
  echo "  cmake -B build -S . && cmake --build build -j" >&2
  exit 1
fi

for NAME in mutator heap_space pause metadata_size liveness gcpoints \
            poly tasking frame_init generational heap_profile monitor \
            observe flight heap_graph; do
  BIN="$BENCH_DIR/bench_$NAME"
  if [ ! -x "$BIN" ]; then
    echo "skip: $BIN not built" >&2
    continue
  fi
  echo "== bench_$NAME =="
  "$BIN" --json "$ROOT/BENCH_$NAME.json"
done

echo "done: $(ls "$ROOT"/BENCH_*.json | wc -l) JSON files at $ROOT"
