#!/usr/bin/env python3
"""Diff a fresh run_benches.sh output against committed BENCH_*.json.

The committed BENCH_*.json files are the repo's counter baselines. Their
`table_runs` counters come from the deterministic VM/GC stat domains, so
on the same source they are bit-identical run to run — any difference is
a real behavior change that slipped past the tests (an extra collection,
a changed visit count, a lost superinstruction). The files hold no
timings: the benches print those to stdout only.

Runs are keyed by (workload, strategy, algorithm, heap, nursery,
threads), and each key may occur once per file: a repeated key would
shadow the earlier row, so it fails the diff in either directory.

Rows from OS-thread runs (a `threads` field of 2 or more, E15) are not
deterministic: the interleaving of real threads decides when each
collection triggers, so two runs of the same source differ in most
counters. Such a row must be present and satisfy the handshake
invariants instead: task.gc_requests == task.world_stops ==
sched.handshake_epochs (no lost or doubled world stop) and
gc.parallel_traces > 0 (the parallel tracer engaged). Rows with
`threads` 0 or 1 (sequential and cooperative runs) stay bit-identical.

Usage:
  tools/bench_diff.py FRESH_DIR [--baseline DIR] [--bench NAME]...

  FRESH_DIR      directory holding the freshly generated BENCH_*.json
                 (e.g. the target dir passed to `run_benches.sh` plus a
                 copy step, or just the repo root after rerunning)
  --baseline     directory with the committed baselines (default: the
                 repo root, i.e. this script's parent's parent)
  --bench NAME   restrict to BENCH_<NAME>.json (repeatable; default all
                 baselines present)

Exit status: 1 on counter drift, a broken threaded-row invariant, a
missing/extra run, a duplicate run key or a missing file, 0 otherwise.

Typical CI wiring:
  tools/run_benches.sh build && mkdir fresh && mv BENCH_*.json fresh/ \
      && git checkout -- 'BENCH_*.json' \
      && tools/bench_diff.py fresh
"""

import argparse
import glob
import json
import os
import sys

# Counters whose values are derived from wall-clock time: identical
# behavior produces different numbers every run, so they are excluded
# from the bit-identical contract. The monitor's utilization ratios
# (mon.mmu_*_ppm, mon.mutator_fraction_ppm) are pause time over wall
# time, and its heartbeat count is wall time over the heartbeat period.
TIME_COUNTER_MARKERS = ("_ns", "pause_ns", "wall_ms", "mon.mmu_",
                        "mon.mutator_fraction", "mon.heartbeats")


def is_time_counter(name):
    return any(m in name for m in TIME_COUNTER_MARKERS)


def run_key(run):
    return (
        run.get("workload", ""),
        run.get("strategy", ""),
        run.get("algorithm", ""),
        run.get("heap_bytes", 0),
        run.get("nursery_bytes", 0),
        run.get("threads", 0),
    )


def fmt_key(key):
    wl, strat, algo, heap, nursery, threads = key
    s = "%s/%s/%s heap=%d" % (wl, strat, algo, heap)
    if nursery:
        s += " nursery=%d" % nursery
    if threads:
        s += " threads=%d" % threads
    return s


def threaded_invariant_failures(counters):
    """What a threaded (threads >= 2) row breaks of its invariants."""
    stops = [counters.get(c) for c in
             ("task.gc_requests", "task.world_stops", "sched.handshake_epochs")]
    failures = []
    if None in stops or len(set(stops)) != 1:
        failures.append("task.gc_requests/task.world_stops/"
                        "sched.handshake_epochs = %s/%s/%s, not all equal"
                        % tuple(stops))
    if not counters.get("gc.parallel_traces", 0) > 0:
        failures.append("gc.parallel_traces = %s, not > 0"
                        % counters.get("gc.parallel_traces"))
    return failures


def keyed_runs(name, which, doc, drift):
    """A document's table_runs by key; a repeated key is drift."""
    runs = {}
    for run in doc.get("table_runs", []):
        key = run_key(run)
        if key in runs:
            drift.append("%s: duplicate run key in %s: %s" %
                         (name, which, fmt_key(key)))
        runs[key] = run
    return runs


def diff_table_runs(name, base, fresh):
    """Returns the drift lines for one bench's table_runs."""
    drift = []
    base_runs = keyed_runs(name, "baseline", base, drift)
    fresh_runs = keyed_runs(name, "fresh output", fresh, drift)
    for key in sorted(set(base_runs) | set(fresh_runs)):
        if key not in fresh_runs:
            drift.append("%s: run missing from fresh output: %s" %
                         (name, fmt_key(key)))
            continue
        if key not in base_runs:
            drift.append("%s: run not in baseline (new?): %s" %
                         (name, fmt_key(key)))
            continue
        bc = base_runs[key].get("counters", {})
        fc = fresh_runs[key].get("counters", {})
        if key[-1] >= 2:
            drift.extend("%s: %s: %s" % (name, fmt_key(key), f)
                         for f in threaded_invariant_failures(fc))
            continue
        for counter in sorted(set(bc) | set(fc)):
            if is_time_counter(counter):
                continue
            bv, fv = bc.get(counter), fc.get(counter)
            if bv != fv:
                drift.append("%s: %s: %s: %s -> %s" %
                             (name, fmt_key(key), counter, bv, fv))
    return drift


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("fresh_dir")
    ap.add_argument("--baseline",
                    default=os.path.dirname(
                        os.path.dirname(os.path.abspath(__file__))))
    ap.add_argument("--bench", action="append", default=[])
    args = ap.parse_args()

    if args.bench:
        names = ["BENCH_%s.json" % n for n in args.bench]
    else:
        names = sorted(os.path.basename(p) for p in
                       glob.glob(os.path.join(args.baseline, "BENCH_*.json")))
    if not names:
        print("bench_diff: no BENCH_*.json baselines in %s" % args.baseline,
              file=sys.stderr)
        return 1

    all_drift, compared = [], 0
    for name in names:
        base_path = os.path.join(args.baseline, name)
        fresh_path = os.path.join(args.fresh_dir, name)
        if not os.path.exists(base_path):
            all_drift.append("%s: baseline missing at %s" % (name, base_path))
            continue
        if not os.path.exists(fresh_path):
            all_drift.append("%s: fresh output missing at %s (bench not run?)"
                             % (name, fresh_path))
            continue
        with open(base_path) as f:
            base = json.load(f)
        with open(fresh_path) as f:
            fresh = json.load(f)
        compared += 1
        all_drift.extend(diff_table_runs(name, base, fresh))

    for d in all_drift:
        print("DRIFT: %s" % d)
    if all_drift:
        print("\nbench_diff: FAIL — %d drift(s) across %d bench(es); "
              "sequential counters are deterministic and threaded rows must "
              "keep their invariants, so either fix the regression or "
              "re-run tools/run_benches.sh and commit the new baselines with "
              "the change that moved them" % (len(all_drift), compared))
        return 1
    print("bench_diff: OK — %d bench(es), counters bit-identical, threaded "
          "invariants hold" % compared)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        sys.exit(0)
