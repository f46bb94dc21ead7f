#!/usr/bin/env python3
"""Diff a fresh run_benches.sh output against committed BENCH_*.json.

The committed BENCH_*.json files are the repo's perf trajectory. Their
`table_runs` counters come from the deterministic VM/GC stat domains, so
on the same source they are bit-identical run to run — any difference is
a real behavior change that slipped past the tests (an extra collection,
a changed visit count, a lost superinstruction). Timings, by contrast,
are machine-dependent: they are reported, never failed on.

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
                      [--warn-ratio R]

  FRESH_DIR      directory holding the freshly generated BENCH_*.json
                 (e.g. the target dir passed to `run_benches.sh` plus a
                 copy step, or just the repo root after rerunning)
  --baseline     directory with the committed baselines (default: the
                 repo root, i.e. this script's parent's parent)
  --bench NAME   restrict to BENCH_<NAME>.json (repeatable; default all
                 baselines present)
  --warn-ratio R warn when a timing moved by more than R x (default 1.5)

Exit status: 1 on counter drift, a broken threaded-row invariant or a
missing/extra run, 0 otherwise — timing warnings never fail the diff.

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


def diff_table_runs(name, base, fresh):
    """Returns (drift_lines, warn_lines) for one bench's table_runs."""
    drift, warns = [], []
    base_runs = {run_key(r): r for r in base.get("table_runs", [])}
    fresh_runs = {run_key(r): r for r in fresh.get("table_runs", [])}
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
    return drift, warns


def diff_timings(name, base, fresh, warn_ratio):
    """Warn-only comparison of google-benchmark real_time medians."""
    warns = []
    base_bms = {b["name"]: b
                for b in (base.get("benchmark") or {}).get("benchmarks", [])}
    fresh_bms = {b["name"]: b
                 for b in (fresh.get("benchmark") or {}).get("benchmarks", [])}
    for bm in sorted(set(base_bms) & set(fresh_bms)):
        bt = base_bms[bm].get("real_time", 0.0)
        ft = fresh_bms[bm].get("real_time", 0.0)
        if not bt or not ft:
            continue
        ratio = ft / bt
        if ratio > warn_ratio or ratio < 1.0 / warn_ratio:
            warns.append("%s: %s: real_time %.3fms -> %.3fms (%.2fx)" %
                         (name, bm, bt / 1e6, ft / 1e6, ratio))
    return warns


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("fresh_dir")
    ap.add_argument("--baseline",
                    default=os.path.dirname(
                        os.path.dirname(os.path.abspath(__file__))))
    ap.add_argument("--bench", action="append", default=[])
    ap.add_argument("--warn-ratio", type=float, default=1.5)
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

    all_drift, all_warns, compared = [], [], 0
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
        drift, _ = diff_table_runs(name, base, fresh)
        all_drift.extend(drift)
        all_warns.extend(diff_timings(name, base, fresh, args.warn_ratio))

    for w in all_warns:
        print("warn (timing): %s" % w)
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
          "invariants hold%s" %
          (compared,
           ", %d timing warning(s)" % len(all_warns) if all_warns else ""))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        sys.exit(0)
