#!/usr/bin/env python3
"""Checks that tools/bench_diff.py fails on what it must catch.

Copies the committed BENCH_*.json files into two scratch directories,
a baseline and a fresh output, perturbs the fresh copy one way at a
time, and requires bench_diff.py to exit 1 on each perturbation and 0 on
the unmodified copy:

  - a counter changed in a row that a same-key row used to shadow (the
    Goldberg polyDeep/8 row of E7, the compiled+liveness row of E5);
  - a run key that occurs twice;
  - a threaded row whose task.gc_requests differs from task.world_stops;
  - a missing file.

Usage: tools/bench_diff_test.py   (from anywhere; exit 0 when all pass)
"""

import glob
import json
import os
import shutil
import subprocess
import sys
import tempfile

TOOLS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TOOLS)
DIFF = os.path.join(TOOLS, "bench_diff.py")


def load(path):
    with open(path) as f:
        return json.load(f)


def save(path, doc):
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)


def find_run(doc, **fields):
    """The first row of doc whose fields match: the one a later row with
    the same key would shadow."""
    for run in doc["table_runs"]:
        if all(run.get(k) == v for k, v in fields.items()):
            return run
    raise SystemExit("bench_diff_test: no row matches %s" % fields)


def edit(name, change):
    """A perturbation: rewrites BENCH_<name>.json in the fresh copy."""
    def apply(fresh):
        path = os.path.join(fresh, "BENCH_%s.json" % name)
        doc = load(path)
        change(doc)
        save(path, doc)
    return apply


def perturb(counter, fn, **fields):
    """Replaces a counter of the first row matching fields by fn(value)."""
    def change(doc):
        counters = find_run(doc, **fields)["counters"]
        counters[counter] = fn(counters[counter])
    return change


def duplicate_first(doc):
    doc["table_runs"].append(dict(doc["table_runs"][0]))


def threaded_request_lost(doc):
    run = next(r for r in doc["table_runs"] if r.get("threads", 0) >= 2)
    run["counters"]["task.gc_requests"] += 1


def remove(name):
    def apply(fresh):
        os.remove(os.path.join(fresh, "BENCH_%s.json" % name))
    return apply


CASES = [
    ("unmodified copy", None, 0),
    ("Goldberg polyDeep/8 objects visited + 1",
     edit("poly", perturb("gc.objects_visited", lambda v: v + 1,
                          workload="polyDeep/8",
                          strategy="compiled-tagfree")), 1),
    ("compiled+liveness words visited x 2",
     edit("liveness", perturb("gc.words_visited", lambda v: v * 2,
                              workload="deadVars",
                              strategy="compiled-tagfree")), 1),
    ("duplicated run key", edit("pause", duplicate_first), 1),
    ("threaded row with gc_requests != world_stops",
     edit("tasking", threaded_request_lost), 1),
    ("missing file", remove("mutator"), 1),
]


def main():
    committed = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))
    if not committed:
        print("bench_diff_test: no BENCH_*.json in %s" % ROOT)
        return 1
    failures = 0
    for title, perturb, want in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            base = os.path.join(tmp, "base")
            fresh = os.path.join(tmp, "fresh")
            for d in (base, fresh):
                os.mkdir(d)
                for path in committed:
                    shutil.copy(path, d)
            if perturb:
                perturb(fresh)
            r = subprocess.run([sys.executable, DIFF, fresh, "--baseline",
                                base], capture_output=True, text=True)
        ok = r.returncode == want
        failures += not ok
        print("%s: %s (exit %d, want %d)" %
              ("ok" if ok else "FAIL", title, r.returncode, want))
        if not ok:
            print(r.stdout + r.stderr)
    print("bench_diff_test: %s" %
          ("%d failure(s)" % failures if failures else "all passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
