#!/usr/bin/env python3
"""Self-tests of the benchmark.

    python3 perfbench/selftest.py

1. perfbench_selftest: the percentile helper on known vectors and the oracle
   against real runs of the generated programs for two seeds.
2. Every metric name in BENCHMARK.json matches [A-Za-z0-9_.-]+ and every
   unit the contract's unit alphabet.
3. A real run of every workload in both modes, for BENCHMARK.json's
   run_seconds, prints in its JSON line exactly the metric names and units
   BENCHMARK.json lists for that mode, in the same order (about three and
   a half minutes).
4. run.py fails, without printing a result, in a directory that holds only
   BENCHMARK.json and perfbench/ (no library sources to build).
"""

import json
import re
import shutil
import subprocess
import sys

import run as bench

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

failures = []


def expect(cond, what):
    if not cond:
        failures.append(what)
        print(f"FAIL {what}")


def main() -> int:
    out = bench.build("perfbench", "perfbench_selftest")

    st = subprocess.run([str(out / "perfbench_selftest")],
                        capture_output=True, text=True)
    print(st.stdout, end="")
    expect(st.returncode == 0, "perfbench_selftest")

    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    for mode in ("end_to_end", "per_layer"):
        for m in spec[mode]:
            expect(NAME.match(m["name"]), f"metric name {m['name']!r}")
            expect(UNIT.match(m["unit"]), f"unit {m['unit']!r} of {m['name']}")

    for w in (w["name"] for w in spec["workloads"]):
        for trace, mode in (("0", "end_to_end"), ("1", "per_layer")):
            r = subprocess.run(
                [str(out / "perfbench"), "--workload", w, "--seed", "7",
                 "--seconds", str(spec["run_seconds"]), "--trace", trace],
                capture_output=True, text=True)
            last = (r.stdout.strip().splitlines() or [""])[-1]
            expect(r.returncode == 0, f"{w} --trace {trace} exits 0: "
                                      f"{r.stderr.strip()}")
            if r.returncode:
                continue
            result = json.loads(last)
            expect(list(result) == ["correct", "attempted", "failed",
                                    "metrics"], f"{w} result keys")
            expect(result["correct"] and result["failed"] == 0,
                   f"{w} --trace {trace} correct")
            printed = [(name, v["unit"])
                       for name, v in result["metrics"].items()]
            expect(printed == [(m["name"], m["unit"]) for m in spec[mode]],
                   f"{w} --trace {trace} prints BENCHMARK.json's {mode} "
                   f"names and units")

    bare = bench.build_dir() / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(bench.BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "mutator", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=bare, capture_output=True,
                       text=True, timeout=180)
    expect(r.returncode != 0 and '"metrics"' not in r.stdout,
           "run.py fails without printing a result when the sources are "
           "missing")
    shutil.rmtree(bare)

    print(f"{'FAIL' if failures else 'PASS'}: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
