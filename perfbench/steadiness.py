#!/usr/bin/env python3
"""Checks that the benchmark is steady: two sets of runs of one build agree.

    python3 perfbench/steadiness.py

Builds once, then runs set A and set B of RUNS runs each, on every workload
of BENCHMARK.json for its run_seconds, interleaved run by run (the set that
goes first alternates), each run on its own seed, so host drift on a scale
of minutes lands on both sets alike. For every end-to-end metric of every
workload it prints each set's median, quartiles and spread — the
interquartile range as a share of the median, from
statistics.quantiles(values, n=4) — and checks, against BENCHMARK.json's
bounds, that each set's spread is within the bound and that the two sets'
medians differ, either way, by no more than the bound.
The results, with nproc, load averages, the share of CPU time the
hypervisor stole during the runs and the git revision, go to
.bench_build/steadiness.json. Exits 1 if a check fails.
"""

import json
import os
import statistics
import subprocess
import sys
import time

import run as bench

RUNS = 10  # per set


def git_sha() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=bench.ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def cpu_jiffies():
    """(steal, total) jiffies of all CPUs since boot, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7], sum(fields)


def run_once(binary, workload, seed, seconds):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True,
                         timeout=seconds + bench.RUN_SLACK_S)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"run failed ({workload}, seed {seed}):\n{out.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"incorrect run ({workload}, seed {seed}): {lines[-1]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"),
            "values": values}


def main() -> int:
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]

    binary = bench.build("perfbench") / "perfbench"
    meta = {"git_sha": git_sha(), "nproc": os.cpu_count(),
            "loadavg_before": os.getloadavg(), "runs": RUNS,
            "seconds": seconds,
            "started": time.strftime("%Y-%m-%dT%H:%M:%S")}
    steal0, total0 = cpu_jiffies()
    samples = {s: {w: [] for w in workloads} for s in "AB"}
    for i in range(RUNS):
        for w in workloads:
            for s in ("AB" if i % 2 == 0 else "BA"):
                seed = 1 + i + (0 if s == "A" else RUNS)
                samples[s][w].append(run_once(binary, w, seed, seconds))
                print(f"run {i + 1}/{RUNS} set {s} {w} seed {seed}",
                      file=sys.stderr)
    meta["loadavg_after"] = os.getloadavg()
    steal1, total1 = cpu_jiffies()
    meta["steal_frac"] = (steal1 - steal0) / max(1, total1 - total0)

    ok = True
    report = {}
    print(f"nproc {meta['nproc']}, load {meta['loadavg_before']} -> "
          f"{meta['loadavg_after']}, steal {meta['steal_frac']:.3f}, "
          f"git {meta['git_sha']}")
    print(f"{'workload':<12} {'metric':<15} {'set':<3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sets = {s: summarize([r[name] for r in samples[s][w]])
                    for s in "AB"}
            a, b = sets["A"]["median"], sets["B"]["median"]
            apart = abs(b - a) / a
            # A spread over the bound fails; over a third of it warns (the
            # margin a steady benchmark keeps).
            problems, warnings = [], []
            for s in "AB":
                sp = sets[s]["spread"]
                if sp > bound:
                    problems.append(f"{s} spread over bound")
                elif sp > bound / 3:
                    warnings.append(f"{s} spread over bound/3")
            if apart > bound:
                problems.append(f"medians {apart:.3f} apart")
            ok &= not problems
            for s in "AB":
                r = sets[s]
                note = "; ".join(problems + warnings) if s == "B" else ""
                print(f"{w:<12} {name:<15} {s:<3} {r['median']:>12.6g} "
                      f"{r['q1']:>12.6g} {r['q3']:>12.6g} "
                      f"{r['spread']:>8.4f} {bound:>6}  {note}")
            report.setdefault(w, {})[name] = {
                "bound": bound, "sets": sets, "medians_apart": apart,
                "problems": problems, "warnings": warnings}
    out = bench.build_dir() / "steadiness.json"
    out.write_text(json.dumps({"meta": meta, "results": report}, indent=1))
    print(f"{'PASS' if ok else 'FAIL'}; results in {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
