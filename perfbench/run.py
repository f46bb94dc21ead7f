#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload gc_copy --seed 1 --seconds 20 --trace 0

Builds the library and the benchmark from the checkout's sources into
.bench_build (or $CARGO_TARGET_DIR), then runs one measurement. The build
log goes to standard error; standard output is the benchmark's own, whose
last line is the JSON result. With --trace 1 the spans are written to
.bench_build/spans-<workload>-<seed>.json.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("mutator", "gc_copy", "threads_gen")
# Set-up, warm-up and result output on top of --seconds.
RUN_SLACK_S = 120


def build_dir() -> Path:
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build(*targets: str) -> Path:
    """Configures (once) and builds the given targets; returns the build dir."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"perfbench: no library sources under {ROOT / 'src'}; "
                 "run from a full checkout of the repository")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs, "--target",
                    *targets], stdout=sys.stderr, check=True)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    try:
        out = build("perfbench")
    except subprocess.CalledProcessError as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    cmd = [str(out / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--spans-out",
                str(out / f"spans-{args.workload}-{args.seed}.json")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=args.seconds + RUN_SLACK_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
