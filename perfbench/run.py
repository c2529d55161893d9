#!/usr/bin/env python3
"""Builds and runs the epoch-engine benchmark (see README.md here).

Run from the repository root:

    python3 perfbench/run.py --workload resolve --seed 1 --seconds 40 --trace 0

The first call configures and builds perfbench/ (the ppdc library from
src/ plus perfbench.cpp) as a Release build under $CARGO_TARGET_DIR, or
.bench_build when that is unset; later calls rebuild only what changed.
Build output goes to stderr, so the last stdout line is the program's JSON
result. The exit code is the program's, or non-zero without a result when
the build fails.
"""
import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def run(cmd, timeout, **kwargs):
    try:
        return subprocess.run(cmd, timeout=timeout, **kwargs).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: timed out after {timeout} s: {cmd[0]}",
              file=sys.stderr)
        return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build = (target / "perfbench").resolve()
    jobs = str(min(4, os.cpu_count() or 1))
    if not (build / "CMakeCache.txt").exists():
        rc = run(["cmake", "-S", str(HERE), "-B", str(build),
                  "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S,
                 stdout=sys.stderr)
        if rc != 0:
            return rc or 1
    rc = run(["cmake", "--build", str(build), "-j", jobs], BUILD_TIMEOUT_S,
             stdout=sys.stderr)
    if rc != 0:
        return rc

    cmd = [str(build / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(build / "work")]
    sys.stdout.flush()
    return run(cmd, RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
