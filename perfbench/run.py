#!/usr/bin/env python3
"""PlugVolt benchmark entry point.

Builds the library and the benchmark binary from the checkout's sources
(into perfbench/_build), then runs one workload:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Workloads: sweep, serve, campaign (see README.md).  Every workload
prints the same metrics.  With --trace 1 the binary also writes its spans
to perfbench/_out/trace-<workload>-<seed>.jsonl and the workload's own
figures to perfbench/_out/figures-<workload>-<seed>.json.

Build output goes to stderr, so the last line of stdout is the result
JSON printed by the binary.  Exits non-zero without a result when the
build or the run fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(HERE, "_build")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=("sweep", "serve", "campaign"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    proc = subprocess.run([BINARY, args.workload, str(args.seed), str(args.seconds),
                           str(args.trace)], cwd=HERE)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
