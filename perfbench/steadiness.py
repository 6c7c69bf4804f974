#!/usr/bin/env python3
"""Run each workload with several seeds and gate every end-to-end metric's
spread against a third of its bound (setup_s: against its whole bound).

    python3 perfbench/steadiness.py [--runs 10] [--workload sweep] [--first-seed 1]
                                    [--traced]

Spread is (Q3 - Q1) / median over the runs, with
statistics.quantiles(n=4).  Every run must print exactly the end-to-end
metrics of BENCHMARK.json, each in its unit.  A run that does not, a run
that fails or reports correct=false, a failed/attempted share that differs
between runs of a workload, and a spread at or above its limit all make
the exit code 1.  With --traced, one more run per workload (--trace 1)
must print exactly the per-layer metrics, none of them 0.

setup_s is one cold set-up per run by design (a second set-up in the same
process is a warm one), so its spread is that of a single sample; it is
held to its whole bound, the margin by which a median over runs may move.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, wl, seed, trace):
    """The result line of one run, or None (reported) when the run failed."""
    out = subprocess.run(spec["command"] + ["--workload", wl, "--seed", str(seed),
                         "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        print(f"{wl} seed {seed} trace {trace}: exit {out.returncode}\n{out.stderr[-2000:]}")
        return None
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        print(f"{wl} seed {seed} trace {trace}: correct=false")
        return None
    return res


def names_ok(res, manifest, wl, seed):
    """True when `res` prints exactly the metrics of `manifest`, in their units."""
    want = {m["name"]: m["unit"] for m in manifest}
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    if got != want:
        print(f"{wl} seed {seed}: metrics {got} != manifest {want}")
        return False
    return True


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True
    for wl in workloads:
        values, shares, runs = {}, set(), 0
        for i in range(args.runs):
            seed = args.first_seed + i
            res = run_once(spec, wl, seed, 0)
            if res is None or not names_ok(res, spec["end_to_end"], wl, seed):
                ok = False
                continue
            runs += 1
            shares.add(f'{res["failed"] / res["attempted"]:.12f}')
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {wl}: {runs} runs, failed shares {sorted(shares)}")
        if len(shares) > 1 or runs < 2:
            ok = False
            continue
        for name, v in values.items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]["bound"]
            limit = bound if name == "setup_s" else bound / 3
            wide = spread >= limit
            ok = ok and not wide
            print(f"  {name:26s} median {med:.6g} {bounds[name]['unit']:6s} "
                  f"q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f} limit {limit:.4f}"
                  f"{'  WIDE' if wide else ''}")
            print("    values " + " ".join(f"{x:.6g}" for x in v))
        if args.traced:
            res = run_once(spec, wl, args.first_seed, 1)
            if res is None or not names_ok(res, spec["per_layer"], wl, args.first_seed):
                ok = False
            elif any(m["value"] == 0 for m in res["metrics"].values()):
                print(f"{wl} traced: a per-layer metric reads 0")
                ok = False
            else:
                print(f"  traced: {json.dumps(res['metrics'])}")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
