#!/usr/bin/env python3
"""Run-to-run steadiness of the end-to-end benchmark.

    python3 e2ebench/steadiness.py [--runs 10] [--seconds S]

Runs every workload of BENCHMARK.json --runs times with seeds 1, 2, ...,
untraced, for --seconds each (default: its run_seconds), alternating
the workload order between rounds so slow drift of the host hits every
workload alike. Prints, per workload and metric, the median, the first and
third quartile (statistics.quantiles(values, n=4)), the spread (Q3-Q1)/median
and the metric's bound from BENCHMARK.json, plus the failed/attempted shares
seen and the wall time per run, headed by the CPU count.
"""
import argparse
import fractions
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {w: {} for w in workloads}
    shares = {w: set() for w in workloads}
    walls = {w: [] for w in workloads}
    for i in range(args.runs):
        seed = 1 + i
        for w in (workloads if i % 2 == 0 else workloads[::-1]):
            t0 = time.time()
            p = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            walls[w].append(time.time() - t0)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                sys.stderr.write(p.stderr[-2000:])
                sys.exit("%s seed %d failed (exit %d)" % (w, seed, p.returncode))
            res = json.loads(lines[-1])
            if not res["correct"]:
                sys.exit("%s seed %d: outputs incorrect" % (w, seed))
            shares[w].add(str(fractions.Fraction(res["failed"], res["attempted"])))
            for name, m in res["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print("run %d/%d %-14s seed %-3d %.1f s  %s" % (
                i + 1, args.runs, w, seed, walls[w][-1],
                " ".join("%s=%.4g" % (k, m["value"]) for k, m in sorted(res["metrics"].items()))),
                file=sys.stderr)

    print("nproc %d, %d runs per workload, %g s each" % (os.cpu_count(), args.runs,
                                                         args.seconds))
    print("%-14s %-28s %12s %12s %12s %8s %6s" % ("workload", "metric", "median", "q1",
                                                 "q3", "spread", "bound"))
    for w in workloads:
        for name, vs in sorted(values[w].items()):
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
            med = statistics.median(vs)
            spread = (q3 - q1) / med if med else float("nan")
            b = bounds.get(name)
            print("%-14s %-28s %12.4g %12.4g %12.4g %8.4f %6s" % (
                w, name, med, q1, q3, spread, "-" if b is None else b))
        failed = sorted(shares[w])
        print("%-14s failed shares %s; wall per run %.1f-%.1f s" % (
            w, ", ".join(failed), min(walls[w]), max(walls[w])))


if __name__ == "__main__":
    main()
