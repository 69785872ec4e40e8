#!/usr/bin/env python3
"""Runs the benchmark several times and reports medians, quartiles and spreads.

    python3 perfbench/spread.py [--runs N] [--sets K] [--workloads a,b]
                                [--seed N] [--trace]

Each run is one cknn_bench process per workload; the workload order rotates
from run to run and every run uses the next seed. For every metric it prints
the median and quartiles (statistics.quantiles, n=4) with units, and the
spread (q3 - q1) / median next to the metric's bound. With --sets K it runs
K sets of N runs and prints how far each set's median lies from the first
set's, against the bound. Exits non-zero on an oracle mismatch or failed
operation, or on an invalid open-loop run (gen.lag_ms_p99 above 1 ms).
"""

import argparse
import statistics
import sys

import run as bench

MAX_LAG_MS = 1.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    spec = bench.spec()
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    seconds = spec["run_seconds"]
    metric_spec = spec["per_layer" if args.trace else "end_to_end"]
    binary = bench.build()

    ok = True
    results = {}  # (set, workload) -> [result]
    seed = args.seed
    for s in range(args.sets):
        for i in range(args.runs):
            order = workloads[i % len(workloads):] + workloads[:i % len(workloads)]
            for w in order:
                full = bench.run_once(binary, w, seed, seconds, args.trace)
                res = bench.select(full, args.trace)
                lag = full["metrics"].get("gen.lag_ms_p99", {}).get("value", 0.0)
                results.setdefault((s, w), []).append(res)
                status = "ok"
                if not res["correct"] or res["failed"] != 0:
                    status = "WRONG RESULT OR FAILED OPERATION"
                    ok = False
                elif lag > MAX_LAG_MS:
                    status = "INVALID: generator lag p99 %.3f ms" % lag
                    ok = False
                print("set %d run %d %-20s seed %-4d %s" % (s, i, w, seed, status),
                      file=sys.stderr, flush=True)
                seed += 1

    print("%-20s %-34s %-9s %12s %12s %12s %8s %6s"
          % ("workload", "metric", "unit", "median", "q1", "q3", "spread", "bound"))
    for w in workloads:
        for m in metric_spec:
            first_median = None
            for s in range(args.sets):
                values = [r["metrics"][m["name"]]["value"] for r in results[(s, w)]]
                med = statistics.median(values)
                q1, _, q3 = (statistics.quantiles(values, n=4)
                             if len(values) > 1 else (med, med, med))
                spread = (q3 - q1) / med if med else 0.0
                bound = m.get("bound")
                note = ""
                if first_median is None:
                    first_median = med
                elif first_median:
                    note = " drift %+.3f" % ((med - first_median) / first_median)
                print("%-20s %-34s %-9s %12.6g %12.6g %12.6g %8.3f %6s%s"
                      % (w, m["name"], m["unit"], med, q1, q3, spread,
                         "-" if bound is None else bound, note))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
