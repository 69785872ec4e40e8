#!/usr/bin/env python3
"""Smoke check of cknn_bench at --scale=smoke.

    python3 perfbench/smoke.py --binary <path to cknn_bench>

Registered as the `bench_smoke_cknn_bench` test (label bench-smoke) of the
perfbench CMake project. Runs every workload untraced and traced and checks
that each run is correct (oracle and mirror agree, the oracle's self-test
passed), that no operation failed (none is planned to: the hostile probe's
two requests must be rejected, and the probe fails the run otherwise), and
that every BENCHMARK.json metric of the mode is printed with its unit. Then
it shows that the seed reaches the generator: the held-out seed 7
reproduces its own inputs and differs from the default seed 42.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SECONDS = "0.5"


def run(binary, workload, seed, trace_dir=None):
    cmd = [binary, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=" + SECONDS, "--scale=smoke"]
    if trace_dir:
        cmd.append("--trace=" + os.path.join(trace_dir, workload + ".spans"))
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=60)
    if proc.returncode != 0:
        sys.exit("%s exited with %d:\n%s" % (cmd, proc.returncode, proc.stderr))
    digest = re.search(r"cknn_bench: inputs ([0-9a-f]+)", proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1]), digest.group(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary", required=True)
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    trace_dir = os.path.dirname(os.path.abspath(args.binary))
    start = time.monotonic()
    errors = []
    digests = {}
    for w in (x["name"] for x in spec["workloads"]):
        for traced in (False, True):
            res, digests[w] = run(args.binary, w, 42,
                                  trace_dir if traced else None)
            where = "%s%s" % (w, " (traced)" if traced else "")
            if not res["correct"]:
                errors.append(where + ": correct is false")
            if res["attempted"] < 1 or res["failed"] != 0:
                errors.append("%s: %d of %d operations failed, 0 planned"
                              % (where, res["failed"], res["attempted"]))
            for m in spec["per_layer" if traced else "end_to_end"]:
                got = res["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    errors.append("%s: %s not printed in %s"
                                  % (where, m["name"], m["unit"]))
            if traced and not os.path.getsize(
                    os.path.join(trace_dir, w + ".spans")):
                errors.append(where + ": no spans written")
            if traced and w == "serve_saturate_ima" and \
                    res["metrics"]["serve.hostile_ticks"]["value"] < 2:
                errors.append(where + ": the hostile probe did not run")
    held_out = [run(args.binary, "table2_gma", 7)[1] for _ in range(2)]
    if held_out[0] != held_out[1]:
        errors.append("seed 7 did not reproduce its inputs")
    if held_out[0] == digests["table2_gma"]:
        errors.append("seeds 7 and 42 generated the same inputs")
    for e in errors:
        print("FAIL " + e)
    print("%d workloads, %d problems, %.1f s"
          % (len(digests), len(errors), time.monotonic() - start))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
