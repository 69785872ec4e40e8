#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. Builds perfbench/ (and through it
the cknn library) into $CARGO_TARGET_DIR (default .bench_build), runs
cknn_bench once in its own process, and prints as the last line of standard
output one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are BENCHMARK.json's end_to_end set; with --trace 1
they are its per_layer set, and the spans go to
<build dir>/trace-<workload>-<seed>.spans. Exits non-zero, without a
result, if the build or the run fails or a listed metric is missing.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Builds cknn_bench if needed; returns its path. Build logs go to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        raise RuntimeError("no CMakeLists.txt at %s: not a source checkout" % ROOT)
    out = os.path.join(build_dir(), "perfbench")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", "cknn_bench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(out, "cknn_bench")


def run_once(binary, workload, seed, seconds, trace):
    """Runs cknn_bench once; returns its full JSON result (every metric it
    printed, extras included)."""
    cmd = [binary, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%s" % seconds]
    if trace:
        cmd.append("--trace=" + os.path.join(
            build_dir(), "trace-%s-%d.spans" % (workload, seed)))
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("%s exited with %d" % (" ".join(cmd), proc.returncode))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("%s printed no result" % " ".join(cmd))
    return json.loads(lines[-1])


def select(result, trace):
    """Restricts a result to BENCHMARK.json's metric set for the mode."""
    wanted = spec()["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            raise RuntimeError("cknn_bench did not report %s in %s"
                               % (m["name"], m["unit"]))
        metrics[m["name"]] = got
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        names = [w["name"] for w in spec()["workloads"]]
        if args.workload not in names:
            raise RuntimeError("unknown workload %r (known: %s)"
                               % (args.workload, ", ".join(names)))
        binary = build()
        result = select(run_once(binary, args.workload, args.seed,
                                 args.seconds, args.trace), args.trace)
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        print("run.py: %s" % e, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
