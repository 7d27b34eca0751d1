#!/usr/bin/env python3
"""Entry point of the repository benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload cg|sync|translate --seed N \
        --seconds S --trace 0|1 [--smoke]

Builds parade_perfbench from the sources in this checkout (CMake, into
.bench_build/perfbench at the checkout root), runs it, and prints as the last
line one JSON object with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are the end_to_end list of BENCHMARK.json, with
--trace 1 the per_layer list. A per-layer metric the workload does not
exercise (a translator stage on `cg`, a DSM count on `translate`) reads 0.
Build output and the driver's progress go to stderr; the driver's own metric
lines go to stdout ahead of the result.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "parade_perfbench")
# A run measures for --seconds and then reports; anything near the 180 s
# limit means the program hung.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "runtime", "cluster.hpp")):
        fail(f"no ParADE sources under {os.path.join(ROOT, 'src')}")
    steps = [["cmake", "--build", BUILD, "--target", "parade_perfbench", "-j4"]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def load_specs(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return bench["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["cg", "sync", "translate"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="one unit per phase instead of --seconds of units")
    args = parser.parse_args()

    build()
    specs = load_specs(args.trace)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        command.append("--smoke")
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"no result within {RUN_TIMEOUT_S} s")
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("result "):
            result = json.loads(line[len("result "):])
        else:
            print(line)
    if proc.returncode != 0 or result is None:
        fail(f"parade_perfbench exited with {proc.returncode} and no result")

    measured = result["metrics"]
    metrics = {}
    for spec in specs:
        name, unit = spec["name"], spec["unit"]
        if name in measured:
            if measured[name]["unit"] != unit:
                fail(f"{name} measured in {measured[name]['unit']}, "
                     f"BENCHMARK.json says {unit}")
            metrics[name] = {"value": measured[name]["value"], "unit": unit}
        elif args.trace:
            metrics[name] = {"value": 0, "unit": unit}
        else:
            fail(f"end-to-end metric {name} was not measured")
    sys.stdout.flush()
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
