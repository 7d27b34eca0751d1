#!/usr/bin/env python3
"""Smoke test of the benchmark: one unit of each workload, untraced and traced.

    python3 perfbench/smoke_test.py

Checks that every run is correct and prints the result line in the agreed
shape, that every metric BENCHMARK.json names is reported with its unit, and
that every per-layer metric is actually measured (printed by the driver, not
filled in as 0) by at least one workload. Exits non-zero on the first
failure.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        stdout=subprocess.PIPE, text=True, timeout=900)
    assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    printed = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) == 4 and fields[0] == "metric":
            printed[fields[1]] = fields[3]
    return result, printed


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    measured_somewhere = set()
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, specs in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            result, printed = run(workload, trace)
            where = f"{workload} trace={trace}"
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
            assert result["correct"] is True and result["failed"] == 0, where
            assert result["attempted"] >= 1, where
            assert set(result["metrics"]) == {s["name"] for s in specs}, where
            for spec in specs:
                name, unit = spec["name"], spec["unit"]
                assert result["metrics"][name]["unit"] == unit, f"{where}: {name}"
                if trace == 0:
                    assert printed.get(name) == unit, f"{where}: {name} not printed"
                    assert result["metrics"][name]["value"] > 0, f"{where}: {name} is 0"
                elif name in printed:
                    assert printed[name] == unit, f"{where}: {name} unit"
                    measured_somewhere.add(name)
            print(f"ok {where}: {len(specs)} metrics")
    unmeasured = {s["name"] for s in bench["per_layer"]} - measured_somewhere
    assert not unmeasured, f"per-layer metrics no workload measures: {sorted(unmeasured)}"
    print("smoke test passed")


if __name__ == "__main__":
    main()
