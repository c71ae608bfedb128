#!/usr/bin/env python3
"""Discovery benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. Builds the measuring program from
the checkout's sources into .bench_build/perfbench (the first run builds the
library; later runs only check it is current), runs one workload, checks the
result against BENCHMARK.json, and prints that result as the last line of
standard output. Exits non-zero, printing no result, when the build, the run
or the result check fails. See perfbench/NOTES.md for what is measured.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
PROGRAM = os.path.join(BUILD, "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(PROGRAM):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    with open(log_path, "a") as log:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {step[:2]} failed: {e}")
            if done.returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build step {' '.join(step[:2])} exited {done.returncode}")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec, {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail(f"last output line is not JSON: {line!r}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    if not isinstance(result["correct"], bool):
        fail("'correct' is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            fail(f"'{key}' is not a whole number")
    if result["attempted"] < 1:
        fail("no discovery was attempted")
    _, expected = expected_metrics(trace)
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        fail(f"metric names differ from BENCHMARK.json: {sorted(set(metrics) ^ set(expected))}")
    for name, metric in metrics.items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"metric {name} has no finite value")
        if metric.get("unit") != expected[name]:
            fail(f"metric {name} has unit {metric.get('unit')!r}, expected {expected[name]!r}")
        if not trace and value <= 0:
            fail(f"end-to-end metric {name} read {value}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec, _ = expected_metrics(args.trace)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    build()
    command = [PROGRAM, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                             text=True, check=False)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S}s")
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        fail(f"benchmark program exited {run.returncode}")
    result = check_result(lines[-1], bool(args.trace))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
