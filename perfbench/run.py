#!/usr/bin/env python3
"""Builds and runs the pipeline benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload drivers --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source tree. The harness is built from the tree's
src/ into .bench_build/perfbench on first use. The last line of stdout
is the result object {"correct", "attempted", "failed", "metrics"}; the
harness's per-program report precedes it, and a JSON record of the
per-program exact counts is written to .bench_build/perfbench/records/.

--smoke runs one pass of every workload, traced and untraced, checks
that the emitted metric names and units are exactly those of
BENCHMARK.json, and checks that the generated driver models reach their
known verdicts and iteration counts on a held-out seed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD, "slam_perfbench")
RECORDS = os.path.join(BUILD, "records")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the harness; quiet unless it fails."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", SOURCE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                code = -1
            if code != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail(f"build failed: {' '.join(step)}")


def run_harness(workload, seed, seconds, trace):
    """Runs the harness once; returns (stdout, parsed result object)."""
    os.makedirs(RECORDS, exist_ok=True)
    record = os.path.join(RECORDS, f"{workload}-seed{seed}-trace{trace}.json")
    cmd = [HARNESS, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--record", record]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: harness timed out")
    if proc.returncode != 0:
        fail(f"{workload}: harness exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{workload}: no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: malformed result line")
    return proc.stdout, result


def declared_metrics(spec, trace):
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def check_metrics(spec, workload, trace, result):
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    declared = declared_metrics(spec, trace)
    if emitted != declared:
        missing = sorted(set(declared) - set(emitted))
        extra = sorted(set(emitted) - set(declared))
        wrong = sorted(n for n in set(declared) & set(emitted)
                       if declared[n] != emitted[n])
        fail(f"{workload} trace {trace}: metrics differ from BENCHMARK.json "
             f"(missing {missing}, undeclared {extra}, wrong unit {wrong})")


def smoke(spec):
    # --seconds 0 runs exactly one measured pass.
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            _, result = run_harness(workload, 1, 0, trace)
            check_metrics(spec, workload, trace, result)
            if not result["correct"] or result["failed"]:
                fail(f"{workload} trace {trace}: {result['failed']} of "
                     f"{result['attempted']} runs failed")
            print(f"smoke: {workload} trace {trace}: ok "
                  f"({result['attempted']} runs)")
    # Held-out seed: the known answers (verdict and iteration count) hold
    # for every seed, so a correct run on seed 2 reproduces seed 1's.
    _, result = run_harness("drivers", 2, 0, 0)
    if not result["correct"]:
        fail("drivers seed 2: failed runs")
    print("smoke: held-out seed 2 reaches the known answers")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no toolkit sources next to perfbench/; run from a source tree")
    with open(spec_path) as f:
        spec = json.load(f)
    build()

    if args.smoke:
        smoke(spec)
        return
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    stdout, result = run_harness(args.workload, args.seed, args.seconds,
                                    args.trace)
    check_metrics(spec, args.workload, args.trace, result)
    sys.stdout.write(stdout)


if __name__ == "__main__":
    main()
