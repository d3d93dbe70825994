#!/usr/bin/env python3
"""Builds the FragDB benchmark from source and runs one workload.

Run from the root of a FragDB checkout:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0

The first call configures and builds perfbench/ (which compiles src/) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset;
later calls find the build up to date. The binary's output is passed
through: its last stdout line is the JSON result. With --trace 1 the spans
are written to <build dir>/spans-<workload>-s<seed>.jsonl.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

WORKLOADS = ("grid", "dense", "consensus", "dense_pdes")
RUN_TIMEOUT_S = 170
# Parallel compile jobs: the machine's CPUs, at most 8 to bound memory.
BUILD_JOBS = min(os.cpu_count() or 1, 8)


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no FragDB sources (src/CMakeLists.txt) under " + root)
    os.makedirs(build_dir, exist_ok=True)
    # One build at a time per build directory.
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                          "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "--target",
                      "fragdb_perfbench", "-j", str(BUILD_JOBS)])
        for step in steps:
            done = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stdout)
                fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "fragdb_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, base, "perfbench")
    binary = build(root, build_dir)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        command += ["--trace_out", os.path.join(
            build_dir, f"spans-{args.workload}-s{args.seed}.jsonl")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run did not finish within {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail(f"fragdb_perfbench exited with {done.returncode}")
    try:
        json.loads(done.stdout.rstrip("\n").split("\n")[-1])
    except ValueError:
        sys.stderr.write(done.stdout)
        fail("fragdb_perfbench printed no JSON result")
    sys.stdout.write(done.stdout)


if __name__ == "__main__":
    main()
