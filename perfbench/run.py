#!/usr/bin/env python3
"""Builds the simulator benchmark and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload fleet-commands --seed 1 --seconds 20 --trace 0

Workloads: fleet-commands, fleet-idle, protocol-7day, replay-corpus.
The benchmark program (vgbench) is built from source into .bench_build/perfbench the
first time; later runs only rebuild what changed. Build output and progress
go to standard error. The last line of standard output is the result JSON:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
Exits non-zero, printing no result, when the build or the run fails or when
any output was wrong.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "vgbench")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds vgbench (a no-op in under a second once built);
    output goes to stderr."""
    subprocess.run(
        ["cmake", "-S", HERE, "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "vgbench", "-j", jobs],
        stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"}
            and result["correct"] is True
            and result["failed"] == 0
            and result["attempted"] >= 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for flag in ("--workload", "--seed", "--seconds", "--trace"):
        parser.add_argument(flag, required=True)
    args = parser.parse_args()

    try:
        build()
        run = subprocess.run(
            [BINARY, "--workload", args.workload, "--seed", args.seed,
             "--seconds", args.seconds, "--trace", args.trace],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines or not valid_result(lines[-1]):
        print(f"run.py: vgbench failed (exit {run.returncode})", file=sys.stderr)
        return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
