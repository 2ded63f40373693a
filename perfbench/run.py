#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The engine is compiled from ../src together
with the benchmark program into .bench_build/perfbench (incremental after the
first run); build output goes to stderr, so the last line on stdout is the
program's JSON result. Exits non-zero without a result when the build fails,
when the program fails, or when it runs past its time limit.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def build(target):
    """Configures and builds `target`; returns the binary path or None."""
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", target, "-j", BUILD_JOBS],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}", file=sys.stderr)
            return None
    return os.path.join(BUILD_DIR, target)


def run(cmd):
    """Runs the benchmark program, relaying its stdout; kills it at the time limit."""
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own arithmetic tests")
    args = parser.parse_args()

    if args.self_test:
        binary = build("perfbench_selftest")
        return 2 if binary is None else run([binary])
    if not args.workload:
        parser.error("--workload is required")
    binary = build("perfbench")
    if binary is None:
        return 2
    sys.stdout.flush()
    return run([binary, "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--out", OUT_DIR])


if __name__ == "__main__":
    sys.exit(main())
