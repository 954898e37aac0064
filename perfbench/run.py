#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper-grid|serve-paper|fleet \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --workload paper-grid --seed 42 --write-reference

The first call configures and builds perfbench/CMakeLists.txt (the library
sources plus the benchmark, Release) into .bench_build/perfbench; later
calls only rebuild what changed. Build output goes to stderr; the last line
of stdout is the benchmark's JSON result. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench-run")
BINARY = os.path.join(BUILD_DIR, "perfbench")


def default_seconds():
    """The run length BENCHMARK.json declares, or None without that file."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return float(json.load(f)["run_seconds"])
    except (OSError, ValueError, KeyError):
        return None


def run_timeout(seconds):
    """A traced run measures about 1.5 x --seconds; set-up, the last pass
    and the checks add less than a minute on top."""
    return 60 + 2 * seconds


def build():
    """Configures (once) and builds the benchmark; returns True on success."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("error: no library sources (src/) next to perfbench/",
              file=sys.stderr)
        return False
    os.makedirs(BUILD_DIR, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("error: build step failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return os.path.exists(BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=default_seconds())
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()

    if not build():
        return 1
    if args.selftest:
        cmd = [BINARY, "--selftest"]
    else:
        if not args.workload:
            parser.error("--workload is required")
        if args.seconds is None:
            parser.error("--seconds is required")
        os.makedirs(WORK_DIR, exist_ok=True)
        cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--reference-dir", os.path.join(BENCH_DIR, "reference"),
               "--work-dir", WORK_DIR]
        if args.write_reference:
            cmd.append("--write-reference")
    sys.stdout.flush()
    timeout = run_timeout(args.seconds or 0)
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("error: benchmark exceeded %g s" % timeout, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
