#!/usr/bin/env python3
"""Builds the simulator from source and runs one benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload reconfig_stream --seed 1 --seconds 20 --trace 0

The first call configures and builds perfbench/CMakeLists.txt into
.bench_build/ (the simulator library from src/ plus the perfbench binary);
later calls only rebuild what changed. Build output goes to stderr, so the
last stdout line is always the benchmark's JSON result. Any other flag is
passed through to the binary (see perfbench/README.md).
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "bin", "perfbench")
PINS = os.path.join(BENCH_DIR, "pins.txt")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(2)


def check(cmd, timeout):
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if done.returncode != 0:
        fail(f"failed ({done.returncode}): {' '.join(cmd)}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja") is not None:
            cmd += ["-G", "Ninja"]
        check(cmd, BUILD_TIMEOUT_S)
    jobs = str(min(4, len(os.sched_getaffinity(0))))  # bounds compiler memory
    check(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
          BUILD_TIMEOUT_S)


def main(argv):
    build()
    try:
        done = subprocess.run([BINARY, *argv, "--pins", PINS], cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(done.stdout)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
