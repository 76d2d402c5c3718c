#!/usr/bin/env python3
"""Regenerates perfbench/pins.txt, the pinned output digests.

Run from the repository root after a change that is meant to alter
simulated results (never after a pure speed-up, which must leave every
digest unchanged):

    python3 perfbench/pin.py [--jobs N]

It pins the fixed work of a run of BENCHMARK.json's run_seconds for seeds
0..19 and the held-out seed 1009, on every workload.
"""

import argparse
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = list(range(20)) + [1009]
HEADER = ('# Output digests pinned per key: "<workload> <key> <digest>".\n'
          "# Regenerate with: python3 perfbench/pin.py (see perfbench/README.md).\n")


def digests(workload, seed, seconds):
    done = subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                           "--workload", workload, "--seed", str(seed), "--seconds",
                           str(seconds), "--print-digests"],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return done.stdout.strip().splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=2)
    jobs = parser.parse_args().jobs
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    tasks = [(w["name"], s, spec["run_seconds"]) for w in spec["workloads"] for s in SEEDS]
    subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload",
                    tasks[0][0], "--seconds", "1", "--print-digests"],
                   cwd=ROOT, stdout=subprocess.DEVNULL, check=True)  # build once
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        lines = [line for chunk in pool.map(lambda t: digests(*t), tasks) for line in chunk]
    with open(os.path.join(ROOT, "perfbench", "pins.txt"), "w") as f:
        f.write(HEADER + "\n".join(lines) + "\n")
    print(f"pinned {len(lines)} digests", file=sys.stderr)


if __name__ == "__main__":
    main()
