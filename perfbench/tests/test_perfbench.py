"""Self-tests of the benchmark itself.

Run from the repository root (builds .bench_build/ on first use):

    python3 -m unittest discover -s perfbench/tests -v

They run each workload for one second, so they check the output contract,
not the numbers.
"""

import json
import math
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]
WORKLOADS = ["reconfig_stream", "serve_rated", "serve_overload"]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def no_duplicates(pairs):
    keys = [k for k, _ in pairs]
    if len(keys) != len(set(keys)):
        raise ValueError(f"duplicate keys in {keys}")
    return dict(pairs)


def run(workload, seed=1, trace=0, extra=()):
    """Runs one workload for one second; returns (returncode, machine, result)."""
    done = subprocess.run([*RUN, "--workload", workload, "--seed", str(seed), "--seconds", "1",
                           "--trace", str(trace), *extra],
                          cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    machine = json.loads(lines[-2])["machine"]
    result = json.loads(lines[-1], object_pairs_hook=no_duplicates)
    return done.returncode, machine, result


class MetricContract(unittest.TestCase):
    def check_metrics(self, result, expected):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(set(result["metrics"]), set(expected))
        for name, m in result["metrics"].items():
            self.assertRegex(name, NAME)
            self.assertEqual(set(m), {"value", "unit"})
            self.assertRegex(m["unit"], UNIT)
            self.assertEqual(m["unit"], expected[name], name)
            self.assertIsInstance(m["value"], (int, float), name)
            self.assertTrue(math.isfinite(m["value"]), name)

    def test_every_end_to_end_metric_once_and_nonzero(self):
        e2e, _ = declared()
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, machine, result = run(w)
                self.assertEqual(code, 0)
                self.check_metrics(result, e2e)
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                for name, m in result["metrics"].items():
                    self.assertNotEqual(m["value"], 0, name)
                self.assertEqual(machine["threads"], 1)
                self.assertEqual(machine["threads_started"], 0)
                self.assertNotEqual(machine["build_type"], "Debug")

    def test_every_per_layer_metric_once(self):
        _, layers = declared()
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, machine, result = run(w, trace=1)
                self.assertEqual(code, 0)
                self.check_metrics(result, layers)
                self.assertTrue(result["correct"])
                self.assertGreater(result["metrics"]["layers.coverage"]["value"], 0)
                self.assertLessEqual(machine["threads_started"], machine["nproc"])


class OutputCheck(unittest.TestCase):
    def test_corrupted_digest_is_a_failed_operation(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, _, result = run(w, extra=["--corrupt-digest"])
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], result["attempted"])

    def test_seed_changes_inputs_not_metric_set(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, _, a = run(w, seed=1)
                _, _, b = run(w, seed=2)
                self.assertEqual(set(a["metrics"]), set(b["metrics"]))
                digests = []
                for seed in (1, 2):
                    done = subprocess.run([*RUN, "--workload", w, "--seed", str(seed),
                                           "--seconds", "1", "--print-digests"],
                                          cwd=ROOT, stdout=subprocess.PIPE,
                                          stderr=subprocess.DEVNULL, text=True, timeout=600)
                    self.assertEqual(done.returncode, 0)
                    digests.append(done.stdout.split()[-1])
                self.assertNotEqual(digests[0], digests[1])


if __name__ == "__main__":
    unittest.main()
