#!/usr/bin/env python3
"""The benchmark's own tests. Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

They build the driver through perfbench/run.py (so the first run compiles),
then check the calibration reference op, the seeded input stream, smoke
runs of every workload, and that the benchmark refuses to run without the
repository's sources.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEEDED = ["explore-matrix", "dpor-search", "svc-waves"]  # paper-tables keeps the paper's seeds


def run(*args):
    return subprocess.run(RUN + list(args), cwd=ROOT, capture_output=True, text=True)


def cal_ref_sources():
    sources = {}
    for name in ("cal_ref.h", "cal_ref.cpp"):
        with open(os.path.join(HERE, "driver", name)) as f:
            sources[name] = f.read()
    return sources


class ReferenceOp(unittest.TestCase):
    def test_includes_no_repository_header(self):
        for name, text in cal_ref_sources().items():
            for inc in re.findall(r'^\s*#\s*include\s*([<"][^>"]+[>"])', text, re.M):
                self.assertTrue(inc.startswith("<") or inc == '"cal_ref.h"',
                                f"{name} includes {inc}")

    def test_allocates_only_from_its_own_pool(self):
        code = {name: re.sub(r"//[^\n]*|^\s*#\s*include[^\n]*", "", text, flags=re.M)
                for name, text in cal_ref_sources().items()}
        for name, text in code.items():
            for banned in (r"\bmalloc\b", r"\bcalloc\b", r"\brealloc\b", r"\bmake_unique\b",
                           r"\bmake_shared\b", r"std::function", r"std::string\b",
                           r"std::(vector|deque|list|map|set|unordered_\w+)\s*<",
                           r"(?<!::)\bnew\b(?!_object)"):
                self.assertIsNone(re.search(banned, text), f"{name}: {banned}")
        # The pool's only upstream is a fixed buffer with no fallback.
        self.assertIn("std::pmr::null_memory_resource()", code["cal_ref.cpp"])
        got = run("--self-test")
        self.assertEqual(got.returncode, 0, got.stdout + got.stderr)
        self.assertIn("self-test: ok", got.stdout)


class Calibration(unittest.TestCase):
    def test_records_reference_and_every_layer_target(self):
        with open(os.path.join(HERE, "calibration.json")) as f:
            cal = json.load(f)
        self.assertGreater(cal["cal_ref_ms"], 0)
        self.assertEqual(set(cal["cadence"]), set(WORKLOADS) | {"all"})
        self.assertEqual(list(cal["per_layer_targets"]), [m["name"] for m in SPEC["per_layer"]])


class SeededInputs(unittest.TestCase):
    def dump(self, workload, seed):
        got = run("--workload", workload, "--seed", str(seed), "--dump-inputs")
        self.assertEqual(got.returncode, 0, got.stderr)
        return got.stdout

    def test_one_seed_one_input_stream(self):
        for w in WORKLOADS:
            first = self.dump(w, 7)
            self.assertTrue(first)
            self.assertEqual(first, self.dump(w, 7), w)
            if w in SEEDED:
                self.assertNotEqual(first, self.dump(w, 8), w)
            else:
                self.assertEqual(first, self.dump(w, 8), w)


class Smoke(unittest.TestCase):
    def check(self, workload, trace, specs):
        got = run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
                  "--smoke")
        self.assertEqual(got.returncode, 0, got.stderr[-2000:])
        lines = got.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], got.stdout)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in specs])
        for m in specs:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"], m["name"])
            self.assertIn(f"metric {m['name']} ", re.sub(r" +", " ", got.stdout))
        self.assertIn("metric error_rate 0 1", re.sub(r" +", " ", got.stdout))
        self.assertTrue(any(l.startswith("machine cpu=") for l in lines))

    def test_every_metric_by_name_with_unit(self):
        for w in WORKLOADS:
            with self.subTest(workload=w, trace=0):
                self.check(w, 0, SPEC["end_to_end"])
            with self.subTest(workload=w, trace=1):
                self.check(w, 1, SPEC["per_layer"])


class WithoutSources(unittest.TestCase):
    def test_refuses_to_run(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        got = subprocess.run([sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                              "--seed", "1", "--seconds", "1", "--trace", "0"],
                             cwd=bare, capture_output=True, text=True, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(got.returncode, 0)
        self.assertNotIn('"correct"', got.stdout)


if __name__ == "__main__":
    unittest.main()
