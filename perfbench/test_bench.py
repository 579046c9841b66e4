#!/usr/bin/env python3
"""Self-test of the benchmark: runs every workload end to end at tiny size,
in both modes, and checks the output contract and the correctness gate.

    python3 perfbench/test_bench.py        (from the repository root)

The harness's own unit tests run with
`cargo test --release --offline --manifest-path perfbench/Cargo.toml`.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ["est_vs_est", "genome_vs_viral", "db_batch"]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=900)


class TinyWorkloads(unittest.TestCase):
    def check(self, workload, trace):
        r = run(RUN, "--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--tiny")
        self.assertEqual(r.returncode, 0, r.stderr[-3000:])
        out = json.loads(r.stdout.strip().splitlines()[-1])
        self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
        # The gate passed, the default seed's pinned digest included.
        self.assertTrue(out["correct"], r.stderr[-3000:])
        self.assertEqual(out["failed"], 0)
        self.assertGreaterEqual(out["attempted"], 1)
        declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(set(out["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = out["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            # Every metric is printed by name with its unit.
            self.assertRegex(r.stderr, rf"{m['name']}\s+\S+ {m['unit']}")
        for m in SPEC["end_to_end"]:
            if not trace:
                self.assertGreater(out["metrics"][m["name"]]["value"], 0, m["name"])
        self.assertIn("failed_ratio", r.stderr)
        res_file = os.path.join(ROOT, ".bench_work", "results",
                                f"{workload}-seed1-trace{trace}-tiny.json")
        with open(res_file) as f:
            res = json.load(f)
        self.assertEqual(set(res["host"]), {"nproc", "cpu_model", "git_ref", "source_digest"})
        self.assertIn("threads", res["settings"])
        self.assertEqual(res["failed_ratio"], 0)
        if trace:
            spans_file = os.path.join(ROOT, ".bench_work", f"{workload}-1-tiny", "trace.jsonl")
            with open(spans_file) as f:
                span = json.loads(f.readline())
            self.assertEqual(set(span), {"pass", "id", "name", "parent", "req", "start_us",
                                         "end_us"})

    def test_est_vs_est(self):
        self.check("est_vs_est", 0)
        self.check("est_vs_est", 1)

    def test_genome_vs_viral(self):
        self.check("genome_vs_viral", 0)
        self.check("genome_vs_viral", 1)

    def test_db_batch(self):
        self.check("db_batch", 0)
        self.check("db_batch", 1)


class SourceDigest(unittest.TestCase):
    def test_stable_across_a_rebuild(self):
        """Build output and caches do not enter the digest; sources do."""
        import importlib.util
        import tempfile
        spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        with tempfile.TemporaryDirectory() as root:
            def put(rel, text):
                path = os.path.join(root, rel)
                os.makedirs(os.path.dirname(path), exist_ok=True)
                with open(path, "w") as f:
                    f.write(text)
            put("Cargo.toml", "[workspace]\n")
            put("crates/core/src/lib.rs", "pub fn f() {}\n")
            put("perfbench/Cargo.toml", "[package]\n")
            put("perfbench/src/main.rs", "fn main() {}\n")
            before = bench.source_digest(root)
            put("perfbench/target/release/oris-perfbench", "binary 1")
            put("perfbench/target/release/.fingerprint/x.json", "{}")
            put(".bench_build/release/scoris_n", "binary 1")
            put("perfbench/__pycache__/run.cpython.pyc", "cache")
            self.assertEqual(bench.source_digest(root), before)
            put("perfbench/target/release/oris-perfbench", "binary 2")
            self.assertEqual(bench.source_digest(root), before)
            put("crates/core/src/lib.rs", "pub fn g() {}\n")
            self.assertNotEqual(bench.source_digest(root), before)


class BenchmarkAlone(unittest.TestCase):
    def test_fails_without_the_program(self):
        """With only BENCHMARK.json and the benchmark's files, the command
        exits non-zero and prints no result."""
        alone = os.path.join(ROOT, ".bench_work", "alone")
        shutil.rmtree(alone, ignore_errors=True)
        os.makedirs(alone)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
        shutil.copytree(HERE, os.path.join(alone, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__", "target"))
        r = run(*SPEC["command"][1:], "--workload", "est_vs_est", "--seed", "1",
                "--seconds", "1", "--trace", "0", cwd=alone)
        shutil.rmtree(alone, ignore_errors=True)
        self.assertNotEqual(r.returncode, 0)
        self.assertNotIn('"correct"', r.stdout)


if __name__ == "__main__":
    unittest.main()
