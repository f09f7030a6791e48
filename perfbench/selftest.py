"""Self-test of the stage benchmark.

    python3 perfbench/selftest.py

Checks that the generator is deterministic, that metric names and units
have the allowed syntax and BENCHMARK.json matches workloads.py, that
the verdict rules of --compare hold on made-up runs, that a tiny run of
every workload passes every output check (error_rate 0) with a digest
that repeats, and that the benchmark refuses to run without semdisc's
sources.
"""
from __future__ import annotations

import dataclasses
import filecmp
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from workloads import (  # noqa: E402
    END_TO_END,
    NAME_RE,
    PER_LAYER,
    UNIT_RE,
    Metric,
    WORKLOADS,
    manifest,
)

TEST_DIR = run.WORK / "selftest"


def tiny(shape):
    """A scaled-down shape with the same structure."""
    return dataclasses.replace(
        shape,
        concepts=max(60, shape.concepts // 20),
        vocabulary=max(150, shape.vocabulary // 20),
        categories=min(shape.categories, 8),
        services=max(2 * shape.shards, shape.services // 20),
        hub_word_forms=min(shape.hub_word_forms, 5),
        tasks=20,
    )


class GeneratorTest(unittest.TestCase):
    def tearDown(self) -> None:
        shutil.rmtree(TEST_DIR, ignore_errors=True)

    def test_same_seed_same_bytes(self) -> None:
        for name in WORKLOADS:
            a = inputs.generate(name, 7, TEST_DIR / name / "a")
            b = inputs.generate(name, 7, TEST_DIR / name / "b")
            c = inputs.generate(name, 8, TEST_DIR / name / "c")
            self.assertEqual(a, b)
            files = sorted(p.name for p in (TEST_DIR / name / "a").iterdir())
            _, mismatch, errors = filecmp.cmpfiles(
                TEST_DIR / name / "a", TEST_DIR / name / "b", files, shallow=False
            )
            self.assertEqual((mismatch, errors), ([], []), name)
            self.assertNotEqual(
                (TEST_DIR / name / "a" / "lexicon.tsv").read_bytes(),
                (TEST_DIR / name / "c" / "lexicon.tsv").read_bytes(),
            )

    def test_task_lengths(self) -> None:
        for name, workload in WORKLOADS.items():
            if workload.shape.task_kind != "fragment":
                continue
            inputs.generate(name, 3, TEST_DIR / name)
            tasks = (TEST_DIR / name / "tasks.txt").read_text("utf-8").splitlines()
            self.assertEqual(len(tasks), workload.shape.tasks)
            for task in tasks:
                self.assertTrue(4 <= len(task.split()) <= 8, task)


class ManifestTest(unittest.TestCase):
    def test_names_and_units(self) -> None:
        names = [w for w in WORKLOADS] + [m.name for m in (*END_TO_END, *PER_LAYER)]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME_RE)
        for metric in (*END_TO_END, *PER_LAYER):
            self.assertRegex(metric.unit, UNIT_RE)
            self.assertIn(metric.better, ("lower", "higher"))
        for workload in WORKLOADS.values():
            self.assertLessEqual(len(workload.why), 200)
            self.assertNotIn("\n", workload.why)
            self.assertAlmostEqual(sum(workload.shares.values()), 1.0)

    def test_bounds(self) -> None:
        bounds = {m.name: m.bound for m in END_TO_END}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        for bound in bounds.values():
            self.assertTrue(0.0 < bound <= 0.25)

    def test_benchmark_json_is_generated(self) -> None:
        on_disk = json.loads((run.ROOT / "BENCHMARK.json").read_text("utf-8"))
        self.assertEqual(on_disk, manifest())


class CompareTest(unittest.TestCase):
    metric = Metric("latency_ms", "ms", "lower", 0.1)

    def test_improved(self) -> None:
        pairs = [(10.0 + i * 0.1, 8.0 + i * 0.1) for i in range(10)]
        self.assertEqual(compare.verdict(self.metric, pairs), "improved")

    def test_worse(self) -> None:
        pairs = [(10.0, 12.0 + i * 0.01) for i in range(10)]
        self.assertEqual(compare.verdict(self.metric, pairs), "worse")

    def test_unchanged(self) -> None:
        pairs = [(10.0 + (i % 3) * 0.1, 10.0 + (i % 2) * 0.1) for i in range(10)]
        self.assertEqual(compare.verdict(self.metric, pairs), "unchanged")

    def test_unresolved_when_spread_exceeds_bound(self) -> None:
        pairs = [(v, v * 1.02) for v in (6.0, 8.0, 10.0, 12.0, 14.0, 9.0, 11.0, 7.0)]
        self.assertEqual(compare.verdict(self.metric, pairs), "unresolved")


class SmokeTest(unittest.TestCase):
    def test_tiny_runs_pass_every_check(self) -> None:
        for name, workload in WORKLOADS.items():
            shape = tiny(workload.shape)
            first = run.run_once(name, 5, 0.2, 0, keep=False, shape=shape)
            again = run.run_once(name, 5, 0.2, 0, keep=False, shape=shape)
            traced = run.run_once(name, 5, 0.2, 1, keep=False, shape=shape)
            for result in (first, again, traced):
                self.assertTrue(result["correct"], (name, result["failed"]))
                self.assertEqual(result["failed"], 0)
            self.assertEqual(first["digest"], again["digest"])
            self.assertEqual(first["digest"], traced["digest"])
            self.assertEqual(set(first["metrics"]), {m.name for m in END_TO_END})
            self.assertEqual(set(traced["metrics"]), {m.name for m in PER_LAYER})
            for metric in END_TO_END:
                self.assertGreater(first["metrics"][metric.name]["value"], 0, metric.name)

    def test_refuses_tree_without_sources(self) -> None:
        bare = TEST_DIR / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "hub_concepts",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(TEST_DIR, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
