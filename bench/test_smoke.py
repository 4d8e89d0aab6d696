"""Smoke test of the benchmark's own code.

Runs every workload at its smallest size, untraced and traced, and checks
that the result line names every metric of ``BENCHMARK.json`` with its unit.
Run from the root of a checkout::

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_reported(workload, trace):
    proc = run_bench(
        f"--workload={workload}", "--seed=1", "--seconds=1", f"--trace={trace}", "--smoke"
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        reported = result["metrics"][m["name"]]
        assert reported["unit"] == m["unit"], m["name"]
        assert isinstance(reported["value"], float), m["name"]
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload=suite", "--seconds=1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_suite_inputs_match_the_test_fixture():
    """The suite workload draws the acceptance population of the tests."""
    name = "cflow_suite_fixture"
    spec = importlib.util.spec_from_file_location(name, ROOT / "tests" / "conftest.py")
    conftest = importlib.util.module_from_spec(spec)
    sys.modules[name] = conftest  # dataclasses look their module up here
    sys.path.insert(0, str(ROOT / "src"))
    try:
        spec.loader.exec_module(conftest)
    finally:
        sys.path.remove(str(ROOT / "src"))
        del sys.modules[name]
    sys.path.insert(0, str(BENCH))
    try:
        import inputs
    finally:
        sys.path.remove(str(BENCH))
    rng = np.random.default_rng(0)
    expected = [conftest.random_suite_case(rng) for _ in range(inputs.SUITE_SIZE)]
    for case, ref in zip(inputs.suite_cases(0), expected):
        np.testing.assert_array_equal(case.matrix, ref.matrix)
        assert case.blocks == ref.blocks
