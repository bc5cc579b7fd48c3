"""Tests of the benchmark itself; run with ``python3 -m pytest perfbench``.

The workloads are shrunk so a run takes seconds; they go through the same
code paths as the full ones.
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
os.environ["COOPFORGE_THREADS"] = "1"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402
import recipes  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())

SMALL = {
    "ring-train": replace(bench.WORKLOADS["ring-train"], iterations=20, min_steps=20),
    "dot-train": replace(bench.WORKLOADS["dot-train"], iterations=2, min_steps=4),
    "dot-translate": replace(bench.WORKLOADS["dot-translate"], iterations=1, min_steps=12, setups=1),
}


def _counts(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if bench.unit(k) in ("count", "Mflop")}


def test_recipes_match_the_acceptance_suite():
    assert recipes.drift_from_tests(ROOT) == []


def test_declared_metrics_are_the_ones_reported():
    assert [w["name"] for w in DECLARED["workloads"]] == list(bench.WORKLOADS)
    layer_names = set(bench.PER_LAYER) | {"trace.overhead_pct"}
    assert {m["name"] for m in DECLARED["per_layer"]} <= layer_names
    for metric in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        assert bench.unit(metric["name"]) == metric["unit"], metric


@pytest.mark.parametrize("workload", list(SMALL))
def test_workload_smoke_and_repeatable_counts(workload, tmp_path):
    plain = bench.run(workload, 3, 0.0, False, 0.0, tmp_path, SMALL[workload])
    assert plain.correct, plain.outcome.errors
    for metric in DECLARED["end_to_end"]:
        value = plain.metrics[metric["name"]]
        assert value > 0 and value == value, (metric["name"], value)

    traced = [bench.run(workload, 3, 0.0, True, 0.0, tmp_path, SMALL[workload]) for _ in range(2)]
    for result in traced:
        assert result.correct, result.outcome.errors
        assert set(result.metrics) == set(bench.PER_LAYER) | {"trace.overhead_pct"}
    assert _counts(traced[0].metrics) == _counts(traced[1].metrics)
    assert {repr(r.outcome.fd_final) for r in [plain, *traced]} == {repr(plain.outcome.fd_final)}


def test_command_prints_the_declared_metrics_last():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ring-train", "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 100
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    for name in ("error_rate", *last["metrics"]):
        assert f"  {name} " in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ring-train", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
