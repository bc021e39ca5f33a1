"""Smoke tests of the benchmark: every workload at tiny size, untraced and
traced, through the same command and correctness gate as a real run."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path[:0] = [str(ROOT / "src"), str(HERE)]
import qprank  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / SPEC["command"][1]), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_meets_the_result_contract(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "0.1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_gate_flags_wrong_results():
    checks = workloads.Checks()
    op = checks.op("item")
    checks.distribution(op, "unnormalized", np.array([0.5, 0.6]), 2)
    checks.close(op, "off by 1e-8", "quantum", np.zeros(3), np.full(3, 1e-8))
    checks.close(op, "within tolerance", "classical", np.zeros(3), np.full(3, 1e-13))
    assert checks.failed == 1 and len(checks.failures["item"]) == 2
    assert workloads.mismatch("digest", "abc", "abd") is not None


def test_removed_function_is_reported_absent():
    wrapped = [name for name in tracing.Tracer(qprank).wrapped
               if name != "szegedy.build_dynamical_subspace"]
    metrics, absent = tracing.layer_metrics([], wrapped, rounds=1)
    assert absent == ["szegedy.subspace_s", "szegedy.subspace_fill"]
    assert metrics["szegedy.subspace_s"]["value"] == 0.0


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
