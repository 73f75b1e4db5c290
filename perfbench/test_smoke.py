"""Smoke test of the benchmark: every workload at minimal length, names as declared.

Run from the repository root (it takes a few minutes, most of it the
default preset's calibration):

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*SPEC["command"], *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    return result


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_emits_the_end_to_end_metrics(workload):
    result = result_of(bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "0"))
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_emits_the_per_layer_metrics():
    # The traced run profiles every layer whatever the workload.
    workload = SPEC["workloads"][0]["name"]
    result = result_of(bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "1"))
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared("per_layer")
    assert result["metrics"]["trace.coverage"]["value"] >= 0.95


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    workload = SPEC["workloads"][0]["name"]
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
