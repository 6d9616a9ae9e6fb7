"""The benchmark's own checks; slow (a few minutes), so outside tier-1.

    python3 -m pytest perfbench/test_counters.py

Deterministic counters must repeat exactly across two runs of one seed and
between the untraced and the traced run; each run must pass its checks and
print exactly the metrics BENCHMARK.json lists; and outside a source checkout
the command must fail without printing a result.
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
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(cwd: Path, workload: str, trace: int, seed: int = 3):
    proc = subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc


def report_and_result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counters_repeat(workload):
    first, r1 = report_and_result(run(ROOT, workload, 0))
    second, r2 = report_and_result(run(ROOT, workload, 0))
    traced, rt = report_and_result(run(ROOT, workload, 1))
    assert first["counters"] == second["counters"] == traced["counters"]
    for result, key in ((r1, "end_to_end"), (r2, "end_to_end"), (rt, "per_layer")):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
        if key == "end_to_end":
            assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
