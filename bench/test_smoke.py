"""Smoke tests of the benchmark itself.

    PYTHONPATH=src python -m pytest bench/

Every workload runs at about 1/20 of its size, untraced and traced, and
must answer correctly and report exactly the metrics, with the units,
that ``BENCHMARK.json`` declares.  The runner must also refuse to run in
a directory that holds the benchmark but not the package.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT, env=None):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_reports_the_declared_metrics(tmp_path, trace):
    saved = tmp_path / "runs.json"
    proc = _run("--smoke", "--trace", str(trace), "--json", str(saved))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    runs = json.loads(saved.read_text())["runs"]
    assert [r["workload"] for r in runs] == [
        w["name"] for w in SPEC["workloads"]
    ]
    declared = {
        m["name"]: m["unit"]
        for m in SPEC["per_layer" if trace else "end_to_end"]
    }
    for run in runs:
        assert run["correct"] and run["failed"] == 0, run
        assert run["attempted"] >= 1
        units = {name: m["unit"] for name, m in run["metrics"].items()}
        assert units == declared, run["workload"]


def test_last_line_is_the_result_object():
    proc = _run("--workload", "ingest-mixed", "--seed", "3",
                "--seconds", "0.5", "--trace", "0", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = _run("--workload", "prune-heavy", "--seed", "1",
                "--seconds", "1", "--trace", "0", cwd=tmp_path, env=env)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
