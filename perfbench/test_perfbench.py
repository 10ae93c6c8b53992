"""Self-tests of the benchmark (smoke-size inputs).

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py

Each test starts ``run.py`` the way a user would, so the subprocess
plumbing, metric names and units, and the output checks are all
exercised.  The full set takes about two minutes on two cores.
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


def _run(*args: str, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return proc.returncode, proc.stdout


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    code, stdout = _run(
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--smoke",
    )
    assert code == 0
    result = _result(stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        # end-to-end metrics are never zero
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["scan-mixed", "stream-inline", "paper-strategies"])
def test_perturbed_output_fails_the_run(workload):
    """One corrupted output (a pruned top-K entry, a book entry, a convex
    result below MaxMax) must fail its check and the run."""
    code, stdout = _run(
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--smoke", "--perturb",
    )
    result = _result(stdout)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert "failed_frac = 0 " not in stdout


def test_without_program_source_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    code, stdout = _run(
        "--workload", "scan-mixed", "--seed", "1", "--seconds", "1", cwd=tmp_path
    )
    assert code != 0
    assert stdout == ""
