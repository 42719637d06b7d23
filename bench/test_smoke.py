"""Smoke test of the benchmark itself: one op per workload, traced and not.

Checks that every metric BENCHMARK.json names is reported with its unit,
that failed_share is reported, and that a known defect failing far more ops
than its ceiling makes a run incorrect.  Asserts no timing.

    python3 -m pytest bench/test_smoke.py -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0",
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_one_op_reports_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    # known defects show in failed_share; failed counts only failures none of them covers
    assert result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in named}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert any(line.startswith("failed_share ") for line in lines[:-1])


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_known_defect_over_its_ceiling_makes_the_run_incorrect():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import run
    import workloads

    defect = workloads.Defect("a raises X", 0.1, (("a", "raised X"),))
    for every, over in ((40, []), (2, [defect])):
        tally = run.Tally((defect,))
        for i in range(40):
            tally.add({"a": None if i % every else "raised X: boom", "b": None}, bytes([i]))
        assert not tally.unknown
        assert tally.over_ceiling() == over
