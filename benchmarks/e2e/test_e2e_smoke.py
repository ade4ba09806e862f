"""Smoke tests of the end-to-end benchmark (``run.py``).

Every workload runs at ``--smoke`` size, untraced and traced, in a child
process, and must emit every metric ``BENCHMARK.json`` declares for that
mode, finite and with its declared unit, with correct outputs and no
failed operation.  Two more checks cover the command's edges: a copy
holding only the benchmark (no package source) must fail without a
result, and ``run.py compare`` must flag a metric that got worse.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory) -> dict:
    """Every workload × trace mode, two child processes at a time."""
    def run(case):
        out = tmp_path_factory.mktemp(f"{case[0]}-trace{case[1]}")
        return case, out, _run("--workload", case[0], "--smoke", "--trace", str(case[1]),
                               "--out", str(out))

    cases = [(workload, trace) for workload in WORKLOADS for trace in (0, 1)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        return {case: (out, proc) for case, out, proc in pool.map(run, cases)}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric(workload, trace, smoke_runs):
    out, proc = smoke_runs[workload, trace]
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert math.isfinite(emitted["value"]), metric["name"]
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    assert (out / "ledger.jsonl").is_file()


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "baseline", "__pycache__"))
    proc = _run("--workload", "batch-mesh", "--smoke", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _ledger(path: Path, latencies) -> None:
    records = [
        {"kind": "benchmark", "seed": seed,
         "config": {"bench": "e2e", "workload": "batch-mesh", "trace": 0, "smoke": False},
         "metrics": {"latency_p50_ms": value}}
        for seed, value in enumerate(latencies)
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")


def test_compare_flags_a_regression(tmp_path):
    _ledger(tmp_path / "a.jsonl", [100.0, 101.0, 102.0, 100.5])
    _ledger(tmp_path / "b.jsonl", [150.0, 151.0, 152.0, 150.5])
    worse = _run("compare", str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl"))
    assert worse.returncode == 1
    assert "worse" in worse.stdout
    same = _run("compare", str(tmp_path / "a.jsonl"), str(tmp_path / "a.jsonl"))
    assert same.returncode == 0
    assert "same" in same.stdout
