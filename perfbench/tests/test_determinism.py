"""The benchmark's own checks: reproducible counts and a clean refusal.

Run with ``python3 -m pytest perfbench/tests``; the repository's tier-1 run
does not collect this directory.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ["extract", "force-many", "sheaf-laws", "site-build"]


def bench_run(workload: str, trace: int, seconds: int = 1, hash_seed: str = "0") -> dict:
    """The result line of one run of the benchmark in a fresh process."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "11", "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, env=env, timeout=180, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def declared(section: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


def units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def counts(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items() if m["unit"] == "count"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_do_not_depend_on_the_hash_seed(workload):
    first = bench_run(workload, trace=1, hash_seed="1")
    second = bench_run(workload, trace=1, hash_seed="4242")
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert units(result) == declared("per_layer")
    assert sum(counts(first).values()) > 0
    assert counts(first) == counts(second)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "extract", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line_matches_benchmark_json(workload):
    result = bench_run(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert units(result) == declared("end_to_end")
