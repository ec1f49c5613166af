"""Smoke test of the benchmark itself: every workload at a tiny size, in
both modes, checked for the result schema and for metric names and units
that match ``BENCHMARK.json``.  Timings are never checked.

    python3 -m pytest bench/test_smoke.py -q
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as _handle:
    SPEC = json.load(_handle)

META_KEYS = {"git_commit", "seed", "python", "numpy", "scipy", "nproc", "cpu_model",
             "caches", "qspectra_threads_cap"}


def test_declared_workloads_are_the_runner_choices():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_workload_reports_declared_metrics(workload, trace, tmp_path):
    result, detail = run.run_workload(workload, seed=3, seconds=0.0, trace=bool(trace),
                                      tiny=True, workroot=str(tmp_path))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert math.isfinite(metric["value"])
    assert META_KEYS <= set(detail["meta"])
    assert detail["meta"]["seed"] == 3
    if trace:
        with open(detail["trace_file"], "r", encoding="utf-8") as handle:
            spans = json.load(handle)["spans"]
        assert spans and set(spans[0]) == {"id", "parent", "op", "name", "start", "end"}
    else:
        assert 50.0 <= detail["latency_tail_percentile"] < 100.0
        assert 0 <= detail["latency_tail_samples_beyond"] < result["attempted"]
        assert detail["host_probe"]["probes"] >= 1
        assert set(detail["raw"]) == {"ops_per_s", "latency_p50_ms", "latency_tail_ms"}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    completed = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "forward-batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert completed.returncode != 0
    assert completed.stdout == ""
