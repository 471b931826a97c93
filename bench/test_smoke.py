"""Smoke test of the benchmark: every workload at a tiny size.

Run from the root of the repository:

    python3 -m pytest bench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import harness  # noqa: E402
from tracer import LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS, Checks  # noqa: E402

END_TO_END = {"setup_s", "wall_s", "hv", "peak_rss_mb"}


def tiny(name: str):
    w = WORKLOADS[name]
    if name == "oracle-sample":
        return replace(w, setup_reps=1)
    return replace(w, jobs=3, machines=2, population=4, max_iter=1, solver_seeds=2, setup_reps=1)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path):
    checks = Checks()
    metrics = harness.run_untraced(tiny(name), 3, 0.0, tmp_path, checks, [])
    assert set(metrics) == END_TO_END
    assert checks.attempted > 0 and not checks.failures
    assert all(value > 0 for value, _ in metrics.values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reports_every_layer_metric(name, tmp_path):
    checks = Checks()
    lines: list[str] = []
    metrics = harness.run_traced(tiny(name), 3, tmp_path, tmp_path, checks, lines, {})
    assert set(metrics) == set(LAYER_UNITS)
    assert not checks.failures, checks.failures
    assert list(tmp_path.glob("trace-*.json"))
    values = {k: v for k, (v, _) in metrics.items()}
    if name == "oracle-sample":
        assert values["oracle.chromosomes_per_s"] > 0
        assert values["encoding.evaluate.calls"] == 0
        assert values["local_search.vns.calls"] == 0
    else:
        assert values["optimizer.evals.vns"] > 0
        assert values["cli.solve.s"] > 0
        assert values["optimizer.archive.add.calls"] > 0


def test_command_prints_result_line_last(tmp_path):
    out = subprocess.run(
        [sys.executable, "bench/run_bench.py", "--workload", "oracle-sample",
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == END_TO_END


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "bench/run_bench.py", "--workload", "oracle-sample",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout
