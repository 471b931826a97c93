"""Byte-for-byte golden documents of a small seeded CLI pipeline.

A 6x4 base runs through ``generate``, two ``solve`` calls (population 6,
one iteration, archive 3), ``metrics`` and ``gantt``.  Every file the
pipeline writes is compared with the copy under ``tests/data/golden``,
the result documents with their ``wall_time_s`` line removed.  The
goldens pin the exact text of the documents, JSON texts that YAML
readers also read.

Re-record them (only when a format change is intended) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import os
import re
import tempfile
from pathlib import Path

import pytest

from efjsp.benchmark import random_base, write_base
from efjsp.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
FILES = (
    "base6x4.yaml",
    "result-1.yaml",
    "result-2.yaml",
    "metrics.yaml",
    "gantt.yaml",
    "gantt.svg",
)
_WALL_TIME = re.compile(r'^  "wall_time_s": .*\n', re.MULTILINE)


def run_pipeline(workdir: Path) -> dict[str, str]:
    """Run the pipeline inside ``workdir``; return each output's text.

    All paths are relative to ``workdir``, so the metrics report names
    the result files the same way wherever it runs.
    """
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        Path("base6x4.txt").write_text(write_base(random_base(6, 4, seed=6)))
        Path("config.yaml").write_text("population: 6\nmax_iter: 1\narchive_capacity: 3\n")
        steps = [
            ["generate", "base6x4.txt", "--seed", "3"],
            *(
                ["solve", "base6x4.yaml", "--config", "config.yaml", "--seed", seed,
                 "--threads", "1", "--out", f"result-{seed}.yaml"]
                for seed in ("1", "2")
            ),
            ["metrics", "result-1.yaml", "result-2.yaml", "--out", "metrics.yaml"],
            ["gantt", "result-1.yaml", "--solution", "0", "--out", "gantt"],
        ]
        for argv in steps:
            assert main(argv) == 0, argv
        return {name: _WALL_TIME.sub("", Path(name).read_text()) for name in FILES}
    finally:
        os.chdir(cwd)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return run_pipeline(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", FILES)
def test_pipeline_writes_golden_bytes(outputs, name):
    assert outputs[name] == (GOLDEN / name).read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in run_pipeline(Path(tmp)).items():
            (GOLDEN / name).write_text(text)
            print(GOLDEN / name)
