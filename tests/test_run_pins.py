"""``run`` reproduces recorded archives and traces draw for draw.

Three generated instances (6x4, 10x6, 20x10), each solved with its own
seed under four configurations: the default loop and each of the three
ablations (the third is a zero VNS budget).  Every configuration uses population
12, 4 iterations and archive capacity 10.  The pin file stores the final
archive entries in order (os, mv, cmax, tec) and the archive points of
every trace entry.

Re-record (only when the solver's behaviour is meant to change) with
``PYTHONPATH=src python tests/test_run_pins.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from efjsp.benchmark import extend_instance, random_base
from efjsp.optimizer import AlgorithmConfig, run

RUN_PINS = Path(__file__).parent / "data" / "run_pins.json"
INSTANCES = ((6, 4, 21), (10, 6, 22), (20, 10, 23))
VARIANTS = {
    "default": {},
    "disable_de": {"disable_de": True},
    "disable_hybrid_init": {"disable_hybrid_init": True},
    "vns_budget_0": {"vns_budget": 0},
}
CASES = [
    (f"{jobs}x{machines}-{variant}", jobs, machines, seed, variant)
    for jobs, machines, seed in INSTANCES
    for variant in VARIANTS
]


def run_record(jobs: int, machines: int, seed: int, variant: str) -> dict:
    """What one pinned configuration's run returns, as stored in the pin file."""
    inst = extend_instance(random_base(jobs, machines, seed=seed), seed=seed)
    cfg = AlgorithmConfig(
        population=12, max_iter=4, archive_capacity=10, seed=seed, **VARIANTS[variant]
    )
    result = run(inst, cfg)
    return {
        "archive": [
            [list(e.chromosome.os), list(e.chromosome.mv), e.cmax, e.tec]
            for e in result.archive.entries
        ],
        "trace": [[list(p) for p in s.archive_points] for s in result.trace],
    }


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(RUN_PINS.read_text())


def test_pin_file_covers_every_case(pins):
    assert sorted(pins) == sorted(name for name, *_ in CASES)


@pytest.mark.parametrize("name, jobs, machines, seed, variant", CASES, ids=[c[0] for c in CASES])
def test_run_reproduces_recorded_archive_and_trace(pins, name, jobs, machines, seed, variant):
    assert run_record(jobs, machines, seed, variant) == pins[name]


if __name__ == "__main__":
    records = {name: run_record(*args) for name, *args in CASES}
    RUN_PINS.write_text(json.dumps(records, separators=(",", ":")) + "\n")
    print(RUN_PINS)
