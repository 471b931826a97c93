"""Exhaustive reference front and the independent energy recomputation.

``tests/data/oracle_pins.json`` holds the exact front, points and
witnesses, of the sample instance and of seven tiny generated ones: one
machine, zero setup times, no turn-on vectors and one gear (cut down by
``conftest.fastest_gears``) among them.
Re-record (only when the enumeration is meant to change) with
``PYTHONPATH=src python tests/test_oracle.py``.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import random
from pathlib import Path

import pytest

from conftest import counted_placements, fastest_gears
from efjsp import oracle
from efjsp.benchmark import extend_instance, random_base
from efjsp.encoding import Chromosome, decode, evaluate, random_chromosome
from efjsp.oracle import (
    MAX_POINTS,
    SearchSpaceError,
    _distinct_permutations,
    cross_check,
    enumerate_front,
    independent_objectives,
    search_space_size,
)
from efjsp.sample import sample_instance

ORACLE_PINS = Path(__file__).parent / "data" / "oracle_pins.json"


def _tiny(jobs, machines, seed, **shape):
    base = random_base(jobs, machines, seed=seed, ops_per_job=(1, 2), **shape)
    return extend_instance(base, seed=seed)


def _zero_setup(inst):
    return dataclasses.replace(
        inst, jobs=tuple(dataclasses.replace(j, setup_time=0) for j in inst.jobs)
    )


def _no_turn_on(inst):
    return dataclasses.replace(
        inst, machines=tuple(dataclasses.replace(m, turn_on=None) for m in inst.machines)
    )


# name -> instance builder; search spaces of 270 to 43,740 chromosomes
PINNED = {
    "sample": sample_instance,
    "3x2-s1": lambda: _tiny(3, 2, 1, machines_per_op=(1, 2)),
    "3x1-s4-one-machine": lambda: _tiny(3, 1, 4),
    "3x2-s4-zero-setup": lambda: _zero_setup(_tiny(3, 2, 4, machines_per_op=(1, 2))),
    "3x1-s10-no-turn-on": lambda: _no_turn_on(_tiny(3, 1, 10)),
    "3x3-s9-one-gear": lambda: fastest_gears(_tiny(3, 3, 9, machines_per_op=(1, 3)), 1),
    "3x2-s10-one-gear-zero-setup": lambda: _zero_setup(fastest_gears(_tiny(3, 2, 10), 1)),
    "3x3-s7-one-gear-no-turn-on": lambda: _no_turn_on(
        fastest_gears(_tiny(3, 3, 7, machines_per_op=(1, 3)), 1)
    ),
}


def front_record(name: str) -> dict:
    """The exact front of one pinned instance, as stored in the pin file:
    points by ``repr`` (exact floats), witnesses as (os, mv) lists."""
    result = enumerate_front(PINNED[name]())
    return {
        "points": [[repr(c), repr(t)] for c, t in result.points],
        "witnesses": [[list(w.os), list(w.mv)] for w in result.witnesses],
    }


@pytest.fixture(scope="module")
def oracle_pins() -> dict:
    return json.loads(ORACLE_PINS.read_text())


def test_oracle_pin_file_covers_every_case(oracle_pins):
    assert sorted(oracle_pins) == sorted(PINNED)


@pytest.mark.parametrize("name", list(PINNED))
def test_enumerate_front_reproduces_recorded_front(oracle_pins, name):
    assert front_record(name) == oracle_pins[name]


def test_search_space_size_of_sample(inst):
    # 15 operation orders x (3*3*6*6*3*3) column combinations
    assert search_space_size(inst) == 43_740


def test_distinct_permutations_count_and_order():
    perms = list(_distinct_permutations((1, 1, 2, 2, 2, 2)))
    assert len(perms) == 15
    assert perms == sorted(perms)
    assert len(set(perms)) == 15
    assert all(sorted(p) == [1, 1, 2, 2, 2, 2] for p in perms)


def test_enumerate_front_of_sample(inst):
    result = enumerate_front(inst)
    assert result.points == ((16, 748.0), (22, 744.0))
    for point, witness in zip(result.points, result.witnesses):
        assert evaluate(inst, witness) == point


def test_enumerate_front_refuses_large_spaces(monkeypatch):
    inst = extend_instance(random_base(3, 3, seed=2), seed=2)
    size = search_space_size(inst)
    assert size > MAX_POINTS

    def no_decode(*args, **kwargs):
        raise AssertionError("decoded a chromosome of a refused space")

    monkeypatch.setattr("efjsp.oracle.decode", no_decode)
    with pytest.raises(SearchSpaceError) as err:
        enumerate_front(inst)
    assert (err.value.size, err.value.limit) == (size, MAX_POINTS)


def test_independent_objectives_matches_walkthrough(inst, chrom):
    sched = decode(inst, chrom)
    assert independent_objectives(inst, sched) == (21, 868.0)


def test_cross_check_sample(inst, chrom):
    assert cross_check(inst, chrom)


def test_cross_check_derives_the_message_matrices_once_per_instance(matrix_builds):
    inst = _tiny(2, 2, seed=3)
    rng = random.Random(0)
    for _ in range(2):
        assert cross_check(inst, random_chromosome(inst, rng))
    assert len(matrix_builds) == 1 and matrix_builds[0] is inst


def test_cross_check_random_chromosomes(inst):
    rng = random.Random(17)
    for _ in range(100):
        assert cross_check(inst, random_chromosome(inst, rng))


@pytest.mark.parametrize("name", list(PINNED))
def test_independent_objectives_ignores_row_order(name):
    # enumerate_front prices a set of rows once, whatever order a copy lists
    # them in.  Few schedules here have a float sum that an order changes
    # (one machine with setups of unequal length), hence 200 of them.
    inst = PINNED[name]()
    rng = random.Random(23)
    for _ in range(200):
        rows = list(decode(inst, random_chromosome(inst, rng)))
        expected = repr(independent_objectives(inst, tuple(rows)))
        for _ in range(3):
            rng.shuffle(rows)
            assert repr(independent_objectives(inst, tuple(rows))) == expected


@pytest.mark.parametrize("name", ["3x3-s7-one-gear-no-turn-on", "3x2-s10-one-gear-zero-setup"])
def test_enumerate_front_keeps_the_smallest_witness(name):
    # every chromosome decoded and priced afresh; a point's witness is the
    # lexicographically smallest (os, mv) reaching it
    from efjsp.optimizer import dominates

    inst = PINNED[name]()
    jobs = [job.id for job in inst.jobs for _ in job.operations]
    widths = [range(1, len(op.options) + 1) for job in inst.jobs for op in job.operations]
    best: dict[tuple[int, float], tuple] = {}
    for os in sorted(set(itertools.permutations(jobs))):
        for mv in itertools.product(*widths):
            point = independent_objectives(inst, decode(inst, Chromosome(os, mv)))
            best.setdefault(point, (os, mv))
    points = sorted(p for p in best if not any(dominates(q, p) for q in best))
    result = enumerate_front(inst)
    assert list(result.points) == points
    assert [(w.os, w.mv) for w in result.witnesses] == [best[p] for p in points]


def test_enumerate_front_prices_each_distinct_schedule_once(inst, monkeypatch):
    calls = {"decode": 0, "independent_objectives": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(f"efjsp.oracle.{name}", counted(name, getattr(oracle, name)))
    enumerate_front(inst)
    # one decode per chromosome (what the benchmark's oracle.chromosomes
    # counts); one pricing per distinct schedule
    assert calls == {"decode": 43_740, "independent_objectives": 14_823}
    assert calls["decode"] == search_space_size(inst)


def test_enumerate_front_places_only_what_each_chromosome_changes(inst):
    with counted_placements() as placed:
        enumerate_front(inst)
    # checkpoints at every one of the 6 positions: each decode places its
    # chromosome from the position it resumes at on
    assert placed == [93_318]


def test_enumerate_front_walks_the_operation_orders_once_per_call(inst, monkeypatch):
    calls = []

    def spied(items):
        calls.append(list(items))
        return _distinct_permutations(items)

    monkeypatch.setattr("efjsp.oracle._distinct_permutations", spied)
    enumerate_front(inst)
    assert calls == [[1, 1, 2, 2, 2, 2]]


def _resume_positions_per_head(inst):
    """(os, mv, first) of every decode, the resume position worked out
    afresh at every column vector of all operations but the last: 0 for
    its first order, then the smaller of the first difference from the
    order before and the last canonical operation's os position, and that
    position for every later column of the last operation."""
    widths = [range(1, len(op.options) + 1) for job in inst.jobs for op in job.operations]
    jobs = [job.id for job in inst.jobs for _ in job.operations]
    orders = sorted(set(itertools.permutations(jobs)))
    want = []
    for head in itertools.product(*widths[:-1]):
        prev = None
        for order in orders:
            last = max(i for i, job in enumerate(order) if job == jobs[-1])
            if prev is None:
                first = 0
            else:
                first = min(next(i for i, (a, b) in enumerate(zip(order, prev)) if a != b), last)
            prev = order
            for col in widths[-1]:
                want.append((order, head + (col,), first))
                first = last
    return want


@pytest.mark.parametrize("name", list(PINNED))
def test_enumerate_front_resumes_each_decode_where_a_per_head_walk_would(name, monkeypatch):
    # on the sample's two jobs the first difference never lies past the
    # last canonical operation; on the three-job instances it does
    inst = PINNED[name]()
    got = []

    def spied(inst, chrom, *, base=None, first=0):
        got.append((chrom.os, chrom.mv, first))
        return decode(inst, chrom, base=base, first=first)

    monkeypatch.setattr("efjsp.oracle.decode", spied)
    enumerate_front(inst)
    assert len(got) == search_space_size(inst)
    assert got == _resume_positions_per_head(inst)


def test_front_is_mutually_nondominated(inst):
    from efjsp.optimizer import dominates

    pts = enumerate_front(inst).points
    for a, b in itertools.permutations(pts, 2):
        assert not dominates(a, b)


if __name__ == "__main__":
    records = {name: front_record(name) for name in PINNED}
    ORACLE_PINS.write_text(json.dumps(records, indent=1) + "\n")
    print(ORACLE_PINS)
