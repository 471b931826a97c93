"""Critical-path extraction and the three-structure neighbourhood search."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from pathlib import Path

import pytest

from conftest import fastest_gears
from efjsp.benchmark import extend_instance, random_base
from efjsp import local_search
from efjsp.encoding import Chromosome, build_message_matrix, decode, evaluate, random_chromosome
from efjsp.local_search import STRUCTURES, _View, critical_path, vns
from efjsp.model import (
    JobSpec,
    Machine,
    OperationSpec,
    ProblemInstance,
    ProcessingOption,
    ScheduledRow,
    machine_timelines,
)
from efjsp.optimizer import dominates


def neighbor(
    chrom: Chromosome, structure: str, inst: ProblemInstance, sched, rng: random.Random
) -> Chromosome | None:
    """One neighbour drawn as ``vns`` draws it, off ``sched``'s timelines."""
    drawn = _View(inst, chrom, machine_timelines(inst, sched)).draw(structure, rng)
    return None if drawn is None else drawn[0]


def test_critical_path_of_sample(inst, sched):
    assert critical_path(machine_timelines(inst, sched)) == [(2, 1), (2, 2), (2, 3), (2, 4)]


def test_critical_path_starts_at_zero(inst, sched):
    # with the setup merged, the first critical operation begins at time 0
    path = critical_path(machine_timelines(inst, sched))
    first = path[0]
    row = next(r for r in sched if (r.job, r.op_index) == first)
    setup = next(
        r
        for r in sched
        if r.is_setup and r.machine == row.machine and r.end == row.start
    )
    assert setup.start == 0


def test_critical_path_ends_at_makespan(inst, chrom, sched):
    path = critical_path(machine_timelines(inst, sched))
    last_row = next(r for r in sched if (r.job, r.op_index) == path[-1])
    assert last_row.end == evaluate(inst, chrom)[0]


def test_critical_path_folds_a_setup_into_its_operation(inst):
    # (1,2)'s setup starts at time zero, so the chain stops at (1,2) even
    # though its job predecessor ends before the process row starts
    rows = (
        ScheduledRow(1, 1, 1, 1, 0, 1),
        ScheduledRow(1, 0, 2, 0, 0, 2),
        ScheduledRow(1, 2, 2, 1, 2, 5),
    )
    assert critical_path(machine_timelines(inst, rows)) == [(1, 2)]


def test_critical_path_steps_to_a_job_predecessor_that_ends_at_time_zero(inst):
    # (1,2) has no machine predecessor, and its job predecessor ends at
    # time 0: the chain steps to the job predecessor
    rows = (ScheduledRow(1, 1, 1, 1, 0, 0), ScheduledRow(1, 2, 2, 1, 1, 3))
    assert critical_path(machine_timelines(inst, rows)) == [(1, 1), (1, 2)]


@pytest.mark.parametrize(
    "timelines, message",
    [
        # one operation named twice (the merge refuses such rows): the later
        # segment is its own machine predecessor
        ([[(2, 4, 1, 1, 1, None), (5, 7, 1, 1, 1, None)], []], "comes back"),
        # a job's operations out of order: the walk steps between them forever
        ([[(1, 2, 1, 2, 1, None), (3, 5, 1, 1, 1, None)], []], "comes back"),
        # operation 2 alone: its job predecessor has no segment
        ([[(1, 2, 1, 2, 1, None)], []], "operation 2 of job 1 has no operation 1"),
    ],
    ids=["repeated-operation", "operations-out-of-order", "missing-predecessor"],
)
def test_critical_path_refuses_timelines_that_are_no_schedule(timelines, message):
    with pytest.raises(ValueError, match=message):
        critical_path(timelines)


def test_n1_moves_a_critical_operation_to_another_machine(inst, chrom, sched):
    rng = random.Random(0)
    path = critical_path(machine_timelines(inst, sched))
    table = build_message_matrix(inst)
    for _ in range(20):
        out = neighbor(chrom, "n1", inst, sched, rng)
        assert out is not None
        changed = [
            p for p, (a, b) in enumerate(zip(chrom.mv, out.mv)) if a != b
        ]
        assert len(changed) == 1
        pos = changed[0]
        job, op = key = ((1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (2, 4))[pos]
        assert key in path
        position, _, columns = table[job - 1][op - 1]
        assert position == pos
        old_machine = columns[chrom.mv[pos] - 1][0]
        new_machine = columns[out.mv[pos] - 1][0]
        assert new_machine != old_machine


def test_n2_needs_two_jobs_on_the_path(inst, chrom, sched):
    # the sample's critical chain lies entirely inside job 2
    rng = random.Random(1)
    assert neighbor(chrom, "n2", inst, sched, rng) is None


def test_n3_unloads_the_busiest_machine(inst, chrom, sched):
    # machine 2 carries the most occupied time (setups included)
    table = build_message_matrix(inst)
    rng = random.Random(2)
    moved_from = set()
    for _ in range(30):
        out = neighbor(chrom, "n3", inst, sched, rng)
        assert out is not None
        pos = next(
            p for p, (a, b) in enumerate(zip(chrom.mv, out.mv)) if a != b
        )
        job, op = ((1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (2, 4))[pos]
        position, _, columns = table[job - 1][op - 1]
        assert position == pos
        moved_from.add(columns[chrom.mv[pos] - 1][0])
        assert columns[out.mv[pos] - 1][0] != columns[chrom.mv[pos] - 1][0]
    assert moved_from == {2}


def _rigid_instance() -> ProblemInstance:
    machine = Machine(
        id=1,
        setup_power=1.0,
        process_power=(1.0,),
        idle_power=(1.0,),
        standby_power=0.5,
        switch=((0.0, 0.0), (0.0, 0.0)),
    )
    jobs = (
        JobSpec(
            id=1,
            setup_time=1,
            operations=(
                OperationSpec((ProcessingOption(1, 1, 2),)),
                OperationSpec((ProcessingOption(1, 1, 3),)),
            ),
        ),
    )
    return ProblemInstance(jobs=jobs, machines=(machine,), speed_count=1)


def test_n1_returns_none_when_no_alternative_machine():
    inst = _rigid_instance()
    ch = Chromosome((1, 1), (1, 1))
    sched = decode(inst, ch)
    assert neighbor(ch, "n1", inst, sched, random.Random(0)) is None


def test_vns_zero_budget_is_identity(inst, chrom):
    obj = evaluate(inst, chrom)
    out, out_obj, visited = vns(chrom, obj, inst, random.Random(0), budget=0)
    assert out == chrom
    assert out_obj == obj
    assert visited == []


def test_vns_never_returns_dominated(inst, chrom):
    obj = evaluate(inst, chrom)
    for seed in range(5):
        out, out_obj, _ = vns(chrom, obj, inst, random.Random(seed), budget=15)
        assert not dominates(obj, out_obj)
        assert out_obj == evaluate(inst, out)


def test_vns_improves_the_walkthrough_solution(inst, chrom):
    # from (21, 868) the critical-path moves find a dominating schedule
    obj = evaluate(inst, chrom)
    improved = 0
    for seed in range(10):
        _, out_obj, _ = vns(chrom, obj, inst, random.Random(seed), budget=15)
        if dominates(out_obj, obj):
            improved += 1
    assert improved >= 5


def test_vns_visited_are_coherent(inst, chrom):
    obj = evaluate(inst, chrom)
    _, _, visited = vns(chrom, obj, inst, random.Random(3), budget=10)
    for ch, o in visited:
        assert evaluate(inst, ch) == o


def test_structures_constant():
    assert STRUCTURES == ("n1", "n2", "n3")


# Outputs of `vns` and `critical_path` recorded before the search read the
# shared machine timeline; the replay below must match them draw for draw.
VNS_PINS = Path(__file__).parent / "data" / "vns_pins.json"


def pinned_instances() -> list[ProblemInstance]:
    """Five generated instances: the standard three-gear extension, one
    gear, zero setup times, a single machine, and a larger one without
    turn-on vectors."""
    zero_setup = extend_instance(random_base(6, 4, seed=13), seed=13)
    zero_setup = dataclasses.replace(
        zero_setup,
        jobs=tuple(dataclasses.replace(j, setup_time=0) for j in zero_setup.jobs),
    )
    no_turn_on = extend_instance(random_base(10, 6, seed=15), seed=15)
    no_turn_on = dataclasses.replace(
        no_turn_on,
        machines=tuple(dataclasses.replace(m, turn_on=None) for m in no_turn_on.machines),
    )
    return [
        extend_instance(random_base(6, 4, seed=11), seed=11),
        fastest_gears(extend_instance(random_base(6, 4, seed=12), seed=12), 1),
        zero_setup,
        extend_instance(random_base(4, 1, seed=14), seed=14),
        no_turn_on,
    ]


def pinned_calls(calls_per_instance: int = 40):
    """(instance index, chromosome, vns seed) of every pinned call."""
    for i, inst in enumerate(pinned_instances()):
        rng = random.Random(100 + i)
        for k in range(calls_per_instance):
            yield i, inst, random_chromosome(inst, rng), k


def _chrom(ch: Chromosome) -> list[list[int]]:
    return [list(ch.os), list(ch.mv)]


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def vns_record(inst: ProblemInstance, chrom: Chromosome, seed: int) -> dict:
    """What one pinned call returns, as stored in the pin file."""
    out, obj, visited = vns(chrom, evaluate(inst, chrom), inst, random.Random(seed), 20)
    sched = decode(inst, chrom)
    return {
        "critical_path": [list(key) for key in critical_path(machine_timelines(inst, sched))],
        "out": _chrom(out),
        "objectives": list(obj),
        "visited": len(visited),
        "visited_sha256": _digest([_chrom(ch) + list(o) for ch, o in visited]),
        "out_critical_path": [list(key) for key in critical_path(machine_timelines(inst, decode(inst, out)))],
        "neighbors_sha256": _digest([
            None if nb is None else _chrom(nb)
            for nb in (neighbor(chrom, s, inst, sched, random.Random(seed)) for s in STRUCTURES)
        ]),
    }


def test_vns_reproduces_recorded_outputs():
    pins = json.loads(VNS_PINS.read_text())["calls"]
    calls = list(pinned_calls())
    assert len(calls) == len(pins) == 200
    for (i, inst, chrom, seed), pin in zip(calls, pins):
        assert vns_record(inst, chrom, seed) == pin, (i, seed)


def test_vns_prices_each_distinct_neighbour_once_per_call(monkeypatch):
    # a neighbour drawn again in the same call is not priced again, yet is
    # still returned among the visited ones, in draw order
    priced: list[Chromosome] = []
    drawn: list[Chromosome] = []
    draw = local_search._View.draw

    def spy_evaluate(inst, chrom, *args, **kwargs):
        priced.append(chrom)
        return evaluate(inst, chrom, *args, **kwargs)

    def spy_draw(view, structure, rng):
        out = draw(view, structure, rng)
        if out is not None:
            drawn.append(out[0])
        return out

    monkeypatch.setattr(local_search, "evaluate", spy_evaluate)
    monkeypatch.setattr(local_search._View, "draw", spy_draw)
    pins = json.loads(VNS_PINS.read_text())["calls"]
    repeats = 0
    for (i, inst, chrom, seed), pin in zip(pinned_calls(), pins):
        objectives = evaluate(inst, chrom)
        priced.clear()
        drawn.clear()
        _, _, visited = vns(chrom, objectives, inst, random.Random(seed), 20)
        assert len(set(priced)) == len(priced), (i, seed)
        assert [nb for nb, _ in visited] == drawn, (i, seed)
        assert set(priced) == set(drawn)
        assert len(visited) == pin["visited"]
        assert _digest([_chrom(ch) + list(o) for ch, o in visited]) == pin["visited_sha256"]
        repeats += len(drawn) - len(priced)
    assert repeats > 0
