"""The one-walk evaluator against the breakdown route, the independent
oracle summation and objectives recorded before the evaluator was fused;
the bisected gap scan against the linear one it replaced; and VNS's
incremental pricing of neighbours against ``evaluate``; and
``decode(..., base=, first=)`` walking its checkpoints through a chain of
chromosomes against a fresh ``decode``, placing only the positions from
the resume position on; the decoder's one-segment timelines against its
rows merged by ``machine_timelines``; and rows that fail closed."""

from __future__ import annotations

import dataclasses
import json
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import counted_placements, fastest_gears
from efjsp.benchmark import extend_instance, random_base
from efjsp.encoding import (
    Checkpoints,
    Chromosome,
    _empty_state,
    _place,
    build_message_matrix,
    decode,
    evaluate,
    random_chromosome,
)
from efjsp.energy import total_energy
from efjsp.local_search import STRUCTURES, _View, critical_path
from efjsp.model import (
    JobSpec,
    Machine,
    OperationSpec,
    ProblemInstance,
    ProcessingOption,
    ScheduledRow,
    machine_timelines,
    validate_instance,
    validate_schedule,
)
from efjsp.oracle import independent_objectives
from efjsp.sample import sample_chromosome, sample_instance
from test_energy import reference_intervals
from test_oracle import PINNED

PINS = Path(__file__).parent / "data" / "evaluate_pins_10x6.json"


def test_evaluate_reproduces_recorded_objectives():
    # Recorded with the two-pass evaluator (decode, then makespan and energy);
    # any change to what is summed, or in which order, shows up here.
    pins = json.loads(PINS.read_text())["objectives"]
    inst = extend_instance(random_base(10, 6, seed=1), seed=1)
    rng = random.Random(2024)
    got = [list(evaluate(inst, random_chromosome(inst, rng))) for _ in pins]
    assert got == pins


_energies = st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False, allow_subnormal=False)
_durations = st.integers(1, 6)
_setups = st.sampled_from((0, 0, 1, 2, 3))


@st.composite
def instances(draw, durations=_durations, setups=_setups, energies=_energies) -> ProblemInstance:
    """Small valid instances, including shapes the generator never makes:
    one gear, zero setup times, no turn-on vector, standby dearer than
    idling, a single machine and one-operation jobs.  Valid by
    construction with the default ranges; wider ones may overflow the
    energy bound or the horizon (``validate_instance``)."""
    s = draw(st.integers(1, 3))
    n_machines = draw(st.integers(1, 3))
    jobs = []
    for j in range(1, draw(st.integers(1, 4)) + 1):
        ops = []
        for _ in range(draw(st.integers(1, 3))):
            keys = draw(
                st.lists(
                    st.tuples(st.integers(1, n_machines), st.integers(1, s)),
                    min_size=1,
                    max_size=4,
                    unique=True,
                )
            )
            options = tuple(ProcessingOption(m, g, draw(durations)) for m, g in keys)
            ops.append(OperationSpec(options))
        jobs.append(JobSpec(j, draw(setups), tuple(ops)))
    gears = st.lists(energies, min_size=s, max_size=s).map(tuple)
    machines = []
    for m in range(1, n_machines + 1):
        switch = tuple(
            tuple(0.0 if a == b else draw(energies) for b in range(s + 1)) for a in range(s + 1)
        )
        machines.append(
            Machine(
                id=m,
                setup_power=draw(energies),
                process_power=draw(gears),
                idle_power=draw(gears),
                standby_power=draw(energies),
                switch=switch,
                turn_on=draw(st.none() | gears),
            )
        )
    return ProblemInstance(tuple(jobs), tuple(machines), s)


@st.composite
def problems(draw) -> tuple[ProblemInstance, Chromosome]:
    inst = draw(instances())
    os = draw(st.permutations([job.id for job in inst.jobs for _ in job.operations]))
    mv = [draw(st.integers(1, len(op.options))) for job in inst.jobs for op in job.operations]
    return inst, Chromosome(tuple(os), tuple(mv))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(problems())
def test_three_routes_agree_on_generated_instances(problem):
    inst, chrom = problem
    assert validate_instance(inst).ok
    sched = decode(inst, chrom)
    assert validate_schedule(inst, sched).ok
    fast = evaluate(inst, chrom)
    breakdown = total_energy(inst, sched)
    assert fast == (breakdown.cmax, breakdown.tec)
    assert [d[:5] for d in breakdown.interval_decisions] == reference_intervals(inst, sched)
    cmax, tec = independent_objectives(inst, sched)
    assert fast[0] == cmax
    assert abs(fast[1] - tec) <= 1e-9 * max(abs(tec), 1.0)


# numbers far beyond the generator's: durations up to 2**40, setups up to
# 2**30 and energies of 0, 1e-300 and up to 1e300, kept only where the
# instance is valid (a finite energy bound, a horizon of at most 2**53)
_extreme_instances = instances(
    durations=st.integers(1, 6) | st.integers(1, 2**40),
    setups=_setups | st.integers(0, 2**30),
    energies=st.sampled_from((0.0, 1e-300)) | st.floats(0.0, 1e300) | _energies,
).filter(lambda inst: validate_instance(inst).ok)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_extreme_instances, st.integers(0, 2**32))
def test_three_routes_agree_on_extreme_shapes(inst, seed):
    # every valid instance, however wide its numbers: the one walk and the
    # breakdown agree to the last bit, the oracle's own sum to 1e-9, and
    # the decoded rows are a schedule
    rng = random.Random(seed)
    for _ in range(5):
        sched = decode(inst, chrom := random_chromosome(inst, rng))
        assert validate_schedule(inst, sched).ok
        fast = evaluate(inst, chrom)
        breakdown = total_energy(inst, sched)
        assert fast == (breakdown.cmax, breakdown.tec)
        cmax, tec = independent_objectives(inst, sched)
        assert fast[0] == cmax
        assert abs(fast[1] - tec) <= 1e-9 * max(abs(tec), 1.0)


@st.composite
def generated_problems(draw, max_jobs: int = 10) -> tuple[ProblemInstance, Chromosome]:
    """Generator instances big enough for long timelines (4 to 6 operations
    a job, 2 to ``max_jobs`` jobs), with one, two or three gears, with zero
    setup times or without turn-on vectors on some draws, and a random
    chromosome."""
    seed = draw(st.integers(0, 10_000))
    inst = extend_instance(
        random_base(draw(st.integers(2, max_jobs)), draw(st.integers(1, 6)), seed=seed), seed=seed
    )
    inst = fastest_gears(inst, draw(st.integers(1, 3)))
    if draw(st.booleans()):
        inst = dataclasses.replace(
            inst, jobs=tuple(dataclasses.replace(j, setup_time=0) for j in inst.jobs)
        )
    if draw(st.booleans()):
        inst = dataclasses.replace(
            inst, machines=tuple(dataclasses.replace(m, turn_on=None) for m in inst.machines)
        )
    return inst, random_chromosome(inst, random.Random(seed))


shapes = st.one_of(problems(), generated_problems())
# d = 1 to 120: checkpoint strides 1 to 5
long_shapes = st.one_of(problems(), generated_problems(max_jobs=20))


def _linear_place(inst, chrom, table, rows):
    """The decoder's placement loop as it was before the gap scan was
    bisected: every gap of the machine is tried from the front.  It
    builds its timelines itself, one segment per operation, with the
    operation's setup in it when it brings one (see ``model.Segment``)."""
    mv = chrom.mv
    setup_times = []
    mv_base = []
    pos = -1
    for job in inst.jobs:
        setup_times.append(job.setup_time)
        mv_base.append(pos)
        pos += len(job.operations)
    next_op = [1] * len(inst.jobs)
    job_ready = [0] * len(inst.jobs)
    segs = [[] for _ in inst.machines]

    for job_id in chrom.os:
        j = job_id - 1
        op_idx = next_op[j]
        next_op[j] = op_idx + 1
        _, _, columns = table[j][op_idx - 1]
        machine, speed, dur = columns[mv[mv_base[j] + op_idx] - 1]
        su = setup_times[j]
        ready = job_ready[j]
        seq = segs[machine - 1]

        i = 0
        prev_end = 0
        prev_job = 0
        for seg_start, seg_end, seg_job, _, _, setup_end in seq:
            if seg_start > prev_end and setup_end is not None:
                need_setup = prev_job != job_id
                start = prev_end + su if need_setup else prev_end
                if start < ready:
                    start = ready
                if start + dur <= seg_start:
                    break
            prev_end = seg_end
            prev_job = seg_job
            i += 1
        else:  # the open tail
            need_setup = prev_job != job_id
            start = prev_end + su if need_setup else prev_end
            if start < ready:
                start = ready

        end = start + dur
        if need_setup:
            seq.insert(i, (start - su, end, job_id, op_idx, speed, start))
            rows.append(ScheduledRow(job_id, 0, machine, 0, start - su, start))
        else:
            seq.insert(i, (start, end, job_id, op_idx, speed, None))
        rows.append(ScheduledRow(job_id, op_idx, machine, speed, start, end))
        job_ready[j] = end
    return segs


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(shapes)
def test_bisected_scan_places_like_the_linear_scan(problem):
    inst, chrom = problem
    table = build_message_matrix(inst)
    want_rows: list[ScheduledRow] = []
    want = _linear_place(inst, chrom, table, want_rows)
    got_rows: list[ScheduledRow] = []
    assert _place(inst, chrom, got_rows, _empty_state(inst)) == want
    assert got_rows == want_rows
    assert list(decode(inst, chrom)) == want_rows
    # resuming from every checkpoint finishes the same placement
    base = Checkpoints(inst, chrom)
    assert base.timelines == want
    for c, (segs, next_op, job_ready, _) in enumerate(base.saved):
        lo = c * base.every
        state = [seq.copy() for seq in segs], next_op.copy(), job_ready.copy()
        assert _place(inst, chrom, None, state, lo) == want


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(shapes)
def test_rows_merge_into_the_decoders_timelines(problem):
    # one segment per placed operation: the decoder's timelines are the
    # ones its rows give, every setup merged into the process it serves
    inst, chrom = problem
    timelines = Checkpoints(inst, chrom).timelines
    assert machine_timelines(inst, decode(inst, chrom)) == timelines
    assert sum(map(len, timelines)) == inst.total_operations


def test_rows_merge_into_the_decoders_timelines_on_the_zero_setup_oracle_instance():
    inst = PINNED["3x2-s4-zero-setup"]()
    rng = random.Random(4)
    for _ in range(200):
        chrom = random_chromosome(inst, rng)
        timelines = Checkpoints(inst, chrom).timelines
        assert machine_timelines(inst, decode(inst, chrom)) == timelines
        # every machine's first operation brings a setup, of zero length here
        assert all(seq[0][5] == seq[0][0] for seq in timelines if seq)


# rows as a hand-built schedule may hold them: ids and gears from 0 to one
# or two past an instance's, and times from -1, ends before starts included
_any_rows = st.lists(
    st.builds(
        ScheduledRow, st.integers(0, 5), st.integers(0, 4), st.integers(0, 4),
        st.integers(0, 4), st.integers(-1, 12), st.integers(-1, 14),
    ),
    max_size=8,
)


def _edited(sched: tuple[ScheduledRow, ...], rng: random.Random) -> tuple[ScheduledRow, ...]:
    """``sched`` with one row dropped, or repeated, or one of its fields
    moved by one."""
    rows = list(sched)
    i, edit = rng.randrange(len(rows)), rng.randrange(2 + len(ScheduledRow._fields))
    if edit == 0:
        del rows[i]
    elif edit == 1:
        rows.insert(rng.randrange(len(rows) + 1), rows[i])
    else:
        field = ScheduledRow._fields[edit - 2]
        rows[i] = rows[i]._replace(**{field: getattr(rows[i], field) + rng.choice((-1, 1))})
    return tuple(rows)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.just((sample_instance(), sample_chromosome())) | shapes,
    _any_rows,
    st.integers(0, 2**32 - 1),
)
def test_rows_fail_closed(problem, rows, seed):
    # a decoded schedule is priced and walked; any other rows are, or are
    # refused with a ValueError, and only when validate_schedule reports
    # them; every segment the merge gives is an operation's
    inst, chrom = problem
    sched = decode(inst, chrom)
    total_energy(inst, sched)
    critical_path(machine_timelines(inst, sched))
    for rows in (tuple(rows), _edited(sched, random.Random(seed))):
        try:
            timelines = machine_timelines(inst, rows)
            total_energy(inst, rows)
            critical_path(timelines)
        except ValueError:
            assert not validate_schedule(inst, rows).ok
        else:
            assert all(seg[3] >= 1 for seq in timelines for seg in seq)


def _exact(objectives) -> tuple[str, str]:
    # repr tells 0 from 0.0 and -0.0 from 0.0, and round-trips every float
    return tuple(repr(v) for v in objectives)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(shapes, st.integers(0, 2**32 - 1))
def test_vns_view_prices_every_neighbour_like_evaluate(problem, seed):
    inst, chrom = problem
    base = Checkpoints(inst, chrom)
    view = _View(inst, chrom, base.timelines)
    assert view.path == critical_path(machine_timelines(inst, decode(inst, chrom)))
    want = _exact(evaluate(inst, chrom))
    # the base itself, resumed at every position: all timelines equal
    for first in range(len(chrom.os)):
        assert _exact(evaluate(inst, chrom, base=base, first=first)) == want
    rng = random.Random(seed)
    for structure in STRUCTURES * 4:
        drawn = view.draw(structure, rng)
        if drawn is None:
            continue
        nb, first = drawn
        assert nb.os[:first] == chrom.os[:first]
        assert _exact(evaluate(inst, nb, base=base, first=first)) == _exact(
            evaluate(inst, nb)
        )


def _vary_from(table, chrom, first, rng):
    """A chromosome sharing ``chrom``'s os entries ahead of ``first`` and the
    mv columns of the operations they place; the rest is redrawn."""
    tail = list(chrom.os[first:])
    rng.shuffle(tail)
    os = chrom.os[:first] + tuple(tail)
    mv = list(chrom.mv)
    nth: dict[int, int] = {}
    for i, job in enumerate(os):
        nth[job] = nth.get(job, 0) + 1
        if i >= first:
            position, _, columns = table[job - 1][nth[job] - 1]
            mv[position] = rng.randint(1, len(columns))
    return Chromosome(os, tuple(mv))


def _bench_shaped() -> tuple[ProblemInstance, Chromosome]:
    """The benchmark's solve instance: 20 jobs of 5 operations, d = 100."""
    inst = extend_instance(random_base(20, 10, seed=1, ops_per_job=(5, 5)), seed=1)
    return inst, random_chromosome(inst, random.Random(1))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(long_shapes, st.integers(0, 2**32 - 1))
@example(_bench_shaped(), 1)
def test_decode_from_checkpoints_follows_a_chain_like_a_fresh_decode(problem, seed):
    inst, chrom = problem
    base = Checkpoints(inst, chrom)
    rng = random.Random(seed)
    for _ in range(8):
        first = rng.randrange(len(chrom.os))
        chrom = _vary_from(inst.columns, chrom, first, rng)
        got = decode(inst, chrom, base=base, first=first)
        assert got == decode(inst, chrom)
        assert all(type(r) is ScheduledRow for r in got)
        assert base.timelines == Checkpoints(inst, chrom).timelines


@pytest.mark.parametrize(
    "jobs, ops, every",
    [(1, 1, 1), (6, 1, 1), (5, 3, 1), (4, 4, 2), (20, 5, 5), (50, 5, 7)],
)
def test_checkpoint_stride_is_half_the_integer_square_root(jobs, ops, every):
    # every position up to d = 15, such as the oracle's chromosomes; every
    # fifth on the benchmark's 100-operation ones
    inst = extend_instance(random_base(jobs, 2, seed=1, ops_per_job=(ops, ops)), seed=1)
    assert Checkpoints(inst, random_chromosome(inst, random.Random(1))).every == every


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(problems(), st.integers(0, 2**32 - 1))
def test_a_resume_at_stride_one_places_only_the_positions_from_first_on(problem, seed):
    inst, chrom = problem
    d = len(chrom.os)
    fresh = decode(inst, chrom)
    assert all(type(r) is ScheduledRow for r in fresh)
    base = Checkpoints(inst, chrom)
    assert base.every == 1  # d <= 12 here
    rng = random.Random(seed)
    for _ in range(4):
        first = rng.randrange(d)
        chrom = _vary_from(inst.columns, chrom, first, rng)
        with counted_placements() as placed:
            evaluate(inst, chrom, base=base, first=first)
        assert placed == [d - first]
        with counted_placements() as placed:
            rows = decode(inst, chrom, base=base, first=first)
        assert placed == [d - first]
        assert all(type(r) is ScheduledRow for r in rows)
