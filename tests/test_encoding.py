"""Chromosome layout, the message matrix table, and the gap-insertion decoder."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efjsp.benchmark import extend_instance, random_base, read_instance, write_instance
from efjsp.encoding import (
    MODE_PARTIAL,
    MODE_TOTAL,
    RULE_MIN_ENERGY,
    RULE_MIN_TIME,
    Chromosome,
    ChromosomeError,
    build_message_matrix,
    decode,
    evaluate,
    heuristic_chromosome,
    random_chromosome,
)
from efjsp.model import (
    JobSpec,
    Machine,
    OperationSpec,
    ProblemInstance,
    ProcessingOption,
    ScheduledRow,
    validate_schedule,
)
from test_evaluate import generated_problems


def test_canonical_order(inst):
    # the table is indexed by job, then operation, and its mv positions run
    # in that order: jobs, then operations, ascending
    assert [len(ops) for ops in inst.columns] == [2, 4]
    assert [position for ops in inst.columns for position, _, _ in ops] == list(range(6))
    assert [su for ops in inst.columns for _, su, _ in ops] == [
        inst.job(j).setup_time for j in (1, 1, 2, 2, 2, 2)
    ]


def test_derived_matrices_leave_equality_and_hashing_alone():
    inst = extend_instance(random_base(3, 2, seed=5), seed=5)
    assert inst.columns is inst.columns
    assert inst.columns == build_message_matrix(inst)
    copy = read_instance(write_instance(inst))
    assert "columns" in vars(inst) and "columns" not in vars(copy)
    assert inst == copy
    assert hash(inst) == hash(copy)


def test_message_matrix_of_flexible_operation(columns):
    position, _, cols = columns[1][1]  # operation (2, 2)
    assert position == 3
    assert len(cols) == 6
    assert [m for m, _, _ in cols] == [1, 1, 2, 1, 2, 2]
    assert [v for _, v, _ in cols] == [3, 2, 3, 1, 2, 1]
    assert [d for _, _, d in cols] == [1, 2, 2, 4, 4, 6]


def test_message_matrix_single_machine_operation(columns):
    position, _, cols = columns[1][3]  # operation (2, 4)
    assert position == 5
    assert cols == ((2, 3, 3), (2, 2, 6), (2, 1, 9))


def test_sample_chromosome_layout(chrom):
    assert chrom.os == (1, 2, 2, 2, 2, 1)
    assert chrom.mv == (1, 1, 1, 5, 2, 1)


def test_decode_sample_rows(inst, chrom):
    sched = decode(inst, chrom)
    rows = set(sched)
    assert rows == {
        ScheduledRow(1, 0, 1, 0, 0, 1),
        ScheduledRow(1, 1, 1, 3, 1, 7),
        ScheduledRow(1, 2, 1, 3, 7, 9),
        ScheduledRow(2, 0, 2, 0, 0, 2),
        ScheduledRow(2, 1, 2, 3, 2, 11),
        ScheduledRow(2, 2, 2, 2, 11, 15),
        ScheduledRow(2, 0, 1, 0, 13, 15),
        ScheduledRow(2, 3, 1, 2, 15, 18),
        ScheduledRow(2, 4, 2, 3, 18, 21),
    }


def test_decode_gap_reuse_same_job_needs_no_setup(inst, chrom):
    # O12 lands in machine 1's gap right behind its own job's O11
    sched = decode(inst, chrom)
    o12 = next(r for r in sched if (r.job, r.op_index) == (1, 2))
    assert (o12.start, o12.end) == (7, 9)


def test_evaluate_matches_decode(inst, chrom):
    assert evaluate(inst, chrom) == (21, 868.0)


def test_decode_rejects_bad_multiset(inst):
    bad = Chromosome(os=(1, 1, 1, 2, 2, 2), mv=(1, 1, 1, 1, 1, 1))
    with pytest.raises(ChromosomeError) as err:
        decode(inst, bad)
    assert "job" in str(err.value)


def test_decode_rejects_out_of_range_column(inst):
    bad = Chromosome(os=(1, 2, 2, 2, 2, 1), mv=(1, 1, 7, 1, 1, 1))
    with pytest.raises(ChromosomeError) as err:
        decode(inst, bad)
    assert "position" in str(err.value)


def test_random_chromosome_is_deterministic(inst):
    a = random_chromosome(inst, random.Random(11))
    b = random_chromosome(inst, random.Random(11))
    assert a == b
    assert sorted(a.os) == [1, 1, 2, 2, 2, 2]


def test_random_chromosome_column_frequencies(inst):
    # position of O22 in canonical order is index 3, six columns available
    counts = Counter()
    rng = random.Random(0)
    n = 10_000
    for _ in range(n):
        counts[random_chromosome(inst, rng).mv[3]] += 1
    for col in range(1, 7):
        assert abs(counts[col] / n - 1 / 6) < 0.02


def test_total_greedy_min_time(inst):
    ch = heuristic_chromosome(inst, RULE_MIN_TIME, MODE_TOTAL, random.Random(1))
    assert ch.mv == (1, 1, 1, 1, 1, 1)


def test_partial_greedy_uses_top_two_columns(inst):
    rng = random.Random(3)
    seen = set()
    for _ in range(200):
        ch = heuristic_chromosome(inst, RULE_MIN_TIME, MODE_PARTIAL, rng)
        seen.update((pos, col) for pos, col in enumerate(ch.mv))
    # O22 (position 3) alternates between its two fastest columns only
    cols = {col for pos, col in seen if pos == 3}
    assert cols == {1, 2}


def test_partial_min_energy_offers_slow_gear(inst):
    # O24 runs 3 units at gear 3 or 9 units at gear 1 for the same
    # processing energy, so the energy rule's top two include the slow column
    rng = random.Random(4)
    cols = set()
    for _ in range(200):
        ch = heuristic_chromosome(inst, RULE_MIN_ENERGY, MODE_PARTIAL, rng)
        cols.add(ch.mv[5])
    assert cols == {1, 3}


def _energy_ranked(inst, columns):
    """One operation's columns by processing energy, ties to the lower
    column, worked out afresh: the reference ``inst.energy_ranks`` is held
    to."""
    cost = [inst.machine(m).process_power[v - 1] * d for m, v, d in columns]
    return sorted(range(1, len(columns) + 1), key=lambda c: (cost[c - 1], c))


def _mv_columns(inst):
    """Every operation's columns, in mv order."""
    return [columns for ops in build_message_matrix(inst) for _, _, columns in ops]


def _greedy_per_call(inst, rule, mode, rng):
    """``heuristic_chromosome`` with every ranking made on the call, from
    the same draws."""
    os = [job.id for job in inst.jobs for _ in job.operations]
    rng.shuffle(os)
    mv = []
    for columns in _mv_columns(inst):
        ranked = (
            list(range(1, len(columns) + 1))
            if rule == RULE_MIN_TIME
            else _energy_ranked(inst, columns)
        )
        mv.append(ranked[0] if mode == MODE_TOTAL or len(ranked) == 1 else rng.choice(ranked[:2]))
    return Chromosome(tuple(os), tuple(mv))


def _check_cached_ranking(inst, seed):
    assert inst.energy_ranks == tuple(tuple(_energy_ranked(inst, c)) for c in _mv_columns(inst))
    for rule in (RULE_MIN_TIME, RULE_MIN_ENERGY):
        for mode in (MODE_TOTAL, MODE_PARTIAL):
            cached = heuristic_chromosome(inst, rule, mode, random.Random(seed))
            assert cached == _greedy_per_call(inst, rule, mode, random.Random(seed))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(generated_problems(), st.integers(0, 2**32))
def test_cached_energy_ranks_draw_what_a_per_call_ranking_draws(problem, seed):
    inst, _ = problem
    _check_cached_ranking(inst, seed)
    assert inst.energy_ranks is inst.energy_ranks


def test_equal_processing_energy_ranks_the_lower_column_first():
    # columns by duration: gear 3 for 2 units (energy 12), gear 2 for 4 and
    # gear 1 for 8 (energy 8 each): the tie puts column 2 ahead of column 3
    machine = Machine(
        id=1,
        setup_power=1.0,
        process_power=(1.0, 2.0, 6.0),
        idle_power=(1.0, 1.0, 1.0),
        standby_power=0.5,
        switch=tuple(tuple(0.0 for _ in range(4)) for _ in range(4)),
    )
    op = OperationSpec((ProcessingOption(1, 1, 8), ProcessingOption(1, 2, 4), ProcessingOption(1, 3, 2)))
    inst = ProblemInstance(
        jobs=(JobSpec(id=1, setup_time=1, operations=(op,)),), machines=(machine,), speed_count=3
    )
    assert inst.energy_ranks == ((2, 3, 1),)
    drawn = {
        heuristic_chromosome(inst, RULE_MIN_ENERGY, MODE_PARTIAL, random.Random(s)).mv
        for s in range(40)
    }
    assert drawn == {(2,), (3,)}
    for seed in range(40):
        _check_cached_ranking(inst, seed)


def test_encoding_closure_under_swaps_and_column_moves(inst):
    rng = random.Random(5)
    for _ in range(50):
        ch = random_chromosome(inst, rng)
        i, j = rng.sample(range(len(ch.os)), 2)
        os = list(ch.os)
        os[i], os[j] = os[j], os[i]
        swapped = Chromosome(tuple(os), ch.mv)
        report = validate_schedule(inst, decode(inst, swapped))
        assert report.ok, str(report)


def _single_speed_machine(mid: int) -> Machine:
    return Machine(
        id=mid,
        setup_power=1.0,
        process_power=(1.0,),
        idle_power=(1.0,),
        standby_power=0.5,
        switch=((0.0, 0.0), (0.0, 0.0)),
    )


def _insertion_instance(second_op_duration: int) -> ProblemInstance:
    jobs = (
        JobSpec(
            id=1,
            setup_time=1,
            operations=(
                OperationSpec((ProcessingOption(3, 1, 3),)),
                OperationSpec((ProcessingOption(3, 1, second_op_duration),)),
            ),
        ),
        JobSpec(
            id=2,
            setup_time=2,
            operations=(
                OperationSpec((ProcessingOption(1, 1, 6),)),
                OperationSpec((ProcessingOption(3, 1, 4),)),
            ),
        ),
    )
    machines = tuple(_single_speed_machine(m) for m in (1, 2, 3))
    return ProblemInstance(jobs=jobs, machines=machines, speed_count=1)


def test_decode_inserts_before_later_setup_segment():
    # job 2 occupies machine 3 late; job 1 then slots into the early gap
    inst = _insertion_instance(second_op_duration=3)
    ch = Chromosome(os=(2, 2, 1, 1), mv=(1, 1, 1, 1))
    sched = decode(inst, ch)
    rows = {(r.job, r.op_index): (r.start, r.end) for r in sched if not r.is_setup}
    setups = {(r.job, r.machine, r.start, r.end) for r in sched if r.is_setup}
    assert rows[(2, 1)] == (2, 8)
    assert (2, 3, 6, 8) in setups
    assert rows[(2, 2)] == (8, 12)
    # O11 fits the gap before job 2's setup on machine 3
    assert rows[(1, 1)] == (1, 4)
    assert (1, 3, 0, 1) in setups
    # O12 no longer fits the remaining gap and goes to the tail with setup
    assert rows[(1, 2)] == (13, 16)
    assert validate_schedule(inst, sched).ok


def test_decode_short_op_reuses_gap_without_setup():
    inst = _insertion_instance(second_op_duration=2)
    ch = Chromosome(os=(2, 2, 1, 1), mv=(1, 1, 1, 1))
    sched = decode(inst, ch)
    rows = {(r.job, r.op_index): (r.start, r.end) for r in sched if not r.is_setup}
    # same job directly behind O11: no setup, fits before job 2's setup
    assert rows[(1, 2)] == (4, 6)
    assert validate_schedule(inst, sched).ok


def _no_earlier_slot(inst, sched, row) -> bool:
    """Independent active-schedule check for one process row.

    Removes the row (plus its attached setup) from the machine timeline,
    then scans every remaining free window before the row's current start
    for an admissible earlier placement.  Windows directly followed by a
    bare process row are unusable: inserting a foreign job there would
    strip that row of its setup-free continuation.
    """
    su = inst.job(row.job).setup_time
    duration = row.end - row.start
    ready = max(
        (
            r.end
            for r in sched
            if r.job == row.job and not r.is_setup and r.op_index < row.op_index
        ),
        default=0,
    )
    occupied = sorted(
        (r.start, r.end, r.is_setup, r.job)
        for r in sched
        if r.machine == row.machine
        and r != row
        and not (r.is_setup and r.job == row.job and r.end == row.start)
    )
    windows = []
    prev_end = 0
    for s, e, is_setup, _job in occupied:
        if s > prev_end:
            windows.append((prev_end, s, is_setup))
        prev_end = max(prev_end, e)
    windows.append((prev_end, None, True))
    for ws, we, follower_is_setup in windows:
        if not follower_is_setup:
            continue
        prev_procs = [(e, j) for _s, e, setup, j in occupied if not setup and e <= ws]
        need = max(prev_procs)[1] != row.job if prev_procs else True
        start = max(ws + (su if need else 0), ready)
        if we is not None and start + duration > we:
            continue
        if start < row.start:
            return False
    return True


def test_decoded_schedules_are_active(inst):
    rng = random.Random(9)
    for _ in range(30):
        ch = random_chromosome(inst, rng)
        sched = decode(inst, ch)
        for row in sched:
            if row.is_setup:
                continue
            assert _no_earlier_slot(inst, sched, row), (ch, row)
