"""Energy accounting: per-part sums, interval mode choice, exact totals,
and rows that are no schedule refused rather than priced."""

from __future__ import annotations

import dataclasses
import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efjsp.benchmark import (
    dump_document,
    extend_instance,
    load_document,
    random_base,
    read_instance,
    write_instance,
)
from efjsp.encoding import Checkpoints, decode, evaluate, random_chromosome
from efjsp.energy import MODE_IDLE, MODE_STANDBY, IntervalDecision, account, total_energy
from efjsp.local_search import critical_path
from efjsp.model import (
    ScheduledRow,
    continuous_pairs,
    idle_intervals,
    machine_timelines,
    validate_schedule,
)
from efjsp.oracle import cross_check
from efjsp.sample import sample_instance


def test_turn_on_energy(inst, sched):
    # first processing gear per used machine, both machines start at gear 3
    assert total_energy(inst, sched).turn_on == 20.0


def test_transition_energy(inst, sched):
    # the only continuous different-gear pair is O21 (v3) -> O22 (v2) on M2
    assert total_energy(inst, sched).transition == 5.0


def test_setup_energy(inst, sched):
    # three setup rows of lengths 1, 2, 2 at power 10
    assert total_energy(inst, sched).setup == 50.0


def test_process_energy(inst, sched):
    assert total_energy(inst, sched).process == 740.0


def test_interval_energy_standby_choice(inst, sched):
    # machine 1's stretch 9..15 between gears 3 and 2 drops to standby
    [decision] = idle_intervals(inst, sched, 1)
    assert decision == IntervalDecision(1, 9, 15, 3, 2, MODE_STANDBY, 30.0)
    # the losing idle option costs idle_power[2] * 6 + switch 3->2
    m = inst.machine(1)
    assert m.idle_power[1] * 6 + m.switch[3][2] == 41.0


def test_interval_energy_idle_choice(inst, sched):
    # machine 2's stretch 15..18 between gears 2 and 3 idles at gear 2
    [decision] = idle_intervals(inst, sched, 2)
    assert decision == IntervalDecision(2, 15, 18, 2, 3, MODE_IDLE, 23.0)
    # the losing standby option costs standby * 3 + switch 2->0 + switch 0->3
    m = inst.machine(2)
    assert m.standby_power * 3 + m.switch[2][0] + m.switch[0][3] == 24.0


def test_interval_energy_tie_prefers_idle(inst):
    # craft powers so both modes cost the same
    m = inst.machine(1)
    tied = dataclasses.replace(
        m,
        idle_power=(2.0, 2.0, 2.0),
        standby_power=2.0,
        switch=tuple(tuple(0.0 for _ in row) for row in m.switch),
    )
    inst2 = dataclasses.replace(inst, machines=(tied,) + inst.machines[1:])
    rows = (
        ScheduledRow(job=1, op_index=1, machine=1, speed=1, start=0, end=2),
        ScheduledRow(job=2, op_index=1, machine=1, speed=1, start=6, end=8),
    )
    bd = total_energy(inst2, rows)
    assert bd.interval_decisions == (IntervalDecision(1, 2, 6, 1, 1, MODE_IDLE, 8.0),)


def _setup_covered_gap(next_speed: int, setup_start: int = 7) -> tuple[ScheduledRow, ...]:
    # the rows of test_model.py::test_setup_covered_gap_is_continuous: job 2's
    # setup fills the gap 7..9 after job 1's process, so the follower starts
    # later than its predecessor ends and yet the pair is continuous
    return (
        ScheduledRow(job=1, op_index=0, machine=1, speed=0, start=0, end=1),
        ScheduledRow(job=1, op_index=1, machine=1, speed=3, start=1, end=7),
        ScheduledRow(job=2, op_index=0, machine=1, speed=0, start=setup_start, end=9),
        ScheduledRow(job=2, op_index=1, machine=1, speed=next_speed, start=9, end=19),
    )


@pytest.mark.parametrize("next_speed", [3, 2])
def test_a_gap_covered_by_the_followers_setup_pays_the_switch(inst, next_speed):
    switch = inst.machine(1).switch
    bd = total_energy(inst, _setup_covered_gap(next_speed))
    assert bd.interval_decisions == ()
    assert bd.interval == 0
    assert bd.transition == switch[3][next_speed]
    assert bd.turn_on == inst.machine(1).turn_on[2]


def test_a_gap_the_followers_setup_leaves_open_is_priced(inst):
    # the same rows with the setup a unit later: 7..8 is idle, so the pair
    # encloses a stretch 7..9 and pays no switch of its own
    bd = total_energy(inst, _setup_covered_gap(2, setup_start=8))
    [decision] = bd.interval_decisions
    assert decision[:5] == (1, 7, 9, 3, 2)
    assert bd.transition == 0.0
    assert bd.interval == decision.energy


def _timeline(rows, machine_id):
    """One machine's rows in time order, as a timeline orders them: by
    (start, end), setups first, then by job, op_index and speed."""
    return sorted(
        (r for r in rows if r.machine == machine_id),
        key=lambda r: (r.start, r.end, not r.is_setup, r.job, r.op_index, r.speed),
    )


def _reference_pairs(rows, machine_id):
    """Consecutive process rows of one machine, each with whether the pair
    is continuous, by the pair walk that ``efjsp.model`` ran beside
    ``energy.account`` until the walk became the one place continuity is
    decided: the machine's rows sorted as timeline segments, and each pair
    tested on its own.  Kept as an independent reference for that walk."""
    timeline = _timeline(rows, machine_id)
    pairs = []
    prev = last = None
    for row in timeline:
        if not row.is_setup:
            if prev is not None:
                continuous = row.start <= prev.end or (
                    last.is_setup
                    and last.job == row.job
                    and last.end == row.start
                    and last.start <= prev.end
                )
                pairs.append((prev, row, continuous))
            prev = row
        last = row
    return pairs


def reference_intervals(inst, rows):
    """The stretches the reference pair walk encloses, machine by machine,
    each as an ``IntervalDecision``'s first five fields: machine, start,
    end and the gears on either side."""
    return [
        (mach.id, a.end, b.start, a.speed, b.speed)
        for mach in inst.machines
        for a, b, continuous in _reference_pairs(rows, mach.id)
        if not continuous
    ]


_rows = st.lists(
    st.tuples(
        st.integers(1, 2), st.integers(1, 2), st.booleans(), st.integers(1, 3),
        st.integers(0, 12), st.integers(0, 4),
    ).map(
        lambda t: ScheduledRow(
            job=t[0], op_index=0 if t[2] else 1, machine=t[1], speed=0 if t[2] else t[3],
            start=t[4], end=t[4] + t[5],
        )
    ),
    max_size=10,
)


# Three row sets that are no schedule, each of several faults; the merge
# refuses each on the first it meets.  A setup with a zero-length process
# of another job inside it (the rows overlap):
_SETUP_BEHIND_A_ZERO_LENGTH_PROCESS = [
    ScheduledRow(job=2, op_index=0, machine=1, speed=0, start=7, end=9),
    ScheduledRow(job=1, op_index=1, machine=1, speed=3, start=8, end=8),
    ScheduledRow(job=2, op_index=1, machine=1, speed=2, start=9, end=12),
]
# A row that ends before it starts, beside a setup that overlaps the
# process ahead of it:
_TWO_PAIRS_OVER_ONE_SPAN = [
    ScheduledRow(job=1, op_index=1, machine=1, speed=1, start=0, end=5),
    ScheduledRow(job=2, op_index=0, machine=1, speed=0, start=4, end=8),
    ScheduledRow(job=2, op_index=1, machine=1, speed=2, start=8, end=5),
    ScheduledRow(job=1, op_index=2, machine=1, speed=3, start=8, end=10),
]
# Every kind of setup row on one machine: a zero-length one serving its
# process, another job's, one that ends before its process starts and a
# dangling one at the end.
_EVERY_SETUP_CASE = [
    ScheduledRow(job=1, op_index=0, machine=1, speed=0, start=0, end=0),
    ScheduledRow(job=1, op_index=1, machine=1, speed=2, start=0, end=3),
    ScheduledRow(job=2, op_index=0, machine=1, speed=0, start=3, end=5),
    ScheduledRow(job=1, op_index=2, machine=1, speed=3, start=5, end=7),
    ScheduledRow(job=2, op_index=0, machine=1, speed=0, start=8, end=9),
    ScheduledRow(job=2, op_index=1, machine=1, speed=1, start=10, end=12),
    ScheduledRow(job=1, op_index=0, machine=1, speed=0, start=12, end=14),
]


@pytest.mark.parametrize(
    "rows, message",
    [
        ([ScheduledRow(1, 1, 1, 1, 3, 0)], "ends before it starts"),
        ([ScheduledRow(9, 1, 1, 1, 0, 5)], "unknown machine, job, operation or gear"),
        ([ScheduledRow(1, 3, 1, 1, 0, 5)], "unknown machine, job, operation or gear"),
        ([ScheduledRow(1, 1, 1, 4, 0, 5)], "unknown machine, job, operation or gear"),
        ([ScheduledRow(1, 1, 1, 1, 0, 3), ScheduledRow(1, 1, 2, 1, 5, 8)], "named twice"),
        ([ScheduledRow(1, 1, 1, 1, 0, 3), ScheduledRow(2, 1, 1, 1, 2, 5)], "overlap on machine 1"),
        ([ScheduledRow(1, 0, 1, 0, 0, 1)], "serves no process"),
        ([ScheduledRow(2, 0, 1, 0, 0, 2), ScheduledRow(1, 1, 1, 1, 2, 5)], "serves no process"),
        ([ScheduledRow(1, 0, 1, 0, 0, 1), ScheduledRow(1, 1, 1, 1, 2, 5)], "serves no process"),
        (
            [
                ScheduledRow(1, 0, 1, 0, 0, 1),
                ScheduledRow(2, 0, 1, 0, 1, 3),
                ScheduledRow(2, 1, 1, 1, 3, 5),
            ],
            "serves no process",
        ),
        (_SETUP_BEHIND_A_ZERO_LENGTH_PROCESS, "overlap on machine 1 at time 8"),
        (_TWO_PAIRS_OVER_ONE_SPAN, "ends before it starts"),
        (_EVERY_SETUP_CASE, "serves no process"),
        (
            [
                ScheduledRow(1, 0, 1, 0, 0, 0),
                ScheduledRow(1, 0, 1, 0, 0, 0),
                ScheduledRow(1, 1, 1, 3, 0, 6),
            ],
            "serves no process",
        ),
    ],
    ids=[
        "ends-before-it-starts", "unknown-job", "unknown-operation", "unknown-gear",
        "operation-named-twice", "overlapping-rows", "dangling-setup", "another-jobs-setup",
        "setup-ends-before-its-process", "setup-ahead-of-a-setup",
        "setup-behind-a-zero-length-process", "two-pairs-over-one-span", "every-setup-case",
        "repeated-zero-length-setup",
    ],
)
def test_rows_that_are_no_schedule_are_refused(inst, rows, message):
    # each is a fault validate_schedule reports: the merge refuses it with
    # one line rather than price it
    rows = tuple(rows)
    assert not validate_schedule(inst, rows).ok
    with pytest.raises(ValueError, match=message) as refused:
        total_energy(inst, rows)
    assert "\n" not in str(refused.value)


def _merges(inst, rows) -> bool:
    """Whether ``model.machine_timelines`` takes ``rows``, by its rules
    tested here row by row and pair by pair: ids and gears the instance
    has, no row that ends before it starts, no operation named twice, no
    two rows that overlap on a machine, and every setup directly ahead of
    a process row of its job that starts where the setup ends."""
    ops = [(r.job, r.op_index) for r in rows if not r.is_setup]
    if len(set(ops)) < len(ops):
        return False
    for r in rows:
        if not (
            1 <= r.machine <= len(inst.machines)
            and 1 <= r.job <= len(inst.jobs)
            and 0 <= r.op_index <= len(inst.job(r.job).operations)
            and (r.is_setup or 1 <= r.speed <= inst.speed_count)
            and r.start <= r.end
        ):
            return False
    for mach in inst.machines:
        timeline = _timeline(rows, mach.id)
        for row, behind in zip(timeline, timeline[1:] + [None]):
            if behind is not None and behind.start < row.end:
                return False
            if row.is_setup and not (
                behind is not None
                and not behind.is_setup
                and (behind.job, behind.start) == (row.job, row.end)
            ):
                return False
    return True


def _drawn_rows(seed: int) -> list[ScheduledRow]:
    """Up to ten rows drawn as ``_rows`` draws them, from ``random.Random(seed)``."""
    rng = random.Random(seed)
    rows = []
    for _ in range(rng.randint(0, 10)):
        job, machine, setup = rng.randint(1, 2), rng.randint(1, 2), rng.random() < 0.5
        speed, start, length = rng.randint(1, 3), rng.randint(0, 12), rng.randint(0, 4)
        rows.append(ScheduledRow(
            job=job, op_index=0 if setup else 1, machine=machine, speed=0 if setup else speed,
            start=start, end=start + length,
        ))
    return rows


def _drawn_schedule(seed: int) -> list[ScheduledRow]:
    """Rows with a critical chain on the sample's shape, from
    ``random.Random(seed)``: one or both of job 1's operations and one to
    four of job 2's, each after its job's last and after its machine's
    last process row.  Most bring a setup of their job, up to 3 long,
    that ends where the process starts and fits in the gap the machine
    leaves: zero-length ones, and ones that close the gap, included."""
    rng = random.Random(seed)
    ops = [job for job, most in ((1, 2), (2, 4)) for _ in range(rng.randint(1, most))]
    rng.shuffle(ops)
    job_ready, machine_free, nth = {}, {}, {}
    rows = []
    for job in ops:
        nth[job] = nth.get(job, 0) + 1
        machine = rng.randint(1, 2)
        free = machine_free.get(machine, 0)
        start = max(job_ready.get(job, 0), free) + rng.randint(0, 3)
        end = start + rng.randint(1, 4)
        job_ready[job] = machine_free[machine] = end
        rows.append(ScheduledRow(job, nth[job], machine, rng.randint(1, 3), start, end))
        if rng.random() < 0.7:
            setup = rng.randint(0, min(3, start - free))
            rows.append(ScheduledRow(job, 0, machine, 0, start - setup, start))
    rng.shuffle(rows)
    return rows


# sha256 of the breakdowns of the drawn row sets the merge takes and of the
# schedule-like draws, and of the schedule-like draws' critical chains, by
# repr; recorded before the merge refused any row set
ARBITRARY_ROWS_SHA256 = "d7419f19017cfec6f74f50780e1b6ea7e4590825c80812ce3a81cae4e73c95a4"


def test_arbitrary_rows_keep_their_breakdown_and_critical_path_bits(inst):
    # the 500 seeded draws of the property's shape that the merge takes and
    # 500 schedule-like draws: every energy sum and interval decision, and
    # the critical chain of the schedule-like ones, to the last bit
    accepted = [rows for rows in map(_drawn_rows, range(500)) if _merges(inst, rows)]
    schedules = [_drawn_schedule(seed) for seed in range(500)]
    assert len(accepted) == 72
    assert all(_merges(inst, rows) for rows in schedules)
    digest = hashlib.sha256()
    for rows in accepted + schedules:
        digest.update(repr(total_energy(inst, tuple(rows))).encode())
    for rows in schedules:
        digest.update(repr(critical_path(machine_timelines(inst, tuple(rows)))).encode())
    assert digest.hexdigest() == ARBITRARY_ROWS_SHA256


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(_rows)
def test_accounting_prices_the_stretches_is_continuous_leaves(inst, rows):
    # any rows, overlapping and zero-length ones included: the merge
    # refuses those that are no timelines, each a row set validate_schedule
    # reports; on the others the walk prices the stretches the reference
    # pair walk encloses, and model's views of them read the walk
    rows = tuple(rows)
    if not _merges(inst, rows):
        with pytest.raises(ValueError):
            total_energy(inst, rows)
        assert not validate_schedule(inst, rows).ok
        return
    want = reference_intervals(inst, rows)
    breakdown = total_energy(inst, rows)
    assert [d[:5] for d in breakdown.interval_decisions] == want
    total = 0  # left to right from the int 0, as the walk adds them (not ``sum``)
    for d in breakdown.interval_decisions:
        total += d.energy
    assert repr(breakdown.interval) == repr(total)  # the type too: 0 is not 0.0
    for mach in inst.machines:
        assert [d[:5] for d in idle_intervals(inst, rows, mach.id)] == [
            rec for rec in want if rec[0] == mach.id
        ]
        pairs = _reference_pairs(rows, mach.id)
        assert continuous_pairs(inst, rows, mach.id) == [(a, b) for a, b, cont in pairs if cont]


def test_total_energy_breakdown(inst, sched):
    bd = total_energy(inst, sched)
    assert bd.turn_on == 20.0
    assert bd.transition == 5.0
    assert bd.setup == 50.0
    assert bd.process == 740.0
    assert bd.interval == 53.0
    assert bd.tec == 868.0
    assert bd.tec == bd.turn_on + bd.transition + bd.setup + bd.process + bd.interval


@pytest.mark.parametrize("name", ["sample", "generated"])
def test_account_returns_tec_as_its_five_parts_summed_in_order(name):
    # the one sum that evaluate and total_energy both report, to the last bit
    if name == "sample":
        inst = sample_instance()
    else:
        inst = extend_instance(random_base(6, 4, seed=11), seed=11)
    rng = random.Random(11)
    for _ in range(20):
        chrom = random_chromosome(inst, rng)
        cmax, tec, ie1, ie2, se1, se2, ise = account(inst, Checkpoints(inst, chrom).timelines)
        assert repr(tec) == repr(ie1 + ie2 + se1 + se2 + ise)
        assert repr((cmax, tec)) == repr(evaluate(inst, chrom))


@pytest.mark.parametrize("machine", [0, 3])
def test_total_energy_rejects_unknown_machine(inst, sched, machine):
    stray = ScheduledRow(job=1, op_index=1, machine=machine, speed=1, start=40, end=45)
    with pytest.raises(ValueError, match="unknown machine"):
        total_energy(inst, sched + (stray,))


def test_total_energy_decision_order(inst, sched):
    bd = total_energy(inst, sched)
    keys = [(d.machine, d.start) for d in bd.interval_decisions]
    assert keys == sorted(keys)
    assert len(bd.interval_decisions) == 2


def test_turn_on_vector_overrides_dormancy_row(inst, sched):
    # an explicit first-activation vector replaces the wake-up switch cost
    boosted = dataclasses.replace(
        inst.machine(1), turn_on=(100.0, 200.0, 300.0)
    )
    inst2 = dataclasses.replace(inst, machines=(boosted,) + inst.machines[1:])
    # machine 1 starts at gear 3 -> 300 instead of switch[0][3] = 10
    assert total_energy(inst2, sched).turn_on == 300.0 + 10.0


def _read_both_ways(inst):
    """``inst`` read from a document without ``turn_on`` keys, and from one
    whose ``turn_on`` is written out as ``switch[0][1..s]``."""
    bare, written = load_document(write_instance(inst)), load_document(write_instance(inst))
    for b, w in zip(bare["machines"], written["machines"]):
        del b["turn_on"]
        w["turn_on"] = w["switch"][0][1:]
    return read_instance(dump_document(bare)), read_instance(dump_document(written))


@pytest.mark.parametrize("name", ["sample", "generated"])
def test_a_machine_read_without_turn_on_wakes_up_at_its_switch_row(name):
    if name == "sample":
        inst = sample_instance()
    else:
        inst = extend_instance(random_base(5, 3, seed=8), seed=8)
    bare, written = _read_both_ways(inst)
    assert all(m.turn_on == m.switch[0][1:] for m in bare.machines)
    assert bare == written
    rng = random.Random(0)
    for _ in range(20):
        chrom = random_chromosome(bare, rng)
        assert repr(evaluate(bare, chrom)) == repr(evaluate(written, chrom))
        assert repr(total_energy(bare, decode(bare, chrom))) == repr(
            total_energy(written, decode(written, chrom))
        )
        assert cross_check(bare, chrom) and cross_check(written, chrom)
    text = write_instance(bare)
    assert all("turn_on" in m for m in load_document(text)["machines"])
    assert read_instance(text) == bare
