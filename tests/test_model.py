"""Schedule rows, validation, and idle-interval extraction."""

from __future__ import annotations

import dataclasses
import json
import math
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import with_process_power
from efjsp.benchmark import extend_instance, random_base
from efjsp.encoding import decode, evaluate, random_chromosome
from efjsp.energy import total_energy
from efjsp.model import (
    JobSpec,
    Machine,
    OperationSpec,
    ProcessingOption,
    ProblemInstance,
    ScheduledRow,
    _energy_bound,
    continuous_pairs,
    idle_intervals,
    validate_instance,
    validate_schedule,
)
from efjsp.sample import sample_instance
from test_evaluate import generated_problems, problems


def test_sample_instance_is_valid(inst):
    report = validate_instance(inst)
    assert report.ok
    assert report.errors == []
    assert report.violations == []


def test_instance_lookups(inst):
    assert inst.job(2).setup_time == 2
    assert inst.machine(2).standby_power == 2.0
    assert inst.total_operations == 6
    op = inst.operation(2, 2)
    assert {(o.machine, o.speed) for o in op.options} == {
        (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3),
    }


def test_validate_instance_flags_negative_switch(inst):
    m = inst.machines[0]
    bad_switch = tuple(
        tuple(-1.0 if (i, j) == (1, 2) else v for j, v in enumerate(row))
        for i, row in enumerate(m.switch)
    )
    bad = dataclasses.replace(m, switch=bad_switch)
    inst2 = dataclasses.replace(inst, machines=(bad,) + inst.machines[1:])
    report = validate_instance(inst2)
    assert not report.ok
    assert any("switch" in v for v in report.violations)


@pytest.mark.parametrize("duration, ok", [(2**53 - 1, True), (2**53, False)])
def test_validate_instance_bounds_the_horizon(inst, duration, ok):
    # one operation: its longest option plus its job's setup of 1
    options = (ProcessingOption(1, 1, 1), ProcessingOption(1, 2, duration))
    job = JobSpec(id=1, setup_time=1, operations=(OperationSpec(options),))
    report = validate_instance(dataclasses.replace(inst, jobs=(job,)))
    horizon = [v for v in report.violations if "horizon" in v]
    assert horizon == ([] if ok else [
        "horizon (each operation's longest option plus its job's setup, summed) "
        "exceeds 2**53, beyond which times are not exact as floats"
    ])
    assert report.ok is ok


def test_validate_instance_flags_each_non_finite_value(inst):
    m = inst.machines[0]
    nan, inf = float("nan"), float("inf")
    bad = dataclasses.replace(
        m,
        setup_power=nan,
        process_power=(inf,) + m.process_power[1:],
        idle_power=(nan, nan) + m.idle_power[2:],
        switch=((0.0, nan) + m.switch[0][2:],) + m.switch[1:],
    )
    report = validate_instance(dataclasses.replace(inst, machines=(bad,) + inst.machines[1:]))
    assert [v for v in report.violations if "non-finite" in v] == [
        "machine 1: non-finite setup power nan",
        "machine 1: non-finite process power inf",
        "machine 1: non-finite idle power nan",
        "machine 1: non-finite idle power nan",
        "machine 1: non-finite switch energy nan",
    ]


def test_validate_instance_reports_an_int_power_beyond_the_float_range():
    inst = sample_instance()
    m = inst.machines[0]
    big = dataclasses.replace(m, setup_power=10**400, process_power=(10**400, *m.process_power[1:]))
    report = validate_instance(dataclasses.replace(inst, machines=(big, *inst.machines[1:])))
    assert report.violations == [
        "machine 1: setup power too large for a float",
        "machine 1: process power too large for a float",
    ]


_ENERGY_BOUND_VIOLATION = (
    "energy bound (turn-ons, idle or standby power over the horizon, and each "
    "operation's dearest option, setup and switch) overflows a float"
)


def _horizon(inst) -> int:
    return sum(
        max(o.duration for o in op.options) + job.setup_time
        for job in inst.jobs
        for op in job.operations
    )


def test_validate_instance_refuses_energies_that_overflow():
    # every power is finite, but one operation's processing energy is not
    inst = with_process_power(extend_instance(random_base(3, 2, seed=1), seed=1), 1e308)
    report = validate_instance(inst)
    assert report.violations == [_ENERGY_BOUND_VIOLATION]
    assert not report.ok


def test_validate_instance_accepts_an_energy_bound_near_the_float_limit():
    # the bound is linear in the process power: rest + per_unit * power
    inst = extend_instance(random_base(3, 2, seed=1), seed=1)
    rest = _energy_bound(with_process_power(inst, 0.0), _horizon(inst))
    per_unit = _energy_bound(with_process_power(inst, 1.0), _horizon(inst)) - rest
    near = with_process_power(inst, (sys.float_info.max / 2 - rest) / per_unit)
    bound = _energy_bound(near, _horizon(near))
    assert sys.float_info.max / 4 < bound < math.inf
    assert validate_instance(near).ok
    rng = random.Random(1)
    for _ in range(20):
        assert evaluate(near, random_chromosome(near, rng))[1] <= bound


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.one_of(problems(), generated_problems()))
def test_energy_bound_holds_the_total_energy_of_every_schedule(problem):
    # the bound and the accounting add the same kinds of terms in other
    # orders, hence the rounding allowance
    inst, chrom = problem
    assert evaluate(inst, chrom)[1] <= _energy_bound(inst, _horizon(inst)) * (1 + 1e-12)


def test_makespan_and_rows(inst, sched):
    assert total_energy(inst, sched).cmax == 21
    process = [r for r in sched if not r.is_setup]
    setups = [r for r in sched if r.is_setup]
    assert len(process) == 6
    assert len(setups) == 3
    for r in setups:
        assert r.speed == 0
        assert r.op_index == 0


def test_validate_schedule_accepts_decoded(inst, sched):
    report = validate_schedule(inst, sched)
    assert report.ok, str(report)


def test_validate_schedule_rejects_overlap(inst, sched):
    shifted = []
    for r in sched:
        if (r.job, r.op_index, r.machine) == (1, 2, 1):
            shifted.append(r._replace(start=5, end=7))
        else:
            shifted.append(r)
    report = validate_schedule(inst, tuple(shifted))
    assert not report.ok


def test_validate_schedule_rejects_missing_operation(inst, sched):
    rows = tuple(r for r in sched if (r.job, r.op_index) != (2, 4))
    report = validate_schedule(inst, rows)
    assert not report.ok
    assert any("missing" in v for v in report.violations)


def test_validate_schedule_rejects_precedence_break(inst, sched):
    # swap the start times of a job's two consecutive operations
    rows = []
    for r in sched:
        if (r.job, r.op_index) == (2, 3):
            rows.append(r._replace(start=2, end=5))
        elif (r.job, r.op_index) == (2, 1):
            rows.append(r._replace(start=12, end=21))
        else:
            rows.append(r)
    report = validate_schedule(inst, tuple(rows))
    assert not report.ok


def test_validate_schedule_flags_new_job_block_without_setup(inst, sched):
    rows = tuple(r for r in sched if not (r.is_setup and r.machine == 2))
    report = validate_schedule(inst, rows)
    assert not report.ok
    assert any("setup" in v for v in report.violations)


def test_idle_intervals_of_sample(inst, sched):
    # machine, start, end and the gears on either side
    assert [d[:5] for d in idle_intervals(inst, sched, 1)] == [(1, 9, 15, 3, 2)]
    assert [d[:5] for d in idle_intervals(inst, sched, 2)] == [(2, 15, 18, 2, 3)]


def test_continuous_pairs_of_sample(inst, sched):
    # back-to-back rows and setup-covered gaps count as continuous
    m1 = continuous_pairs(inst, sched, 1)
    keys = {((a.job, a.op_index), (b.job, b.op_index)) for a, b in m1}
    assert ((1, 1), (1, 2)) in keys
    assert ((2, 3), None) not in keys
    m2 = continuous_pairs(inst, sched, 2)
    keys2 = {((a.job, a.op_index), (b.job, b.op_index)) for a, b in m2}
    assert ((2, 1), (2, 2)) in keys2


def test_setup_covered_gap_is_continuous(inst):
    # a gap fully hidden behind the follower's setup produces no interval
    rows = (
        ScheduledRow(job=1, op_index=0, machine=1, speed=0, start=0, end=1),
        ScheduledRow(job=1, op_index=1, machine=1, speed=3, start=1, end=7),
        ScheduledRow(job=2, op_index=0, machine=1, speed=0, start=7, end=9),
        ScheduledRow(job=2, op_index=1, machine=1, speed=3, start=9, end=19),
    )
    assert idle_intervals(inst, rows, 1) == []


def test_instance_contiguity_check():
    m = Machine(
        id=1,
        setup_power=1.0,
        process_power=(1.0, 2.0, 3.0),
        idle_power=(1.0, 2.0, 3.0),
        standby_power=0.5,
        switch=tuple(tuple(0.0 for _ in range(4)) for _ in range(4)),
    )
    from efjsp.model import JobSpec, OperationSpec, ProcessingOption

    job = JobSpec(
        id=5,
        setup_time=1,
        operations=(
            OperationSpec((ProcessingOption(1, 1, 4),)),
        ),
    )
    inst = ProblemInstance(jobs=(job,), machines=(m,), speed_count=3)
    report = validate_instance(inst)
    assert not report.ok


# Reports of `validate_schedule` on seeded perturbations of decoded
# schedules, recorded before its overlap and setup-discipline checks were
# folded into one walk per machine; re-recorded once since, when a setup
# row listed twice became a violation.  Re-record (only when a message is
# meant to change) with ``PYTHONPATH=src python tests/test_model.py``.
VALIDATE_PINS = Path(__file__).parent / "data" / "validate_pins.json"
CASES_PER_INSTANCE = 600


def _pin_instances() -> list[ProblemInstance]:
    """The sample instance, generated ones, a one-machine and a zero-setup one."""
    def generated(jobs, machines, seed):
        return extend_instance(random_base(jobs, machines, seed=seed), seed=seed)

    zero_setup = generated(6, 3, 34)
    return [
        sample_instance(),
        generated(4, 3, 31),
        generated(8, 5, 32),
        generated(5, 1, 33),
        dataclasses.replace(
            zero_setup, jobs=tuple(dataclasses.replace(j, setup_time=0) for j in zero_setup.jobs)
        ),
    ]


def _perturb(inst: ProblemInstance, rows: list[ScheduledRow], rng: random.Random) -> None:
    """Apply one random edit to ``rows`` in place."""
    kind = rng.choice(
        ("drop", "shift", "duplicate", "machine", "job", "stretch", "shuffle", "tie", "twin")
    )
    if kind == "shuffle":
        rng.shuffle(rows)
        return
    i = rng.randrange(len(rows))
    r = rows[i]
    if kind == "drop":
        del rows[i]
    elif kind == "shift":
        d = rng.choice((-3, -2, -1, 1, 2, 3))
        rows[i] = r._replace(start=r.start + d, end=r.end + d)
    elif kind == "duplicate":
        rows.insert(rng.randrange(len(rows) + 1), r)
    elif kind == "machine":
        rows[i] = r._replace(machine=rng.randint(0, len(inst.machines) + 1))
    elif kind == "job":
        rows[i] = r._replace(job=rng.randint(0, len(inst.jobs) + 1))
    elif kind == "stretch":
        rows[i] = r._replace(end=r.end + rng.randint(1, 3))
    elif kind == "tie":
        # another row onto the same machine and (start, end) span as r
        j = rng.randrange(len(rows))
        rows[j] = rows[j]._replace(machine=r.machine, start=r.start, end=r.end)
    else:
        # a copy of r for another job, ahead of r in the schedule
        rows.insert(i, r._replace(job=rng.randint(1, len(inst.jobs))))


def validation_record(inst: ProblemInstance, seed: int) -> list[list[str]]:
    """The report on one seeded perturbation of a decoded schedule."""
    rng = random.Random(seed)
    rows = list(decode(inst, random_chromosome(inst, rng)))
    for _ in range(rng.randint(1, 3)):
        _perturb(inst, rows, rng)
    report = validate_schedule(inst, tuple(rows))
    return [report.errors, report.violations, report.warnings]


def validation_records() -> list[list[list[str]]]:
    return [
        validation_record(inst, 1000 * k + i)
        for k, inst in enumerate(_pin_instances())
        for i in range(CASES_PER_INSTANCE)
    ]


def test_validate_schedule_reproduces_recorded_reports():
    pins = json.loads(VALIDATE_PINS.read_text())
    got = validation_records()
    assert len(got) == len(pins)
    for case, (report, pin) in enumerate(zip(got, pins)):
        assert report == pin, case
    messages = [m for report in pins for part in report for m in part]
    for fragment in (
        "unknown machine id", "unknown job id", "has no operation", "rows overlap",
        "before operation", "missing setup", "dangling setup", "is scheduled 2 times",
        "is listed 2 times",
    ):
        assert any(fragment in m for m in messages), fragment


# Reports of `validate_instance` on seeded perturbations (one to three
# edits each) of the same instances, recorded before its horizon was
# summed in its walk over the options.  Re-record with the schedule pins.
VALIDATE_INSTANCE_PINS = Path(__file__).parent / "data" / "validate_instance_pins.json"
INSTANCE_CASES_PER_INSTANCE = 80
_MACHINE_NUMBERS = ("setup_power", "process_power", "idle_power", "standby_power", "switch", "turn_on")


def _replaced(items: tuple, i: int, value) -> tuple:
    return items[:i] + (value,) + items[i + 1 :]


def _set_number(mach: Machine, rng: random.Random, value, names=_MACHINE_NUMBERS) -> Machine:
    """``mach`` with one random entry of one of its ``names`` tables at ``value``."""
    name = rng.choice(names)
    old = getattr(mach, name)
    if name == "switch":
        a = rng.randrange(len(old))
        new = _replaced(old, a, _replaced(old[a], rng.randrange(len(old[a])), value))
    elif isinstance(old, tuple):
        new = _replaced(old, rng.randrange(len(old)), value)
    else:
        new = value
    return dataclasses.replace(mach, **{name: new})


def _perturb_instance(inst: ProblemInstance, rng: random.Random) -> ProblemInstance:
    """``inst`` with one random edit."""
    kind = rng.choice((
        "setup", "job id", "machine id", "no options", "unknown machine", "gear", "duration",
        "duplicate", "horizon", "vector", "non-finite", "huge", "negative power", "standby",
        "switch shape", "diagonal", "negative energy", "overflow",
    ))
    j = rng.randrange(len(inst.jobs))
    job = inst.jobs[j]
    if kind in ("setup", "job id"):
        job = dataclasses.replace(job, **(
            {"setup_time": -rng.randint(1, 3)} if kind == "setup"
            else {"id": rng.choice((0, j, j + 2, len(inst.jobs) + 1))}
        ))
        return dataclasses.replace(inst, jobs=_replaced(inst.jobs, j, job))
    if kind in ("no options", "unknown machine", "gear", "duration", "duplicate", "horizon"):
        k = rng.randrange(len(job.operations))
        options = job.operations[k].options
        if kind == "no options":
            options = ()
        elif options:
            x = rng.randrange(len(options))
            opt = options[x]
            if kind == "duplicate":
                options += (dataclasses.replace(opt, duration=opt.duration + 1),)
            else:
                change = {
                    "unknown machine": {"machine": rng.choice((0, len(inst.machines) + 1))},
                    "gear": {"speed": rng.choice((0, inst.speed_count + 1))},
                    "duration": {"duration": rng.choice((0, -1, -7))},
                    "horizon": {"duration": 2**53},
                }[kind]
                options = _replaced(options, x, dataclasses.replace(opt, **change))
        job = dataclasses.replace(
            job, operations=_replaced(job.operations, k, OperationSpec(options))
        )
        return dataclasses.replace(inst, jobs=_replaced(inst.jobs, j, job))
    if kind == "overflow":
        # every number finite, but some schedule's energy is not
        return with_process_power(inst, 1e308)
    m = rng.randrange(len(inst.machines))
    mach = inst.machines[m]
    if kind == "machine id":
        mach = dataclasses.replace(mach, id=rng.choice((0, m, m + 2, len(inst.machines) + 1)))
    elif kind == "vector":
        name = rng.choice(("process_power", "idle_power", "turn_on"))
        old = getattr(mach, name)
        mach = dataclasses.replace(mach, **{name: old[:-1] if rng.random() < 0.5 else old + (1.0,)})
    elif kind == "non-finite":
        mach = _set_number(mach, rng, rng.choice((math.nan, math.inf, -math.inf)))
    elif kind == "huge":
        mach = _set_number(mach, rng, 10**400)
    elif kind == "negative power":
        mach = _set_number(mach, rng, -rng.choice((0.5, 3.0)), _MACHINE_NUMBERS[:4])
    elif kind == "standby":
        mach = dataclasses.replace(mach, standby_power=max(mach.idle_power, default=0.0) + 1.0)
    elif kind == "switch shape":
        sw = mach.switch
        a = rng.randrange(len(sw))
        mach = dataclasses.replace(mach, switch=rng.choice((
            sw[:-1], _replaced(sw, a, sw[a][:-1]), _replaced(sw, a, sw[a] + (0.0,)),
        )))
    elif kind == "diagonal":
        a = rng.randrange(min(len(mach.switch), min(map(len, mach.switch))))
        row = mach.switch[a]
        mach = dataclasses.replace(mach, switch=_replaced(mach.switch, a, _replaced(row, a, 1.0)))
    else:
        mach = _set_number(mach, rng, -rng.choice((0.5, 3.0)), _MACHINE_NUMBERS[4:])
    return dataclasses.replace(inst, machines=_replaced(inst.machines, m, mach))


def instance_validation_record(inst: ProblemInstance, seed: int) -> list[list[str]]:
    """The report on one seeded perturbation of an instance."""
    rng = random.Random(seed)
    for _ in range(rng.randint(1, 3)):
        inst = _perturb_instance(inst, rng)
    report = validate_instance(inst)
    return [report.errors, report.violations, report.warnings]


def instance_validation_records() -> list[list[list[str]]]:
    return [
        instance_validation_record(inst, 1000 * k + i)
        for k, inst in enumerate(_pin_instances())
        for i in range(INSTANCE_CASES_PER_INSTANCE)
    ]


def test_validate_instance_reproduces_recorded_reports():
    pins = json.loads(VALIDATE_INSTANCE_PINS.read_text())
    got = instance_validation_records()
    assert len(got) == len(pins)
    for case, (report, pin) in enumerate(zip(got, pins)):
        assert report == pin, case
    messages = [m for report in pins for part in report for m in part]
    for fragment in (
        "negative setup time", "job ids must be contiguous", "machine ids must be contiguous",
        "unprocessable", "unknown machine", "out of range", "non-positive duration",
        "duplicate option", "power vectors must have", "turn_on vector must have",
        "non-finite", "too large for a float", "negative setup power", "negative process power",
        "negative idle power", "negative standby power", "standby power exceeds",
        "switch table must be", "diagonal must be zero", "negative switch energy",
        "negative turn-on energy", "horizon", "energy bound",
    ):
        assert any(fragment in m for m in messages), fragment


if __name__ == "__main__":
    for path, records in (
        (VALIDATE_PINS, validation_records()),
        (VALIDATE_INSTANCE_PINS, instance_validation_records()),
    ):
        lines = ",\n".join(json.dumps(r, separators=(",", ":")) for r in records)
        path.write_text(f"[\n{lines}\n]\n")
        print(path)
