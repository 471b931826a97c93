"""Problem data model for energy-aware flexible job shop scheduling.

Machines run at one of several speed gears while processing.  Gears are
numbered 1..s from slowest to fastest; gear 0 denotes the standby speed.
Each job carries a setup time that must be spent on a machine before the
first operation of a contiguous block of that job, and every speed change
costs energy according to a per-machine switch table.

Conventions used throughout the package:

* job ids and machine ids are 1-based and contiguous,
* operation indices within a job are 1-based,
* times are non-negative integers, powers and energies are floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple


@dataclass(frozen=True)
class ProcessingOption:
    """One (machine, speed) choice for an operation and its running time."""

    machine: int
    speed: int
    duration: int


@dataclass(frozen=True)
class OperationSpec:
    """One operation's processing options.

    An operation is known by its place: operation ``k`` of job ``j`` is
    ``inst.jobs[j - 1].operations[k - 1]``.
    """

    options: tuple[ProcessingOption, ...]


@dataclass(frozen=True)
class JobSpec:
    """A job: an ordered chain of operations plus the job's setup time."""

    id: int
    setup_time: int
    operations: tuple[OperationSpec, ...]


@dataclass(frozen=True)
class Machine:
    """Power profile and switch-energy table of one machine.

    ``process_power`` and ``idle_power`` are indexed by ``gear - 1`` for
    gears 1..s.  ``standby_power`` is drawn while the machine waits at
    speed 0.  ``switch[a][b]`` is the energy charged for changing speed
    from gear ``a`` to gear ``b`` (0 meaning standby); the diagonal is
    zero.  ``turn_on[g - 1]`` is charged for the initial power-up of the
    machine into gear ``g``; a machine built without one gets the switch
    table's row from standby, ``switch[0][1..s]``, so after construction
    ``turn_on`` is always a tuple.
    """

    id: int
    setup_power: float
    process_power: tuple[float, ...]
    idle_power: tuple[float, ...]
    standby_power: float
    switch: tuple[tuple[float, ...], ...]
    turn_on: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.turn_on is None:
            object.__setattr__(self, "turn_on", tuple(self.switch[0][1:]) if self.switch else ())


@dataclass(frozen=True)
class ProblemInstance:
    """Immutable description of one scheduling problem."""

    jobs: tuple[JobSpec, ...]
    machines: tuple[Machine, ...]
    speed_count: int

    def job(self, job_id: int) -> JobSpec:
        return self.jobs[job_id - 1]

    def machine(self, machine_id: int) -> Machine:
        return self.machines[machine_id - 1]

    def operation(self, job_id: int, op_index: int) -> OperationSpec:
        return self.jobs[job_id - 1].operations[op_index - 1]

    @property
    def total_operations(self) -> int:
        return sum(len(j.operations) for j in self.jobs)

    @cached_property
    def columns(self) -> tuple[tuple[OperationColumns, ...], ...]:
        """``encoding.build_message_matrix(self)``: every operation's message
        matrix as the decoder reads it, indexed by job id - 1 and then
        op_index - 1; built on first use and kept (equality and hashing
        still read only the three fields)."""
        from .encoding import build_message_matrix  # encoding imports this module
        return build_message_matrix(self)

    @cached_property
    def energy_ranks(self) -> tuple[tuple[int, ...], ...]:
        """``encoding.energy_ranking(self)``: every operation's columns by
        processing energy, in mv order; derived on first use and kept."""
        from .encoding import energy_ranking
        return energy_ranking(self)


# One operation as the decoder reads it: its 0-based position in mv, its
# job's setup time and its columns as (machine, speed, duration) triples,
# column c at index c - 1.
OperationColumns = tuple[int, int, tuple[tuple[int, int, int], ...]]


class ScheduledRow(NamedTuple):
    """One occupied span on a machine.

    ``op_index`` 0 marks a setup row (``speed`` is 0 there); process rows
    carry the operation's 1-based index and its chosen gear.  A schedule
    is a tuple of these rows (``encoding.decode`` lists them in os order).
    """

    job: int
    op_index: int
    machine: int
    speed: int
    start: int
    end: int

    @property
    def is_setup(self) -> bool:
        return self.op_index == 0

    @property
    def duration(self) -> int:
        return self.end - self.start


# A machine timeline holds one segment per placed operation, a plain tuple
# (start, end, job, op_index, speed, setup_end), in time order; op_index
# is 1 or more.  ``start`` is where the machine becomes busy: the start of
# the operation's own setup when it brings one, and ``setup_end`` is then
# the process start; it is None when the operation runs on from its job's
# previous one there.  A zero-length setup still sets it.  The decoder
# builds one timeline per machine; energy accounting walks them.
Segment = tuple[int, int, int, int, int, int | None]


def machine_timelines(
    inst: ProblemInstance, sched: tuple[ScheduledRow, ...]
) -> list[list[Segment]]:
    """Timelines of all machines, indexed by machine id - 1.

    Each machine's rows are sorted once, by (start, end), setups first,
    job, op_index and speed, and merged as they are walked: a setup row
    goes into the process row directly behind it.  Rows that form no
    (partial) schedule raise a one-line ValueError: unknown ids or gears,
    a row that ends before it starts, an operation named twice, rows that
    overlap on a machine, or a setup row that serves no process.
    """
    sizes = [len(job.operations) for job in inst.jobs]
    out: list[list] = [[] for _ in inst.machines]
    for r in sched:
        job, op, machine, speed, start, end = r
        known = 0 < machine <= len(out) and 0 < job <= len(sizes) and 0 <= op <= sizes[job - 1]
        if not known or op and not 0 < speed <= inst.speed_count:
            raise ValueError(f"row {r} names an unknown machine, job, operation or gear")
        if end < start:
            raise ValueError(f"row {r} ends before it starts")
        out[machine - 1].append((start, end, op != 0, job, op, speed))
    named = set()
    for m, rows in enumerate(out, 1):
        rows.sort()
        seq = out[m - 1] = []
        setup = None  # (start, end, job) of a setup row waiting for its process row
        prev_end = -math.inf
        for start, end, is_process, job, op, speed in rows:
            if start < prev_end:
                raise ValueError(f"rows overlap on machine {m} at time {start}")
            prev_end = end
            if setup and (not is_process or setup[1:] != (start, job)):
                break  # the setup row is not directly ahead of a process row of its job
            if not is_process:
                setup = (start, end, job)
            elif (job, op) in named:
                raise ValueError(f"operation {op} of job {job} is named twice")
            else:
                named.add((job, op))
                busy, setup_end = (start, None) if setup is None else (setup[0], start)
                seq.append((busy, end, job, op, speed, setup_end))
                setup = None
        if setup:
            raise ValueError(f"job {setup[2]}'s setup at {setup[0]} on machine {m} serves no process")
    return out


@dataclass
class ValidationReport:
    """Outcome of a validation pass.

    ``errors`` hold structural problems (ids that do not exist in the
    instance), ``violations`` hold feasibility problems, ``warnings`` are
    advisory only.  A report is ``ok`` when errors and violations are
    both empty.
    """

    errors: list[str] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors and not self.violations

    def __str__(self) -> str:
        if self.ok and not self.warnings:
            return "ok"
        parts = [f"error: {e}" for e in self.errors]
        parts += [f"violation: {v}" for v in self.violations]
        parts += [f"warning: {w}" for w in self.warnings]
        return "\n".join(parts)


# Every schedule ends by the horizon, and the energy model multiplies
# times by float powers, so times must stay exact as floats.
MAX_HORIZON = 2**53


def _energy_bound(inst: ProblemInstance, horizon: int) -> float:
    """An upper bound, in floats, on the total energy of any schedule that
    ends by ``horizon``, for an instance whose ids, gears and table shapes
    are valid.  Each machine adds its dearest turn-on and its dearest idle
    or standby power over the whole horizon; each operation adds its
    dearest option's processing energy, its job's setup at the dearest
    setup power and the dearest switch.  A schedule spends no more: a
    machine turns on once, its idle stretches fit in the horizon, and
    every process segment brings at most one setup and one switch (a
    stretch's cheaper choice costs at most idling, which pays one switch).
    Not finite when the instance's energies overflow a float."""
    bound = 0.0
    process = []
    for mach in inst.machines:
        bound += max(mach.turn_on) + max((*mach.idle_power, mach.standby_power)) * float(horizon)
        process.append([float(p) for p in mach.process_power])
    setup = max(float(mach.setup_power) for mach in inst.machines)
    switch = max(float(v) for mach in inst.machines for row in mach.switch for v in row)
    for job in inst.jobs:
        extra = setup * job.setup_time + switch
        for op in job.operations:
            dearest = max(process[o.machine - 1][o.speed - 1] * o.duration for o in op.options)
            bound += extra + dearest
    return bound


def validate_instance(inst: ProblemInstance) -> ValidationReport:
    """Check an instance for well-formedness.

    Structural rules (contiguous ids, gear ranges, positive durations,
    power vector shapes, finite powers and energies, zero switch
    diagonal, a horizon of at most ``MAX_HORIZON``) land in
    ``violations``, one per non-finite value.  The horizon, each
    operation's longest option plus its job's setup time, is summed in
    the one walk over the options that checks them.  An instance that
    passes them all must also have a finite energy bound
    (``_energy_bound`` over the horizon), so that no schedule's total
    energy overflows.
    Economically odd but legal data (standby power above the cheapest
    idle power) only produces a warning.
    """
    report = ValidationReport()
    s = inst.speed_count
    if s < 1:
        report.violations.append("speed_count must be at least 1")
        return report
    if inst.total_operations == 0:
        report.violations.append("instance has no operations")

    horizon = 0
    for pos, job in enumerate(inst.jobs, start=1):
        if job.id != pos:
            report.violations.append(
                f"job ids must be contiguous from 1 (found {job.id} at position {pos})"
            )
        if job.setup_time < 0:
            report.violations.append(f"job {job.id}: negative setup time")
        for opos, op in enumerate(job.operations, start=1):
            label = f"operation ({job.id},{opos})"
            if not op.options:
                report.violations.append(f"{label}: unprocessable, no options")
            seen: set[tuple[int, int]] = set()
            longest = op.options[0].duration if op.options else 0
            for opt in op.options:
                longest = max(longest, opt.duration)
                if not 1 <= opt.machine <= len(inst.machines):
                    report.violations.append(f"{label}: unknown machine {opt.machine}")
                if not 1 <= opt.speed <= s:
                    report.violations.append(f"{label}: gear {opt.speed} out of range 1..{s}")
                if opt.duration <= 0:
                    report.violations.append(f"{label}: non-positive duration")
                key = (opt.machine, opt.speed)
                if key in seen:
                    report.violations.append(f"{label}: duplicate option {key}")
                seen.add(key)
            horizon += longest + job.setup_time

    if horizon > MAX_HORIZON:
        report.violations.append(
            "horizon (each operation's longest option plus its job's setup, summed) "
            "exceeds 2**53, beyond which times are not exact as floats"
        )

    for pos, mach in enumerate(inst.machines, start=1):
        label = f"machine {mach.id}"
        if mach.id != pos:
            report.violations.append(
                f"machine ids must be contiguous from 1 (found {mach.id} at position {pos})"
            )
        if len(mach.process_power) != s or len(mach.idle_power) != s:
            report.violations.append(f"{label}: power vectors must have {s} entries")
        for name, values in (
            ("setup power", (mach.setup_power,)),
            ("process power", mach.process_power),
            ("idle power", mach.idle_power),
            ("standby power", (mach.standby_power,)),
            ("switch energy", [v for row in mach.switch for v in row]),
            ("turn-on energy", mach.turn_on),
        ):
            for v in values:
                try:
                    if not math.isfinite(v):
                        report.violations.append(f"{label}: non-finite {name} {v}")
                except OverflowError:  # an int beyond the float range
                    report.violations.append(f"{label}: {name} too large for a float")
        for name, values in (("process", mach.process_power), ("idle", mach.idle_power)):
            if any(p < 0 for p in values):
                report.violations.append(f"{label}: negative {name} power")
        if mach.setup_power < 0:
            report.violations.append(f"{label}: negative setup power")
        if mach.standby_power < 0:
            report.violations.append(f"{label}: negative standby power")
        if mach.idle_power and mach.standby_power > min(mach.idle_power):
            report.warnings.append(
                f"{label}: standby power exceeds the lowest idle power"
            )
        if len(mach.switch) != s + 1 or any(len(row) != s + 1 for row in mach.switch):
            report.violations.append(f"{label}: switch table must be {s + 1}x{s + 1}")
        else:
            for a in range(s + 1):
                if mach.switch[a][a] != 0:
                    report.violations.append(f"{label}: switch table diagonal must be zero")
                for b in range(s + 1):
                    if mach.switch[a][b] < 0:
                        report.violations.append(f"{label}: negative switch energy")
        if len(mach.turn_on) != s:
            report.violations.append(f"{label}: turn_on vector must have {s} entries")
        elif any(t < 0 for t in mach.turn_on):
            report.violations.append(f"{label}: negative turn-on energy")
    if not report.violations and not math.isfinite(_energy_bound(inst, horizon)):
        report.violations.append(
            "energy bound (turn-ons, idle or standby power over the horizon, and each "
            "operation's dearest option, setup and switch) overflows a float"
        )
    return report


def process_rows(sched: tuple[ScheduledRow, ...], machine_id: int) -> list[ScheduledRow]:
    """Process rows on one machine, ordered by start time."""
    rows = [r for r in sched if r.machine == machine_id and not r.is_setup]
    rows.sort(key=lambda r: (r.start, r.end))
    return rows


def setup_rows(sched: tuple[ScheduledRow, ...], machine_id: int) -> list[ScheduledRow]:
    """Setup rows on one machine, ordered by start time."""
    rows = [r for r in sched if r.machine == machine_id and r.is_setup]
    rows.sort(key=lambda r: (r.start, r.end))
    return rows


def idle_intervals(inst: ProblemInstance, sched: tuple[ScheduledRow, ...], machine_id: int) -> list:
    """The ``energy.IntervalDecision`` of every priced stretch on one
    machine, ascending by start: ``energy.total_energy(inst, sched)``'s
    decisions there.

    Gaps fully covered by a setup row are not stretches (the machine goes
    straight from one operation into the next setup).  The stretch before
    the first process row and after the last one is never reported; those
    boundaries are handled by turn-on accounting and shutdown.
    """
    from .energy import total_energy  # energy imports this module
    return [d for d in total_energy(inst, sched).interval_decisions if d.machine == machine_id]


def continuous_pairs(
    inst: ProblemInstance, sched: tuple[ScheduledRow, ...], machine_id: int
) -> list[tuple[ScheduledRow, ScheduledRow]]:
    """Consecutive process rows on one machine, in timeline order, that
    ``energy.account`` walks as continuous: the pairs that pay a gear
    switch rather than enclose a priced stretch.

    Each pair is walked on its own, as the timeline of the machine's rows
    from the one to the other, so two pairs that span the same numbers
    are told apart."""
    from .energy import account  # energy imports this module
    rows = sorted(
        (r for r in sched if r.machine == machine_id),
        key=lambda r: (r.start, r.end, not r.is_setup, r.job, r.op_index, r.speed),
    )
    pairs = []
    prev = None  # the index of the previous process row
    for i, row in enumerate(rows):
        if not row.is_setup:
            if prev is not None:
                decisions: list = []
                account(inst, machine_timelines(inst, rows[prev : i + 1]), decisions)
                if not decisions:
                    pairs.append((rows[prev], row))
            prev = i
    return pairs


def validate_schedule(inst: ProblemInstance, sched: tuple[ScheduledRow, ...]) -> ValidationReport:
    """Check a schedule against its instance.

    Verifies coverage (every operation exactly once, on a legal machine
    and gear, with the option's duration, and every row listed once),
    per-machine non-overlap of all rows, job precedence, and setup
    discipline: the first operation of every job block on a machine must
    be immediately preceded by a setup row of the job's setup time, and
    every setup row must be followed at its end by a process row of its
    job.  Every row is read once, in one walk that checks it and tallies
    it for the later checks; then each machine's rows are sorted once by
    (start, end) and walked once for both machine checks.  Unknown ids
    are reported as structural errors rather than feasibility violations.
    """
    report = ValidationReport()
    ops: dict[tuple[int, int], list[ScheduledRow]] = {}  # process rows per operation
    setups: dict[ScheduledRow, int] = {}
    by_machine: dict[int, list[ScheduledRow]] = {}
    for i, row in enumerate(sched):
        if not 1 <= row.job <= len(inst.jobs):
            report.errors.append(f"row {i}: unknown job id {row.job}")
            continue
        if not 1 <= row.machine <= len(inst.machines):
            report.errors.append(f"row {i}: unknown machine id {row.machine}")
            continue
        job = inst.jobs[row.job - 1]
        if not 0 <= row.op_index <= len(job.operations):
            report.errors.append(f"row {i}: job {row.job} has no operation {row.op_index}")
            continue
        by_machine.setdefault(row.machine, []).append(row)
        if row.start > row.end:
            report.violations.append(f"row {row} ends before it starts")
        if row.start < 0:
            report.violations.append(f"row {row} starts before time zero")
        if row.is_setup:
            setups[row] = setups.get(row, 0) + 1
            if row.duration != job.setup_time:
                report.violations.append(
                    f"setup row for job {row.job} on machine {row.machine} has "
                    f"length {row.duration}, setup time is {job.setup_time}"
                )
            if row.speed != 0:
                report.violations.append(
                    f"setup row for job {row.job} carries a nonzero gear"
                )
            continue
        ops.setdefault((row.job, row.op_index), []).append(row)
        for o in job.operations[row.op_index - 1].options:
            if o.machine == row.machine and o.speed == row.speed:
                if row.duration != o.duration:
                    report.violations.append(
                        f"operation ({row.job},{row.op_index}) lasts {row.duration}, "
                        f"expected {o.duration}"
                    )
                break
        else:
            report.violations.append(
                f"operation ({row.job},{row.op_index}) cannot run on machine "
                f"{row.machine} at gear {row.speed}"
            )

    for job in inst.jobs:
        for k in range(1, len(job.operations) + 1):
            n = len(ops.get((job.id, k), ()))
            if n == 0:
                report.violations.append(
                    f"operation ({job.id},{k}) is missing from the schedule"
                )
            elif n > 1:
                report.violations.append(
                    f"operation ({job.id},{k}) is scheduled {n} times"
                )
    report.violations += [f"setup row {row} is listed {n} times" for row, n in setups.items() if n > 1]

    discipline: list[str] = []
    for mach in inst.machines:
        # a stable sort: rows that share a (start, end) span keep schedule order
        timeline = sorted(by_machine.get(mach.id, ()), key=lambda r: (r.start, r.end))
        setup_ends = {(r.job, r.end) for r in timeline if r.is_setup}
        process_starts = {(r.job, r.start) for r in timeline if not r.is_setup}
        missing, dangling = [], []
        prev = block_job = None
        for row in timeline:
            if prev is not None and row.start < prev.end:
                report.violations.append(f"rows overlap on machine {mach.id} at time {row.start}")
            prev = row
            if row.is_setup:
                if (row.job, row.end) not in process_starts:
                    dangling.append(
                        f"dangling setup row for job {row.job} on machine {mach.id} "
                        f"at time {row.start}"
                    )
            elif row.job != block_job:
                block_job = row.job
                if (row.job, row.start) not in setup_ends:
                    missing.append(
                        f"missing setup before operation ({row.job},{row.op_index}) "
                        f"on machine {mach.id}"
                    )
        discipline += missing + dangling

    for job in inst.jobs:
        for k in range(1, len(job.operations)):
            a = ops.get((job.id, k))
            b = ops.get((job.id, k + 1))
            # each operation's last process row, as the schedule lists them
            if a and b and b[-1].start < a[-1].end:
                report.violations.append(
                    f"job {job.id}: operation {k + 1} starts at {b[-1].start} before "
                    f"operation {k} completes at {a[-1].end}"
                )

    report.violations += discipline
    return report
