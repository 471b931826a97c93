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
from typing import Iterator, NamedTuple


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


# A machine timeline lists the machine's rows as plain tuples
# (start, end, kind, job, op_index, speed) in time order, every setup
# directly ahead of the process row it serves.  The decoder builds one
# per machine; energy accounting walks them.
SETUP = 0
PROCESS = 1
Segment = tuple[int, int, int, int, int, int]


def _segment(r: ScheduledRow) -> Segment:
    return (r.start, r.end, SETUP if r.is_setup else PROCESS, r.job, r.op_index, r.speed)


def machine_timelines(
    inst: ProblemInstance, sched: tuple[ScheduledRow, ...]
) -> list[list[Segment]]:
    """Timelines of all machines, indexed by machine id - 1.

    The rows are grouped by machine and each group is sorted once.
    Raises ValueError on a row whose machine id is not in the instance.
    """
    out: list[list[Segment]] = [[] for _ in inst.machines]
    for r in sched:
        if not 1 <= r.machine <= len(out):
            raise ValueError(f"row {r} names unknown machine {r.machine}")
        out[r.machine - 1].append(_segment(r))
    for seq in out:
        seq.sort()
    return out


def is_continuous(last: Segment, prev_end: int, start: int, job: int) -> bool:
    """Whether a process segment follows the machine's previous one without
    an idle/standby stretch between them.

    ``prev_end`` is where the previous process segment ends, ``start`` and
    ``job`` belong to the follower, and ``last`` is the segment just ahead
    of the follower on the timeline.  The pair is continuous when the
    follower starts no later than ``prev_end``, or when only the
    follower's own setup separates them.  A continuous pair pays a gear
    switch; any other pair encloses an idle/standby stretch.
    ``energy.account`` tests the same rule in line.
    """
    return start <= prev_end or (
        last[2] == SETUP and last[3] == job and last[1] == start and last[0] <= prev_end
    )


class IdleIntervalRecord(NamedTuple):
    """A non-processing stretch between two process rows on one machine.

    The span runs from the end of the preceding process row to the start
    of the following one; a setup row attached to the follower may sit
    inside the span.  ``prev_speed`` and ``next_speed`` are the gears of
    the rows on either side.
    """

    machine: int
    start: int
    end: int
    prev_speed: int
    next_speed: int

    @property
    def length(self) -> int:
        return self.end - self.start


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
    ``violations``, one per non-finite value.  An instance that passes
    them all must also have a finite energy bound (``_energy_bound``
    over the horizon), so that no schedule's total energy overflows.
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
            for opt in op.options:
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

    horizon = sum(
        max((opt.duration for opt in op.options), default=0) + job.setup_time
        for job in inst.jobs
        for op in job.operations
    )
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
            report.violations.extend(
                f"{label}: non-finite {name} {v}" for v in values if not math.isfinite(v)
            )
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


def _process_pairs(
    sched: tuple[ScheduledRow, ...], machine_id: int
) -> Iterator[tuple[Segment, Segment, bool]]:
    """Consecutive process segments on one machine with their continuity."""
    seq = sorted(_segment(r) for r in sched if r.machine == machine_id)
    prev = last = None
    for seg in seq:
        if seg[2] == PROCESS:
            if prev is not None:
                yield prev, seg, is_continuous(last, prev[1], seg[0], seg[3])
            prev = seg
        last = seg


def idle_intervals(sched: tuple[ScheduledRow, ...], machine_id: int) -> list[IdleIntervalRecord]:
    """Non-processing stretches on one machine, ascending by start.

    Gaps fully covered by a setup row are not intervals (the machine goes
    straight from one operation into the next setup).  The stretch before
    the first process row and after the last one is never reported; those
    boundaries are handled by turn-on accounting and shutdown.
    """
    return [
        IdleIntervalRecord(machine_id, prev[1], nxt[0], prev[5], nxt[5])
        for prev, nxt, continuous in _process_pairs(sched, machine_id)
        if not continuous
    ]


def continuous_pairs(
    sched: tuple[ScheduledRow, ...], machine_id: int
) -> list[tuple[ScheduledRow, ScheduledRow]]:
    """Consecutive process-row pairs with no idle/standby stretch between."""
    def row(seg: Segment) -> ScheduledRow:
        start, end, _, job, op_index, speed = seg
        return ScheduledRow(job, op_index, machine_id, speed, start, end)

    return [
        (row(a), row(b))
        for a, b, continuous in _process_pairs(sched, machine_id)
        if continuous
    ]


def validate_schedule(inst: ProblemInstance, sched: tuple[ScheduledRow, ...]) -> ValidationReport:
    """Check a schedule against its instance.

    Verifies coverage (every operation exactly once, on a legal machine
    and gear, with the option's duration), per-machine non-overlap of all
    rows, job precedence, and setup discipline: the first operation of
    every job block on a machine must be immediately preceded by a setup
    row of the job's setup time, and every setup row must be followed at
    its end by a process row of its job.  Each machine's rows are sorted
    once by (start, end) and walked once for both machine checks.
    Unknown ids are reported as structural errors rather than
    feasibility violations.
    """
    report = ValidationReport()
    rows = []
    for i, row in enumerate(sched):
        if not 1 <= row.job <= len(inst.jobs):
            report.errors.append(f"row {i}: unknown job id {row.job}")
            continue
        if not 1 <= row.machine <= len(inst.machines):
            report.errors.append(f"row {i}: unknown machine id {row.machine}")
            continue
        if not 0 <= row.op_index <= len(inst.job(row.job).operations):
            report.errors.append(
                f"row {i}: job {row.job} has no operation {row.op_index}"
            )
            continue
        rows.append(row)

    for row in rows:
        if row.start > row.end:
            report.violations.append(f"row {row} ends before it starts")
        if row.start < 0:
            report.violations.append(f"row {row} starts before time zero")
        if row.is_setup:
            su = inst.job(row.job).setup_time
            if row.duration != su:
                report.violations.append(
                    f"setup row for job {row.job} on machine {row.machine} has "
                    f"length {row.duration}, setup time is {su}"
                )
            if row.speed != 0:
                report.violations.append(
                    f"setup row for job {row.job} carries a nonzero gear"
                )
        else:
            op = inst.operation(row.job, row.op_index)
            match = next(
                (
                    o
                    for o in op.options
                    if o.machine == row.machine and o.speed == row.speed
                ),
                None,
            )
            if match is None:
                report.violations.append(
                    f"operation ({row.job},{row.op_index}) cannot run on machine "
                    f"{row.machine} at gear {row.speed}"
                )
            elif row.duration != match.duration:
                report.violations.append(
                    f"operation ({row.job},{row.op_index}) lasts {row.duration}, "
                    f"expected {match.duration}"
                )

    counts: dict[tuple[int, int], int] = {}
    for row in rows:
        if not row.is_setup:
            counts[(row.job, row.op_index)] = counts.get((row.job, row.op_index), 0) + 1
    for job in inst.jobs:
        for k in range(1, len(job.operations) + 1):
            n = counts.get((job.id, k), 0)
            if n == 0:
                report.violations.append(
                    f"operation ({job.id},{k}) is missing from the schedule"
                )
            elif n > 1:
                report.violations.append(
                    f"operation ({job.id},{k}) is scheduled {n} times"
                )

    by_machine: dict[int, list[ScheduledRow]] = {}
    for row in rows:
        by_machine.setdefault(row.machine, []).append(row)
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

    by_job: dict[tuple[int, int], ScheduledRow] = {
        (r.job, r.op_index): r for r in rows if not r.is_setup
    }
    for job in inst.jobs:
        for k in range(1, len(job.operations)):
            a = by_job.get((job.id, k))
            b = by_job.get((job.id, k + 1))
            if a is not None and b is not None and b.start < a.end:
                report.violations.append(
                    f"job {job.id}: operation {k + 1} starts at {b.start} before "
                    f"operation {k} completes at {a.end}"
                )

    report.violations += discipline
    return report
