"""Chromosome representation and schedule decoding.

A solution is a pair of equal-length vectors:

* ``os`` lists job ids, one entry per operation; the k-th occurrence of
  job i stands for that job's k-th operation, so any permutation of the
  multiset respects precedence by construction,
* ``mv`` holds 1-based column indices into each operation's message
  matrix, in canonical operation order (jobs ascending, then operation
  index ascending).

The message matrix of an operation lists its (machine, gear, duration)
options as columns sorted by duration, ties broken by lower machine id
and then lower gear, so column 1 is always a fastest option.

Decoding walks the os vector and inserts every operation into the first
gap on its chosen machine that admits it, adding a setup row whenever the
operation opens a new job block on that machine.  Setup rows are placed
as late as possible, ending exactly at the process start, and may overlap
the job's previous operation running elsewhere.

Placement builds one time-ordered timeline per machine.  ``decode``
returns it as a schedule table; ``evaluate`` prices it directly, reading
the makespan and the total energy off one walk over those timelines
(``energy.account``) without building the table.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .energy import account
from .model import PROCESS, SETUP, ProblemInstance, ScheduledRow, ScheduleTable, Segment

RULE_MIN_TIME = "min_time"
RULE_MIN_ENERGY = "min_energy"
MODE_TOTAL = "total"
MODE_PARTIAL = "partial"


class ChromosomeError(ValueError):
    """Raised when a chromosome does not fit its instance."""


@dataclass(frozen=True)
class Chromosome:
    """An (os, mv) pair; both vectors have one entry per operation."""

    os: tuple[int, ...]
    mv: tuple[int, ...]


@dataclass(frozen=True)
class MessageMatrix:
    """Option columns of one operation: three aligned rows."""

    machines: tuple[int, ...]
    speeds: tuple[int, ...]
    durations: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.machines)

    def column(self, index: int) -> tuple[int, int, int]:
        """The (machine, gear, duration) triple at a 1-based column index."""
        i = index - 1
        return self.machines[i], self.speeds[i], self.durations[i]

    def column_for(self, machine: int, speed: int) -> int:
        """1-based column index of the given (machine, gear) option."""
        for i, (m, v) in enumerate(zip(self.machines, self.speeds)):
            if m == machine and v == speed:
                return i + 1
        raise KeyError((machine, speed))


def build_message_matrix(
    inst: ProblemInstance,
) -> dict[tuple[int, int], MessageMatrix]:
    """Message matrices for every operation, keyed by (job, op_index)."""
    out = {}
    for job in inst.jobs:
        for op in job.operations:
            cols = sorted(op.options, key=lambda o: (o.duration, o.machine, o.speed))
            out[(job.id, op.op_index)] = MessageMatrix(
                machines=tuple(c.machine for c in cols),
                speeds=tuple(c.speed for c in cols),
                durations=tuple(c.duration for c in cols),
            )
    return out


def canonical_order(inst: ProblemInstance) -> tuple[tuple[int, int], ...]:
    """Operation keys in mv order: jobs ascending, op index ascending."""
    return tuple(
        (job.id, op.op_index) for job in inst.jobs for op in job.operations
    )


def random_chromosome(inst: ProblemInstance, rng: random.Random) -> Chromosome:
    """Uniform random chromosome: shuffled os, uniform mv columns."""
    os = [job.id for job in inst.jobs for _ in job.operations]
    rng.shuffle(os)
    mv = [
        rng.randint(1, len(op.options))
        for job in inst.jobs
        for op in job.operations
    ]
    return Chromosome(tuple(os), tuple(mv))


def heuristic_chromosome(
    inst: ProblemInstance,
    rule: str,
    mode: str,
    rng: random.Random,
    matrices: dict[tuple[int, int], MessageMatrix] | None = None,
) -> Chromosome:
    """Rule-guided chromosome: random os, greedy mv.

    ``rule`` ranks each operation's columns by duration (``min_time``) or
    by processing energy, i.e. process power times duration
    (``min_energy``).  ``mode`` ``total`` always takes the best column;
    ``partial`` picks uniformly between the best and the second best
    (the best when only one option exists).
    """
    if rule not in (RULE_MIN_TIME, RULE_MIN_ENERGY):
        raise ValueError(f"unknown rule {rule!r}")
    if mode not in (MODE_TOTAL, MODE_PARTIAL):
        raise ValueError(f"unknown mode {mode!r}")
    if matrices is None:
        matrices = build_message_matrix(inst)
    os = [job.id for job in inst.jobs for _ in job.operations]
    rng.shuffle(os)
    mv = []
    for key in canonical_order(inst):
        mm = matrices[key]
        if rule == RULE_MIN_TIME:
            ranked = list(range(1, len(mm) + 1))
        else:
            cost = [
                inst.machine(m).process_power[v - 1] * d
                for m, v, d in zip(mm.machines, mm.speeds, mm.durations)
            ]
            ranked = sorted(range(1, len(mm) + 1), key=lambda c: (cost[c - 1], c))
        if mode == MODE_TOTAL or len(ranked) == 1:
            mv.append(ranked[0])
        else:
            mv.append(rng.choice(ranked[:2]))
    return Chromosome(tuple(os), tuple(mv))


def _check_chromosome(inst: ProblemInstance, chrom: Chromosome) -> None:
    d = inst.total_operations
    if len(chrom.os) != d:
        raise ChromosomeError(f"os has {len(chrom.os)} entries, expected {d}")
    if len(chrom.mv) != d:
        raise ChromosomeError(f"mv has {len(chrom.mv)} entries, expected {d}")
    counts: dict[int, int] = {}
    for entry in chrom.os:
        counts[entry] = counts.get(entry, 0) + 1
    for job in inst.jobs:
        n = counts.pop(job.id, 0)
        if n != len(job.operations):
            raise ChromosomeError(
                f"os lists job {job.id} {n} times, expected {len(job.operations)}"
            )
    if counts:
        raise ChromosomeError(f"os lists unknown job ids {sorted(counts)}")
    pos = 0
    for job in inst.jobs:
        for op in job.operations:
            col = chrom.mv[pos]
            width = len(op.options)
            if not 1 <= col <= width:
                raise ChromosomeError(
                    f"mv position {pos}: column {col} out of range 1..{width}"
                )
            pos += 1


def _place(
    inst: ProblemInstance,
    chrom: Chromosome,
    matrices: dict[tuple[int, int], MessageMatrix],
    rows: list[ScheduledRow] | None = None,
) -> list[list[Segment]]:
    """Earliest-gap placement of a checked chromosome.

    Returns the timeline of every machine (see ``model.Segment``), and
    appends the schedule rows to ``rows``, in os order, when a list is
    given.
    """
    mv = chrom.mv
    setup_times = []
    mv_base = []  # mv position of each job's first operation, minus one
    pos = -1
    for job in inst.jobs:
        setup_times.append(job.setup_time)
        mv_base.append(pos)
        pos += len(job.operations)
    next_op = [1] * len(inst.jobs)
    job_ready = [0] * len(inst.jobs)
    segs: list[list[Segment]] = [[] for _ in inst.machines]

    for job_id in chrom.os:
        j = job_id - 1
        op_idx = next_op[j]
        next_op[j] = op_idx + 1
        mm = matrices[(job_id, op_idx)]
        c = mv[mv_base[j] + op_idx] - 1
        machine = mm.machines[c]
        speed = mm.speeds[c]
        dur = mm.durations[c]
        su = setup_times[j]
        ready = job_ready[j]
        seq = segs[machine - 1]

        i = 0
        prev_end = 0
        prev_proc_job = 0
        for seg_start, seg_end, kind, seg_job, _, _ in seq:
            if seg_start > prev_end and kind == SETUP:
                need_setup = prev_proc_job != job_id
                start = prev_end + su if need_setup else prev_end
                if start < ready:
                    start = ready
                if start + dur <= seg_start:
                    break
            prev_end = seg_end
            if kind == PROCESS:
                prev_proc_job = seg_job
            i += 1
        else:  # the open tail
            need_setup = prev_proc_job != job_id
            start = prev_end + su if need_setup else prev_end
            if start < ready:
                start = ready

        end = start + dur
        if need_setup:
            seq[i:i] = (
                (start - su, start, SETUP, job_id, 0, 0),
                (start, end, PROCESS, job_id, op_idx, speed),
            )
            if rows is not None:
                rows.append(ScheduledRow(job_id, 0, machine, 0, start - su, start))
        else:
            seq.insert(i, (start, end, PROCESS, job_id, op_idx, speed))
        if rows is not None:
            rows.append(ScheduledRow(job_id, op_idx, machine, speed, start, end))
        job_ready[j] = end
    return segs


def decode(
    inst: ProblemInstance,
    chrom: Chromosome,
    matrices: dict[tuple[int, int], MessageMatrix] | None = None,
) -> ScheduleTable:
    """Decode a chromosome into a schedule by earliest-gap insertion.

    Machines are scanned gap by gap in time order (ending with the open
    tail).  A gap admits the operation when the process start, which is
    the gap start plus any required setup but never before the job's
    previous operation completes, leaves room for the full duration.  A
    setup is required when the gap opens a new job block: no earlier
    operation on the machine, or the closest one belongs to another job.

    Gaps directly before a process row that has no setup row of its own
    are skipped: inserting a different job there would retroactively
    invalidate that row's same-job continuity, and a later operation of
    the same job can never fit in front of it.

    Rows come out in os order, each setup row just ahead of its process
    row.  Raises ChromosomeError on malformed input.
    """
    if matrices is None:
        matrices = build_message_matrix(inst)
    _check_chromosome(inst, chrom)
    rows: list[ScheduledRow] = []
    _place(inst, chrom, matrices, rows)
    return ScheduleTable(tuple(rows), inst)


def evaluate(
    inst: ProblemInstance,
    chrom: Chromosome,
    matrices: dict[tuple[int, int], MessageMatrix] | None = None,
) -> tuple[int, float]:
    """The two objectives (makespan, total energy) of a chromosome.

    Equal, to the last bit, to ``makespan`` and ``total_energy(...).tec``
    of ``decode``'s schedule, but priced off the placement timelines in
    one walk.  Raises ChromosomeError on malformed input, ValueError
    when nothing is processed.
    """
    if matrices is None:
        matrices = build_message_matrix(inst)
    _check_chromosome(inst, chrom)
    cmax, ie1, ie2, se1, se2, ise = account(inst, _place(inst, chrom, matrices))
    if cmax < 0:
        raise ValueError("schedule has no process rows")
    return cmax, ie1 + ie2 + se1 + se2 + ise
