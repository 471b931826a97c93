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
``build_message_matrix`` derives them into one table, built once per
instance and kept on it (``ProblemInstance.columns``): per operation, its
mv position, its job's setup time and its columns as (machine, gear,
duration) triples.  The decoder, the search and the energy ranking read
that table.  The columns ranked by processing energy
(``ProblemInstance.energy_ranks``), which the energy-greedy chromosomes
take their columns from, are derived from it once per instance as well.

Decoding walks the os vector and inserts every operation into the first
gap on its chosen machine that admits it, adding a setup row whenever the
operation opens a new job block on that machine.  Setup rows are placed
as late as possible, ending exactly at the process start, and may overlap
the job's previous operation running elsewhere.

Placement builds one time-ordered timeline per machine.  ``decode``
returns the schedule rows it placed, in os order; ``evaluate`` prices the
timelines directly, reading the makespan and the total energy off one
walk over them (``energy.account``) without collecting any rows.

Segments on a timeline never overlap, so their start times never
decrease and the gap scan can start by bisection: an operation that
cannot start before its job is ready at ``ready`` fits in no gap ahead of
a segment starting before ``ready + duration``.  Placement also resumes:
``Checkpoints`` copies the placement state every max(1, isqrt(d) // 2)
os positions of one chromosome (every position up to d = 15, every fifth
at d = 100), and ``evaluate(..., base=, first=)`` prices another that
differs from it only from some position on by placing the rest from the
last copy ahead of that position, which gives the timelines a fresh
placement gives.  ``decode(..., base=, first=)`` decodes such a
chromosome the same way and moves the checkpoints on to it
(``Checkpoints.advance``), so that a run of chromosomes, each close to
the one before, is decoded one short placement at a time.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from itertools import count
from operator import attrgetter

from .energy import account
from .model import PROCESS, SETUP, OperationColumns, ProblemInstance, ScheduledRow, Segment

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


# A message matrix column, and the column order: by duration, ties to the
# lower machine, then the lower gear.
_COLUMN = attrgetter("machine", "speed", "duration")
_COLUMN_ORDER = attrgetter("duration", "machine", "speed")


def build_message_matrix(inst: ProblemInstance) -> tuple[tuple[OperationColumns, ...], ...]:
    """Every operation's message matrix as the decoder reads it: per job
    (index job id - 1), per operation (index op_index - 1), its 0-based
    mv position, its job's setup time and its (machine, speed, duration)
    columns.  Built once per instance, as ``inst.columns``, which is what
    the decoder, the search and the energy ranking read."""
    position = count()
    return tuple(
        tuple(
            (next(position), job.setup_time, tuple(map(_COLUMN, sorted(op.options, key=_COLUMN_ORDER))))
            for op in job.operations
        )
        for job in inst.jobs
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


def energy_ranking(inst: ProblemInstance) -> tuple[tuple[int, ...], ...]:
    """Every operation's columns, in mv order, ranked by processing energy
    (process power times duration), ties to the lower column; built once
    per instance as ``inst.energy_ranks``."""
    ranks = []
    for ops in inst.columns:
        for _, _, columns in ops:
            cost = [inst.machine(m).process_power[v - 1] * d for m, v, d in columns]
            ranks.append(tuple(sorted(range(1, len(columns) + 1), key=lambda c: (cost[c - 1], c))))
    return tuple(ranks)


def heuristic_chromosome(
    inst: ProblemInstance, rule: str, mode: str, rng: random.Random
) -> Chromosome:
    """Rule-guided chromosome: random os, greedy mv.

    ``rule`` ranks each operation's columns by duration (``min_time``),
    which is column order, or by processing energy (``min_energy``,
    ``inst.energy_ranks``).  ``mode`` ``total`` always takes the best
    column; ``partial`` picks uniformly between the best and the second
    best (the best when only one option exists).
    """
    if rule not in (RULE_MIN_TIME, RULE_MIN_ENERGY):
        raise ValueError(f"unknown rule {rule!r}")
    if mode not in (MODE_TOTAL, MODE_PARTIAL):
        raise ValueError(f"unknown mode {mode!r}")
    os = [job.id for job in inst.jobs for _ in job.operations]
    rng.shuffle(os)
    if rule == RULE_MIN_TIME:
        rankings = [range(1, len(op.options) + 1) for job in inst.jobs for op in job.operations]
    else:
        rankings = inst.energy_ranks
    mv = []
    for ranked in rankings:
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


# A placement in progress: the machine timelines, the index of each job's
# next operation and the time each job's last placed operation ends.
PlacementState = tuple[list[list[Segment]], list[int], list[int]]


def _empty_state(inst: ProblemInstance) -> PlacementState:
    """The state ahead of the first os position: nothing placed yet."""
    return [[] for _ in inst.machines], [1] * len(inst.jobs), [0] * len(inst.jobs)


# What the gap scan reads of the segment ahead of a machine's first one:
# it ends at time 0 and serves no job.
_EMPTY = (0, 0, PROCESS, 0, 0, 0)


def _place(
    inst: ProblemInstance,
    chrom: Chromosome,
    rows: list[ScheduledRow] | None,
    state: PlacementState,
    lo: int = 0,
    hi: int | None = None,
) -> list[list[Segment]]:
    """Earliest-gap placement of a checked chromosome.

    Places the operations at os positions ``lo:hi`` (all of them by
    default) into ``state``, updating it in place; ``_empty_state`` is
    the state of a fresh placement.  Returns the timelines (see
    ``model.Segment``).  Appends the schedule rows to ``rows``, in os
    order, when a list is given.

    The gap scan starts at the first segment that starts no earlier than
    ``ready + dur`` (see the module docstring), with the end and the job
    of the segment just ahead, as the scan from the front would have
    them there.
    """
    segs, next_op, job_ready = state
    os = chrom.os[lo:hi]
    mv = chrom.mv
    table = inst.columns
    new_row = tuple.__new__  # builds a row without the generated __new__'s frame

    for job_id in os:
        j = job_id - 1
        op_idx = next_op[j]
        next_op[j] = op_idx + 1
        position, su, columns = table[j][op_idx - 1]
        machine, speed, dur = columns[mv[position] - 1]
        ready = job_ready[j]
        seq = segs[machine - 1]

        i = len(seq)
        if not i:
            prev_end = prev_proc_job = 0
            rest = seq
        else:
            prev = seq[-1]
            if prev[0] < ready + dur:  # only the open tail can hold it
                rest = ()
            else:
                i = bisect_left(seq, (ready + dur,))
                rest = seq[i:]
                prev = seq[i - 1] if i else _EMPTY
            # A timeline never ends with a setup, and a setup ahead of the
            # scan is followed by its process, which sets prev_proc_job
            # before any gap reads it.
            prev_end = prev[1]
            prev_proc_job = prev[3]
        for seg_start, seg_end, kind, seg_job, _, _ in rest:
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
                rows.append(new_row(ScheduledRow, (job_id, 0, machine, 0, start - su, start)))
        else:
            seq.insert(i, (start, end, PROCESS, job_id, op_idx, speed))
        if rows is not None:
            rows.append(new_row(ScheduledRow, (job_id, op_idx, machine, speed, start, end)))
        job_ready[j] = end
    return segs


def decode(
    inst: ProblemInstance,
    chrom: Chromosome,
    *,
    base: Checkpoints | None = None,
    first: int = 0,
) -> tuple[ScheduledRow, ...]:
    """Decode a chromosome into its schedule rows by earliest-gap insertion.

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

    ``base`` decodes a chromosome made from the one ``base`` holds, under
    the same conditions as in ``evaluate``, without checking it: placement
    resumes from the last checkpoint at or before ``first``.  Unlike
    ``evaluate``, which leaves its base alone, ``decode`` moves ``base``
    on to the chromosome (``Checkpoints.advance``), so that the next one
    can be decoded from it in turn.
    """
    if base is not None:
        base.advance(chrom, first)
        return tuple(base.rows)
    _check_chromosome(inst, chrom)
    rows: list[ScheduledRow] = []
    _place(inst, chrom, rows, _empty_state(inst))
    return tuple(rows)


def evaluate(
    inst: ProblemInstance,
    chrom: Chromosome,
    _matrices: object = None,
    *,
    base: Checkpoints | None = None,
    first: int = 0,
) -> tuple[int, float]:
    """The two objectives (makespan, total energy) of a chromosome.

    Equal, to the last bit, to ``(cmax, tec)`` of ``total_energy`` on
    ``decode``'s schedule, but priced off the placement timelines in
    one walk.  Raises ChromosomeError on malformed input, ValueError
    when nothing is processed.

    ``base`` prices a chromosome made from a checked one, from that
    one's ``Checkpoints``: the os entries ahead of position ``first``,
    and the mv columns of the operations they place, must be the
    base's.  The chromosome is then not checked, and placement resumes
    from the last checkpoint at or before ``first``.  The result is the
    same.

    ``_matrices`` is ignored: the benchmark still passes
    ``build_message_matrix``'s table there, and placement reads the
    instance's own (``inst.columns``).
    """
    if base is None:
        _check_chromosome(inst, chrom)
        timelines = _place(inst, chrom, None, _empty_state(inst))
    else:
        c = first // base.every
        timelines = _place(inst, chrom, None, _copy(base.saved[c]), c * base.every)
    cmax, ie1, ie2, se1, se2, ise = account(inst, timelines)
    if cmax < 0:
        raise ValueError("schedule has no process rows")
    return cmax, ie1 + ie2 + se1 + se2 + ise


def _copy(state: PlacementState) -> PlacementState:
    segs, next_op, job_ready = state
    return [seq.copy() for seq in segs], next_op.copy(), job_ready.copy()


class Checkpoints:
    """A chromosome placed with copies of its placement state, so that
    ``evaluate`` prices, and ``decode`` places, chromosomes which differ
    from it only from some os position on without redoing the placement
    ahead of that position.

    The placement state is copied before every ``every``-th os position,
    ``every`` being half the integer square root of the operation count
    d, and at least 1: short chromosomes such as the oracle's resume at
    the very position where they change, and long ones such as the
    search's keep few copies (5 positions apart at d = 100).  ``counts``
    holds the number of schedule rows placed ahead of each copy.  ``timelines`` are the chromosome's own, time-ordered per
    machine, and ``rows`` its schedule rows in os order.  Placement reads
    the instance's own column table (``inst.columns``).  Raises
    ChromosomeError on a malformed chromosome.
    """

    def __init__(self, inst: ProblemInstance, chrom: Chromosome):
        _check_chromosome(inst, chrom)
        self.inst = inst
        self.every = max(1, math.isqrt(len(chrom.os)) // 2)
        self.saved: list[PlacementState] = [_empty_state(inst)]
        self.counts = [0]
        self.rows: list[ScheduledRow] = []
        self.advance(chrom, 0)

    def advance(self, chrom: Chromosome, first: int) -> None:
        """Move on to ``chrom``, which must share the os entries ahead of
        position ``first``, and the mv columns of the operations they
        place, with the chromosome held now.  Keeps the copies up to the
        last one at or before ``first`` and places the rest from there,
        copying the state again at every later stride.  ``chrom`` is not
        checked."""
        every = self.every
        c = first // every
        del self.saved[c + 1 :], self.counts[c + 1 :], self.rows[self.counts[c] :]
        state = _copy(self.saved[c])
        d = len(chrom.os)
        for lo in range(c * every, d, every):
            _place(self.inst, chrom, self.rows, state, lo, lo + every)
            if lo + every < d:
                self.saved.append(_copy(state))
                self.counts.append(len(self.rows))
        self.timelines = state[0]
