"""Brute-force reference front by exhaustive enumeration.

Walks every distinct operation-order permutation crossed with every
machine/gear column combination and evaluates the two objectives of
each chromosome's schedule with a self-contained energy summation that
shares no code with the accounting module.  The surviving non-dominated
objective points form the exact reference front of everything the
decoder can reach.

The loop visits, for each column vector ``head`` of every canonical
operation but the last, every os permutation in lexicographic order and,
within it, every column of the last operation.  Copies of one schedule
(the same rows from different operation orders under one column vector)
thus meet within one ``head``, and each distinct schedule is priced only
at its first visit: a set of the schedules already met, cleared at every
new ``head``, holds at most (permutations) x (last operation's width)
row sets, 45 on the sample instance.  ``independent_objectives`` reads
the rows in time order, so a schedule's objectives do not depend on the
order a copy lists its rows in.

Each chromosome is still decoded, from the placement checkpoints the
one before it left (``encoding.decode(..., base=, first=)``), resuming
at an os position worked out once per permutation: the last canonical
operation's when only its column changes, the smaller of that and the
first position where the permutation differs from the one before when
the permutation advances, and 0 at a new ``head``.  The schedule rows
are those of a fresh decode; only the placement ahead of that position
is not redone.  On chromosomes of up to 15 operations the checkpoints
lie at every position, so a decode places exactly the positions from
that one on: 93,318 for the sample's 43,740 decodes.

Each front point keeps as its witness the lexicographically smallest
``(os, mv)`` that reaches it.  Enumeration refuses search spaces above
``MAX_POINTS`` chromosomes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import factorial
from typing import Iterator

from .encoding import Checkpoints, Chromosome, decode, evaluate
from .model import ProblemInstance, ScheduledRow

MAX_POINTS = 10_000_000


class SearchSpaceError(RuntimeError):
    """Raised when an instance is too large to enumerate."""

    def __init__(self, size: int, limit: int):
        super().__init__(
            f"search space holds {size} chromosomes, enumeration limit is {limit}"
        )
        self.size = size
        self.limit = limit


@dataclass(frozen=True)
class FrontResult:
    """Exact front: objective points plus one witness chromosome each."""

    points: tuple[tuple[int, float], ...]
    witnesses: tuple[Chromosome, ...]


def search_space_size(inst: ProblemInstance) -> int:
    """Number of distinct chromosomes of an instance."""
    counts = [len(job.operations) for job in inst.jobs]
    perms = factorial(sum(counts))
    for c in counts:
        perms //= factorial(c)
    combos = 1
    for job in inst.jobs:
        for op in job.operations:
            combos *= len(op.options)
    return perms * combos


def _distinct_permutations(items: list[int]) -> Iterator[tuple[int, ...]]:
    """All distinct permutations of a multiset, in lexicographic order."""
    pool = sorted(items)
    n = len(pool)
    if n == 0:
        yield ()
        return
    current = list(pool)
    while True:
        yield tuple(current)
        # next lexicographic permutation
        i = n - 2
        while i >= 0 and current[i] >= current[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while current[j] <= current[i]:
            j -= 1
        current[i], current[j] = current[j], current[i]
        current[i + 1 :] = reversed(current[i + 1 :])


def independent_objectives(
    inst: ProblemInstance, rows: tuple[ScheduledRow, ...]
) -> tuple[int, float]:
    """(makespan, total energy) recomputed from raw rows.

    Deliberately re-derives everything from first principles instead of
    calling the accounting module, so the two implementations check each
    other.  Each machine's rows are summed in time order (start first,
    then the whole row), so the result depends on the set of rows alone,
    not on the order they are given in.
    """
    by_machine: dict[int, list[ScheduledRow]] = {mach.id: [] for mach in inst.machines}
    for r in sorted(rows, key=lambda r: (r.start, r)):
        by_machine[r.machine].append(r)
    cmax = 0
    tec = 0.0
    for mach in inst.machines:
        procs = []
        setup_starts = {}
        for r in by_machine[mach.id]:
            if r.op_index > 0:
                procs.append(r)
            else:
                tec += mach.setup_power * (r.end - r.start)
                setup_starts[(r.job, r.end)] = r.start
        if not procs:
            continue
        tec += mach.turn_on[procs[0].speed - 1]
        for r in procs:
            tec += mach.process_power[r.speed - 1] * (r.end - r.start)
            if r.end > cmax:
                cmax = r.end
        for a, b in zip(procs, procs[1:]):
            covered = b.start == a.end
            if not covered:
                st = setup_starts.get((b.job, b.start))
                covered = st is not None and st <= a.end
            if covered:
                tec += mach.switch[a.speed][b.speed]
            else:
                span = b.start - a.end
                low = min(a.speed, b.speed)
                idle_cost = mach.idle_power[low - 1] * span
                idle_cost += mach.switch[a.speed][b.speed]
                standby_cost = (
                    mach.standby_power * span
                    + mach.switch[a.speed][0]
                    + mach.switch[0][b.speed]
                )
                tec += min(idle_cost, standby_cost)
    return cmax, tec


def _offer(
    front: list[tuple[int, float, Chromosome]], c: int, t: float, chrom: Chromosome
) -> None:
    """Add a chromosome's point to a mutually non-dominated front.

    A dominated point is dropped; an equal point keeps the smaller
    ``(os, mv)`` of the two witnesses.
    """
    for i, (fc, ft, w) in enumerate(front):
        if fc <= c and ft <= t:
            if fc == c and ft == t and (chrom.os, chrom.mv) < (w.os, w.mv):
                front[i] = (c, t, chrom)
            return
    front[:] = [e for e in front if not (c <= e[0] and t <= e[1])]
    front.append((c, t, chrom))


def enumerate_front(inst: ProblemInstance) -> FrontResult:
    """Exact non-dominated front over the whole chromosome space.

    Visits the chromosomes ``head`` by ``head`` as set out in the module
    docstring, decoding every one.  A schedule already met under the same
    ``head`` is not priced or offered again: its first visit came earlier
    in ``(os, mv)`` order and reached the same point.  Deterministic:
    every surviving objective point keeps the lexicographically smallest
    ``(os, mv)`` that reaches it as its witness.  Raises
    SearchSpaceError, before any enumeration, when the space exceeds
    ``MAX_POINTS``.
    """
    size = search_space_size(inst)
    if size > MAX_POINTS:
        raise SearchSpaceError(size, MAX_POINTS)
    widths = [range(1, len(op.options) + 1) for job in inst.jobs for op in job.operations]
    jobs = [job.id for job in inst.jobs for _ in job.operations]
    base = Checkpoints(inst, Chromosome(tuple(jobs), tuple(1 for _ in jobs)))
    tails = list(product(*widths[-1:]))  # (c,) per column of the last operation

    front: list[tuple[int, float, Chromosome]] = []
    for head in product(*widths[:-1]):
        seen: set[frozenset[ScheduledRow]] = set()
        prev = None
        for os_perm in _distinct_permutations(jobs):
            # os position of the last canonical operation: its job's last entry
            last = len(os_perm) - 1 - os_perm[::-1].index(jobs[-1]) if jobs else 0
            if prev is None:
                first = 0
            else:
                k = 0
                while os_perm[k] == prev[k]:
                    k += 1
                first = min(k, last)
            prev = os_perm
            for tail in tails:
                chrom = Chromosome(os_perm, head + tail)
                sched = decode(inst, chrom, base=base, first=first)
                first = last
                rows = frozenset(sched)
                if rows in seen:
                    continue
                seen.add(rows)
                c, t = independent_objectives(inst, sched)
                _offer(front, c, t, chrom)
    front.sort(key=lambda e: (e[0], e[1]))
    return FrontResult(
        points=tuple((c, t) for c, t, _ in front),
        witnesses=tuple(w for _, _, w in front),
    )


def cross_check(inst: ProblemInstance, chrom: Chromosome) -> bool:
    """Compare the accounting module against the independent summation.

    True when both agree on the makespan exactly and on total energy to
    a relative tolerance of 1e-9.
    """
    c1, t1 = evaluate(inst, chrom)
    c2, t2 = independent_objectives(inst, decode(inst, chrom))
    if c1 != c2:
        return False
    scale = max(abs(t1), abs(t2), 1.0)
    return abs(t1 - t2) <= 1e-9 * scale
