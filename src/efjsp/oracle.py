"""Brute-force reference front by exhaustive enumeration.

Walks every distinct operation-order permutation crossed with every
machine/gear column combination and evaluates the two objectives of
each chromosome's schedule with a self-contained energy summation that
shares no code with the accounting module.  The surviving non-dominated
objective points form the exact reference front of everything the
decoder can reach.

Within one permutation the column combinations change only a suffix of
mv, so each chromosome is decoded from the placement checkpoints the one
before it left (``encoding.decode(..., base=, first=)``), from the
earliest os position of the operations whose columns changed.  The
schedule rows are those of a fresh decode; only the placement ahead of
that position is not redone.  The summation is always done in full.

Enumeration refuses search spaces above ``MAX_POINTS`` chromosomes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, product
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
    other.
    """
    cmax = 0
    tec = 0.0
    for mach in inst.machines:
        procs = sorted(
            (r for r in rows if r.machine == mach.id and r.op_index > 0),
            key=lambda r: r.start,
        )
        setups = [r for r in rows if r.machine == mach.id and r.op_index == 0]
        for r in setups:
            tec += mach.setup_power * (r.end - r.start)
        if not procs:
            continue
        tec += mach.turn_on[procs[0].speed - 1]
        for r in procs:
            tec += mach.process_power[r.speed - 1] * (r.end - r.start)
            if r.end > cmax:
                cmax = r.end
        setup_starts = {(r.job, r.end): r.start for r in setups}
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


def enumerate_front(inst: ProblemInstance) -> FrontResult:
    """Exact non-dominated front over the whole chromosome space.

    Deterministic: chromosomes are visited in lexicographic order and the
    first witness of every surviving objective point is kept.  Raises
    SearchSpaceError, before any enumeration, when the space exceeds
    ``MAX_POINTS``.
    """
    size = search_space_size(inst)
    if size > MAX_POINTS:
        raise SearchSpaceError(size, MAX_POINTS)
    widths = [range(1, len(mm) + 1) for mm in inst.matrices.values()]
    jobs = [job.id for job in inst.jobs for _ in job.operations]
    base = Checkpoints(inst, Chromosome(tuple(jobs), tuple(1 for _ in jobs)))

    front: list[tuple[int, float, Chromosome]] = []
    for os_perm in _distinct_permutations(jobs):
        # resume[k]: the earliest os position of canonical operations k on
        nth = {job.id: count(1) for job in inst.jobs}
        at = {(job, next(nth[job])): i for i, job in enumerate(os_perm)}
        resume = [at[key] for key in inst.matrices]
        for k in range(len(resume) - 2, -1, -1):
            resume[k] = min(resume[k], resume[k + 1])
        prev = None
        for mv in product(*widths):
            chrom = Chromosome(os_perm, mv)
            if prev is None:
                first = 0
            else:
                k = 0
                while mv[k] == prev[k]:
                    k += 1
                first = resume[k]
            prev = mv
            c, t = independent_objectives(inst, decode(inst, chrom, base=base, first=first))
            keep = True
            for fc, ft, _ in front:
                if (fc <= c and ft <= t and (fc < c or ft < t)) or (fc == c and ft == t):
                    keep = False
                    break
            if not keep:
                continue
            front = [
                (fc, ft, w)
                for fc, ft, w in front
                if not (c <= fc and t <= ft and (c < fc or t < ft))
            ]
            front.append((c, t, chrom))
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
