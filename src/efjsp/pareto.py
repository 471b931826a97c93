"""Pareto dominance, front ranking and the bounded elitist archive.

Objective points are minimised.  ``dominates`` and ``crowding_distances``
take points of any length; ``nondominated_ranks`` and ``nondominated``
are the exact sort-based passes for two objectives (Jensen 2003, IEEE
TEC 7(5)).
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass

from .encoding import Chromosome

Objectives = tuple[int, float]


def dominates(a, b) -> bool:
    """Strict Pareto dominance for minimisation: a is nowhere worse and
    somewhere better than b."""
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def crowding_distances(points: list[tuple[float, ...]]) -> list[float]:
    """Crowding distance of every point; boundary points get infinity."""
    n = len(points)
    if n == 0:
        return []
    if n <= 2:
        return [math.inf] * n
    dist = [0.0] * n
    m = len(points[0])
    for obj in range(m):
        order = sorted(range(n), key=lambda i: points[i][obj])
        dist[order[0]] = dist[order[-1]] = math.inf
        span = points[order[-1]][obj] - points[order[0]][obj]
        if span <= 0:
            continue
        for k in range(1, n - 1):
            if dist[order[k]] == math.inf:
                continue
            gap = points[order[k + 1]][obj] - points[order[k - 1]][obj]
            dist[order[k]] += gap / span
    return dist


def nondominated_ranks(points: list[tuple[float, float]]) -> list[int]:
    """Front index of every two-objective point.

    Front 0 holds the points no other point dominates, front k the points
    dominated only by points of fronts below k; equal points share a
    front.  In (f1, f2) order, a point joins the first front whose lowest
    f2 so far lies above its own, found by binary search.
    """
    ranks = [0] * len(points)
    lowest: list[float] = []  # lowest f2 of each front so far, ascending
    prev = None
    k = 0
    for i in sorted(range(len(points)), key=points.__getitem__):
        p = points[i]
        if p != prev:
            k = bisect.bisect_right(lowest, p[1])
            if k == len(lowest):
                lowest.append(p[1])
            else:
                lowest[k] = p[1]
            prev = p
        ranks[i] = k
    return ranks


def nondominated(points) -> list[tuple[float, float]]:
    """The distinct two-objective points no other point dominates, sorted:
    front 0 of ``nondominated_ranks``."""
    points = list(points)
    return sorted({p for p, rank in zip(points, nondominated_ranks(points)) if rank == 0})


@dataclass
class ArchiveEntry:
    chromosome: Chromosome
    cmax: int
    tec: float

    @property
    def objectives(self) -> Objectives:
        return (self.cmax, self.tec)


class ParetoArchive:
    """Bounded elitist store of mutually non-dominated solutions.

    New entries are rejected when dominated by, or equal in objectives
    to, an existing member; accepted entries evict everything they
    dominate.  Above capacity, the member with the smallest crowding
    distance is dropped; boundary members are never dropped.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("archive capacity must be positive")
        self.capacity = capacity
        self.entries: list[ArchiveEntry] = []

    def __len__(self) -> int:
        return len(self.entries)

    def add(self, chromosome: Chromosome, objectives: Objectives) -> bool:
        c, t = objectives
        if any(e.cmax <= c and e.tec <= t for e in self.entries):
            return False  # equal to or dominated by a member
        # no member equals the point, so these are the ones it dominates
        self.entries = [e for e in self.entries if not (c <= e.cmax and t <= e.tec)]
        self.entries.append(ArchiveEntry(chromosome, c, t))
        while len(self.entries) > self.capacity:
            self._evict_one()
        return True

    def _evict_one(self) -> None:
        pts = [e.objectives for e in self.entries]
        dist = crowding_distances(pts)
        finite = [i for i, d in enumerate(dist) if d != math.inf]
        if finite:
            victim = min(finite, key=lambda i: dist[i])
        else:
            victim = len(self.entries) - 1
        del self.entries[victim]

    def points(self) -> list[Objectives]:
        """Objective points sorted by (makespan, energy)."""
        return sorted(e.objectives for e in self.entries)

    def sample(self, rng: random.Random) -> ArchiveEntry:
        return self.entries[rng.randrange(len(self.entries))]
