"""Variable neighbourhood search around the critical path.

The search reads each solution off the decoder's own machine timelines,
time-ordered as placed (``encoding.Checkpoints``), so no schedule rows
are collected or sorted.  Each operation is one segment there, which
starts with its setup when it brings one.  The critical path walks
backwards from the latest completion, always stepping to the
later-completing of the job predecessor and the machine predecessor (the
previous operation on the timeline; ties prefer the machine
predecessor, and an absent one never wins), until an operation whose
segment starts at time zero.

Three neighbourhood structures perturb a chromosome:

* n1 moves a random critical operation to a random column of a different
  machine,
* n2 swaps the sequence positions of two random critical operations,
* n3 moves a random operation off the busiest machine.

The search cycles n1, n2, n3 with a fixed evaluation budget per
structure, restarting from n1 whenever a neighbour dominates the current
solution, and stops after a full fruitless cycle or at a hard cap of ten
times the per-structure budget.  What the structures read about the
current solution is worked out once per accepted solution, not once per
neighbour.  A neighbour is priced from the current solution's last
placement checkpoint ahead of the first os position it changes (the
moved operation's for n1 and n3, the earlier swapped one's for n2)
through ``encoding.evaluate(..., base=, first=)``; the objectives are
those a fresh ``evaluate`` gives, to the last bit.  An accepted
neighbour moves the checkpoints on from that same position
(``Checkpoints.advance``).  Each distinct neighbour is priced once per
call: a neighbour drawn again takes the objectives kept for it, yet
still counts against the budget and is still returned among the visited
ones, so the draws, the stop point and the archive feed are those of
pricing every draw.  Nothing is kept from one call to the next; the
message matrices the structures read are the instance's own column
table (``ProblemInstance.columns``), derived once per instance.
"""

from __future__ import annotations

import itertools
import random
from functools import cached_property

from .encoding import Checkpoints, Chromosome, evaluate
from .model import ProblemInstance, Segment
from .pareto import dominates

STRUCTURES = ("n1", "n2", "n3")

_RETRIES = 10
_TOTAL_BUDGET_FACTOR = 10


def critical_path(timelines: list[list[Segment]]) -> list[tuple[int, int]]:
    """Operations on one critical chain, in processing order, read off a
    schedule's time-ordered machine timelines: the decoder's own in
    ``vns``, ``model.machine_timelines(inst, sched)`` for given rows.
    Timelines that are no schedule raise ValueError: a job predecessor
    with no segment, or a walk that comes back to an operation.
    """
    span = {}  # (job, op) -> (start with its setup, end, machine predecessor)
    for seq in timelines:
        prev = None
        for start, end, job, op, _, _ in seq:
            span[job, op] = (start, end, prev)
            prev = (job, op)
    if not span:
        return []
    current = min(span, key=lambda k: (-span[k][1], k))
    path = [current]
    while span[current][0] != 0:
        job, op = current
        beta = (job, op - 1) if op > 1 else None
        gamma = span[current][2]
        if beta is None and gamma is None:
            break
        if beta is not None and beta not in span:
            raise ValueError(f"operation {op} of job {job} has no operation {op - 1} ahead of it")
        c_beta = span[beta][1] if beta is not None else float("-inf")
        c_gamma = span[gamma][1] if gamma is not None else float("-inf")
        current = beta if c_beta > c_gamma else gamma
        path.append(current)
        if len(path) > len(span):
            raise ValueError(f"the critical chain comes back to (job, op) {current}")
    path.reverse()
    return path


class _View:
    """One solution as the three structures read it, from its time-ordered
    machine timelines: the critical chain, the os position of every
    operation and, once n3 asks for them, the busiest machine's
    operations in os order."""

    def __init__(self, inst: ProblemInstance, chrom: Chromosome, timelines: list[list[Segment]]):
        self.chrom, self.timelines, self.columns = chrom, timelines, inst.columns
        self.path = critical_path(timelines)
        nth = {job.id: itertools.count(1) for job in inst.jobs}
        self.os_index = {(job, next(nth[job])): i for i, job in enumerate(chrom.os)}

    @cached_property
    def busiest(self) -> list[tuple[int, int]]:
        """The machine with the most occupied time, setups included, and
        ties going to the lowest id."""
        timelines = self.timelines
        loads = [sum(seg[1] - seg[0] for seg in seq) for seq in timelines]
        ops = [seg[2:4] for seg in timelines[loads.index(max(loads))]]
        return sorted(ops, key=self.os_index.__getitem__)

    def move_off(
        self, keys: list[tuple[int, int]], rng: random.Random
    ) -> tuple[Chromosome, int] | None:
        """Move a random one of ``keys`` to a random column of another machine."""
        mv = self.chrom.mv
        for _ in range(_RETRIES):
            job, op = keys[rng.randrange(len(keys))]
            position, _, cols = self.columns[job - 1][op - 1]
            machines = [m for m, _, _ in cols]
            others = sorted(set(machines) - {machines[mv[position] - 1]})
            if others:
                target = others[rng.randrange(len(others))]
                columns = [i + 1 for i, m in enumerate(machines) if m == target]
                moved = list(mv)
                moved[position] = columns[rng.randrange(len(columns))]
                return Chromosome(self.chrom.os, tuple(moved)), self.os_index[job, op]
        return None

    def draw(self, structure: str, rng: random.Random) -> tuple[Chromosome, int] | None:
        """A random neighbour under ``structure`` and the first os position
        whose operation it places differently, or None."""
        if structure == "n3":
            return self.move_off(self.busiest, rng) if self.busiest else None
        path = self.path
        if not path:
            return None
        if structure == "n1":
            return self.move_off(path, rng)
        if len(path) < 2:
            return None
        for _ in range(_RETRIES):
            a, b = rng.sample(range(len(path)), 2)
            ka, kb = path[a], path[b]
            if ka[0] == kb[0]:
                continue  # same job: swapping their os entries changes nothing
            ia, ib = self.os_index[ka], self.os_index[kb]
            os = list(self.chrom.os)
            os[ia], os[ib] = os[ib], os[ia]
            return Chromosome(tuple(os), self.chrom.mv), min(ia, ib)
        return None


def vns(
    chrom: Chromosome,
    objectives: tuple[int, float],
    inst: ProblemInstance,
    rng: random.Random,
    budget: int,
) -> tuple[Chromosome, tuple[int, float], list[tuple[Chromosome, tuple[int, float]]]]:
    """Variable neighbourhood descent from one solution.

    Returns the best solution found (never dominated by the input), its
    objectives, and every drawn neighbour with its objectives, repeats
    included and in draw order, for archive feeding.
    """
    visited: list[tuple[Chromosome, tuple[int, float]]] = []
    if budget <= 0:
        return chrom, objectives, visited

    cap = _TOTAL_BUDGET_FACTOR * budget
    spent = 0
    priced: dict[Chromosome, tuple[int, float]] = {}  # this call's neighbours only
    current, cur_obj = chrom, objectives
    base = Checkpoints(inst, current)
    view = _View(inst, current, base.timelines)
    k = 0
    while k < len(STRUCTURES) and spent < cap:
        improved = False
        for _ in range(budget):
            if spent >= cap:
                break
            drawn = view.draw(STRUCTURES[k], rng)
            if drawn is None:
                break
            nb, first = drawn
            obj = priced.get(nb)
            if obj is None:
                obj = priced[nb] = evaluate(inst, nb, base=base, first=first)
            spent += 1
            visited.append((nb, obj))
            if dominates(obj, cur_obj):
                current, cur_obj = nb, obj
                base.advance(current, first)
                view = _View(inst, current, base.timelines)
                improved = True
                break
        k = 0 if improved else k + 1
    return current, cur_obj, visited
