"""Hybrid discrete particle swarm / differential evolution solver.

Each particle carries a chromosome position, its objectives, and a
personal best.  One iteration builds a learning exemplar for every
particle from the personal bests of its ring neighbours via differential
mutation and crossover, at the paper's fixed rates ``SCALE_FACTOR`` and
``CROSSOVER_RATE``.  It rotates a random segment of the particle's own
operation sequence (inertia), and fuses rotated position, exemplar and
an archive member into a candidate by a three-parent job-subset merge
weighted (inertia, cognitive * r1, social * r2).  The candidate replaces
the rotated position only when it dominates it.  A variable
neighbourhood search then refines the five best particles, and all
points evaluated during the iteration feed an elitist bounded archive.

Randomness is drawn in a fixed order, and personal bests and the archive
change only in a barrier phase after every particle has moved, so runs
reproduce exactly for a given seed.
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable
from dataclasses import dataclass

from . import local_search as _local
from .encoding import (
    MODE_PARTIAL,
    MODE_TOTAL,
    RULE_MIN_ENERGY,
    RULE_MIN_TIME,
    Chromosome,
    evaluate,
    heuristic_chromosome,
    random_chromosome,
)
from .model import ProblemInstance
from .pareto import (
    Objectives,
    ParetoArchive,
    crowding_distances,
    dominates,
    nondominated_ranks,
)


@dataclass
class Particle:
    position: Chromosome
    objectives: Objectives
    pbest: Chromosome
    pbest_objectives: Objectives


# Sizes beyond which a solve would not finish: ``initialize_population``
# builds every chromosome up front, and each iteration and VNS call runs
# to its count.
MAX_POPULATION = 10_000
MAX_ITER = 1_000_000
MAX_VNS_BUDGET = 10_000

# The paper's DE rates: the scale factor F and the crossover rate CR.
SCALE_FACTOR = 0.5
CROSSOVER_RATE = 0.3


@dataclass
class AlgorithmConfig:
    """Settings of the solver loop; sizes are bounded by the ``MAX_*``
    constants above.  The paper's three ablations are
    ``disable_hybrid_init``, ``disable_de`` and a ``vns_budget`` of 0."""

    population: int = 30
    max_iter: int = 300
    archive_capacity: int = 100
    vns_budget: int = 20
    disable_hybrid_init: bool = False
    disable_de: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if not 3 <= self.population <= MAX_POPULATION:
            raise ValueError(f"population must lie in 3..{MAX_POPULATION}")
        if not 0 <= self.max_iter <= MAX_ITER:
            raise ValueError(f"max_iter must lie in 0..{MAX_ITER}")
        if self.archive_capacity < 1:
            raise ValueError("archive_capacity must be positive")
        if not 0 <= self.vns_budget <= MAX_VNS_BUDGET:
            raise ValueError(f"vns_budget must lie in 0..{MAX_VNS_BUDGET}")


@dataclass(frozen=True)
class IterationStats:
    iteration: int
    best_cmax: int
    best_tec: float
    archive_points: tuple[Objectives, ...]


@dataclass(frozen=True)
class RunResult:
    archive: ParetoArchive
    trace: tuple[IterationStats, ...]


def initialize_population(
    inst: ProblemInstance, cfg: AlgorithmConfig, rng: random.Random
) -> list[Particle]:
    """Seed the swarm: 40% time-greedy, 40% energy-greedy, rest random.

    Each greedy block holds exactly one fully greedy chromosome, the
    remainder mixing best and second-best columns per operation.  With
    hybrid seeding disabled the whole population is random.  Every
    particle starts with itself as personal best.
    """
    n = cfg.population
    if cfg.disable_hybrid_init:
        n1 = n2 = 0
    else:
        n1 = n2 = (2 * n) // 5
    chroms: list[Chromosome] = []
    for rule, count in ((RULE_MIN_TIME, n1), (RULE_MIN_ENERGY, n2)):
        for k in range(count):
            mode = MODE_TOTAL if k == 0 else MODE_PARTIAL
            chroms.append(heuristic_chromosome(inst, rule, mode, rng))
    while len(chroms) < n:
        chroms.append(random_chromosome(inst, rng))
    particles = []
    for ch in chroms:
        obj = evaluate(inst, ch)
        particles.append(Particle(ch, obj, ch, obj))
    return particles


def de_mutate(
    prev: Chromosome,
    current: Chromosome,
    nxt: Chromosome,
    scale_factor: float,
    rng: random.Random,
) -> Chromosome:
    """Differential mutation on the machine-column vector.

    Wherever the two neighbours agree, the current entry is replaced by
    the agreed value with probability ``scale_factor``; everywhere else
    it is kept.  The operation sequence passes through untouched.
    """
    mv = list(current.mv)
    for p, (a, b) in enumerate(zip(prev.mv, nxt.mv)):
        if a == b and rng.random() < scale_factor:
            mv[p] = a
    return Chromosome(current.os, tuple(mv))


def de_crossover(
    mutant: Chromosome,
    base: Chromosome,
    crossover_rate: float,
    rng: random.Random,
) -> Chromosome:
    """Binomial crossover of the machine-column vectors.

    Each position takes the mutant entry with probability
    ``crossover_rate``; one uniformly chosen position always does, so the
    exemplar never collapses onto the base.
    """
    d = len(base.mv)
    forced = rng.randrange(d)
    mv = [
        mutant.mv[p] if (rng.random() < crossover_rate or p == forced) else base.mv[p]
        for p in range(d)
    ]
    return Chromosome(base.os, tuple(mv))


def self_rotate(chrom: Chromosome, rng: random.Random) -> Chromosome:
    """Rotate a random os segment one step: its last entry moves to its front."""
    d = len(chrom.os)
    if d < 2:
        return chrom
    a, b = sorted(rng.sample(range(d), 2))
    os = list(chrom.os)
    os[a : b + 1] = [os[b]] + os[a:b]
    return Chromosome(tuple(os), chrom.mv)


def subset_sizes(w1: float, w2: float, w3: float, n_jobs: int) -> tuple[int, int, int]:
    """Split ``n_jobs`` into three parts proportional to the weights.

    The first two parts round down against the cumulative weight shares;
    the third takes the remainder.
    """
    total = w1 + w2 + w3
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    n1 = math.floor(w1 * n_jobs / total)
    n12 = math.floor((w1 + w2) * n_jobs / total)
    return n1, n12 - n1, n_jobs - n12


def fuse_parents(
    order: tuple[tuple[int, int], ...],
    p1: Chromosome,
    p2: Chromosome,
    p3: Chromosome,
    subset1: set[int],
    subset2: set[int],
    subset3: set[int],
) -> Chromosome:
    """Merge three parents along a job partition.

    Jobs of the first subset keep their positions from the first parent.
    The remaining positions are then filled front to back: first with the
    second subset's entries in the second parent's order, then with the
    third subset's entries in the third parent's order.  Machine columns
    are taken per operation from the parent owning the job's subset.
    """
    d = len(p1.os)
    os: list[int] = [0] * d
    taken = [False] * d
    for idx, job in enumerate(p1.os):
        if job in subset1:
            os[idx] = job
            taken[idx] = True
    fill = [j for j in p2.os if j in subset2] + [j for j in p3.os if j in subset3]
    it = iter(fill)
    for idx in range(d):
        if not taken[idx]:
            os[idx] = next(it)
    mv = []
    for pos, (job, _) in enumerate(order):
        parent = p1 if job in subset1 else p2 if job in subset2 else p3
        mv.append(parent.mv[pos])
    return Chromosome(tuple(os), tuple(mv))


def weighted_fusion(
    inst: ProblemInstance,
    p1: Chromosome,
    p2: Chromosome,
    p3: Chromosome,
    weights: tuple[float, float, float],
    rng: random.Random,
) -> Chromosome:
    """Three-parent fusion over a random weight-proportional job partition."""
    jobs = [job.id for job in inst.jobs]
    n1, n2, _ = subset_sizes(*weights, len(jobs))
    shuffled = rng.sample(jobs, len(jobs))
    s1 = set(shuffled[:n1])
    s2 = set(shuffled[n1 : n1 + n2])
    s3 = set(shuffled[n1 + n2 :])
    return fuse_parents(tuple(inst.matrices), p1, p2, p3, s1, s2, s3)


def inertia_weight(iteration: int, max_iter: int) -> float:
    """Linearly falling inertia weight, from 2 down to 0.4."""
    return 2.0 - iteration * 1.6 / max_iter


def learning_factors(
    iteration: int, max_iter: int, rng: random.Random
) -> tuple[float, float]:
    """Randomised cognitive/social factors, clamped to [1.5, 2].

    The cognitive factor decays and the social factor grows over the run;
    each is perturbed by an independent uniform draw from (0, 1].
    """
    u1 = 1.0 - rng.random()
    c1 = 2.0 - iteration * 0.5 / (max_iter * u1)
    u2 = 1.0 - rng.random()
    c2 = 1.5 + iteration * 0.5 / (max_iter * u2)
    clamp = lambda c: min(2.0, max(1.5, c))
    return clamp(c1), clamp(c2)


def select(
    current: tuple[Chromosome, Objectives],
    candidate: tuple[Chromosome, Objectives],
) -> tuple[Chromosome, Objectives]:
    """Keep the candidate only when it dominates the current position."""
    if dominates(candidate[1], current[1]):
        return candidate
    return current


def _top_indices(particles: list[Particle], count: int) -> list[int]:
    pts = [p.objectives for p in particles]
    ranks = nondominated_ranks(pts)
    dist = crowding_distances(pts)
    ordered = sorted(range(len(particles)), key=lambda i: (ranks[i], -dist[i], i))
    return ordered[:count]


def run(
    inst: ProblemInstance,
    cfg: AlgorithmConfig,
    on_iteration: Callable[[IterationStats], None] | None = None,
) -> RunResult:
    """Full solver loop; returns the final archive and a per-iteration trace.

    ``on_iteration``, when given, is called with each iteration's trace
    entry as soon as the iteration ends.
    """
    rng = random.Random(cfg.seed)
    particles = initialize_population(inst, cfg, rng)
    archive = ParetoArchive(cfg.archive_capacity)
    for p in particles:
        archive.add(p.position, p.objectives)
    trace: list[IterationStats] = []
    n = len(particles)
    for it in range(1, cfg.max_iter + 1):
        w = inertia_weight(it, cfg.max_iter)
        evaluated: list[tuple[Chromosome, Objectives]] = []
        for i, part in enumerate(particles):
            exemplar = part.pbest
            if not cfg.disable_de:
                mutant = de_mutate(
                    particles[i - 1].pbest, part.pbest, particles[(i + 1) % n].pbest,
                    SCALE_FACTOR, rng,
                )
                exemplar = de_crossover(mutant, part.pbest, CROSSOVER_RATE, rng)
            gbest = archive.sample(rng).chromosome
            c1, c2 = learning_factors(it, cfg.max_iter, rng)
            rotated = self_rotate(part.position, rng)
            r1 = rng.random()
            r2 = rng.random()
            candidate = weighted_fusion(inst, rotated, exemplar, gbest, (w, c1 * r1, c2 * r2), rng)
            moves = [(ch, evaluate(inst, ch)) for ch in (rotated, candidate)]
            evaluated += moves
            part.position, part.objectives = select(*moves)

        if cfg.vns_budget > 0:
            for i in _top_indices(particles, 5):
                # each call gets its own stream seeded from rng
                part = particles[i]
                part.position, part.objectives, visited = _local.vns(
                    part.position, part.objectives, inst,
                    random.Random(rng.getrandbits(64)), cfg.vns_budget,
                )
                evaluated += visited

        # barrier phase: personal bests and archive in deterministic order
        for part in particles:
            if dominates(part.objectives, part.pbest_objectives):
                part.pbest = part.position
                part.pbest_objectives = part.objectives
        for ch, obj in evaluated:
            archive.add(ch, obj)
        pts = tuple(archive.points())
        best_cmax, best_tec = min(c for c, _ in pts), min(t for _, t in pts)
        trace.append(IterationStats(it, best_cmax, best_tec, pts))
        if on_iteration is not None:
            on_iteration(trace[-1])
    return RunResult(archive, tuple(trace))
