"""Swarm operators, Pareto archive, and the full solver loop."""

from __future__ import annotations

import random

import pytest

from efjsp.encoding import Chromosome
from efjsp.optimizer import (
    MAX_ITER,
    MAX_POPULATION,
    MAX_VNS_BUDGET,
    AlgorithmConfig,
    ParetoArchive,
    crowding_distances,
    de_crossover,
    de_mutate,
    dominates,
    fuse_parents,
    inertia_weight,
    initialize_population,
    learning_factors,
    nondominated_ranks,
    run,
    select,
    self_rotate,
    subset_sizes,
    weighted_fusion,
)


def test_dominates_basic():
    assert dominates((1, 2), (2, 3))
    assert not dominates((1, 2), (1, 2))
    assert not dominates((1, 3), (2, 2))
    assert dominates((1, 2), (1, 3))


def test_nondominated_ranks():
    pts = [(1.0, 5.0), (2.0, 2.0), (5.0, 1.0), (3.0, 3.0), (6.0, 6.0)]
    assert nondominated_ranks(pts) == [0, 0, 0, 1, 2]


def test_crowding_boundary_points_infinite():
    pts = [(0.0, 4.0), (1.0, 2.0), (2.0, 1.0), (4.0, 0.0)]
    dist = crowding_distances(pts)
    assert dist[0] == float("inf")
    assert dist[3] == float("inf")
    assert all(d > 0 for d in dist)


def test_archive_rejects_dominated_and_equal():
    arch = ParetoArchive(capacity=10)
    a = Chromosome((1,), (1,))
    assert arch.add(a, (5, 50.0))
    assert not arch.add(a, (6, 60.0))
    assert not arch.add(a, (5, 50.0))
    assert len(arch) == 1


def test_archive_eviction_spares_boundaries():
    arch = ParetoArchive(capacity=2)
    c = Chromosome((1,), (1,))
    arch.add(c, (1, 9.0))
    arch.add(c, (9, 1.0))
    arch.add(c, (5, 5.0))
    # the middle entry has finite crowding and is the one dropped
    assert arch.points() == [(1, 9.0), (9, 1.0)]


def test_archive_dominating_entry_sweeps():
    arch = ParetoArchive(capacity=10)
    c = Chromosome((1,), (1,))
    arch.add(c, (5, 50.0))
    arch.add(c, (6, 40.0))
    arch.add(c, (4, 30.0))
    assert arch.points() == [(4, 30.0)]


def test_subset_sizes_even_split():
    assert subset_sizes(1.0, 1.0, 1.0, 6) == (2, 2, 2)


def test_subset_sizes_weighted_split():
    assert subset_sizes(0.5, 0.3, 0.2, 10) == (5, 3, 2)


def test_subset_sizes_total_preserved():
    rng = random.Random(0)
    for _ in range(200):
        w = [rng.uniform(0.01, 2.0) for _ in range(3)]
        n = rng.randrange(1, 15)
        sizes = subset_sizes(*w, n)
        assert sum(sizes) == n
        assert all(s >= 0 for s in sizes)


def test_de_mutate_replaces_agreeing_positions():
    prev = Chromosome((1, 1, 1), (1, 2, 3))
    cur = Chromosome((1, 1, 1), (4, 4, 4))
    nxt = Chromosome((1, 1, 1), (1, 5, 3))
    out = de_mutate(prev, cur, nxt, scale_factor=1.0, rng=random.Random(0))
    assert out.mv == (1, 4, 3)
    assert out.os == cur.os


def test_de_mutate_zero_factor_is_identity():
    prev = Chromosome((1, 1, 1), (1, 2, 3))
    cur = Chromosome((1, 1, 1), (4, 4, 4))
    nxt = Chromosome((1, 1, 1), (1, 5, 3))
    out = de_mutate(prev, cur, nxt, scale_factor=0.0, rng=random.Random(0))
    assert out.mv == (4, 4, 4)


def test_de_crossover_zero_rate_keeps_one_forced_position():
    d = 12
    mutant = Chromosome(tuple([1] * d), tuple([2] * d))
    base = Chromosome(tuple([1] * d), tuple([1] * d))
    out = de_crossover(mutant, base, crossover_rate=0.0, rng=random.Random(7))
    changed = [p for p in range(d) if out.mv[p] != base.mv[p]]
    assert len(changed) == 1


def test_de_crossover_retention_rate():
    d = 1000
    mutant = Chromosome(tuple([1] * d), tuple([2] * d))
    base = Chromosome(tuple([1] * d), tuple([1] * d))
    out = de_crossover(mutant, base, crossover_rate=0.3, rng=random.Random(123))
    taken = sum(1 for p in range(d) if out.mv[p] == 2)
    assert abs(taken / d - 0.3) < 0.05


class _PairRng:
    """Stub rng whose sample() returns a fixed index pair."""

    def __init__(self, pair):
        self.pair = pair

    def sample(self, population, k):
        assert k == 2
        return list(self.pair)


def test_self_rotate_segment():
    ch = Chromosome((1, 2, 3, 2, 1, 3), (1, 1, 1, 1, 1, 1))
    out = self_rotate(ch, _PairRng((4, 1)))
    assert out.os == (1, 1, 2, 3, 2, 3)
    assert out.mv == ch.mv


def test_self_rotate_preserves_multiset(inst):
    from efjsp.encoding import random_chromosome

    rng = random.Random(2)
    for _ in range(100):
        ch = random_chromosome(inst, rng)
        out = self_rotate(ch, rng)
        assert sorted(out.os) == sorted(ch.os)


def test_fuse_parents_packing(inst):
    order = tuple(inst.matrices)
    p1 = Chromosome((1, 2, 2, 2, 2, 1), (1, 1, 1, 1, 1, 1))
    p2 = Chromosome((2, 2, 1, 1, 2, 2), (2, 2, 2, 2, 2, 2))
    p3 = Chromosome((2, 1, 2, 1, 2, 2), (3, 3, 3, 3, 3, 3))
    child = fuse_parents(order, p1, p2, p3, {1}, {2}, set())
    # job 1 keeps its slots from p1; job 2 fills the rest in p2's order
    assert child.os == (1, 2, 2, 2, 2, 1)
    # job 1's two operations take p1 columns, job 2's four take p2 columns
    assert child.mv == (1, 1, 2, 2, 2, 2)


def test_fusion_full_weight_on_first_parent_copies_it(inst):
    p1 = Chromosome((1, 2, 2, 2, 2, 1), (1, 1, 1, 2, 1, 1))
    p2 = Chromosome((2, 2, 1, 1, 2, 2), (2, 2, 2, 2, 2, 2))
    p3 = Chromosome((2, 1, 2, 1, 2, 2), (3, 3, 3, 3, 3, 3))
    child = weighted_fusion(inst, p1, p2, p3, (1.0, 0.0, 0.0), random.Random(0))
    assert child == p1


def test_fusion_identical_parents_mv_identity(inst):
    p = Chromosome((1, 2, 2, 2, 2, 1), (1, 2, 3, 4, 2, 1))
    rng = random.Random(1)
    for _ in range(20):
        child = weighted_fusion(inst, p, p, p, (1.0, 1.0, 1.0), rng)
        assert child.mv == p.mv
        assert sorted(child.os) == sorted(p.os)


def test_fusion_child_always_valid(inst):
    from efjsp.encoding import decode, random_chromosome
    from efjsp.model import validate_schedule

    rng = random.Random(6)
    for _ in range(50):
        parents = [random_chromosome(inst, rng) for _ in range(3)]
        w = (rng.uniform(0.1, 2), rng.uniform(0.1, 2), rng.uniform(0.1, 2))
        child = weighted_fusion(inst, *parents, w, rng)
        assert validate_schedule(inst, decode(inst, child)).ok


def test_inertia_weight_schedule():
    assert inertia_weight(1, 300) == pytest.approx(2 - 1.6 / 300)
    assert inertia_weight(300, 300) == pytest.approx(0.4)


def test_learning_factors_clamped():
    rng = random.Random(9)
    for it in (1, 150, 300):
        c1, c2 = learning_factors(it, 300, rng)
        assert 1.5 <= c1 <= 2.0
        assert 1.5 <= c2 <= 2.0


def test_select_requires_domination():
    c = Chromosome((1,), (1,))
    current = (c, (12, 120.0))
    better = (c, (10, 100.0))
    sideways = (c, (10, 130.0))
    assert select(current, better) == better
    assert select(current, sideways) == current
    assert select(current, current) == current


def test_initialize_population_mix(inst):
    cfg = AlgorithmConfig(population=30, seed=0)
    parts = initialize_population(inst, cfg, random.Random(0))
    assert len(parts) == 30
    # one fully time-greedy chromosome leads each heuristic block
    assert parts[0].position.mv == (1, 1, 1, 1, 1, 1)
    assert parts[12].position.mv == (1, 1, 1, 1, 1, 1)
    # time-greedy partials stay within the two fastest columns
    for p in parts[1:12]:
        for pos, col in enumerate(p.position.mv):
            assert col in (1, 2), (pos, col)
    # energy-greedy partials include the slow same-energy columns
    energy_cols = [{1, 3}, {1, 3}, {1, 5}, {1, 2}, {1, 2}, {1, 3}]
    for p in parts[13:24]:
        for pos, col in enumerate(p.position.mv):
            assert col in energy_cols[pos], (pos, col)
    for p in parts:
        assert p.pbest == p.position
        assert p.pbest_objectives == p.objectives


def test_initialize_population_all_random_when_disabled(inst):
    cfg = AlgorithmConfig(population=10, disable_hybrid_init=True, seed=0)
    parts = initialize_population(inst, cfg, random.Random(0))
    assert len(parts) == 10


def test_config_validation():
    with pytest.raises(ValueError):
        AlgorithmConfig(population=2)


@pytest.mark.parametrize(
    "key, bound",
    [("population", MAX_POPULATION), ("max_iter", MAX_ITER), ("vns_budget", MAX_VNS_BUDGET)],
)
def test_config_sizes_are_bounded(key, bound):
    assert getattr(AlgorithmConfig(**{key: bound}), key) == bound
    with pytest.raises(ValueError, match=f"{key} must lie in .*{bound}"):
        AlgorithmConfig(**{key: bound + 1})


def test_run_is_seed_deterministic(inst):
    cfg = AlgorithmConfig(population=12, max_iter=8, seed=42)
    r1 = run(inst, cfg)
    r2 = run(inst, cfg)
    assert r1.archive.points() == r2.archive.points()
    assert [s.archive_points for s in r1.trace] == [s.archive_points for s in r2.trace]


def test_run_reports_each_iteration_as_it_ends(inst):
    cfg = AlgorithmConfig(population=12, max_iter=8, seed=42)
    seen = []
    res = run(inst, cfg, seen.append)
    assert [s.iteration for s in seen] == list(range(1, 9))
    assert all(stat is entry for stat, entry in zip(seen, res.trace, strict=True))
    plain = run(inst, cfg)
    assert plain.trace == res.trace and plain.archive.points() == res.archive.points()


def test_run_trace_monotone_best(inst):
    cfg = AlgorithmConfig(population=12, max_iter=10, seed=5)
    res = run(inst, cfg)
    best_c = [s.best_cmax for s in res.trace]
    best_t = [s.best_tec for s in res.trace]
    assert all(b <= a for a, b in zip(best_c, best_c[1:]))
    assert all(b <= a for a, b in zip(best_t, best_t[1:]))


def test_run_respects_archive_capacity(inst):
    cfg = AlgorithmConfig(population=12, max_iter=10, seed=1, archive_capacity=3)
    res = run(inst, cfg)
    assert 1 <= len(res.archive) <= 3


def test_run_with_ablations(inst):
    for flags in (
        {"disable_hybrid_init": True},
        {"disable_de": True},
        {"vns_budget": 0},
    ):
        cfg = AlgorithmConfig(population=10, max_iter=5, seed=2, **flags)
        res = run(inst, cfg)
        assert len(res.archive) >= 1
        assert len(res.trace) == 5
