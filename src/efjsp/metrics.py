"""Multi-objective quality indicators for two-objective fronts.

All indicators treat points as minimisation objectives.  Fronts are
plain sequences of (f1, f2) pairs; normalisation maps them into the unit
square spanned by the union of all supplied fronts.

Everything is plain Python: fronts hold a few hundred points at most, so
the quadratic IGD distance scan is cheap, and the package needs no
numerical library.  IGD adds its nearest distances left to right in
reference order (not ``sum()``, which compensates rounding from Python
3.12 on), so a value is the same on every supported Python.
"""

from __future__ import annotations

import math

from .pareto import dominates

Point = tuple[float, float]


def igd(reference: list[Point], candidate: list[Point]) -> float:
    """Inverted generational distance.

    Mean Euclidean distance from every reference point to its nearest
    candidate point.  Zero means the candidate covers every reference
    point exactly.

    Args:
        reference: the reference front, usually the true Pareto front.
        candidate: the approximation front to score.

    Raises:
        ValueError: if either front is empty.
    """
    if not reference or not candidate:
        raise ValueError("igd needs non-empty fronts")
    cand = [(float(c1), float(c2)) for c1, c2 in candidate]
    total = 0.0
    for r1, r2 in reference:
        r1, r2 = float(r1), float(r2)
        nearest = math.inf
        for c1, c2 in cand:
            dx = r1 - c1
            dy = r2 - c2
            d = math.sqrt(dx * dx + dy * dy)
            if d < nearest:
                nearest = d
        total += nearest
    return total / len(reference)


def hv(front: list[Point], ref_point: Point) -> float:
    """Hypervolume: area dominated by the front up to a reference point.

    Exact sweep for two objectives: points are sorted by the first
    objective and the dominated area is accumulated strip by strip.
    Dominated points in the front do not change the result.

    Raises:
        ValueError: if the front is empty or a point does not dominate
            the reference point.
    """
    if not front:
        raise ValueError("hv needs a non-empty front")
    r1, r2 = ref_point
    for p in front:
        if not dominates(p, ref_point):
            raise ValueError(f"front point {p} does not dominate reference {ref_point}")
    pts = sorted(front)
    area = 0.0
    best_f2 = float("inf")
    for i, (x, y) in enumerate(pts):
        nxt = pts[i + 1][0] if i + 1 < len(pts) else r1
        if y < best_f2:
            best_f2 = y
        if nxt > x:
            area += (nxt - x) * (r2 - best_f2)
    return area


def c_metric(front_a: list[Point], front_b: list[Point]) -> float:
    """Coverage: fraction of ``front_b`` strictly dominated by ``front_a``.

    Not symmetric; compute both directions to compare two fronts.

    Raises:
        ValueError: if ``front_b`` is empty.
    """
    if not front_b:
        raise ValueError("c_metric needs a non-empty second front")
    covered = sum(
        1 for b in front_b if any(dominates(a, b) for a in front_a)
    )
    return covered / len(front_b)


def normalize(
    fronts: list[list[Point]],
) -> tuple[list[list[Point]], tuple[tuple[float, float], tuple[float, float]]]:
    """Affine-map fronts into [0, 1]^2 using the union's extremes.

    Returns the normalised fronts and the (min, max) pair per objective.
    A degenerate objective (all values equal) maps to 0.

    Raises:
        ValueError: if the union of the fronts is empty.
    """
    union = [p for front in fronts for p in front]
    if not union:
        raise ValueError("normalize needs at least one point")
    lo = tuple(min(float(p[k]) for p in union) for k in range(2))
    hi = tuple(max(float(p[k]) for p in union) for k in range(2))
    span = tuple(h - l for l, h in zip(lo, hi))
    out = []
    for front in fronts:
        mapped = []
        for p in front:
            mapped.append(
                tuple(
                    (float(v) - l) / s if s > 0 else 0.0
                    for v, l, s in zip(p, lo, span)
                )
            )
        out.append(mapped)
    bounds = ((lo[0], hi[0]), (lo[1], hi[1]))
    return out, bounds
