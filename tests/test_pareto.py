"""The sort-based two-objective passes against pairwise reference code."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from efjsp.pareto import dominates, nondominated, nondominated_ranks


def reference_ranks(points):
    # peel fronts by pairwise dominance (the earlier O(n^3) code)
    n = len(points)
    ranks = [-1] * n
    remaining = set(range(n))
    level = 0
    while remaining:
        front = [
            i
            for i in remaining
            if not any(dominates(points[j], points[i]) for j in remaining if j != i)
        ]
        for i in front:
            ranks[i] = level
        remaining -= set(front)
        level += 1
    return ranks


def reference_front(points):
    # the earlier reference-front filter of `efjsp metrics`
    return sorted(p for p in set(points) if not any(dominates(q, p) for q in points if q != p))


# small integer ranges so that ties in either objective and duplicate
# points are common; floats equal to the integers mix in as well
_points = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 6) | st.integers(0, 6).map(float)),
    max_size=40,
)


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(_points)
def test_sort_based_passes_match_pairwise_reference(points):
    assert nondominated_ranks(points) == reference_ranks(points)
    assert nondominated(points) == reference_front(points)
