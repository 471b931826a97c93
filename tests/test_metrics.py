"""Front-quality indicators: IGD, hypervolume, coverage, normalisation."""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from efjsp.metrics import c_metric, hv, igd, normalize


def test_igd_half_diagonal():
    reference = [(0.0, 0.0), (1.0, 1.0)]
    candidate = [(0.0, 0.0)]
    assert igd(reference, candidate) == pytest.approx(math.sqrt(2) / 2)


def test_igd_zero_when_reference_covered():
    reference = [(0.0, 1.0), (1.0, 0.0)]
    candidate = [(1.0, 0.0), (0.0, 1.0), (0.5, 0.5)]
    assert igd(reference, candidate) == 0.0


def test_igd_rejects_empty():
    with pytest.raises(ValueError):
        igd([], [(0.0, 0.0)])
    with pytest.raises(ValueError):
        igd([(0.0, 0.0)], [])


def test_hv_two_point_front():
    front = [(1.0, 2.0), (2.0, 1.0)]
    assert hv(front, (3.0, 3.0)) == pytest.approx(3.0)


def test_hv_ignores_dominated_points():
    front = [(1.0, 2.0), (2.0, 1.0)]
    padded = front + [(2.0, 2.0)]
    assert hv(padded, (3.0, 3.0)) == pytest.approx(hv(front, (3.0, 3.0)))


def test_hv_single_point():
    assert hv([(0.0, 0.0)], (1.0, 1.0)) == pytest.approx(1.0)


def test_hv_rejects_points_outside_reference():
    with pytest.raises(ValueError):
        hv([(1.0, 4.0)], (3.0, 3.0))


def test_c_metric_half_covered():
    a = [(0.0, 0.0)]
    b = [(1.0, 1.0), (0.0, 0.0)]
    assert c_metric(a, b) == 0.5


def test_c_metric_no_strict_domination_of_self():
    a = [(0.0, 1.0), (1.0, 0.0)]
    assert c_metric(a, a) == 0.0


def test_c_metric_rejects_empty_second_front():
    with pytest.raises(ValueError):
        c_metric([(0.0, 0.0)], [])


def test_normalize_unit_square():
    fronts = [[(10.0, 100.0), (20.0, 200.0)], [(15.0, 150.0)]]
    normed, bounds = normalize(fronts)
    assert normed[0] == [(0.0, 0.0), (1.0, 1.0)]
    assert normed[1] == [(0.5, 0.5)]
    assert bounds == ((10.0, 20.0), (100.0, 200.0))


def test_normalize_degenerate_objective_maps_to_zero():
    fronts = [[(5.0, 1.0), (5.0, 3.0)]]
    normed, _ = normalize(fronts)
    assert [p[0] for p in normed[0]] == [0.0, 0.0]
    assert [p[1] for p in normed[0]] == [0.0, 1.0]


def test_normalize_rejects_empty_union():
    with pytest.raises(ValueError):
        normalize([[], []])


def test_normalized_hv_against_margin_reference():
    # typical pipeline: normalise, then score against (1.1, 1.1)
    fronts = [[(10.0, 200.0), (20.0, 100.0)]]
    normed, _ = normalize(fronts)
    value = hv(normed[0], (1.1, 1.1))
    # corners (0,1) and (1,0): two strips of 0.1 x 1 plus the 0.1 x 0.1 tip
    assert value == pytest.approx(0.21)


def _numpy_igd(reference, candidate):
    np = pytest.importorskip("numpy")
    ref = np.asarray(reference, dtype=float)
    cand = np.asarray(candidate, dtype=float)
    diff = ref[:, None, :] - cand[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=-1))
    return float(dist.min(axis=1).mean())


def _numpy_normalize(fronts):
    np = pytest.importorskip("numpy")
    arr = np.asarray([p for front in fronts for p in front], dtype=float)
    lo = arr.min(axis=0)
    hi = arr.max(axis=0)
    span = hi - lo
    out = [
        [
            tuple(float((v - l) / s) if s > 0 else 0.0 for v, l, s in zip(p, lo, span))
            for p in front
        ]
        for front in fronts
    ]
    return out, ((float(lo[0]), float(hi[0])), (float(lo[1]), float(hi[1])))


def _random_front(rng):
    # integer makespans next to real energies, as in result archives, plus
    # fronts of ints only and floats only
    kind = rng.choice(("mixed", "ints", "floats"))
    points = []
    for _ in range(rng.randint(1, 40)):
        f1 = rng.randint(1, 500) if kind != "floats" else rng.uniform(0.0, 500.0)
        f2 = rng.randint(1, 5000) if kind == "ints" else rng.uniform(0.0, 5000.0)
        points.append((f1, f2))
    return points


def test_plain_python_metrics_match_the_numpy_reference():
    # numpy adds eight or more nearest distances pairwise, so beyond seven
    # reference points the mean may differ in the last bits
    rng = random.Random(20240610)
    for _ in range(400):
        fronts = [_random_front(rng) for _ in range(rng.randint(1, 3))]
        assert normalize(fronts) == _numpy_normalize(fronts)
        reference, candidate = _random_front(rng), _random_front(rng)
        expected = _numpy_igd(reference, candidate)
        if len(reference) <= 7:
            assert igd(reference, candidate) == expected
        else:
            assert igd(reference, candidate) == pytest.approx(expected, rel=1e-15, abs=0.0)


def test_cli_import_leaves_numpy_unloaded():
    code = "import sys, efjsp, efjsp.cli; sys.exit('numpy' in sys.modules)"
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
