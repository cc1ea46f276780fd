"""The benchmark's references against exact_dispersion on small
hand-made point sets.

    python3 -m pytest bench/test_references.py
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rankone.dispersion import PointSet, exact_dispersion  # noqa: E402

import references as ref  # noqa: E402

SETS_2D = {
    "center": [[0.5, 0.5]],
    "diagonal": [[0.25, 0.25], [0.5, 0.5], [0.75, 0.75]],
    "grid": [[x, y] for x in (0.25, 0.5, 0.75) for y in (0.25, 0.5, 0.75)],
    "shared_x": [[0.4, 0.1], [0.4, 0.6], [0.4, 0.9], [0.8, 0.3]],
    "shared_y": [[0.1, 0.3], [0.6, 0.3], [0.9, 0.3], [0.3, 0.7]],
    "on_walls": [[0.0, 0.5], [1.0, 0.2], [0.3, 0.0], [0.6, 1.0]],
    "corners": [[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]],
    "cluster": [[0.1, 0.12], [0.11, 0.1], [0.13, 0.14], [0.9, 0.85]],
}

SETS_3D = {
    "center": [[0.5, 0.5, 0.5]],
    "diagonal": [[0.2, 0.2, 0.2], [0.5, 0.5, 0.5], [0.8, 0.8, 0.8]],
    "cube_corners": [[x, y, z] for x in (0.25, 0.75) for y in (0.25, 0.75)
                     for z in (0.25, 0.75)],
    "shared_coords": [[0.5, 0.1, 0.9], [0.5, 0.9, 0.1], [0.1, 0.5, 0.5],
                      [0.9, 0.5, 0.5]],
    "on_faces": [[0.0, 0.3, 0.6], [1.0, 0.7, 0.2], [0.4, 0.0, 1.0]],
}


def exact(pts):
    res = exact_dispersion(PointSet(points=np.asarray(pts, dtype=float),
                                    provenance="explicit"))
    return res.value, res.witness_box


@pytest.mark.parametrize("name", sorted(SETS_2D))
def test_planar_reference_matches_exact(name):
    pts = np.array(SETS_2D[name])
    value, box = exact(pts)
    assert ref.agrees(ref.max_gap_dispersion_2d(pts), value)
    assert ref.witness_ok(pts, value, box.lower, box.upper)


def test_planar_reference_known_values():
    assert ref.max_gap_dispersion_2d(np.array([[0.5, 0.5]])) == 0.5
    # three diagonal points: the best boxes are [0, 0.75] x [0.5, 1] and
    # its mirror images
    assert ref.max_gap_dispersion_2d(np.array(SETS_2D["diagonal"])) == 0.375
    assert ref.max_gap_dispersion_2d(np.zeros((0, 2))) == 1.0


@pytest.mark.parametrize("name", sorted(SETS_3D))
def test_cubic_reference_matches_exact(name):
    pts = np.array(SETS_3D[name])
    value, box = exact(pts)
    assert ref.agrees(ref.brute_force_dispersion_3d(pts), value)
    assert ref.witness_ok(pts, value, box.lower, box.upper)


def test_cubic_reference_known_value():
    assert ref.brute_force_dispersion_3d(np.array([[0.5, 0.5, 0.5]])) == 0.5


@pytest.mark.parametrize("seed", range(5))
def test_references_match_exact_on_small_random_sets(seed):
    gen = np.random.default_rng(seed)
    pts2 = gen.random((12, 2))
    assert ref.agrees(ref.max_gap_dispersion_2d(pts2), exact(pts2)[0])
    pts3 = gen.random((7, 3))
    assert ref.agrees(ref.brute_force_dispersion_3d(pts3), exact(pts3)[0])


def test_witness_ok_rejects_bad_boxes():
    pts = np.array([[0.5, 0.5]])
    assert ref.witness_ok(pts, 0.5, [0.0, 0.0], [0.5, 1.0])
    assert not ref.witness_ok(pts, 1.0, [0.0, 0.0], [1.0, 1.0])  # holds the point
    assert not ref.witness_ok(pts, 0.4, [0.0, 0.0], [0.5, 1.0])  # wrong volume
    assert not ref.witness_ok(pts, 0.5, [0.5, 0.0], [0.0, 1.0])  # inverted
    assert not ref.witness_ok(pts, 0.5, [0.0, 0.0, 0.0], [0.5, 1.0, 1.0])


def test_binomial_checks():
    p = 1.0 - (1.0 - 2.0 ** -10) ** 256
    assert math.isclose(p, 0.2213, abs_tol=1e-4)
    sigma = math.sqrt(p * (1 - p) / 1000)
    assert ref.within_sigma(round(1000 * p), 1000, p)
    assert not ref.within_sigma(round(1000 * (p + 3.5 * sigma)), 1000, p)
    assert not ref.within_sigma(round(1000 * (p - 3.5 * sigma)), 1000, p)
    assert ref.at_least(1000, 1000, 0.999)
    assert not ref.at_least(900, 1000, 0.999)
