import bisect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankone import rng
from rankone.dispersion import (PointSet, disp_probability_bound,
                                dispersion_lower_estimate, exact_dispersion,
                                halton, n_disp_upper, radical_inverse,
                                uniform_pointset)
from rankone.errors import InstanceTooLargeError, ParameterError


def brute_force_dispersion(pts: np.ndarray) -> float:
    """Independent oracle: enumerate all boxes with faces on the candidate
    grid (point coordinates plus the cube faces), keep the largest empty one."""
    n, d = pts.shape
    axes_pairs, axes_inside = [], []
    for i in range(d):
        cs = np.unique(np.concatenate(([0.0, 1.0], pts[:, i])))
        pairs = [(a, b) for ai, a in enumerate(cs) for b in cs[ai + 1:]]
        inside = np.array([(pts[:, i] > a) & (pts[:, i] < b) for a, b in pairs])
        axes_pairs.append(np.array([b - a for a, b in pairs]))
        axes_inside.append(inside.astype(np.int8))
    if d == 1:
        counts = axes_inside[0].sum(axis=1)
        vols = axes_pairs[0].copy()
    elif d == 2:
        counts = np.einsum("an,bn->ab", axes_inside[0], axes_inside[1])
        vols = axes_pairs[0][:, None] * axes_pairs[1][None, :]
    else:
        counts = np.einsum("an,bn,cn->abc", *axes_inside)
        vols = (axes_pairs[0][:, None, None] * axes_pairs[1][None, :, None]
                * axes_pairs[2][None, None, :])
    vols = np.where(counts == 0, vols, 0.0)
    return float(vols.max())


def reference_dispersion_2d(pts: np.ndarray):
    """The per-anchor and per-gap loop the vectorized planar sweep replaced,
    kept as its bit-for-bit reference: (value, witness lower, witness upper)."""
    order = np.argsort(pts[:, 0], kind="stable")
    xs, ys = pts[order, 0], pts[order, 1]
    n = len(xs)
    best = [-1.0, None, None]

    def offer(volume, lower, upper):
        lo, hi = tuple(lower), tuple(upper)
        if volume > best[0]:
            best[:] = [volume, lo, hi]
        elif volume == best[0] and (lo, hi) < (best[1], best[2]):
            best[1:] = [lo, hi]

    for a in range(n):
        px, py = xs[a], ys[a]
        sel = xs > px
        ry, rx = ys[sel], xs[sel]
        hi = np.minimum.accumulate(np.concatenate(([1.0], np.where(ry >= py, ry, 1.0))))
        lo = np.maximum.accumulate(np.concatenate(([0.0], np.where(ry <= py, ry, 0.0))))
        rights = np.concatenate((rx, [1.0]))
        vols = (rights - px) * (hi - lo)
        vmax = vols.max()
        for j in np.nonzero(vols == vmax)[0]:
            offer(float(vols[j]), (px, lo[j]), (rights[j], hi[j]))

    seen = []
    for j in range(n + 1):
        right = xs[j] if j < n else 1.0
        if right > 0.0:
            levels = [0.0] + seen + [1.0]
            for g_lo, g_hi in zip(levels[:-1], levels[1:]):
                if g_hi > g_lo:
                    offer(right * (g_hi - g_lo), (0.0, g_lo), (right, g_hi))
        if j < n:
            bisect.insort(seen, ys[j])
    return best[0], np.array(best[1]), np.array(best[2])


def assert_matches_reference(pts):
    res = exact_dispersion(PointSet(points=pts, provenance="x"))
    value, lower, upper = reference_dispersion_2d(np.asarray(pts, dtype=float))
    assert res.value == value
    # compared through repr, so signs of zero must match as well
    assert repr(res.witness_box.lower.tolist()) == repr(lower.tolist())
    assert repr(res.witness_box.upper.tolist()) == repr(upper.tolist())


class TestHalton:
    def test_radical_inverse(self):
        assert radical_inverse(1, 2) == 0.5
        assert radical_inverse(2, 2) == 0.25
        assert radical_inverse(3, 2) == 0.75
        assert radical_inverse(1, 3) == pytest.approx(1 / 3)
        assert radical_inverse(2, 3) == pytest.approx(2 / 3)

    def test_first_points_bit_exact(self):
        ps = halton(3, 2)
        assert ps.points[0, 0] == 0.5 and ps.points[0, 1] == 1 / 3
        assert ps.points[1, 0] == 0.25 and ps.points[1, 1] == 2 / 3
        assert ps.points[2, 0] == 0.75 and ps.points[2, 1] == 1 / 9

    def test_invalid(self):
        with pytest.raises(ParameterError):
            halton(0, 2)
        with pytest.raises(ParameterError):
            halton(5, 64)


class TestPointSet:
    def test_csv_roundtrip(self, tmp_path):
        ps = uniform_pointset(17, 3, seed=5)
        path = tmp_path / "pts.csv"
        ps.to_csv(path)
        back = PointSet.from_csv(path)
        np.testing.assert_array_equal(ps.points, back.points)

    def test_coordinates_validated(self):
        with pytest.raises(ParameterError):
            PointSet(points=np.array([[0.5, 1.5]]), provenance="x")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinates_rejected(self, bad):
        with pytest.raises(ParameterError):
            PointSet(points=np.array([[0.2, 0.3], [0.5, bad]]), provenance="x")

    def test_non_finite_csv_rejected(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("0.2,0.3\n0.5,nan\n")
        with pytest.raises(ParameterError):
            PointSet.from_csv(path)

    @pytest.mark.parametrize("seed", [0, 12345, 2 ** 64 - 1])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_uniform_rows_are_per_index_streams(self, seed, d):
        ps = uniform_pointset(7, d, seed)
        for i in range(7):
            np.testing.assert_array_equal(ps.points[i], rng.spawn(seed, i).random(d))

    def test_uniform_is_pure_in_seed_and_index(self):
        a = uniform_pointset(10, 4, seed=3)
        b = uniform_pointset(6, 4, seed=3)
        np.testing.assert_array_equal(a.points[:6], b.points)


class TestExactDispersion:
    def test_empty_set(self):
        res = exact_dispersion(PointSet(points=np.empty((0, 2)), provenance="x"))
        assert res.value == 1.0

    def test_one_dimensional_gaps(self):
        ps = PointSet(points=np.array([[0.2], [0.7]]), provenance="x")
        res = exact_dispersion(ps)
        assert res.value == pytest.approx(0.5)
        assert res.witness_box.lower[0] == pytest.approx(0.2)

    def test_center_point_2d(self):
        ps = PointSet(points=np.array([[0.5, 0.5]]), provenance="x")
        res = exact_dispersion(ps)
        assert res.value == pytest.approx(0.5)

    def test_witness_box_is_empty_and_attains_value(self):
        ps = uniform_pointset(25, 2, seed=11)
        res = exact_dispersion(ps)
        box = res.witness_box
        assert box.volume == pytest.approx(res.value)
        inside = np.all((ps.points > box.lower) & (ps.points < box.upper), axis=1)
        assert not inside.any()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 3), st.integers(1, 10), st.integers(0, 10 ** 6))
    def test_matches_brute_force(self, d, n, seed):
        pts = np.random.default_rng(seed).random((n, d))
        got = exact_dispersion(PointSet(points=pts, provenance="x")).value
        assert got == pytest.approx(brute_force_dispersion(pts), abs=1e-9)

    def test_large_2d_supported(self):
        ps = uniform_pointset(301, 2, seed=0)
        res = exact_dispersion(ps)
        assert 0 < res.value < 1

    def test_high_dim_guard(self):
        ps = uniform_pointset(50, 4, seed=0)
        with pytest.raises(InstanceTooLargeError):
            exact_dispersion(ps)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 3), st.integers(2, 9), st.integers(0, 10 ** 6))
    def test_monotone_under_point_removal(self, d, n, seed):
        pts = np.random.default_rng(seed).random((n, d))
        full = exact_dispersion(PointSet(points=pts, provenance="x")).value
        sub = exact_dispersion(PointSet(points=pts[:-1], provenance="x")).value
        assert sub >= full - 1e-12

    def test_lower_estimate_never_exceeds_exact(self):
        ps = uniform_pointset(12, 3, seed=2)
        exact = exact_dispersion(ps).value
        est = dispersion_lower_estimate(ps, boxes=2000, seed=1)
        assert est <= exact + 1e-12


class TestPlanarSweepPinned:
    """The planar sweep against the loop it replaced, bit for bit."""

    @pytest.mark.parametrize("seed", range(60))
    def test_random_sets(self, seed):
        g = np.random.default_rng(seed)
        pts = g.random((int(g.integers(1, 61)), 2))
        if seed % 3 == 0:  # shared x and y, points on the walls
            pts = np.round(pts * 8) / 8
        assert_matches_reference(pts)

    @pytest.mark.parametrize("pts", [
        [[0.5, 0.5]],
        [[0.0, 0.0]],
        [[1.0, 1.0]],
        [[0.0, 0.7]],
        [[1.0, 0.3]],
        [[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]],
        [[0.0, 0.5], [1.0, 0.2], [0.3, 0.0], [0.6, 1.0]],
        [[0.4, 0.1], [0.4, 0.6], [0.4, 0.9], [0.8, 0.3]],
        [[0.1, 0.3], [0.6, 0.3], [0.9, 0.3], [0.3, 0.7]],
        [[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]],
        [[0.25, 0.25], [0.5, 0.5], [0.75, 0.75]],
        [[x, y] for x in (0.25, 0.5, 0.75) for y in (0.25, 0.5, 0.75)],
        [[0.0, y] for y in (0.1, 0.4, 0.8)] + [[1.0, y] for y in (0.2, 0.9)],
        [[0.5, 0.5], [0.25, -0.0], [0.75, 0.75], [0.75, 0.25]],
    ], ids=["center", "origin", "far-corner", "left-wall", "right-wall",
            "corners", "on-walls", "shared-x", "shared-y", "repeated",
            "diagonal", "grid", "wall-columns", "negative-zero-floor"])
    def test_hand_made_sets(self, pts):
        assert_matches_reference(np.array(pts, dtype=float))

    @pytest.mark.parametrize("seed", range(60))
    def test_negative_zero_coordinates(self, seed):
        # -0.0 passes the [0, 1] check; the witness keeps its sign as before
        g = np.random.default_rng(seed)
        pts = np.round(g.random((int(g.integers(1, 9)), 2)) * 4) / 4
        pts[pts == 0] = -0.0
        assert_matches_reference(pts)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_uniform_301(self, seed):
        assert_matches_reference(uniform_pointset(301, 2, seed).points)

    def test_grid_301(self):
        pts = np.round(np.random.default_rng(5).random((301, 2)) * 16) / 16
        assert_matches_reference(pts)


class TestCostBounds:
    def test_probability_bound_clamps_small_n(self):
        assert disp_probability_bound(5, 2, 0.3) == 0.0

    def test_probability_bound_positive_large_n(self):
        b = disp_probability_bound(450, 2, 0.3)
        assert 0 < b < 1
        assert disp_probability_bound(5000, 2, 0.3) == 1.0  # tail underflows

    def test_probability_bound_monotone_in_n(self):
        bs = [disp_probability_bound(n, 2, 0.3) for n in (500, 1000, 2000)]
        assert bs == sorted(bs)

    def test_probability_bound_positive_at_behw_threshold(self):
        for d, V in [(2, 0.3), (4, 0.5)]:
            assert disp_probability_bound(n_disp_upper(V, d, "behw"), d, V) > 0.0

    def test_probability_bound_invalid(self):
        with pytest.raises(ParameterError):
            disp_probability_bound(0, 2, 0.3)

    def test_behw_reference_value(self):
        assert n_disp_upper(0.5, 2, "behw") == 301

    def test_halton_reference_value(self):
        # 2^3 * (2*3*5) / 0.5 = 480
        assert n_disp_upper(0.5, 3, "halton") == 480

    def test_invalid(self):
        with pytest.raises(ParameterError):
            n_disp_upper(0.0, 2)
        with pytest.raises(ParameterError):
            n_disp_upper(0.5, 2, "other")

    def test_behw_smaller_than_halton_in_high_dim(self):
        assert n_disp_upper(0.5, 6, "behw") < n_disp_upper(0.5, 6, "halton")
