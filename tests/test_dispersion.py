import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
