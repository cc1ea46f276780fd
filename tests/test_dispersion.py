import bisect
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rankone
from rankone import dispersion, rng
from rankone.dispersion import (PointSet, disp_probability_bound,
                                dispersion_lower_estimate, exact_dispersion,
                                halton, n_disp_upper, radical_inverse,
                                uniform_pointset, _PRIMES)
from rankone.errors import InstanceTooLargeError, ParameterError


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def scalar_radical_inverse(i: int, base: int) -> float:
    """The scalar loop that halton once ran for each coordinate, kept as
    its bit-for-bit reference."""
    f, r = 1.0, 0.0
    while i > 0:
        f /= base
        r += f * (i % base)
        i //= base
    return r


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
    else:  # one axis-0 pair at a time, so n = 29 takes (465, 465) arrays
        best = 0.0
        yz = axes_inside[2].T.astype(float)
        for w, x in zip(axes_pairs[0], axes_inside[0]):
            counts = (axes_inside[1] * x).astype(float) @ yz
            vols = (w * axes_pairs[1][:, None]) * axes_pairs[2][None, :]
            best = max(best, float(np.where(counts == 0, vols, 0.0).max()))
        return best
    vols = np.where(counts == 0, vols, 0.0)
    return float(vols.max())


def reference_dispersion_1d(xs: np.ndarray):
    """The gap-by-gap loop through _Best that the argmax over the gaps
    replaced, kept as its bit-for-bit reference: (value, lower, upper)."""
    coords = np.concatenate(([0.0], np.sort(xs), [1.0]))
    best = dispersion._Best()
    for a, b in zip(coords[:-1], coords[1:]):
        best.offer(b - a, (a,), (b,))
    return best.volume, np.array(best.lower), np.array(best.upper)


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


def reference_dispersion_exhaustive(pts: np.ndarray):
    """The pruned depth-first search over candidate faces that the slab
    sweep replaced in d >= 3, kept as its bit-for-bit reference:
    (value, witness lower, witness upper)."""
    n, d = pts.shape
    coords = [np.unique(np.concatenate(([0.0, 1.0], pts[:, i]))) for i in range(d)]
    # candidate (a, b) pairs per axis, widest first for pruning
    pairs = []
    for i in range(d):
        c = coords[i]
        ax = [(c[a], c[b]) for a in range(len(c)) for b in range(a + 1, len(c))]
        ax.sort(key=lambda p: p[0] - p[1])  # descending width
        pairs.append(ax)
    best = [-1.0, None, None]
    lower = [0.0] * d
    upper = [1.0] * d

    def offer(volume, lower, upper):
        lo, hi = tuple(lower), tuple(upper)
        if volume > best[0]:
            best[:] = [volume, lo, hi]
        elif volume == best[0] and (lo, hi) < (best[1], best[2]):
            best[1:] = [lo, hi]

    def descend(axis: int, mask: np.ndarray, volume: float):
        if axis == d:
            if not mask.any():
                offer(volume, lower, upper)
            return
        if not mask.any():
            # already empty: extend remaining axes to the full cube
            for i in range(axis, d):
                lower[i], upper[i] = 0.0, 1.0
            offer(volume, lower, upper)
            return
        col = pts[:, axis]
        for a, b in pairs[axis]:
            w = b - a
            if volume * w < best[0]:
                break  # widths descend; nothing better on this axis
            lower[axis], upper[axis] = a, b
            descend(axis + 1, mask & (col > a) & (col < b), volume * w)

    descend(0, np.ones(n, dtype=bool), 1.0)
    return best[0], np.array(best[1]), np.array(best[2])


def reference_lower_estimate(ps: PointSet, boxes: int, seed: int) -> float:
    """The one-box-at-a-time loop that dispersion_lower_estimate replaced."""
    g = rng.spawn(seed, 0xD15)
    best = 0.0
    for _ in range(boxes):
        lo = g.random(ps.d)
        hi = lo + g.random(ps.d) * (1.0 - lo)
        vol = float(np.prod(hi - lo))
        if vol > best:
            if not np.all((ps.points > lo) & (ps.points < hi), axis=1).any():
                best = vol
    return best


def result_repr(pts) -> str:
    """exact_dispersion's value and witness corners, through repr."""
    res = exact_dispersion(PointSet(points=pts, provenance="x"))
    return repr((res.value, res.witness_box.lower.tolist(), res.witness_box.upper.tolist()))


def assert_same_as_positive_zero_twin(pts):
    """A set with -0.0 coordinates has the value and witness of its twin
    with 0.0 there, repr for repr: PointSet reads -0.0 as 0.0."""
    pts = np.asarray(pts, dtype=float)
    assert result_repr(pts) == result_repr(pts + 0.0)


def assert_matches_reference(pts):
    ps = PointSet(points=pts, provenance="x")
    res = exact_dispersion(ps)
    reference = reference_dispersion_2d if ps.d == 2 else reference_dispersion_exhaustive
    value, lower, upper = reference(ps.points)
    assert res.value == value
    # compared through repr, so signs of zero must match as well
    assert repr(res.witness_box.lower.tolist()) == repr(lower.tolist())
    assert repr(res.witness_box.upper.tolist()) == repr(upper.tolist())
    if np.signbit(pts).any():  # a -0.0, the one negative sign in [0, 1]
        assert_same_as_positive_zero_twin(pts)


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

    @pytest.mark.parametrize("n, d", [(3, 2.0), (3.0, 2), (True, 2), (3, True), (3, "2")])
    def test_non_integer_counts_rejected(self, n, d):
        with pytest.raises(ParameterError):
            halton(n, d)

    def test_numpy_integer_counts_accepted(self):
        np.testing.assert_array_equal(halton(np.int64(3), np.int32(2)).points,
                                      halton(3, 2).points)

    @pytest.mark.parametrize("n", [1, 2, 580, 10_000])
    @pytest.mark.parametrize("d", [1, 2, 10, 32])
    def test_halton_is_the_scalar_loop_bitwise(self, n, d):
        # one array radical inverse per axis, in place of n d scalar calls
        want = [[scalar_radical_inverse(i, _PRIMES[j]) for j in range(d)]
                for i in range(1, n + 1)]
        assert bits(halton(n, d).points).tolist() == bits(np.array(want)).tolist()

    @pytest.mark.parametrize("base", [2, 3, 61, 131])
    def test_array_radical_inverse_is_its_scalar_calls_bitwise(self, base):
        # 0 and an index whose digits run out early sit next to long ones
        idx = np.r_[0, 1, base - 1, base, base ** 3 + 1, 2 ** 40 + 7, 10 ** 12]
        got = radical_inverse(idx, base)
        want = [radical_inverse(int(i), base) for i in idx]
        assert bits(got).tolist() == bits(np.array(want)).tolist()
        assert want == [scalar_radical_inverse(int(i), base) for i in idx]


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

    def test_points_are_read_only(self):
        # a write through ps.points once got past the [0, 1] check, and
        # exact_dispersion then raised a DomainError from Box
        ps = PointSet(points=[[0.2, 0.3], [0.6, 0.8]], provenance="x")
        with pytest.raises(ValueError, match="read-only"):
            ps.points[0, 0] = 7.0
        assert ps.points.tolist() == [[0.2, 0.3], [0.6, 0.8]]

    def test_points_are_copied(self):
        # a point set once kept the caller's array: a[0, 0] = 0.9 after the
        # check changed ps.points, and a coordinate moved out of the cube
        # made exact_dispersion raise a DomainError from Box
        a = np.array([[0.2, 0.3], [0.6, 0.8]])
        ps = PointSet(points=a, provenance="x")
        a[0, 0], a[1, 1] = 0.9, 7.0
        assert ps.points.tolist() == [[0.2, 0.3], [0.6, 0.8]]
        assert exact_dispersion(ps).value == exact_dispersion(
            PointSet(points=[[0.2, 0.3], [0.6, 0.8]], provenance="x")).value

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_negative_zero_is_read_as_zero(self, d, tmp_path):
        pts = np.full((3, d), 0.5)
        pts[0], pts[1, 0] = -0.0, 0.0
        ps = PointSet(points=pts, provenance="x")
        assert not np.signbit(ps.points).any()
        assert np.signbit(pts[0]).all()  # the caller's array is left as it was
        path = tmp_path / "pts.csv"
        ps.to_csv(path)
        assert "-0.0" not in path.read_text() and "0.0" in path.read_text()
        np.testing.assert_array_equal(PointSet.from_csv(path).points, ps.points)

    def test_non_finite_csv_rejected(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("0.2,0.3\n0.5,nan\n")
        with pytest.raises(ParameterError):
            PointSet.from_csv(path)

    # d = 5, 9 and 13 take the Philox blocks after the first
    @pytest.mark.parametrize("seed", [0, 12345, 2 ** 63 - 1, 2 ** 64 - 1, -1])
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7, 8, 9, 13])
    def test_uniform_rows_are_per_index_streams(self, seed, d):
        ps = uniform_pointset(7, d, seed)
        for i in range(7):
            np.testing.assert_array_equal(ps.points[i], rng.spawn(seed, i).random(d))

    @pytest.mark.parametrize("d", [1, 13])
    def test_uniform_rows_across_stream_passes(self, d):
        # two full passes of streams and a ragged third one
        n = 2 * (rng._PASS_BLOCKS // -(-d // 4)) + 3
        ps = uniform_pointset(n, d, 2 ** 64 - 1)
        for i in range(n):
            np.testing.assert_array_equal(ps.points[i], rng.spawn(2 ** 64 - 1, i).random(d))

    def test_uniform_sets_leave_numpy_random_unimported(self):
        code = ("import sys\n"
                "import numpy\n"
                "print('numpy.random' in sys.modules)\n"
                "from rankone import cli\n"
                "from rankone.dispersion import exact_dispersion, uniform_pointset\n"
                "exact_dispersion(uniform_pointset(301, 2, 5))\n"
                "cli.main(['dispersion', '--generator', 'uniform', '--n', '20', '--d', '3'])\n"
                "print('numpy.random' in sys.modules)\n")
        src = str(Path(rankone.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True, timeout=120)
        lines = out.stdout.splitlines()
        if lines[0] == "True":
            pytest.skip("this numpy imports numpy.random itself")
        assert lines[-1] == "False"

    def test_exact_dispersion_leaves_numpy_ma_unimported(self):
        # np.unique imports numpy.ma on its first call, which cost the d = 3
        # path up to 0.6 MiB of peak memory
        code = ("import sys\n"
                "import numpy\n"
                "print('numpy.ma' in sys.modules)\n"
                "from rankone.dispersion import exact_dispersion, uniform_pointset\n"
                "exact_dispersion(uniform_pointset(12, 3, 0))\n"
                "print('numpy.ma' in sys.modules)\n")
        src = str(Path(rankone.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True, timeout=120)
        lines = out.stdout.splitlines()
        if lines[0] == "True":
            pytest.skip("this numpy imports numpy.ma itself")
        assert lines[-1] == "False"

    @pytest.mark.parametrize("n, d", [(3.5, 2), (3, 2.0), (False, 2), (3, True), (None, 2)])
    def test_uniform_non_integer_counts_rejected(self, n, d):
        with pytest.raises(ParameterError):
            uniform_pointset(n, d, 0)

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

    @pytest.mark.parametrize("seed", range(40))
    def test_one_dimensional_sets_pinned(self, seed):
        # value and witness of the gap-by-gap loop, bit for bit, on sets
        # with shared coordinates, points on the walls and -0.0
        g = np.random.default_rng(seed)
        xs = g.random(int(g.integers(1, 30)))
        if seed % 2:
            xs = np.round(xs * 6) / 6
            xs[(xs == 0) & (g.random(len(xs)) < 0.5)] = -0.0
        ps = PointSet(points=xs[:, None], provenance="x")
        res = exact_dispersion(ps)
        value, lower, upper = reference_dispersion_1d(ps.points[:, 0])
        assert repr(res.value) == repr(float(value))
        assert repr(res.witness_box.lower.tolist()) == repr(lower.tolist())
        assert repr(res.witness_box.upper.tolist()) == repr(upper.tolist())
        assert_same_as_positive_zero_twin(xs[:, None])

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

    def test_slab_guard_in_3d(self):
        # (n+2)^4 <= 1e9 holds up to n = 175; the guard raises before any work
        assert (175 + 2) ** 4 <= dispersion.SLAB_GUARD < (176 + 2) ** 4
        with pytest.raises(InstanceTooLargeError):
            exact_dispersion(uniform_pointset(176, 3, seed=0))

    def test_29_points_in_3d_match_brute_force(self):
        pts = uniform_pointset(29, 3, seed=3).points
        got = exact_dispersion(PointSet(points=pts, provenance="x")).value
        assert got == pytest.approx(brute_force_dispersion(pts), rel=1e-12)

    @pytest.mark.parametrize("n, d", [(0, 2), (0, 3), (3, 1), (3, 2), (3, 3), (3, 4)])
    def test_value_is_python_float(self, n, d):
        ps = PointSet(points=np.random.default_rng(n + d).random((n, d)), provenance="x")
        assert type(exact_dispersion(ps).value) is float

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 3), st.integers(2, 9), st.integers(0, 10 ** 6))
    def test_monotone_under_point_removal(self, d, n, seed):
        pts = np.random.default_rng(seed).random((n, d))
        full = exact_dispersion(PointSet(points=pts, provenance="x")).value
        sub = exact_dispersion(PointSet(points=pts[:-1], provenance="x")).value
        assert sub >= full - 1e-12

    @pytest.mark.parametrize("d", range(1, 7))
    def test_lower_estimate_matches_per_box_loop(self, d):
        for n in (1, 4, 40, 301):
            ps = uniform_pointset(n, d, seed=n)
            for boxes, seed in ((1, 0), (2500, 3), (9000, d)):
                assert (dispersion_lower_estimate(ps, boxes=boxes, seed=seed)
                        == reference_lower_estimate(ps, boxes, seed))

    @pytest.mark.parametrize("boxes", [0, -5, 2.5, True, "3"])
    def test_lower_estimate_needs_a_box(self, boxes):
        # it once returned 0.0, a lower estimate of no box at all; a
        # float or str count raised a bare TypeError, and True ran one box
        with pytest.raises(ParameterError, match="boxes"):
            dispersion_lower_estimate(uniform_pointset(10, 2, 0), boxes=boxes)

    def test_lower_estimate_of_empty_set_is_largest_box(self):
        ps = PointSet(points=np.empty((0, 3)), provenance="x")
        assert dispersion_lower_estimate(ps, boxes=500) == reference_lower_estimate(ps, 500, 0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_lower_estimate_of_negative_zeros_is_the_twins(self, d):
        g = np.random.default_rng(d)
        pts = np.round(g.random((12, d)) * 3) / 3
        pts[(pts == 0) & (g.random(pts.shape) < 0.5)] = -0.0
        assert np.signbit(pts).any()
        estimate = [dispersion_lower_estimate(PointSet(points=p, provenance="x"),
                                              boxes=3000, seed=4) for p in (pts, pts + 0.0)]
        assert repr(estimate[0]) == repr(estimate[1])

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
        # -0.0 passes the [0, 1] check and is read as 0.0: the value and
        # witness are those of the set with 0.0 in its place
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

    @pytest.mark.parametrize("run", [2, 5, 28])
    def test_shared_x_runs_across_anchor_blocks(self, run):
        # anchor blocks at n = 301 start at 0, 27, 56, ...: runs of equal
        # x cross those boundaries, with tied y and points on the walls
        g = np.random.default_rng(run)
        xs = np.repeat(np.linspace(0.0, 1.0, -(-301 // run)), run)[:301]
        ys = np.round(g.random(301) * 12) / 12
        assert_matches_reference(np.column_stack((g.permutation(xs), ys)))

    @pytest.mark.parametrize("seed", range(20))
    def test_small_anchor_blocks(self, seed, monkeypatch):
        # a few rows per block, so that each run of equal x spans blocks
        monkeypatch.setattr(dispersion, "_BLOCK_CELLS", 40)
        g = np.random.default_rng(seed)
        pts = np.round(g.random((int(g.integers(2, 41)), 2)) * 6) / 6
        assert_matches_reference(pts)


class TestSlabsPinned:
    """The slab sweep in d = 3 and 4 against the depth-first search it
    replaced, value and witness bit for bit."""

    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("seed", range(25))
    def test_random_sets(self, d, seed):
        g = np.random.default_rng(seed)
        assert_matches_reference(g.random((int(g.integers(1, 13 if d == 3 else 9)), d)))

    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("steps", [2, 3, 4, 5, 10])
    @pytest.mark.parametrize("seed", range(4))
    def test_grid_sets(self, d, steps, seed):
        # shared coordinates, ties between boxes and points on the walls
        g = np.random.default_rng(100 * steps + seed)
        pts = g.random((int(g.integers(1, 13 if d == 3 else 9)), d))
        assert_matches_reference(np.round(pts * steps) / steps)

    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("seed", range(10))
    def test_points_on_walls(self, d, seed):
        g = np.random.default_rng(seed)
        pts = g.random((int(g.integers(1, 11 if d == 3 else 8)), d))
        on_wall = g.random(pts.shape) < 0.4
        pts[on_wall] = g.integers(0, 2, size=pts.shape)[on_wall]
        assert_matches_reference(pts)

    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("seed", range(15))
    def test_negative_zero_coordinates(self, d, seed):
        # -0.0 passes the [0, 1] check and is read as 0.0: the value and
        # witness are those of the set with 0.0 in its place
        g = np.random.default_rng(seed)
        pts = np.round(g.random((int(g.integers(1, 10 if d == 3 else 8)), d)) * 4) / 4
        zeros = pts == 0
        pts[zeros & (g.random(pts.shape) < 0.7)] = -0.0
        assert_matches_reference(pts)

    @pytest.mark.parametrize("pts", [
        [[0.5, 0.5, 0.5]],
        [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]],
        [[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)],
        [[0.5, 0.5, 0.5]] * 3,
        [[0.25, 0.25, 0.25], [0.5, 0.5, 0.5], [0.75, 0.75, 0.75]],
        [[-0.0, 0.5, 0.5], [0.5, -0.0, 0.5], [0.5, 0.5, -0.0]],
        [[0.0, 0.5, -0.0], [-0.0, 0.2, 0.0], [0.6, -0.0, 0.3]],
        [[0.5, 0.5, 0.5, 0.5], [-0.0, 0.25, 0.75, -0.0]],
        [[0.5, 0.2, 0.7], [0.5, 0.8, 0.3], [0.5, 0.4, 0.4], [0.25, 0.6, 0.1],
         [0.25, 0.1, 0.9], [0.75, 0.3, 0.6], [0.75, 0.9, 0.2]],
        [[-0.0, 0.3, 0.3], [0.0, 0.6, 0.6], [-0.0, 0.9, 0.1], [1.0, 0.5, 0.5],
         [1.0, 0.2, 0.8], [0.5, 0.5, 0.5]],
        [[0.0, 0.5, 0.5, 0.5], [-0.0, 0.2, 0.8, 0.4], [1.0, 0.7, 0.3, 0.6],
         [0.5, 0.5, 0.5, 0.5], [0.5, 0.1, 0.9, 0.3]],
    ], ids=["center", "corners", "all-corners", "repeated", "diagonal",
            "negative-zero-faces", "mixed-zeros", "4d-negative-zero",
            "runs-at-walls", "zeros-and-ones", "4d-runs"])
    def test_hand_made_sets(self, pts):
        assert_matches_reference(np.array(pts, dtype=float))

    def test_uniform_12(self):
        for seed in range(3):
            assert_matches_reference(uniform_pointset(12, 3, seed).points)

    @pytest.mark.parametrize("n, seed, value, lower, upper", [
        (60, 0, "0.1388949594416027",
         "[0.0, 0.1312009754188852, 0.0]",
         "[0.4302188975046779, 0.5640921210882232, 0.7457929942611942]"),
        (60, 1, "0.13206698587723695",
         "[0.1709982545730594, 0.5725448384282922, 0.12963699987077115]",
         "[0.9637030569153435, 0.7639626542700043, 1.0]"),
        (60, 2, "0.17035578097870077",
         "[0.0, 0.06280039878481602, 0.0]",
         "[0.9450466613289044, 0.5350635011295032, 0.3816977570551513]"),
        (100, 0, "0.10527796033008653",
         "[0.0, 0.04087042974631072, 0.0]",
         "[0.6049105239570779, 0.48650537038691277, 0.39054140745466637]"),
        (100, 1, "0.09476951539937806",
         "[0.0, 0.14830247539634833, 0.054453474141477054]",
         "[0.7515680131261133, 0.28165998248479085, 1.0]"),
        (100, 2, "0.11044747625264796",
         "[0.10332525482233945, 0.06280039878481602, 0.0]",
         "[0.9446245671730933, 0.47988181476531444, 0.31476354173987253]"),
    ])
    def test_uniform_sets_pinned(self, n, seed, value, lower, upper):
        # too large for the exhaustive reference: the values and witnesses
        # of the slab-by-slab sweep that the chunked d = 3 level replaced
        res = exact_dispersion(uniform_pointset(n, 3, seed))
        assert repr(res.value) == value
        assert repr(res.witness_box.lower.tolist()) == lower
        assert repr(res.witness_box.upper.tolist()) == upper

    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("cells", [2, 40, 160],
                             ids=["slab-per-chunk", "below-one-slab", "chunk-ends-at-stop"])
    @pytest.mark.parametrize("seed", range(10))
    def test_chunk_boundaries(self, d, cells, seed, monkeypatch):
        # a chunk of slabs ends at the cell budget or at the width stop: at
        # 2 cells no two slabs with points share a chunk; at 40 a slab of 6
        # or more points is over budget, and its anchors come in row blocks;
        # at 160 one slab of 12 points fills a chunk, while smaller slabs
        # share chunks that run into the width stop
        monkeypatch.setattr(dispersion, "_BLOCK_CELLS", cells)
        g = np.random.default_rng(seed)
        pts = g.random((int(g.integers(1, 13 if d == 3 else 9)), d))
        if seed % 2:  # shared coordinates, ties and -0.0 walls
            pts = np.round(pts * 4) / 4
            pts[(pts == 0) & (g.random(pts.shape) < 0.5)] = -0.0
        assert_matches_reference(pts)

    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("seed", range(20))
    def test_runs_of_equal_first_coordinates(self, d, seed):
        # each slab is a slice of the points sorted on axis 0, cut at the
        # walls: runs of equal coordinates sit on both sides of a wall, on
        # 0 and 1, and -0.0 is read as 0.0
        g = np.random.default_rng(seed)
        pts = g.random((int(g.integers(2, 13 if d == 3 else 9)), d))
        pts[:, 0] = g.choice([-0.0, 0.0, 0.25, 0.5, 0.75, 1.0], size=len(pts))
        if seed % 2:
            pts[:, 1:] = np.round(pts[:, 1:] * 4) / 4
        assert_matches_reference(pts)


class TestLeftWallPass:
    """Sets whose largest empty box touches the left wall, against the
    row-by-row loop, bit for bit."""

    @staticmethod
    def assert_left_wall_winner(pts):
        assert_matches_reference(pts)
        res = exact_dispersion(PointSet(points=pts, provenance="x"))
        assert res.witness_box.lower[0] == 0.0

    @pytest.mark.parametrize("seed", range(20))
    def test_points_clustered_right(self, seed):
        g = np.random.default_rng(seed)
        pts = g.random((int(g.integers(1, 61)), 2))
        pts[:, 0] = 0.5 + 0.5 * pts[:, 0]
        if seed % 2:  # shared x and y
            pts = np.round(pts * 16) / 16
        self.assert_left_wall_winner(pts)

    @pytest.mark.parametrize("pts", [
        [[0.7, 0.2], [0.7, 0.5], [0.7, 0.8], [0.9, 0.1], [0.9, 0.9], [0.95, 0.5]],
        [[0.6, y] for y in (0.1, 0.3, 0.5, 0.7, 0.9)] + [[0.8, 0.5], [1.0, 0.2]],
        [[0.0, 0.1], [0.0, 0.25], [1.0, 0.5], [1.0, 0.7], [0.8, 0.4], [0.8, 0.95]],
        [[1.0, 0.5], [0.5, -0.0], [0.0, -0.0], [1.0, 1.0]],
        [[0.3, -0.0], [0.9, 0.5]],
        [[0.2, 0.0], [0.3, -0.0], [0.9, 0.5]],
        [[0.2, -0.0], [0.3, 0.0], [0.9, 0.5]],
        # a box inside the largest one ties its volume only by rounding,
        # and the tie-break takes it: a right edge and a top one ulp lower
        [[0.3000000000000001, 0.6000000000000001], [0.9000000000000001, 0.2999999999999999],
         [0.9, 0.9], [0.6, 0.65]],
        [[0.85, 0.6], [0.85, 0.4499999999999999], [0.29999999999999993, 0.6000000000000001],
         [0.5, 0.65]],
    ], ids=["equal-x-right-edge", "equal-x-column", "walls", "right-wall-point",
            "negative-zero-below", "zeros-below", "zeros-below-flipped",
            "rounding-tie-right", "rounding-tie-top"])
    def test_hand_made_sets(self, pts):
        self.assert_left_wall_winner(np.array(pts, dtype=float))

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([4, 6, 8]),
           st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)),
                    min_size=1, max_size=40),
           st.booleans())
    def test_grid_sets(self, steps, cells, negative_zero):
        pts = np.array(cells) % (steps + 1) / steps
        if negative_zero:
            pts[pts == 0] = -0.0
        assert_matches_reference(pts)

    @staticmethod
    def left_wall(best, pts, c=1.0, lower=(), upper=()):
        order = np.argsort(pts[:, 0], kind="stable")
        xs, ys = pts[order, 0], pts[order, 1]
        dispersion._left_wall(best, ys[None], np.append(xs, 1.0)[None], (len(xs),),
                              np.array([c]), (lower,), (upper,))

    @staticmethod
    def holding(volume, lower, upper):
        best = dispersion._Best()
        best.offer(volume, lower, upper)
        return best

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("c, lower, upper", [(1.0, (), ()), (0.375, (0.25,), (0.625,))])
    def test_below_the_best_leaves_it_untouched(self, seed, c, lower, upper):
        g = np.random.default_rng(seed)
        pts = g.random((int(g.integers(1, 30)), 2))
        if seed % 2:
            pts = np.round(pts * 8) / 8
        fresh = dispersion._Best()
        self.left_wall(fresh, pts, c, lower, upper)
        vmax = fresh.volume
        assert vmax > 0 and fresh.lower[:len(lower)] == lower
        # one ulp above the pass's maximum: nothing it finds can win
        held = (np.nextafter(vmax, np.inf), (1.0,) * (len(lower) + 2),
                (1.0,) * (len(upper) + 2))
        best = self.holding(*held)
        self.left_wall(best, pts, c, lower, upper)
        assert (best.volume, best.lower, best.upper) == held
        # a tie still goes through the tie-break, so the stop is strict
        best = self.holding(vmax, *held[1:])
        self.left_wall(best, pts, c, lower, upper)
        assert (best.volume, best.lower, best.upper) == (vmax, fresh.lower, fresh.upper)
        # one ulp below, the pass's box wins outright
        best = self.holding(np.nextafter(vmax, -np.inf), (0.0,) * (len(lower) + 2),
                            (0.0,) * (len(upper) + 2))
        self.left_wall(best, pts, c, lower, upper)
        assert (best.volume, best.lower, best.upper) == (vmax, fresh.lower, fresh.upper)


def row_by_row_maximum(ys, rights, c):
    """The largest left-wall box of one slab, row by row: row j keeps the
    points before j and spans the gaps between its levels up to rights[j]."""
    best = -1.0
    for j, right in enumerate(rights):
        levels = [0.0] + sorted(ys[:j]) + [1.0]
        best = max(best, max((c * right) * (top - lo) for lo, top in zip(levels, levels[1:])))
    return best


class _AllOffers:
    """A best volume below every box, which keeps each offer."""

    volume = -1.0

    def __init__(self):
        self.offers = []

    def offer(self, volume, lower, upper):
        self.offers.append((float(volume), repr(tuple(lower)), repr(tuple(upper))))


def left_wall_batches(pts, cells, monkeypatch):
    """The padded batches that exact_dispersion hands _left_wall, with
    _BLOCK_CELLS set to cells."""
    batches, left_wall = [], dispersion._left_wall
    monkeypatch.setattr(dispersion, "_BLOCK_CELLS", cells)
    monkeypatch.setattr(dispersion, "_left_wall",
                        lambda best, *batch: (batches.append(batch), left_wall(best, *batch)))
    exact_dispersion(PointSet(points=pts, provenance="x"))
    monkeypatch.setattr(dispersion, "_left_wall", left_wall)
    return batches


def mixed_set(seed, n_max=13):
    """d = 3 sets with shared coordinates, -0.0 and points on the walls."""
    g = np.random.default_rng(seed)
    pts = g.random((int(g.integers(1, n_max)), 3))
    if seed % 4 == 1:
        pts = np.round(pts * 4) / 4
        pts[(pts == 0) & (g.random(pts.shape) < 0.5)] = -0.0
    elif seed % 4 == 2:  # every slab's points share x or y
        pts[:, 1 + seed // 4 % 2] = g.choice([-0.0, 0.5, 1.0])
    elif seed % 4 == 3:
        pts[g.random(pts.shape) < 0.3] = 1.0
    return pts


class TestLeftWallBatch:
    """_left_wall on a padded batch of slabs against the same slabs one at
    a time, and its witness search only where a maximum can win."""

    @pytest.mark.parametrize("cells", [2, 40, 160, 8192])
    @pytest.mark.parametrize("seed", range(24))
    def test_batch_is_the_slabs_one_at_a_time(self, cells, seed, monkeypatch):
        for ys, rights, sizes, cs, lowers, uppers in left_wall_batches(
                mixed_set(seed), cells, monkeypatch):
            batch, alone = _AllOffers(), _AllOffers()
            dispersion._left_wall(batch, ys, rights, sizes, cs, lowers, uppers)
            for s, k in enumerate(sizes):
                dispersion._left_wall(alone, ys[s:s + 1, :k], rights[s:s + 1, :k + 1],
                                      sizes[s:s + 1], cs[s:s + 1], lowers[s:], uppers[s:])
                # each slab's maximum, bit for bit, is the row-by-row one
                want = row_by_row_maximum(ys[s, :k], rights[s, :k + 1], cs[s])
                assert repr(batch.offers[s][0]) == repr(float(want))
            assert batch.offers == alone.offers

    @pytest.mark.parametrize("sizes", [(0,), (0, 0), (3, 0, 2), (0, 4, 4), (2, 1, 0, 3)])
    @pytest.mark.parametrize("seed", range(6))
    def test_hand_made_batches(self, sizes, seed):
        # empty slabs (m = 0 when all are), points sharing x or y and -0.0
        g, m = np.random.default_rng(seed), max(sizes)
        ys, rights = np.ones((len(sizes), m)), np.ones((len(sizes), m + 1))
        for s, k in enumerate(sizes):
            x, y = np.round(g.random((2, k)) * 3) / 3
            if (s + seed) % 3 == 0:
                x[:] = x[:1]
            elif (s + seed) % 3 == 1:
                y[:] = y[:1]
            x[x == 0], y[y == 0] = -0.0, -0.0
            order = np.argsort(x, kind="stable")
            rights[s, :k], ys[s, :k] = x[order], y[order]
        cs = np.sort(g.random(len(sizes)))[::-1]
        corners = [((float(s),), (float(s) + 1,)) for s in range(len(sizes))]
        lowers, uppers = [lo for lo, _ in corners], [hi for _, hi in corners]
        batch, alone = _AllOffers(), _AllOffers()
        dispersion._left_wall(batch, ys, rights, sizes, cs, lowers, uppers)
        for s, k in enumerate(sizes):
            dispersion._left_wall(alone, ys[s:s + 1, :k], rights[s:s + 1, :k + 1],
                                  sizes[s:s + 1], cs[s:s + 1], lowers[s:], uppers[s:])
        assert batch.offers == alone.offers
        # the twin with 0.0 has the same volumes; the corners may differ
        # in the sign of a zero here, as no PointSet stands in between
        twin = _AllOffers()
        dispersion._left_wall(twin, ys + 0.0, rights + 0.0, sizes, cs, lowers, uppers)
        assert [o[0] for o in twin.offers] == [o[0] for o in batch.offers]

    def test_witness_only_where_the_maximum_reaches_the_best(self, monkeypatch):
        witness, left_wall_pass = dispersion._wall_witness, dispersion._left_wall
        slabs, witnessed, expected = [0], [], []

        def counting_witness(best, ys, rights, c, vmax, lo, lower, upper):
            assert vmax >= best.volume
            witnessed.append((lower, upper))
            witness(best, ys, rights, c, vmax, lo, lower, upper)

        def left_wall(best, ys, rights, sizes, cs, lowers, uppers):
            # the slabs a best volume raised by each witness lets through
            volume = best.volume
            for s, k in enumerate(sizes):
                if cs[s] < volume:
                    break
                vmax = row_by_row_maximum(ys[s, :k], rights[s, :k + 1], cs[s])
                if vmax >= volume:
                    expected.append((lowers[s], uppers[s]))
                    volume = max(volume, vmax)
            slabs[0] += len(sizes)
            left_wall_pass(best, ys, rights, sizes, cs, lowers, uppers)

        monkeypatch.setattr(dispersion, "_wall_witness", counting_witness)
        monkeypatch.setattr(dispersion, "_left_wall", left_wall)
        for seed in range(20):
            assert_matches_reference(uniform_pointset(12, 3, seed).points)
        assert witnessed == expected
        # the witness search ran on far fewer slabs than the batches held
        assert 0 < len(witnessed) < slabs[0] / 10


class TestBestIgnoresOrder:
    """_Best's result on the offers of a point set, in any order, is the
    one exact_dispersion returns."""

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("seed", range(12))
    def test_shuffled_offers(self, d, seed, monkeypatch):
        offers, Best = [], dispersion._Best

        class Recording(Best):
            def offer(self, volume, lower, upper):
                offers.append((volume, tuple(lower), tuple(upper)))
                super().offer(volume, lower, upper)

        monkeypatch.setattr(dispersion, "_Best", Recording)
        want = result_repr(mixed_set(seed)[:, :d])
        g = np.random.default_rng(seed)
        for _ in range(5):
            best = Best()
            for k in g.permutation(len(offers)):
                best.offer(*offers[k])
            res = best.result()
            got = (res.value, res.witness_box.lower.tolist(), res.witness_box.upper.tolist())
            assert repr(got) == want


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
            assert disp_probability_bound(n_disp_upper(V, d), d, V) > 0.0

    def test_probability_bound_invalid(self):
        with pytest.raises(ParameterError):
            disp_probability_bound(0, 2, 0.3)

    @pytest.mark.parametrize("V", [math.nan, math.inf, -math.inf, 0.0, 1.0, -0.5, 2.0])
    def test_probability_bound_refuses_V_outside_the_unit_interval(self, V):
        # NaN read as 0.0 and inf as 1.0 before
        with pytest.raises(ParameterError):
            disp_probability_bound(100, 2, V)

    @pytest.mark.parametrize("n, d", [(100.0, 2), (100, 2.5), (True, 2), (100, True)])
    def test_probability_bound_refuses_non_integer_counts(self, n, d):
        with pytest.raises(ParameterError):
            disp_probability_bound(n, d, 0.3)

    def test_behw_reference_value(self):
        assert n_disp_upper(0.5, 2) == 301

    @pytest.mark.parametrize("V, d", [(1e-308, 5), (1e-300, 100_000)])
    def test_saturates_past_the_float_range(self, V, d):
        # math.ceil(inf) raised OverflowError
        assert n_disp_upper(V, d) == math.ceil(sys.float_info.max)

    def test_invalid(self):
        with pytest.raises(ParameterError):
            n_disp_upper(0.0, 2)

    @pytest.mark.parametrize("d", [True, False, 2.0, 0])
    def test_invalid_d(self, d):
        # a bool d read as 1 (n_disp_upper(0.3, True) was 290)
        with pytest.raises(ParameterError):
            n_disp_upper(0.3, d)
