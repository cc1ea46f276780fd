import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankone.errors import InstanceTooLargeError, ParameterError
from rankone.pipeline import triangle_factor
from rankone.tensor import RankOneTensor
from rankone.univariate import (_node_sum, block_chebyshev_nodes, interpolate_line,
                                make_bump, polynomial_factor, table_factor, trig_factor)

EPS = np.finfo(float).eps


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def reference_eval(g, t, i=0):
    """Line i at the points t by per-piece barycentric evaluation, one
    piece at a time, with the weights recomputed from each piece's nodes."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty_like(t)
    idx = np.clip(np.searchsorted(g.breakpoints, t, side="right") - 1,
                  0, g.pieces - 1)
    for j in range(g.pieces):
        sel = idx == j
        if not np.any(sel):
            continue
        nodes, values = g.nodes[j], g.values[i, j]
        diff = nodes[:, None] - nodes[None, :]
        np.fill_diagonal(diff, 1.0)
        weights = 1.0 / diff.prod(axis=1)
        diff = t[sel][:, None] - nodes[None, :]
        exact = np.isclose(diff, 0.0, atol=1e-300)
        terms = weights / np.where(exact, 1.0, diff)
        piece = (terms @ values) / terms.sum(axis=1)
        hit_rows, hit_cols = np.nonzero(exact)
        piece[hit_rows] = values[hit_cols]
        out[sel] = piece
    return out


def reference_call(g, t):
    """``PiecewisePolynomial.__call__`` as it was before it read the
    values as rows of one table: gathered with two index arrays as a
    (points, d, r) array, also when a last axis of stride 0 (one point
    for all lines, as from ``np.broadcast_to``) makes the piece lookup
    and the barycentric terms once per point."""
    t = np.asarray(t, dtype=float)
    if t.strides[-1] == 0:
        t = t[..., :1]
    j = np.clip(np.searchsorted(g.breakpoints, t, side="right") - 1,
                0, g.pieces - 1)
    values = g.values[np.arange(len(g.values)), j]
    diff = t[..., None] - g.nodes[j]
    exact = np.abs(diff) <= 1e-300
    terms = g.weights[j] / np.where(exact, 1.0, diff)
    out = _node_sum(terms * values) / _node_sum(terms)
    if exact.any():
        exact = np.broadcast_to(exact, values.shape)
        out[exact.any(axis=-1)] = values[exact]
    return out


def one_line(values, r):
    """The interpolant of one line, as a stack of d = 1 lines."""
    return interpolate_line(np.asarray(values)[None], r)


def at(g, t):
    """The single line of g at the points t, of t's shape."""
    return g(np.asarray(t, dtype=float)[..., None])[..., 0]


class TestFactors:
    def test_bounds_past_the_float_range(self):
        # r!/h^r and (2 pi k)^r once raised OverflowError, and h^r
        # underflowed to a ZeroDivisionError
        assert make_bump(150, "left").deriv_bound == math.factorial(150) / 0.5 ** 150
        for r, interval in ((151, (0.0, 1.0)), (200, (0.0, 1.0)), (2, (0.0, 1e-200))):
            with pytest.raises(InstanceTooLargeError):
                make_bump(r, "left", interval)
        with pytest.raises(ParameterError, match="degenerate"):
            make_bump(1, "left", (0.0, 5e-324))  # no float between the ends
        with pytest.raises(InstanceTooLargeError):
            trig_factor(0.3, 1e300, 0.0, 0.6, 2)
        with pytest.raises(InstanceTooLargeError):
            trig_factor(1e300, 1e10, 0.0, 0.0, 1)
        assert trig_factor(0.0, 0.0, 0.0, 0.5, 400).deriv_bound == 0.0
        with pytest.raises(InstanceTooLargeError):  # |a| + |c| was inf
            trig_factor(1e308, 0.0, 0.0, 1e308, 1)
        assert trig_factor(1e308, 0.0, 0.0, -1e307, 1).sup_bound == 1e308 + 1e307

    @pytest.mark.parametrize("coeffs, what", [
        ([0.0, 0.0, 1e308, 1e308], "the sup bound"),
        ([0.0, 1e308, -1e308, 1e308], "the bound on the 1-th derivative"),
    ], ids=["sup-bound", "derivative-bound"])
    def test_polynomial_bounds_whose_derivative_overflows(self, coeffs, what):
        # p' has coefficients past the float range, and the roots of p'
        # once raised numpy's LinAlgError; the first p has sup 2e308, the
        # second sup 1e308 (p' > 0) but p'(1) = 2e308
        with pytest.raises(InstanceTooLargeError,
                           match=f"^{what} of a polynomial factor is past the float range"):
            polynomial_factor(coeffs, 1)

    def test_critical_point_when_the_derivative_overflows(self):
        # p = c t - c t^2 peaks at c/4, t = 1/2, where p' = c - 2c t has a
        # coefficient of inf: the root is found on p scaled by 2^-e
        c = 1.6e308
        f = polynomial_factor([0.0, c, -c], 3)
        assert f.sup_bound == c / 4 and f.deriv_bound == 0.0

    def test_trig_bound_of_a_negative_frequency(self):
        # (2 pi k)^r was negative at k < 0 and odd r
        for r in (1, 2, 3):
            assert (trig_factor(0.3, -2.0, 0.1, 0.5, r).deriv_bound
                    == trig_factor(0.3, 2.0, 0.1, 0.5, r).deriv_bound > 0)

    def test_bump_left(self):
        f = make_bump(3, "left")
        assert float(f(0.0)) == pytest.approx(1.0)
        ts = np.linspace(0.5, 1.0, 101)
        assert np.all(f(ts) == 0.0)
        assert f.deriv_bound == pytest.approx(2 ** 3 * math.factorial(3))
        ts = np.linspace(0.0, 1.0, 1001)  # nonzero exactly on [0, 1/2)
        assert np.array_equal(f(ts) != 0.0, ts < 0.5)

    def test_bump_is_extremal(self):
        # the one-sided bump has r zeros on [1/2, 1] and attains the
        # sup-norm bound M (b-a)^r / r! at the left end of [0, 1/2]
        for r in range(1, 5):
            f = make_bump(r, "left")
            M = f.deriv_bound
            assert float(f(0.0)) == pytest.approx(M * 0.5 ** r / math.factorial(r))

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    @pytest.mark.parametrize("orientation, interval", [("left", (0.0, 0.5)),
                                                       ("right", (0.2, 1.0))])
    def test_support_measure_inequality_is_tight_for_bumps(self, r, orientation, interval):
        # a g with sup|g| >= eps and |g^(r)| <= M is nonzero on a set of
        # measure at least (r! eps / M)^(1/r); a bump meets it with equality
        f = make_bump(r, orientation, interval)
        ts = np.linspace(0.0, 1.0, 8001)
        vals = f(ts)
        measure = np.count_nonzero(vals) / (len(ts) - 1)
        bound = (math.factorial(r) * float(np.max(np.abs(vals))) / f.deriv_bound) ** (1 / r)
        assert bound == pytest.approx(0.5 * (interval[1] - interval[0]))
        assert measure >= bound - 2 / (len(ts) - 1)

    @pytest.mark.parametrize("sa, sc", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    def test_trig_sup_bound_of_any_sign(self, sa, sc):
        # the sup bound is |a| + |c| whatever the signs, and it is refused
        # past the float range whatever the signs
        f = trig_factor(sa * 0.3, 2.0, 0.1, sc * 0.5, 2)
        assert f.sup_bound == 0.8
        ts = np.linspace(0.0, 1.0, 1001)
        assert np.max(np.abs(f(ts))) <= f.sup_bound
        with pytest.raises(InstanceTooLargeError, match="sup bound"):
            trig_factor(sa * 1e308, 0.0, 0.0, sc * 1e308, 1)

    def test_bump_right(self):
        f = make_bump(2, "right")
        assert float(f(1.0)) == pytest.approx(1.0)
        assert np.all(f(np.linspace(0.0, 0.5, 101)) == 0.0)

    def test_bump_general_interval(self):
        ts = np.linspace(0.0, 1.0, 1001)
        for r in (1, 3):
            f = make_bump(r, "left", (0.0, 0.5))
            assert np.array_equal(f(ts) != 0.0, ts < 0.25)
            assert float(f(0.0)) == 1.0
            assert float(f(0.25)) == 0.0 and float(f(0.6)) == 0.0
            assert f.deriv_bound == pytest.approx(math.factorial(r) / 0.25 ** r)
            g = make_bump(r, "right", (0.5, 1.0))
            assert np.array_equal(g(ts) != 0.0, ts > 0.75) and float(g(1.0)) == 1.0

    @pytest.mark.parametrize("orientation, interval", [
        ("left", (0.33, 0.93)), ("left", (0.25, 1.0)), ("right", (0.0, 0.9))])
    def test_bump_peak_inside_the_cube_refused(self, orientation, interval):
        # the bump would jump from 0 to 1 at its peak end, so no r-th
        # derivative bound holds, yet it would declare r!/h^r
        with pytest.raises(ParameterError, match="peak end"):
            make_bump(2, orientation, interval)

    def test_bump_invalid(self):
        with pytest.raises(ParameterError):
            make_bump(0, "left")
        with pytest.raises(ParameterError):
            make_bump(1, "middle")
        with pytest.raises(ParameterError):
            make_bump(1, "left", (0.5, 0.5))

    def test_scaled(self):
        f = make_bump(2, "left").scaled(-0.5)
        assert float(f(0.0)) == pytest.approx(-0.5)
        assert f.sup_bound == pytest.approx(0.5)
        assert f.deriv_bound == pytest.approx(0.5 * 8)

    def test_polynomial_exact_deriv_bound(self):
        # p(t) = t^3: p'' = 6t, sup on [0,1] is 6
        f = polynomial_factor([0, 0, 0, 1], 2)
        assert f.deriv_bound == pytest.approx(6.0)
        assert f.sup_bound == pytest.approx(1.0)

    def test_polynomial_interior_max(self):
        # p(t) = t(1-t): sup 0.25 at t=1/2
        f = polynomial_factor([0, 1, -1], 1)
        assert f.sup_bound == pytest.approx(0.25)

    def test_trig_bounds(self):
        f = trig_factor(0.3, 2.0, 0.1, 0.5, 3)
        assert f.sup_bound == pytest.approx(0.8)
        assert f.deriv_bound == pytest.approx(0.3 * (4 * np.pi) ** 3)
        ts = np.linspace(0, 1, 7)
        np.testing.assert_allclose(f(ts), 0.3 * np.sin(4 * np.pi * ts + 0.1) + 0.5)

    @pytest.mark.parametrize("r", range(1, 7))
    def test_closed_forms_match_their_formulas_bitwise(self, r):
        # each kind's kernel against the expression it is written for
        gen = np.random.default_rng(r)
        t = np.concatenate([gen.random(400), [0.0, -0.0, 1.0, 0.5, 0.25, 0.75, 0.1, 0.35]])

        def same(a, b):
            return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))

        c = gen.uniform(-1.0, 1.0, r + 1)
        assert same(polynomial_factor(c, r)(t), np.polynomial.Polynomial(c)(t))
        a, k, phi, off = 0.3 * gen.random(), 1.0 + r, 6.0 * gen.random(), 0.6
        assert same(trig_factor(a, k, phi, off, r)(t),
                    a * np.sin(2 * np.pi * k * t + phi) + off)
        assert same(trig_factor(a, k, phi, off, r).scaled(-0.5)(t),
                    -0.5 * (a * np.sin(2 * np.pi * k * t + phi) + off))
        assert same(polynomial_factor(c, r)(t[7]), np.polynomial.Polynomial(c)(t[7]))

    def test_scaled_twice_scales_in_turn(self):
        # by powers of two, whose products with the coefficients are exact
        f = polynomial_factor([0.3, 0.7], 1)
        t = np.linspace(0.0, 1.0, 11)
        np.testing.assert_array_equal(f.scaled(4.0).scaled(-0.125)(t), -0.125 * (4.0 * f(t)))
        assert f.scaled(4.0).scaled(-0.125).deriv_bound == pytest.approx(0.5 * 0.7)

    def test_table(self):
        f = table_factor([0, 0.5, 1], [0, 1, 0], 1.0, 2.0, 1)
        assert float(f(0.25)) == pytest.approx(0.5)
        assert float(f(0.5)) == pytest.approx(1.0)


def closure_bump(r, orientation, interval):
    """make_bump's value as two numpy closures computed it before bumps
    had a kernel: the reference for the kernel's bits."""
    a, b = float(interval[0]), float(interval[1])
    m = 0.5 * (a + b)
    h = m - a
    if orientation == "left":
        def fn(t, a=a, m=m, h=h, r=r):
            t = np.asarray(t, dtype=float)
            return np.where((t >= a) & (t < m), np.maximum(0.0, (m - t) / h) ** r, 0.0)
    else:
        def fn(t, b=b, m=m, h=h, r=r):
            t = np.asarray(t, dtype=float)
            return np.where((t > m) & (t <= b), np.maximum(0.0, (t - m) / h) ** r, 0.0)
    return fn


def near(*points):
    """Each point with its two float neighbours."""
    p = np.array(points, dtype=float)
    return np.concatenate([p, np.nextafter(p, -np.inf), np.nextafter(p, np.inf)])


# the bumps that make_bump accepts on the intervals (0, 1), (0, 0.4), (0.3, 1)
BUMPS = [("left", (0.0, 1.0)), ("left", (0.0, 0.4)),
         ("right", (0.0, 1.0)), ("right", (0.3, 1.0))]


class TestKernels:
    """Each closed form against the numpy expression it replaced, byte for
    byte, signed zeros included."""

    @staticmethod
    def points(*special):
        gen = np.random.default_rng(len(special))
        return np.concatenate([near(0.0, 1.0, *special), gen.random(300),
                               [-0.0, -0.5, 1.5, -np.inf, np.inf]])

    @pytest.mark.parametrize("r", range(1, 7))
    def test_bump_is_its_closure(self, r):
        fs, refs, cols = [], [], []
        for orientation, (a, b) in BUMPS:
            m = 0.5 * (a + b)
            t = self.points(a, m, b)
            for c in (1.0, -1.0, 0.0):  # the amplitudes the fooling family uses
                f = make_bump(r, orientation, (a, b))
                want = c * closure_bump(r, orientation, (a, b))(t)
                got = f(t) if c == 1.0 else f.scaled(c)(t)
                assert got.tobytes() == want.tobytes(), (orientation, a, b, c)
                fs.append(f.scaled(c))
                refs.append(want)
                cols.append(t)
        # all of them at once, as one kernel group of a tensor
        tensor = RankOneTensor(factors=tuple(fs), r=r, M=1e12)
        assert len(tensor._groups) == 1
        got = tensor.factor_values(np.stack(cols, axis=1))
        assert got.tobytes() == np.stack(refs, axis=1).tobytes()

    @pytest.mark.parametrize("r", [1, 3])
    def test_bump_at_nan_is_zero(self, r):
        for orientation, interval in BUMPS:
            assert make_bump(r, orientation, interval)(np.nan) == 0.0

    @pytest.mark.parametrize("lo, hi, peak", [
        (-0.2, 0.5, 1.0), (0.6, 1.3, 1.0), (-0.5, 1.5, 0.7), (0.25, 0.75, 0.8),
        (-0.3, 0.1, 1.0), (0.99, 1.01, 0.5)])
    def test_triangle_table_is_interp(self, lo, hi, peak):
        f = triangle_factor(lo, hi, peak, 1)
        n = len(f.params) // 2
        xs, ys = np.array(f.params[:n]), np.array(f.params[n:])
        t = self.points(lo, 0.5 * (lo + hi), hi)
        assert f(t).tobytes() == np.interp(t, xs, ys).tobytes()
        for c in (-1.0, 0.0):
            assert f.scaled(c)(t).tobytes() == np.interp(t, xs, c * ys).tobytes()

    @pytest.mark.parametrize("xs, ys", [
        ([0.3], [0.7]),  # one breakpoint
        ([0.0, 0.5, 0.5, 1.0], [0.0, 1.0, 0.2, -0.0]),  # a jump at a repeated one
        ([0.0, 1.0], [-0.0, -0.0]),
        ([0.1, 0.2, 0.4, 0.7, 0.9, 0.95], [0.5, -0.25, 0.0, 1.0, 0.125, -1.0]),
    ])
    def test_table_is_interp(self, xs, ys):
        f = table_factor(xs, ys, 1.0, 10.0, 1)
        t = self.points(*xs)
        assert f(t).tobytes() == np.interp(t, xs, ys).tobytes()
        assert np.isnan(f(np.nan)) == np.isnan(np.interp(np.nan, xs, ys))

    @pytest.mark.parametrize("ts, vals", [([], []), ([0.0, 1.0], [1.0]),
                                          ([0.5, 0.2], [1.0, 0.0])])
    def test_bad_table_refused(self, ts, vals):
        with pytest.raises(ParameterError, match="table"):
            table_factor(ts, vals, 1.0, 1.0, 1)

    @pytest.mark.parametrize("c", [2.0 ** -3, 2.0 ** 5, -1.0, 0.0])
    def test_scaled_is_c_times_the_factor(self, c):
        t = self.points(0.25, 0.5)[:-2]  # finite: at t = inf, 0 f(t) is NaN
        for f in (polynomial_factor([0.3, -0.6, 0.2], 2), trig_factor(0.3, 2.0, 0.1, -0.5, 2),
                  make_bump(2, "right", (0.3, 1.0)), triangle_factor(-0.1, 0.6, 0.9, 2),
                  table_factor([0.0, 0.4, 1.0], [0.2, -0.7, 0.6], 1.0, 4.0, 2)):
            g = f.scaled(c)
            assert np.array_equal(g(t), c * f(t)), (f.kind, c)
            assert (g.sup_bound, g.deriv_bound) == (abs(c) * f.sup_bound,
                                                    abs(c) * f.deriv_bound)


class TestInterpolateLine:
    def test_reproduces_low_degree_polynomials(self):
        for r in range(1, 6):
            nodes = block_chebyshev_nodes(4 * r, r)
            coeffs = np.arange(1, r + 1, dtype=float)
            p = np.polynomial.Polynomial(coeffs)
            g = one_line(p(nodes), r)
            ts = np.linspace(0, 1, 501)
            np.testing.assert_allclose(at(g, ts), p(ts), atol=1e-10)

    def test_node_hit_exact(self):
        nodes = block_chebyshev_nodes(6, 3)
        vals = np.sin(nodes)
        g = one_line(vals, 3)
        for t, v in zip(nodes, vals):
            assert at(g, t) == pytest.approx(v, abs=1e-14)

    def test_node_count_not_a_multiple_of_r_refused(self):
        # recover samples whole blocks of r nodes; 7 values at r = 3 are not
        vals = np.arange(7.0)
        with pytest.raises(ParameterError, match="multiple of r=3"):
            one_line(vals, 3)
        assert one_line(vals[:6], 3).pieces == 2

    @pytest.mark.parametrize("r, k", [(1, 3), (3, 5), (6, 40), (9, 555)])
    def test_weights_scaled_by_one_power_of_two(self, r, k):
        # the stored weights are 1/prod (x_i - x_l) times one power of two,
        # which cancels: the unscaled weights give the same bits
        g = one_line(np.sin(7 * block_chebyshev_nodes(k * r, r)), r)
        diff = g.nodes[:, :, None] - g.nodes[:, None, :] + np.eye(r)
        plain = 1.0 / diff.prod(axis=-1)
        np.testing.assert_array_equal(g.weights, np.ldexp(plain, (k.bit_length() + 1) * (1 - r)))
        ts = np.random.default_rng(r).random(1000)
        want = at(g, ts)
        g.weights = plain
        assert np.array_equal(bits(at(g, ts)), bits(want))

    def test_dense_layout(self):
        # the nodes, weights and breakpoints follow from the values' shape
        ts = block_chebyshev_nodes(9, 3)
        vals = np.vstack((np.sin(ts), np.cos(ts)))
        g = interpolate_line(vals, 3)
        assert g.nodes.shape == g.weights.shape == (3, 3)
        assert g.values.shape == (2, 3, 3)
        np.testing.assert_array_equal(g.nodes, ts.reshape(3, 3))
        np.testing.assert_array_equal(g.values, [np.sin(g.nodes), np.cos(g.nodes)])
        np.testing.assert_array_equal(
            g.breakpoints, [0.0, 0.5 * (ts[2] + ts[3]), 0.5 * (ts[5] + ts[6]), 1.0])
        t = np.linspace(0, 1, 101)
        out = g(np.column_stack((t, t)))
        for i in range(2):
            loop = reference_eval(g, t, i)
            assert np.max(np.abs(out[:, i] - loop)) <= 24 * EPS * np.max(np.abs(loop))

    @pytest.mark.parametrize("r", range(1, 7))
    def test_dense_evaluation_matches_piecewise_loop(self, r):
        # the d-line call, each line at its own points, against the
        # per-piece reference one line at a time
        gen = np.random.default_rng(r)
        for k in range(1, 41):
            nodes = block_chebyshev_nodes(k * r, r)
            vals = gen.standard_normal((3, nodes.size))
            g = interpolate_line(vals, r)
            t = np.concatenate([gen.random(200), nodes, [0.0, 1.0]])
            T = np.column_stack((t, t[::-1], gen.permutation(t)))
            dense = g(T)
            for i in range(3):
                loop = reference_eval(g, T[:, i], i)
                if r == 1:
                    np.testing.assert_array_equal(dense[:, i], loop)
                else:
                    assert (np.max(np.abs(dense[:, i] - loop))
                            <= 8 * r * EPS * np.max(np.abs(vals[i])))
            np.testing.assert_array_equal(g(np.tile(nodes[:, None], 3)).T, vals)
            assert g(np.full(3, nodes[-1]))[2] == vals[2, -1]

    def test_breakpoints_cover_unit_interval(self):
        ts = block_chebyshev_nodes(8, 2)
        g = one_line(np.cos(ts), 2)
        assert g.breakpoints[0] == 0.0
        assert g.breakpoints[-1] == 1.0
        assert np.all(np.diff(g.breakpoints) > 0)

    def test_errors(self):
        with pytest.raises(ParameterError):
            one_line([1.0], 2)
        with pytest.raises(ParameterError):
            one_line([1.0, 2.0, 3.0], 2)
        with pytest.raises(ParameterError):
            interpolate_line(np.ones((2, 0)), 1)
        with pytest.raises(ParameterError):
            interpolate_line(np.ones((2, 2)), 0)
        with pytest.raises(ParameterError):
            interpolate_line([1.0, 2.0], 1)
        with pytest.raises(ParameterError):
            interpolate_line(np.ones((2, 2, 2)), 1)

    def test_points_without_a_line_axis_refused(self):
        # t must have the d lines as its last axis: a scalar would read
        # line 0 alone and a (5, 3) array would not broadcast against 4 lines
        lines = interpolate_line(np.ones((4, 6)), 3)
        for t in (0.3, np.full((5, 3), 0.3), np.full(3, 0.3)):
            with pytest.raises(ParameterError, match="last axis of 4"):
                lines(t)
        np.testing.assert_array_equal(lines(np.broadcast_to(0.3, (5, 4))), np.ones((5, 4)))

    @pytest.mark.parametrize("r", range(1, 7))
    def test_shared_layout_matches_single_lines(self, r):
        # d lines at the same nodes share one layout; evaluating them
        # together, t[..., i] on line i, is bit for bit each line alone
        gen = np.random.default_rng(10 + r)
        nodes = block_chebyshev_nodes(7 * r, r)
        vals = gen.standard_normal((4, nodes.size))
        lines = interpolate_line(vals, r)
        assert lines.values.shape == (4, 7, r)
        T = np.vstack([gen.random((300, 4)), np.tile(nodes[:, None], 4),
                       [[0.0, 1.0, 0.5, nodes[0]]]])
        out = lines(T)
        assert out.shape == T.shape
        for i in range(4):
            single = one_line(vals[i], r)
            np.testing.assert_array_equal(lines.values[i], single.values[0])
            np.testing.assert_array_equal(out[:, i], at(single, T[:, i]))
        np.testing.assert_array_equal(lines(T[0]), out[0])

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6, 9])
    def test_shared_points_match_reference_call_bitwise(self, r):
        # a broadcast (T, d) grid, one point for all lines, gives the bits
        # of the reference and of the same grid with a real last axis,
        # exact node hits included
        gen = np.random.default_rng(20 + r)
        for d, k in itertools.product((1, 3, 37), (1, 2, 9)):
            nodes = block_chebyshev_nodes(k * r, r)
            lines = interpolate_line(gen.standard_normal((d, nodes.size)), r)
            for ts in (np.linspace(0.0, 1.0, 801), np.linspace(0.0, 1.0, 2),
                       np.linspace(0.0, 1.0, 3), np.concatenate([gen.random(50), nodes]),
                       nodes[::-1]):
                T = np.broadcast_to(ts[:, None], (len(ts), d))
                out = lines(T)
                assert out.shape == (len(ts), d)
                np.testing.assert_array_equal(bits(out), bits(reference_call(lines, T)))
                np.testing.assert_array_equal(bits(out), bits(lines(np.ascontiguousarray(T))))
            T = np.broadcast_to(nodes[:, None], (nodes.size, d))
            np.testing.assert_array_equal(lines(T).T, lines.values.reshape(d, -1))
            np.testing.assert_array_equal(lines(np.broadcast_to(0.3, (d,))), lines(np.full(d, 0.3)))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 5), st.integers(0, 1000))
    def test_interpolation_error_within_class_bound(self, r, blocks, seed):
        # error of blockwise interpolation of a smooth function is within
        # the per-block bound M (width)^r / r!
        gen = np.random.default_rng(seed)
        a = 0.3 * gen.random()
        f = lambda t: a * np.sin(2 * np.pi * t)
        M = a * (2 * np.pi) ** r
        m = blocks * r
        nodes = block_chebyshev_nodes(m, r)
        g = one_line(f(nodes), r)
        ts = np.linspace(0, 1, 2001)
        err = np.max(np.abs(at(g, ts) - f(ts)))
        assert err <= M * (1.0 / blocks) ** r / math.factorial(r) + 1e-12


class TestBlockChebyshevNodes:
    def test_count_and_range(self):
        nodes = block_chebyshev_nodes(17, 5)
        assert len(nodes) == 15  # 3 blocks of 5
        assert np.all((nodes > 0) & (nodes < 1))
        assert np.all(np.diff(nodes) > 0)

    def test_single_block_symmetry(self):
        nodes = block_chebyshev_nodes(4, 4)
        np.testing.assert_allclose(nodes + nodes[::-1], 1.0)

    def test_too_few(self):
        with pytest.raises(ParameterError):
            block_chebyshev_nodes(2, 3)

    def test_matches_per_block_loop_bitwise(self):
        # the one broadcast expression gives the bits of the loop that
        # built each block's nodes in turn
        def loop(m, r):
            k = m // r
            ref = -np.cos((2 * np.arange(r) + 1) * np.pi / (2 * r))
            out = []
            for j in range(k):
                lo, hi = j / k, (j + 1) / k
                out.append(0.5 * (lo + hi) + 0.5 * (hi - lo) * ref)
            return np.concatenate(out)

        for r in range(1, 12):
            for m in itertools.chain(range(r, 200), (997, 1000, 2999, 3000)):
                np.testing.assert_array_equal(bits(block_chebyshev_nodes(m, r)),
                                              bits(loop(m, r)))
