import itertools
import math
import sys
import tracemalloc
import numpy as np
import pytest

from rankone import rng
from rankone.errors import BudgetExhaustedError, DomainError, InstanceTooLargeError
from rankone.pipeline import FAMILIES, ExperimentConfig, family_shifted_smooth
from rankone.recovery import RecoveryConfig, recover
from rankone.search import plan
from rankone.tensor import (Box, QueryOracle, RankOneTensor, check_membership,
                            sup_distance_bound, sup_norm)
from rankone.univariate import (PiecewisePolynomial, block_chebyshev_nodes,
                                interpolate_line, make_bump, polynomial_factor,
                                table_factor, trig_factor)


def product_tensor(d=3, r=2):
    return RankOneTensor(
        factors=tuple(polynomial_factor([0.5, 0.4], r) for _ in range(d)),
        r=r, M=2.0)


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def per_factor_product(t, X):
    """The product taken one factor call at a time, in factor order."""
    out = np.ones(len(X))
    for i, f in enumerate(t.factors):
        out *= f(X[:, i])
    return out


def mixed_tensor(r=3):
    """Every factor kind, closed forms interleaved with tables, some scaled."""
    gen = np.random.default_rng(r)
    fs = []
    for i in range(12):
        kind = i % 6
        if kind == 0:
            f = polynomial_factor(np.r_[0.6, np.zeros(r)] + gen.uniform(-0.3, 0.3, r + 1), r)
        elif kind == 1:
            f = trig_factor(0.2 * gen.random(), 1.0 + i, 6 * gen.random(), 0.7, r)
        elif kind == 2:
            w = 0.3 + 0.3 * gen.random()  # a bump peaks at an end of the cube
            f = (make_bump(r, "left", (0.0, w)) if i % 4
                 else make_bump(r, "right", (1.0 - w, 1.0)))
        elif kind == 3:
            f = table_factor([0, 0.3, 1], [0.4, 1.0, 0.5], 1.0, 2.0, r)
        elif kind == 4:
            f = polynomial_factor([0.9, -0.1], r)  # a second polynomial degree
        else:
            f = polynomial_factor([0.75], r)
        if i in (2, 7, 8):
            f = f.scaled(-0.5)
        fs.append(f)
    fs.append(fs[0].scaled(2.0).scaled(-0.25))  # a scaled scaled factor
    return RankOneTensor(factors=tuple(fs), r=r, M=1e6)


def reference_upper(t, k):
    """The upper end written out term by term: sum_i e_i prod_{j<i}
    (s_j + e_j) prod_{j>i} s_j with e_i = deriv_bound_i 2 (1/(4k))^r / r!,
    plus the rounding allowance 8 d (r + 1) 2^-53 prod_j (s_j + e_j)."""
    d, r = t.d, t.r
    e = [f.deriv_bound * 2.0 * (1.0 / (4 * k)) ** r / math.factorial(r) for f in t.factors]
    s = [f.sup_bound for f in t.factors]
    upper = sum(e[i] * math.prod(s[j] + e[j] for j in range(i)) * math.prod(s[i + 1:])
                for i in range(d))
    return upper + 8 * d * (r + 1) * 2.0 ** -53 * math.prod(a + b for a, b in zip(s, e))


def line(lines, i):
    """Line i of the stacked interpolant ``lines`` alone, as a function of t."""
    one = PiecewisePolynomial(lines.values[i:i + 1])
    return lambda t: one(np.asarray(t, dtype=float)[..., None])[..., 0]


def reference_sampled_lower(t, lines, scale, samples, seed):
    """The sampled lower end as the bracket first had it: one (samples, d)
    draw, one call per factor and per line."""
    d = t.d
    X = rng.spawn(seed, 0x5D).random((samples, d))
    av = np.ones(samples)
    for i in range(d):
        av *= line(lines, i)(X[:, i]) / scale
    return float(np.max(np.abs(per_factor_product(t, X) - scale * av)))


def reference_lower(t, lines, scale, grid, samples, seed):
    """The lower end one factor and one line at a time: the scan of the d
    axis lines through the grid argmax y of the |f_i| with the products
    over the other axes formed in a loop, then the best scan point and
    the samples evaluated as real points."""
    d = t.d
    ts = np.linspace(0.0, 1.0, grid)
    F = [np.asarray(f(ts), dtype=float) for f in t.factors]
    G = [line(lines, i)(ts) / scale for i in range(d)]
    y = [int(np.argmax(np.abs(row))) for row in F]

    def others(rows, i):  # prod_{j<i} from the left times prod_{j>i} from the right
        before = after = 1.0
        for j in range(i):
            before *= rows[j][y[j]]
        for j in range(d - 1, i, -1):
            after *= rows[j][y[j]]
        return before * after

    best, x = -1.0, None
    for i in range(d):
        gap = np.abs(F[i] * others(F, i) - G[i] * (others(G, i) * scale))
        j = int(np.argmax(gap))
        if gap[j] > best:
            best, x = gap[j], ts[y]
            x[i] = ts[j]
    av = scale * np.prod([line(lines, i)(x[i]) / scale for i in range(d)])
    at_x = abs(float(per_factor_product(t, x[None])[0]) - av)
    return max(at_x, reference_sampled_lower(t, lines, scale, samples, seed))


def nonzero_midpoint(f, default):
    """Midpoint of the grid points where f != 0, or ``default`` if f has
    no zero on the grid: a point where a factor with a support is nonzero."""
    ts = np.linspace(0.0, 1.0, 4001)
    nz = ts[f(ts) != 0.0]
    return default if nz.size == ts.size else 0.5 * (nz[0] + nz[-1])


class TestBox:
    def test_volume(self):
        b = Box(lower=np.array([0.0, 0.25]), upper=np.array([0.5, 0.75]))
        assert b.volume == pytest.approx(0.25)

    def test_invalid(self):
        with pytest.raises(DomainError):
            Box(lower=np.array([0.5]), upper=np.array([0.2]))
        with pytest.raises(DomainError):
            Box(lower=np.array([-0.1]), upper=np.array([0.5]))

    @pytest.mark.parametrize("lower, upper", [([np.nan, 0.1], [0.5, 0.5]),
                                              ([0.1, 0.1], [0.5, np.nan])])
    def test_nan_corner_refused(self, lower, upper):
        # every comparison with NaN is false, so a test for the outside let it in
        with pytest.raises(DomainError):
            Box(lower=np.array(lower), upper=np.array(upper))

    def test_corners_are_copied(self):
        # a box once kept the caller's arrays: lo[0] = -3.0 after the check
        # gave a volume of 1.4
        lo, hi = np.array([0.1, 0.2]), np.array([0.5, 0.9])
        b = Box(lower=lo, upper=hi)
        lo[0], hi[1] = -3.0, 0.3
        assert b.lower.tolist() == [0.1, 0.2] and b.upper.tolist() == [0.5, 0.9]
        assert b.volume == pytest.approx(0.28)

    def test_corners_are_read_only(self):
        # a write through b.lower once got past the check: lower[0] = -3.0
        # gave a volume of 1.95
        b = Box(lower=np.array([0.5, 0.25]), upper=np.array([0.9, 0.75]))
        for corner in (b.lower, b.upper):
            with pytest.raises(ValueError, match="read-only"):
                corner[0] = -3.0
        assert b.volume == pytest.approx(0.2)


class TestRankOneTensor:
    def test_value_is_product(self):
        t = product_tensor()
        x = np.array([0.1, 0.5, 0.9])
        expected = np.prod([0.5 + 0.4 * xi for xi in x])
        assert t.value(x) == pytest.approx(expected)

    def test_value_batch_matches_pointwise(self):
        for family, d in itertools.product(sorted(FAMILIES), (1, 4, 10)):
            t = ExperimentConfig(r=3, M=10.0, d=d, eps=0.1, family=family).make_tensor(0)
            X = np.random.default_rng(d).random((50, d))
            vb = t.value_batch(X)
            for row, v in zip(X, vb):
                assert t.value(row) == v, (family, d)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("r", [1, 3, 6])
    def test_grouped_value_batch_is_the_per_factor_product(self, family, r):
        for d in (1, 4, 10, 37):
            t = ExperimentConfig(r=r, M=10.0, d=d, eps=0.1, family=family).make_tensor(d)
            X = np.random.default_rng(d).random((700, d))
            X[:3] = [[0.0] * d, [1.0] * d, [0.5] * d]
            assert np.array_equal(bits(t.value_batch(X)), bits(per_factor_product(t, X)))

    @pytest.mark.parametrize("r", [1, 2, 3, 5])
    def test_grouped_value_batch_on_mixed_kinds(self, r):
        t = mixed_tensor(r)
        X = np.random.default_rng(r).random((500, t.d))
        X[:4] = [[0.0] * t.d, [1.0] * t.d, [0.5] * t.d, [-0.0] * t.d]
        want = per_factor_product(t, X)
        assert np.array_equal(bits(t.value_batch(X)), bits(want))
        assert t.value(X[5]) == want[5]

    @pytest.mark.parametrize("sign", [1, -1, 0])
    def test_value_batch_on_bumps_is_the_per_factor_product(self, sign):
        # the fooling family's members, and its zero member
        for r in (1, 2, 4):
            fs = [make_bump(r, "right" if i % 3 else "left") for i in range(10)]
            fs[0] = fs[0].scaled(float(sign))
            t = RankOneTensor(factors=tuple(fs), r=r, M=1.0)
            X = np.random.default_rng(r).random((257, 10))
            X[:2] = [[0.5] * 10, [1.0] * 10]
            assert np.array_equal(bits(t.value_batch(X)), bits(per_factor_product(t, X)))

    def test_mismatched_r_rejected(self):
        with pytest.raises(DomainError):
            RankOneTensor(factors=(polynomial_factor([1.0], 1),
                                   polynomial_factor([1.0], 2)), r=1, M=1.0)

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            RankOneTensor(factors=(), r=1, M=1.0)

    @pytest.mark.parametrize("offsets, ok", [
        ([1e200, 1e-200, 1e200], True),   # every partial product in range
        ([1e200, 1e200, 1e-200], False),  # 1e400 before the small factor
        ([0.0, 1e200, 1e200], True),      # 0 from the first factor on
        ([1e200, 1e200, 0.0], False),     # inf * 0 would be NaN
    ])
    def test_partial_products_of_sup_bounds_in_range(self, offsets, ok):
        factors = tuple(trig_factor(0.0, 0.0, 0.0, c, 1) for c in offsets)
        if not ok:
            with pytest.raises(InstanceTooLargeError, match="product of the factors"):
                RankOneTensor(factors=factors, r=1, M=1.0)
            return
        t = RankOneTensor(factors=factors, r=1, M=1.0)
        assert math.isfinite(t.value(np.full(3, 0.5)))


class TestQueryOracle:
    def test_counts_every_query(self):
        o = QueryOracle(product_tensor())
        o.evaluate(np.array([0.1, 0.2, 0.3]))
        o.evaluate_batch(np.random.default_rng(1).random((7, 3)))
        assert o.query_count == 8

    def test_budget_enforced_exactly(self):
        o = QueryOracle(product_tensor(), budget=3)
        o.evaluate_batch(np.full((3, 3), 0.5))
        with pytest.raises(BudgetExhaustedError):
            o.evaluate(np.full(3, 0.5))
        # a failed call does not consume budget
        assert o.query_count == 3

    def test_batch_overrun_rejected_before_any_charge(self):
        o = QueryOracle(product_tensor(), budget=5)
        with pytest.raises(BudgetExhaustedError):
            o.evaluate_batch(np.full((6, 3), 0.5))
        assert o.query_count == 0

    def test_domain_checks(self):
        o = QueryOracle(product_tensor())
        with pytest.raises(DomainError):
            o.evaluate(np.array([0.1, 0.2]))
        with pytest.raises(DomainError):
            o.evaluate(np.array([0.1, 0.2, 1.3]))
        with pytest.raises(DomainError):
            o.evaluate_batch(np.array([[0.1, -0.2, 0.3]]))

    def test_nan_refused_before_any_charge(self):
        # a NaN point once passed the cube check, answered nan and was charged
        o = QueryOracle(product_tensor(), budget=3, log=True)
        with pytest.raises(DomainError):
            o.evaluate(np.array([np.nan, 0.5, 0.5]))
        with pytest.raises(DomainError):
            o.evaluate_batch(np.array([[0.1, 0.2, 0.3], [0.5, np.nan, 0.5]]))
        assert o.query_count == 0 and o.query_log == []
        assert len(o.evaluate_batch(np.empty((0, 3)))) == 0

    def test_log_off_by_default(self):
        o = QueryOracle(product_tensor())
        o.evaluate(np.array([0.2, 0.4, 0.6]))
        o.evaluate_batch(np.full((2, 3), 0.5))
        assert o.query_log is None and o.query_count == 3

    def test_refused_query_not_logged(self):
        o = QueryOracle(product_tensor(), budget=2, log=True)
        o.evaluate(np.array([0.2, 0.4, 0.6]))
        with pytest.raises(BudgetExhaustedError):
            o.evaluate_batch(np.full((2, 3), 0.5))
        o.evaluate(np.array([0.1, 0.1, 0.1]))
        with pytest.raises(BudgetExhaustedError):
            o.evaluate(np.array([0.3, 0.3, 0.3]))
        np.testing.assert_array_equal(o.query_log, [[0.2, 0.4, 0.6], [0.1, 0.1, 0.1]])

    def test_log_holds_the_queried_rows(self):
        # one copy of each queried point, in order, and nothing else: the
        # values were once logged beside them, and no code read them
        o = QueryOracle(product_tensor(), log=True)
        x = np.array([0.2, 0.4, 0.6])
        X = np.array([[0.1, 0.5, 0.9], [0.3, 0.3, 0.3]])
        o.evaluate(x)
        o.evaluate_batch(X)
        x[:] = X[:] = 0.0  # the log keeps copies, not the caller's arrays
        assert len(o.query_log) == o.query_count == 3
        assert all(type(q) is np.ndarray and q.shape == (3,) for q in o.query_log)
        np.testing.assert_array_equal(o.query_log, [[0.2, 0.4, 0.6], [0.1, 0.5, 0.9],
                                                    [0.3, 0.3, 0.3]])


class TestSupNorm:
    def test_factorizes(self):
        t = product_tensor(d=5)
        assert sup_norm(t) == pytest.approx(0.9 ** 5)

    def test_sign_insensitive(self):
        f = polynomial_factor([0.5, 0.4], 1).scaled(-1.0)
        t = RankOneTensor(factors=(f, f), r=1, M=2.0)
        assert sup_norm(t) == pytest.approx(0.81)


class TestMembership:
    def test_plain_class_pass(self):
        t = product_tensor()
        assert check_membership(t, "F").ok

    def test_sup_violation(self):
        f = polynomial_factor([1.5], 1)
        t = RankOneTensor(factors=(f,), r=1, M=1.0)
        res = check_membership(t, "F")
        assert not res.ok and "sup bound" in res.failures[0]

    def test_deriv_violation(self):
        f = trig_factor(0.5, 3.0, 0.0, 0.5, 2)
        t = RankOneTensor(factors=(f,), r=2, M=1.0)
        res = check_membership(t, "F")
        assert not res.ok and "derivative bound" in res.failures[0]

    def test_support_class(self):
        f = make_bump(1, "left")
        box = Box(lower=np.array([0.1, 0.1]), upper=np.array([0.4, 0.4]))
        t = RankOneTensor(factors=(f, f), r=1, M=2.0,
                          support_volume=0.05, witness_box=box)
        assert check_membership(t, "FV").ok

    def test_support_class_vanishing_witness(self):
        f = make_bump(1, "left")
        box = Box(lower=np.array([0.1]), upper=np.array([0.9]))
        t = RankOneTensor(factors=(f,), r=1, M=2.0,
                          support_volume=0.5, witness_box=box)
        res = check_membership(t, "FV")
        assert not res.ok and any("vanishes" in m for m in res.failures)

    def test_support_class_missing_declaration(self):
        t = product_tensor()
        assert not check_membership(t, "FV").ok


class TestSupDistanceBound:
    def _recover(self, t, budget):
        o = QueryOracle(t)
        return recover(o, np.full(t.d, 0.37),
                       RecoveryConfig(r=t.r, budget_n2=budget))

    def test_bracket_orders(self):
        t = RankOneTensor(
            factors=tuple(trig_factor(0.2, 1.0, 0.3 * i, 0.7, 2)
                          for i in range(3)),
            r=2, M=0.2 * (2 * np.pi) ** 2)
        ap = self._recover(t, 40)
        up, lo = sup_distance_bound(t, ap.line_interpolants, ap.center_value,
                                    grid=2001, samples=2000)
        assert 0 <= lo <= up

    def test_exact_approximant_gives_tiny_bracket(self):
        t = product_tensor()
        ap = self._recover(t, 30)
        up, lo = sup_distance_bound(t, ap.line_interpolants, ap.center_value,
                                    grid=1001, samples=1000)
        assert up < 1e-10 and lo < 1e-10

    def test_lower_bound_is_certified(self):
        # A with its scale doubled is not recover's approximant: its lower
        # end (sup|f| at x = (1, 1, 1)) exceeds the certified upper, and the
        # bracket is refused rather than returned inverted
        t = product_tensor()
        ap = self._recover(t, 30)
        with pytest.raises(DomainError, match="inverted"):
            sup_distance_bound(t, ap.line_interpolants, ap.center_value * 2,
                               grid=1001, samples=1000)

    @pytest.mark.parametrize("d", [1, 2, 5, 8])
    def test_upper_matches_power_form_telescoping_sum(self, d):
        # the upper end against the telescoping sum written out term by
        # term, each product formed on its own; factors with max|f_i| < 1
        # and a remainder that is not negligible, so that the order of the
        # products matters
        gen = np.random.default_rng(d)
        t = RankOneTensor(
            factors=tuple(trig_factor(0.2, 1.0, 6.0 * gen.random(), 0.7, 1)
                          for _ in range(d)), r=1, M=0.2 * 2 * np.pi)
        ap = self._recover(t, 1 + 6 * d)
        up, _ = sup_distance_bound(t, ap.line_interpolants, ap.center_value,
                                   grid=501, samples=10)
        assert ap.line_interpolants.pieces == 6
        assert up == pytest.approx(reference_upper(t, 6), rel=1e-14)

    def test_sign_flipped_line_keeps_bracket(self):
        # A with one line negated is -A: the true sup distance 2 sup|f|,
        # reached at x = (1, 1, 1), is far above the certified upper, so
        # the bracket is refused rather than returned inverted
        t = product_tensor()
        ap = self._recover(t, 30)
        values = ap.line_interpolants.values.copy()
        values[0] *= -1
        flipped = PiecewisePolynomial(values)
        with pytest.raises(DomainError, match="inverted"):
            sup_distance_bound(t, flipped, ap.center_value, grid=1001, samples=1000)

    @pytest.mark.parametrize("d", [1, 2, 5, 10, 37])
    def test_matches_reference_bitwise(self, d):
        # grid and samples are not multiples of any block's row count; the
        # grids of 2 and 3 points hold only 0, 1/2 and 1; a z* on the node
        # grid (on each axis whose factor is nonzero at the nearest node)
        # makes that node's value the reused f(z*).  The table families
        # are refused from r = 2.
        hits = 0
        for k, family in enumerate(sorted(FAMILIES)):
            r = 1 + (d + k) % 4
            t = ExperimentConfig(r=r, M=10.0, d=d, eps=0.1, family=family).make_tensor(k)
            z = np.random.default_rng(d).random(d)
            if t.value(z) == 0.0:  # support families: start from a nonzero
                z = np.array([nonzero_midpoint(f, 0.5) for f in t.factors])
            nodes = block_chebyshev_nodes(7 * r, r)
            near = nodes[np.argmin(np.abs(nodes - z[:, None]), axis=1)]
            on_nodes = np.array([x if f(x) != 0.0 else zi
                                 for f, x, zi in zip(t.factors, near, z)])
            hits += int(np.sum(on_nodes == near))
            for center in (z, on_nodes):
                ap = recover(QueryOracle(t), center,
                             RecoveryConfig(r=r, budget_n2=1 + 7 * r * d))
                for grid in (1003, 2, 3):
                    args = (t, ap.line_interpolants, ap.center_value, grid, 2501, d + k)
                    if r >= 2 and family in ("box_support", "offcenter_triangle"):
                        with pytest.raises(DomainError, match="piecewise-linear table"):
                            sup_distance_bound(*args)
                        continue
                    up, lo = sup_distance_bound(*args)
                    assert up == pytest.approx(reference_upper(t, 7), rel=1e-14)
                    assert lo == reference_lower(*args)
                    assert reference_sampled_lower(t, *args[1:3], 2501, d + k) <= lo <= up
        assert hits >= 2 * d

    def test_mixed_kinds_match_reference_bitwise(self):
        t = mixed_tensor(1)
        z = np.array([nonzero_midpoint(f, 0.37) for f in t.factors])
        ap = recover(QueryOracle(t), z, RecoveryConfig(r=1, budget_n2=1 + 9 * t.d))
        args = (t, ap.line_interpolants, ap.center_value, 777, 1500, 5)
        up, lo = sup_distance_bound(*args)
        assert up == pytest.approx(reference_upper(t, 9), rel=1e-14)
        assert lo == reference_lower(*args)

    def test_tables_refused_from_r_2(self):
        # a piecewise-linear table has no bounded r-th derivative at r >= 2,
        # whatever bound it declares; its lower end once reached 388 times
        # the upper (box_support, r = 3)
        t = mixed_tensor(3)
        z = np.array([nonzero_midpoint(f, 0.37) for f in t.factors])
        ap = recover(QueryOracle(t), z, RecoveryConfig(r=3, budget_n2=1 + 9 * t.d))
        with pytest.raises(DomainError, match="factor 3: a piecewise-linear table.*factor 9"):
            sup_distance_bound(t, ap.line_interpolants, ap.center_value, 777, 1500, 5)
        assert [m.split(":")[0] for m in check_membership(t).failures
                if "table" in m] == ["factor 3", "factor 9"]

    def test_tiny_factor_scales_the_bracket_exactly(self):
        # with its first factor scaled by 2^-560, f, every line and f(z*)
        # scale by 2^-560 exactly, and so do both ends of the bracket
        for r, seed in itertools.product((1, 3, 5), range(3)):
            t = family_shifted_smooth(3, r, 10.0, np.random.default_rng(seed))
            tiny = RankOneTensor(factors=(t.factors[0].scaled(2.0 ** -560),) + t.factors[1:],
                                 r=t.r, M=t.M)
            z = np.array([0.3, 0.6, 0.8])
            brackets = []
            for u in (t, tiny):
                ap = recover(QueryOracle(u), z, RecoveryConfig(r=r, budget_n2=1 + 90 * r))
                brackets.append(sup_distance_bound(u, ap.line_interpolants,
                                                   ap.center_value, grid=2001,
                                                   samples=5000, seed=1))
            (up, lo), (tiny_up, tiny_lo) = brackets
            assert (math.ldexp(tiny_up, 560), math.ldexp(tiny_lo, 560)) == (up, lo)

    @pytest.mark.parametrize("family", ["shifted_smooth", "trig_smooth"])
    def test_lower_never_exceeds_upper(self, family):
        # at the planned n2 for eps = 0.1, with at most 16 blocks per line
        # (trig_smooth plans 1,054,801 queries at r = 1, d = 400); on
        # shifted_smooth the lower end attains the upper in exact
        # arithmetic, at the origin, so only the rounding allowance keeps
        # it below
        for r, d in itertools.product(range(1, 10), (1, 3, 10, 100, 400)):
            if family == "shifted_smooth":
                make, M = family_shifted_smooth, max(0.1 * math.factorial(r), 0.2)
            else:
                make, M = FAMILIES[family], 0.2 * (2 * np.pi) ** r
            gen = rng.spawn(r, d)
            t = make(d, r, M, gen)
            k = min((plan(r, M, d, 0.1).n2 - 1) // (d * r), 16)
            ap = recover(QueryOracle(t), gen.random(d),
                         RecoveryConfig(r=r, budget_n2=1 + d * r * k))
            up, lo = sup_distance_bound(t, ap.line_interpolants, ap.center_value,
                                        grid=201, samples=20, seed=d)
            assert 0.0 <= lo <= up

    def test_bound_past_the_float_range(self):
        # two nodes per line at r = 1 and a steep factor: (s + e)^300 =
        # 12.2^300 is past the float range, and no finite bound holds
        t = RankOneTensor(factors=tuple(trig_factor(0.9, 8.0, 0.0, 0.0, 1)
                                        for _ in range(300)), r=1, M=50.0)
        ap = recover(QueryOracle(t), np.full(300, 0.03),
                     RecoveryConfig(r=1, budget_n2=1 + 300 * 2))
        with pytest.raises(InstanceTooLargeError):
            sup_distance_bound(t, ap.line_interpolants, ap.center_value, 101, 10)

    @pytest.mark.parametrize("c, refused", [(1e-150, True), (1e-100, False)])
    def test_upper_end_below_the_normal_range(self, c, refused):
        # f = c^2 is interpolated exactly, and the upper end is the rounding
        # allowance 32 * 2^-53 c^2 alone: at c = 1e-150 it is subnormal, with
        # few significant bits, and is refused; at 1e-100 it is a normal float
        t = RankOneTensor(factors=(polynomial_factor([c], 1),) * 2, r=1, M=1.0)
        ap = self._recover(t, 5)
        if refused:
            with pytest.raises(InstanceTooLargeError, match="outside the normal float range"):
                sup_distance_bound(t, ap.line_interpolants, ap.center_value, 101, 10)
        else:
            up, lo = sup_distance_bound(t, ap.line_interpolants, ap.center_value, 101, 10)
            assert sys.float_info.min <= up < 1e-210 and 0.0 <= lo <= up

    def test_lines_off_recovers_layout_rejected(self):
        # the remainder bound is for blocks of r = t.r nodes: lines of
        # another r are refused
        t = product_tensor()
        for r in (1, 3):
            lines = interpolate_line(np.ones((3, 6)), r)
            with pytest.raises(DomainError, match=f"r = 2 nodes per piece, got 3 lines of {r}"):
                sup_distance_bound(t, lines, 1.0)

    def test_dimension_mismatch(self):
        t = product_tensor()
        lines = self._recover(t, 30).line_interpolants
        with pytest.raises(DomainError, match="need 3 approximant lines .*, got 2 lines"):
            sup_distance_bound(t, PiecewisePolynomial(lines.values[:2]), 1.0)
        with pytest.raises(DomainError):
            sup_distance_bound(t, lines, 0.0)


def traced_peak(fn, *args, **kwargs) -> int:
    """Peak bytes allocated while fn runs, above what was held before."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBoundedMemory:
    """Blocks of rows keep the temporaries small: the peak does not grow
    with the number of sample points or rows."""

    def test_bracket_memory_does_not_grow_with_samples(self):
        d, r = 1000, 5
        t = family_shifted_smooth(d, r, 10.0, np.random.default_rng(0))
        nodes = block_chebyshev_nodes(5, r)
        lines = interpolate_line(np.array([f(nodes) for f in t.factors]), r)
        peaks = [traced_peak(sup_distance_bound, t, lines, 1.0, grid=801,
                             samples=n, seed=1) for n in (2_000, 20_000)]
        # (samples, d) is 16 MB and 160 MB; the grid's (d, grid) arrays
        # are 6.4 MB each
        assert peaks[1] <= peaks[0] + 1_000_000
        assert peaks[0] < 30_000_000

    def test_bracket_grid_memory_is_bounded_at_high_r(self):
        # from r = 8 the lines' (d, columns, r) temporaries hold r values
        # per grid cell; in blocks of 2^18 grid cells they would be 19 MB each
        d, r = 1000, 9
        t = family_shifted_smooth(d, r, 10.0, np.random.default_rng(0))
        nodes = block_chebyshev_nodes(r, r)
        lines = interpolate_line(np.array([f(nodes) for f in t.factors]), r)
        assert traced_peak(sup_distance_bound, t, lines, 1.0, grid=801,
                           samples=2_000, seed=1) < 30_000_000

    def test_value_batch_memory_grows_only_with_its_output(self):
        d = 100
        t = family_shifted_smooth(d, 3, 10.0, np.random.default_rng(1))
        X = np.random.default_rng(2).random((10_000, d))
        peaks = [traced_peak(t.value_batch, X[:n]) for n in (1_000, 10_000)]
        # the output grows by 72 kB; (rows, d) temporaries would add 7.2 MB each
        assert peaks[1] <= peaks[0] + 2 * 8 * 9_000
