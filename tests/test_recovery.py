import itertools
import math
import tracemalloc

import numpy as np
import pytest

from rankone import recovery, rng
from rankone.errors import (BudgetExhaustedError, BudgetTooSmallError,
                            InstanceTooLargeError, NonzeroCenterError, ParameterError)
from rankone.pipeline import family_shifted_smooth, family_trig_smooth
from rankone.recovery import RecoveryConfig, min_budget, recover, required_n2
from rankone.search import plan
from rankone.tensor import (QueryOracle, RankOneTensor, check_membership,
                            sup_distance_bound)
from rankone.univariate import (block_chebyshev_nodes, interpolate_line, make_bump,
                                polynomial_factor, trig_factor)


def poly_tensor(d, r, coeffs):
    return RankOneTensor(
        factors=tuple(polynomial_factor(coeffs, r) for _ in range(d)),
        r=r, M=10.0)


def line_error(k, r, M):
    """Remainder bound e_k of one line interpolated on k blocks of r
    Chebyshev nodes, for an r-th derivative bounded by M."""
    return 2.0 * M * (1.0 / (4 * k)) ** r / math.factorial(r)


def product_error(k, r, M, d):
    """(1 + e_k)^d - 1: the telescoped error of d such lines."""
    return math.expm1(d * math.log1p(line_error(k, r, M)))


class TestBudgetFormulas:
    def test_required_n2_value(self):
        # d=3, r=2, M=1, eps=0.01: each line may err by 1.01^(1/3) - 1 =
        # 3.322e-3, so 4k >= sqrt(2 / (2! 3.322e-3)) = 17.35 and k = 5
        assert required_n2(3, 2, 1.0, 0.01) == 1 + 3 * 2 * 5

    def test_required_n2_floor_at_two_nodes(self):
        # tiny M: one block per line, but at least 2 nodes, so r=1 gets 2
        assert required_n2(4, 1, 1e-9, 0.5) == 1 + 4 * 2
        assert required_n2(4, 3, 1e-9, 0.5) == 1 + 4 * 3

    def test_required_n2_invalid(self):
        with pytest.raises(ParameterError):
            required_n2(0, 1, 1.0, 0.1)
        with pytest.raises(ParameterError):
            required_n2(2, 1, 1.0, 0.0)

    def test_min_budget(self):
        assert min_budget(3, 1) == 7   # 1 + 3 * 2
        assert min_budget(3, 5) == 16  # 1 + 3 * 5

    def test_k_is_minimal(self):
        # n2 = 1 + d r k with the least k (at least ceil(2/r)) whose bound
        # (1 + e_k)^d - 1 is <= eps; k may sit a relative 1e-12 short of
        # its real value, so that ties such as r=1, M=10, eps=0.5, d=1
        # (k = 10 exactly) do not round up
        for r, M, eps, d in itertools.product(
                range(1, 8), [0.01, 0.5, 1.5, 2.0, 10.0, 1e4], [0.5, 0.2, 0.1, 1e-3],
                [1, 2, 3, 10, 100, 1000]):
            n2 = required_n2(d, r, M, eps)
            k, rest = divmod(n2 - 1, d * r)
            assert rest == 0
            assert product_error(k, r, M, d) <= eps * (1 + 1e-11)
            assert k == -(-2 // r) or product_error(k - 1, r, M, d) > eps
        assert required_n2(1, 1, 10.0, 0.5) == 1 + 10

    def test_budget_past_float_range(self):
        # M / eps = 1e608: n2 near e^1404 is refused, not an OverflowError
        with pytest.raises(InstanceTooLargeError):
            required_n2(10, 1, 1e308, 1e-300)
        # 2 M passes the float range, but k = 1.6e42 does not
        assert required_n2(1, 7, 1e308, 0.5) < 1e44

    def test_budget_when_the_line_allowance_underflows(self):
        # log1p(eps) / d = 1e-330 underflows; the logs still give
        # k = ceil((2 M d / (r! eps))^(1/r) / 4), far inside the float range
        d, r, eps = 10 ** 30, 7, 1e-300
        k = (required_n2(d, r, 1.0, eps) - 1) // (d * r)
        log_k = (math.log(2 * d / math.factorial(r)) - math.log(eps)) / r - math.log(4)
        assert k == pytest.approx(math.exp(log_k), rel=1e-12)


class TestRecoveryConfig:
    def test_invalid(self):
        with pytest.raises(ParameterError):
            RecoveryConfig(r=0, budget_n2=10)
        with pytest.raises(ParameterError):
            RecoveryConfig(r=1, budget_n2=0)


class TestRecover:
    def test_exact_on_low_degree_polynomials(self):
        # factors of degree <= r-1 are reproduced to rounding error
        for r in (2, 3, 4):
            t = poly_tensor(3, r, [0.4] + [0.1] * (r - 1))
            o = QueryOracle(t)
            ap = recover(o, np.full(3, 0.3), RecoveryConfig(r=r, budget_n2=40))
            up, _ = sup_distance_bound(t, ap.line_interpolants, ap.center_value,
                                       grid=1001, samples=500)
            assert up <= 1e-8

    def test_query_budget_respected(self):
        t = poly_tensor(4, 2, [0.5, 0.2])
        o = QueryOracle(t, budget=29)
        recover(o, np.full(4, 0.5), RecoveryConfig(r=2, budget_n2=29))
        assert o.query_count <= 29

    def test_node_at_center_reuses_center_value(self):
        # m = 9 nodes per line, three blocks of 3: the middle node of the
        # middle block is 0.5 = z*_i on every axis, so each line needs 8
        # fresh queries and z* itself is queried once
        t = poly_tensor(4, 3, [0.5, 0.2, 0.1])
        o = QueryOracle(t, log=True)
        z = np.full(4, 0.5)
        ap = recover(o, z, RecoveryConfig(r=3, budget_n2=37))
        assert np.count_nonzero(ap.line_interpolants.nodes == 0.5) == 1
        assert o.query_count == 33
        queries = np.array(o.query_log)
        assert np.all(queries == z, axis=1).sum() == 1
        # after the center, each query moves one coordinate, in axis order
        moved = np.argmax(queries[1:] != z, axis=1)
        assert np.array_equal(moved, np.repeat(np.arange(4), 8))
        assert np.all(ap.line_interpolants(np.full(4, 0.5)) == ap.center_value)
        assert ap(z) == pytest.approx(t.value(z), rel=1e-12)

    def test_center_value_stored(self):
        t = poly_tensor(2, 1, [0.5, 0.2])
        o = QueryOracle(t)
        z = np.array([0.2, 0.8])
        ap = recover(o, z, RecoveryConfig(r=1, budget_n2=9))
        assert ap.center_value == pytest.approx(t.value(z))

    def test_approximant_matches_target_at_center(self):
        t = poly_tensor(3, 2, [0.6, 0.3])
        o = QueryOracle(t)
        z = np.full(3, 0.45)
        ap = recover(o, z, RecoveryConfig(r=2, budget_n2=31))
        assert ap(z) == pytest.approx(t.value(z), rel=1e-10)

    def test_budget_too_small(self):
        t = poly_tensor(3, 3, [0.5])
        o = QueryOracle(t)
        with pytest.raises(BudgetTooSmallError):
            recover(o, np.full(3, 0.5), RecoveryConfig(r=3, budget_n2=9))

    def test_zero_center_rejected(self):
        f = make_bump(1, "left")
        t = RankOneTensor(factors=(f, f), r=1, M=2.0)
        o = QueryOracle(t)
        with pytest.raises(NonzeroCenterError):
            recover(o, np.full(2, 0.9), RecoveryConfig(r=1, budget_n2=9))

    def test_bad_z_shape(self):
        t = poly_tensor(3, 1, [0.5])
        o = QueryOracle(t)
        with pytest.raises(ParameterError):
            recover(o, np.array([0.5, 0.5]), RecoveryConfig(r=1, budget_n2=10))

    def test_batch_and_scalar_evaluation_agree(self):
        t = poly_tensor(3, 2, [0.5, 0.3])
        o = QueryOracle(t)
        ap = recover(o, np.full(3, 0.4), RecoveryConfig(r=2, budget_n2=25))
        X = np.random.default_rng(0).random((10, 3))
        vb = ap(X)
        assert vb.shape == (10,)
        for row, v in zip(X, vb):
            assert ap(row) == v

    @pytest.mark.parametrize("r", range(1, 6))
    @pytest.mark.parametrize("d", [1, 2, 5, 10])
    def test_matches_power_rescaled_product(self, d, r):
        # the normalized product f(z*) prod_i (g_i / f(z*)) against the
        # earlier formula f(z*)^-(d-1) prod_i g_i(x_i)
        gen = np.random.default_rng(100 * d + r)
        t = RankOneTensor(
            factors=tuple(trig_factor(0.2, 1.0, 6.0 * gen.random(), 0.7, r)
                          for _ in range(d)), r=r, M=0.2 * (2 * np.pi) ** r)
        z = gen.random(d)
        ap = recover(QueryOracle(t), z, RecoveryConfig(r=r, budget_n2=1 + 4 * r * d))
        X = np.vstack([gen.random((200, d)), z])
        ref = ap.center_value ** -(d - 1) * np.prod(ap.line_interpolants(X), axis=1)
        np.testing.assert_allclose(ap(X), ref, rtol=1e-12, atol=0)

    def test_tiny_center_value_at_large_d(self):
        # f(z*) = 1e-3 at d = 150: f(z*)^-(d-1) = 1e447 is beyond the float
        # range, while A and f are not
        d = 150
        a = 1e-3 ** (1.0 / d)
        t = poly_tensor(d, 2, [a - 0.05, 0.1])  # f_i(0.5) = a, f(z*) = 1e-3
        z = np.full(d, 0.5)
        ap = recover(QueryOracle(t), z, RecoveryConfig(r=2, budget_n2=1 + 4 * d))
        assert ap.center_value == pytest.approx(1e-3, rel=1e-12)
        X = np.random.default_rng(1).random((50, d))
        vals = ap(X)
        assert np.all(np.isfinite(vals))
        np.testing.assert_allclose(vals, t.value_batch(X), rtol=1e-11, atol=0)
        assert ap(z) == pytest.approx(ap.center_value, rel=1e-12)
        up, lo = sup_distance_bound(t, ap.line_interpolants, ap.center_value,
                                    grid=201, samples=200)
        assert 0.0 <= lo <= up <= 1e-12

    def test_error_contract_on_smooth_family(self):
        # the remainder bound the planner uses: one line on k blocks of r
        # Chebyshev nodes errs by at most e_k, for every k and r
        ts = np.linspace(0.0, 1.0, 4001)
        for r, k in itertools.product(range(1, 8), (1, 2, 5, 20)):
            f = trig_factor(0.2, 1.0, 0.7 * r, 0.75, r)
            nodes = block_chebyshev_nodes(r * k, r)
            g = interpolate_line(f(nodes)[None], r)
            err = np.max(np.abs(g(ts[:, None])[:, 0] - f(ts)))
            assert err <= line_error(k, r, f.deriv_bound)

    @pytest.mark.parametrize("family", ["shifted_smooth", "trig_smooth"])
    @pytest.mark.parametrize("r", range(1, 8))
    def test_planned_budget_meets_eps(self, family, r):
        # at plan's n2 the certified upper, the remainder bound the planner
        # solves for plus the rounding allowance, is at most eps, for
        # factors at or near the class bound M
        if family == "shifted_smooth":
            make, M = family_shifted_smooth, 0.1 * math.factorial(r)
        else:
            make, M = family_trig_smooth, 0.2 * (2 * np.pi) ** r
        for (d, eps), seed in itertools.product(((3, 0.01), (10, 0.1), (100, 0.1)),
                                                range(3)):
            gen = rng.spawn(seed, r, d)
            t = make(d, r, M, gen)
            assert check_membership(t)
            n2 = plan(r, M, d, eps).n2
            ap = recover(QueryOracle(t, budget=n2), gen.random(d),
                         RecoveryConfig(r=r, budget_n2=n2))
            up, lo = sup_distance_bound(t, ap.line_interpolants, ap.center_value,
                                        grid=801, samples=500, seed=seed)
            assert 0.0 <= lo <= up <= eps

    def test_planned_budget_is_spent(self):
        # plan's n2 is whole blocks: recover queries all of it when no
        # node equals a coordinate of z*
        for r, M, eps, d in itertools.product(range(1, 8), (0.5, 10.0), (0.1, 0.01),
                                              (1, 3, 20)):
            n2 = plan(r, M, d, eps).n2
            t = poly_tensor(d, r, [0.9, -0.1])
            o = QueryOracle(t, budget=n2)
            z = np.random.default_rng(r * d).random(d)
            assert not np.any(block_chebyshev_nodes((n2 - 1) // d, r) == z[:, None])
            recover(o, z, RecoveryConfig(r=r, budget_n2=n2))
            assert o.query_count == n2


def reference_recover(oracle, z, cfg):
    """recover as it was before blocking: all d lines as one (d, m, d)
    query array, charged in one batch."""
    d = oracle.d
    center = oracle.evaluate(z)
    nodes = block_chebyshev_nodes((cfg.budget_n2 - 1) // d, cfg.r)
    axes = np.arange(d)
    points = np.tile(z, (d, len(nodes), 1))
    points[axes, :, axes] = nodes
    reuse = nodes == z[:, None]
    vals = np.full(reuse.shape, center)
    vals[~reuse] = oracle.evaluate_batch(points[~reuse])
    return interpolate_line(vals, cfg.r)


class TestBlockedLines:
    """recover queries its lines a slab at a time: same queries, in the
    same order, and the same values as the one-piece construction."""

    @pytest.mark.parametrize("block_cells", [None, 1, 500])
    @pytest.mark.parametrize("d", [1, 3, 37])
    def test_matches_unblocked_construction(self, d, block_cells, monkeypatch):
        if block_cells is not None:  # one line per slab, or a few
            monkeypatch.setattr(recovery, "_GRID_CELLS", block_cells)
        for r in (1, 3, 5):
            t = family_shifted_smooth(d, r, 10.0, np.random.default_rng(d + r))
            z = np.random.default_rng(r).random(d)
            z[::2] = 0.5  # a middle node: those lines reuse f(z*)
            cfg = RecoveryConfig(r=r, budget_n2=1 + d * 3 * r + d - 1)
            got, want = QueryOracle(t, log=True), QueryOracle(t, log=True)
            ap = recover(got, z, cfg)
            ref = reference_recover(want, z, cfg)
            assert got.query_count == want.query_count < 1 + d * 3 * r
            assert np.array_equal(ap.line_interpolants.values, ref.values)
            assert np.array_equal(got.query_log, want.query_log)

    def test_budget_checked_before_any_line_query(self, monkeypatch):
        monkeypatch.setattr(recovery, "_GRID_CELLS", 1)
        t = poly_tensor(4, 2, [0.5, 0.2])
        o = QueryOracle(t, budget=20)  # the center and 19 of 24 line queries
        with pytest.raises(BudgetExhaustedError):
            recover(o, np.full(4, 0.3), RecoveryConfig(r=2, budget_n2=25))
        assert o.query_count == 1

    def test_memory_at_d_1000(self):
        # n2 = 10,001 is plan's budget at d = 1000 for r=5, M=10, eps=0.1;
        # the one-piece (d, m, d) array and its masked copy were 170 MB
        d, r = 1000, 5
        t = family_shifted_smooth(d, r, 10.0, np.random.default_rng(0))
        o = QueryOracle(t)
        tracemalloc.start()
        try:
            recover(o, np.full(d, 0.3), RecoveryConfig(r=r, budget_n2=10_001))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert o.query_count == 10_001
        assert peak <= 40_000_000


class TestSmallCenterStability:
    def test_amplification_cancels(self):
        # a tiny f(z*) must not blow up the reconstruction error
        t = poly_tensor(6, 2, [0.05, 0.02])  # f(z*) ~ 1e-8 at d=6
        o = QueryOracle(t)
        ap = recover(o, np.full(6, 0.5), RecoveryConfig(r=2, budget_n2=61))
        up, _ = sup_distance_bound(t, ap.line_interpolants, ap.center_value,
                                   grid=1001, samples=500)
        assert up <= 1e-8
