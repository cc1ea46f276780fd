import itertools
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankone.cli import main
from rankone.dispersion import halton, uniform_pointset
from rankone.errors import ParameterError
from rankone.search import (SubsetSearchParams, plan, search_deterministic,
                            search_subset, search_uniform_multi,
                            search_uniform_single, subset_success_bound)
from rankone.tensor import QueryOracle, RankOneTensor
from rankone.univariate import constant_factor, make_bump, polynomial_factor


def const_tensor(d, c=1.0, r=1):
    return RankOneTensor(factors=tuple(constant_factor(c, r) for _ in range(d)),
                         r=r, M=1.0)


class TestSubsetSearchParams:
    def test_delta_star_value(self):
        # r=1, M=1.9: (1/4 + 1/(2*1.9)) - 1/2
        p = SubsetSearchParams.from_problem(1, 1.9, 0.2)
        assert p.delta_star == pytest.approx(0.25 + 0.5 / 1.9 - 0.5)

    def test_alpha_reference_value(self):
        p = SubsetSearchParams.from_problem(1, 1.0, math.exp(-1))
        assert p.alpha == pytest.approx(5.0)

    def test_d_star_at_least_one(self):
        p = SubsetSearchParams.from_problem(2, 1.0, 0.9)
        assert p.d_star >= 1

    def test_d_star_below_alpha(self):
        for (r, M, eps) in [(1, 1.9, 0.2), (2, 3.0, 0.1), (3, 40.0, 0.01)]:
            p = SubsetSearchParams.from_problem(r, M, eps)
            assert 1 <= p.d_star <= p.alpha

    def test_delta_star_positive_iff_in_range(self):
        p = SubsetSearchParams.from_problem(2, 7.9, 0.3)
        assert p.delta_star > 0

    def test_rejects_m_out_of_range(self):
        with pytest.raises(ParameterError):
            SubsetSearchParams.from_problem(1, 2.0, 0.2)  # M = 2^1 1!
        with pytest.raises(ParameterError):
            SubsetSearchParams.from_problem(1, 0.0, 0.2)
        with pytest.raises(ParameterError):
            SubsetSearchParams.from_problem(1, 1.0, 1.0)


class TestUniformSearch:
    def test_single_finds_nonzero_constant(self):
        o = QueryOracle(const_tensor(3))
        out = search_uniform_single(o, seed=0)
        assert out.found and out.value == 1.0 and o.query_count == 1

    def test_single_on_zero_function(self):
        o = QueryOracle(const_tensor(3, c=0.0))
        out = search_uniform_single(o, seed=0)
        assert not out.found and o.query_count == 1

    def test_multi_stops_on_first_hit(self):
        o = QueryOracle(const_tensor(2))
        out = search_uniform_multi(o, n1=100, seed=0)
        assert out.found and out.iterations == 1 and o.query_count == 1

    def test_multi_exhausts_budget_on_zero(self):
        o = QueryOracle(const_tensor(2, c=0.0))
        out = search_uniform_multi(o, n1=37, seed=0)
        assert not out.found and o.query_count == 37 and out.iterations == 37

    def test_multi_outcome_independent_of_found_position(self):
        # draws come from one stream: the i-th candidate depends only on
        # the seed, so a second identical run reproduces the same z*
        f = make_bump(1, "left")
        t = RankOneTensor(factors=(f, f, f), r=1, M=2.0)
        outs = [search_uniform_multi(QueryOracle(t), n1=200, seed=42)
                for _ in range(2)]
        assert outs[0].found
        np.testing.assert_array_equal(outs[0].z_star, outs[1].z_star)
        assert outs[0].iterations == outs[1].iterations

    def test_invalid_n1(self):
        with pytest.raises(ParameterError):
            search_uniform_multi(QueryOracle(const_tensor(2)), n1=0, seed=0)


class TestSubsetSearch:
    def test_finds_nonzero_on_constant(self):
        params = SubsetSearchParams.from_problem(1, 1.9, 0.2)
        o = QueryOracle(const_tensor(8))
        out = search_subset(o, params, n1=10, seed=0)
        assert out.found and o.query_count == 1

    def test_off_subset_coordinates_near_center(self):
        params = SubsetSearchParams.from_problem(1, 1.9, 0.2)
        d = 100  # d > d_star so some coordinates are squeezed
        assert params.d_star < d
        o = QueryOracle(const_tensor(d), log=True)
        search_subset(o, params, n1=1, seed=3)
        [(x, _)] = o.query_log
        delta = params.delta_star
        near = np.abs(x - 0.5) <= delta + 1e-12
        assert near.sum() >= d - params.d_star

    def test_clamps_when_d_below_d_star(self):
        params = SubsetSearchParams.from_problem(1, 1.9, 0.2)
        assert params.d_star > 8
        o = QueryOracle(const_tensor(8))
        out = search_subset(o, params, n1=5, seed=0)
        assert out.found

    def test_zero_function_exhausts(self):
        params = SubsetSearchParams.from_problem(1, 1.0, 0.5)
        o = QueryOracle(const_tensor(3, c=0.0))
        out = search_subset(o, params, n1=13, seed=0)
        assert not out.found and o.query_count == 13


class TestDeterministicScan:
    def test_scan_order_first_hit(self):
        f = make_bump(1, "left")  # nonzero on [0, 1/2)
        t = RankOneTensor(factors=(f, f), r=1, M=2.0)
        ps = halton(20, 2)
        out = search_deterministic(QueryOracle(t), ps)
        assert out.found
        hits = [i for i, p in enumerate(ps.points) if t.value(p) != 0]
        assert out.iterations == hits[0] + 1
        np.testing.assert_array_equal(out.z_star, ps.points[hits[0]])

    def test_dimension_mismatch(self):
        with pytest.raises(ParameterError):
            search_deterministic(QueryOracle(const_tensor(3)), halton(5, 2))

    def test_zero_function_scans_all(self):
        ps = uniform_pointset(9, 2, seed=1)
        o = QueryOracle(const_tensor(2, c=0.0))
        out = search_deterministic(o, ps)
        assert not out.found and o.query_count == 9


class TestSuccessBound:
    def test_printed_bound_monotone_in_n1(self):
        params = SubsetSearchParams.from_problem(1, 1.9, 0.2)
        bs = [subset_success_bound(params, 8, n) for n in (10, 100, 1000)]
        assert bs == sorted(bs)

    def test_sharp_at_least_printed_for_large_d(self):
        params = SubsetSearchParams.from_problem(2, 3.0, 0.3)
        d = 4 * params.d_star
        n1 = 1000
        assert (subset_success_bound(params, d, n1, sharp=True)
                >= subset_success_bound(params, d, n1) - 1e-12)

    def test_sharp_base_above_one_gives_one(self):
        # d* / (3d) is large at d=1: the per-iteration base exceeds 1 and
        # its d*-th power used to overflow
        params = SubsetSearchParams.from_problem(3, 47.9, 0.01)
        assert params.d_star == 4419
        assert subset_success_bound(params, 1, 10, sharp=True) == 1.0
        assert subset_success_bound(params, 10 ** 6, 10, sharp=True) == 0.0

    def test_no_underflow_for_huge_n1(self):
        params = SubsetSearchParams.from_problem(1, 1.9, 0.2)
        n1 = math.ceil(params.c_prob * 8 ** params.alpha * math.log(2.0))
        b = subset_success_bound(params, 8, n1)
        assert 0.49 < b < 1.0


class TestPlanner:
    def test_trivial_regime(self):
        bp = plan(5, 10.0, 5, 0.1)
        assert bp.regime == "trivial_M_small"
        assert bp.n1 == 1 and bp.success_prob_lower == 1.0

    def test_trivial_boundary_inclusive(self):
        # M = r! eps exactly is still trivial
        assert plan(1, 0.5, 3, 0.5).regime == "trivial_M_small"

    def test_subset_regime(self):
        bp = plan(1, 1.9, 8, 0.2, p=0.5)
        assert bp.regime == "subset_search"
        assert bp.subset_params is not None
        assert bp.success_prob_lower >= 0.5 - 1e-9

    def test_intractable_regime(self):
        bp = plan(5, 3840.0, 10, 0.1)
        assert bp.regime == "intractable"
        assert bp.n1 == 2 ** 10 and bp.success_prob_lower == 0.0

    def test_support_class_random(self):
        bp = plan(1, 4.0, 6, 0.5, V=0.3, p=0.1)
        assert bp.regime == "support_class_random"
        assert bp.success_prob_lower == pytest.approx(1 - 0.7 ** bp.n1)
        assert bp.success_prob_lower >= 0.9 - 1e-12

    @pytest.mark.parametrize("V", [1e-17, 2.0 ** -54, 5e-324])
    def test_support_class_random_tiny_V(self, V):
        # 1 - V rounds to 1.0, so log(1 - V) is 0; the log1p form sees V
        bp = plan(1, 4.0, 2, 0.5, V=V)
        assert bp.regime == "support_class_random"
        assert 1 <= bp.n1 <= SATURATED_N1
        assert 0.0 < bp.success_prob_lower <= 1.0
        if V == 1e-17:
            assert bp.n1 == math.ceil(math.log(0.5) / math.log1p(-1e-17))
            assert bp.success_prob_lower == pytest.approx(0.5)

    def test_support_class_deterministic(self):
        bp = plan(1, 4.0, 2, 0.5, V=0.5, prefer_deterministic=True)
        assert bp.regime == "support_class_deterministic"
        assert bp.n1 == 301 and bp.success_prob_lower == 1.0

    def test_n2_at_least_recovery_minimum(self):
        bp = plan(5, 10.0, 2, 0.5)
        assert bp.n2 >= 1 + 2 * 5

    def test_invalid_inputs(self):
        with pytest.raises(ParameterError):
            plan(0, 1.0, 2, 0.1)
        with pytest.raises(ParameterError):
            plan(1, 1.0, 2, 1.5)
        with pytest.raises(ParameterError):
            plan(1, 1.0, 2, 0.1, p=0.0)
        with pytest.raises(ParameterError):
            plan(1, 1.0, 2, 0.1, V=1.5)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 4), st.floats(0.01, 100.0), st.integers(1, 8),
           st.floats(0.01, 0.99))
    def test_regime_boundaries(self, r, M, d, eps):
        bp = plan(r, M, d, eps)
        rf = math.factorial(r)
        if M <= rf * eps:
            assert bp.regime == "trivial_M_small"
        elif M < 2 ** r * rf:
            assert bp.regime == "subset_search"
        else:
            assert bp.regime == "intractable"
        assert bp.n1 >= 1 and bp.n2 >= 1
        assert 0.0 <= bp.success_prob_lower <= 1.0


SATURATED_N1 = math.ceil(sys.float_info.max)


class TestPlannerSaturation:
    """Near M = 2^r r! the subset-search constants leave the float range."""

    def test_n1_saturates_when_d_to_the_alpha_overflows(self):
        bp = plan(3, 46.0, 2, 0.015625)
        assert bp.regime == "subset_search"
        assert math.isfinite(bp.subset_params.c_prob)
        assert bp.n1 == SATURATED_N1
        assert bp.success_prob_lower == 0.0

    def test_c_prob_saturates(self):
        bp = plan(3, 47.9, 8, 0.01)
        assert bp.subset_params.c_prob == sys.float_info.max
        assert bp.n1 == SATURATED_N1
        assert bp.success_prob_lower == 0.0

    def test_product_overflow_below_log_limit(self):
        # log(n1) is below the float limit, but c_prob * d^alpha is not
        bp = plan(3, 47, 50, 0.3, p=0.99)
        sp = bp.subset_params
        log_product = math.log(sp.c_prob) + sp.alpha * math.log(50)
        log_limit = math.log(sys.float_info.max)
        assert log_product + math.log(math.log(1 / 0.99)) < log_limit < log_product
        assert bp.n1 == SATURATED_N1
        assert 0.0 <= bp.success_prob_lower <= 1.0

    def test_grid_sweep_plan_output_is_finite_json(self, capsys):
        for r in range(1, 5):
            top = 2 ** r * math.factorial(r)
            for frac, d, eps, p in itertools.product(
                    (0.5, 0.9, 0.99, 0.999, 0.9999), (1, 2, 8, 50),
                    (0.3, 0.1, 0.015625, 0.01, 0.001), (0.5, 0.99)):
                argv = ["plan", "--r", str(r), "--M", repr(frac * top),
                        "--d", str(d), "--eps", repr(eps), "--p", repr(p)]
                assert main(argv) == 0, argv
                out = json.loads(capsys.readouterr().out)
                json.dumps(out, allow_nan=False)
                assert 0.0 <= out["success_prob_lower"] <= 1.0, argv
