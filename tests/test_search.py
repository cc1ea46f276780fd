import itertools
import json
import math
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankone import rng, search
from rankone.cli import main
from rankone.dispersion import halton
from rankone.errors import ParameterError
from rankone.pipeline import family_offcenter_triangle
from rankone.recovery import required_n2
from rankone.search import (SubsetSearchParams, plan, repeated_draws, run_search,
                            search_subset, search_uniform_multi, search_uniform_single,
                            subset_success_bound)
from rankone.specs import tensor_from_spec
from rankone.tensor import QueryOracle, RankOneTensor
from rankone.univariate import make_bump, polynomial_factor


def const_tensor(d, c=1.0, r=1):
    return RankOneTensor(factors=tuple(polynomial_factor([c], r) for _ in range(d)),
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
        [x] = o.query_log
        delta = params.delta_star
        near = np.abs(x - 0.5) <= delta + 1e-12
        assert near.sum() >= d - params.d_star

    def test_clamps_when_d_below_d_star(self):
        params = SubsetSearchParams.from_problem(1, 1.9, 0.2)
        assert params.d_star > 8
        o = QueryOracle(const_tensor(8))
        out = search_subset(o, params, n1=5, seed=0)
        assert out.found

    def test_queries_stay_in_cube_when_delta_star_exceeds_half(self):
        params = SubsetSearchParams.from_problem(4, 10.0, 0.1)
        assert params.delta_star > 0.5
        o = QueryOracle(const_tensor(10, c=0.0), log=True)
        search_subset(o, params, n1=200, seed=1)
        X = np.array(o.query_log)
        assert X.shape == (200, 10)
        assert np.all((X >= 0.0) & (X <= 1.0))
        # the squeezed window is the whole cube: some coordinate outside
        # the subset reaches past 1/2 +- 0.45
        assert np.abs(X - 0.5).max() > 0.45

    def test_zero_function_exhausts(self):
        params = SubsetSearchParams.from_problem(1, 1.0, 0.5)
        o = QueryOracle(const_tensor(3, c=0.0))
        out = search_subset(o, params, n1=13, seed=0)
        assert not out.found and o.query_count == 13

    @pytest.mark.parametrize("call, message", [
        (lambda o, p: search_subset(o, p, n1=0, seed=0), "n1 must be positive"),
        (lambda o, p: run_search("subset", o, 5, 0), "needs SubsetSearchParams"),
        (lambda o, p: run_search("nope", o, 5, 0, p), "unknown strategy 'nope'"),
    ], ids=["n1-0", "subset-without-params", "unknown-strategy"])
    def test_refused_before_any_query(self, call, message):
        o = QueryOracle(const_tensor(3))
        with pytest.raises(ParameterError, match=message):
            call(o, SubsetSearchParams.from_problem(1, 1.0, 0.5))
        assert o.query_count == 0


def reference_subset_search(oracle, params, n1, seed):
    """The subset search as one query per iteration: (z*, f(z*), iterations)."""
    d = oracle.d
    k = min(params.d_star, d)
    half = min(params.delta_star, 0.5)
    g = rng.spawn(seed)
    for i in range(n1):
        keys, z = g.random(d), g.random(d)
        subset = np.argsort(keys, kind="stable")[:k]
        x = 0.5 + half * (2.0 * z - 1.0)
        x[subset] = z[subset]
        v = oracle.evaluate(x)
        if v != 0.0:
            return x, v, i + 1
    return None, None, n1


class TestSubsetSearchMatchesPerIterationLoop:
    # r = 2, M = 4, eps = 0.3 gives d* = 5: d = 3 is clamped to plain
    # uniform search, d = 8 and 40 squeeze the coordinates off the subset
    PARAMS = SubsetSearchParams.from_problem(2, 4.0, 0.3)

    @pytest.mark.parametrize("d", [3, 8, 40])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 2 ** 63 - 1])
    @pytest.mark.parametrize("tensor", ["offcenter_triangle", "zero"])
    def test_bit_identical_and_charged_in_whole_chunks(self, d, seed, tensor):
        # the tensor's own stream, so that its spikes are not the search's draws
        t = (family_offcenter_triangle(d, 2, 4.0, 0.3, rng.spawn(seed, 1))
             if tensor == "offcenter_triangle" else const_tensor(d, c=0.0, r=2))
        n1 = 300
        z, v, iterations = reference_subset_search(QueryOracle(t), self.PARAMS, n1, seed)
        o = QueryOracle(t)
        out = search_subset(o, self.PARAMS, n1, seed)
        assert out.iterations == iterations and out.value == v
        if z is None:
            assert out.z_star is None and o.query_count == n1
        else:
            assert out.z_star.tobytes() == z.tobytes()
            # chunks of 1, 2, 4, ...: whole chunks, 1, 3, 7, 15, ... up to n1
            assert o.query_count == min((1 << iterations.bit_length()) - 1, n1)

    @pytest.mark.parametrize("d", [3, 40])
    def test_chunks_over_several_row_blocks(self, d, monkeypatch):
        # 2 d * 5 cells: a block of 5 rows, so chunks of 8 to 256 rows
        # fill X over several blocks, the last one partial
        monkeypatch.setattr(search, "_GRID_CELLS", 2 * d * 5)
        t = const_tensor(d, c=0.0, r=2)
        n1 = 300
        want, got = QueryOracle(t, log=True), QueryOracle(t, log=True)
        assert reference_subset_search(want, self.PARAMS, n1, 7)[2] == n1
        out = search_subset(got, self.PARAMS, n1, 7)
        assert not out.found and out.iterations == n1
        assert np.array(got.query_log).tobytes() == np.array(want.query_log).tobytes()

    @pytest.mark.parametrize("d", [8, 40])
    def test_share_outside_the_window(self, d):
        # only the k free coordinates leave [1/2 - h, 1/2 + h], each with
        # probability 1 - 2h: over n iterations the share of the n d
        # coordinates outside is (k/d)(1 - 2h), with the binomial spread
        n = 20_000
        k, half = min(self.PARAMS.d_star, d), self.PARAMS.delta_star
        assert k < d and half < 0.5
        o = QueryOracle(const_tensor(d, c=0.0, r=2), log=True)
        search_subset(o, self.PARAMS, n, seed=11)
        outside = np.abs(np.array(o.query_log) - 0.5) > half
        q = 1.0 - 2.0 * half
        sigma = math.sqrt(n * k * q * (1.0 - q)) / (n * d)
        assert abs(outside.mean() - k / d * q) < 5 * sigma
        # each coordinate is free with probability k/d
        column_sigma = math.sqrt(n * (k / d * q) * (1.0 - k / d * q)) / n
        assert np.all(np.abs(outside.mean(axis=0) - k / d * q) < 5 * column_sigma)

    def test_hits_past_the_first_chunk_are_covered(self):
        # the comparison above means little if every search hits at once
        found = [search_subset(QueryOracle(family_offcenter_triangle(
                     d, 2, 4.0, 0.3, rng.spawn(seed, 1))), self.PARAMS, 300, seed)
                 for d in (3, 8, 40) for seed in range(5)]
        assert sum(out.found and out.iterations > 7 for out in found) >= 5
        assert not all(out.found for out in found)


class TestDeterministicScan:
    def test_scan_order_first_hit(self):
        f = make_bump(1, "left")  # nonzero on [0, 1/2)
        t = RankOneTensor(factors=(f, f), r=1, M=2.0)
        ps = halton(20, 2)
        out = run_search("det", QueryOracle(t), 20, 0)
        assert out.found
        hits = [i for i, p in enumerate(ps.points) if t.value(p) != 0]
        assert out.iterations == hits[0] + 1
        np.testing.assert_array_equal(out.z_star, ps.points[hits[0]])

    def test_det_builds_only_the_scanned_prefix(self):
        # nonzero where every coordinate exceeds 1/2: Halton point 47 is
        # the first such; all 10^12 points were once built first (7.3 TiB)
        spec = {"d": 4, "r": 1, "M": 1.9, "replicate": True,
                "factor": {"kind": "bump", "orientation": "right"}}
        outs = [run_search("det", QueryOracle(tensor_from_spec(spec)), n1, 0)
                for n1 in (100, 10 ** 12)]
        assert outs[0].iterations == outs[1].iterations == 47
        np.testing.assert_array_equal(outs[1].z_star, halton(47, 4).points[-1])
        assert outs[0].value == outs[1].value

    @pytest.mark.parametrize("d, n1", [(2, 0), (33, 5)])
    def test_det_refused_before_any_query(self, d, n1):
        o = QueryOracle(const_tensor(d))
        with pytest.raises(ParameterError):
            run_search("det", o, n1, 0)
        assert o.query_count == 0

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_det_scans_the_halton_prefix_of_the_oracle_dimension(self, d):
        # the point set follows the oracle's d, so no dimension can mismatch,
        # and the seed changes nothing
        logs = []
        for seed in (0, 7):
            o = QueryOracle(const_tensor(d, c=0.0), log=True)
            assert not run_search("det", o, 11, seed).found
            logs.append(np.array(o.query_log))
        np.testing.assert_array_equal(logs[0], halton(11, d).points)
        np.testing.assert_array_equal(logs[0], logs[1])

    def test_zero_function_scans_all(self):
        o = QueryOracle(const_tensor(2, c=0.0))
        out = run_search("det", o, 9, 0)
        assert not out.found and o.query_count == 9


class TestSuccessBound:
    def test_printed_bound_monotone_in_n1(self):
        params = SubsetSearchParams.from_problem(1, 1.9, 0.2)
        bs = [subset_success_bound(params, 8, n) for n in (10, 100, 1000)]
        assert bs == sorted(bs)

    def test_saturated_c_prob_gives_zero_at_every_d(self):
        # near M = 2^r r!, d* is large and C passes the float range: the
        # bound is the valid 0.0 at d = 1 as at d = 10^6
        params = SubsetSearchParams.from_problem(3, 47.9, 0.01)
        assert params.d_star == 4419
        assert params.c_prob == sys.float_info.max
        assert subset_success_bound(params, 1, 10) == 0.0
        assert subset_success_bound(params, 10 ** 6, 10) == 0.0

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

    @pytest.mark.parametrize("V", [1e-17, 2.0 ** -54, 5e-324,
                                   1.7e-16, 1e-15, 3e-12, 1e-6, 0.1, 0.3])
    def test_support_class_random_tiny_V(self, V):
        # 1 - V rounds to 1.0 below float epsilon, and loses digits of V
        # above it; the log1p form sees all of V.  At V = 1.7e-16, p = 0.5
        # the 1 - V form planned n1 = 3,121,657,384,082,679 and printed 0.5
        # for a true 0.4118
        for p in (0.5, 0.1):
            bp = plan(1, 4.0, 2, 0.5, V=V, p=p)
            assert bp.regime == "support_class_random"
            assert 1 <= bp.n1 <= SATURATED_N1
            assert 0.0 < bp.success_prob_lower <= 1.0
            with localcontext() as ctx:
                # 60 digits past those of V, so that 1 - V keeps all of V
                ctx.prec = 60 - math.floor(math.log10(V))
                exact = 1 - (1 - Decimal(V)) ** bp.n1
                assert abs(Decimal(bp.success_prob_lower) - exact) <= Decimal(1e-15) * exact
        if V == 1e-17:
            bp = plan(1, 4.0, 2, 0.5, V=V)
            assert bp.n1 == math.ceil(math.log(0.5) / math.log1p(-1e-17))
            assert bp.success_prob_lower == pytest.approx(0.5)
        if V == 1.7e-16:
            assert plan(1, 4.0, 2, 0.5, V=V).n1 == 4_077_336_356_234_972

    def test_repeated_draws_edges(self):
        # a least n, a sure miss, and a least n past the float range
        assert repeated_draws(0.75, p=0.1) == (2, 0.9375)
        assert repeated_draws(0.0, n=10 ** 6) == (10 ** 6, 0.0)
        n, success = repeated_draws(5e-324, p=0.5)
        assert n == SATURATED_N1 and 0.0 < success < 1e-15

    def test_support_class_deterministic(self):
        bp = plan(1, 4.0, 2, 0.5, V=0.5, prefer_deterministic=True)
        assert bp.regime == "support_class_deterministic"
        assert bp.n1 == 301 and bp.success_prob_lower == 1.0

    def test_n2_at_least_recovery_minimum(self):
        bp = plan(5, 10.0, 2, 0.5)
        assert bp.n2 >= 1 + 2 * 5

    @pytest.mark.parametrize("d,n2", [(5, 26), (10, 51), (150, 751), (551, 2_756),
                                      (1000, 10_001), (2000, 20_001), (5000, 50_001)])
    def test_n2_whole_blocks_per_line(self, d, n2):
        # recover spends 1 + d r floor(m / r) queries with m = (n2 - 1) // d;
        # the plan holds whole blocks of r, so all of n2 is spent: one
        # block per line up to d = 165, two from d = 586 to past 5000
        bp = plan(5, 10.0, d, 0.1)
        assert (bp.n2 - 1) % (d * 5) == 0
        assert bp.n2 == n2

    def test_n2_unchanged_when_lines_hold_whole_blocks(self):
        # plan's n2 is required_n2 itself, already whole blocks per line
        for d in range(1, 101):
            n2 = required_n2(d, 5, 10.0, 0.1)
            assert (n2 - 1) % (d * 5) == 0
            assert plan(5, 10.0, d, 0.1).n2 == n2

    def test_factorial_past_float_range(self):
        # r! = 1.2e309: M <= r! eps is decided without forming r! eps
        bp = plan(171, 10.0, 3, 0.1)
        assert bp.regime == "trivial_M_small"
        assert bp.n2 == 1 + 3 * 171

    def test_subset_search_past_float_range(self):
        # r! eps < M < 2^r r! selects the subset search, whose constants
        # need 2^(r+1) r! as a float
        with pytest.raises(ParameterError):
            plan(151, 1e300, 3, 0.1)
        assert plan(150, 1e300, 3, 0.1).regime == "subset_search"

    def test_invalid_inputs(self):
        with pytest.raises(ParameterError):
            plan(0, 1.0, 2, 0.1)
        with pytest.raises(ParameterError):
            plan(1, 1.0, 2, 1.5)
        with pytest.raises(ParameterError):
            plan(1, 1.0, 2, 0.1, p=0.0)
        with pytest.raises(ParameterError):
            plan(1, 1.0, 2, 0.1, V=1.5)
        # NaN once passed the guards M <= 0 and eps <= 0, and math.ceil
        # then raised a bare ValueError
        for M, eps in ((math.nan, 0.1), (2.0, math.nan)):
            with pytest.raises(ParameterError):
                plan(2, M, 3, eps)
            with pytest.raises(ParameterError):
                required_n2(3, 2, M, eps)

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
