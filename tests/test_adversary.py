import itertools
import math

import numpy as np
import pytest

from rankone.adversary import (FoolingFamily, find_untouched_orthant,
                               fool_deterministic, fool_randomized,
                               orthants_touched)
from rankone.errors import InstanceTooLargeError, ParameterError
from rankone.search import run_search
from rankone.tensor import QueryOracle, check_membership


class TestFoolingFamily:
    def test_corner_value_is_one(self):
        fam = FoolingFamily(d=3, r=2)
        for k in range(fam.size):
            assert fam.member(k).value(fam.corner(k)) == pytest.approx(1.0)

    def test_sign_flips_first_factor(self):
        fam = FoolingFamily(d=2, r=1)
        assert fam.member(1, -1).value(fam.corner(1)) == pytest.approx(-1.0)

    def test_members_in_class_at_critical_m(self):
        fam = FoolingFamily(d=3, r=2)
        assert fam.M == 2 ** 2 * math.factorial(2)
        for k in (0, 3, 7):
            for sign in (1, -1):
                assert check_membership(fam.member(k, sign), "F").ok

    def test_disjoint_supports_grid(self):
        # on a grid avoiding the boundary, at most one member is nonzero
        fam = FoolingFamily(d=2, r=1)
        ax = np.linspace(0.01, 0.99, 21)
        members = [fam.member(k) for k in range(4)]
        for x in itertools.product(ax, ax):
            nz = [k for k, m in enumerate(members)
                  if m.value(np.array(x)) != 0.0]
            assert len(nz) <= 1

    def test_vanishes_outside_own_orthant(self):
        fam = FoolingFamily(d=3, r=1)
        gen = np.random.default_rng(0)
        for k in range(8):
            m = fam.member(k)
            box = fam.support_box(k)
            X = gen.random((200, 3))
            outside = ~np.all((X >= box.lower) & (X <= box.upper), axis=1)
            vals = m.value_batch(X[outside])
            assert np.all(vals == 0.0)

    def test_zero_member(self):
        fam = FoolingFamily(d=2, r=1)
        X = np.random.default_rng(1).random((50, 2))
        assert np.all(fam.zero_member().value_batch(X) == 0.0)

    def test_class_bound_past_the_float_range(self):
        # float(2^r r!) once raised OverflowError from r = 151
        assert FoolingFamily(3, 150).M == float(2 ** 150 * math.factorial(150))
        with pytest.raises(InstanceTooLargeError):
            FoolingFamily(3, 151)

    def test_invalid_index(self):
        fam = FoolingFamily(d=2, r=1)
        with pytest.raises(ParameterError):
            fam.member(4)
        with pytest.raises(ParameterError):
            fam.member(0, 2)


class TestOrthants:
    def test_interior_point_single_orthant(self):
        assert orthants_touched(np.array([0.1, 0.9])) == [2]

    def test_boundary_touches_both(self):
        masks = orthants_touched(np.array([0.5, 0.1]))
        assert sorted(masks) == [0, 1]

    def test_center_touches_all(self):
        masks = orthants_touched(np.full(3, 0.5))
        assert sorted(masks) == list(range(8))

    def test_finder_matches_brute_force(self):
        gen = np.random.default_rng(7)
        for d in (2, 3, 6, 10):
            queries = [gen.random(d) for _ in range(min(2 ** d - 1, 40))]
            got = find_untouched_orthant(queries, d)
            covered = set()
            for q in queries:
                covered.update(orthants_touched(q))
            brute = next((k for k in range(2 ** d) if k not in covered), None)
            assert got == brute

    def test_full_cover_returns_none(self):
        queries = [np.array([a, b]) for a in (0.2, 0.8) for b in (0.2, 0.8)]
        assert find_untouched_orthant(queries, 2) is None


class TestFoolDeterministic:
    def test_zero_strategy_certified(self):
        err, (k, plus, minus) = fool_deterministic(lambda o: None, 3, 1, 7)
        assert err >= 1.0
        assert plus.value(FoolingFamily(3, 1).corner(k)) == pytest.approx(1.0)

    def test_no_queries_d1(self):
        err, (k, _, _) = fool_deterministic(lambda o: None, 1, 1, 0)
        assert err >= 1.0 and k == 0

    def test_halton_scan_strategy_fooled(self):
        def scan(oracle):
            run_search("det", oracle, oracle.budget, 0)
            return None
        err, _ = fool_deterministic(scan, 4, 1, 15)
        assert err >= 1.0

    def test_budget_enforced_on_strategy(self):
        def greedy(oracle):
            for i in range(oracle.budget + 5):
                oracle.evaluate(np.full(oracle.d, 0.3))
            return None
        from rankone.errors import BudgetExhaustedError
        with pytest.raises(BudgetExhaustedError):
            fool_deterministic(greedy, 2, 1, 3)

    def test_guard_at_two_to_the_d(self):
        with pytest.raises(ParameterError):
            fool_deterministic(lambda o: None, 2, 1, 4)


class TestFoolRandomized:
    def test_zero_strategy_rms_exactly_one(self):
        rep = fool_randomized(lambda o, s: None, d=4, r=1, n=8, trials=50)
        assert rep.rms_error == pytest.approx(1.0)
        assert rep.passes_floor

    def test_white_box_cheater_scores_zero(self):
        # reading the hidden member out of the oracle drives the error to
        # zero, confirming the harness measures the strategy, not the family
        def cheat(oracle, seed):
            target = oracle.target
            return lambda X: target.value_batch(X)
        rep = fool_randomized(cheat, d=3, r=1, n=4, trials=50)
        assert rep.rms_error == pytest.approx(0.0, abs=1e-12)
        assert not rep.passes_floor

    def test_budget_guard(self):
        with pytest.raises(ParameterError):
            fool_randomized(lambda o, s: None, d=3, r=1, n=5, trials=10)
        with pytest.raises(ParameterError):
            fool_randomized(lambda o, s: None, d=3, r=1, n=4, trials=0)

    def test_reproducible(self):
        a = fool_randomized(lambda o, s: None, d=4, r=2, n=4, trials=20, seed=9)
        b = fool_randomized(lambda o, s: None, d=4, r=2, n=4, trials=20, seed=9)
        np.testing.assert_array_equal(a.trial_errors, b.trial_errors)

