import itertools
import math

import numpy as np
import pytest

from rankone.adversary import (FoolingFamily, fool_deterministic, fool_randomized,
                               untouched_orthant)
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
                assert check_membership(fam.member(k, sign)) == ()

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


def _sign_pattern(x):
    return sum(1 << i for i, c in enumerate(x) if c > 0.5)


class TestOrthants:
    def test_interior_point_single_orthant(self):
        assert untouched_orthant(np.array([[0.1, 0.2]])) == 1
        assert untouched_orthant(np.array([[0.1, 0.2], [0.9, 0.2]])) == 2
        assert untouched_orthant(np.array([[0.1, 0.9]])) == 0

    def test_boundary_takes_no_orthant(self):
        # both bumps vanish at 1/2, so a query there reads 0 on every member
        assert untouched_orthant(np.array([[0.5, 0.1]])) == 0
        assert untouched_orthant(np.array([[0.5, 0.1], [0.1, 0.1]])) == 1

    @pytest.mark.parametrize("d", [1, 3, 20, 100])
    def test_center_takes_no_orthant(self, d):
        # the centre once counted as touching all 2^d orthants
        assert untouched_orthant(np.full((1, d), 0.5)) == 0

    def test_finder_matches_brute_force(self):
        gen = np.random.default_rng(7)
        for d in (1, 2, 3, 6, 10):
            for n in sorted({1, min(2 ** d - 1, 40)}):
                # a quarter of the coordinates at exactly 1/2
                X = np.where(gen.random((n, d)) < 0.25, 0.5, gen.random((n, d)))
                taken = {_sign_pattern(x) for x in X if not np.any(x == 0.5)}
                brute = next(k for k in range(2 ** d) if k not in taken)
                assert untouched_orthant(X) == brute

    def test_full_low_cover(self):
        # 2^d - 1 queries on distinct orthants leave only the last one
        X = np.array([[0.75 if (k >> i) & 1 else 0.25 for i in range(3)] for k in range(8)])
        assert untouched_orthant(np.delete(X, 5, axis=0)) == 5
        assert untouched_orthant(X[:7]) == 7

    def test_past_64_axes(self):
        # a right-half bit at axis 70 takes an index past 2^64, not index 0
        X = np.full((3, 100), 0.25)
        X[1, 0] = 0.75
        X[2, 70] = 0.75
        assert untouched_orthant(X) == 2
        assert untouched_orthant(X[[0, 2]]) == 1


class TestFoolDeterministic:
    def test_zero_strategy_certified(self):
        err, (k, plus, minus) = fool_deterministic(lambda o, s: None, 3, 1, 7)
        assert err >= 1.0
        assert plus.value(FoolingFamily(3, 1).corner(k)) == pytest.approx(1.0)

    def test_no_queries_d1(self):
        err, (k, _, _) = fool_deterministic(lambda o, s: None, 1, 1, 0)
        assert err >= 1.0 and k == 0

    def test_halton_scan_strategy_fooled(self):
        def scan(oracle, seed):
            run_search("det", oracle, oracle.budget, seed)
            return None
        err, _ = fool_deterministic(scan, 4, 1, 15)
        assert err >= 1.0

    def test_budget_enforced_on_strategy(self):
        def greedy(oracle, seed):
            for i in range(oracle.budget + 5):
                oracle.evaluate(np.full(oracle.d, 0.3))
            return None
        from rankone.errors import BudgetExhaustedError
        with pytest.raises(BudgetExhaustedError):
            fool_deterministic(greedy, 2, 1, 3)

    @pytest.mark.parametrize("r", [1, 4, 150])
    @pytest.mark.parametrize("d", [1, 3, 6])
    def test_zero_output_certifies_exactly_one(self, d, r):
        # |f| = 1 at member k's corner and nowhere more, so the measured
        # error of the zero output is 1.0 itself, with no clamp
        err, _ = fool_deterministic(lambda o, s: None, d, r, 2 ** d - 1)
        assert err == 1.0

    def test_strategy_runs_at_seed_0(self):
        seeds = []
        fool_deterministic(lambda o, s: seeds.append(s), 3, 1, 7)
        assert seeds == [0]

    @pytest.mark.parametrize("d", [1, 16, 20, 40])
    def test_centre_query_certified(self, d):
        # the centre reads 0 on every member; it once raised AssertionError
        # ("no untouched orthant") at d = 1 and d = 16, after listing 2^d masks
        def centre(oracle, seed):
            oracle.evaluate(np.full(oracle.d, 0.5))
            return None
        err, (k, _, _) = fool_deterministic(centre, d, 1, 1)
        assert err == 1.0 and k == 0

    @pytest.mark.parametrize("d", range(1, 9))
    def test_members_vanish_at_every_query(self, d):
        # both signed members of the returned orthant read exactly 0.0 at
        # every query, so the strategy saw what it sees on the zero member
        def scan(oracle, seed):
            run_search("det", oracle, oracle.budget, seed)
            return None

        def snapped(oracle, seed):
            gen = np.random.default_rng(d)
            X = gen.random((oracle.budget, oracle.d))
            oracle.evaluate_batch(np.where(gen.random(X.shape) < 0.3, 0.5, X))
            return None

        for strategy in (scan, snapped):
            for n in sorted({1, 2 ** (d - 1), 2 ** d - 1}):
                logs = []

                def logged(oracle, seed):
                    logs.append(oracle.query_log)
                    return strategy(oracle, seed)
                _, (k, plus, minus) = fool_deterministic(logged, d, 2, n)
                X = np.array(logs[0])
                assert X.shape == (n, d)
                assert np.all(plus.value_batch(X) == 0.0)
                assert np.all(minus.value_batch(X) == 0.0)

    def test_guard_at_two_to_the_d(self):
        with pytest.raises(ParameterError):
            fool_deterministic(lambda o, s: None, 2, 1, 4)


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

