"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s; the
test verdict itself carries the same information under pytest -v).
Tolerances are pinned in-line next to each assertion.
"""

import math

import numpy as np
import pytest

from rankone import rng
from rankone.adversary import fool_deterministic, fool_randomized
from rankone.dispersion import (PointSet, disp_probability_bound,
                                exact_dispersion, halton, n_disp_upper,
                                uniform_pointset)
from rankone.errors import ParameterError
from rankone.pipeline import (ExperimentConfig, convergence_sweep,
                              family_box_support, family_offcenter_triangle,
                              fit_order, run_pipeline)
from rankone.recovery import RecoveryConfig, min_budget, recover
from rankone.search import (SubsetSearchParams, plan, run_search, search_subset,
                            search_uniform_multi, subset_success_bound)
from rankone.tensor import QueryOracle
from rankone.univariate import make_bump

from test_dispersion import brute_force_dispersion


def verdict(num, ok, detail):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_deterministic_strategies_fooled():
    # d=4, r=1, M=2^1*1!=2, every implemented deterministic strategy with
    # n <= 15 queries incurs error >= 1 (tolerance 0)
    def zero_strategy(oracle, seed):
        return None

    def halton_scan(oracle, seed):
        run_search("det", oracle, oracle.budget, seed)
        return None

    def uniform_scan(oracle, seed):
        oracle.evaluate_batch(uniform_pointset(oracle.budget, oracle.d, seed=seed).points)
        return None

    errors = []
    for strat in (zero_strategy, halton_scan, uniform_scan):
        err, _ = fool_deterministic(strat, d=4, r=1, n=15)
        errors.append(err)
    ok = all(e >= 1.0 for e in errors)
    verdict(1, ok, f"min certified error {min(errors)} >= 1 over "
                   f"{len(errors)} deterministic strategies (d=4, n=15)")


def test_criterion_02_randomized_floor():
    # d=10, n=512 <= 2^9: RMS over 2000 trials of uniform search plus
    # recovery is >= sqrt(2)/2 - 3 SE
    def two_phase(oracle, seed):
        budget = oracle.budget
        outcome = search_uniform_multi(oracle, budget // 2, seed)
        if not outcome.found:
            return None
        r = oracle.target.r
        n2 = budget - oracle.query_count
        if n2 < min_budget(oracle.d, r):
            return None
        return recover(oracle, outcome.z_star,
                       RecoveryConfig(r=r, budget_n2=n2))

    report = fool_randomized(two_phase, d=10, r=1, n=512, trials=2000, seed=0)
    floor = math.sqrt(2.0) / 2.0
    ok = report.rms_error >= floor - report.ci_halfwidth
    verdict(2, ok, f"empirical RMS {report.rms_error:.4f} >= "
                   f"{floor:.4f} - {report.ci_halfwidth:.4f} (2000 trials)")


def test_criterion_03_trivial_regime_numeric_example():
    # r=5, M=10 <= r! eps = 12 at eps=0.1: one draw plus recovery achieves
    # error <= eps in every one of 10^4 trials (5000 per dimension)
    total = ok_count = 0
    for d in (5, 10):
        cfg = ExperimentConfig(r=5, M=10.0, d=d, eps=0.1,
                               family="shifted_smooth", strategy="plan",
                               trials=5000, seed=31 + d, grid=801, samples=200)
        rows, summary = run_pipeline(cfg)
        assert summary["plan"]["regime"] == "trivial_M_small"
        assert summary["plan"]["n1"] == 1
        total += summary["trials"]
        ok_count += summary["eps_success"]
    verdict(3, ok_count == total == 10_000,
            f"{ok_count}/{total} trials with error <= 0.1 (d in {{5, 10}})")


def test_criterion_04_convergence_order():
    # d=3, slope of log error against log n2 at most -r + 0.3
    slopes = {}
    for r in (1, 2, 3):
        budgets = [mult * 3 for mult in (6, 12, 24, 48, 96)]
        pairs = convergence_sweep(3, r, budgets, seed=0)
        slope, _ = fit_order(pairs)
        slopes[r] = slope
    ok = all(slopes[r] <= -r + 0.3 for r in slopes)
    verdict(4, ok, "fitted slopes " +
            ", ".join(f"r={r}: {s:.2f} (need <= {-r + 0.3})"
                      for r, s in slopes.items()))


def test_criterion_05_support_class_success_bound():
    # lambda({f != 0}) = V exactly: uniform search hits with per-draw
    # probability V, so success frequency >= 1-(1-V)^n1 - 3 sigma
    trials = 2000
    details, ok = [], True
    for V in (0.1, 0.3):
        for n1 in (5, 20, 80):
            hits = 0
            for t in range(trials):
                tensor = family_box_support(6, 1, V, rng.spawn(5, t, n1,
                                                               int(V * 10)))
                outcome = search_uniform_multi(
                    QueryOracle(tensor), n1,
                    seed=rng._mix(5, t, n1, int(V * 10)))
                hits += outcome.found
            bound = 1.0 - (1.0 - V) ** n1
            sigma = math.sqrt(bound * (1 - bound) / trials)
            freq = hits / trials
            this_ok = freq >= bound - 3 * sigma
            ok = ok and this_ok
            details.append(f"V={V},n1={n1}: {freq:.3f}>= {bound:.3f}-3s")
    verdict(5, ok, "; ".join(details))


def test_criterion_06_subset_search_bound():
    # d=8, r=1, M=1.9, eps=0.2: success frequency over 500 runs at the
    # planner's n1 (p=0.5) is at least the printed bound minus 3 sigma
    bp = plan(1, 1.9, 8, 0.2, p=0.5)
    assert bp.regime == "subset_search"
    params = bp.subset_params
    runs = 500
    hits = 0
    for t in range(runs):
        tensor = family_offcenter_triangle(8, 1, 1.9, 0.2, rng.spawn(6, t))
        outcome = search_subset(QueryOracle(tensor), params, bp.n1,
                                seed=rng._mix(6, t))
        hits += outcome.found
    bound = subset_success_bound(params, 8, bp.n1)
    sigma = math.sqrt(max(bound * (1 - bound), 1e-12) / runs)
    freq = hits / runs
    ok = freq >= bound - 3 * sigma
    verdict(6, ok, f"success freq {freq:.3f} >= printed bound {bound:.3f} "
                   f"- 3*{sigma:.4f} ({runs} runs)")


def test_criterion_07_dispersion_oracle_equivalence():
    # exact_dispersion agrees with the candidate-grid brute force to 1e-9
    # on 200 random instances; the first Halton points are bit-exact
    gen = np.random.default_rng(77)
    worst = 0.0
    for _ in range(200):
        d = int(gen.integers(1, 4))
        n = int(gen.integers(1, 13))
        pts = gen.random((n, d))
        got = exact_dispersion(PointSet(points=pts, provenance="x")).value
        worst = max(worst, abs(got - brute_force_dispersion(pts)))
    hp = halton(3, 2).points
    bit_exact = (hp[0, 0] == 0.5 and hp[0, 1] == 1 / 3
                 and hp[1, 0] == 0.25 and hp[1, 1] == 2 / 3
                 and hp[2, 0] == 0.75 and hp[2, 1] == 1 / 9)
    ok = worst <= 1e-9 and bit_exact
    verdict(7, ok, f"max |exact - brute| = {worst:.2e} <= 1e-9 over 200 "
                   f"instances; Halton start bit-exact: {bit_exact}")


def test_criterion_08_dispersion_probability_bound():
    # d=2, V=0.3, n=301: empirical fraction of point sets with
    # dispersion <= V beats the probability bound minus 3 sigma; and the
    # deterministic point count formula reproduces 301 at V=0.5
    n, d, V, sets = 301, 2, 0.3, 1000
    good = 0
    for s in range(sets):
        ps = uniform_pointset(n, d, seed=rng._mix(8, s))
        good += exact_dispersion(ps).value <= V
    bound = disp_probability_bound(n, d, V)
    sigma = math.sqrt(max(bound * (1 - bound), 1e-12) / sets)
    frac = good / sets
    count_ok = n_disp_upper(0.5, 2) == 301
    ok = frac >= bound - 3 * sigma and count_ok
    verdict(8, ok, f"fraction disp<=0.3: {frac:.4f} >= {bound:.4f} - "
                   f"3*{sigma:.5f}; n_disp_upper(0.5, 2) == 301: {count_ok}")


def test_criterion_09_univariate_inequalities():
    # 500 random admissible g with >= r zeros: grid sup within the
    # M (b-a)^r / r! bound; support measure >= (r! eps / M)^(1/r), both
    # with 1e-9 slack
    gen = np.random.default_rng(9)
    ts = np.linspace(0.0, 1.0, 20_001)
    ok = True
    for i in range(500):
        r = int(gen.integers(1, 6))
        if i % 2 == 0:
            # polynomial with r real zeros inside [a, b]
            a, b = sorted(gen.random(2))
            if b - a < 0.05:
                b = min(1.0, a + 0.05)
            zeros = a + (b - a) * gen.random(r)
            c = 0.1 + gen.random()
            g = lambda t: c * np.prod([t - z for z in zeros], axis=0)
            M = c * math.factorial(r)
            support_measure = 1.0
        else:
            # one-sided bump: extremal for both inequalities
            a, b = (0.0, 0.5) if gen.integers(2) else (0.5, 1.0)
            f = make_bump(r, "left" if a == 0.0 else "right")
            g, M = f, f.deriv_bound
            support_measure = b - a
        vals = np.abs(np.asarray(g(ts)))
        sel = (ts >= a) & (ts <= b)
        sup_ab = float(vals[sel].max())
        ok = ok and sup_ab <= M * (b - a) ** r / math.factorial(r) + 1e-9
        eps = float(vals.max())
        ok = ok and support_measure >= (math.factorial(r) * eps / M) ** (1 / r) - 1e-9
    verdict(9, ok, "500 random admissible g satisfy the sup-norm and "
                   "support-measure inequalities (slack 1e-9)")


def test_criterion_10_planner_boundaries():
    trivial = plan(5, 10.0, 4, 0.1).regime == "trivial_M_small"
    intractable = plan(5, 3840.0, 4, 0.5).regime == "intractable"
    alpha = SubsetSearchParams.from_problem(1, 1.0, math.exp(-1)).alpha
    alpha_ok = alpha == pytest.approx(5.0, abs=1e-12)
    ok = trivial and intractable and alpha_ok
    verdict(10, ok, f"trivial: {trivial}, intractable: {intractable}, "
                    f"alpha(1, 1, 1/e) = {alpha} == 5")
