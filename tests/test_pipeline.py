import itertools
import json
import math

import numpy as np
import pytest

from rankone import pipeline
from rankone.dispersion import n_disp_upper
from rankone.errors import ConfigError, DomainError, InstanceTooLargeError, ParameterError
from rankone.pipeline import (ExperimentConfig, convergence_sweep,
                              family_box_support, family_offcenter_triangle,
                              family_shifted_smooth, family_trig_smooth,
                              fit_order, run_pipeline, wilson_interval)
from rankone.search import (SubsetSearchParams, run_search, search_subset,
                            search_uniform_multi, search_uniform_single)
from rankone.tensor import QueryOracle, check_membership, sup_norm
from rankone.univariate import polynomial_factor
from rankone import rng


class TestWilsonInterval:
    def test_contains_proportion(self):
        lo, hi = wilson_interval(80, 100)
        assert lo < 0.8 < hi

    def test_zero_trials(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_extremes_clamped(self):
        lo, hi = wilson_interval(100, 100)
        assert hi == pytest.approx(1.0) and lo < 1.0


class TestFitOrder:
    def test_exact_power_law(self):
        pairs = [(n, n ** -2.0) for n in (10, 20, 40, 80, 160)]
        slope, stderr = fit_order(pairs)
        assert slope == pytest.approx(-2.0, abs=1e-10)
        assert stderr == pytest.approx(0.0, abs=1e-8)

    def test_noisy_power_law(self):
        gen = np.random.default_rng(0)
        pairs = [(n, 5.0 * n ** -3.0 * (1 + 0.01 * gen.standard_normal()))
                 for n in (8, 16, 32, 64, 128, 256)]
        slope, _ = fit_order(pairs)
        assert slope == pytest.approx(-3.0, abs=0.05)

    def test_nonpositive_filtered(self):
        pairs = [(10, 1.0), (20, 0.5), (40, 0.0), (80, 0.25), (160, 0.125),
                 (320, 0.0625)]
        slope, _ = fit_order(pairs)
        assert slope < 0

    def test_too_few_points(self):
        with pytest.raises(ParameterError):
            fit_order([(10, 1.0), (20, 0.5), (40, 0.25)])


class TestFamilies:
    def test_shifted_smooth_admissible(self):
        for seed in range(5):
            t = family_shifted_smooth(4, 5, 10.0, rng.spawn(seed))
            assert check_membership(t) == ()
            assert sup_norm(t) == pytest.approx(1.0)  # attained at the origin

    @pytest.mark.parametrize("r", range(1, 7))
    def test_shifted_smooth_declares_the_root_based_bounds(self, r):
        # the factors are monotone on [0, 1]: the declared bounds are the
        # ones polynomial_factor finds from critical points, bit for bit,
        # and the coefficients come from the same draws as one at a time
        M = 10.0
        bmax = min(M / math.factorial(r), 0.1)
        for seed in range(30):
            t = family_shifted_smooth(10, r, M, rng.spawn(seed, r))
            gen = rng.spawn(seed, r)
            for f in t.factors:
                coeffs = np.zeros(r + 1)
                coeffs[0], coeffs[1] = 1.0, -(0.1 * gen.random())
                coeffs[r] += -(bmax * gen.random())
                assert f.params == tuple(coeffs)
                exact = polynomial_factor(coeffs, r)
                assert f.sup_bound == exact.sup_bound == 1.0
                assert f.deriv_bound == exact.deriv_bound

    @pytest.mark.parametrize("r", range(1, 8))
    def test_shifted_smooth_derivative_bound_is_polyders(self, r):
        # c_r multiplied by r, r-1, ..., 1 is polyder's constant, bit for bit
        for d, seed in itertools.product((1, 10, 100), range(20)):
            t = family_shifted_smooth(d, r, 10.0, rng.spawn(seed, d))
            C = np.array([f.params for f in t.factors]).T
            polyder = np.abs(np.polynomial.polynomial.polyder(C, r)[0])
            declared = np.array([f.deriv_bound for f in t.factors])
            np.testing.assert_array_equal(declared.view(np.int64), polyder.view(np.int64))

    @pytest.mark.parametrize("r", range(1, 8))
    def test_shifted_smooth_in_class_for_every_M(self, r):
        # at r = 1 the linear term a t adds to the first derivative, which
        # once reached 0.152 at M = 0.1 (r = 1, seed 3 below); where the
        # factors were already in the class (r >= 2 or M >= 0.2) their
        # coefficients are still 1, -0.1 a and -min(M / r!, 0.1) b
        for M, seed in itertools.product((0.01, 0.05, 0.1, 0.19, 0.2, 10.0), range(5)):
            t = family_shifted_smooth(3, r, M, rng.spawn(7, r, seed))
            assert check_membership(t) == ()
            if r >= 2 or M >= 0.2:
                ab = rng.spawn(7, r, seed).random((3, 2))
                C = np.zeros((r + 1, 3))
                C[0] = 1.0
                C[1] = -(0.1 * ab[:, 0])
                C[r] += -(min(M / math.factorial(r), 0.1) * ab[:, 1])
                assert [f.params for f in t.factors] == [tuple(c) for c in C.T.tolist()]

    def test_trig_smooth_admissible(self):
        M = 0.2 * (2 * np.pi) ** 2
        t = family_trig_smooth(3, 2, M, rng.spawn(1))
        assert check_membership(t) == ()

    def test_box_support_measure(self):
        # the nonzero set is a product of intervals (lo, lo + V^(1/d)), lo
        # the family's draw for each factor in turn
        t = family_box_support(6, 1, 0.3, rng.spawn(2))
        gen, width = rng.spawn(2), 0.3 ** (1.0 / 6)
        for f in t.factors:
            lo = gen.random() * (1.0 - width)
            ts = np.clip(np.r_[GRID, lo + np.array([-1e-9, 0.0, 1e-9]),
                               lo + width + np.array([-1e-9, 0.0, 1e-9])], 0.0, 1.0)
            assert nonzero_exactly_on(f, lo, lo + width, ts)

    def test_offcenter_triangle_slope_within_class(self):
        t = family_offcenter_triangle(8, 1, 1.9, 0.2, rng.spawn(3))
        assert check_membership(t) == ()
        assert sup_norm(t) >= 0.2


GRID = np.linspace(0.0, 1.0, 20_001)


def nonzero_exactly_on(f, lo, hi, ts=GRID):
    """Whether f != 0 at the points of ts inside (lo, hi), and only there."""
    return np.array_equal(f(ts) != 0.0, (ts > lo) & (ts < hi))


def _measured_slope(f, n=20001):
    ts = np.linspace(0.0, 1.0, n)
    return float(np.max(np.abs(np.diff(f(ts)) / np.diff(ts))))


class TestTriangleFactor:
    def test_spike_across_the_cube_edge_keeps_its_values(self):
        # the trim once moved the zero end to t = 0: f(0) = 0 and slope
        # 6.67 against a declared 2.86
        f = pipeline.triangle_factor(-0.2, 0.5, 1.0, 1)
        assert float(f(0.0)) == pytest.approx(1.0 - 0.15 / 0.35, rel=1e-14)
        assert float(f(0.15)) == 1.0 and float(f(0.5)) == 0.0
        assert _measured_slope(f) <= f.deriv_bound * (1 + 1e-9)
        assert nonzero_exactly_on(f, -0.2, 0.5)
        g = pipeline.triangle_factor(0.6, 1.3, 1.0, 1)
        assert float(g(1.0)) == pytest.approx(1.0 - 0.05 / 0.35, rel=1e-14)
        assert _measured_slope(g) <= g.deriv_bound * (1 + 1e-9)
        assert nonzero_exactly_on(g, 0.6, 1.3)

    def test_spike_inside_the_cube_unchanged(self):
        f = pipeline.triangle_factor(0.25, 0.75, 0.8, 1)
        ts = np.linspace(0.0, 1.0, 1001)
        assert np.array_equal(f(ts), np.interp(ts, [0.0, 0.25, 0.5, 0.75, 1.0],
                                                [0.0, 0.0, 0.8, 0.0, 0.0]))
        assert nonzero_exactly_on(f, 0.25, 0.75) and f.deriv_bound == 0.8 / 0.25

    @pytest.mark.parametrize("d", [32, 64])
    def test_offcenter_triangle_within_declared_bounds(self, d):
        # at d = 32 the spikes are wider than the cube and once measured
        # slope 2.087 > M = 1.9; at d = 64 the peak was 1.024
        t = family_offcenter_triangle(d, 1, 1.9, 0.2, rng.spawn(6, 0))
        for f in t.factors:
            assert f.sup_bound <= 1.0
            assert float(np.max(f(np.linspace(0.0, 1.0, 2001)))) <= f.sup_bound
            assert _measured_slope(f) <= 1.9 * (1 + 1e-9)


class TestExperimentConfig:
    def test_unknown_field_rejected(self):
        with pytest.raises(ParameterError):
            ExperimentConfig.from_dict({"r": 1, "M": 1.0, "d": 2, "eps": 0.1,
                                        "family": "trig_smooth", "bogus": 1})

    def test_needs_tensor_or_family(self):
        with pytest.raises(ParameterError):
            ExperimentConfig.from_dict({"r": 1, "M": 1.0, "d": 2, "eps": 0.1})

    def test_unknown_family(self):
        with pytest.raises(ParameterError):
            ExperimentConfig.from_dict({"r": 1, "M": 1.0, "d": 2, "eps": 0.1,
                                        "family": "nope"})

    @pytest.mark.parametrize("field, value", [("d", 3), ("r", 2), ("M", 2.5), ("V", 0.04)])
    def test_tensor_spec_must_match_config(self, field, value):
        # equal numbers of another type agree: d 2 and 2.0, M 1 and 1.0
        spec = {"d": 2.0, "r": 1, "M": 1.0, "replicate": True,
                "factor": {"kind": "polynomial-piecewise", "coefficients": [0.5, 0.1]}}
        base = {"r": 1, "M": 1, "d": 2, "eps": 0.1}
        assert ExperimentConfig.from_dict({**base, "tensor_spec": spec}).make_tensor(0).d == 2
        with pytest.raises(ConfigError, match=f"tensor_spec {field} = "):
            ExperimentConfig.from_dict({**base, "tensor_spec": {**spec, field: value}})

    @pytest.mark.parametrize("extra", [{"grid": 1}, {"grid": 0}, {"samples": 0},
                                       {"grid": 801.0}, {"samples": "200"},
                                       {"M": math.nan}, {"M": math.inf}, {"eps": math.nan},
                                       {"V": math.nan}, {"p": -math.inf}])
    def test_bracket_sizes_validated(self, extra):
        # a NaN M was once reported as differing from the tensor_spec's M
        with pytest.raises(ConfigError, match="must be"):
            ExperimentConfig.from_dict({"r": 1, "M": 1.0, "d": 2, "eps": 0.1,
                                        "family": "trig_smooth", **extra})

    def test_roundtrip_serialization(self):
        cfg = ExperimentConfig.from_dict({"r": 2, "M": 1.0, "d": 3,
                                          "eps": 0.1, "family": "trig_smooth"})
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg


def small_config(**overrides):
    base = dict(r=5, M=10.0, d=3, eps=0.1, family="shifted_smooth",
                trials=5, seed=7, grid=801, samples=500)
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


class TestRunPipeline:
    def test_trivial_family_all_succeed(self):
        rows, summary = run_pipeline(small_config())
        assert summary["eps_success"] == summary["trials"] == 5
        assert summary["plan"]["regime"] == "trivial_M_small"
        assert all(r["found"] for r in rows)

    def test_rows_have_query_accounting(self):
        rows, summary = run_pipeline(small_config())
        for r in rows:
            assert r["queries_phase1"] == 1
            assert r["queries_phase2"] <= summary["plan"]["n2"]

    def test_empty_trials(self):
        rows, summary = run_pipeline(small_config(trials=0))
        assert rows == [] and summary["trials"] == 0
        assert summary["eps_success_freq"] is None

    def test_zero_output_convention(self):
        # bump tensor spec: uniform search with tiny n1 usually misses,
        # and a miss records error = sup_norm(f), not a crash
        spec = {"d": 6, "r": 1, "M": 2.0, "replicate": True,
                "factor": {"kind": "bump", "orientation": "left"}}
        cfg = ExperimentConfig.from_dict(dict(
            r=1, M=2.0, d=6, eps=0.1, V=0.015, tensor_spec=spec,
            strategy="multi", n1=2, trials=8, seed=0, grid=801, samples=500))
        rows, _ = run_pipeline(cfg)
        misses = [r for r in rows if not r["found"]]
        assert misses, "expected at least one miss at n1=2, theta=2^-6"
        for r in misses:  # the declared bounds and the grid max are both 1
            assert r["error_upper"] == r["error_lower"] == 1.0

    @staticmethod
    def narrow_peak_config(sup_bound):
        # peaks of 0.5 on (0.49, 0.51): one uniform draw misses them
        spec = {"d": 2, "r": 1, "M": 50.0, "replicate": True,
                "factor": {"kind": "explicit-table", "ts": [0, 0.49, 0.5, 0.51, 1],
                           "values": [0, 0, 0.5, 0, 0], "sup_bound": sup_bound,
                           "deriv_bound": 50.0}}
        return ExperimentConfig.from_dict(dict(
            r=1, M=50.0, d=2, eps=0.1, tensor_spec=spec, strategy="single",
            trials=3, grid=5, samples=1))

    def test_miss_brackets_the_sup_norm(self):
        # a miss outputs zero, which errs by sup|f|: at most the declared
        # prod_i sup_bound_i = 1, at least the grid max 0.5^2
        rows, _ = run_pipeline(self.narrow_peak_config(1.0))
        assert not any(r["found"] for r in rows)
        assert all((r["error_lower"], r["error_upper"]) == (0.25, 1.0) for r in rows)

    @pytest.mark.parametrize("sup_bound, error", [(0.4, DomainError),
                                                  (1e200, InstanceTooLargeError)],
                             ids=["false-bound", "past-float-range"])
    def test_miss_bracket_refusals(self, sup_bound, error):
        with pytest.raises(error):
            run_pipeline(self.narrow_peak_config(sup_bound))

    def test_reproducible_and_thread_invariant(self):
        r1, s1 = run_pipeline(small_config(trials=6))
        r2, s2 = run_pipeline(small_config(trials=6))
        assert r1 == r2
        assert s1 == s2

    @pytest.mark.parametrize("d", [150, 1000, 2000])
    def test_trivial_regime_at_large_d(self, d):
        # criterion 3's setting past the point where f(z*)^-(d-1) leaves
        # the float range (d = 150 raised OverflowError before)
        cfg = ExperimentConfig.from_dict(dict(
            r=5, M=10.0, d=d, eps=0.1, family="shifted_smooth", trials=2,
            seed=0, grid=801, samples=2000))
        rows, summary = run_pipeline(cfg)
        assert all(r["found"] and r["error_upper"] <= cfg.eps for r in rows)
        json.dumps(summary, allow_nan=False)
        if d >= 1000:  # whole blocks of r nodes per line: all of n2 is spent
            assert all(r["queries_phase2"] == summary["plan"]["n2"] for r in rows)


OFFCENTER = dict(r=1, M=1.9, d=6, eps=0.2, V=0.3, family="offcenter_triangle",
                 n1=300, trials=8, seed=3, grid=801, samples=500)
# M >= 2^r r! with a declared support volume: the support-class regimes
BOX = dict(r=1, M=4.0, d=2, eps=0.5, V=0.3, family="box_support",
           trials=4, seed=2, grid=801, samples=500)
# M <= r! eps: the planner has no subset parameters to hand a "subset" run
TRIVIAL = dict(r=2, M=1.5, d=4, eps=0.8, family="shifted_smooth", n1=20,
               trials=3, seed=5, grid=801, samples=500)


class TestPhase1Strategies:
    """Each trial's phase 1 is the matching search call, seeded with
    rng._mix(seed, trial, 1)."""

    @pytest.mark.parametrize("base, strategy, regime, search", [
        (OFFCENTER, "single", "subset_search", search_uniform_single),
        (OFFCENTER, "subset", "subset_search",
         lambda o, s: search_subset(o, SubsetSearchParams.from_problem(1, 1.9, 0.2),
                                    300, s)),
        (OFFCENTER, "det", "subset_search",
         lambda o, s: run_search("det", o, 300, s)),
        (BOX, "plan", "support_class_random",
         lambda o, s: search_uniform_multi(o, 2, s)),
        (BOX, "det", "support_class_deterministic",
         lambda o, s: run_search("det", o, n_disp_upper(0.3, 2), s)),
        (TRIVIAL, "subset", "trivial_M_small",
         lambda o, s: search_subset(o, SubsetSearchParams.from_problem(2, 1.5, 0.8),
                                    20, s)),
    ], ids=["single", "subset", "det", "plan-support-random",
            "det-support-deterministic", "subset-outside-its-regime"])
    def test_matches_direct_call(self, monkeypatch, base, strategy, regime,
                                 search):
        centers = []
        real_recover = pipeline.recover

        def recording_recover(oracle, z, config):
            centers.append(z)
            return real_recover(oracle, z, config)

        monkeypatch.setattr(pipeline, "recover", recording_recover)
        cfg = ExperimentConfig.from_dict(dict(base, strategy=strategy))
        rows, summary = run_pipeline(cfg)
        assert summary["plan"]["regime"] == regime
        expected_centers = []
        for trial, row in enumerate(rows):
            oracle = QueryOracle(cfg.make_tensor(trial))
            out = search(oracle, rng._mix(cfg.seed, trial, 1))
            assert row["found"] == out.found
            assert row["queries_phase1"] == oracle.query_count
            if out.found:
                expected_centers.append(out.z_star)
        assert expected_centers, "no trial found a nonzero point"
        assert len(centers) == len(expected_centers)
        for z, expected in zip(centers, expected_centers):
            np.testing.assert_array_equal(z, expected)


@pytest.mark.parametrize("family, r_max", [(family_shifted_smooth, 170),
                                            (family_trig_smooth, 386)],
                         ids=["shifted_smooth", "trig_smooth"])
def test_families_past_the_float_range(family, r_max):
    # r! and (2 pi)^r once raised OverflowError at r = 171 and r = 387
    gen = np.random.default_rng(0)
    t = family(2, r_max, 10.0, gen)
    assert all(0 <= f.deriv_bound <= 10.0 for f in t.factors)
    with pytest.raises(InstanceTooLargeError):
        family(2, r_max + 1, 10.0, gen)


def test_det_phase1_does_not_depend_on_the_seed():
    # det scans the Halton prefix; the pipeline once scanned a uniform set
    # drawn from each trial's seed
    spec = {"d": 2, "r": 1, "M": 2.0, "V": 0.2, "replicate": True,
            "factor": {"kind": "bump", "orientation": "right"}}
    runs = []
    for seed in (0, 7):
        rows, summary = run_pipeline(ExperimentConfig.from_dict(dict(
            r=1, M=2.0, d=2, eps=0.5, V=0.2, tensor_spec=spec, strategy="det",
            trials=3, seed=seed, grid=801, samples=500)))
        assert summary["plan"]["regime"] == "support_class_deterministic"
        runs.append([{k: v for k, v in row.items() if k != "seed"} for row in rows])
    assert runs[0] == runs[1] and all(row["found"] for row in runs[0])


class TestConvergenceSweep:
    def test_errors_decrease(self):
        pairs = convergence_sweep(2, 2, [12, 24, 48, 96], seed=0,
                                  grid=1001, samples=200)
        errs = [e for _, e in pairs]
        assert errs == sorted(errs, reverse=True)

    def test_slope_near_minus_r(self):
        pairs = convergence_sweep(2, 2, [12, 24, 48, 96, 192], seed=0,
                                  grid=2001, samples=200)
        slope, _ = fit_order(pairs)
        assert slope <= -1.7
