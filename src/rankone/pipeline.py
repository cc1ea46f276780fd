"""Experiment configuration, seeded pipelines and order-of-convergence fits.

A pipeline trial plans budgets, runs phase 1 (search), runs phase 2
(reconstruction) when a nonzero point was found, and measures the error
bracket.  Everything is a pure function of the master seed and the
configuration, so runs are reproducible.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields
from decimal import Decimal
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import rng
from .errors import (FLOAT_MIN, ConfigError, DomainError, InstanceTooLargeError,
                     ParameterError, check_float_range)
from .recovery import RecoveryConfig, recover
from .search import (REGIME_STRATEGY, STRATEGIES, BudgetPlan, SubsetSearchParams,
                     plan, run_search)
from .specs import tensor_from_spec
from .tensor import RankOneTensor, QueryOracle, sup_distance_bound, sup_norm
from .univariate import UnivariateFactor, table_factor, trig_factor


# The largest planned n1 that run_pipeline runs with n1 unset: 10^10
# subset-search iterations of 0.7 to 4 us (d = 10 to 100, shared 2-core
# Xeon host) are 2 to 11 hours when f vanishes where the search looks.
MAX_PLANNED_N1 = 10 ** 10


def wilson_interval(successes: int, trials: int, z: float = 1.96,
                    ) -> Tuple[float, float]:
    """Wilson score confidence interval for a binomial proportion."""
    if trials == 0:
        return 0.0, 1.0
    ph = successes / trials
    z2 = z * z
    denom = 1 + z2 / trials
    center = (ph + z2 / (2 * trials)) / denom
    half = z * math.sqrt(ph * (1 - ph) / trials + z2 / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def fit_order(pairs: Sequence[Tuple[float, float]]) -> Tuple[float, float]:
    """Least-squares slope of log(error) against log(n), with its standard error.

    Non-positive errors are dropped (with a stderr-independent warning by
    the caller); fewer than 4 surviving points is an error.
    """
    clean = [(n, e) for n, e in pairs if e > 0 and n > 0]
    if len(clean) < 4:
        raise ParameterError(f"need at least 4 positive (n, error) pairs, got {len(clean)}")
    x = np.log([n for n, _ in clean])
    y = np.log([e for _, e in clean])
    A = np.vstack([x, np.ones_like(x)]).T
    coef, res, *_ = np.linalg.lstsq(A, y, rcond=None)
    slope = float(coef[0])
    k = len(clean)
    if k > 2 and res.size:
        s2 = float(res[0]) / (k - 2)
        sxx = float(np.sum((x - x.mean()) ** 2))
        stderr = math.sqrt(s2 / sxx) if sxx > 0 else 0.0
    else:
        stderr = 0.0
    return slope, stderr


# ---------------------------------------------------------------------------
# Test-tensor families


def triangle_factor(support_lo: float, support_hi: float, peak: float,
                    r: int) -> UnivariateFactor:
    """Piecewise-linear spike, nonzero exactly on (support_lo, support_hi),
    restricted to [0, 1].  A spike that crosses 0 or 1 keeps its slope
    peak / half and is cut there, at its own nonzero value."""
    mid = 0.5 * (support_lo + support_hi)
    half = mid - support_lo

    def spike(t):
        return peak * (1.0 - abs(t - mid) / half) if support_lo < t < support_hi else 0.0

    ts = [0.0] + [t for t in (support_lo, mid, support_hi) if 0.0 < t < 1.0] + [1.0]
    return table_factor(ts, [spike(t) for t in ts], sup_bound=peak,
                        deriv_bound=peak / half, r=r)


def family_shifted_smooth(d: int, r: int, M: float, gen: np.random.Generator,
                          ) -> RankOneTensor:
    """Factors 1 - a t - b t^r with small random a, b: sup-norm exactly 1
    at the origin, r-th derivative bound b r! <= M (a + b <= M at r = 1,
    where the two terms share the first derivative).

    Each factor is monotone on [0, 1], so these bounds are declared
    rather than found from roots: sup 1 = p(0), and the r-th derivative
    is the constant c_r r!, multiplied up as r, r-1, ..., 1 in that
    order, which gives the bits of polyder(c, r)[0].  Needs r! in the
    float range (r <= 170); InstanceTooLargeError otherwise."""
    check_float_range(math.lgamma(r + 1), f"r! of shifted_smooth at r = {r}")
    amax = min(0.1, 0.5 * M) if r == 1 else 0.1
    bmax = amax if r == 1 else min(M / math.factorial(r), 0.1)
    ab = gen.random((d, 2))  # (a, b) per factor, drawn in factor order
    C = np.zeros((r + 1, d))  # column i: ascending coefficients of factor i
    C[0] = 1.0
    C[1] = -(amax * ab[:, 0])
    C[r] += -(bmax * ab[:, 1])
    deriv = np.abs(C[r])
    for k in range(r, 0, -1):
        deriv = deriv * k
    factors = tuple(
        UnivariateFactor(fn=None, sup_bound=1.0, deriv_bound=float(deriv[i]), r=r,
                         kind="polynomial-piecewise", params=tuple(C[:, i].tolist()))
        for i in range(d))
    return RankOneTensor(factors=factors, r=r, M=M)


def family_trig_smooth(d: int, r: int, M: float, gen: np.random.Generator,
                       ) -> RankOneTensor:
    """Factors a + b sin(2 pi t + phi): genuinely non-polynomial, bounded
    away from zero, derivative bound b (2 pi)^r <= M.  Needs (2 pi)^r in
    the float range (r <= 386); InstanceTooLargeError otherwise."""
    b = min(0.2, M / trig_factor(1.0, 1.0, 0.0, 0.0, r).deriv_bound)  # (2 pi)^r
    factors = []
    for _ in range(d):
        phi = 2 * np.pi * gen.random()
        factors.append(trig_factor(0.5 * b + 0.5 * b * gen.random(), 1.0, phi, 0.75, r))
    return RankOneTensor(factors=tuple(factors), r=r, M=M)


def family_box_support(d: int, r: int, V: float, gen: np.random.Generator,
                       ) -> RankOneTensor:
    """Product of triangle spikes with per-axis support V^(1/d): the
    nonzero set has measure exactly V."""
    alpha = V ** (1.0 / d)
    factors = []
    for _ in range(d):
        lo = gen.random() * (1.0 - alpha)
        factors.append(triangle_factor(lo, lo + alpha, 1.0, r))
    M = max(1.0, max(f.deriv_bound for f in factors))
    return RankOneTensor(factors=tuple(factors), r=r, M=M)


def family_offcenter_triangle(d: int, r: int, M: float, eps: float,
                              gen: np.random.Generator) -> RankOneTensor:
    """Most adversarial admissible spikes: minimal support given the
    product sup-norm target eps (slopes at the class bound M)."""
    peak = min(eps ** (1.0 / d) * 1.05, 1.0)  # small headroom over the minimum
    width = 2.0 * peak / M
    factors = []
    for _ in range(d):
        lo = gen.random() * (1.0 - width)
        factors.append(triangle_factor(lo, lo + width, peak, r))
    return RankOneTensor(factors=tuple(factors), r=r, M=M)


FAMILIES: Dict[str, Callable[..., RankOneTensor]] = {
    "shifted_smooth": family_shifted_smooth,
    "trig_smooth": family_trig_smooth,
    "box_support": family_box_support,
    "offcenter_triangle": family_offcenter_triangle,
}


# ---------------------------------------------------------------------------
# Experiment configuration and execution


# the type of each ExperimentConfig field; None is allowed where it is the default
_INT, _REAL = (numbers.Integral, "an integer"), (numbers.Real, "a finite real number")
_FIELD_TYPES = {"r": _INT, "M": _REAL, "d": _INT, "eps": _REAL, "V": _REAL, "p": _REAL,
                "tensor_spec": (dict, "an object"), "family": (str, "a string"),
                "strategy": (str, "a string"), "n1": _INT, "n2": _INT, "trials": _INT,
                "seed": _INT, "grid": _INT, "samples": _INT}


@dataclass
class ExperimentConfig:
    """Fully deterministic description of a pipeline experiment."""

    r: int
    M: float
    d: int
    eps: float
    V: Optional[float] = None
    p: float = 0.5
    tensor_spec: Optional[Dict[str, Any]] = None
    family: Optional[str] = None
    strategy: str = "plan"  # "plan" (by regime) or one of search.STRATEGIES
    n1: Optional[int] = None
    n2: Optional[int] = None
    trials: int = 100
    seed: int = 0
    grid: int = 10_001
    samples: int = 20_000

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "ExperimentConfig":
        if unknown := set(raw) - {f.name for f in fields(cls)}:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        try:
            cfg = cls(**raw)
        except TypeError as exc:
            raise ConfigError(str(exc))
        cfg.validate()
        return cfg

    def validate(self):
        for f in fields(self):
            value, (kind, what) = getattr(self, f.name), _FIELD_TYPES[f.name]
            if value is None and f.default is None:
                continue
            if (isinstance(value, bool) or not isinstance(value, kind)
                    or (kind is numbers.Real and not abs(value) < math.inf)):
                raise ConfigError(f"{f.name} must be {what}, got {value!r}")
        if self.tensor_spec is None and self.family is None:
            raise ConfigError("config needs either 'tensor_spec' or 'family'")
        # the run is planned with the config's values, so a spec must agree
        for name in ("d", "r", "M", "V"):
            spec_value = (self.tensor_spec or {}).get(name, getattr(self, name))
            if spec_value != getattr(self, name):
                raise ConfigError(f"tensor_spec {name} = {spec_value!r} differs from "
                                  f"the config's {name} = {getattr(self, name)!r}")
        if self.family is not None and self.family not in FAMILIES:
            raise ConfigError(
                f"unknown family {self.family!r}; choose from {sorted(FAMILIES)}")
        if self.strategy != "plan" and self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}")
        if self.trials < 0:
            raise ConfigError("trials must be nonnegative")
        # the bracket measures nothing on fewer points
        for name, least in (("grid", 2), ("samples", 1)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}, got {getattr(self, name)}")

    def to_dict(self) -> Dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def make_tensor(self, trial: int) -> RankOneTensor:
        if self.tensor_spec is not None:
            return tensor_from_spec(self.tensor_spec)
        gen = rng.spawn(self.seed, trial, 0xFA)
        fam = FAMILIES[self.family]
        if self.family == "box_support":
            return fam(self.d, self.r, self.V if self.V is not None else 0.3, gen)
        if self.family == "offcenter_triangle":
            return fam(self.d, self.r, self.M, self.eps, gen)
        return fam(self.d, self.r, self.M, gen)


def _run_phase1(cfg: ExperimentConfig, bp: BudgetPlan, oracle: QueryOracle,
                trial: int):
    strategy = REGIME_STRATEGY[bp.regime] if cfg.strategy == "plan" else cfg.strategy
    params = bp.subset_params
    if strategy == "subset" and params is None:  # outside the subset regime
        params = SubsetSearchParams.from_problem(cfg.r, cfg.M, cfg.eps)
    n1 = cfg.n1 if cfg.n1 is not None else bp.n1
    return run_search(strategy, oracle, n1, rng._mix(cfg.seed, trial, 1), params)


def run_trial(cfg: ExperimentConfig, bp: BudgetPlan, trial: int) -> Dict[str, Any]:
    tensor = cfg.make_tensor(trial)
    oracle = QueryOracle(tensor)
    outcome = _run_phase1(cfg, bp, oracle, trial)
    q1 = oracle.query_count
    row = {"trial": trial, "seed": rng._mix(cfg.seed, trial, 1),
           "queries_phase1": q1, "queries_phase2": 0,
           "found": outcome.found}
    n2 = cfg.n2 if cfg.n2 is not None else bp.n2
    if outcome.found:
        rec = recover(oracle, outcome.z_star, RecoveryConfig(r=cfg.r, budget_n2=n2))
        row["queries_phase2"] = oracle.query_count - q1
        upper, lower = sup_distance_bound(
            tensor, rec.line_interpolants, rec.center_value,
            grid=cfg.grid, samples=cfg.samples, seed=rng._mix(cfg.seed, trial, 2))
        row["error_upper"], row["error_lower"] = upper, lower
    else:  # zero output: the error is sup|f|, between its grid max and prod_i s_i
        sups = [f.sup_bound for f in tensor.factors]
        upper = math.prod(sups)
        lower = sup_norm(tensor, grid=cfg.grid)
        # RankOneTensor keeps it finite; 0.0 is exact only if a factor is zero
        if upper < FLOAT_MIN and all(sups):
            raise InstanceTooLargeError(f"the bound prod_i sup_bound_i = {upper!r} is "
                                        "outside the normal float range")
        if not lower <= upper:
            raise DomainError(f"error bracket inverted ({lower!r} > {upper!r}): "
                              "the declared sup bounds are false")
        row["error_upper"], row["error_lower"] = upper, lower
    return row


def run_pipeline(cfg: ExperimentConfig) -> Tuple[List[Dict[str, Any]], Dict[str, Any]]:
    """Execute all trials; returns (raw rows, aggregate summary).  A plan
    past MAX_PLANNED_N1 that the run would use raises InstanceTooLargeError."""
    bp = plan(cfg.r, cfg.M, cfg.d, cfg.eps, V=cfg.V, p=cfg.p,
              prefer_deterministic=(cfg.strategy == "det"))
    if cfg.n1 is None and cfg.strategy != "single" and bp.n1 > MAX_PLANNED_N1:
        raise InstanceTooLargeError(
            f"the {bp.regime} plan needs n1 = {Decimal(bp.n1):.3g} phase-1 "
            f"iterations, past MAX_PLANNED_N1 = {MAX_PLANNED_N1:.0e}; set n1 "
            "explicitly in the config to bound the search")
    rows = [run_trial(cfg, bp, t) for t in range(cfg.trials)]

    n_ok = sum(1 for r in rows if r["error_upper"] <= cfg.eps)
    n_found = sum(1 for r in rows if r["found"])
    lo, hi = wilson_interval(n_ok, len(rows))
    summary = {
        "config": cfg.to_dict(),
        "plan": {"regime": bp.regime, "n1": bp.n1, "n2": bp.n2,
                 "success_prob_lower": bp.success_prob_lower},
        "trials": len(rows),
        "found": n_found,
        "eps_success": n_ok,
        "eps_success_freq": n_ok / len(rows) if rows else None,
        "wilson_low": lo,
        "wilson_high": hi,
        "theorem_bound": bp.success_prob_lower,
        "max_error_upper": max((r["error_upper"] for r in rows), default=None),
    }
    return rows, summary


def convergence_sweep(d: int, r: int, budgets: Sequence[int], seed: int = 0,
                      grid: int = 10_001, samples: int = 20_000) -> List[Tuple[int, float]]:
    """Reconstruction error (telescoping upper bound) as a function of the
    phase-2 budget, over the smooth trigonometric family at M = 0.2 (2 pi)^r."""
    tensor = family_trig_smooth(d, r, 0.2 * (2 * np.pi) ** r, rng.spawn(seed, 0xC0))
    z = np.full(d, 0.41)  # fixed interior point; factors are nonzero everywhere
    pairs = []
    for n2 in budgets:
        oracle = QueryOracle(tensor)
        rec = recover(oracle, z, RecoveryConfig(r=r, budget_n2=int(n2)))
        upper, _ = sup_distance_bound(tensor, rec.line_interpolants,
                                      rec.center_value, grid=grid,
                                      samples=samples, seed=seed)
        pairs.append((int(n2), float(upper)))
    return pairs
