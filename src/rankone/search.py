"""Phase-1 search strategies and the budget planner.

Four ways of locating a point z* with f(z*) != 0: a single uniform
draw (enough with probability 1 when M <= r! eps), repeated uniform
draws (for the large-support class), the coordinate-subset search that
concentrates most coordinates near 1/2 (for r! eps < M < 2^r r!), and a
deterministic scan of a low-dispersion point set.  ``run_search`` is
the one place that maps a strategy name to its search.  The planner maps
problem parameters to budgets and success-probability guarantees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import rng
from .dispersion import PointSet, halton, n_disp_upper, uniform_pointset
from .errors import ParameterError
from .recovery import error_constant, min_budget, required_n2
from .tensor import QueryOracle

_CHUNK_CAP = 4096
_FLOAT_MAX = float(np.finfo(float).max)
# below this, exp(x) is finite even after rounding of the logs that give x
_LOG_FLOAT_MAX = math.log(_FLOAT_MAX) - 1e-9

STRATEGIES = ("single", "multi", "subset", "det")
# the search the paper runs in each regime of ``plan``
REGIME_STRATEGY = {"trivial_M_small": "single", "subset_search": "subset",
                   "support_class_random": "multi", "intractable": "multi",
                   "support_class_deterministic": "det"}


@dataclass(frozen=True)
class SubsetSearchParams:
    """Derived constants of the coordinate-subset search."""

    r: int
    M: float
    eps: float
    delta_star: float
    d_star: int
    alpha: float
    c_prob: float

    @classmethod
    def from_problem(cls, r: int, M: float, eps: float) -> "SubsetSearchParams":
        if r < 1:
            raise ParameterError("smoothness order r must be a positive integer")
        rf = math.factorial(r)
        if not 0 < eps < 1:
            raise ParameterError("eps must lie in (0, 1)")
        if not 0 < M < 2 ** r * rf:
            raise ParameterError(f"subset search requires 0 < M < 2^r r! = {2 ** r * rf}")
        delta = (1.0 / 2 ** (r + 1) + rf / (2.0 * M)) ** (1.0 / r) - 0.5
        d_star = max(1, math.ceil(
            math.log(1.0 / eps) / math.log(1.0 / (M / (2 ** (r + 1) * rf) + 0.5))))
        alpha = 1.0 + 2 ** (r + 1) * rf * math.log(1.0 / eps) / (2 ** r * rf - M)
        base = 3 ** r * M / (rf * eps)
        c_prob = (base ** (alpha / r) if alpha / r * math.log(base) < _LOG_FLOAT_MAX
                  else _FLOAT_MAX)
        return cls(r=r, M=M, eps=eps, delta_star=delta, d_star=d_star,
                   alpha=alpha, c_prob=c_prob)


@dataclass(frozen=True)
class SearchOutcome:
    z_star: Optional[np.ndarray]  # present iff a nonzero was found
    value: Optional[float]        # f(z*) when found
    queries_used: int
    iterations: int

    @property
    def found(self) -> bool:
        return self.z_star is not None


@dataclass(frozen=True)
class BudgetPlan:
    n1: int
    n2: int
    success_prob_lower: float
    regime: str
    r: int
    M: float
    d: int
    eps: float
    V: Optional[float] = None
    p: Optional[float] = None
    subset_params: Optional[SubsetSearchParams] = None


def _scan(oracle: QueryOracle, n: int,
          batch: Callable[[int, int], np.ndarray]) -> SearchOutcome:
    """Evaluate the points ``batch(start, size)`` in growing chunks of
    1, 2, 4, ... up to ``n`` points in all; the first nonzero wins."""
    start, c = 0, 1
    while start < n:
        size = min(c, n - start, _CHUNK_CAP)
        X = batch(start, size)
        vals = oracle.evaluate_batch(X)
        hit = np.nonzero(vals != 0.0)[0]
        if hit.size:
            j = int(hit[0])
            return SearchOutcome(z_star=X[j].copy(), value=float(vals[j]),
                                 queries_used=start + size,
                                 iterations=start + j + 1)
        start, c = start + size, 2 * c
    return SearchOutcome(z_star=None, value=None, queries_used=n, iterations=n)


def search_uniform_single(oracle: QueryOracle, seed: int) -> SearchOutcome:
    """One uniform draw; succeeds with probability 1 when the zero set of
    an admissible f with large sup-norm has measure zero."""
    x = rng.spawn(seed).random(oracle.d)
    v = oracle.evaluate(x)
    if v != 0.0:
        return SearchOutcome(z_star=x, value=v, queries_used=1, iterations=1)
    return SearchOutcome(z_star=None, value=None, queries_used=1, iterations=1)


def search_uniform_multi(oracle: QueryOracle, n1: int, seed: int) -> SearchOutcome:
    """Up to n1 i.i.d. uniform draws; first nonzero wins.

    Draws are consumed from one seeded stream, so the outcome for a given
    seed does not depend on internal evaluation batching.
    """
    if n1 < 1:
        raise ParameterError("n1 must be positive")
    g = rng.spawn(seed)
    return _scan(oracle, n1, lambda start, size: g.random((size, oracle.d)))


def search_subset(oracle: QueryOracle, params: SubsetSearchParams, n1: int,
                  seed: int) -> SearchOutcome:
    """Coordinate-subset search: per iteration, a uniform subset I of
    min(d*, d) coordinates is drawn free in [0,1]; the rest are drawn
    uniformly in [1/2 - delta*, 1/2 + delta*].

    The theory assumes d >= d*; for d < d* the subset is clamped to all
    coordinates, which degenerates to plain uniform search (the printed
    probability bound remains valid, it is just far from sharp).
    """
    if n1 < 1:
        raise ParameterError("n1 must be positive")
    d = oracle.d
    k = min(params.d_star, d)
    delta = params.delta_star
    g = rng.spawn(seed)
    for i in range(n1):
        subset = rng.floyd_sample(g, d, k)
        z = g.random(d)
        x = 0.5 + delta * (2.0 * z - 1.0)
        x[subset] = z[subset]
        v = oracle.evaluate(x)
        if v != 0.0:
            return SearchOutcome(z_star=x, value=v, queries_used=i + 1, iterations=i + 1)
    return SearchOutcome(z_star=None, value=None, queries_used=n1, iterations=n1)


def search_deterministic(oracle: QueryOracle, ps: PointSet) -> SearchOutcome:
    """Scan the point set in order; if disp(ps) <= V and f is nonzero on
    a box of volume > V, a nonzero is guaranteed to be found."""
    if ps.d != oracle.d:
        raise ParameterError(f"point set dimension {ps.d} != oracle dimension {oracle.d}")
    return _scan(oracle, ps.n, lambda start, size: ps.points[start:start + size])


def run_search(strategy: str, oracle: QueryOracle, n1: int, seed: int,
               params: Optional[SubsetSearchParams] = None,
               pointset: str = "uniform") -> SearchOutcome:
    """Run the phase-1 strategy named ``strategy``, one of STRATEGIES.  "subset"
    needs ``params``; "det" scans ``pointset``: "uniform" (from ``seed``) or "halton"."""
    if strategy == "single":
        return search_uniform_single(oracle, seed)
    if strategy == "multi":
        return search_uniform_multi(oracle, n1, seed)
    if strategy == "subset":
        if params is None:
            raise ParameterError("the subset strategy needs SubsetSearchParams")
        return search_subset(oracle, params, n1, seed)
    if strategy == "det":
        ps = (halton(n1, oracle.d) if pointset == "halton"
              else uniform_pointset(n1, oracle.d, seed))
        return search_deterministic(oracle, ps)
    raise ParameterError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")


def subset_success_bound(params: SubsetSearchParams, d: int, n1: int,
                         sharp: bool = False) -> float:
    """Success probability lower bound for the subset search.

    sharp=False gives the printed closed form 1 - (1 - d^-alpha / C)^n1;
    sharp=True uses the tighter intermediate per-iteration bound
    theta >= ((r! eps / M)^(1/r) * d* / (3d))^(d*).
    """
    if sharp:  # base >= 1 clamps q to 1; its d*-th power could overflow
        base = ((math.factorial(params.r) * params.eps / params.M) ** (1.0 / params.r)
                * params.d_star / (3.0 * d))
        q = base ** params.d_star if base < 1.0 else 1.0
    else:  # a saturated c_prob stands for a C past the float range
        q = d ** (-params.alpha) / params.c_prob if params.c_prob < _FLOAT_MAX else 0.0
    q = min(max(q, 0.0), 1.0)
    if q == 1.0:
        return 1.0
    # log-space: q can be far below float epsilon while n1*q is moderate
    return -math.expm1(n1 * math.log1p(-q))


def plan(r: int, M: float, d: int, eps: float, V: Optional[float] = None,
         p: float = 0.5, prefer_deterministic: bool = False) -> BudgetPlan:
    """Select the applicable regime and fill in budgets and guarantees.

    Regimes: trivial_M_small (M <= r! eps: one draw suffices almost
    surely), subset_search (r! eps < M < 2^r r!), support_class_random /
    support_class_deterministic (M >= 2^r r! but a support volume V is
    declared), intractable (M >= 2^r r!, no V: any algorithm needs 2^d
    queries).  n2 always comes from the reconstruction cost formula,
    raised to the smallest budget the reconstruction accepts.

    Near M = 2^r r! the subset-search c_prob and n1 can pass the float
    range; they then saturate at the largest finite float, and with a
    saturated c_prob, success_prob_lower is the valid bound 0.0.
    """
    if r < 1 or d < 1 or M <= 0:
        raise ParameterError("r, d must be positive integers and M > 0")
    if not 0 < eps < 1:
        raise ParameterError("eps must lie in (0, 1)")
    if not 0 < p < 1:
        raise ParameterError("failure probability p must lie in (0, 1)")
    if V is not None and not 0 < V < 1:
        raise ParameterError("V must lie in (0, 1)")
    rf = math.factorial(r)
    n2 = max(required_n2(d, r, M, eps, error_constant(r)), min_budget(d, r))

    if M <= rf * eps:
        return BudgetPlan(n1=1, n2=n2, success_prob_lower=1.0,
                          regime="trivial_M_small", r=r, M=M, d=d, eps=eps,
                          V=V, p=p)
    if M < 2 ** r * rf:
        params = SubsetSearchParams.from_problem(r, M, eps)
        n1 = _FLOAT_MAX  # unless each factor and the product are in range
        if params.c_prob < _FLOAT_MAX and params.alpha * math.log(d) < _LOG_FLOAT_MAX:
            n1 = min(params.c_prob * d ** params.alpha * math.log(1.0 / p), _FLOAT_MAX)
        n1 = math.ceil(n1)
        return BudgetPlan(n1=n1, n2=n2,
                          success_prob_lower=subset_success_bound(params, d, n1),
                          regime="subset_search", r=r, M=M, d=d, eps=eps,
                          V=V, p=p, subset_params=params)
    if V is not None:
        if prefer_deterministic:
            n1 = n_disp_upper(V, d, "behw")
            return BudgetPlan(n1=n1, n2=n2, success_prob_lower=1.0,
                              regime="support_class_deterministic", r=r, M=M,
                              d=d, eps=eps, V=V, p=p)
        if 1.0 - V < 1.0:
            n1 = max(1, math.ceil(math.log(p) / math.log(1.0 - V)))
            success = 1.0 - (1.0 - V) ** n1
        else:  # 1 - V rounds to 1.0: only the log1p form sees V
            n1 = math.ceil(min(math.log(p) / math.log1p(-V), _FLOAT_MAX))
            success = -math.expm1(n1 * math.log1p(-V))
        return BudgetPlan(n1=n1, n2=n2, success_prob_lower=success,
                          regime="support_class_random", r=r, M=M, d=d,
                          eps=eps, V=V, p=p)
    # curse of dimensionality: 2^d sentinel
    return BudgetPlan(n1=2 ** d, n2=n2, success_prob_lower=0.0,
                      regime="intractable", r=r, M=M, d=d, eps=eps, V=V, p=p)
