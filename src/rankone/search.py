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
from typing import Callable, Optional, Tuple

import numpy as np

from . import rng
from .dispersion import halton_rows, n_disp_upper
from .errors import FLOAT_MAX, LOG_FLOAT_MAX, ParameterError
from .recovery import required_n2
from .tensor import _GRID_CELLS, QueryOracle, _row_blocks

_CHUNK_CAP = 4096

STRATEGIES = ("single", "multi", "subset", "det")
# the search the paper runs in each regime of ``plan``
REGIME_STRATEGY = {"trivial_M_small": "single", "subset_search": "subset",
                   "support_class_random": "multi", "intractable": "multi",
                   "support_class_deterministic": "det"}


@dataclass(frozen=True)
class SubsetSearchParams:
    """Derived constants of the coordinate-subset search."""

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
        if 2 ** (r + 1) * rf > FLOAT_MAX:  # the constants below need it as a float
            raise ParameterError(f"subset search needs r <= 150, got r = {r}")
        delta = (1.0 / 2 ** (r + 1) + rf / (2.0 * M)) ** (1.0 / r) - 0.5
        d_star = max(1, math.ceil(
            math.log(1.0 / eps) / math.log(1.0 / (M / (2 ** (r + 1) * rf) + 0.5))))
        alpha = 1.0 + 2 ** (r + 1) * rf * math.log(1.0 / eps) / (2 ** r * rf - M)
        base = 3 ** r * M / (rf * eps)
        c_prob = (base ** (alpha / r) if alpha / r * math.log(base) < LOG_FLOAT_MAX
                  else FLOAT_MAX)
        return cls(delta_star=delta, d_star=d_star, alpha=alpha, c_prob=c_prob)


@dataclass(frozen=True)
class SearchOutcome:
    z_star: Optional[np.ndarray]  # present iff a nonzero was found
    value: Optional[float]        # f(z*) when found
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
                                 iterations=start + j + 1)
        start, c = start + size, 2 * c
    return SearchOutcome(z_star=None, value=None, iterations=n)


def search_uniform_single(oracle: QueryOracle, seed: int) -> SearchOutcome:
    """One uniform draw; succeeds with probability 1 when the zero set of
    an admissible f with large sup-norm has measure zero."""
    x = rng.spawn(seed).random(oracle.d)
    v = oracle.evaluate(x)
    if v != 0.0:
        return SearchOutcome(z_star=x, value=v, iterations=1)
    return SearchOutcome(z_star=None, value=None, iterations=1)


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
    """Coordinate-subset search.  Iteration i takes row i of one seeded
    stream, drawn row-major so that the points do not depend on how
    ``_scan`` chunks them: d keys, then d uniforms z.  The k = min(d*, d)
    coordinates with the smallest keys, a uniform k-subset, are free and
    take z; the rest take 1/2 + h (2z - 1), uniform in [1/2 - h, 1/2 + h]
    with h = min(delta*, 1/2), which keeps the queries in the cube and
    still covers the window the success bound counts on.

    The theory assumes d >= d*; for d < d* the subset is clamped to all
    coordinates, which degenerates to plain uniform search (the printed
    probability bound remains valid, it is just far from tight).
    """
    if n1 < 1:
        raise ParameterError("n1 must be positive")
    d = oracle.d
    k = min(params.d_star, d)
    half = min(params.delta_star, 0.5)
    g = rng.spawn(seed)

    def batch(start: int, size: int) -> np.ndarray:
        X = np.empty((size, d))
        for rows in _row_blocks(size, 2 * d, _GRID_CELLS):  # bounds the temporaries
            keys, z = g.random((rows.stop - rows.start, 2, d)).transpose(1, 0, 2)
            free = np.argpartition(keys, k - 1, axis=1)[:, :k]
            X[rows] = 0.5 + half * (2.0 * z - 1.0)
            np.put_along_axis(X[rows], free, np.take_along_axis(z, free, axis=1), axis=1)
        return X
    return _scan(oracle, n1, batch)


def run_search(strategy: str, oracle: QueryOracle, n1: int, seed: int,
               params: Optional[SubsetSearchParams] = None) -> SearchOutcome:
    """Run the phase-1 strategy named ``strategy``, one of STRATEGIES.  "subset"
    needs ``params``; "det" scans the first n1 Halton points, whatever the
    seed, and needs d <= 32."""
    if strategy == "single":
        return search_uniform_single(oracle, seed)
    if strategy == "multi":
        return search_uniform_multi(oracle, n1, seed)
    if strategy == "subset":
        if params is None:
            raise ParameterError("the subset strategy needs SubsetSearchParams")
        return search_subset(oracle, params, n1, seed)
    if strategy == "det":  # chunk by chunk: a hit stops the scan before the rest is built
        if n1 < 1:
            raise ParameterError("n1 must be positive")
        return _scan(oracle, n1, lambda start, size: halton_rows(start, size, oracle.d))
    raise ParameterError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")


def repeated_draws(q: float, *, n: Optional[int] = None,
                   p: Optional[float] = None) -> Tuple[int, float]:
    """n independent draws, each hitting with probability q: n and the
    probability 1 - (1 - q)^n that one of them hits.  Given p instead of
    n, n is the least with failure (1 - q)^n <= p, ceil(log p / log1p(-q)),
    saturated at FLOAT_MAX.  Both go through log1p(-q): 1 - q would round
    a q below float epsilon away, and loses digits of every other."""
    log_miss = math.log1p(-q)
    if n is None:
        n = math.ceil(min(math.log(p) / log_miss, FLOAT_MAX))
    return n, -math.expm1(n * log_miss)


def subset_success_bound(params: SubsetSearchParams, d: int, n1: int) -> float:
    """Success probability lower bound 1 - (1 - d^-alpha / C)^n1 of the
    subset search."""
    # a saturated c_prob stands for a C past the float range
    q = d ** (-params.alpha) / params.c_prob if params.c_prob < FLOAT_MAX else 0.0
    return repeated_draws(q, n=n1)[1]  # q < 1: d^-alpha <= 1 < c_prob


def plan(r: int, M: float, d: int, eps: float, V: Optional[float] = None,
         p: float = 0.5, prefer_deterministic: bool = False) -> BudgetPlan:
    """Select the applicable regime and fill in budgets and guarantees.

    Regimes: trivial_M_small (M <= r! eps: one draw suffices almost
    surely), subset_search (r! eps < M < 2^r r!), support_class_random /
    support_class_deterministic (M >= 2^r r! but a support volume V is
    declared), intractable (M >= 2^r r!, no V: any algorithm needs 2^d
    queries).  n2 always comes from ``required_n2``: whole blocks of r
    nodes per line, as few as the interpolation remainder proves keep
    the error <= eps, so ``recover`` spends all of it.

    Near M = 2^r r! the subset-search c_prob and n1 can pass the float
    range; they then saturate at the largest finite float, and with a
    saturated c_prob, success_prob_lower is the valid bound 0.0.
    """
    if r < 1 or d < 1 or not M > 0:  # so that NaN fails
        raise ParameterError("r, d must be positive integers and M > 0")
    if not 0 < eps < 1:
        raise ParameterError("eps must lie in (0, 1)")
    if not 0 < p < 1:
        raise ParameterError("failure probability p must lie in (0, 1)")
    if V is not None and not 0 < V < 1:
        raise ParameterError("V must lie in (0, 1)")
    rf = math.factorial(r)
    n2 = required_n2(d, r, M, eps)

    if M / eps <= rf:  # not M <= rf * eps: rf may pass the float range
        return BudgetPlan(n1=1, n2=n2, success_prob_lower=1.0, regime="trivial_M_small")
    if M < 2 ** r * rf:
        params = SubsetSearchParams.from_problem(r, M, eps)
        n1 = FLOAT_MAX  # unless each factor and the product are in range
        if params.c_prob < FLOAT_MAX and params.alpha * math.log(d) < LOG_FLOAT_MAX:
            n1 = min(params.c_prob * d ** params.alpha * math.log(1.0 / p), FLOAT_MAX)
        n1 = math.ceil(n1)
        return BudgetPlan(n1=n1, n2=n2,
                          success_prob_lower=subset_success_bound(params, d, n1),
                          regime="subset_search", subset_params=params)
    if V is not None:
        if prefer_deterministic:
            return BudgetPlan(n1=n_disp_upper(V, d), n2=n2, success_prob_lower=1.0,
                              regime="support_class_deterministic")
        n1, success = repeated_draws(V, p=p)
        return BudgetPlan(n1=n1, n2=n2, success_prob_lower=success,
                          regime="support_class_random")
    # curse of dimensionality: 2^d sentinel
    return BudgetPlan(n1=2 ** d, n2=n2, success_prob_lower=0.0, regime="intractable")
