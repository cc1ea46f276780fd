"""Fooling families and lower-bound harnesses.

The 2^d sign-orientation tensors with disjoint orthant supports make
any deterministic strategy with fewer than 2^d queries incur error 1,
and force a root-mean-square error of at least sqrt(2)/2 on randomized
strategies with at most 2^(d-1) queries (averaging over the family).
The harnesses here run arbitrary query strategies as black boxes over a
counting oracle and certify those floors empirically.

Member k is nonzero only on the open orthant of k's bits (x_i > 1/2
where bit i is set, x_i < 1/2 where it is clear), so a query with a
coordinate at exactly 1/2 reads 0 on every member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from . import rng
from .errors import ParameterError
from .tensor import Box, QueryOracle, RankOneTensor
from .univariate import make_bump

# strategy(oracle, seed) returns an evaluable approximant (callable on
# (k, d) arrays) or None, the zero output; a deterministic one runs at seed 0.
Strategy = Callable[[QueryOracle, int], Optional[Callable[[np.ndarray], np.ndarray]]]


@dataclass(frozen=True)
class FoolingFamily:
    """2^d disjoint-support tensors indexed by orientation bitmask."""

    d: int
    r: int

    def __post_init__(self):
        if self.d < 1 or self.r < 1:
            raise ParameterError("d and r must be positive")
        # left and right bump (bit 0 and 1 of k); InstanceTooLargeError from r = 151
        object.__setattr__(self, "_bumps", (make_bump(self.r, "left"), make_bump(self.r, "right")))

    @property
    def M(self) -> float:
        """2^r r!, the bumps' r-th derivative bound."""
        return self._bumps[0].deriv_bound

    @property
    def size(self) -> int:
        return 2 ** self.d

    def _bits(self, k: int) -> List[int]:
        """Bit i of orthant index k: 1 for the right half on axis i."""
        if not 0 <= k < self.size:
            raise ParameterError(f"orthant index {k} out of range")
        return [(k >> i) & 1 for i in range(self.d)]

    def member(self, k: int, sign: int = 1) -> RankOneTensor:
        """Tensor supported on orthant k (bit i set: right half on axis i)."""
        if sign not in (1, -1):
            raise ParameterError("sign must be +1 or -1")
        factors = [self._bumps[b] for b in self._bits(k)]
        if sign == -1:
            factors[0] = factors[0].scaled(-1.0)
        return RankOneTensor(factors=tuple(factors), r=self.r, M=self.M)

    def corner(self, k: int) -> np.ndarray:
        """The cube corner where member k attains magnitude 1."""
        return np.array(self._bits(k), dtype=float)

    def support_box(self, k: int) -> Box:
        lo = 0.5 * self.corner(k)
        return Box(lower=lo, upper=lo + 0.5)

    def zero_member(self) -> RankOneTensor:
        """The zero tensor, also a member of the class."""
        zero = self._bumps[0].scaled(0.0)
        return RankOneTensor(factors=(zero,) * self.d, r=self.r, M=self.M)


def untouched_orthant(queries: np.ndarray) -> int:
    """Smallest orthant index k whose members read 0 at every row of the
    (n, d) array ``queries``: a row with a coordinate at 1/2 takes no index,
    any other row its sign pattern (bit i set where x_i > 1/2).  So k <= n,
    and only patterns below 2^L, L = n.bit_length(), can equal it, at any d.
    """
    X = np.asarray(queries, dtype=float)
    L = len(X).bit_length()
    right = X[~np.any(X == 0.5, axis=1)] > 0.5
    low = right[~np.any(right[:, L:], axis=1), :L]
    taken = np.zeros(2 ** L, dtype=bool)
    taken[low @ (1 << np.arange(low.shape[1]))] = True
    return int(np.argmin(taken))


def _support_error(tensor: RankOneTensor, family: FoolingFamily, k: int,
                   output, gen: rng.Stream,
                   samples: int = 256) -> float:
    """Lower estimate of sup|tensor - output| on the support orthant of
    member k, anchored at the corner where |tensor| = 1."""
    box = family.support_box(k)
    X = box.lower + (box.upper - box.lower) * gen.random((samples, family.d))
    X = np.vstack([X, family.corner(k)])
    tv = tensor.value_batch(X)
    ov = np.zeros(len(X)) if output is None else np.asarray(output(X), dtype=float)
    return float(np.max(np.abs(tv - ov)))


def fool_deterministic(strategy: Strategy, d: int, r: int, n: int,
                       ) -> Tuple[float, Tuple[int, RankOneTensor, RankOneTensor]]:
    """Certify error >= 1 for a deterministic strategy with n < 2^d queries.

    Runs strategy(oracle, 0) on the zero function to extract its query
    set, finds an orthant k whose members read 0 at every query, and
    returns the measured error with (k, +member, -member): the three inputs
    look alike to the strategy, and |f| = 1 at member k's corner, so the
    error is >= 1.
    """
    family = FoolingFamily(d=d, r=r)
    if n >= family.size:
        raise ParameterError(f"n = {n} >= 2^d = {family.size}: no untouched orthant is guaranteed")
    oracle = QueryOracle(family.zero_member(), budget=n, log=True)
    output = strategy(oracle, 0)
    k = untouched_orthant(np.reshape(oracle.query_log, (-1, d)))
    plus = family.member(k, +1)
    minus = family.member(k, -1)
    gen = rng.spawn(0, k)
    err = max(_support_error(plus, family, k, output, gen),
              _support_error(minus, family, k, output, gen))
    return err, (k, plus, minus)


@dataclass(frozen=True)
class RandomizedFoolReport:
    rms_error: float
    trial_errors: np.ndarray
    theorem_floor: float
    ci_halfwidth: float  # 3 standard errors of the mean squared error

    @property
    def passes_floor(self) -> bool:
        return self.rms_error >= self.theorem_floor - self.ci_halfwidth


def fool_randomized(strategy: Strategy, d: int, r: int, n: int,
                    trials: int, seed: int = 0) -> RandomizedFoolReport:
    """Average-case harness: random signed member, black-box strategy run.

    Per trial a uniformly random signed member is hidden behind a
    budget-n oracle; the error is lower-estimated on the member's
    support orthant.  For n <= 2^(d-1) the expected RMS is at least
    sqrt(2)/2 for any strategy.
    """
    family = FoolingFamily(d=d, r=r)
    if d > 64:  # each trial draws its orthant index from one 64-bit word
        raise ParameterError(f"the randomized harness needs d <= 64, got d = {d}")
    if n > 2 ** (d - 1):
        raise ParameterError(f"n = {n} exceeds 2^(d-1) = {2 ** (d - 1)}")
    if trials < 1:
        raise ParameterError("need at least one trial")
    errors = np.empty(trials)
    for t in range(trials):
        g = rng.spawn(seed, t)
        k = g.bits(d)
        sign = 1 if g.bits(1) else -1
        hidden = family.member(k, sign)
        oracle = QueryOracle(hidden, budget=n)
        output = strategy(oracle, g.bits(63))
        errors[t] = _support_error(hidden, family, k, output, g)
    sq = errors ** 2
    mean_sq = float(sq.mean())
    se = float(sq.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    rms = math.sqrt(mean_sq)
    # convert the 3-SE band on E[e^2] to the RMS scale
    lo = max(mean_sq - 3 * se, 0.0)
    return RandomizedFoolReport(
        rms_error=rms,
        trial_errors=errors,
        theorem_floor=math.sqrt(2.0) / 2.0,
        ci_halfwidth=rms - math.sqrt(lo),
    )

