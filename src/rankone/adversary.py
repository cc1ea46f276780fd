"""Fooling families and lower-bound harnesses.

The 2^d sign-orientation tensors with disjoint orthant supports make
any deterministic strategy with fewer than 2^d queries incur error 1,
and force a root-mean-square error of at least sqrt(2)/2 on randomized
strategies with at most 2^(d-1) queries (averaging over the family).
The harnesses here run arbitrary query strategies as black boxes over a
counting oracle and certify those floors empirically.
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

# A strategy receives an oracle and returns an evaluable approximant
# (callable on (k, d) arrays) or None, meaning the zero output.
Strategy = Callable[[QueryOracle], Optional[Callable[[np.ndarray], np.ndarray]]]
SeededStrategy = Callable[[QueryOracle, int], Optional[Callable[[np.ndarray], np.ndarray]]]


@dataclass(frozen=True)
class FoolingFamily:
    """2^d disjoint-support tensors indexed by orientation bitmask."""

    d: int
    r: int

    def __post_init__(self):
        if self.d < 1 or self.r < 1:
            raise ParameterError("d and r must be positive")
        make_bump(self.r, "left")  # M: InstanceTooLargeError from r = 151

    @property
    def M(self) -> float:
        """2^r r!, the bumps' r-th derivative bound."""
        return make_bump(self.r, "left").deriv_bound

    @property
    def size(self) -> int:
        return 2 ** self.d

    def member(self, k: int, sign: int = 1) -> RankOneTensor:
        """Tensor supported on orthant k (bit i set: right half on axis i)."""
        if not 0 <= k < self.size:
            raise ParameterError(f"orthant index {k} out of range")
        if sign not in (1, -1):
            raise ParameterError("sign must be +1 or -1")
        factors = []
        for i in range(self.d):
            f = make_bump(self.r, "right" if (k >> i) & 1 else "left")
            if i == 0 and sign == -1:
                f = f.scaled(-1.0)
            factors.append(f)
        return RankOneTensor(factors=tuple(factors), r=self.r, M=self.M)

    def corner(self, k: int) -> np.ndarray:
        """The cube corner where member k attains magnitude 1."""
        return np.array([1.0 if (k >> i) & 1 else 0.0 for i in range(self.d)])

    def support_box(self, k: int) -> Box:
        lo = np.array([0.5 if (k >> i) & 1 else 0.0 for i in range(self.d)])
        return Box(lower=lo, upper=lo + 0.5)

    def zero_member(self) -> RankOneTensor:
        """The zero tensor, also a member of the class."""
        zero = make_bump(self.r, "left").scaled(0.0)
        return RankOneTensor(factors=(zero,) * self.d, r=self.r, M=self.M)


def orthants_touched(x: np.ndarray) -> List[int]:
    """Bitmasks of all orthants whose closure contains x.

    A coordinate exactly at 1/2 touches both halves; this conservative
    convention only shrinks the set of certifiably untouched orthants.
    """
    masks = [0]
    for i, c in enumerate(x):
        if c < 0.5:
            bits = (0,)
        elif c > 0.5:
            bits = (1,)
        else:
            bits = (0, 1)
        masks = [m | (b << i) for m in masks for b in bits]
    return masks


def find_untouched_orthant(queries: List[np.ndarray], d: int) -> Optional[int]:
    """Smallest orthant index no query touches, or None."""
    covered = set()
    for x in queries:
        covered.update(orthants_touched(x))
    for k in range(2 ** d):
        if k not in covered:
            return k
    return None


def _support_error(tensor: RankOneTensor, family: FoolingFamily, k: int,
                   output, gen: np.random.Generator,
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

    Runs the strategy against the zero function to extract its query set,
    finds an orthant no query touches, and returns the certified error
    together with (orthant index, +member, -member): the strategy cannot
    distinguish the three inputs, so its error on the pair is at least 1.
    """
    family = FoolingFamily(d=d, r=r)
    if n >= family.size:
        raise ParameterError(f"n = {n} >= 2^d = {family.size}: no untouched orthant is guaranteed")
    oracle = QueryOracle(family.zero_member(), budget=n, log=True)
    output = strategy(oracle)
    k = find_untouched_orthant(oracle.query_log, d)
    if k is None:
        raise AssertionError(
            "no untouched orthant despite n < 2^d; queries sit on boundaries "
            "covering every orthant under the conservative convention")
    plus = family.member(k, +1)
    minus = family.member(k, -1)
    gen = rng.spawn(0, k)
    err = max(_support_error(plus, family, k, output, gen),
              _support_error(minus, family, k, output, gen))
    return max(err, 1.0) if output is None else err, (k, plus, minus)


@dataclass(frozen=True)
class RandomizedFoolReport:
    rms_error: float
    trial_errors: np.ndarray
    theorem_floor: float
    ci_halfwidth: float  # 3 standard errors of the mean squared error

    @property
    def passes_floor(self) -> bool:
        return self.rms_error >= self.theorem_floor - self.ci_halfwidth


def fool_randomized(strategy: SeededStrategy, d: int, r: int, n: int,
                    trials: int, seed: int = 0) -> RandomizedFoolReport:
    """Average-case harness: random signed member, black-box strategy run.

    Per trial a uniformly random signed member is hidden behind a
    budget-n oracle; the error is lower-estimated on the member's
    support orthant.  For n <= 2^(d-1) the expected RMS is at least
    sqrt(2)/2 for any strategy.
    """
    family = FoolingFamily(d=d, r=r)
    if d > 64:  # each trial draws its orthant index as one 64-bit integer
        raise ParameterError(f"the randomized harness needs d <= 64, got d = {d}")
    if n > 2 ** (d - 1):
        raise ParameterError(f"n = {n} exceeds 2^(d-1) = {2 ** (d - 1)}")
    if trials < 1:
        raise ParameterError("need at least one trial")
    errors = np.empty(trials)
    for t in range(trials):
        g = rng.spawn(seed, t)
        k = int(g.integers(0, family.size, dtype=np.uint64))
        sign = 1 if g.integers(2) else -1
        hidden = family.member(k, sign)
        oracle = QueryOracle(hidden, budget=n)
        output = strategy(oracle, int(g.integers(2 ** 63)))
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

