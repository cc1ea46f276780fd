"""Rank-one tensors, query accounting and sup-norm machinery.

A rank-one tensor is a product f(x) = f_1(x_1) * ... * f_d(x_d) of
univariate factors.  Evaluation goes through a QueryOracle that counts
function calls; the count is the information cost of an algorithm.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from . import rng
from .errors import (FLOAT_MAX, FLOAT_MIN, BudgetExhaustedError, DomainError,
                     InstanceTooLargeError, check_float_range)
from .univariate import (KERNELS, PiecewisePolynomial, UnivariateFactor,
                         log_block_remainder)

DEFAULT_GRID = 10_001
DEFAULT_SAMPLES = 100_000
# cells (rows x d) of one block: value_batch works through its rows a
# block at a time, so no (rows, d) temporary grows past this whatever
# the number of rows
_BLOCK_CELLS = 2048
# cells (points x d x r) of one block of the 1-D grid in sup_norm and
# the bracket, and of the bracket's samples: at most 2 MiB per (points,
# d, r) temporary of the lines' evaluation, so a grid of 801 points at
# r = 5 is one block up to d = 65, and a sample block holds 26 rows at
# d = 2000; also the cells (lines x m x d) of one of recover's query slabs
_GRID_CELLS = 1 << 18


@dataclass(frozen=True)
class Box:
    """Axis-parallel box inside the unit cube."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.array(self.lower, dtype=float)  # copies, not the caller's arrays,
        hi = np.array(self.upper, dtype=float)  # read-only so the checks below hold
        lo.flags.writeable = hi.flags.writeable = False
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise DomainError("box corners must be d-vectors of equal length")
        if not np.all((lo >= 0) & (lo <= hi) & (hi <= 1)):  # so that NaN fails
            raise DomainError("box must satisfy 0 <= lower <= upper <= 1")

    @property
    def volume(self) -> float:
        return float(np.prod(self.upper - self.lower))


def _row_blocks(n: int, d: int, cells: int = _BLOCK_CELLS) -> Iterator[slice]:
    """Slices of at most cells // d rows (at least one) that cover range(n)."""
    step = max(1, cells // d)
    return (slice(s, min(s + step, n)) for s in range(0, n, step))


@dataclass(frozen=True)
class RankOneTensor:
    """d factors plus the class parameters (r, M, optional support volume V)."""

    factors: Tuple[UnivariateFactor, ...]
    r: int
    M: float
    support_volume: Optional[float] = None
    witness_box: Optional[Box] = None

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if len(self.factors) < 1:
            raise DomainError("need at least one factor")
        if any(f.r != self.r for f in self.factors):
            raise DomainError("all factors must share the same smoothness order r")
        if self.support_volume is not None and not 0 < self.support_volume < 1:
            raise DomainError("support volume V must lie in (0, 1)")
        log_partial = 0.0  # of the sup bounds: value_batch multiplies in factor order
        for f in self.factors:
            if f.sup_bound == 0:  # the products are 0 from here on
                break
            log_partial += math.log(abs(f.sup_bound))
            check_float_range(log_partial, "a product of the factors' sup bounds")
        object.__setattr__(self, "_functions_only",
                           all(f.fn is not None for f in self.factors))

    @property
    def d(self) -> int:
        return len(self.factors)

    @functools.cached_property
    def _groups(self) -> list:
        """One (columns, kernel, params (p, g)) per kind and parameter
        count of the closed-form factors; (i, None, None) for each factor
        i that is a function.  Built on first use."""
        keys: dict = {}
        for i, f in enumerate(self.factors):
            key = i if f.fn is not None else (f.kind, len(f.params))
            keys.setdefault(key, []).append(i)
        groups = []
        for cols in keys.values():
            f = self.factors[cols[0]]
            if f.fn is not None:
                groups.append((cols[0], None, None))
            else:
                groups.append((slice(None) if len(cols) == self.d else np.array(cols),
                               KERNELS[f.kind],
                               np.array([self.factors[i].params for i in cols]).T))
        return groups

    def _group_values(self, X, cols, kernel, P):
        if kernel is None:
            return self.factors[cols](X[:, cols])
        return kernel(X[:, cols], P, self.r)

    def factor_values(self, X: np.ndarray) -> np.ndarray:
        """f_i(X[:, i]) in column i; shape (rows, d).  Same-kind closed
        forms are evaluated together, with one kernel call."""
        X = np.asarray(X, dtype=float)
        groups = self._groups
        if len(groups) == 1 and isinstance(groups[0][0], slice):
            return self._group_values(X, *groups[0])
        V = np.empty(X.shape)
        for g in groups:
            V[:, g[0]] = self._group_values(X, *g)
        return V

    def value(self, x) -> float:
        return float(self.value_batch(np.asarray(x, dtype=float)[None])[0])

    def value_batch(self, X: np.ndarray) -> np.ndarray:
        """Values at each row of X; shape (k,).  The product runs over the
        factors in order: with closed-form factors one block of rows at a
        time, otherwise one factor call at a time, since a tensor of
        functions gains nothing from a (rows, d) block."""
        X = np.asarray(X, dtype=float)
        if self._functions_only:
            out = np.ones(len(X))
            for i, f in enumerate(self.factors):
                out *= f(X[:, i])
            return out
        out = np.empty(len(X))
        for rows in _row_blocks(len(X), self.d):
            out[rows] = np.multiply.reduce(self.factor_values(X[rows]), axis=1)
        return out


class QueryOracle:
    """Evaluation wrapper that counts queries and, with ``log``, keeps a
    copy of each queried point, in order, in ``query_log``.

    Single-owner mutable state: not shareable between threads, but
    transferable.  Exceeding the budget raises instead of answering.
    """

    def __init__(self, target: RankOneTensor, budget: Optional[int] = None,
                 log: bool = False):
        self.target = target
        self.budget = budget
        self.query_count = 0
        self.query_log: Optional[List[np.ndarray]] = [] if log else None

    @property
    def d(self) -> int:
        return self.target.d

    def require(self, k: int):
        """Raise BudgetExhaustedError unless k more queries fit the budget."""
        if self.budget is not None and self.query_count + k > self.budget:
            raise BudgetExhaustedError(
                f"budget {self.budget} exhausted ({self.query_count} used, {k} requested)")

    def evaluate(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.d,):
            raise DomainError(f"expected a {self.d}-vector, got shape {x.shape}")
        return float(self._query(x[None])[0])

    def evaluate_batch(self, X: np.ndarray) -> np.ndarray:
        """Evaluate all rows of X, charging one query per row."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.d:
            raise DomainError(f"expected shape (k, {self.d}), got {X.shape}")
        return self._query(X)

    def _query(self, X: np.ndarray) -> np.ndarray:
        """The values at the rows of the (k, d) array X, k queries charged
        and logged; points outside the cube, and NaN, are refused uncharged."""
        if not np.all((X >= 0) & (X <= 1)):
            raise DomainError("query point outside the unit cube")
        self.require(len(X))
        self.query_count += len(X)
        vals = self.target.value_batch(X)
        if self.query_log is not None:
            self.query_log.extend(row.copy() for row in X)
        return vals


def _grid_blocks(ts: np.ndarray, d: int, r: int = 1):
    """(cols, T) per block of columns of the 1-D grid ts, T[:, i] =
    ts[cols] for every axis i: a read-only (len(cols), d) view, with
    len(cols) d r at most _GRID_CELLS."""
    for cols in _row_blocks(len(ts), d * r, _GRID_CELLS):
        yield cols, np.broadcast_to(ts[cols, None], (cols.stop - cols.start, d))


def sup_norm(t: RankOneTensor, grid: int = DEFAULT_GRID) -> float:
    """Sup-norm of the product, exact up to the 1-D grid resolution.

    Rank-one structure makes the sup factorize: max|f| = prod_i max|f_i|.
    """
    fmax = np.zeros(t.d)
    for _, T in _grid_blocks(np.linspace(0.0, 1.0, grid), t.d):
        fmax = np.maximum(fmax, np.max(np.abs(t.factor_values(T)), axis=0))
    return float(np.prod(fmax))


def check_membership(t: RankOneTensor) -> Tuple[str, ...]:
    """The conditions t fails, as messages; () when t lies in every class
    it declares.  Never raises.  Compare the result with (), not as a
    bool: a nonempty tuple, truthy, means t fails.

    Always checks the plain class F: factor sup bounds <= 1, r-th
    derivative bounds <= M, no table factor at r >= 2.  When t declares a
    support volume V or a witness box, also checks the support class F_V:
    both are declared, the box has volume strictly above V, and every
    factor is nonzero on its interval of the box (1,000 grid points).
    """
    failures = []
    for i, f in enumerate(t.factors):
        if f.sup_bound > 1.0 + 1e-12:
            failures.append(f"factor {i}: sup bound {f.sup_bound} exceeds 1")
        if f.deriv_bound > t.M + 1e-12:
            failures.append(f"factor {i}: derivative bound {f.deriv_bound} exceeds M={t.M}")
    failures += _table_failures(t)
    if t.support_volume is None and t.witness_box is None:
        return tuple(failures)
    box = t.witness_box
    if t.support_volume is None or box is None:
        failures.append("support class requires a declared V and witness box")
    elif box.lower.shape != (t.d,):
        failures.append("witness box dimension mismatch")
    elif box.volume <= t.support_volume:
        failures.append(f"witness volume {box.volume} <= V={t.support_volume}")
    else:
        for i, f in enumerate(t.factors):
            lo, hi = box.lower[i], box.upper[i]
            if np.any(f(np.linspace(lo, hi, 1000)) == 0.0):
                failures.append(
                    f"factor {i} vanishes inside witness interval [{lo}, {hi}]")
    return tuple(failures)


def sup_distance_bound(t: RankOneTensor,
                       lines: PiecewisePolynomial,
                       scale: float,
                       grid: int = DEFAULT_GRID,
                       samples: int = DEFAULT_SAMPLES,
                       seed: int = 0) -> Tuple[float, float]:
    """Bracket the sup distance between f and A = scale * prod_i (g_i / scale).

    ``lines`` must be ``recover``'s ``line_interpolants`` for t, its d
    lines g_i on k blocks of r = t.r Chebyshev nodes: g_i f_i(z*_i) /
    scale interpolates f_i, so it errs by at most e_i = deriv_bound_i 2
    (1/(4k))^r / r! (``log_block_remainder``).  With s_i = sup_bound_i,
    upper is sum_i e_i prod_{j<i} (s_j + e_j) prod_{j>i} s_j plus the
    rounding allowance 8 d (r + 1) 2^-53 prod_i (s_i + e_i).  Why 8: f(x)
    and A(x) are products of d factors of about r + 1 roundings each, so
    together they err by about 2 d (r + 1) 2^-53 prod_i (s_i + e_i) to
    first order; the factor 4 is headroom for the barycentric
    amplification and the rounding of the node values.  That headroom
    covers the Lebesgue constant of r Chebyshev nodes only up to about
    r = 100, where it is 3.89: it is 4.19 at r = 160 and 4.75 at r = 386,
    and ``shifted_smooth`` runs to r = 170 and ``trig_smooth`` to r = 386.
    There the allowance is no bound and rests on the measured margin: over
    r = 20 to 380 at d = 2 and 6, the lower end stayed below 0.07 of the
    upper.  On ``shifted_smooth`` the lower end equals the upper in exact
    arithmetic; in 720 brackets of it and ``trig_smooth`` (r = 1..9,
    d <= 400) it passed the upper without allowance 139 times, by at
    most 1.8 of the 8 units.

    lower: the largest computed |f(x) - A(x)| at real points x, the best
    point on the d axis lines through y (y_i the argmax of |f_i| on
    ``grid`` points; all lines scanned at once with prefix and suffix
    products) and ``samples`` seeded random points, in blocks.

    Raises DomainError for a number of lines other than d, lines of
    another r, a table factor at r >= 2 (it has no bounded r-th
    derivative) and lower > upper (the lines are not recover's
    interpolants of t, or t's bounds are false); InstanceTooLargeError
    for an upper end past the float range or below its normal range.
    """
    d, r = t.d, t.r
    n, k, q = lines.values.shape
    if (n, q) != (d, r):
        raise DomainError(f"need {d} approximant lines of r = {r} nodes per piece, "
                          f"got {n} lines of {q}")
    if scale == 0:
        raise DomainError("scale must be nonzero")
    if tables := _table_failures(t):
        raise DomainError("; ".join(tables))

    e = (np.array([f.deriv_bound for f in t.factors])
         * math.exp(log_block_remainder(k, r)))
    s = np.array([f.sup_bound for f in t.factors])
    with np.errstate(over="ignore"):  # an infinite bound is refused below
        before, after = _prefix_suffix(np.stack((s + e, s)))
        upper = (float(np.sum(e * before[0] * after[1]))
                 + 8 * d * (r + 1) * 2.0 ** -53 * float(np.prod(s + e)))
    if not FLOAT_MIN <= upper <= FLOAT_MAX:  # so that NaN fails
        raise InstanceTooLargeError(f"the error bound {upper!r} is outside the normal "
                                    "float range")

    # f_i and g_i / scale as rows of (d, grid) arrays, filled by blocks of
    # grid columns; then, in place, row i becomes |f - A| on the line i of y
    ts = np.linspace(0.0, 1.0, grid)
    F = np.empty((d, grid))
    G = np.empty((d, grid))
    for cols, T in _grid_blocks(ts, d, r):
        F[:, cols] = t.factor_values(T).T
        G[:, cols] = lines(T).T / scale
    y = np.argmax(np.abs(F), axis=1)
    before, after = _prefix_suffix(np.stack((F[range(d), y], G[range(d), y])))
    F *= (before[0] * after[0])[:, None]
    G *= (before[1] * after[1] * scale)[:, None]
    F -= G
    i, j = np.unravel_index(np.argmax(np.abs(F, out=F)), F.shape)
    x = ts[y]
    x[i] = ts[j]

    # x, then the samples: row blocks of one stream, the same points as
    # one (samples, d) draw
    gen = rng.spawn(seed, 0x5D)
    lower = 0.0
    for rows in _row_blocks(1 + samples, d * r, _GRID_CELLS):
        X = gen.random((rows.stop - max(rows.start, 1), d))
        if rows.start == 0:
            X = np.vstack((x, X))
        av = np.multiply.reduce(lines(X) / scale, axis=1)
        lower = np.maximum(lower, np.max(np.abs(t.value_batch(X) - scale * av)))
    lower = float(lower)
    if not lower <= upper:
        raise DomainError(f"error bracket inverted ({lower!r} > {upper!r}): the lines are "
                          "not recover's interpolants of t, or its bounds are false")
    return upper, lower


def _prefix_suffix(V: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """prod_{j<i} V[..., j] from the left and prod_{j>i} V[..., j] from
    the right, for each i."""
    before, after = np.ones_like(V), np.ones_like(V)
    np.cumprod(V[..., :-1], axis=-1, out=before[..., 1:])
    np.cumprod(V[..., :0:-1], axis=-1, out=after[..., -2::-1])
    return before, after


def _table_failures(t: RankOneTensor) -> List[str]:
    """One message per table factor if r >= 2: a piecewise-linear table
    has no bounded r-th derivative there, whatever it declares."""
    return [f"factor {i}: a piecewise-linear table has no bounded r-th derivative "
            f"at r = {t.r}" for i, f in enumerate(t.factors)
            if f.kind == "explicit-table" and t.r > 1]
