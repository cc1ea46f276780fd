"""Reconstruction of a rank-one function from axis lines through a point.

Given z* with f(z*) != 0, the line restrictions
g_i(t) = f(z*_1, ..., t, ..., z*_d) satisfy
f(x) = f(z*) * prod_i (g_i(x_i) / f(z*)), so interpolating each line
and taking that normalized product reconstructs f.  Each normalized
line is f_i(x_i) / f_i(z*_i), so no power of f(z*) is ever formed and
the product stays in the float range at any d.  With k blocks of r
Chebyshev nodes per line the sup error decays like k^(-r);
``required_n2`` plans the least k the remainder bound allows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (BudgetTooSmallError, NonzeroCenterError, ParameterError,
                     check_float_range)
from .tensor import _GRID_CELLS, QueryOracle, _row_blocks
from .univariate import (PiecewisePolynomial, block_chebyshev_nodes, interpolate_line,
                         log_block_remainder)


@dataclass(frozen=True)
class RecoveryConfig:
    r: int
    budget_n2: int

    def __post_init__(self):
        if self.r < 1:
            raise ParameterError("smoothness order r must be a positive integer")
        if self.budget_n2 < 1:
            raise ParameterError("budget must be positive")


@dataclass(frozen=True)
class RankOneApproximant:
    """A(x) = f(z*) * prod_i (g_i(x_i) / f(z*)) from the d axis lines g_i,
    interpolated on one shared piece layout: ``line_interpolants.values``
    has shape (d, k, r), row i the values of line i at the nodes."""

    line_interpolants: PiecewisePolynomial
    center_value: float

    def __call__(self, x):
        """A at a d-vector (a float) or at each row of an (n, d) array."""
        x = np.asarray(x, dtype=float)
        c = self.center_value
        out = c * np.prod(self.line_interpolants(x) / c, axis=-1)
        return float(out) if x.ndim == 1 else out


def required_n2(d: int, r: int, M: float, eps: float) -> int:
    """Least budget 1 + d r k, k blocks of r Chebyshev nodes per line,
    with (1 + e_k)^d - 1 <= eps, and at least ``min_budget(d, r)``.

    e_k = M exp(log_block_remainder(k, r)) is the interpolation remainder
    of a line with r-th derivative <= M, and (1 + e_k)^d - 1 bounds
    sup|f - A| for factors of sup <= 1, wherever z* lies.  Computed in
    logs; a budget past the float range raises InstanceTooLargeError.
    """
    if d < 1 or r < 1 or not (M > 0 and eps > 0):  # so that NaN fails
        raise ParameterError("all planner inputs must be positive")
    # log of the line allowance expm1(log1p(eps) / d), even if it underflows
    log_u = math.log(math.log1p(eps)) - math.log(d)
    u = math.exp(log_u)
    log_e = log_u + (math.log(math.expm1(u) / u) if u else 0.0)
    log_k = (math.log(M) + log_block_remainder(1, r) - log_e) / r
    check_float_range(math.log(d * r) + max(log_k, 0.0), "the phase-2 budget n2")
    # the slack keeps a tie (a whole k in exact arithmetic) from rounding up
    return max(1 + d * r * math.ceil(math.exp(log_k) * (1 - 1e-12)), min_budget(d, r))


def min_budget(d: int, r: int) -> int:
    """Smallest budget recover accepts: center plus max(r, 2) nodes per line."""
    return 1 + d * max(r, 2)


def pieces_per_line(cfg: RecoveryConfig, d: int) -> int:
    """k = floor(m / r) blocks of r nodes on each of d axis lines, where
    m = floor((budget_n2 - 1) / d) is what the budget leaves each line
    after the center; BudgetTooSmallError below ``min_budget(d, r)``."""
    m = (cfg.budget_n2 - 1) // d
    if cfg.budget_n2 < min_budget(d, cfg.r):
        raise BudgetTooSmallError(f"budget {cfg.budget_n2} gives {m} nodes per line; "
                                  f"need budget >= {min_budget(d, cfg.r)}")
    return m // cfg.r


def recover(oracle: QueryOracle, z_star, cfg: RecoveryConfig) -> RankOneApproximant:
    """Reconstruct a rank-one approximant from axis lines through z*.

    Samples ``pieces_per_line`` blocks of r Chebyshev nodes per axis
    line, reusing the center sample when a node coincides with z*_i.
    Total queries <= budget_n2.
    """
    z = np.asarray(z_star, dtype=float)
    d = oracle.d
    if z.shape != (d,):
        raise ParameterError(f"z* must be a {d}-vector")
    k = pieces_per_line(cfg, d)

    center = oracle.evaluate(z)
    if center == 0.0:
        raise NonzeroCenterError("f(z*) = 0: recovery requires a nonzero center")

    # the d axis lines, queried in axis-major order as (lines, k r, d) slabs
    # of at most _GRID_CELLS cells once the budget is known to cover
    # them all; a node equal to z*_i reuses f(z*) instead of a query
    nodes = block_chebyshev_nodes(k * cfg.r, cfg.r)
    query = nodes != z[:, None]
    oracle.require(int(query.sum()))
    vals = np.full(query.shape, center)
    for lines in _row_blocks(d, len(nodes) * d, _GRID_CELLS):
        axes = np.arange(lines.stop - lines.start)
        points = np.tile(z, (len(axes), len(nodes), 1))
        points[axes, :, lines.start + axes] = nodes
        vals[lines][query[lines]] = oracle.evaluate_batch(points[query[lines]])
    return RankOneApproximant(interpolate_line(vals, cfg.r), center)
