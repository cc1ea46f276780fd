"""Reference computations for the benchmark's correctness checks.

Written apart from the ``rankone`` package, from the definitions alone,
so that a fault in the program's algorithms cannot hide in them too.
They use numpy only.
"""

from __future__ import annotations

import math

import numpy as np


def max_gap_dispersion_2d(pts: np.ndarray) -> float:
    """Largest empty open rectangle in [0, 1]^2, by enumeration.

    Every largest empty rectangle has its left edge at 0 or at a point's
    x, and its right edge at a point's x or at 1.  For a fixed x-range
    the best rectangle spans the widest gap between the walls and the y
    values of the points strictly inside that range.  So the dispersion
    is the maximum of width times widest gap over all such x-ranges:
    O(n^2) ranges with an O(n) gap scan each, vectorised per left edge.
    """
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    order = np.argsort(pts[:, 1], kind="stable")
    xs, ys = pts[order, 0], pts[order, 1]
    levels = np.concatenate(([0.0], ys, [1.0]))  # ascending; walls at the ends
    ux = np.unique(xs)
    best = 0.0
    for left in np.concatenate(([0.0], ux)):
        rights = np.concatenate((ux, [1.0]))
        rights = rights[rights > left]
        if rights.size == 0:
            continue
        inside = (xs[None, :] > left) & (xs[None, :] < rights[:, None])
        wall = np.ones((rights.size, 1), dtype=bool)
        kept = np.concatenate((wall, inside, wall), axis=1)
        # the last kept level at or below each slot (levels ascend)
        below = np.maximum.accumulate(np.where(kept, levels, -np.inf), axis=1)
        gaps = np.where(kept[:, 1:], levels[1:] - below[:, :-1], 0.0)
        best = max(best, float(((rights - left) * gaps.max(axis=1)).max()))
    return best


def brute_force_dispersion_3d(pts: np.ndarray) -> float:
    """Largest empty open box in [0, 1]^3 over every box whose faces lie
    on the points' coordinates or on the cube's faces."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 3)
    widths, insides = [], []
    for i in range(3):
        c = np.unique(np.concatenate(([0.0, 1.0], pts[:, i])))
        a, b = np.triu_indices(c.size, 1)
        lo, hi = c[a], c[b]
        widths.append(hi - lo)
        insides.append((pts[None, :, i] > lo[:, None]) & (pts[None, :, i] < hi[:, None]))
    iy = insides[1].astype(np.int64)
    iz_t = insides[2].astype(np.int64).T
    yz = np.outer(widths[1], widths[2])
    best = 0.0
    for wx, in_x in zip(widths[0], insides[0]):
        counts = (iy * in_x) @ iz_t  # points inside the x-, y- and z-ranges
        best = max(best, float(np.where(counts == 0, wx * yz, 0.0).max()))
    return best


def witness_ok(pts: np.ndarray, value: float, lower, upper,
               rel: float = 1e-12) -> bool:
    """The box lies in the cube, holds no point in its interior, and its
    volume equals ``value`` to ``rel`` relative."""
    pts = np.asarray(pts, dtype=float)
    lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
    if lower.shape != (pts.shape[1],) or upper.shape != lower.shape:
        return False
    if np.any(lower < 0) or np.any(upper > 1) or np.any(lower >= upper):
        return False
    if np.any(np.all((pts > lower) & (pts < upper), axis=1)):
        return False
    return agrees(float(np.prod(upper - lower)), value, rel)


def agrees(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def within_sigma(hits: int, n: int, p: float, k: float = 3.0) -> bool:
    """|hits/n - p| <= k sigma for a binomial(n, p) count."""
    return abs(hits / n - p) <= k * math.sqrt(p * (1.0 - p) / n)


def at_least(hits: int, n: int, p: float, k: float = 3.0) -> bool:
    """hits/n >= p - k sigma for a binomial(n, p) count."""
    return hits / n >= p - k * math.sqrt(max(p * (1.0 - p), 1e-12) / n)
