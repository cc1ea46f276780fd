"""Point sets, Halton sequences and exact dispersion.

The dispersion of a point set is the volume of the largest axis-parallel
box containing none of its points.  The supremum over closed empty boxes
equals the maximum over open boxes whose faces lie on the coordinate
hyperplanes through the points or on the cube faces; this module
computes that maximum exactly, with an attained witness box.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from . import rng
from .errors import InstanceTooLargeError, ParameterError
from .tensor import Box

EXHAUSTIVE_GUARD = 10 ** 9
# cells per block array of the planar sweep (rows = cells // (n+1), at
# least one), so memory stays O(n) while numpy does the O(n^2) work.
# 64 KiB arrays measured fastest at n = 301 and n = 1000; fixed 64-row
# blocks (155 KiB arrays at n = 301) were about 40 % slower there
_BLOCK_CELLS = 8192

# first 32 primes; enough for every Halton use in this package
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
           59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113,
           127, 131)


@dataclass(frozen=True)
class PointSet:
    """Finite list of points in [0,1]^d with generator provenance."""

    points: np.ndarray  # shape (n, d)
    provenance: str

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.size == 0:
            pts = pts.reshape(0, pts.shape[1] if pts.ndim == 2 and pts.shape[1] else 1)
        object.__setattr__(self, "points", pts)
        if not np.all(np.isfinite(pts)) or np.any(pts < 0) or np.any(pts > 1):
            raise ParameterError("all coordinates must be finite and lie in [0, 1]")

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def to_csv(self, path: str):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            for row in self.points:
                w.writerow([repr(float(c)) for c in row])

    @classmethod
    def from_csv(cls, path: str) -> "PointSet":
        rows = []
        with open(path, newline="") as fh:
            for row in csv.reader(fh):
                if row:
                    rows.append([float(c) for c in row])
        return cls(points=np.asarray(rows, dtype=float), provenance="explicit")


@dataclass(frozen=True)
class DispersionResult:
    value: float
    witness_box: Box


def radical_inverse(index: int, base: int) -> float:
    """Van der Corput radical inverse of ``index`` in the given base."""
    f, r = 1.0, 0.0
    while index > 0:
        f /= base
        r += f * (index % base)
        index //= base
    return r


def halton(n: int, d: int) -> PointSet:
    """First n Halton points in dimension d (bases: first d primes, index from 1)."""
    if n < 1 or d < 1:
        raise ParameterError("n and d must be positive")
    if d > len(_PRIMES):
        raise ParameterError(f"Halton prime table covers d <= {len(_PRIMES)}")
    pts = np.array([[radical_inverse(i, _PRIMES[j]) for j in range(d)]
                    for i in range(1, n + 1)])
    return PointSet(points=pts, provenance="halton")


def uniform_pointset(n: int, d: int, seed: int) -> PointSet:
    """n i.i.d. uniform points; point i is a pure function of (seed, i)."""
    if n < 1 or d < 1:
        raise ParameterError("n and d must be positive")
    return PointSet(points=rng.uniform_points(seed, n, d),
                    provenance=f"uniform(seed={seed})")


# ---------------------------------------------------------------------------
# Exact dispersion


class _Best:
    """Running maximum with the deterministic witness tie-break."""

    def __init__(self):
        self.volume = -1.0
        self.lower: Optional[Tuple[float, ...]] = None
        self.upper: Optional[Tuple[float, ...]] = None

    def offer(self, volume: float, lower: Sequence[float], upper: Sequence[float]):
        lo, hi = tuple(lower), tuple(upper)
        if volume > self.volume:
            self.volume, self.lower, self.upper = volume, lo, hi
        elif volume == self.volume and (lo, hi) < (self.lower, self.upper):
            self.lower, self.upper = lo, hi

    def result(self) -> DispersionResult:
        return DispersionResult(
            value=self.volume,
            witness_box=Box(lower=np.array(self.lower), upper=np.array(self.upper)),
        )


def exact_dispersion(ps: PointSet) -> DispersionResult:
    """Largest empty open box with faces on point coordinates or cube faces.

    d=1 scans gaps; d=2 runs an exact planar maximal-empty-rectangle
    sweep as blocked numpy array work, O(n^2) time and O(n) memory, so
    large n is fine; d>=3 uses pruned exhaustive enumeration guarded by
    the candidate count (n+2)^(2d) <= 1e9; beyond the guard an error
    directs to dispersion_lower_estimate.
    """
    if ps.n == 0:
        d = ps.d
        return DispersionResult(value=1.0,
                                witness_box=Box(lower=np.zeros(d), upper=np.ones(d)))
    if ps.d == 1:
        return _dispersion_1d(ps.points[:, 0])
    if ps.d == 2:
        return _dispersion_2d(ps.points)
    if (ps.n + 2) ** (2 * ps.d) > EXHAUSTIVE_GUARD:
        raise InstanceTooLargeError(
            f"(n+2)^(2d) = {(ps.n + 2) ** (2 * ps.d)} exceeds {EXHAUSTIVE_GUARD}; "
            "use dispersion_lower_estimate for a sampled lower estimate")
    return _dispersion_exhaustive(ps.points)


def _dispersion_1d(xs: np.ndarray) -> DispersionResult:
    coords = np.concatenate(([0.0], np.sort(xs), [1.0]))
    best = _Best()
    for a, b in zip(coords[:-1], coords[1:]):
        best.offer(b - a, (a,), (b,))
    return best.result()


def _dispersion_2d(pts: np.ndarray) -> DispersionResult:
    """Exact planar sweep: anchor-at-point rectangles plus left-wall gaps.

    Each family is evaluated one block of rows (anchors, or right edges)
    at a time as a (rows, n+1) array of volumes, where column j is the
    rectangle with right edge rights[j]; entries that are not rectangles
    of the family are -inf.  Only the entries equal to a block's maximum
    reach _Best, in row-major order, so every box that ties the overall
    maximum goes through its tie-break.  A block's arrays are freed
    before the next block is built.
    """
    order = np.argsort(pts[:, 0], kind="stable")
    xs, ys = pts[order, 0], pts[order, 1]
    rights = np.append(xs, 1.0)
    by_y = np.argsort(ys, kind="stable")
    levels = np.append(ys[by_y], 1.0)
    best = _Best()
    rows = max(1, _BLOCK_CELLS // len(rights))
    for start in range(0, len(xs), rows):
        _anchor_block(best, xs, ys, rights, start, start + rows)
    for start in range(0, len(rights), rows):
        _left_wall_block(best, by_y, levels, rights, start, start + rows)
    return best.result()


def _offer_max(best: _Best, vols: np.ndarray, lower, upper):
    """Offer the entries equal to the block maximum, if it can still win;
    lower(b, j) and upper(b, j) give the witness corners of entry (b, j)."""
    vmax = vols.max()
    if vmax >= best.volume:
        for b, j in zip(*np.nonzero(vols == vmax)):
            best.offer(float(vols[b, j]), lower(b, j), upper(b, j))


def _anchor_block(best: _Best, xs, ys, rights, start: int, stop: int):
    """Rectangles whose left edge passes through an anchor point, bounded
    above and below by the points between it and the right edge; the
    points not right of the anchor take the neutral values 1.0 and 0.0."""
    n = len(xs)
    px, py = xs[start:stop, None], ys[start:stop, None]
    right_of = xs > px
    hi = np.ones((len(px), n + 1))
    lo = np.zeros((len(px), n + 1))
    np.copyto(hi[:, 1:], ys, where=right_of & (ys >= py))
    np.copyto(lo[:, 1:], ys, where=right_of & (ys <= py))
    np.minimum.accumulate(hi, axis=1, out=hi)
    np.maximum.accumulate(lo, axis=1, out=lo)
    vols = hi - lo
    vols *= rights - px
    vols[:, :n][~right_of] = -np.inf
    _offer_max(best, vols, lambda b, j: (px[b, 0], lo[b, j]),
               lambda b, j: (rights[j], hi[b, j]))


def _left_wall_block(best: _Best, by_y, levels, rights, start: int, stop: int):
    """Rectangles touching the left wall: for right edge rights[j], the
    y-gaps between consecutive kept levels (the points before j in y
    order, then the top wall), each running down from the last kept level
    below it or from the floor.  That level is gathered by index, which
    keeps its sign of zero."""
    n = len(by_y)
    right = rights[start:stop, None]
    kept = np.ones((len(right), n + 1), dtype=bool)
    kept[:, :n] = by_y < np.arange(start, start + len(right))[:, None]
    last = np.zeros((len(right), n + 1), dtype=np.intp)
    np.copyto(last[:, 1:], np.arange(1, n + 1), where=kept[:, :n])
    np.maximum.accumulate(last, axis=1, out=last)
    below = np.append(0.0, levels)[last]
    vols = levels - below  # the gaps, then scaled in place to volumes
    kept &= (vols > 0.0) & (right > 0.0)
    vols *= right
    vols[~kept] = -np.inf
    _offer_max(best, vols, lambda b, j: (0.0, below[b, j]),
               lambda b, j: (right[b, 0], levels[j]))


def _dispersion_exhaustive(pts: np.ndarray) -> DispersionResult:
    """Pruned DFS over candidate faces, exact for small instances."""
    n, d = pts.shape
    coords = [np.unique(np.concatenate(([0.0, 1.0], pts[:, i]))) for i in range(d)]
    # candidate (a, b) pairs per axis, widest first for pruning
    pairs = []
    for i in range(d):
        c = coords[i]
        ax = [(c[a], c[b]) for a in range(len(c)) for b in range(a + 1, len(c))]
        ax.sort(key=lambda p: p[0] - p[1])  # descending width
        pairs.append(ax)
    best = _Best()
    lower = [0.0] * d
    upper = [1.0] * d

    def descend(axis: int, mask: np.ndarray, volume: float):
        if axis == d:
            if not mask.any():
                best.offer(volume, lower, upper)
            return
        if not mask.any():
            # already empty: extend remaining axes to the full cube
            for i in range(axis, d):
                lower[i], upper[i] = 0.0, 1.0
            best.offer(volume, lower, upper)
            return
        col = pts[:, axis]
        for a, b in pairs[axis]:
            w = b - a
            if volume * w < best.volume:
                break  # widths descend; nothing better on this axis
            lower[axis], upper[axis] = a, b
            descend(axis + 1, mask & (col > a) & (col < b), volume * w)

    descend(0, np.ones(n, dtype=bool), 1.0)
    return best.result()


def dispersion_lower_estimate(ps: PointSet, boxes: int = 10_000,
                              seed: int = 0) -> float:
    """Monte-Carlo lower estimate: best empty box among random candidates."""
    g = rng.spawn(seed, 0xD15)
    pts = ps.points
    best = 0.0
    for _ in range(boxes):
        lo = g.random(ps.d)
        hi = lo + g.random(ps.d) * (1.0 - lo)
        vol = float(np.prod(hi - lo))
        if vol > best:
            inside = np.all((pts > lo) & (pts < hi), axis=1)
            if not inside.any():
                best = vol
    return best


# ---------------------------------------------------------------------------
# Cost bounds


def disp_probability_bound(n: int, d: int, V: float) -> float:
    """Lower bound max(0, 1 - (e n / d)^(2d) 2^(-V n / 2)) on
    P(disp of n i.i.d. uniform points <= V).

    Read for phase 1, it bounds the probability that one shared sequence
    of n uniform points hits the support of every function in the
    support class at once."""
    if n < 1 or d < 1:
        raise ParameterError("n and d must be positive")
    log_tail = 2 * d * math.log(math.e * n / d) - 0.5 * V * n * math.log(2.0)
    if log_tail >= 0:
        return 0.0
    return max(0.0, 1.0 - math.exp(log_tail))


def n_disp_upper(V: float, d: int, method: str = "behw") -> int:
    """Points sufficient for dispersion <= V.

    behw: ceil(16 d log2(13/V) / V) (VC bound for boxes, existence via
    random points); halton: ceil(2^d * prod(first d primes) / V), the
    constructive but super-exponential Halton guarantee.
    """
    if not 0 < V < 1:
        raise ParameterError("V must lie in (0, 1)")
    if d < 1:
        raise ParameterError("d must be positive")
    if method == "behw":
        return math.ceil(16.0 * d * math.log2(13.0 / V) / V)
    if method == "halton":
        if d > len(_PRIMES):
            raise ParameterError(f"Halton prime table covers d <= {len(_PRIMES)}")
        prod = 1
        for p in _PRIMES[:d]:
            prod *= p
        return math.ceil((2 ** d) * prod / V)
    raise ParameterError(f"unknown method {method!r}")
