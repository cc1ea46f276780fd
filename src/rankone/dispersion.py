"""Point sets, Halton sequences and exact dispersion.

The dispersion of a point set is the volume of the largest axis-parallel
box containing none of its points.  The supremum over closed empty boxes
equals the maximum over open boxes whose faces lie on the coordinate
hyperplanes through the points or on the cube faces; this module
computes that maximum exactly, with an attained witness box: by gaps in
d = 1, by a planar sweep in d = 2, and in d >= 3 by cutting the first
axis into slabs whose points are solved in the other axes, down to the
planar sweep.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from . import rng
from .errors import FLOAT_MAX, InstanceTooLargeError, ParameterError
from .tensor import Box, _row_blocks

# d >= 3 sweeps up to (n+2)^(2(d-2)) slabs of O((n+2)^2) work each
SLAB_GUARD = 10 ** 9
# cells per block array of the planar sweep (rows = cells // (n+1), at
# least one), so memory stays O(n) while numpy does the O(n^2) work;
# dispersion_lower_estimate's (boxes, n, d) blocks are as large.
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
        # its own copy, with each -0.0 read as 0.0 (see _Best)
        pts = np.atleast_2d(np.asarray(self.points, dtype=float) + 0.0)
        if pts.size == 0:
            pts = pts.reshape(0, pts.shape[1] if pts.ndim == 2 and pts.shape[1] else 1)
        pts.flags.writeable = False  # so the checks below hold for its life
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
        with open(path, newline="") as fh:
            rows = [[float(c) for c in row] for row in csv.reader(fh) if row]
        if not rows:
            raise ParameterError(f"{path}: no points")
        if len({len(row) for row in rows}) > 1:
            raise ParameterError(f"{path}: rows have different numbers of coordinates")
        return cls(points=np.asarray(rows, dtype=float), provenance="explicit")


@dataclass(frozen=True)
class DispersionResult:
    value: float
    witness_box: Box


def _positive_ints(**counts):
    for name, v in counts.items():  # bool is an int, but not a count
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 1:
            raise ParameterError(f"{name} must be a positive integer, got {v!r}")


def radical_inverse(index, base: int):
    """Van der Corput radical inverse of ``index``, a nonnegative int or
    integer array, in the given base.  An index that reaches 0 before
    the others adds f * 0 = 0.0 per further step, so each value has the
    bits of the scalar loop."""
    i = np.asarray(index)
    f, r = 1.0, np.zeros(i.shape)
    while np.any(i > 0):
        f /= base
        r += f * (i % base)
        i = i // base
    return r[()]


def halton_rows(start: int, size: int, d: int) -> np.ndarray:
    """Rows start, ..., start + size - 1 of the Halton sequence in
    dimension d (bases: first d primes, index from 1), shape (size, d);
    a row has the same bits whatever rows come with it."""
    if d > len(_PRIMES):
        raise ParameterError(f"Halton prime table covers d <= {len(_PRIMES)}")
    i = np.arange(start + 1, start + size + 1)
    return np.stack([radical_inverse(i, p) for p in _PRIMES[:d]], axis=1)


def halton(n: int, d: int) -> PointSet:
    """First n Halton points in dimension d: ``halton_rows(0, n, d)``."""
    _positive_ints(n=n, d=d)
    return PointSet(points=halton_rows(0, n, d), provenance="halton")


def uniform_pointset(n: int, d: int, seed: int) -> PointSet:
    """n i.i.d. uniform points: the first n d doubles of ``rng.spawn(seed)``,
    in rows of d, so point i depends only on (seed, i, d) and a smaller n
    gives a prefix of the set."""
    _positive_ints(n=n, d=d)
    return PointSet(points=rng.spawn(seed).random((n, d)),
                    provenance=f"uniform(seed={seed})")


# ---------------------------------------------------------------------------
# Exact dispersion


class _Best:
    """Running maximum with the deterministic witness tie-break: the least
    (lower, upper) among the boxes of the largest volume.  With no -0.0
    among the offers (a PointSet holds none), floats that compare equal
    are the same float, so the result does not depend on the order of
    the offers."""

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
        box = Box(lower=np.array(self.lower), upper=np.array(self.upper))
        return DispersionResult(value=float(self.volume), witness_box=box)


def exact_dispersion(ps: PointSet) -> DispersionResult:
    """Largest empty open box with faces on point coordinates or cube faces.

    d=1 scans gaps; d=2 runs an exact planar maximal-empty-rectangle
    sweep in O(n) memory, so large n is fine: O(n^2) blocked numpy work
    for anchored rectangles, one O(n) pass for those at the left wall;
    d>=3 sorts the points once on axis 0, cuts it into slabs between
    pairs of walls, widest first, each slab a slice of the sorted points,
    and solves each slab's points in the other axes down to the planar
    sweep, which takes the slabs of a d = 3 level in chunks, each chunk's
    anchored rectangles and left-wall maxima in one array program, for
    at most (n+2)^(2d-2) <= 1e9 work; beyond that guard an error directs
    to dispersion_lower_estimate.
    """
    n, d = ps.points.shape
    if n == 0:
        return DispersionResult(value=1.0,
                                witness_box=Box(lower=np.zeros(d), upper=np.ones(d)))
    if d == 1:
        return _dispersion_1d(ps.points[:, 0])
    if d > 2 and (n + 2) ** (2 * d - 2) > SLAB_GUARD:
        raise InstanceTooLargeError(
            f"(n+2)^(2d-2) = {(n + 2) ** (2 * d - 2)} exceeds {SLAB_GUARD}; "
            "use dispersion_lower_estimate for a sampled lower estimate")
    best = _Best()
    _slabs(best, ps.points, 1.0, (), ())
    return best.result()


def _unique(xs: np.ndarray) -> np.ndarray:
    """np.unique of a finite float array: the same sort, then the first of
    each run.  np.unique itself imports numpy.ma on its first call."""
    xs = np.sort(xs)
    return xs[np.concatenate(([True], xs[1:] != xs[:-1]))]


def _dispersion_1d(xs: np.ndarray) -> DispersionResult:
    """The first widest gap, which is _Best's least box: the sorted gaps'
    left ends do not decrease, and only the last gap from each has a
    positive width."""
    coords = np.concatenate(([0.0], np.sort(xs), [1.0]))
    gaps = coords[1:] - coords[:-1]
    j = int(np.argmax(gaps))
    return DispersionResult(value=float(gaps[j]),
                            witness_box=Box(lower=coords[j:j + 1], upper=coords[j + 1:j + 2]))


def _slabs(best: _Best, pts: np.ndarray, c: float, lower: tuple, upper: tuple):
    """Offer the empty boxes of the points' slab in its last k >= 2 axes
    as (*lower, ...), (*upper, ...), of volume c times their own.

    k >= 3: the points are sorted once on the first axis, and each pair
    (a, b) of walls there (0, 1 and the coordinates), widest first, cuts
    the slab a < x < b, the points between the walls' searchsorted
    positions, solved in the other axes with prefix c (b - a), until
    c (b - a) falls below the best volume, which the later widths cannot
    raise.  k > 3 recurses one slab at a time.  k = 3 takes the pairs in
    chunks of at most _BLOCK_CELLS anchored cells (at least one slab),
    cut at the stop as it stands when the chunk starts: _anchored scores
    the chunk's slabs, padded to its largest, in one array program, and
    _left_wall takes the maxima of the slabs still at or above the stop
    in one pass, then witnesses those that reach the best volume, widest
    first.  k = 2: both on a batch of one slab.  The stop drops only
    boxes below the best volume, and _Best's result does not depend on
    the order of the offers, so the chunks find the value and witness of
    the slab-by-slab sweep."""
    if pts.shape[1] == 2:
        order = np.argsort(pts[:, 0], kind="stable")
        xs, ys = pts[order, 0], pts[order, 1]
        rights = np.concatenate((xs, [1.0]))
        _anchored(best, xs[None], xs[None], ys[None], rights[None], c, (lower,), (upper,))
        _left_wall(best, ys[None], rights[None], (len(xs),), np.array([c]), (lower,), (upper,))
        return
    srt = pts[np.argsort(pts[:, 0], kind="stable")]
    walls = _unique(np.concatenate(([0.0, 1.0], pts[:, 0])))
    first = np.searchsorted(srt[:, 0], walls, side="right")
    last = np.searchsorted(srt[:, 0], walls, side="left")
    lo, hi = np.triu_indices(len(walls), 1)
    widths = walls[hi] - walls[lo]
    order = np.argsort(-widths, kind="stable")
    lo, hi, bound = lo[order], hi[order], c * widths[order]  # bound: non-increasing
    if pts.shape[1] > 3:
        for i, j, cw in zip(lo, hi, bound):
            if cw < best.volume:
                break
            _slabs(best, srt[first[i]:last[j], 1:], cw, lower + (walls[i],), upper + (walls[j],))
        return
    # k = 3: rank[p] is the place of srt[p] in the planar sweep's order,
    # and n pads a slab's row: a padded anchor lies right of every point
    # and a padded point left of every anchor, so neither bounds or
    # forms a rectangle, a padded right edge is the right wall, and a
    # padded y of 1.0 puts the pads last in _left_wall's y order
    n = len(srt)
    sweep = np.argsort(srt[:, 1], kind="stable")
    rank = np.full(n + 1, n)
    rank[sweep] = np.arange(n)
    xk, yk = srt[sweep, 1], srt[sweep, 2]
    anchor_x = np.concatenate((xk, [np.inf]))
    point_x = np.concatenate((xk, [-np.inf]))
    right_x = np.concatenate((xk, [1.0]))
    ys = np.concatenate((yk, [1.0]))
    sizes = last[hi] - first[lo]
    pairs, start = len(bound), 0
    while start < pairs and bound[start] >= best.volume:
        stop, m = start + 1, sizes[start]  # m: the chunk's largest slab
        while stop < pairs and bound[stop] >= best.volume:
            grown = max(m, sizes[stop])
            if (stop + 1 - start) * grown * (grown + 1) > _BLOCK_CELLS:
                break
            stop, m = stop + 1, grown
        size, cs = sizes[start:stop], bound[start:stop]
        lowers = [lower + (a,) for a in walls[lo[start:stop]]]
        uppers = [upper + (b,) for b in walls[hi[start:stop]]]
        cols = np.arange(m + 1)
        idx = np.where(cols < size[:, None], first[lo[start:stop], None] + cols, n)
        keys = np.sort(rank[idx], axis=1)  # each slab's places in the sweep, then n
        # rights[s]: slab s's x in the sweep's order, then 1.0
        rights, row = right_x[keys], keys[:, :-1]
        y = ys[row]
        _anchored(best, anchor_x[row], point_x[row], y, rights, cs[:, None, None], lowers, uppers)
        live = np.count_nonzero(cs >= best.volume)  # cs is non-increasing
        _left_wall(best, y[:live], rights[:live], size[:live], cs[:live], lowers, uppers)
        start = stop


def _anchored(best: _Best, ax, xs, ys, rights, c, lowers, uppers):
    """Rectangles whose left edge passes through an anchor point, for a
    batch of S slabs.  Slab s has the anchors (ax[s], ys[s]) and the
    points (xs[s], ys[s]), both in x order, the right edges rights[s]
    (each point's x, then the right wall's 1.0), the prefix c (a scalar,
    or one per slab) and the corners lowers[s], uppers[s].  A rectangle is
    bounded above and below by the points before its right edge that lie
    right of its anchor; the others take the neutral values 1.0 and 0.0.
    The anchors come a block of rows at a time, each scored as an
    (S, rows, edges) array of volumes ((right - x) c) (hi - lo), -inf
    where no rectangle of the family is.  Only the columns from the
    block's first anchor on are built: no point before it lies right of
    any anchor of the block.  Only the entries equal to a block's maximum
    reach _Best, in row-major order, so every box that ties the overall
    maximum goes through its tie-break, and a block's arrays are freed
    before the next is built."""
    start = 0
    while start < ax.shape[1]:
        stop = start + max(1, _BLOCK_CELLS // (len(rights) * (rights.shape[1] - start)))
        px, py = ax[:, start:stop, None], ys[:, start:stop, None]
        xr, yr, rr = xs[:, None, start:], ys[:, None, start:], rights[:, None, start:]
        right_of = xr > px
        hi = np.ones(right_of.shape[:2] + rr.shape[2:])
        lo = np.zeros(hi.shape)
        np.copyto(hi[..., 1:], yr, where=right_of & (yr >= py))
        np.copyto(lo[..., 1:], yr, where=right_of & (yr <= py))
        np.minimum.accumulate(hi, axis=2, out=hi)
        np.maximum.accumulate(lo, axis=2, out=lo)
        vols = rr - px
        vols *= c
        vols *= hi - lo
        vols[..., :-1][~right_of] = -np.inf
        vmax = vols.max()
        if vmax >= best.volume:  # offer the entries equal to it, if it can win
            for s, b, j in zip(*np.nonzero(vols == vmax)):
                best.offer(float(vmax), (*lowers[s], px[s, b, 0], lo[s, b, j]),
                           (*uppers[s], rr[s, 0, j], hi[s, b, j]))
        start = stop


def _left_wall(best: _Best, ys, rights, sizes, cs, lowers, uppers):
    """Rectangles touching the left wall, for a batch of S slabs, in O(m)
    per slab after the sorts.  Slab s has the points (rights[s, :k],
    ys[s, :k]), k = sizes[s], in x order, pads at x = y = 1.0 up to the
    width m of ys, the right wall rights[s, m] = 1.0, the prefix cs[s]
    and the corners lowers[s], uppers[s].  Row j of a slab's family keeps
    the points before j; its boxes run from the left wall to rights[j]
    over the gaps between kept levels.  The largest is a maximal
    rectangle (Naamad, Lee and Hsu, 1984): a strip at the right wall, or
    the gap at x_q around a point q between the nearest points with a
    smaller x (its other gaps lie inside these), found by one monotone
    stack over the slabs in y order, each between two -inf that empty
    it.  A pad pops only points at x = 1.0, whose top stays 1.0, and its
    box repeats one of the slab's.  The slabs whose maximum reaches the
    best volume, widest first until cs[s] falls below it, go to
    _wall_witness."""
    S, m = ys.shape
    order, at = np.argsort(ys, axis=1, kind="stable"), np.arange(S)[:, None]
    # per slab, in y order: the levels 0.0, y, 1.0 and the right edges
    # 0.0, x, 0.0, then 1.0 for the strips
    levels = np.zeros((S, m + 2))
    levels[:, 1:-1], levels[:, -1] = ys[at, order], 1.0
    right = np.ones((S, 2 * m + 3))
    right[:, 1:m + 1], right[:, 0], right[:, m + 1] = rights[at, order], 0.0, 0.0
    key = right[:, :m + 2].ravel().tolist()
    key[::m + 2] = key[m + 1::m + 2] = [-np.inf] * S
    below, above, stack = [0] * len(key), [0] * len(key), []
    for p, x in enumerate(key):
        while stack and key[stack[-1]] >= x:
            above[stack.pop()] = p
        if stack:
            below[p] = stack[-1]
        stack.append(p)
    flat = levels.ravel()
    lo = np.concatenate((flat[below].reshape(S, -1), levels[:, :-1]), axis=1)
    top = np.concatenate((flat[above].reshape(S, -1), levels[:, 1:]), axis=1)
    # the strips' heights sum to 1, so vmax > 0 (c > 0), which no
    # candidate of zero height or width reaches
    vols = (cs[:, None] * right) * (top - lo)
    vmax = vols.max(axis=1)
    for s, k in enumerate(sizes):
        if cs[s] < best.volume:
            break
        if vmax[s] >= best.volume:  # else offer would reject the box
            _wall_witness(best, ys[s, :k], rights[s, :k + 1], cs[s], vmax[s],
                          lo[s][vols[s] == vmax[s]].min(), lowers[s], uppers[s])


def _wall_witness(best: _Best, ys, rights, c, vmax, lo, lower, upper):
    """Offer a slab's largest left-wall box, of volume vmax.  Rounding
    can let a box inside the largest tie its volume and win the
    tie-break, so the witness is picked from every row's gap above the
    winners' floor lo, as the row-by-row loop offered them."""
    # row j's gap from the topmost kept level lo (or the floor) upward,
    # in the rows from the one that first keeps a point at lo
    top = np.minimum.accumulate(np.concatenate(([1.0], np.where(ys > lo, ys, 1.0))))
    first = 0 if lo == 0.0 else int(np.argmax(ys == lo)) + 1
    rows = first + np.flatnonzero((c * rights[first:]) * (top[first:] - lo) == vmax)
    rows = rows[rights[rows] == rights[rows].min()]
    j = rows[top[rows] == top[rows].min()][0]
    best.offer(float(vmax), (*lower, 0.0, lo), (*upper, rights[j], top[j]))


def dispersion_lower_estimate(ps: PointSet, boxes: int = 10_000,
                              seed: int = 0) -> float:
    """Monte-Carlo lower estimate: best empty box among random candidates.

    Box k has lower corner lo and upper corner lo + u (1 - lo), with
    (lo, u) the k-th (2, d) draw of one stream; the boxes come a block
    at a time, so memory does not grow with ``boxes``, which must be
    positive."""
    _positive_ints(boxes=boxes)
    g = rng.spawn(seed, 0xD15)
    pts = ps.points
    best = 0.0
    for rows in _row_blocks(boxes, max(1, pts.size), _BLOCK_CELLS):
        lo, u = g.random((rows.stop - rows.start, 2, ps.d)).transpose(1, 0, 2)
        hi = lo + u * (1.0 - lo)
        vol = np.prod(hi - lo, axis=1)
        # only a box larger than the best so far can change it
        big = vol > best
        lo, hi, vol = lo[big, None], hi[big, None], vol[big]
        empty = ~np.any(np.all((pts > lo) & (pts < hi), axis=2), axis=1)
        if empty.any():
            best = float(vol[empty].max())
    return best


# ---------------------------------------------------------------------------
# Cost bounds


def disp_probability_bound(n: int, d: int, V: float) -> float:
    """Lower bound max(0, 1 - (e n / d)^(2d) 2^(-V n / 2)) on
    P(disp of n i.i.d. uniform points <= V).

    Read for phase 1, it bounds the probability that one shared sequence
    of n uniform points hits the support of every function in the
    support class at once."""
    _positive_ints(n=n, d=d)
    if not 0 < V < 1:  # so that NaN fails
        raise ParameterError("V must lie in (0, 1)")
    log_tail = 2 * d * math.log(math.e * n / d) - 0.5 * V * n * math.log(2.0)
    if log_tail >= 0:
        return 0.0
    return max(0.0, 1.0 - math.exp(log_tail))


def n_disp_upper(V: float, d: int) -> int:
    """Points sufficient for dispersion <= V: ceil(16 d log2(13/V) / V),
    the VC bound for boxes (BEHW), an existence count via random points.
    Past the float range it saturates at the largest finite float."""
    if not 0 < V < 1:
        raise ParameterError("V must lie in (0, 1)")
    _positive_ints(d=d)
    return math.ceil(min(16.0 * d * math.log2(13.0 / V) / V, FLOAT_MAX))
