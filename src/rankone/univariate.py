"""Univariate factors and piecewise polynomial interpolation.

The one-dimensional building blocks: evaluable factors with declared
sup-norm and derivative bounds, and block-Chebyshev interpolation of
axis lines with its remainder bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import ParameterError, check_float_range


def _horner(X, P, r):
    """sum_j P[j] X^j by Horner's rule, as numpy's Polynomial evaluates it
    (its identity domain map 0.0 + X included)."""
    X = 0.0 + X
    out = P[-1] + X * 0
    for c in P[-2::-1]:
        out = c + out * X
    return out


def _sine(X, P, r):
    """a sin(2 pi k X + phi) + c."""
    a, k, phi, c = P
    return a * np.sin(2 * np.pi * k * X + phi) + c


# the closed form of each factor kind that has one, evaluated on a
# (rows, g) array X whose column j belongs to the factor with params P[:, j]
KERNELS = {"polynomial-piecewise": _horner, "trig": _sine}


@dataclass(frozen=True)
class UnivariateFactor:
    """An evaluable function on [0,1] with declared bounds.

    With ``fn`` None the factor is the closed form ``KERNELS[kind]``
    with the numbers ``params``; otherwise it is ``fn``, which must be
    exact, side-effect free and vectorized over
    numpy arrays.  ``sup_bound`` and ``deriv_bound`` are declared bounds
    on the sup-norm of the function and of its r-th derivative; they are
    supplied analytically at construction, never estimated.
    """

    fn: Optional[Callable[[np.ndarray], np.ndarray]]
    sup_bound: float
    deriv_bound: float
    r: int
    kind: str
    params: Tuple[float, ...] = ()

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.fn is not None:
            return self.fn(t)
        P = np.array(self.params)[:, None]
        return KERNELS[self.kind](t[..., None], P, self.r)[..., 0]

    def scaled(self, c: float) -> "UnivariateFactor":
        """The factor multiplied by the constant c."""
        return UnivariateFactor(
            fn=lambda t: c * self(t),
            sup_bound=abs(c) * self.sup_bound,
            deriv_bound=abs(c) * self.deriv_bound,
            r=self.r,
            kind=self.kind,
        )


def polynomial_factor(coeffs: Sequence[float], r: int) -> UnivariateFactor:
    """Factor given by polynomial coefficients (ascending order).

    deriv_bound is the exact sup of the r-th derivative on [0,1],
    computed from the differentiated coefficients via critical points.
    InstanceTooLargeError if either bound is past the float range.
    """
    c = np.asarray(coeffs, dtype=float)
    poly = np.polynomial.Polynomial(c)
    with np.errstate(over="ignore", invalid="ignore"):  # a bound past the range is refused below
        sup, deriv = _poly_abs_max(poly), _poly_abs_max(poly.deriv(r))
    for bound, what in ((sup, "sup bound"), (deriv, f"bound on the {r}-th derivative")):
        check_float_range(math.log(max(bound, 1.0)), f"the {what} of a polynomial factor")
    return UnivariateFactor(
        fn=None,
        sup_bound=sup,
        deriv_bound=deriv,
        r=r,
        kind="polynomial-piecewise",
        params=tuple(c.tolist()),
    )


def trig_factor(amplitude: float, frequency: float, phase: float, offset: float,
                r: int) -> UnivariateFactor:
    """Factor a*sin(2*pi*k*t + phi) + c with the analytic sup bound |a| + |c|
    and derivative bound |a| (2 pi |k|)^r; InstanceTooLargeError if either
    bound or (2 pi |k|)^r is past the float range."""
    a, k, phi, c = float(amplitude), float(frequency), float(phase), float(offset)
    sup = abs(a) + abs(c)
    check_float_range(math.log(max(sup, 1.0)),
                      f"the sup bound |a| + |c| of a trig factor at a = {a!r}, c = {c!r}")
    w = abs(2 * np.pi * k)
    if w:
        check_float_range(r * math.log(w) + math.log(max(abs(a), 1.0)),
                          f"the derivative bound |a| (2 pi |k|)^r of a trig factor "
                          f"at k = {k!r}, r = {r}")
    return UnivariateFactor(
        fn=None,
        sup_bound=sup,
        deriv_bound=abs(a) * w ** r,
        r=r,
        kind="trig",
        params=(a, k, phi, c),
    )


def table_factor(ts: Sequence[float], vals: Sequence[float], sup_bound: float,
                 deriv_bound: float, r: int) -> UnivariateFactor:
    """Piecewise-linear factor through a table, with declared bounds."""
    ts = np.asarray(ts, dtype=float)
    vals = np.asarray(vals, dtype=float)
    return UnivariateFactor(
        fn=lambda t: np.interp(t, ts, vals),
        sup_bound=float(sup_bound),
        deriv_bound=float(deriv_bound),
        r=r,
        kind="explicit-table",
    )


def make_bump(r: int, orientation: str, interval: Tuple[float, float] = (0.0, 1.0),
              ) -> UnivariateFactor:
    """One-sided bump on half of ``interval``, peak value 1 at the end point.

    For the canonical case interval=[0,1], orientation="left" this is
    f(t) = 2^r max{0, 1/2 - t}^r: f(0) = 1, f vanishes identically on
    [1/2, 1], and the sup of the r-th derivative is exactly 2^r r!.
    General intervals rescale affinely; the factor is defined as 0
    outside ``interval``.  The peak end must be the cube's (a = 0 for
    "left", b = 1 for "right"): inside (0, 1) the bump would jump from 0
    to 1 there, and no r-th derivative bound would hold.  A bound r!/h^r
    (h the half-width) past the float range raises InstanceTooLargeError.
    """
    if r < 1:
        raise ParameterError("smoothness order r must be a positive integer")
    a, b = float(interval[0]), float(interval[1])
    m = 0.5 * (a + b)
    h = m - a  # half-width; support has measure h
    if not h > 0:  # a < b, with a float between them
        raise ParameterError(f"degenerate interval [{a}, {b}]")
    if orientation not in ("left", "right"):
        raise ParameterError(f"orientation must be 'left' or 'right', got {orientation!r}")
    if (orientation == "left" and a != 0.0) or (orientation == "right" and b != 1.0):
        raise ParameterError(f"a {orientation} bump on [{a}, {b}] jumps at its peak end; "
                             "it must lie at the cube's end, 0 or 1")
    # |log h|: r! and h^r, which deriv_bound computes first, must be in range too
    check_float_range(math.lgamma(r + 1) + r * abs(math.log(h)),
                      f"the derivative bound r!/h^r of a bump of half-width h = {h!r} at r = {r}")

    if orientation == "left":
        def fn(t, a=a, m=m, h=h, r=r):
            t = np.asarray(t, dtype=float)
            return np.where((t >= a) & (t < m), np.maximum(0.0, (m - t) / h) ** r, 0.0)
    else:
        def fn(t, b=b, m=m, h=h, r=r):
            t = np.asarray(t, dtype=float)
            return np.where((t > m) & (t <= b), np.maximum(0.0, (t - m) / h) ** r, 0.0)

    return UnivariateFactor(
        fn=fn,
        sup_bound=1.0,
        deriv_bound=math.factorial(r) / h ** r,
        r=r,
        kind="bump",
    )


def _poly_abs_max(poly: np.polynomial.Polynomial) -> float:
    """Exact max of |p| on [0, 1] via the critical points of p."""
    cand = [0.0, 1.0]
    dp = poly.deriv()
    if dp.degree() >= 1:
        cand += [float(z.real) for z in dp.roots() if abs(z.imag) < 1e-12 and 0 <= z.real <= 1]
    return float(max(abs(poly(t)) for t in cand))


# ---------------------------------------------------------------------------
# Piecewise polynomial interpolation


class PiecewisePolynomial:
    """d piecewise polynomials of local degree < r on [0,1] that share
    one piece layout: k blocks of r Chebyshev nodes.

    Built from ``values``, each line's values at the nodes, shape
    (d, k, r); the layout follows from that shape.  Piece j covers
    [breakpoints[j], breakpoints[j+1]) and is row j of the (k, r) arrays
    ``nodes`` (``block_chebyshev_nodes(k r, r)``) and ``weights`` (their
    barycentric weights); its breakpoints sit at the midpoints between
    adjacent blocks' end nodes, with the first piece starting at 0 and
    the last ending at 1.  Evaluation gathers each point's row and
    applies the barycentric formula to all points at once; a point
    within 1e-300 of a node of its piece returns that node's value.
    """

    def __init__(self, values: np.ndarray):
        self.values = values
        _, k, r = values.shape
        self.nodes = nodes = block_chebyshev_nodes(k * r, r).reshape(k, r)
        inner = 0.5 * (nodes[:-1, -1] + nodes[1:, 0])
        self.breakpoints = np.concatenate(([0.0], inner, [1.0]))
        # w_i = 1 / prod_{l != i} (x_i - x_l) times a power of two, which cancels in the
        # ratio and keeps 1/prod in range at large k and r; the identity fills the diagonal
        diff = np.ldexp(nodes[:, :, None] - nodes[:, None, :], k.bit_length() + 1) + np.eye(r)
        self.weights = 1.0 / diff.prod(axis=-1)

    @property
    def pieces(self) -> int:
        return self.nodes.shape[0]

    def __call__(self, t):
        """Values at t, of t's shape.  t[..., i] is a point on line i, so
        t has d as its last axis; when that axis has stride 0 (one point
        for all lines, as from ``np.broadcast_to``), the piece lookup and
        the barycentric terms are made once per point and serve every
        line."""
        tf = np.asarray(t, dtype=float)
        d = len(self.values)
        if tf.ndim == 0 or tf.shape[-1] != d:
            raise ParameterError(f"points on {d} lines need a last axis of {d}, "
                                 f"got shape {tf.shape}")
        shared = tf.strides[-1] == 0
        if shared:
            tf = tf[..., 0]
        j = np.clip(np.searchsorted(self.breakpoints, tf, side="right") - 1,
                    0, self.pieces - 1)
        diff = tf[..., None] - self.nodes.take(j, axis=0)
        exact = np.abs(diff) <= 1e-300
        # guard exact node hits before dividing
        terms = self.weights.take(j, axis=0) / np.where(exact, 1.0, diff)
        # each point's row in the (lines x pieces, r) table of values;
        # shared, the lines form a leading axis: shape (d,) + j.shape
        k, r = self.nodes.shape
        table = self.values.reshape(-1, r)
        offsets = k * np.arange(d)
        rows = j + (offsets.reshape((-1,) + (1,) * j.ndim) if shared else offsets)
        out = _node_dot(terms, table, rows) / _node_sum(terms)
        if exact.any():
            *at, q = np.nonzero(np.broadcast_to(exact, rows.shape + (r,)))
            out[tuple(at)] = table[rows[tuple(at)], q]
        return np.moveaxis(out, 0, -1) if shared else out


def _node_sum(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=-1) bit for bit.  numpy adds fewer than 8 terms in
    order, starting from 0.0; doing the same one column at a time avoids
    its slow per-row reduction over a short last axis."""
    if a.shape[-1] >= 8:
        return a.sum(axis=-1)
    out = 0.0 + a[..., 0]
    for q in range(1, a.shape[-1]):
        out += a[..., q]
    return out


def _node_dot(terms: np.ndarray, table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """_node_sum(terms * table[rows]) bit for bit, terms broadcast
    against the gathered rows; below 8 nodes one column of table at a
    time, which spares numpy's slow loops over a short last axis."""
    if table.shape[1] >= 8:
        return _node_sum(terms * table.take(rows, axis=0))
    out = 0.0 + terms[..., 0] * table[:, 0].take(rows)
    for q in range(1, table.shape[1]):
        out += terms[..., q] * table[:, q].take(rows)
    return out


def interpolate_line(values, r: int) -> PiecewisePolynomial:
    """Blockwise degree-(r-1) interpolation on [0,1] of d lines sampled
    at the same m = k r nodes ``block_chebyshev_nodes(m, r)``.

    ``values`` has shape (d, m): row i holds line i's values at the m
    nodes, each consecutive group of r nodes defining one polynomial
    piece.  Reproduces any global polynomial of degree <= r-1 exactly.
    """
    if r < 1:
        raise ParameterError("smoothness order r must be a positive integer")
    vs = np.asarray(values, dtype=float)
    if vs.ndim != 2 or vs.shape[1] == 0 or vs.shape[1] % r:
        raise ParameterError(f"values must have shape (d, m), m a positive multiple "
                             f"of r={r}, got {vs.shape}")
    return PiecewisePolynomial(vs.reshape(len(vs), -1, r))


def block_chebyshev_nodes(m: int, r: int) -> np.ndarray:
    """r Chebyshev nodes in each of k = floor(m/r) equal blocks of [0,1].

    Returns r*k <= m sorted nodes; this is the node layout of
    ``PiecewisePolynomial``.
    """
    if m < r:
        raise ParameterError(f"need at least r={r} nodes, got m={m}")
    k = m // r
    # Chebyshev points of the first kind on (-1, 1), ascending
    theta = (2 * np.arange(r) + 1) * np.pi / (2 * r)
    ref = -np.cos(theta)
    lo, hi = np.arange(k)[:, None] / k, np.arange(1, k + 1)[:, None] / k
    return (0.5 * (lo + hi) + 0.5 * (hi - lo) * ref).ravel()


def log_block_remainder(k: float, r: int) -> float:
    """log of 2 (1/(4k))^r / r!: on k blocks of ``block_chebyshev_nodes``
    a function whose r-th derivative is bounded by M is interpolated to
    within M times this (Suli and Mayers, *An Introduction to Numerical
    Analysis*, 2003, ch. 6).  In logs, so that r! may pass the float range."""
    return math.log(2.0) - r * math.log(4.0 * k) - math.lgamma(r + 1)
