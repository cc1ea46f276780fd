"""Counter-based random number generation.

All randomness in this package flows through Philox counter-based
generators keyed by ``(seed, stream)``.  A draw for stream index ``i``
is a pure function of ``(seed, i)``, so results are reproducible and
independent of thread count or chunking.  ``uniform_points`` computes
the streams of a whole point set together: it writes numpy's
Philox4x64-10 out as uint64 array operations, so it never imports
``numpy.random``, and the tests check it against numpy's Philox.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as
# 1, 2, 3", SC'11), as numpy's Philox runs it: 10 rounds, each with
# multipliers (M1, M0) on the words (x2, x0), and the key increments
_ROUNDS = 10
_M = np.array([0xCA5A826395121157, 0xD2E7470EE14C6C93], dtype=np.uint64)[:, None]
_KEY_BUMP = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)[:, None]
_LO32 = np.uint64(0xFFFFFFFF)
_U1, _U11, _U31, _U32 = np.uint64(1), np.uint64(11), np.uint64(31), np.uint64(32)
# Philox blocks per pass of uniform_points: its temporaries are
# (2, _PASS_BLOCKS) uint64 arrays, 64 KiB whatever n and d are
_PASS_BLOCKS = 4096


def _mix(*stream: int) -> int:
    """Fold stream indices into one 64-bit word (splitmix-style)."""
    h = 0
    for s in stream:
        h = (h ^ (int(s) + 1)) * _GOLDEN & _MASK64
        h ^= h >> 31
    return h


def spawn(seed: int, *stream: int) -> np.random.Generator:
    """Return a generator keyed by ``seed`` and optional stream indices.

    Identical arguments always yield an identical stream; distinct stream
    indices give statistically independent streams.
    """
    key = np.array([int(seed) & _MASK64, _mix(*stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def uniform_points(seed: int, n: int, d: int) -> np.ndarray:
    """The first ``n`` uniform points in [0,1]^d for this seed, shape (n, d).

    Row ``i`` is ``spawn(seed, i).random(d)``: a pure function of
    ``(seed, i)``, so point sets do not depend on how they are batched.
    The n Philox streams are computed together as uint64 array work, a
    bounded number of streams per pass; the tests check every row
    against numpy's Philox, and ``numpy.random`` is not imported.
    """
    k0 = int(seed) & _MASK64
    blocks = -(-d // 4)  # a Philox block gives 4 words, one double each
    step = max(1, _PASS_BLOCKS // blocks)
    # a fresh Philox state increments its counter before the first block
    ctr = np.arange(1, blocks + 1, dtype=np.uint64)
    out = np.empty((n, d))
    for start in range(0, n, step):
        streams = np.arange(start, min(start + step, n), dtype=np.uint64)
        words = _philox4x64(k0, _mix_each(streams), ctr)
        # numpy's random(): the top 53 bits of each word, scaled by 2^-53
        out[start:start + len(streams)] = (words[:, :d] >> _U11) * 2.0 ** -53
    return out


def _mix_each(i: np.ndarray) -> np.ndarray:
    """``_mix(i)`` for each single stream index in the uint64 array i."""
    h = (i + _U1) * np.uint64(_GOLDEN)
    return h ^ (h >> _U31)


def _mulhi(a_lo: np.ndarray, a_hi: np.ndarray, x: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit products a * x, from the 32-bit limbs
    (a_lo, a_hi) of a and those of x."""
    x_lo, x_hi = x & _LO32, x >> _U32
    # neither partial sum can pass 2^64 - 1
    u = (a_lo * x_lo >> _U32) + a_lo * x_hi
    v = (u & _LO32) + a_hi * x_lo
    return a_hi * x_hi + (u >> _U32) + (v >> _U32)


def _philox4x64(k0: int, k1: np.ndarray, ctr: np.ndarray) -> np.ndarray:
    """Philox4x64-10 output for the keys (k0, k1[s]) and the counters
    (ctr[b], 0, 0, 0): row s holds stream s's blocks in counter order,
    4 words each, so the shape is (len(k1), 4 len(ctr)).

    The words (x0, x2) that a round multiplies and the words (x1, x3)
    that it xors are the rows of p and q, so that one array operation
    serves both halves of the round."""
    shape = (2, len(k1) * len(ctr))
    p = np.zeros(shape, dtype=np.uint64)
    p[0] = np.tile(ctr, len(k1))
    q = np.zeros(shape, dtype=np.uint64)
    key = np.empty(shape, dtype=np.uint64)
    key[0] = k0
    key[1] = np.repeat(k1, len(ctr))
    # full-size operands: broadcasting a (2, 1) one costs more per call
    m, bump = np.repeat(_M, shape[1], axis=1), np.repeat(_KEY_BUMP, shape[1], axis=1)
    m_lo, m_hi = m & _LO32, m >> _U32
    for r in range(_ROUNDS):
        if r:
            key += bump
        x = p[::-1]  # (x2, x0), which the multipliers (M1, M0) meet
        p, q = _mulhi(m_lo, m_hi, x) ^ q ^ key, x * m
    return np.stack((p[0], q[0], p[1], q[1]), axis=-1).reshape(len(k1), -1)

