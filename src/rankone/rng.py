"""Counter-based random number generation.

Every draw in this package is a pure function of a seed and stream
indices, so results are reproducible and independent of thread count or
chunking.  ``spawn(seed, *stream)`` returns a numpy Philox generator
keyed by them.  ``uniform_points`` reads one SplitMix64 counter stream
started at the seed (Steele, Lea and Flood, "Fast splittable
pseudorandom number generators", OOPSLA 2014), written as uint64 array
operations, so that drawing a uniform point set never imports
``numpy.random``.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


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
    """The first ``n`` uniform points in [0,1)^d for this seed, shape (n, d).

    Word k of the SplitMix64 stream at the 64-bit seed s is the finalizer
    of s + (k + 1) * golden, and row i holds words i d to i d + d - 1, so
    a row depends only on (seed, i, d) and a smaller n gives a prefix of
    the set.  Each word gives one double as numpy's ``random()`` does:
    its top 53 bits times 2^-53.
    """
    z = np.arange(1, n * d + 1, dtype=np.uint64)
    z *= np.uint64(_GOLDEN)
    z += np.uint64(int(seed) & _MASK64)
    # the finalizer: Stafford's variant 13 of MurmurHash3's, as SplitMix64 has it
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    z >>= np.uint64(11)
    return (z * 2.0 ** -53).reshape(n, d)
