"""Counter-based random number generation.

Every draw in this package is a pure function of a seed and stream
indices, so results are reproducible and independent of thread count or
chunking.  ``spawn(seed, *stream)`` returns a SplitMix64 counter stream
(Steele, Lea and Flood, "Fast splittable pseudorandom number
generators", OOPSLA 2014) keyed by them, written as Python integer and
uint64 array operations, so that no draw imports ``numpy.random``.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(*stream: int) -> int:
    """Fold stream indices into one 64-bit word (splitmix-style); 0 for none."""
    h = 0
    for s in stream:
        h = (h ^ (int(s) + 1)) * _GOLDEN & _MASK64
        h ^= h >> 31
    return h


def _finalize(z):
    """SplitMix64's finalizer, Stafford's variant 13 of MurmurHash3's, on
    a 64-bit Python int or a uint64 array."""
    z ^= z >> 30
    z = z * 0xBF58476D1CE4E5B9 & _MASK64
    z ^= z >> 27
    z = z * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


class Stream:
    """The SplitMix64 stream at a 64-bit key: word k = 1, 2, ... is the
    finalizer of key + k golden (mod 2^64).  Draws read the words in
    order, one per double and one per ``bits`` call."""

    def __init__(self, key: int):
        self.key = key & _MASK64
        self.count = 0  # words read so far

    def bits(self, b: int) -> int:
        """The top b bits (0 <= b <= 64) of the next word: a uniform
        integer in [0, 2^b)."""
        self.count += 1
        return _finalize((self.key + self.count * _GOLDEN) & _MASK64) >> (64 - b)

    def random(self, shape=None):
        """Uniform doubles in [0, 1) of this shape (an int or a tuple),
        filled in C order, or one float when it is omitted.  A word gives a double as numpy's
        ``random()`` does: its top 53 bits times 2^-53."""
        if shape is None:
            return self.bits(53) * 2.0 ** -53
        n = math.prod(shape) if isinstance(shape, tuple) else shape
        k = np.arange(self.count + 1, self.count + n + 1, dtype=np.uint64)
        self.count += n
        return ((_finalize(k * _GOLDEN + self.key) >> 11) * 2.0 ** -53).reshape(shape)


def spawn(seed: int, *stream: int) -> Stream:
    """The stream at key (seed + ``_mix(*stream)``) mod 2^64; with no
    stream indices, at the seed itself.  Identical arguments always yield
    an identical stream; distinct ones give independent streams."""
    return Stream(int(seed) + _mix(*stream))
