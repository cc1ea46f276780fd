"""Counter-based random number generation.

All randomness in this package flows through Philox counter-based
generators keyed by ``(seed, stream)``.  A draw for stream index ``i``
is a pure function of ``(seed, i)``, so results are reproducible and
independent of thread count or chunking.  ``uniform_points`` draws a
whole point set that way from one re-keyed generator.
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
    """The first ``n`` uniform points in [0,1]^d for this seed, shape (n, d).

    Row ``i`` is ``spawn(seed, i).random(d)``: a pure function of
    ``(seed, i)``, so point sets do not depend on how they are batched.
    One Philox generator is built and reset to each row's fresh state.
    """
    bitgen = np.random.Philox(0)  # a fixed seed skips the OS entropy read
    gen = np.random.Generator(bitgen)
    state = bitgen.state  # counter 0 and an empty buffer, as in spawn()
    key = state["state"]["key"]
    key[0] = int(seed) & _MASK64
    out = np.empty((n, d))
    for i in range(n):
        key[1] = _mix(i)
        bitgen.state = state
        out[i] = gen.random(d)
    return out


def floyd_sample(gen: np.random.Generator, n: int, k: int) -> np.ndarray:
    """Uniform random k-subset of {0, ..., n-1} via Floyd's algorithm."""
    if not 0 <= k <= n:
        raise ValueError(f"cannot sample {k} items from {n}")
    chosen: set[int] = set()
    for j in range(n - k, n):
        t = int(gen.integers(0, j + 1))
        chosen.add(t if t not in chosen else j)
    return np.array(sorted(chosen), dtype=np.intp)
