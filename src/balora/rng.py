"""Seeded, counter-based random number source.

Every draw stream is fully determined by a ``(seed, stream)`` key pair, so
independent substreams for workers, ensemble members, or per-draw sampling
can be derived arithmetically instead of sharing mutable generator state.
The same key produces bit-identical draws in every process and under any
thread count.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    """One round of the splitmix64 mixer; bijective on 64-bit ints."""
    x = (x + _GOLDEN) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


class Rng:
    """Counter-based generator (Philox-4x64) keyed by ``(seed, stream)``.

    Instances hold a position in their stream, so repeated calls advance
    deterministically. Derive non-overlapping substreams with
    :meth:`stream`; the child key depends only on the parent key and the
    child index, never on how much of the parent stream was consumed.
    """

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed) & _MASK64
        self.stream = int(stream) & _MASK64
        key = (self.seed << 64) | self.stream
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def stream_of(self, index: int) -> "Rng":
        """Return an independent substream for ``index`` (worker, draw, member)."""
        return Rng(self.seed, self._child(index))

    def _child(self, index: int) -> int:
        return _splitmix64(self.stream ^ _splitmix64(int(index) + 1))

    def _rekey(self, parent: "Rng", index: int) -> "Rng":
        """Make this generator ``parent.stream_of(index)`` in place and return
        it. Key, counter and buffer are all reset, so it draws exactly what a
        fresh substream would, without building a new bit generator (whose
        constructor also draws OS entropy only to discard it)."""
        self.seed, self.stream = parent.seed, parent._child(index)
        # Philox's key words are little-endian: (seed << 64) | stream.
        self._gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0), "key": (self.stream, self.seed)},
            "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        return self

    def normal(self, shape=()) -> np.ndarray:
        """I.i.d. standard-normal draws with the given shape."""
        return self._gen.standard_normal(size=shape, dtype=np.float64)

    def uniform(self, low: float = 0.0, high: float = 1.0, shape=()) -> np.ndarray:
        return self._gen.uniform(low, high, size=shape)

    def integers(self, low: int, high: int, shape=()) -> np.ndarray:
        return self._gen.integers(low, high, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed}, stream={self.stream})"
