"""Determinism and distribution checks for the counter-based random source."""

import subprocess
import sys

import numpy as np

from balora.rng import Rng
from balora.tensor import Tensor


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = Rng(123).normal((64,))
        b = Rng(123).normal((64,))
        assert np.array_equal(a, b)

    def test_same_seed_same_tensor(self):
        t1 = Tensor(Rng(9).normal((3, 4)))
        t2 = Tensor(Rng(9).normal((3, 4)))
        assert np.array_equal(t1.data, t2.data)

    def test_streams_are_independent_of_consumption(self):
        parent = Rng(5)
        child_before = parent.stream_of(3).normal((8,))
        parent.normal((1000,))  # consume the parent stream
        child_after = parent.stream_of(3).normal((8,))
        assert np.array_equal(child_before, child_after)

    def test_distinct_streams_differ(self):
        a = Rng(5).stream_of(1).normal((32,))
        b = Rng(5).stream_of(2).normal((32,))
        assert not np.array_equal(a, b)

    def test_rekeyed_generator_draws_as_a_fresh_substream(self):
        # One generator re-keyed to substream i draws what a fresh
        # stream_of(i) draws, whatever the last draw left in Philox's buffer:
        # a half-used block (uniform) or a spare 32-bit word (integers).
        parent = Rng(77).stream_of(4)
        rekeyed = parent.stream_of(0)
        left = (lambda g: g.normal((3,)), lambda g: g.uniform(),
                lambda g: g.integers(0, 10, (3,)), lambda g: g.permutation(5))
        for i in range(200):
            left[i % len(left)](rekeyed)
            got, fresh = rekeyed._rekey(parent, i * 7919), parent.stream_of(i * 7919)
            assert (got.seed, got.stream) == (fresh.seed, fresh.stream)
            assert got.normal((4, 3)).tobytes() == fresh.normal((4, 3)).tobytes()
            assert got.uniform(shape=(5,)).tobytes() == fresh.uniform(shape=(5,)).tobytes()
            assert np.array_equal(got.integers(0, 1000, (5,)), fresh.integers(0, 1000, (5,)))

    def test_bit_identical_across_processes(self):
        code = ("import numpy as np; from balora.rng import Rng; "
                "print(Rng(2024).normal((100,)).tobytes().hex())")
        outs = [subprocess.run([sys.executable, "-c", code], capture_output=True,
                               text=True, check=True).stdout
                for _ in range(2)]
        assert outs[0] == outs[1]
        assert outs[0].strip() == Rng(2024).normal((100,)).tobytes().hex()


class TestDistribution:
    def test_million_draw_moments(self):
        # Law-of-large-numbers bounds at roughly 3 sigma of the estimators.
        draws = Rng(7).normal((1_000_000,))
        assert abs(draws.mean()) < 0.005
        assert abs(draws.var() - 1.0) < 0.01

    def test_empty_shape(self):
        t = Tensor(Rng(0).normal((0,)))
        assert t.shape == (0,)
        assert t.data.size == 0
