"""Sampling-cost benchmark: low-rank path vs dense-covariance oracle.

Times a fixed batch of draws per output dimension ``k`` and fits log-log
slopes. The low-rank sampler should scale roughly linearly in ``k`` at
fixed rank; the dense oracle pays for materializing and factorizing a
k-by-k matrix and grows at least quadratically. The slopes are reliable
only on one BLAS thread: run with ``BALORA_THREADS=1`` (or the BLAS thread
variables set to 1 before numpy loads); :func:`balora.blas_pinned` says
whether they were. :data:`CSV_HEADER` and :meth:`BenchRow.csv_row` are the
format of ``bench.csv``, which ``balora bench`` writes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import adapter as A
from .rng import Rng
from .tensor import Tensor


@dataclass
class BenchRow:
    k: int
    r: int
    method: str
    median_ns: float
    p10_ns: float
    p90_ns: float

    def csv_row(self) -> list:
        """The row under :data:`CSV_HEADER`, the times in whole nanoseconds."""
        return [self.k, self.r, self.method,
                f"{self.median_ns:.0f}", f"{self.p10_ns:.0f}", f"{self.p90_ns:.0f}"]


CSV_HEADER = ("k", "r", "method", "median_ns", "p10_ns", "p90_ns")

# Input width of every benchmarked layer; the rank may not exceed it.
D_IN = 64
# The largest k the dense arm times: the dense sampler refuses larger ones.
DENSE_MAX_K = A._ORACLE_MAX_DIM


def _time_ns(fn, reps: int) -> tuple[float, float, float]:
    fn()  # warm up caches and allocator
    times = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - t0)
    times = np.asarray(sorted(times), dtype=np.float64)
    return (float(np.median(times)), float(np.percentile(times, 10)),
            float(np.percentile(times, 90)))


def run_bench(k_values, r: int = 8, n_samples: int = 4096, reps: int = 9,
              seed: int = 0) -> tuple[list[BenchRow], dict]:
    """Benchmark both samplers over ``k_values`` and fit log-log slopes.

    Each method is timed in its own pass so the dense oracle's large
    allocations do not pollute the low-rank measurements. The low-rank arm
    draws ``n_samples`` per call so arithmetic dominates timer noise; the
    dense arm is capped at 256 draws per call because its covariance
    construction and factorization, not the draws, carry the k-scaling of
    interest. Slopes are fit per arm, so the differing batch sizes do not
    affect them. An arm timed at fewer than two distinct ``k`` (the dense
    one skips every ``k > DENSE_MAX_K``) has the slope None.
    """
    rng = Rng(seed)
    rows: list[BenchRow] = []
    n_naive = min(int(n_samples), 256)
    cases = []
    for k in k_values:
        k = int(k)
        layer = A.init_layer(rng.stream_of(k), d=D_IN, k=k, r=r, init_std=0.3)
        layer.WB = Tensor(rng.stream_of(k + 1).normal((k, r)))
        x = Tensor(rng.stream_of(k + 2).normal((D_IN,)))
        cases.append((k, layer, x, rng.stream_of(k + 3)))
    for k, layer, x, draw_rng in cases:
        def low(layer=layer, x=x, draw_rng=draw_rng):
            A.sample_lowrank(layer, x, 0.7, draw_rng, n=n_samples)

        rows.append(BenchRow(k, r, "lowrank", *_time_ns(low, reps)))
    for k, layer, x, draw_rng in cases:
        if k > DENSE_MAX_K:
            continue

        def naive(layer=layer, x=x, draw_rng=draw_rng):
            A.sample_full_cov_oracle(layer, x, 0.7, draw_rng, n=n_naive)

        rows.append(BenchRow(k, r, "full_cov", *_time_ns(naive, max(3, reps - 4))))
    slopes = {}
    for method in ("lowrank", "full_cov"):
        pts = [(row.k, row.median_ns) for row in rows if row.method == method]
        slopes[method] = None
        if len({k for k, _ in pts}) >= 2:
            ks = np.log([p[0] for p in pts])
            ts = np.log([p[1] for p in pts])
            slopes[method] = float(np.polyfit(ks, ts, 1)[0])
    return rows, slopes

