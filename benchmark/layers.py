"""Per-layer metrics from the spans and counters of traced cycles.

Every value is the median over traced cycles of that cycle's figure.
``*.self_ms`` is time inside the call minus its traced children, ``*.ms``
is inclusive, ``*_per_step`` divides a cycle's count by its steps. A layer
a workload does not reach reads 0. The ``tasks.*`` spans add the one
traced set-up to the cycle, because ``mc-head`` trains its model there.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import aggregate, median
from workloads import SWEEP_K, TENSOR_OPS, loglog_slope, slope_verdicts


def per_layer_metrics(tracer, cycles: list, setup_run: int, steps: dict) -> dict:
    """``cycles`` are the traced run ids; ``steps[run]`` the steps each ran."""
    table = aggregate(tracer.spans)

    def over_cycles(fn) -> float:
        return median(fn(table[r], tracer.counters[r], r) for r in cycles)

    def calls(name):
        return over_cycles(lambda t, c, r: t[name][0] / max(1, steps[r]))

    def incl_ms(name):
        return over_cycles(lambda t, c, r: t[name][1] / 1e6)

    def self_ms(name):
        return over_cycles(lambda t, c, r: t[name][2] / 1e6)

    def counter(name):
        return over_cycles(lambda t, c, r: c[name])

    m = {}
    for op in TENSOR_OPS:
        m[f"tensor.{op}.calls_per_step"] = calls(f"tensor.{op}")
        m[f"tensor.{op}.self_ms"] = self_ms(f"tensor.{op}")
    m["tensor.backward.self_ms"] = self_ms("tensor.backward")
    m["tensor.matmul.gflop"] = counter("tensor.matmul.flop") / 1e9
    matmul_s = incl_ms("tensor.matmul") / 1e3
    m["tensor.matmul.gflop_per_s"] = m["tensor.matmul.gflop"] / matmul_s if matmul_s else 0.0
    m["tensor.Tensor.calls"] = counter("tensor.Tensor.calls")
    m["tensor.Tensor.bytes_copied"] = counter("tensor.Tensor.bytes_copied")
    m["tensor.linear.rows"] = counter("tensor.linear.rows")

    for name in ("variational.elbo_step", "variational.AdamW.step",
                 "variational.kl_normalized", "model.AdaptedModel.forward.taped",
                 "model.AdaptedModel.forward.untaped", "model.AdaptedModel.alphas",
                 "uncertainty.uq_report", "adapter.alpha_forward", "rng.Rng.normal"):
        m[f"{name}.self_ms"] = self_ms(name)
    for name in ("model.AdaptedModel.predict_stochastic", "model.AdaptedModel.merged_forward",
                 "checkpoint.save_model", "checkpoint.load_model"):
        m[f"{name}.ms"] = incl_ms(name)
    m["uncertainty.draw_rows"] = counter("uncertainty.draw_rows")
    m["rng.Rng.normal.calls"] = over_cycles(lambda t, c, r: t["rng.Rng.normal"][0])
    m["rng.Rng.normal.draws"] = counter("rng.Rng.normal.draws")
    m["checkpoint.bytes"] = counter("checkpoint.bytes")
    for name in ("tasks.generate", "tasks.pretrain_backbone", "tasks.pretrain_then_adapt"):
        m[f"{name}.ms"] = table[setup_run][name][1] / 1e6 + incl_ms(name)

    m.update(sampler_metrics(tracer.spans, set(cycles)))
    return m


def sampler_metrics(spans: list, cycles: set) -> dict:
    """Median ms per call of each sampler at each k, slopes and gate verdicts."""
    per_call = defaultdict(list)
    for name, start, end, _, run in spans:
        if run in cycles and name.startswith("adapter.sample_"):
            per_call[name].append((end - start) / 1e6)
    m = {}
    slopes = {}
    for fn, label in (("sample_lowrank", "lowrank"), ("sample_full_cov_oracle", "full_cov")):
        times = {k: median(per_call[f"adapter.{fn}.k{k}"]) for k in SWEEP_K}
        for k, ms in times.items():
            m[f"adapter.{fn}.k{k}.ms"] = ms
        slopes[label] = loglog_slope(times) if all(times.values()) else 0.0
    m["adapter.lowrank.slope"] = slopes["lowrank"]
    m["adapter.full_cov.slope"] = slopes["full_cov"]
    m.update(slope_verdicts(slopes) if all(slopes.values()) else
             {"adapter.lowrank.slope_in_gate": 0.0, "adapter.full_cov.slope_in_gate": 0.0})
    return m
