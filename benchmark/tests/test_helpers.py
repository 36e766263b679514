"""Tests of the benchmark's own helpers: span arithmetic, parent links,
segment floors, output checks and metric names against BENCHMARK.json.

    python3 -m pytest benchmark/tests -q
"""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from tracer import Patch, Tracer, aggregate, self_times  # noqa: E402
from workloads import (SWEEP_K, Checks, Workload, floors, install_tracing,  # noqa: E402
                       lowrank_matches_analytic, loglog_slope)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def span(name, start, end, parent=-1, run_id=0):
    return [name, start, end, parent, run_id]


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    spans = [span("outer", 0, 100),
             span("a", 10, 30, 0), span("b", 20, 50, 0),   # overlap: union 10..50
             span("c", 90, 120, 0),                        # clipped at 100
             span("leaf", 12, 18, 1)]                      # grandchild: not outer's
    assert self_times(spans) == [100 - 40 - 10, 20 - 6, 30, 30, 6]


def test_self_time_without_children_is_duration():
    assert self_times([span("x", 5, 9), span("y", 9, 20)]) == [4, 11]


def test_wrapped_calls_record_parent_links_and_runs():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda v: v + 1)
    outer = tracer.wrap("outer", lambda v: inner(inner(v)))
    tracer.run = 3
    assert outer(1) == 3
    tracer.run = 4
    inner(0)
    names = [s[0] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    runs = [s[4] for s in tracer.spans]
    assert names == ["outer", "inner", "inner", "inner"]
    assert parents == [-1, 0, 0, -1]
    assert runs == [3, 3, 3, 4]
    assert all(s[2] >= s[1] for s in tracer.spans)
    table = aggregate(tracer.spans)
    assert table[3]["inner"][0] == 2 and table[4]["inner"][0] == 1
    outer_row = table[3]["outer"]
    assert outer_row[2] == outer_row[1] - table[3]["inner"][1]


def test_span_closes_and_stack_unwinds_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    wrapped = tracer.wrap("boom", boom)
    with pytest.raises(ValueError):
        wrapped()
    after = tracer.wrap("after", lambda: None)
    after()
    assert tracer.spans[0][2] >= tracer.spans[0][1]
    assert tracer.spans[1][3] == -1


def test_rename_and_counters_see_the_result():
    tracer = Tracer()
    fn = tracer.wrap("f", lambda n: list(range(n)),
                     on_return=lambda tr, a, kw, out: tr.count("items", len(out)),
                     rename=lambda a, kw, out: f"f.n{a[0]}")
    fn(3)
    fn(4)
    assert [s[0] for s in tracer.spans] == ["f.n3", "f.n4"]
    assert tracer.counters[0]["items"] == 7


def test_patch_restores_original_attributes():
    mod = types.SimpleNamespace(f=lambda: "orig")
    patch = Patch()
    patch.set(mod, "f", lambda: "new")
    with patch:
        assert mod.f() == "new"
    assert mod.f() == "orig"


def test_install_tracing_wraps_and_restores_balora():
    from balora import tensor as T
    original = T.matmul
    tracer = Tracer()
    with install_tracing(tracer):
        a = T.Tensor(np.ones((2, 3)))
        T.linear(a, T.Tensor(np.ones((4, 3))))
    assert T.matmul is original
    names = [s[0] for s in tracer.spans]
    assert names[0] == "tensor.linear" and "tensor.matmul" in names
    matmul = names.index("tensor.matmul")
    assert tracer.spans[matmul][3] == 0           # matmul inside linear
    assert tracer.counters[0]["tensor.linear.rows"] == 2
    assert tracer.counters[0]["tensor.matmul.flop"] == 2 * 2 * 3 * 4


def test_floors_take_each_segment_fastest_time():
    cycles = [{"a": 3.0, "b": 1.0}, {"a": 2.0, "b": 4.0}, {"a": 5.0, "c": 7.0}]
    assert floors(cycles) == {"a": 2.0, "b": 1.0, "c": 7.0}


def test_checks_count_failures_and_exceptions():
    checks = Checks()
    checks.check(True, "fine")
    checks.check(False, "bad")
    with checks.operation("raises"):
        raise RuntimeError("boom")
    reference = {}
    checks.same(reference, "digest", "x")
    checks.same(reference, "digest", "y")
    assert (checks.attempted, checks.failed) == (4, 3)
    assert checks.failures[0] == "bad" and checks.failures[1].startswith("raises")


def test_loglog_slope_recovers_power_law():
    assert loglog_slope({k: 3.0 * k ** 1.5 for k in SWEEP_K}) == pytest.approx(1.5)


def _sampler_case():
    from balora import adapter as A
    from balora.rng import Rng
    from balora.tensor import Tensor
    rng = Rng(5)
    layer = A.init_layer(rng.stream_of(1), d=16, k=32, r=4, init_std=0.3)
    layer.WB = Tensor(rng.stream_of(2).normal((32, 4)))
    x = Tensor(rng.stream_of(3).normal((16,)))
    draws = A.sample_lowrank(layer, x, 0.7, rng.stream_of(4), n=20000).data
    return layer, x, draws


def test_sampler_check_accepts_sampler_draws():
    layer, x, draws = _sampler_case()
    assert lowrank_matches_analytic(layer, x, 0.7, draws) == []


def test_sampler_check_rejects_biased_or_off_span_draws():
    from balora import adapter as A
    layer, x, draws = _sampler_case()
    latent_sd = np.sqrt(A.analytic_predictive(layer, x, 0.7).d_vec.data[0])
    in_span = draws + 0.1 * latent_sd * layer.WB.data[:, 0]
    assert any("mean" in p for p in lowrank_matches_analytic(layer, x, 0.7, in_span))
    off_span = draws + 1e-3
    assert any("span" in p for p in lowrank_matches_analytic(layer, x, 0.7, off_span))
    scaled = draws + 0.2 * (draws - draws.mean(axis=0))
    assert any("variance" in p for p in lowrank_matches_analytic(layer, x, 0.7, scaled))


def _cycles():
    times = {"adapt.0": 0.002, "adapt.1": 0.003, "rest": 0.1}
    return [{"wall_s": 1.0, "times": dict(times), "traced": False},
            {"wall_s": 1.2, "times": dict(times), "traced": True}]


def test_end_to_end_metric_names_match_benchmark_json():
    workload = Workload(ROOT, 0, ROOT, Checks(), {})
    workload.step_prefix = "adapt."
    metrics = run.end_to_end_metrics(workload, 0.5, [0.2, 0.1], _cycles())
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert metrics["cycle_s"] == pytest.approx(0.105)
    assert metrics["step_ms_p50"] == pytest.approx(2.5)
    assert metrics["setup_s"] == pytest.approx(0.6)
    assert all(v > 0 for v in metrics.values())


def test_per_layer_metric_names_match_benchmark_json():
    workload = Workload(ROOT, 0, ROOT, Checks(), {})
    workload.step_prefix = "adapt."
    metrics = run.traced_metrics(workload, Tracer(), _cycles())
    declared = {m["name"] for m in SPEC["per_layer"]}
    assert declared <= set(metrics)
    # Only the sampler's own figures stay out: no listed workload calls it.
    assert all(name.startswith("adapter.") for name in set(metrics) - declared)


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
