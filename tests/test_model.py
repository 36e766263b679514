"""The adapted model's stochastic forward (noise is an argument), the Monte
Carlo evaluator that must agree with it, and the shared frozen prefix.

Every test here runs the evaluator on two threads (``two_mc_workers``)
unless it sets the thread count itself."""

import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import loss_node, reference_layer_vjp, single_linear_model
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from balora import BLAS_THREAD_VARS
from balora import adapter as A
from balora import model as M
from balora import tasks as TK
from balora import tensor as T
from balora import uncertainty as U
from balora import variational as V
from balora.model import AdaptedModel, AdapterSpec, BackboneSpec, attach_adapters, init_backbone
from balora.rng import Rng
from balora.tensor import DomainError, ShapeError, Tensor
from balora.verify import _tiny_model, gradient_error

pytestmark = pytest.mark.usefixtures("two_mc_workers")
# Before the fixture replaces them.
_CPU_WORKERS, _MIN_GELUS = M._cpu_workers, M._MIN_GELUS_PER_ROW


class TestStochasticForward:
    def test_eps_makes_the_forward_stochastic(self):
        model, X, _ = _tiny_model(1)
        eps = model.draw_eps(X.shape[0], Rng(2))
        assert [e.shape for e in eps] == [(X.shape[0], model.adapters[i].rank)
                                          for i in model.adapted_layers]
        det = model.forward(X).data
        a = model.forward(X, eps=eps).data
        b = model.forward(X, eps=model.draw_eps(X.shape[0], Rng(2))).data
        assert a.tobytes() == b.tobytes()
        assert not np.allclose(a, det)

    def test_predict_stochastic_matches_forward(self):
        model, X, _ = _tiny_model(3)
        expected = model.forward(X, eps=model.draw_eps(X.shape[0], Rng(4).stream_of(0))).data
        got = model.predict_stochastic(X, 1, Rng(4))
        assert got.shape == (1, *expected.shape)
        np.testing.assert_allclose(got[0], expected, rtol=1e-12, atol=0)

    def test_wrong_number_of_eps_arrays_rejected(self):
        model, X, _ = _tiny_model(5)
        eps = model.draw_eps(X.shape[0], Rng(6))
        for bad in (eps[:-1], [*eps, eps[0]], []):
            with pytest.raises(ShapeError):
                model.forward(X, eps=bad)

    @pytest.mark.parametrize("reshape", [
        lambda e: e[:-1], lambda e: e[:, :-1], lambda e: np.hstack([e, e]),
        lambda e: e[0], lambda e: e[None]], ids=["rows", "rank", "wide", "1d", "3d"])
    def test_wrong_eps_shape_rejected(self, reshape):
        model, X, _ = _tiny_model(7)
        eps = model.draw_eps(X.shape[0], Rng(8))
        eps[-1] = reshape(eps[-1])
        with pytest.raises(ShapeError):
            model.forward(X, eps=eps)

    @pytest.mark.parametrize("n", [1, 5])
    def test_draw_eps_is_one_draw_per_layer_in_order(self, n):
        # One draw split into per-layer views holds the bits of one draw per
        # layer from the same stream, rank 1 and a single row included.
        backbone = init_backbone(BackboneSpec(d_in=3, d_out=1, hidden=(5, 4)), Rng(12))
        backbone.freeze()
        model = attach_adapters(backbone, AdapterSpec(rank=3), "balora", Rng(13))
        ranks = [layer.rank for layer in model.adapters.values()]
        assert ranks == [3, 3, 1]
        rng = Rng(14)
        expect = [rng.normal((n, r)) for r in ranks]
        got = model.draw_eps(n, Rng(14))
        assert [e.shape for e in got] == [(n, r) for r in ranks]
        assert [e.tobytes() for e in got] == [e.tobytes() for e in expect]

    def test_lora_model_has_no_noise(self):
        backbone = init_backbone(BackboneSpec(d_in=3, d_out=2, hidden=(4,)), Rng(9))
        backbone.freeze()
        model = AdaptedModel(backbone, {}, None, "lora")
        with pytest.raises(DomainError):
            model.draw_eps(2, Rng(10))
        with pytest.raises(DomainError):
            model.forward(np.ones((2, 3)), eps=[])


def _no_work(*args):
    raise AssertionError("the draws started before the arguments were checked")


def _adapted(seed: int, hidden: tuple, adapt_layers, head: str = "regression",
             d_in: int = 5, d_out: int = 3, rank: int = 2) -> AdaptedModel:
    """Untrained balora model with non-zero WB, so the noise reaches the output."""
    rng = Rng(seed)
    backbone = init_backbone(BackboneSpec(d_in=d_in, d_out=d_out, hidden=hidden, head=head),
                             rng.stream_of(0))
    backbone.biases = [Tensor(rng.stream_of(5 + i).normal(b.shape) * 0.1)
                       for i, b in enumerate(backbone.biases)]
    model = M.attach_adapters(
        backbone, AdapterSpec(rank=rank, lora_alpha=4.0, adapt_layers=adapt_layers,
                              alphanet_hidden=(4,), init_alpha=0.3),
        "balora", rng.stream_of(1))
    for j, layer in enumerate(model.adapters.values()):
        layer.WB = Tensor(rng.stream_of(2 + j).normal(layer.WB.shape) * 0.5,
                          requires_grad=True)
    return model


def _tiled_reference(model, X, S, rng):
    """``predict_stochastic`` rebuilt from ``forward``: each chunk of draws is
    one forward of ``X`` tiled, with ``draw_eps`` from the chunk's stream."""
    B = X.shape[0]
    chunk = max(1, M._MAX_ROWS // B)
    outs = []
    for c, start in enumerate(range(0, S, chunk)):
        s = min(chunk, S - start)
        eps = model.draw_eps(s * B, rng.stream_of(c))
        outs.append(model.forward(np.tile(X, (s, 1)), eps=eps).data.reshape(s, B, -1))
    return np.concatenate(outs)


class TestEvaluator:
    """``predict_stochastic`` runs the draw-independent work once per input
    row; it must agree with the tiled, fully taped-op forward on the same
    noise."""

    @pytest.mark.parametrize("hidden,adapt,head,S,B", [
        ((6, 7), None, "regression", 9, 11),         # every layer adapted
        ((6, 7), (2,), "classification", 9, 11),     # output layer only
        ((6, 7), (1,), "regression", 9, 11),         # middle layer only
        ((6, 7), (0, 2), "classification", 13, 1),   # B = 1
    ], ids=["all", "output-only", "middle-only", "one-row"])
    def test_matches_tiled_forward(self, hidden, adapt, head, S, B):
        model = _adapted(11, hidden, adapt, head)
        X = Rng(12).normal((B, 5))
        got = model.predict_stochastic(X, S, Rng(13))
        want = _tiled_reference(model, X, S, Rng(13))
        assert got.shape == want.shape == (S, B, 3)
        assert np.std(got, axis=0).min() > 0  # the noise is live
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("S", [0, -1, 2.5, True, np.float64(3.0), "3"])
    def test_bad_draw_count_rejected_before_any_work(self, monkeypatch, S):
        model = _adapted(11, (6, 7), None)
        monkeypatch.setattr(model, "frozen_prefix", _no_work)
        with pytest.raises(DomainError, match="S, the number of draws"):
            model.predict_stochastic(Rng(12).normal((3, 5)), S, Rng(13))

    def test_narrow_integer_draw_count(self):
        # 200 draws of 3 rows are 600 draw rows, more than a uint8 holds.
        model = _adapted(11, (6, 7), None)
        X = Rng(12).normal((3, 5))
        got = model.predict_stochastic(X, np.uint8(200), Rng(13))
        assert got.tobytes() == model.predict_stochastic(X, 200, Rng(13)).tobytes()

    def test_no_rows_rejected_before_any_work(self, monkeypatch):
        model = _adapted(11, (6, 7), None)
        X = Rng(12).normal((3, 5))
        np.testing.assert_array_equal(model.predict_stochastic(X, np.int64(4), Rng(13)),
                                      model.predict_stochastic(X, 4, Rng(13)))
        monkeypatch.setattr(model, "frozen_prefix", _no_work)
        for call in (lambda: model.predict_stochastic(X[:0], 4, Rng(13)),
                     lambda: U.uq_report(model, X[:0], np.zeros((0, 3)), 4, Rng(13))):
            with pytest.raises(ShapeError, match="X must hold at least one input row"):
                call()

    @pytest.mark.parametrize("head, layer", [("classification", 0), ("classification", 1),
                                             ("regression", 2), ("regression", 0)])
    def test_wrong_width_rejected_before_any_work(self, monkeypatch, head, layer):
        model = _adapted(11, (6, 7), (layer,), head)
        X = Rng(12).normal((3, 4))
        monkeypatch.setattr(model, "frozen_prefix", _no_work)
        for call in (lambda: model.predict_stochastic(X, 4, Rng(13)),
                     lambda: U.uq_report(model, X, np.zeros(3), 4, Rng(13))):
            with pytest.raises(ShapeError, match=r"width 5, got \(3, 4\)"):
                call()

    def test_chunks_and_ragged_blocks(self, monkeypatch):
        # 20 draws of 7 rows: chunks of 7, 7 and 6 draws (49, 49 and 42
        # rows) in blocks of 10 rows, so every chunk ends in a ragged block.
        monkeypatch.setattr(M, "_MAX_ROWS", 50)
        monkeypatch.setattr(M, "_BLOCK_ROWS", 10)
        model = _adapted(14, (6, 7), (1,), "classification")
        X = Rng(15).normal((7, 5))
        got = model.predict_stochastic(X, 20, Rng(16))
        want = _tiled_reference(model, X, 20, Rng(16))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    def test_draw_independent_work_runs_once_per_call(self, monkeypatch):
        # The same 3 chunks of 7, 7 and 6 draws share one frozen prefix and
        # one run of the AlphaNet.
        monkeypatch.setattr(M, "_MAX_ROWS", 50)
        monkeypatch.setattr(M, "_BLOCK_ROWS", 10)
        calls = {"alpha_scales": 0, "frozen_prefix": 0, "draw_eps": 0}

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(A, "alpha_scales")
        counted(AdaptedModel, "frozen_prefix")
        counted(AdaptedModel, "draw_eps")
        model = _adapted(14, (6, 7), (1,), "classification")
        U.uq_report(model, Rng(15).normal((7, 5)), np.zeros(7, dtype=int), 20, Rng(16))
        assert calls == {"alpha_scales": 1, "frozen_prefix": 1, "draw_eps": 3}

    def test_mc_head_peak_memory(self):
        # S=100 x 1024 rows of a 16 -> 128 -> 128 -> 10 classifier adapted
        # at its output layer. Tiling the rows before the first layer peaked
        # at 28.9 MB; the evaluator peaks at 10.8 MB: the noise, the
        # output and one block.
        model = _adapted(17, (128, 128), (2,), "classification", d_in=16, d_out=10)
        X = Rng(18).normal((1024, 16))
        assert model.mc_workers(100 * 1024) == 2
        tracemalloc.start()
        try:
            model.predict_stochastic(X, 100, Rng(19))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("where", ["prefix", "adapter", "after"])
    def test_non_finite_weight_raises(self, where):
        model = _adapted(20, (6, 7), (1,), "regression")
        weight = {"prefix": model.backbone.weights[0], "adapter": model.adapters[1].WB,
                  "after": model.backbone.weights[2]}[where]
        bad = weight.data.copy()
        bad[0, 0] = np.inf if where == "after" else np.nan
        weight.data = bad
        X = Rng(21).normal((4, 5))
        with np.errstate(invalid="ignore"), pytest.raises(T.NonFiniteError):
            U.uq_report(model, X, np.zeros((4, 3)), 8, Rng(22))


_CASES = pytest.mark.parametrize("hidden,adapt,head,S,B", [
    ((6, 7), None, "regression", 14, 111),         # every layer adapted
    ((6, 7), (2,), "classification", 14, 111),     # output layer only
    ((6, 7), (1,), "regression", 14, 111),         # middle layer only
    ((6, 7), (0, 2), "classification", 1103, 1),   # B = 1, an unadapted middle layer
], ids=["all", "output-only", "middle-only", "one-row"])


class TestThreadedEvaluator:
    """``predict_stochastic`` deals its blocks out to worker threads; the
    draws must not depend on how many."""

    @staticmethod
    def _draws(monkeypatch, workers, model, X, S):
        monkeypatch.setattr(M, "_cpu_workers", lambda: workers)
        assert model.mc_workers(S * X.shape[0]) == workers
        return model.predict_stochastic(X, S, Rng(31))

    def test_threads_only_under_a_one_thread_blas(self, monkeypatch):
        monkeypatch.setattr(M.os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        for var in BLAS_THREAD_VARS:
            monkeypatch.setenv(var, "1")
        assert _CPU_WORKERS() == 3
        monkeypatch.setenv(BLAS_THREAD_VARS[1], "2")
        assert _CPU_WORKERS() == 1
        monkeypatch.delenv(BLAS_THREAD_VARS[1])
        assert _CPU_WORKERS() == 1

    def test_no_more_workers_than_blocks(self):
        model = _adapted(30, (6, 7), None)
        assert [model.mc_workers(n) for n in (1, 512, 513, 10**6)] == [1, 1, 2, 2]

    @pytest.mark.parametrize("hidden,adapt,workers", [
        ((128, 128), None, 2),   # the blocks evaluate 256 GELUs per row
        ((128, 128), (1,), 1),   # 128
        ((128, 128), (2,), 1),   # none: only the output layer is adapted
        ((32, 32), None, 1),     # 64
    ])
    def test_threads_only_for_blocks_with_enough_gelus(self, monkeypatch, hidden, adapt,
                                                         workers):
        monkeypatch.setattr(M, "_MIN_GELUS_PER_ROW", _MIN_GELUS)
        assert _adapted(44, hidden, adapt).mc_workers(10**6) == workers

    @_CASES
    @pytest.mark.parametrize("block_rows", [None, 10])
    def test_worker_count_does_not_change_draws(self, monkeypatch, hidden, adapt, head,
                                                S, B, block_rows):
        # 1554 or 1103 draw rows: 512-row blocks end in a ragged block of 18
        # or 79 rows, 10-row blocks in one of 4 or 3.
        if block_rows is not None:
            monkeypatch.setattr(M, "_BLOCK_ROWS", block_rows)
        model = _adapted(30, hidden, adapt, head)
        X = Rng(32).normal((B, 5))
        serial = self._draws(monkeypatch, 1, model, X, S)
        assert np.std(serial, axis=0).min() > 0  # the noise is live
        for workers in (2, 3):
            got = self._draws(monkeypatch, workers, model, X, S)
            assert got.tobytes() == serial.tobytes()

    def test_many_workers_switching_often(self, monkeypatch):
        # More workers than cores, switching every microsecond: workers that
        # shared a buffer or an output row would mix their blocks.
        monkeypatch.setattr(M, "_BLOCK_ROWS", 10)
        model = _adapted(42, (6, 7), None)
        X = Rng(43).normal((13, 5))
        serial = self._draws(monkeypatch, 1, model, X, 30)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = self._draws(monkeypatch, 8, model, X, 30)
        finally:
            sys.setswitchinterval(interval)
        assert threaded.tobytes() == serial.tobytes()

    def test_blocks_run_on_every_worker(self, monkeypatch):
        seen = set()
        draw_block = AdaptedModel._draw_block

        def spy(*args):
            seen.add(threading.get_ident())
            return draw_block(*args)

        monkeypatch.setattr(AdaptedModel, "_draw_block", spy)
        monkeypatch.setattr(M, "_BLOCK_ROWS", 10)
        model = _adapted(33, (6, 7), None)
        before = threading.active_count()
        U.uq_report(model, Rng(34).normal((7, 5)), np.zeros((7, 3)), 20, Rng(35))
        assert len(seen) == 2
        assert threading.active_count() == before

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("failing", [0, 1, 13])
    def test_exception_in_any_block_propagates(self, monkeypatch, workers, failing):
        # 14 blocks of 10 rows; block 13 is the last, ragged one.
        draw_block = AdaptedModel._draw_block

        def broken(self, blk, *args):
            if blk.start == 10 * failing:
                raise RuntimeError(f"block {failing} failed")
            return draw_block(self, blk, *args)

        monkeypatch.setattr(AdaptedModel, "_draw_block", broken)
        monkeypatch.setattr(M, "_BLOCK_ROWS", 10)
        monkeypatch.setattr(M, "_cpu_workers", lambda: workers)
        model = _adapted(36, (6, 7), None)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"block {failing} failed"):
            model.predict_stochastic(Rng(37).normal((7, 5)), 19, Rng(38))
        assert threading.active_count() == before

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_workers_keep_the_callers_error_state(self, monkeypatch, value):
        # The bad weight is in the second adapted layer, which only the
        # blocks run. A thread that does not inherit np.errstate warns
        # "invalid value encountered" on the Inf case.
        monkeypatch.setattr(M, "_BLOCK_ROWS", 10)
        model = _adapted(39, (6, 7), None)
        bad = model.adapters[1].WB.data.copy()
        bad[0, 0] = value
        model.adapters[1].WB.data = bad
        X = Rng(40).normal((4, 5))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(T.NonFiniteError):
                U.uq_report(model, X, np.zeros((4, 3)), 8, Rng(41))
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestPredict:
    """``predict`` is the posterior-mean ``forward`` in plain numpy."""

    @pytest.mark.parametrize("adapt,kind", [
        (None, "balora"), ((2,), "balora"), ((1,), "balora"), (None, "lora")],
        ids=["all", "output-only", "middle-only", "lora"])
    def test_bits_match_forward(self, adapt, kind):
        model = _adapted(40, (6, 7), adapt)
        if kind == "lora":
            model = AdaptedModel(model.backbone, model.adapters, None, "lora")
        X = Rng(41).normal((9, 5))
        assert model.predict(X).tobytes() == model.forward(X).data.tobytes()
        assert model.predict(X[0]).tobytes() == model.forward(X[:1]).data.tobytes()

    def test_bad_shape_rejected(self):
        model = _adapted(42, (6, 7), None)
        for X in (np.ones((2, 4)), np.ones((2, 2, 5))):
            for forward in (model.predict, model.merged_forward, model.forward):
                with pytest.raises(ShapeError):
                    forward(X)

    def test_non_finite_weight_raises(self):
        model = _adapted(43, (6, 7), (1,))
        bad = model.backbone.weights[0].data.copy()
        bad[0, 0] = np.nan
        model.backbone.weights[0].data = bad
        with np.errstate(invalid="ignore"), pytest.raises(T.NonFiniteError):
            model.predict(Rng(44).normal((4, 5)))

    @pytest.mark.parametrize("adapt", [None, (1,), (2,)], ids=["all", "middle-only",
                                                                "output-only"])
    def test_frozen_walk_matches_the_taped_chain(self, adapt):
        # A classification head takes its alpha features from the frozen
        # backbone's last hidden layer; the prefix stops at the first adapter.
        model = _adapted(45, (6, 7), adapt, "classification")
        X = Rng(46).normal((9, 5))
        chain = [Tensor(X)]
        for w, b in zip(model.backbone.weights[:-1], model.backbone.biases[:-1]):
            chain.append(T.gelu(T.linear(chain[-1], w, b)))
        assert model.frozen_prefix(X).tobytes() == chain[model.prefix_layers].data.tobytes()
        assert model.alpha_features(X).tobytes() == chain[-1].data.tobytes()
        for layer in model.adapters.values():
            layer.WB = Tensor(np.zeros(layer.WB.shape), requires_grad=True)
        assert model.merged_forward(X).tobytes() == model.predict(X).tobytes()


def test_training_step_while_another_thread_evaluates(monkeypatch):
    # One thread is held inside uq_report's AlphaNet call while this one takes
    # a training step: the step must tape as if the evaluator were not there.
    model = _adapted(45, (6, 7), None)
    X, y = Rng(46).normal((8, 5)), Rng(47).normal((8, 3))
    entered, release = threading.Event(), threading.Event()
    alpha_scales = M.A.alpha_scales

    def held(net, feat):
        if threading.current_thread() is evaluator:
            entered.set()
            release.wait(60)
        return alpha_scales(net, feat)

    monkeypatch.setattr(M.A, "alpha_scales", held)
    errors = []

    def evaluate():
        try:
            U.uq_report(model, X, y, 4, Rng(48))
        except Exception as err:  # reported by the assertion below
            errors.append(err)

    evaluator = threading.Thread(target=evaluate, daemon=True)
    evaluator.start()
    try:
        assert entered.wait(60), "the evaluator never reached the AlphaNet"
        loss, _ = V.elbo_step(model, (X, y), V.PriorConfig(0.5),
                              V.TrainConfig(lr=1e-2, epochs=1, batch_size=8), Rng(49))
        T.backward(loss)
    finally:
        release.set()
        evaluator.join(60)
    assert not evaluator.is_alive() and not errors
    assert all(p.grad is not None for p in model.trainables())


class TestSharedPrefix:
    def test_balora_needs_a_frozen_backbone(self):
        # The prefix runs off the tape, so it must hold no trainable weight.
        model = _adapted(26, (4,), (1,))
        backbone = init_backbone(model.backbone.spec, Rng(27))
        with pytest.raises(DomainError):
            AdaptedModel(backbone, model.adapters, model.alphanet, "balora")

    def test_elbo_step_matches_separate_calls_bit_for_bit(self):
        # The step computes the frozen prefix once for the alphas and the
        # forward; separate calls compute it twice on the same batch.
        task = TK.SyntheticTask(kind="multiclass-gaussian-blobs", d_in=6, n_classes=4,
                                n_train=64, n_val=8, n_test=8, seed=23)
        train = TK.generate(task, shifted=True).train
        X, y = train.X[:32], train.y[:32]
        model = _adapted(24, (8, 8), (2,), "classification", d_in=6, d_out=4)
        prior = V.PriorConfig(0.5)
        cfg = V.TrainConfig(lr=1e-2, epochs=1, batch_size=32, kl_weight=1.0)
        params = model.trainables()

        def grads(loss):
            V.zero_grad(params)
            T.backward(loss)
            return [p.grad.copy() for p in params]

        loss, _ = V.elbo_step(model, (X, y), prior, cfg, Rng(25))
        got = grads(loss)
        alphas = model.alphas(X)
        pred = model.forward(X, alphas=alphas, eps=model.draw_eps(X.shape[0], Rng(25)))
        kl = V.kl_normalized(alphas, prior.p, model.alphanet.alpha_min,
                             model.alphanet.alpha_max)
        nll = loss_node(V._cross_entropy(pred.data, y), (pred,))
        ref = T.add(nll, T.mul(kl, Tensor(cfg.kl_weight)))
        assert loss.item() == ref.item()
        want = grads(ref)
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


def _reference_adapted_linear(layer, x, bias, alphas=None, col=0, eps=None):
    """One adapted layer as its own tape node, with the cotangent rules of
    ``reference_layer_vjp``, which the network node's reverse walk must
    reproduce bit for bit: the reference the layer-by-layer taped forward
    used."""
    xd, stochastic = x.data, eps is not None
    a = alphas.data[:, col, None] if stochastic else None
    base, z, q, _, _ = A.layer_terms(layer, xd, bias.data, stochastic)
    out, z, sd = A.layer_output(layer, base, z, q, a, eps)

    def vjp(g):
        gx, gwa, gwb, ga = reference_layer_vjp(layer, g, xd, z, q, sd, a, eps,
                                               x.requires_grad)
        gb = g.sum(axis=0) if bias.requires_grad else None
        galpha = None
        if stochastic and alphas.requires_grad:
            galpha = np.zeros(alphas.shape)
            galpha[:, col] = ga
        grads = (gx, gwa, gwb, gb, galpha)
        return tuple(gr for p, gr in zip(slots, grads) if p is not None)

    slots = (x, layer.WA, layer.WB, bias, alphas if stochastic else None)  # W0 is frozen
    return Tensor._from_op(out, tuple(p for p in slots if p is not None), vjp,
                           "adapted_linear")


def _reference_chain(model, X, alphas=None, eps=None, prefix=None) -> Tensor:
    """The network taped layer by layer: one node per adapted layer,
    ``tensor.linear`` for the others and ``tensor.gelu`` between them."""
    h, start = (Tensor(X), 0) if prefix is None else (Tensor(prefix), model.prefix_layers)
    last = model.backbone.n_layers - 1
    for i in range(start, last + 1):
        w, b, layer = model.backbone.weights[i], model.backbone.biases[i], model.adapters.get(i)
        if layer is None:
            h = T.linear(h, w, b)
        else:
            col = model.adapted_layers.index(i)
            h = _reference_adapted_linear(layer, h, b, alphas, col,
                                          None if eps is None else eps[col])
        if i != last:
            h = T.gelu(h)
    return h


def _grads(model, make_out, proj, extra=()) -> list[bytes]:
    """The bytes of every gradient of ``sum(proj * make_out())``."""
    params = [*model.trainables(), *model.backbone.parameters(), *extra]
    V.zero_grad(params)
    T.backward(T.tsum(T.mul(make_out(), Tensor(proj))))
    grads = [None if p.grad is None else p.grad.tobytes() for p in params]
    V.zero_grad(params)
    return grads


def _shell(seed: int) -> AdaptedModel:
    """The unfrozen, adapter-free model that pretraining trains."""
    backbone = init_backbone(BackboneSpec(d_in=5, d_out=3, hidden=(6, 7)), Rng(seed))
    return AdaptedModel(backbone, {}, None, "lora")


_SUBSETS = pytest.mark.parametrize("adapt,head", [
    (None, "regression"), ((2,), "classification"), ((1,), "regression"),
    ((0, 2), "classification"), ("shell", "regression")],
    ids=["all", "output-only", "middle-only", "first-and-output", "shell"])


class TestNetworkNode:
    """``forward`` is one tape node over ``_walk``; its reverse walk must give
    the gradients of the layer-by-layer chain."""

    @_SUBSETS
    def test_gradients_match_finite_differences(self, adapt, head):
        model = _shell(50) if adapt == "shell" else _adapted(50, (6, 7), adapt, head)
        X, proj = Rng(51).normal((4, 5)), Rng(52).normal((4, 3))
        stochastic = model.kind == "balora"
        alphas = Tensor(model.alphas(X).data, requires_grad=True) if stochastic else None
        eps = model.draw_eps(len(X), Rng(53)) if stochastic else None
        # The node's parents that train: the adapters, an unfrozen
        # backbone's weights and biases, and the alphas.
        network = [t for layer in model.adapters.values() for t in (layer.WA, layer.WB)]
        network += model.backbone.trainables() + ([alphas] if stochastic else [])

        def loss() -> Tensor:
            return T.tsum(T.mul(model.forward(X, alphas, eps), Tensor(proj)))

        assert len(network) > 2
        assert gradient_error(loss, network) <= 1.0

    @_SUBSETS
    def test_bits_match_the_layer_chain(self, adapt, head):
        model = _shell(54) if adapt == "shell" else _adapted(54, (6, 7), adapt, head)
        X, proj = Rng(55).normal((6, 5)), Rng(56).normal((6, 3))
        runs = [(None, None, None)]
        if model.kind == "balora":
            noise = (Tensor(model.alphas(X).data, requires_grad=True),
                     model.draw_eps(len(X), Rng(57)))
            runs += [(*noise, None), (*noise, model.frozen_prefix(X))]
        for alphas, eps, prefix in runs:
            extra = () if alphas is None else (alphas,)
            got = model.forward(X, alphas, eps, prefix)
            want = _reference_chain(model, X, alphas, eps, prefix)
            assert got.requires_grad
            assert got.data.tobytes() == want.data.tobytes()
            assert _grads(model, lambda: model.forward(X, alphas, eps, prefix), proj, extra) \
                == _grads(model, lambda: _reference_chain(model, X, alphas, eps, prefix),
                          proj, extra)

    def test_zero_latent_variance_has_zero_subgradient(self):
        # Inputs supported only where WA's columns vanish: the latent
        # variance is exactly zero, so the noise adds nothing, not NaN.
        model = single_linear_model(58, d=4, k=3, r=2)
        layer = model.adapters[0]
        wa = layer.WA.data.copy()
        wa[:, :2] = 0.0
        layer.WA = Tensor(wa, requires_grad=True)
        X = np.array([[0.7, -1.3, 0.0, 0.0], [2.0, 0.5, 0.0, 0.0]])
        alphas = Tensor(model.alphas(X).data, requires_grad=True)
        proj = Rng(59).normal((2, 3))
        noisy = _grads(model, lambda: model.forward(X, alphas, model.draw_eps(2, Rng(60))),
                       proj, (alphas,))
        plain = _grads(model, lambda: model.forward(X), proj)
        assert noisy[:2] == plain[:2]  # WA and WB
        assert np.all(np.frombuffer(noisy[-1]) == 0.0)


def _fuzz_model(data) -> AdaptedModel:
    """A drawn balora model: 1 to 3 hidden layers of widths 1 to 9, either
    head, any non-empty adapted subset and a rank that some layer clips."""
    widths = data.draw(st.lists(st.integers(1, 9), min_size=3, max_size=5))
    n_layers = len(widths) - 1
    adapt = data.draw(st.sets(st.integers(0, n_layers - 1), min_size=1))
    head = data.draw(st.sampled_from(["regression", "classification"]))
    rank = data.draw(st.integers(min(widths) + 1, 10))
    return _adapted(data.draw(st.integers(0, 2**16)), tuple(widths[1:-1]), tuple(adapt), head,
                    d_in=widths[0], d_out=widths[-1], rank=rank)


class TestForwardPathFuzz:
    """Differential fuzz of every forward path of one drawn model, on inputs
    with rows of signed zeros: the taped ``forward``, ``predict``,
    ``predict_stochastic`` at any block size and thread count,
    ``merged_forward``, its lora twin, and the gradients of the
    layer-by-layer chain."""

    @settings(derandomize=True, max_examples=250, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_forward_paths_agree(self, data):
        model = _fuzz_model(data)
        B, S = data.draw(st.integers(1, 9)), data.draw(st.integers(2, 9))
        rng = Rng(data.draw(st.integers(0, 2**16)))
        X, proj = rng.stream_of(0).normal((B, model.backbone.spec.d_in)), None
        # All-zero rows of either sign: an adapted first layer's latent
        # variance is zero there, so the alphas' cotangent holds zeros.
        for i, zero in enumerate(data.draw(st.lists(st.sampled_from([None, 0.0, -0.0]),
                                                    min_size=B, max_size=B))):
            if zero is not None:
                X[i] = zero
        mean = model.predict(X)
        assert mean.tobytes() == model.forward(X).data.tobytes()
        scale = max(1.0, float(np.max(np.abs(mean))))
        assert np.max(np.abs(model.merged_forward(X) - mean)) <= 1e-12 * scale

        tiled = model.forward(np.tile(X, (S, 1)),
                              eps=model.draw_eps(S * B, rng.stream_of(1).stream_of(0)))
        block, workers = data.draw(st.sampled_from([3, 10, 512])), data.draw(st.integers(1, 3))
        with pytest.MonkeyPatch.context() as mp:
            draws = {}
            for rows, threads in ((512, 1), (block, 1), (block, workers)):
                mp.setattr(M, "_BLOCK_ROWS", rows)
                mp.setattr(M, "_cpu_workers", lambda: threads)
                draws[rows, threads] = model.predict_stochastic(X, S, rng.stream_of(1))
        np.testing.assert_allclose(draws[512, 1], tiled.data.reshape(S, B, -1), rtol=1e-12,
                                   atol=1e-14)
        assert draws[block, workers].tobytes() == draws[block, 1].tobytes()
        # Not bytes: the BLAS rounds a row differently in a block of another
        # row count at small widths (a ragged one-row block, or a 3-row one).
        np.testing.assert_allclose(draws[block, 1], draws[512, 1], rtol=1e-12, atol=1e-14)

        lora = AdaptedModel(model.backbone, model.adapters, None, "lora")
        for noisy in (lambda: lora.draw_eps(B, rng), lambda: lora.forward(X, eps=[])):
            with pytest.raises(DomainError):
                noisy()
        assert lora.forward(X).data.tobytes() == mean.tobytes()

        proj = rng.stream_of(2).normal(mean.shape)
        alphas = Tensor(model.alphas(X).data, requires_grad=True)
        eps = model.draw_eps(B, rng.stream_of(3))
        for a, e in ((None, None), (alphas, eps)):
            extra = () if a is None else (a,)
            assert _grads(model, lambda: model.forward(X, a, e), proj, extra) \
                == _grads(model, lambda: _reference_chain(model, X, a, e), proj, extra)
