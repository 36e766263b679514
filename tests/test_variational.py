"""Objective and optimizer checks: the KL's minimum and bounds, the loss
terms' values and VJPs, the one-node ELBO step against the same step built
from the public nodes, and closed-form first-step behavior for AdamW. The
KL's quadrature oracles and the ELBO step's finite differences live in
``balora.verify``."""

from pathlib import Path

import numpy as np
import pytest
from conftest import loss_node
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from reference import ReferenceAdamW, reference_step

from balora import config as C
from balora import tensor as T
from balora import variational as V
from balora.model import AdaptedModel, AdapterSpec, BackboneSpec, attach_adapters, init_backbone
from balora.rng import Rng
from balora.tensor import DomainError, ShapeError, Tensor, backward
from balora.verify import _tiny_model, gradient_error


class TestKlPerEntry:
    def test_reference_point(self):
        # p = 0.5, alpha = 1: (2)(1) - 1 + 0 - 0 halved.
        assert abs(V.kl_per_entry(1.0, 0.5) - 0.5) < 1e-15

    def test_minimum_location_and_value(self):
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            a_star = V.alpha_star(p)
            assert abs(V.kl_per_entry(a_star, p) - (1 - p) / (2 * p)) < 1e-9
            # Golden-section search over the clamp interval lands on a_star.
            lo, hi = 1e-6, 1e3
            phi = (np.sqrt(5.0) - 1) / 2
            a, b = np.log(lo), np.log(hi)
            for _ in range(200):
                c, d = b - phi * (b - a), a + phi * (b - a)
                if V.kl_per_entry(np.exp(c), p) < V.kl_per_entry(np.exp(d), p):
                    b = d
                else:
                    a = c
            assert abs(np.exp(0.5 * (a + b)) - a_star) < 1e-6 * max(1.0, a_star)

    def test_global_lower_bound(self):
        rng = Rng(0)
        for p in (0.2, 0.5, 0.8):
            floor = (1 - p) / (2 * p)
            alphas = np.exp(rng.uniform(np.log(1e-6), np.log(1e3), (200,)))
            for a in alphas:
                assert V.kl_per_entry(float(a), p) >= floor - 1e-12

    def test_monotone_above_minimizer(self):
        p = 0.3
        grid = np.geomspace(V.alpha_star(p) * 1.001, 1e3, 50)
        vals = [V.kl_per_entry(float(a), p) for a in grid]
        assert np.all(np.diff(vals) > 0)

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            V.kl_per_entry(1e-9, 0.5)
        with pytest.raises(DomainError):
            V.kl_per_entry(1.0, 1.0)
        # An (n, L) batch of alphas is reported by its extremes, on one line.
        alphas = np.full((64, 3), 0.5)
        alphas[7, 2], alphas[9, 0] = 2e3, 0.25
        with pytest.raises(DomainError) as err:
            V.kl_per_entry(alphas, 0.5)
        assert str(err.value) == "alpha outside clamp range [1e-06, 1000.0]: min 0.25, max 2000.0"
        alphas[7, 2] = np.nan
        with pytest.raises(DomainError, match="max nan"):
            V.kl_per_entry(alphas, 0.5)


class TestKlNormalized:
    def test_minimum_value(self):
        p = 0.5
        a_star = V.alpha_star(p)
        got = V.kl_normalized([a_star, a_star], p).item()
        expect = ((1 - p) / (2 * p)) / V.kl_max(p)
        assert abs(got - expect) < 1e-12

    def test_endpoint_is_one(self):
        p = 0.4
        assert V.kl_max(p) == V.kl_per_entry(1e3, p)  # upper clamp dominates
        assert abs(V.kl_normalized([1e3], p).item() - 1.0) < 1e-12

    def test_memoized_kl_max_keeps_values_and_errors(self):
        for p, lo, hi in ((0.4, 1e-6, 1e3), (0.1, 1e-3, 10.0), (0.9, 1e-2, 2.0)):
            expect = max(V.kl_per_entry(lo, p, lo, hi), V.kl_per_entry(hi, p, lo, hi))
            assert V.kl_max(p, lo, hi) == V.kl_max(p, lo, hi) == expect
        for _ in range(2):
            with pytest.raises(DomainError):
                V.kl_max(1.0)
            with pytest.raises(DomainError):
                V.kl_max(0.5, 2.0, 1.0)
            with pytest.raises(DomainError):
                V.kl_normalized([0.5], 0.0)

    def test_bounded_in_unit_interval(self):
        rng = Rng(1)
        p = 0.25
        alphas = np.exp(rng.uniform(np.log(1e-6), np.log(1e3), (100,)))
        for a in alphas:
            val = V.kl_normalized([float(a)], p).item()
            assert 0.0 <= val <= 1.0

    def test_empty_layer_list_rejected(self):
        with pytest.raises(DomainError):
            V.kl_normalized([], 0.5)

    @pytest.mark.parametrize("bad", [[0.5, 2e3], [1e-9, 0.5], [0.5, np.nan], [np.inf, 0.5]],
                             ids=["above", "below", "nan", "inf"])
    def test_alphas_outside_the_clamp_rejected(self, bad):
        # The ELBO step's KL does not check its alphas (they come out of the
        # clamp), so this is where the check is pinned: the same error and
        # message as kl_per_entry, for an array and for a node alike.
        with pytest.raises(DomainError) as expect:
            V.kl_per_entry(np.array(bad), 0.5)
        assert str(expect.value).startswith("alpha outside clamp range [1e-06, 1000.0]")
        with pytest.raises(DomainError) as got:
            V.kl_normalized(bad, 0.5)
        assert str(got.value) == str(expect.value)
        if np.isfinite(bad).all():
            with pytest.raises(DomainError) as got:
                V.kl_normalized(Tensor(bad, requires_grad=True), 0.5)
            assert str(got.value) == str(expect.value)

    def test_tensor_path_matches_scalar_path(self):
        alphas = np.array([0.3, 1.7, 42.0])
        got = V.kl_normalized(Tensor(alphas), 0.3, 1e-6, 1e3).item()
        expect = np.mean([V.kl_per_entry(a, 0.3) / V.kl_max(0.3) for a in alphas])
        assert abs(got - expect) < 1e-12


class TestLossNodes:
    """The plain ``(value, vjp)`` loss terms ``elbo_step`` calls: values
    against the textbook formulas, VJPs against central differences."""

    def test_gaussian_nll_value(self):
        r = Rng(60)
        pred, y = r.stream_of(0).normal((7, 2)), r.stream_of(1).normal((7, 2))
        ls = 0.3
        got = float(V._gaussian_nll(pred, y, np.asarray(ls))[0])
        expect = 0.5 * np.mean((y - pred) ** 2 * np.exp(-2 * ls) + 2 * ls + np.log(2 * np.pi))
        assert abs(got - expect) < 1e-14

    def test_cross_entropy_value(self):
        logits = np.array([[1000.0, 0.0, -1000.0], [0.0, 1000.0, 0.0], [1.0, 2.0, 3.0]])
        labels = np.array([0, 0, 2])
        got = float(V._cross_entropy(logits, labels)[0])
        last = -(3.0 - np.log(np.exp(1.0) + np.exp(2.0) + np.exp(3.0)))
        assert abs(got - (0.0 + 1000.0 + last) / 3) < 1e-12

    def test_cross_entropy_log_softmax_normalizes(self):
        # Summed over every label, the per-row likelihoods exp(-CE) are one.
        logits = Rng(41).normal((6, 4))
        for row in logits:
            probs = [np.exp(-float(V._cross_entropy(row[None, :], np.array([c]))[0]))
                     for c in range(4)]
            assert abs(sum(probs) - 1.0) < 1e-12

    def test_cross_entropy_rejects_bad_labels(self, monkeypatch):
        # elbo_step checks a classifier's labels before the forward; the
        # cross-entropy it then calls trusts them.
        spec = BackboneSpec(d_in=2, d_out=3, hidden=(4,), head="classification")
        model = AdaptedModel(init_backbone(spec, Rng(0)), {}, None)

        def no_work(*args):
            raise AssertionError("the forward started before the labels were checked")

        monkeypatch.setattr(model, "network", no_work)
        cfg = V.TrainConfig(lr=1e-3, epochs=1, batch_size=2)
        for labels in ([0, 3], [-1, 0], [[0], [1]], [0.5, 1]):
            with pytest.raises(DomainError, match="class label"):
                V.elbo_step(model, (np.zeros((2, 2)), np.array(labels)), V.PriorConfig(0.5),
                            cfg, Rng(0))

    def test_gaussian_nll_gradient(self):
        r = Rng(61)
        for trial in range(5):
            rt = r.stream_of(trial)
            pred = Tensor(rt.normal((6, 2)), requires_grad=True)
            ls = Tensor(rt.uniform(-1.0, 1.0, ()), requires_grad=True)
            y = rt.stream_of(1).normal((6, 2))
            assert gradient_error(
                lambda: loss_node(V._gaussian_nll(pred.data, y, ls.data), (pred, ls)),
                [pred, ls]) <= 1.0

    def test_cross_entropy_gradient(self):
        r = Rng(63)
        logits = Tensor(3.0 * r.normal((6, 4)), requires_grad=True)
        labels = r.stream_of(1).integers(0, 4, (6,))
        assert gradient_error(lambda: loss_node(V._cross_entropy(logits.data, labels),
                                                (logits,)), [logits]) <= 1.0

    @pytest.mark.parametrize("shape", [(), (3,), (5, 3)], ids=["one", "layers", "rows-by-layers"])
    def test_kl_normalized_value_and_gradient(self, shape):
        r = Rng(64)
        alphas = Tensor(np.exp(r.uniform(np.log(1e-3), np.log(1e2), shape)),
                        requires_grad=True)
        assert gradient_error(lambda: V.kl_normalized(alphas, 0.3), [alphas]) <= 1.0
        per = [V.kl_per_entry(float(a), 0.3) / V.kl_max(0.3) for a in alphas.data.ravel()]
        assert abs(V.kl_normalized(alphas, 0.3).item() - np.mean(per)) < 1e-12


class TestElboStep:
    def test_deterministic_limit(self):
        # Clamp forces alpha to its floor: the single-sample objective
        # collapses onto the deterministic adapter loss up to noise of
        # order sqrt(alpha_min).
        model, X, y = _tiny_model(77)
        model.alphanet.alpha_min = 1e-6
        model.alphanet.alpha_max = 1e-6
        cfg = V.TrainConfig(lr=1e-3, epochs=1, batch_size=4, kl_weight=0.0)
        loss, metrics = V.elbo_step(model, (X, y), V.PriorConfig(0.5), cfg, Rng(5))
        det_pred = model.forward(X)
        det_nll = loss_node(V._gaussian_nll(det_pred.data, y, model.log_sigma.data),
                            (det_pred, model.log_sigma))
        assert abs(loss.item() - det_nll.item()) < 1e-2
        assert metrics["kl_normalized"] >= 0.0

    def test_kl_logged_but_excluded_when_weight_zero(self):
        model, X, y = _tiny_model(78)
        cfg = V.TrainConfig(lr=1e-3, epochs=1, batch_size=4, kl_weight=0.0)
        loss, metrics = V.elbo_step(model, (X, y), V.PriorConfig(0.5), cfg, Rng(6))
        assert metrics["kl_normalized"] > 0.0
        assert abs(loss.item() - metrics["nll"]) < 1e-12

    def test_empty_batch_rejected(self):
        model, X, y = _tiny_model(81)
        cfg = V.TrainConfig(lr=1e-3, epochs=1, batch_size=4)
        with pytest.raises(ShapeError, match="X must hold at least one input row"):
            V.elbo_step(model, (X[:0], y[:0]), V.PriorConfig(0.5), cfg, Rng(0))

    def test_divergence_aborts_with_diagnostics(self):
        model, X, y = _tiny_model(82)
        model.log_sigma = Tensor(np.array(-400.0), requires_grad=True)  # exp overflows
        cfg = V.TrainConfig(lr=1e-3, epochs=1, batch_size=4)
        with pytest.raises(V.TrainingDivergence) as err:
            V.elbo_step(model, (X, y), V.PriorConfig(0.5), cfg, Rng(83))
        assert err.value.diagnostics["batch_size"] == 4

    def test_no_rows_rejected_before_the_first_step(self):
        model, X, y = _tiny_model(88)
        cfg = V.TrainConfig(lr=1e-3, epochs=1, batch_size=4)
        before = [p.data.copy() for p in model.trainables()]
        with pytest.raises(ShapeError, match="X must hold at least one input row"):
            V.train_model(model, (X[:0], y[:0]), V.PriorConfig(0.5), cfg, Rng(89))
        assert all((p.data == b).all() for p, b in zip(model.trainables(), before))

    def test_wrong_target_rows_rejected_before_the_forward(self, monkeypatch):
        # Rows, then the columns of a regressor with two outputs.
        model, X, y = _tiny_model(3)

        def no_work(*args):
            raise AssertionError("the forward started before y was checked")

        for name in ("frozen_prefix", "alpha_features", "network"):
            monkeypatch.setattr(model, name, no_work)
        cfg = V.TrainConfig(lr=1e-3, epochs=1, batch_size=4)
        for bad in (y[:-1], np.vstack([y, y[:1]]), y[:, :1], y[:, 0], np.hstack([y, y])):
            with pytest.raises(ShapeError, match="y of shape"):
                V.elbo_step(model, (X, bad), V.PriorConfig(0.5), cfg, Rng(0))

    def test_wrong_target_rows_rejected_before_the_first_step(self, monkeypatch):
        model, X, y = _tiny_model(3)

        def no_step(*args):
            raise AssertionError("a step ran before y was checked")

        monkeypatch.setattr(V, "elbo_step", no_step)
        cfg = V.TrainConfig(lr=1e-3, epochs=1, batch_size=2)
        for bad in (y[:-1], np.vstack([y, y[:1]]), y[:, :1], y[:, 0], np.hstack([y, y]),
                    y[:, :1].tolist()):
            with pytest.raises(ShapeError, match="y of shape"):
                V.train_model(model, (X, bad), V.PriorConfig(0.5), cfg, Rng(0))

    def test_frozen_weight_that_requires_grad_fails_the_freeze_check(self):
        model, X, y = _tiny_model(86)
        model.backbone.biases[0] = Tensor(model.backbone.biases[0].data, requires_grad=True)
        cfg = V.TrainConfig(lr=1e-3, epochs=1, batch_size=4)
        with pytest.raises(AssertionError, match="frozen backbone accumulated gradient"):
            V.train_model(model, (X, y), V.PriorConfig(0.5), cfg, Rng(87))

    def test_training_loss_decreases_on_linear_task(self):
        # Full-batch steps on an exactly linear target; the deterministic
        # full-train loss should fall monotonically early in training for
        # nearly every seed.
        wins = 0
        for seed in range(20):
            rng = Rng(1000 + seed)
            g = rng.stream_of(0).normal((2, 5))
            X = rng.stream_of(1).normal((64, 5))
            y = X @ g.T
            backbone = init_backbone(BackboneSpec(d_in=5, d_out=2, hidden=(16,),
                                                  head="regression"), rng.stream_of(2))
            backbone.freeze()
            model = attach_adapters(backbone,
                                    AdapterSpec(rank=2, lora_alpha=4.0, init_std=0.05,
                                                alphanet_hidden=(8,), init_alpha=0.01),
                                    "balora", rng.stream_of(3))
            cfg = V.TrainConfig(lr=2e-3, epochs=50, batch_size=64, kl_weight=0.1)
            losses = []
            opt = V.AdamW(model.trainables(), cfg, total_steps=50)
            for step in range(50):
                det = model.forward(X)
                losses.append(float(np.mean((det.data - y) ** 2)))
                loss, _ = V.elbo_step(model, (X, y), V.PriorConfig(0.5), cfg,
                                      rng.stream_of(100 + step))
                backward(loss)
                opt.step()
                V.zero_grad(model.trainables())
            if np.all(np.diff(losses) < 1e-9):
                wins += 1
        assert wins >= 18, f"monotone decrease in only {wins}/20 seeds"


class TestAlphaDrift:
    def test_alpha_drifts_toward_prior_optimum(self, capsys):
        # Soft property, reported rather than hard-failed: on exactly linear
        # labels (no residual uncertainty needed) the KL term pulls the noise
        # scales toward alpha* = p/(1-p). kl_weight is set near the
        # normalization constant so the regularizer acts at raw-KL scale.
        from balora import tasks as TK
        from balora.model import AdapterSpec

        p = 0.5
        finals = []
        for seed in range(10):
            task = TK.SyntheticTask(kind="linear-regression", d_in=5, d_out=2,
                                    n_train=256, n_val=16, n_test=64,
                                    noise_std=0.0, seed=4000 + seed)
            aspec = AdapterSpec(rank=4, lora_alpha=4.0, alphanet_hidden=(8,),
                                init_alpha=0.05)
            pre = V.TrainConfig(lr=1e-2, epochs=30, batch_size=64, kl_weight=0.0)
            ad = V.TrainConfig(lr=1e-2, epochs=40, batch_size=64,
                               kl_weight=round(V.kl_max(p)))
            trained = TK.pretrain_then_adapt(task, (16,), aspec, "balora", pre, ad,
                                             V.PriorConfig(p), seed=4000 + seed)
            finals.append(np.median(trained.adapt_records[-1]["alpha_per_layer"]))
        med = float(np.median(finals))
        a_star = V.alpha_star(p)
        inside = a_star / 3 <= med <= 3 * a_star
        flag = "PASS" if inside else "WARN"
        with capsys.disabled():
            print(f"\n[{flag}] soft property (alpha drift): median final alpha "
                  f"{med:.3f} vs alpha*={a_star} window [{a_star / 3:.3f}, {3 * a_star:.1f}] "
                  f"over 10 seeds (reported, not gated)")


def _shadowed_params(seed):
    """Two identical sets of 0-d, 1-d and 2-d parameters plus a frozen one."""
    rng = np.random.default_rng(seed)
    shapes = [(), (7,), (5, 3), (1,), (4, 9)]
    values = [rng.normal(size=shape) for shape in shapes]

    def make():
        return [Tensor(v, requires_grad=True) for v in values] + [Tensor(np.ones(3))]

    return make(), make(), rng


class TestAdamW:
    # Every gradient on every step (False), or with parameter 1's data
    # replaced before some steps.
    @pytest.mark.parametrize("case", [False, "data-replaced"])
    def test_fused_step_matches_per_tensor_loop(self, case):
        fused_params, ref_params, rng = _shadowed_params(7)
        cfg = V.TrainConfig(lr=0.05, epochs=1, batch_size=1, warmup_fraction=0.1,
                            grad_clip_norm=4.0)
        fused = V.AdamW(fused_params, cfg, total_steps=200)
        ref = ReferenceAdamW(ref_params, cfg, total_steps=200)
        clipped = 0
        for step in range(200):
            if case == "data-replaced" and step % 40 == 20:
                values = rng.normal(size=fused_params[1].shape)
                fused_params[1].data, ref_params[1].data = values.copy(), values.copy()
            # Gradient scales straddle the clip norm, so clipping engages on
            # some steps and not on others.
            gscale = 10.0 ** rng.uniform(-1.5, 1.0)
            for a, b in zip(fused_params[:-1], ref_params[:-1]):
                grad = gscale * rng.normal(size=a.shape)
                a.grad, b.grad = grad.copy(), grad.copy()
            got, want = fused.step(), ref.step()
            assert got == want
            clipped += got["clipped"]
            for a, b in zip(fused_params, ref_params):
                assert a.data.shape == b.data.shape
                assert a.data.tobytes() == b.data.tobytes()
        assert 0 < clipped < 200
        for (a, b), m, v in zip(fused._spans, ref._m, ref._v):
            assert fused._m[a:b].tobytes() == m.tobytes()
            assert fused._v[a:b].tobytes() == v.tobytes()

    def test_missing_gradient_leaves_data_and_moments_untouched(self):
        # Every trainable gets a gradient on every step, so a parameter
        # without one is an error, raised before any write.
        params, _, _ = _shadowed_params(8)
        opt = V.AdamW(params, V.TrainConfig(lr=0.05, epochs=1, batch_size=1), total_steps=10)
        for p in params[:-1]:
            p.grad = np.ones(p.shape)
        opt.step()
        data = [p.data for p in params]
        m, v = opt._m.copy(), opt._v.copy()
        for p in params[:-1]:
            p.grad = np.ones(p.shape)
        params[3].grad = None
        with pytest.raises(DomainError, match="parameter 3 has no gradient at optimizer step 1"):
            opt.step()
        assert all(p.data is d for p, d in zip(params, data))
        assert opt._m.tobytes() == m.tobytes() and opt._v.tobytes() == v.tobytes()
        assert opt.t == 1

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    def test_non_finite_gradient_raises_before_any_write(self, bad):
        # Without the check this step wrote [1, nan, 1] and reported an
        # applied norm of 1.0.
        p = Tensor(np.ones(3), requires_grad=True)
        opt = V.AdamW([p], V.TrainConfig(lr=0.1, epochs=1, batch_size=1), total_steps=10)
        data = p.data
        p.grad = np.array([1.0, bad, 2.0])
        with pytest.raises(V.TrainingDivergence, match="non-finite gradient norm"):
            opt.step()
        assert p.data is data and data.tobytes() == np.ones(3).tobytes()
        assert not opt._m.any() and not opt._v.any() and opt.t == 0

    def test_train_model_reports_the_step_of_a_non_finite_gradient(self, monkeypatch):
        # Four rows in batches of two: step 3 is the second step of epoch 1.
        model, X, y = _tiny_model(84)
        cfg = V.TrainConfig(lr=1e-3, epochs=3, batch_size=2)
        real, calls = T.backward, []

        def poisoned(loss):
            real(loss)
            calls.append(loss)
            if len(calls) == 4:
                model.log_sigma.grad = np.asarray(np.inf)

        monkeypatch.setattr(T, "backward", poisoned)
        records = []
        with pytest.raises(V.TrainingDivergence) as err:
            V.train_model(model, (X, y), V.PriorConfig(0.5), cfg, Rng(85),
                          record_hook=records.append)
        assert (err.value.diagnostics["step"], err.value.diagnostics["epoch"]) == (3, 1)
        assert [r["step"] for r in records] == [0, 1, 2]

    def test_more_steps_than_noise_streams_rejected(self, monkeypatch):
        # Step i draws from substream i and epoch e permutes from substream
        # MAX_STEPS + e, so one step more than MAX_STEPS would share a stream.
        model, X, y = _tiny_model(86)
        cfg = V.TrainConfig(lr=1e-3, epochs=V.MAX_STEPS // len(X) + 1, batch_size=1)
        assert V.total_steps(len(X), cfg) == V.MAX_STEPS + len(X)
        with pytest.raises(DomainError, match="900004 training steps exceed the 900000"):
            V.train_model(model, (X, y), V.PriorConfig(0.5), cfg, Rng(87))

        class Started(Exception):
            pass

        def first_step(*args):
            raise Started

        monkeypatch.setattr(V, "elbo_step", first_step)
        cfg = V.TrainConfig(lr=1e-3, epochs=V.MAX_STEPS // len(X), batch_size=1)
        with pytest.raises(Started):
            V.train_model(model, (X, y), V.PriorConfig(0.5), cfg, Rng(87))

    def test_one_step_generator_per_run(self, monkeypatch):
        # A Philox for the steps' noise, re-keyed each step, and one for the
        # permutations, re-keyed each epoch: a run builds 2 whatever its
        # number of epochs.
        rng, built = Rng(89), []
        philox = np.random.Philox

        def counted(*args, **kwargs):
            built.append(kwargs.get("key"))
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counted)
        for epochs in (1, 3):
            model, X, y = _tiny_model(88)
            built.clear()
            records = V.train_model(model, (X, y), V.PriorConfig(0.5),
                                    V.TrainConfig(lr=1e-3, epochs=epochs, batch_size=2), rng)
            assert len(records) == 2 * epochs and len(built) == 2
        # A fresh stream_of(step) per step and stream_of(MAX_STEPS + epoch) per
        # epoch, as the loop built before, train the same bits.
        monkeypatch.setattr(Rng, "_rekey", lambda self, parent, index: parent.stream_of(index))
        model, X, y = _tiny_model(88)
        assert V.train_model(model, (X, y), V.PriorConfig(0.5),
                             V.TrainConfig(lr=1e-3, epochs=3, batch_size=2), rng) == records

    def test_empty_optimizer_steps(self):
        cfg = V.TrainConfig(lr=0.1, epochs=1, batch_size=1)
        opt, ref = V.AdamW([], cfg, total_steps=5), ReferenceAdamW([], cfg, total_steps=5)
        for _ in range(5):
            stats = opt.step()
            assert stats == ref.step()
            assert (stats["grad_norm"], stats["applied_norm"], stats["clipped"]) == (0.0, 0.0, False)

    def test_handed_out_arrays_are_never_written(self):
        params, _, rng = _shadowed_params(9)
        cfg = V.TrainConfig(lr=0.1, epochs=1, batch_size=1)
        opt = V.AdamW(params, cfg, total_steps=20)
        taken = []
        for _ in range(20):
            taken.append([(p.data, p.data.copy()) for p in params])
            for p in params[:-1]:
                p.grad = rng.normal(size=p.shape)
            opt.step()
            for p in params:
                assert not p.data.flags.writeable
                assert p.data.flags.c_contiguous
                assert p.data.dtype == np.float64
        for held in taken:
            for array, snapshot in held:
                assert array.tobytes() == snapshot.tobytes()

    def test_first_step_is_signed_lr(self):
        p = Tensor(np.array(1.0), requires_grad=True)
        cfg = V.TrainConfig(lr=0.1, epochs=1, batch_size=1, grad_clip_norm=1e9)
        opt = V.AdamW([p], cfg, total_steps=1)
        p.grad = np.asarray(0.37)
        opt.step()
        # Bias-corrected first step is -lr * g / (|g| + eps) within eps.
        assert abs(float(p.data) - (1.0 - 0.1)) < 1e-6

    def test_clipping_caps_global_norm(self):
        p = Tensor(np.zeros(4), requires_grad=True)
        cfg = V.TrainConfig(lr=0.01, epochs=1, batch_size=1, grad_clip_norm=1.0)
        opt = V.AdamW([p], cfg, total_steps=1)
        p.grad = np.full(4, 5.0)  # norm 10
        stats = opt.step()
        assert abs(stats["grad_norm"] - 10.0) < 1e-12
        assert abs(stats["applied_norm"] - 1.0) < 1e-12
        assert stats["clipped"] is True
        p.grad = np.full(4, 0.25)  # norm 0.5
        assert opt.step()["clipped"] is False

    def test_frozen_params_untouched(self):
        p = Tensor(np.array(3.0), requires_grad=False)
        cfg = V.TrainConfig(lr=0.1, epochs=1, batch_size=1)
        opt = V.AdamW([p], cfg, total_steps=1)
        opt.step()
        assert float(p.data) == 3.0

    def test_warmup_then_decay_schedule(self):
        cfg = V.TrainConfig(lr=1.0, epochs=1, batch_size=1, warmup_fraction=0.5)
        opt = V.AdamW([], cfg, total_steps=10)
        lrs = [opt.lr_at(s) for s in range(10)]
        assert lrs[0] == pytest.approx(0.2)
        assert lrs[4] == pytest.approx(1.0)
        assert lrs[9] == pytest.approx(0.2)
        assert np.all(np.diff(lrs[:5]) > 0)
        assert np.all(np.diff(lrs[5:]) < 0)


class TestConfigs:
    def test_prior_validation(self):
        with pytest.raises(DomainError):
            V.PriorConfig(0.0)
        with pytest.raises(DomainError):
            V.PriorConfig(1.0)

    def test_train_config_validation(self):
        with pytest.raises(DomainError):
            V.TrainConfig(lr=-1.0)
        with pytest.raises(DomainError):
            V.TrainConfig(warmup_fraction=1.5)


def _read_tensors(model) -> list:
    """The tensors one ELBO step reads, in the order of their cotangents: a
    regressor's ``log_sigma``, per network layer past a frozen prefix its
    weight or its adapter's WA and WB, then its bias, then per AlphaNet
    layer its weight and bias."""
    sigma = [model.log_sigma] if model.head == "regression" else []
    start = model.prefix_layers if model.backbone.frozen else 0
    net = [t for i in range(start, model.backbone.n_layers)
           for t in ((model.adapters[i].WA, model.adapters[i].WB) if i in model.adapters
                     else (model.backbone.weights[i],)) + (model.backbone.biases[i],)]
    alpha = [] if model.alphanet is None else [
        t for pair in zip(model.alphanet.weights, model.alphanet.biases) for t in pair]
    return sigma + net + alpha


class TestTapeSize:
    def test_one_node_per_elbo_step(self):
        # A refactor that splits the step back into generic ops multiplies
        # the per-step tape work; this pins the graph of one ELBO step: the
        # loss is one node whose parents are the tensors the step reads, and
        # those that require grad are the model's trainables, for balora,
        # lora (all layers adapted, or the output layer behind a frozen
        # prefix) and the pretraining shell on the toy config's shapes.
        cfg = C.load_config(Path(__file__).resolve().parents[1] / "configs" / "toy_hetero.cfg")
        spec = BackboneSpec(d_in=cfg["d_in"], d_out=cfg["d_out"], hidden=cfg["hidden"])
        _, adapt_cfg, prior = C.train_configs_from_config(cfg)
        X = Rng(2).normal((cfg["batch_size"], cfg["d_in"]))
        y = Rng(3).normal((cfg["batch_size"], cfg["d_out"]))
        shell = AdaptedModel(init_backbone(spec, Rng(0)), {}, None)
        models = [shell]
        aspec = C.adapter_spec_from_config(cfg)
        for kind, layers in (("balora", None), ("lora", None), ("lora", (2,))):
            backbone = init_backbone(spec, Rng(0))
            backbone.freeze()
            aspec.adapt_layers = layers
            models.append(attach_adapters(backbone, aspec, kind, Rng(1)))
        assert len(models[1].adapters) == 3 and models[3].prefix_layers == 2
        for model in models:
            loss, _ = V.elbo_step(model, (X, y), prior, adapt_cfg, Rng(4))
            nodes = [node for node in (loss, *loss._parents) if node._vjp is not None]
            assert nodes == [loss]
            assert loss._vjp.__qualname__.startswith("elbo_step.")
            assert list(loss._parents) == _read_tensors(model)
            trained = model.trainables()
            assert {id(p) for p in loss._parents if p.requires_grad} == {id(p) for p in trained}
            assert len(trained) == sum(p.requires_grad for p in loss._parents)


class TestStepWork:
    """Exact counts, no timings, of what an adapt step on the toy config
    does: one noise draw, no generator built and one VJP closure run."""

    def test_counts_per_adapt_step(self, monkeypatch):
        cfg = C.load_config(Path(__file__).resolve().parents[1] / "configs" / "toy_hetero.cfg")
        spec = BackboneSpec(d_in=cfg["d_in"], d_out=cfg["d_out"], hidden=cfg["hidden"])
        _, adapt_cfg, prior = C.train_configs_from_config(cfg)
        adapt_cfg.epochs = 2
        backbone = init_backbone(spec, Rng(0))
        backbone.freeze()
        model = attach_adapters(backbone, C.adapter_spec_from_config(cfg), "balora", Rng(1))
        # Three batches per epoch, the last one ragged.
        n = 2 * adapt_cfg.batch_size + 5
        X, y = Rng(2).normal((n, cfg["d_in"])), Rng(3).normal((n, cfg["d_out"]))
        rng = Rng(4)

        counts = {"normal": 0, "philox": 0, "vjp": 0}
        normal, philox, from_op = Rng.normal, np.random.Philox, Tensor._from_op

        def counted_normal(self, shape=()):
            counts["normal"] += 1
            return normal(self, shape)

        def counted_philox(*args, **kwargs):
            counts["philox"] += 1
            return philox(*args, **kwargs)

        def counted_from_op(data, parents, vjp, what):
            if vjp is not None:
                inner = vjp

                def vjp(g):
                    counts["vjp"] += 1
                    return inner(g)

            return from_op(data, parents, vjp, what)

        monkeypatch.setattr(Rng, "normal", counted_normal)
        monkeypatch.setattr(np.random, "Philox", counted_philox)
        monkeypatch.setattr(Tensor, "_from_op", staticmethod(counted_from_op))
        per_step, last = [], dict(counts)

        def hook(record):
            per_step.append({k: counts[k] - last[k] for k in counts})
            last.update(counts)

        V.train_model(model, (X, y), prior, adapt_cfg, rng, record_hook=hook)
        # The run's two generators, one for the noise and one for the
        # permutations, are built before its first step.
        assert per_step[0] == {"normal": 1, "philox": 2, "vjp": 1}
        assert per_step[1:] == [{"normal": 1, "philox": 0, "vjp": 1}] * 5


def _drawn_model(data) -> AdaptedModel:
    """A drawn model for the ELBO step: the pretraining shell, or a balora or
    lora model with either head and any non-empty adapted subset, so some
    draws have a frozen prefix."""
    widths = data.draw(st.lists(st.integers(1, 7), min_size=2, max_size=4))
    head = data.draw(st.sampled_from(["regression", "classification"]))
    if head == "classification":
        widths[-1] = max(2, widths[-1])
    rng = Rng(data.draw(st.integers(0, 2**16)))
    backbone = init_backbone(BackboneSpec(d_in=widths[0], d_out=widths[-1],
                                          hidden=tuple(widths[1:-1]), head=head),
                             rng.stream_of(0))
    kind = data.draw(st.sampled_from(["balora", "lora", "shell"]))
    if kind == "shell":
        return AdaptedModel(backbone, {}, None)
    first = data.draw(st.integers(0, len(widths) - 2))  # the frozen prefix's length
    adapt = {first} | data.draw(st.sets(st.integers(first, len(widths) - 2)))
    model = attach_adapters(backbone, AdapterSpec(rank=data.draw(st.integers(1, 4)),
                                                  lora_alpha=4.0, adapt_layers=tuple(adapt),
                                                  alphanet_hidden=(3,), init_alpha=0.3),
                            kind, rng.stream_of(1))
    for j, layer in enumerate(model.adapters.values()):
        layer.WB = Tensor(rng.stream_of(2 + j).normal(layer.WB.shape) * 0.5,
                          requires_grad=True)
    return model


class TestElboStepFuzz:
    """The one-node ELBO step against the same step built from the public
    nodes: loss, metrics and every trainable's gradient, byte for byte, on
    inputs with rows of signed zeros."""

    @settings(derandomize=True, max_examples=200, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_matches_the_graph_of_public_nodes(self, data):
        model = _drawn_model(data)
        n = data.draw(st.integers(1, 6))
        rng = Rng(data.draw(st.integers(0, 2**16)))
        X = rng.stream_of(0).normal((n, model.backbone.spec.d_in))
        # All-zero rows of either sign: the latent variance is zero there
        # (through a fresh backbone's prefix too, its biases being zero), so
        # the noise scales' cotangent holds zeros.
        for i, zero in enumerate(data.draw(st.lists(st.sampled_from([None, 0.0, -0.0]),
                                                    min_size=n, max_size=n))):
            if zero is not None:
                X[i] = zero
        if model.head == "classification":
            y = rng.stream_of(1).integers(0, model.backbone.spec.d_out, (n,))
        else:
            y = rng.stream_of(1).normal((n, model.backbone.spec.d_out))
        cfg = V.TrainConfig(kl_weight=data.draw(st.sampled_from([0.0, 0.3, 2.5])))
        prior = V.PriorConfig(data.draw(st.sampled_from([0.2, 0.5])))
        params = model.trainables()
        runs = {}
        for name, step in (("node", V.elbo_step), ("graph", reference_step)):
            loss, metrics = step(model, (X, y), prior, cfg, rng.stream_of(2))
            backward(loss)
            runs[name] = (loss.data.tobytes(), metrics,
                          [None if p.grad is None else p.grad.tobytes() for p in params])
            V.zero_grad(params)
        assert runs["node"] == runs["graph"]
        assert any(g is not None for g in runs["node"][2])

        if model.head == "regression":
            model.log_sigma = Tensor(np.array(-400.0), requires_grad=True)  # exp overflows
            with pytest.raises(V.TrainingDivergence):
                V.elbo_step(model, (X, y), prior, cfg, rng.stream_of(2))
