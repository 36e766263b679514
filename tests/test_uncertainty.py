"""Metric hand-values, Monte Carlo convergence, and decomposition identities.

Monte Carlo properties are checked on ``uq_report`` and, for per-dim
moments, on its draw primitive ``AdaptedModel.predict_stochastic``, which
runs on two threads here (``two_mc_workers``)."""

import itertools
import json
import tracemalloc

import numpy as np
import pytest

from conftest import single_linear_model as _single_linear_model
from reference import reference_softmax

from balora import adapter as A
from balora import model as M
from balora import uncertainty as U
from balora.model import AdaptedModel, AdapterSpec, BackboneSpec, init_backbone
from balora.rng import Rng
from balora.tensor import DomainError, ShapeError, Tensor
from balora.verify import _tiny_model

pytestmark = pytest.mark.usefixtures("two_mc_workers")


def _draw_moments(model, x, S, rng):
    """Per-dim mean and population variance of S stochastic outputs at x."""
    draws = model.predict_stochastic(x, S, rng)[:, 0, :]
    mean = draws.mean(axis=0)
    return mean, np.mean((draws - mean) ** 2, axis=0)


def _single_report(model, x, S, rng):
    """uq_report on the single input x (zero targets): its one per-sample row."""
    report = U.uq_report(model, x[None, :], np.zeros((1, model.backbone.spec.d_out)), S, rng)
    assert report.metrics["spearman_var_err"] is None  # undefined on one row
    return report.per_sample[0]


class TestMcPredict:
    def test_small_s_rejected(self):
        model = _single_linear_model(1)
        with pytest.raises(DomainError):
            U.uq_report(model, np.ones((1, 3)), np.zeros((1, 2)), 1, Rng(0))

    # Each bad count with the largest least count it meets (-1 for none):
    # None asks the samplers for one draw.
    @pytest.mark.parametrize("S,meets", [
        ("3", -1), (None, 0), (True, -1), (False, -1), (2.0, -1), (1, 1), (0, 0), (-3, -1),
        (np.int64(1), 1), (2.5, -1), (np.float64(3.0), -1), (np.int64(-1), -1)],
        ids=["str", "none", "true", "false", "float", "one", "zero", "negative", "np-one",
             "fraction", "np-float", "np-negative"])
    def test_bad_s_rejected_before_any_draw(self, monkeypatch, S, meets):
        # The one count rule, adapter.draw_count, at its four entry points,
        # each with its least count: every one rejects S before any work.
        model, X, y = _tiny_model(3)
        layer, x = model.adapters[0], Tensor(X[0])
        entries = ((2, "S", lambda: U.uq_report(model, X, y, S, Rng(0))),
                   (1, "S", lambda: model.predict_stochastic(X, S, Rng(0))),
                   (0, "n", lambda: A.sample_lowrank(layer, x, 0.5, Rng(0), n=S)),
                   (0, "n", lambda: A.sample_full_cov_oracle(layer, x, 0.5, Rng(0), n=S)))

        def no_work(*args):
            raise AssertionError("the work started before the count was checked")

        for owner, name in ((model, "frozen_prefix"), (A, "analytic_predictive"),
                            (A, "adapted_kernel"), (Rng, "normal")):
            monkeypatch.setattr(owner, name, no_work)
        for least, name, call in entries:
            if least > meets:
                with pytest.raises(DomainError, match=f"{name}, the number of draws"):
                    call()

    @pytest.mark.parametrize("S", [2, np.int64(2), np.int32(3), np.uint8(2)])
    def test_integer_s_accepted(self, S):
        model, X, y = _tiny_model(3)
        report = U.uq_report(model, X, y, S, Rng(0))
        assert len(report.per_sample) == len(X)
        assert json.loads(report.to_json())["mc_steps"] == S

    def test_wrong_target_rows_rejected_before_any_draw(self, monkeypatch):
        model, X, y = _tiny_model(3)

        def no_draws(*args):
            raise AssertionError("the draws started before y was checked")

        monkeypatch.setattr(model, "predict_stochastic", no_draws)
        # Rows, then the columns of a regressor with two outputs.
        for bad in (y[:-1], np.vstack([y, y[:1]]), y[0, 0], y[:, :1], y[:, 0],
                    np.hstack([y, y]), y[:, :1].tolist()):
            with pytest.raises(ShapeError, match="y of shape"):
                U.uq_report(model, X, bad, 4, Rng(0))

    def test_zero_noise_limit(self):
        model = _single_linear_model(2)
        model.alphanet.alpha_min = 1e-12
        model.alphanet.alpha_max = 1e-12
        x = Rng(3).normal((3,))
        row = _single_report(model, x, 200, Rng(4))
        det = model.predict(x[None, :])[0]
        assert row["var_epistemic"] < 1e-8
        assert np.max(np.abs(np.array(row["pred_mean"]) - det)) < 1e-5

    def test_variance_matches_analytic_diagonal(self):
        model = _single_linear_model(5)
        x = Rng(6).normal((3,))
        with np.errstate(all="ignore"):
            alpha = float(model.alphas(x[None, :]).data[0, 0])
        layer = model.adapters[0]
        law = A.analytic_predictive(layer, Tensor(x), alpha)
        _, var = _draw_moments(model, x, 100_000, Rng(7))
        diag = np.diag(law.covariance())
        assert np.all(np.abs(var - diag) <= 0.05 * np.maximum(diag, 1e-12))

    def test_bit_identical_reports(self):
        model = _single_linear_model(8)
        X = Rng(9).normal((5, 3))
        y = Rng(10).normal((5, 2))
        r1 = U.uq_report(model, X, y, 64, Rng(11))
        r2 = U.uq_report(model, X, y, 64, Rng(11))
        assert r1.to_json() == r2.to_json()

    def test_convergence_rate(self):
        # O(1/sqrt(S)): quadrupling S should at least halve the median
        # absolute error of the variance estimate.
        model = _single_linear_model(12)
        x = Rng(13).normal((3,))
        with np.errstate(all="ignore"):
            alpha = float(model.alphas(x[None, :]).data[0, 0])
        diag = np.diag(A.analytic_predictive(model.adapters[0], Tensor(x), alpha).covariance())
        errs_small, errs_big = [], []
        for seed in range(20):
            _, v_small = _draw_moments(model, x, 10_000, Rng(100 + seed))
            _, v_big = _draw_moments(model, x, 40_000, Rng(200 + seed))
            errs_small.append(np.mean(np.abs(v_small - diag)))
            errs_big.append(np.mean(np.abs(v_big - diag)))
        assert np.median(errs_small) >= 2.0 * np.median(errs_big) * 0.9


def _wide_model(seed: int, hidden: tuple) -> AdaptedModel:
    """Untrained regression model with every layer adapted and non-zero WB,
    so the noise reaches the output."""
    rng = Rng(seed)
    backbone = init_backbone(BackboneSpec(d_in=32, d_out=1, hidden=hidden), rng.stream_of(0))
    model = M.attach_adapters(backbone, AdapterSpec(rank=8, lora_alpha=16.0), "balora",
                              rng.stream_of(1))
    for j, layer in enumerate(model.adapters.values()):
        layer.WB = Tensor(rng.stream_of(2 + j).normal(layer.WB.shape) * 0.1)
    return model


class TestBlockedDraws:
    """The MC forward runs in row blocks: memory stays bounded and the
    draws do not depend on the block size."""

    def test_wide_report_peak_memory(self):
        # S=32 x 512 rows at width 256: the unblocked forward peaked at
        # about 141 MB on this test.
        model = _wide_model(40, (256, 256))
        X = Rng(41).normal((512, 32))
        y = Rng(42).normal((512, 1))
        assert model.mc_workers(32 * 512) == 2
        tracemalloc.start()
        try:
            U.uq_report(model, X, y, 32, Rng(43))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    @pytest.mark.parametrize("S,B", [(7, 300), (4, 512), (5, 205), (3, 5)])
    def test_block_size_does_not_change_draws(self, monkeypatch, S, B):
        # Against blocks of 512 rows: 2100 rows end in a ragged block of
        # 52, 2048 fill four blocks, 1025 end in a one-row block.
        model = _wide_model(44, (48, 40))
        X = Rng(45).normal((B, 32))
        blocked = model.predict_stochastic(X, S, Rng(46))
        again = model.predict_stochastic(X, S, Rng(46))
        assert blocked.tobytes() == again.tobytes()
        monkeypatch.setattr(M, "_BLOCK_ROWS", 1 << 30)
        whole = model.predict_stochastic(X, S, Rng(46))
        assert blocked.shape == whole.shape == (S, B, 1)
        assert np.std(whole, axis=0).min() > 0  # the noise is live
        assert np.max(np.abs(blocked - whole)) <= 1e-12 * np.max(np.abs(whole))


class TestDecomposition:
    def test_near_deterministic_weights(self):
        model = _single_linear_model(14)
        model.alphanet.alpha_min = 1e-12
        model.alphanet.alpha_max = 1e-12
        x = Rng(15).normal((3,))
        row = _single_report(model, x, 500, Rng(16))
        assert row["var_epistemic"] < 1e-10
        assert abs(row["var_aleatoric"] - model.sigma_obs() ** 2) < 1e-12

    def test_zero_observation_noise(self):
        model = _single_linear_model(17)
        model.log_sigma = Tensor(np.log(1e-12), requires_grad=True)
        x = Rng(18).normal((3,))
        row = _single_report(model, x, 500, Rng(19))
        assert row["var_aleatoric"] < 1e-20
        assert row["var_total"] == pytest.approx(row["var_epistemic"])

    def test_law_of_total_variance(self):
        # Simulate observation noise per weight draw and per output dim; the
        # joint variance of y, averaged over dims, is the report's var_total
        # within MC noise: the std error of the joint estimate is about
        # total * sqrt(2 / (S_outer * S_inner)).
        model = _single_linear_model(20)
        x = Rng(21).normal((3,))
        S_outer, S_inner = 10_000, 8
        total = _single_report(model, x, S_outer, Rng(22))["var_total"]
        draws = model.predict_stochastic(x, S_outer, Rng(22))[:, 0, :]  # same draws
        eps = Rng(22).stream_of(987_654_321).normal((S_outer, S_inner, draws.shape[1]))
        ys = (draws[:, None, :] + model.sigma_obs() * eps).reshape(-1, draws.shape[1])
        joint = float(np.mean(np.mean((ys - ys.mean(axis=0)) ** 2, axis=0)))
        se = total * np.sqrt(2.0 / (S_outer * S_inner))
        assert abs(joint - total) < 5 * se + 0.02 * total

    def test_lora_model_rejected(self):
        rng = Rng(23)
        backbone = init_backbone(BackboneSpec(d_in=3, d_out=2, hidden=(4,),
                                              head="regression"), rng)
        backbone.freeze()
        model = AdaptedModel(backbone, {}, None)
        with pytest.raises(DomainError):
            U.uq_report(model, np.ones((1, 3)), np.zeros((1, 2)), 100, Rng(0))


class TestEce:
    def test_perfectly_calibrated_synthetic_set(self):
        # Confidence c with accuracy c inside every bin: gap vanishes up to
        # binning error, driven to zero by construction on bin centers.
        rng = Rng(24)
        rows, labels = [], []
        for center in (np.arange(15) + 0.5) / 15:
            if center <= 0.5:
                continue
            n = 2000
            correct = int(round(center * n))
            for i in range(n):
                rows.append([center, 1.0 - center])
                labels.append(0 if i < correct else 1)
        ece = U.ece(np.array(rows), np.array(labels))
        assert ece < 5e-4

    def test_all_confident_half_right(self):
        probs = np.array([[1.0, 0.0]] * 4)
        labels = np.array([0, 0, 1, 1])
        assert U.ece(probs, labels) == pytest.approx(0.5)

    def test_four_sample_hand_case(self):
        probs = np.array([[0.9, 0.1], [0.9, 0.1], [0.6, 0.4], [0.6, 0.4]])
        labels = np.array([0, 1, 0, 0])
        assert U.ece(probs, labels) == pytest.approx(0.4)

    def test_permutation_invariance(self):
        rng = Rng(25)
        logits = rng.normal((200, 4))
        probs = np.exp(logits)
        probs /= probs.sum(axis=1, keepdims=True)
        labels = rng.integers(0, 4, (200,))
        base = U.ece(probs, labels)
        for s in range(5):
            perm = rng.stream_of(s).permutation(200)
            assert U.ece(probs[perm], labels[perm]) == pytest.approx(base)

    def test_label_out_of_range(self):
        # A fraction, a NaN, a column, or what is not a real number is no
        # class label either.
        for metric, labels in itertools.product(
                (U.ece, U.accuracy),
                ([2], [-1], [0.5], [np.nan], [[0]], ["a"], [None], [1j], [True])):
            with pytest.raises(DomainError, match="class label"):
                metric(np.array([[0.5, 0.5]]), np.array(labels))

    def test_unnormalized_probs_rejected(self):
        with pytest.raises(DomainError):
            U.ece(np.array([[0.5, 0.4]]), np.array([0]))

    @pytest.mark.parametrize("metric", [U.ece, U.accuracy], ids=["ece", "accuracy"])
    @pytest.mark.parametrize("probs", [
        [[np.nan, np.nan], [0.5, 0.5]], [[0.5, np.nan], [0.5, 0.5]],
        [[0.5, 0.4], [0.5, 0.5]], [[0.7, 0.7], [0.5, 0.5]]],
        ids=["nan-row", "one-nan", "short", "long"])
    def test_bad_probability_rows_rejected(self, metric, probs):
        with pytest.raises(DomainError):
            metric(np.array(probs), np.array([0, 1]))


class TestSpearman:
    def test_identity(self):
        u = np.array([0.3, 1.2, 2.0, 5.1])
        assert U.spearman(u, u) == pytest.approx(1.0)

    def test_reversal(self):
        u = np.array([0.3, 1.2, 2.0, 5.1])
        assert U.spearman(u, -u) == pytest.approx(-1.0)

    def test_hand_case(self):
        assert U.spearman([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8)

    def test_monotone_transform_invariance(self):
        rng = Rng(26)
        u = rng.normal((100,))
        v = rng.normal((100,))
        base = U.spearman(u, v)
        assert U.spearman(np.exp(u), v) == pytest.approx(base)
        assert U.spearman(u, v ** 3) == pytest.approx(base)

    def test_tied_values_use_average_ranks(self):
        got = U.spearman([1.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        # ranks u = [1.5, 1.5, 3], v = [1, 2, 3]
        ru = np.array([1.5, 1.5, 3.0])
        rv = np.array([1.0, 2.0, 3.0])
        expect = np.corrcoef(ru, rv)[0, 1]
        assert got == pytest.approx(expect)
        # Signed zeros tie with each other; a block of three shares rank 3.
        u, v = np.array([0.5, -0.0, 0.0, -1.0, 0.0, 2.0, 0.5]), np.arange(7.0)
        ru = np.array([5.5, 3.0, 3.0, 1.0, 3.0, 7.0, 5.5])
        assert U._average_ranks(u).tolist() == ru.tolist()
        assert U.spearman(u, v) == pytest.approx(np.corrcoef(ru, v + 1.0)[0, 1])

    def test_constant_input_is_error(self):
        with pytest.raises(DomainError):
            U.spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            U.spearman([1.0], [1.0, 2.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_input_is_error(self, bad):
        for u, v in (([1.0, bad, 2.0], [1.0, 2.0, 3.0]), ([1.0, 2.0, 3.0], [bad, 2.0, 3.0])):
            with pytest.raises(DomainError, match="non-finite"):
                U.spearman(u, v)
            assert U._safe_spearman(u, v) is None


class TestMae:
    def test_exact_predictions(self):
        assert U.mae([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_symmetric_errors(self):
        assert U.mae([2.0, 1.0], [1.0, 2.0]) == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            U.mae([], [])


class TestReport:
    def test_total_variance_identity(self):
        model, X, y = _tiny_model(28)
        report = U.uq_report(model, X, y, 32, Rng(29))
        for row in report.per_sample:
            assert abs(row["var_total"] - row["var_epistemic"] - row["var_aleatoric"]) < 1e-9

    def test_csv_rows_schema(self):
        model, X, y = _tiny_model(30)
        report = U.uq_report(model, X, y, 16, Rng(31))
        rows = list(report.csv_rows())
        assert len(rows) == X.shape[0]
        assert len(rows[0]) == 7


class TestSoftmax:
    @pytest.mark.parametrize("shape", [(100, 128, 10), (7, 3), (1, 1, 2)])
    def test_bitwise_equal_to_reference_and_input_unchanged(self, shape):
        z = 30.0 * Rng(40).normal(shape)
        z.flat[0] = 800.0  # exp would overflow without the max shift
        before = z.copy()
        probs = U._softmax(z)
        assert probs.tobytes() == reference_softmax(before).tobytes()
        assert z.tobytes() == before.tobytes()
        assert not np.shares_memory(probs, z)
