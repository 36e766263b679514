"""Data generators, the pretrain-then-adapt protocol, and ensemble baselines."""

import dataclasses

import numpy as np
import pytest
from conftest import (hetero_task, paired_report, protocol, sign_test_p,
                      wins_for_significance)

from balora import tasks as TK
from balora import uncertainty as U
from balora import variational as V
from balora.model import AdaptedModel, AdapterSpec
from balora.rng import Rng
from balora.tensor import DomainError


class TestGenerate:
    def test_used_shift_rank_is_clipped(self):
        def used(**kw):
            return TK.SyntheticTask(**kw).used_shift_rank
        assert used(kind="linear-regression", d_in=6, d_out=3, shift_rank=99) == 3
        assert used(kind="linear-regression", d_in=2, d_out=3, shift_rank=99) == 2
        assert used(kind="linear-regression", d_in=6, d_out=3, shift_rank=0) == 1
        assert used(kind="two-moons-classification", d_in=2) is None
        assert used(kind="multiclass-gaussian-blobs", shift_rank=99) is None

    def test_zero_noise_labels_are_exact(self):
        task = TK.SyntheticTask(kind="linear-regression", d_in=4, d_out=2,
                                n_train=64, n_val=8, n_test=32, noise_std=0.0, seed=3)
        splits = TK.generate(task)
        g = TK.true_map(task)
        assert np.allclose(splits.test.y, splits.test.X @ g.T, atol=1e-12)

    def test_same_seed_identical_datasets(self):
        task = hetero_task(9)
        a, b = TK.generate(task), TK.generate(task)
        assert np.array_equal(a.train.X, b.train.X)
        assert np.array_equal(a.test.y, b.test.y)

    def test_splits_are_disjoint(self):
        task = hetero_task(10)
        splits = TK.generate(task)
        train_rows = {tuple(row) for row in splits.train.X}
        assert not any(tuple(row) in train_rows for row in splits.test.X)

    def test_source_and_target_differ(self):
        task = TK.SyntheticTask(kind="linear-regression", d_in=4, d_out=2,
                                n_train=64, n_val=8, n_test=32, seed=4)
        assert not np.allclose(TK.true_map(task, shifted=False),
                               TK.true_map(task, shifted=True))

    def test_heteroscedastic_variance_grows_with_norm(self):
        task = TK.SyntheticTask(kind="heteroscedastic-regression", d_in=4, d_out=1,
                                n_train=20_000, n_val=2, n_test=2, noise_base=0.05,
                                noise_slope=0.5, seed=5)
        split = TK.generate(task).train
        g = TK.true_map(task)
        residual = (split.y - split.X @ g.T).ravel()
        norms = np.linalg.norm(split.X, axis=1)
        edges = np.quantile(norms, [0.0, 0.25, 0.5, 0.75, 1.0])
        binned = [np.var(residual[(norms >= lo) & (norms < hi)])
                  for lo, hi in zip(edges[:-1], edges[1:])]
        assert np.all(np.diff(binned) > 0)

    def test_classification_kinds(self):
        moons = TK.generate(TK.SyntheticTask(kind="two-moons-classification", d_in=2,
                                             n_train=64, n_val=8, n_test=32, seed=6))
        assert set(np.unique(moons.train.y)) <= {0, 1}
        blobs = TK.generate(TK.SyntheticTask(kind="multiclass-gaussian-blobs", d_in=3,
                                             n_classes=4, n_train=64, n_val=8,
                                             n_test=32, seed=7))
        assert blobs.train.X.shape == (64, 3)
        assert set(np.unique(blobs.train.y)) <= {0, 1, 2, 3}

    @pytest.mark.parametrize("shifted, base", [(True, 100), (False, 200)],
                             ids=["target", "source"])
    def test_split_streams(self, shifted, base):
        # Split i of the target distribution draws from stream 100 + i of the
        # task's seed, of the source from 200 + i: a regression split's X is
        # that stream's first normal draw, a blobs split's labels its first
        # integers draw. So an empty val split leaves the test split as it is.
        sizes = {"n_train": 9, "n_val": 4, "n_test": 5}
        reg = TK.SyntheticTask(kind="linear-regression", d_in=3, d_out=2, seed=13, **sizes)
        blobs = TK.SyntheticTask(kind="multiclass-gaussian-blobs", d_in=3, n_classes=4,
                                 seed=13, **sizes)
        for task in (reg, blobs):
            splits = TK.generate(task, shifted)
            for i, (name, n) in enumerate(zip(("train", "val", "test"), sizes.values())):
                split, stream = getattr(splits, name), Rng(13).stream_of(base + i)
                if task is reg:
                    assert split.X.tobytes() == stream.normal((n, 3)).tobytes()
                else:
                    assert split.y.tobytes() == stream.integers(0, 4, (n,)).tobytes()
            no_val = TK.generate(dataclasses.replace(task, n_val=0), shifted)
            assert len(no_val.val.X) == 0
            for got, want in ((no_val.test.X, splits.test.X), (no_val.test.y, splits.test.y)):
                assert got.tobytes() == want.tobytes()

    def test_bad_kind_rejected(self):
        with pytest.raises(DomainError):
            TK.SyntheticTask(kind="nope")


class TestPretrainThenAdapt:
    def test_full_rank_lora_reaches_least_squares_oracle(self):
        task = TK.SyntheticTask(kind="linear-regression", d_in=4, d_out=2,
                                n_train=256, n_val=16, n_test=128, noise_std=0.3,
                                shift_scale=1.0, seed=11)
        aspec = AdapterSpec(rank=16, lora_alpha=16.0, init_std=0.05,
                            alphanet_hidden=(8,))  # rank clamps to full per layer
        pre = V.TrainConfig(lr=1e-2, epochs=80, batch_size=64, kl_weight=0.0)
        ad = V.TrainConfig(lr=1e-2, epochs=80, batch_size=64, kl_weight=0.0)
        trained = TK.pretrain_then_adapt(task, (16,), aspec, "lora", pre, ad,
                                         V.PriorConfig(0.5), seed=11)
        Xtr, ytr = trained.target.train.X, trained.target.train.y
        w, *_ = np.linalg.lstsq(Xtr, ytr, rcond=None)
        mse_ls = float(np.mean((Xtr @ w - ytr) ** 2))
        mse_model = float(np.mean((trained.model.predict(Xtr) - ytr) ** 2))
        assert mse_model <= 1.1 * mse_ls

    def test_backbone_stays_frozen_during_adaptation(self):
        task = hetero_task(12)
        aspec = AdapterSpec(rank=2, lora_alpha=4.0, alphanet_hidden=(8,))
        pre = V.TrainConfig(lr=5e-3, epochs=5, batch_size=64, kl_weight=0.0)
        ad = V.TrainConfig(lr=1e-2, epochs=5, batch_size=64)
        trained = TK.pretrain_then_adapt(task, (16, 16), aspec, "balora", pre, ad,
                                         V.PriorConfig(0.5), seed=12)
        backbone = trained.model.backbone
        assert backbone.frozen
        fresh, _ = TK.pretrain_backbone(task, (16, 16), pre, Rng(12))
        for w_trained, w_fresh in zip(backbone.weights, fresh.weights):
            assert np.array_equal(w_trained.data, w_fresh.data)
        assert all(not w.requires_grad for w in backbone.weights)

    def test_adapters_carry_signal_after_training(self):
        trained = protocol(2000).balora
        model, test = trained.model, trained.target.test
        assert any(np.any(l.WB.data != 0) for l in model.adapters.values())
        # Deterministic-mode prediction beats the unadapted backbone.
        shell = AdaptedModel(model.backbone, {}, None)
        assert np.mean((model.merged_forward(test.X) - test.y) ** 2) \
            < np.mean((shell.predict(test.X) - test.y) ** 2)

    def test_predicted_variance_tracks_true_noise(self):
        # The adapted posterior's predictive variance rank-correlates with
        # the generator's ground-truth noise scale on most seeds.
        positives = 0
        for seed in range(10):
            trained = protocol(100 + seed).balora
            rep = U.uq_report(trained.model, trained.target.test.X,
                              trained.target.test.y, 64, Rng(500 + seed))
            var = [row["var_total"] for row in rep.per_sample]
            rho = U.spearman(var, trained.target.test.sigma ** 2)
            positives += rho > 0
        assert positives >= 9


class TestEnsemble:
    def test_balora_vs_ensemble_spearman_reported(self, capsys):
        # The paper's claim: balora's variance tracks its error better than a
        # 5-member LoRA ensemble's does, paired by seed on criterion 8's
        # models and S=100 reports. Reported rather than gated.
        bal_rhos, ens_rhos = [], []
        for seed in range(2000, 2010):
            run = protocol(seed)
            bal_rhos.append(run.report.metrics["spearman_var_err"])
            test = run.balora.target.test
            mean, var = TK.run_ensemble(run.ensemble, test.X)
            ens_rhos.append(U.spearman(var.mean(axis=1), np.mean((mean - test.y) ** 2, axis=1)))
        with capsys.disabled():
            print()
            paired_report("balora vs 5-member lora ensemble, Spearman(variance, error)",
                          bal_rhos, ens_rhos, ".3f", higher_is_better=True)

    def _small_setup(self):
        task = hetero_task(21)
        aspec = AdapterSpec(rank=2, lora_alpha=4.0, alphanet_hidden=(8,))
        pre = V.TrainConfig(lr=5e-3, epochs=10, batch_size=64, kl_weight=0.0)
        ad = V.TrainConfig(lr=1e-2, epochs=8, batch_size=64, kl_weight=0.0)
        return task, aspec, pre, ad

    def test_identical_members_have_zero_variance(self):
        task, aspec, pre, ad = self._small_setup()
        ens = TK.train_ensemble(task, (16,), aspec, pre, ad, V.PriorConfig(0.5),
                                seed=21, m=2)
        ens[1] = ens[0]
        _, var = TK.run_ensemble(ens, TK.generate(task).test.X)
        assert np.max(var) == 0.0

    def test_training_cost_bookkeeping(self):
        seconds = [member.phases["adapt"]["wall_s"] for member in protocol(2000).ensemble]
        assert len(seconds) == 5
        assert all(t > 0 for t in seconds)

    def test_passed_in_backbone_gives_identical_members(self):
        task, aspec, pre, ad = self._small_setup()
        prior = V.PriorConfig(0.5)
        backbone, _ = TK.pretrain_backbone(task, (16,), pre, Rng(25))
        own = TK.train_ensemble(task, (16,), aspec, pre, ad, prior, seed=25, m=2)
        shared = TK.train_ensemble(task, (16,), aspec, pre, ad, prior, seed=25, m=2,
                                   backbone=backbone)
        X = TK.generate(task).test.X
        for a, b in zip(own, shared):
            assert b.model.backbone is backbone
            assert a.model.predict(X).tobytes() == b.model.predict(X).tobytes()

    def test_single_member_rejected(self):
        task, aspec, pre, ad = self._small_setup()
        with pytest.raises(DomainError):
            TK.train_ensemble(task, (16,), aspec, pre, ad, V.PriorConfig(0.5),
                              seed=24, m=1)
        with pytest.raises(DomainError):
            TK.run_ensemble([object()], np.ones((2, 6)))


def test_sign_test_p_on_hand_cases():
    assert sign_test_p([1.0] * 10) == 2 / 1024
    assert sign_test_p([1.0] * 5 + [-1.0] * 5) == 1.0
    assert sign_test_p([-0.5] * 3 + [0.5] * 7) == 2 * 176 / 1024
    assert sign_test_p([1.0] * 10 + [0.0] * 4) == 2 / 1024  # ties leave n


def test_wins_for_significance_on_hand_cases(capsys):
    # 9/10 gives p = 22/1024 = 0.021 and 8/10 gives 0.109; five pairs cannot
    # reach 0.05 (5/5 gives 2/32), six can only at 6/6 (2/64).
    assert wins_for_significance(10) == 9
    assert [wins_for_significance(n) for n in range(1, 6)] == [None] * 5
    assert wins_for_significance(6) == 6
    assert wins_for_significance(20) == 15
    paired_report("x", [1.0] * 10, [0.0] * 10, ".1f", higher_is_better=True)
    assert "p < 0.05 needs 9/10" in capsys.readouterr().out
    paired_report("x", [1.0] * 5, [0.0] * 5, ".1f", higher_is_better=True)
    assert "p < 0.05 unreachable" in capsys.readouterr().out
