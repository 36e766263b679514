"""Data generators, the pretrain-then-adapt protocol, and ensemble baselines."""

import numpy as np
import pytest

from balora import tasks as TK
from balora import uncertainty as U
from balora import variational as V
from balora.model import AdapterSpec
from balora.rng import Rng
from balora.tensor import DomainError


def _hetero_task(seed: int) -> TK.SyntheticTask:
    return TK.SyntheticTask(kind="heteroscedastic-regression", d_in=6, d_out=1,
                            n_train=512, n_val=16, n_test=256, noise_base=0.05,
                            noise_slope=0.5, seed=seed)


class TestGenerate:
    def test_zero_noise_labels_are_exact(self):
        task = TK.SyntheticTask(kind="linear-regression", d_in=4, d_out=2,
                                n_train=64, n_val=8, n_test=32, noise_std=0.0, seed=3)
        splits = TK.generate(task)
        g = TK.true_map(task)
        assert np.allclose(splits.test.y, splits.test.X @ g.T, atol=1e-12)

    def test_same_seed_identical_datasets(self):
        task = _hetero_task(9)
        a, b = TK.generate(task), TK.generate(task)
        assert np.array_equal(a.train.X, b.train.X)
        assert np.array_equal(a.test.y, b.test.y)

    def test_splits_are_disjoint(self):
        task = _hetero_task(10)
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
        task = _hetero_task(12)
        aspec = AdapterSpec(rank=2, lora_alpha=4.0, alphanet_hidden=(8,))
        pre = V.TrainConfig(lr=5e-3, epochs=5, batch_size=64, kl_weight=0.0)
        ad = V.TrainConfig(lr=1e-2, epochs=5, batch_size=64)
        trained = TK.pretrain_then_adapt(task, (16, 16), aspec, "balora", pre, ad,
                                         V.PriorConfig(0.5), seed=12)
        backbone = trained.model.backbone
        assert backbone.frozen
        fresh = TK.pretrain_backbone(task, (16, 16), pre, Rng(12),
                                     TK.generate(task, shifted=False))
        for w_trained, w_fresh in zip(backbone.weights, fresh.weights):
            assert np.array_equal(w_trained.data, w_fresh.data)
        assert all(not w.requires_grad for w in backbone.weights)

    def test_adapters_carry_signal_after_training(self):
        task = _hetero_task(13)
        aspec = AdapterSpec(rank=4, lora_alpha=8.0, alphanet_hidden=(8,))
        pre = V.TrainConfig(lr=5e-3, epochs=20, batch_size=64, kl_weight=0.0)
        ad = V.TrainConfig(lr=1e-2, epochs=15, batch_size=64)
        trained = TK.pretrain_then_adapt(task, (32, 32), aspec, "balora", pre, ad,
                                         V.PriorConfig(0.5), seed=13)
        assert any(np.any(l.WB.data != 0) for l in trained.model.adapters.values())
        Xte, yte = trained.target.test.X, trained.target.test.y
        frozen_only = trained.model.merged_forward(Xte)
        # Deterministic-mode prediction beats the unadapted backbone.
        base = TK.pretrain_backbone(task, (32, 32), pre, Rng(13),
                                    TK.generate(task, shifted=False))
        from balora.model import AdaptedModel
        shell = AdaptedModel(base, {}, None, "lora")
        mse_adapted = np.mean((frozen_only - yte) ** 2)
        mse_base = np.mean((shell.predict(Xte) - yte) ** 2)
        assert mse_adapted < mse_base

    def test_predicted_variance_tracks_true_noise(self):
        # The adapted posterior's predictive variance rank-correlates with
        # the generator's ground-truth noise scale on most seeds.
        positives = 0
        for seed in range(10):
            task = _hetero_task(100 + seed)
            aspec = AdapterSpec(rank=4, lora_alpha=8.0, alphanet_hidden=(16,))
            pre = V.TrainConfig(lr=5e-3, epochs=25, batch_size=64, kl_weight=0.0)
            ad = V.TrainConfig(lr=1e-2, epochs=15, batch_size=64, kl_weight=1.0)
            trained = TK.pretrain_then_adapt(task, (32, 32), aspec, "balora", pre, ad,
                                             V.PriorConfig(0.5), seed=100 + seed)
            rep = U.uq_report(trained.model, trained.target.test.X,
                              trained.target.test.y, 64, Rng(500 + seed))
            var = [row["var_total"] for row in rep.per_sample]
            rho = U.spearman(var, trained.target.test.sigma ** 2)
            positives += rho > 0
        assert positives >= 9


class TestEnsemble:
    def test_balora_vs_ensemble_spearman_reported(self, capsys):
        # Comparative uncertainty quality over 10 seeds; reported rather than
        # gated. The single-run adapter is compared against a 5-member
        # plain-adapter ensemble on variance/error rank correlation.
        bal_rhos, ens_rhos = [], []
        for seed in range(10):
            task = _hetero_task(5000 + seed)
            aspec = AdapterSpec(rank=4, lora_alpha=8.0, alphanet_hidden=(16,))
            pre = V.TrainConfig(lr=5e-3, epochs=25, batch_size=64, kl_weight=0.0)
            ad = V.TrainConfig(lr=1e-2, epochs=15, batch_size=64, kl_weight=1.0)
            prior = V.PriorConfig(0.5)
            bal = TK.pretrain_then_adapt(task, (32, 32), aspec, "balora", pre, ad,
                                         prior, seed=5000 + seed)
            ens = TK.train_ensemble(task, (32, 32), aspec, pre, ad, prior,
                                    seed=5000 + seed, m=5, backbone=bal.model.backbone)
            Xte, yte = bal.target.test.X, bal.target.test.y
            rep = U.uq_report(bal.model, Xte, yte, 100, Rng(61_000 + seed))
            bal_rhos.append(rep.metrics["spearman_var_err"])
            mean, var = TK.run_ensemble(ens, Xte)
            sq = np.mean((mean - yte) ** 2, axis=1)
            ens_rhos.append(U.spearman(var.mean(axis=1), sq))
        bal_med, ens_med = float(np.median(bal_rhos)), float(np.median(ens_rhos))
        flag = "PASS" if bal_med >= ens_med else "WARN"
        with capsys.disabled():
            print(f"\n[{flag}] comparative uncertainty quality: median Spearman "
                  f"balora {bal_med:.3f} vs 5-member ensemble {ens_med:.3f} over "
                  "10 seeds (reported, not gated)")

    def _small_setup(self):
        task = _hetero_task(21)
        aspec = AdapterSpec(rank=2, lora_alpha=4.0, alphanet_hidden=(8,))
        pre = V.TrainConfig(lr=5e-3, epochs=10, batch_size=64, kl_weight=0.0)
        ad = V.TrainConfig(lr=1e-2, epochs=8, batch_size=64, kl_weight=0.0)
        return task, aspec, pre, ad

    def test_identical_members_have_zero_variance(self):
        task, aspec, pre, ad = self._small_setup()
        ens = TK.train_ensemble(task, (16,), aspec, pre, ad, V.PriorConfig(0.5),
                                seed=21, m=2)
        ens.members[1] = ens.members[0]
        _, var = TK.run_ensemble(ens, TK.generate(task).test.X)
        assert np.max(var) == 0.0

    def test_m5_spearman_logged(self):
        task, aspec, pre, ad = self._small_setup()
        ens = TK.train_ensemble(task, (16,), aspec, pre, ad, V.PriorConfig(0.5),
                                seed=22, m=5)
        splits = TK.generate(task)
        mean, var = TK.run_ensemble(ens, splits.test.X)
        sq_err = np.mean((mean - splits.test.y) ** 2, axis=1)
        rho = U.spearman(var.mean(axis=1), sq_err)
        assert -1.0 <= rho <= 1.0

    def test_training_cost_bookkeeping(self):
        task, aspec, pre, ad = self._small_setup()
        ens = TK.train_ensemble(task, (16,), aspec, pre, ad, V.PriorConfig(0.5),
                                seed=23, m=3)
        assert len(ens.member_seconds) == 3
        assert all(t > 0 for t in ens.member_seconds)

    def test_passed_in_backbone_gives_identical_members(self):
        task, aspec, pre, ad = self._small_setup()
        prior = V.PriorConfig(0.5)
        backbone = TK.pretrain_backbone(task, (16,), pre, Rng(25))
        own = TK.train_ensemble(task, (16,), aspec, pre, ad, prior, seed=25, m=2)
        shared = TK.train_ensemble(task, (16,), aspec, pre, ad, prior, seed=25, m=2,
                                   backbone=backbone)
        X = TK.generate(task).test.X
        for a, b in zip(own.members, shared.members):
            assert b.backbone is backbone
            assert a.predict(X).tobytes() == b.predict(X).tobytes()

    def test_single_member_rejected(self):
        task, aspec, pre, ad = self._small_setup()
        with pytest.raises(DomainError):
            TK.train_ensemble(task, (16,), aspec, pre, ad, V.PriorConfig(0.5),
                              seed=24, m=1)
        ens = TK.EnsembleBaseline(members=[object()])
        with pytest.raises(DomainError):
            TK.run_ensemble(ens, np.ones((2, 6)))
