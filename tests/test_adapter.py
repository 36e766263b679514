"""Adapter-layer checks: hand cases, Monte Carlo moment oracles, and the
geometric invariants of the low-rank update."""

import numpy as np
import pytest

from balora import adapter as A
from balora import tensor as T
from balora.rng import Rng
from balora.tensor import DomainError, ShapeError, Tensor, backward
from balora.verify import (_cov_z_scores, _empirical_moments, _random_layer,
                           _two_sample_z, finite_difference_grads,
                           scaled_gradient_error)


def _tiny_case():
    """k=2, r=1, d=1 layer with W0=0: covariance works out by hand."""
    layer = A.BaLoRALayer(
        W0=Tensor(np.zeros((2, 1))),
        WA=Tensor(np.array([[3.0]]), requires_grad=True),
        WB=Tensor(np.array([[1.0], [2.0]]), requires_grad=True),
        rank=1, lora_scale=1.0)
    return layer, Tensor(np.array([1.0]))


class TestInit:
    def test_initial_forward_is_base_only(self):
        rng = Rng(1)
        layer = A.init_layer(rng, d=6, k=4, r=3, init_std=0.1)
        for i in range(10):
            x = Tensor(rng.stream_of(i).normal((6,)))
            out = A.adapted_linear(layer, x).data
            assert np.allclose(out, layer.W0.data @ x.data, atol=1e-14)

    def test_full_rank_boundary_accepted(self):
        layer = A.init_layer(Rng(2), d=4, k=6, r=4, init_std=0.1)
        assert layer.rank == 4

    def test_rank_above_boundary_rejected(self):
        with pytest.raises(DomainError):
            A.init_layer(Rng(2), d=4, k=6, r=5, init_std=0.1)

    def test_bad_init_std_rejected(self):
        with pytest.raises(DomainError):
            A.init_layer(Rng(2), d=4, k=6, r=2, init_std=0.0)


class TestAlphaNet:
    def test_zeroed_net_outputs_log_two(self):
        net = A.init_alphanet(Rng(3), feature_dim=5, num_layers=3, hidden_dims=(8,))
        net.weights = [Tensor(np.zeros(w.shape), requires_grad=True) for w in net.weights]
        net.biases = [Tensor(np.zeros(b.shape), requires_grad=True) for b in net.biases]
        out = A.alpha_forward(net, Tensor(Rng(4).normal((5,))))
        assert np.allclose(out.data, np.log(2.0), atol=1e-12)

    def test_output_always_positive(self):
        rng = Rng(5)
        net = A.init_alphanet(rng, feature_dim=4, num_layers=2, hidden_dims=(8, 8))
        feats = rng.stream_of(1).normal((10_000, 4)) * 5.0
        out = A.alpha_forward(net, Tensor(feats)).data
        assert np.all(out >= net.alpha_min)
        assert np.all(out <= net.alpha_max)

    def test_output_length_matches_layer_count(self):
        net = A.init_alphanet(Rng(6), feature_dim=3, num_layers=7, hidden_dims=(4,))
        out = A.alpha_forward(net, Tensor(Rng(7).normal((3,))))
        assert out.shape == (7,)

    def test_nonfinite_features_rejected(self):
        net = A.init_alphanet(Rng(6), feature_dim=3, num_layers=1, hidden_dims=(4,))
        with pytest.raises(Exception):
            A.alpha_forward(net, Tensor([np.inf, 0.0, 0.0]))


class TestDeterministicForward:
    def test_zero_wb_gives_base(self):
        layer = A.init_layer(Rng(8), d=5, k=3, r=2, init_std=0.3)
        x = Tensor(Rng(9).normal((5,)))
        assert np.allclose(A.adapted_linear(layer, x).data,
                           layer.W0.data @ x.data, atol=1e-14)

    def test_identity_composition(self):
        # W0 = 0, WB and WA slice the identity: output projects x through rank space.
        layer = A.BaLoRALayer(W0=Tensor(np.zeros((3, 3))),
                              WA=Tensor(np.eye(3)[:2], requires_grad=True),
                              WB=Tensor(np.eye(3)[:, :2], requires_grad=True),
                              rank=2, lora_scale=1.0)
        e1 = Tensor(np.array([1.0, 0.0, 0.0]))
        assert A.adapted_linear(layer, e1).data.tolist() == [1.0, 0.0, 0.0]

    def test_base_weights_never_reach_the_tape(self):
        layer = _random_layer(Rng(33), d=4, k=3, r=2)
        x = Tensor(Rng(34).normal((4,)))
        backward(T.tsum(A.adapted_linear(layer, x)))
        assert not layer.W0.requires_grad
        assert layer.W0.grad is None
        assert layer.WA.grad is not None and layer.WB.grad is not None
        layer.WA.zero_grad()
        layer.WB.zero_grad()

    def test_matches_merged_weights(self):
        rng = Rng(10)
        for i in range(20):
            r = rng.stream_of(i)
            layer = _random_layer(r, d=6, k=5, r=3, scale=float(r.uniform(0.5, 3.0, ())))
            merged = A.merge_weights(layer).data
            x = r.normal((6,))
            direct = A.adapted_linear(layer, Tensor(x)).data
            scale = max(1.0, np.max(np.abs(direct)))
            assert np.max(np.abs(merged @ x - direct)) < 1e-12 * scale


class TestAdaptedLinearKernel:
    """The one-node adapter kernel against central finite differences."""

    N, L, COL = 5, 3, 1

    @staticmethod
    def _case(seed, x_rows, eps_rows, alpha_shape, x_grad, base_grad=False):
        rng = Rng(seed)
        layer = _random_layer(rng.stream_of(0), d=4, k=3, r=2)
        if base_grad:
            layer.W0 = Tensor(layer.W0.data, requires_grad=True)
        x = Tensor(rng.stream_of(1).normal((*x_rows, 4)), requires_grad=x_grad)
        bias = Tensor(rng.stream_of(2).normal((3,)), requires_grad=True)
        alphas = eps = None
        if alpha_shape is not None:
            alphas = Tensor(rng.stream_of(3).uniform(0.2, 2.0, alpha_shape),
                            requires_grad=True)
            eps = rng.stream_of(4).normal((*eps_rows, 2))
        proj = Tensor(rng.stream_of(5).normal((*(eps_rows or x_rows), 3)))
        return layer, x, bias, alphas, eps, proj

    CASES = [
        # (name, x rows, eps rows, alpha shape)
        ("deterministic-vector", (), None, None),
        ("deterministic-batch", (N,), None, None),
        ("vector-scalar-alpha", (), (), ()),
        ("vector-1d-alphas", (), (), (L,)),
        ("batch-1d-alphas", (N,), (N,), (L,)),
        ("batch-2d-alphas", (N,), (N,), (N, L)),
        ("shared-vector-1d-alphas", (), (N,), (L,)),
        ("shared-vector-2d-alphas", (), (N,), (N, L)),
    ]

    @pytest.mark.parametrize("x_grad", [False, True], ids=["x-const", "x-grad"])
    @pytest.mark.parametrize("name,x_rows,eps_rows,alpha_shape", CASES,
                             ids=[c[0] for c in CASES])
    def test_vjp_matches_finite_differences(self, name, x_rows, eps_rows, alpha_shape,
                                            x_grad):
        layer, x, bias, alphas, eps, proj = self._case(
            len(name) + 7 * x_grad, x_rows, eps_rows, alpha_shape, x_grad,
            base_grad=not x_grad)

        def loss_fn():
            out = A.adapted_linear(layer, x, bias, alphas, self.COL, eps)
            return T.tsum(T.mul(out, proj))

        backward(loss_fn())
        parents = [x, layer.W0, layer.WA, layer.WB, bias] + \
            ([alphas] if alphas is not None else [])
        trained = [p for p in parents if p.requires_grad]
        numeric = finite_difference_grads(lambda: loss_fn().item(), trained)
        for p, g in zip(trained, numeric):
            assert scaled_gradient_error(p.grad, g, rtol=1e-4, atol=1e-7) <= 1.0, name
        for p in parents:
            if not p.requires_grad:
                assert p.grad is None
        if alphas is not None and alphas.ndim:
            others = np.delete(alphas.grad, self.COL, axis=-1)
            assert np.all(others == 0.0)

    def test_zero_latent_variance_has_zero_subgradient(self):
        # Input supported only where WA's columns vanish: the latent variance
        # is exactly zero, so the noise path contributes nothing, not NaN.
        layer, x, bias, alphas, eps, proj = self._case(3, (), (), (), False)
        wa = layer.WA.data.copy()
        wa[:, :2] = 0.0
        layer.WA = Tensor(wa, requires_grad=True)
        x = Tensor(np.array([0.7, -1.3, 0.0, 0.0]))
        grads = []
        for stochastic in (True, False):
            out = A.adapted_linear(layer, x, bias, alphas if stochastic else None,
                                   eps=eps if stochastic else None)
            backward(T.tsum(T.mul(out, proj)))
            grads.append([p.grad for p in (layer.WA, layer.WB, bias)])
            for p in (layer.WA, layer.WB, bias):
                p.zero_grad()
        assert alphas.grad == 0.0
        for g_stoch, g_det in zip(*grads):
            assert np.array_equal(g_stoch, g_det)

    def test_mismatched_shapes_rejected(self):
        layer, x, bias, alphas, eps, _ = self._case(4, (self.N,), (self.N,), (self.N, self.L), False)
        with pytest.raises(ShapeError):
            A.adapted_linear(layer, x, bias, alphas, eps=eps[:, :1])
        with pytest.raises(ShapeError):
            A.adapted_linear(layer, x, bias, alphas, eps=eps[:1])
        with pytest.raises(ShapeError):
            A.adapted_linear(layer, Tensor(x.data[:, :3]), bias)
        with pytest.raises(DomainError):
            A.adapted_linear(layer, x, bias, alphas)


class TestAnalyticPredictive:
    def test_zero_input_carries_no_uncertainty(self):
        layer = _random_layer(Rng(11), d=4, k=3, r=2)
        law = A.analytic_predictive(layer, Tensor(np.zeros(4)), 1.0)
        assert np.allclose(law.mean.data, 0.0, atol=1e-14)
        assert np.array_equal(law.d_vec.data, np.zeros(2))
        assert np.array_equal(law.covariance(), np.zeros((3, 3)))

    def test_hand_case(self):
        layer, x = _tiny_case()
        law = A.analytic_predictive(layer, x, 1.0)
        assert np.allclose(law.d_vec.data, [9.0])
        assert np.allclose(law.covariance(), [[9.0, 18.0], [18.0, 36.0]])

    def test_homogeneity(self):
        layer, x = _tiny_case()
        one = A.analytic_predictive(layer, x, 1.0)
        two = A.analytic_predictive(layer, Tensor(2.0 * x.data), 1.0)
        assert np.allclose(two.mean.data, 2.0 * one.mean.data)
        assert np.allclose(two.d_vec.data, 4.0 * one.d_vec.data)

    def test_nonpositive_alpha_rejected(self):
        layer, x = _tiny_case()
        with pytest.raises(DomainError):
            A.analytic_predictive(layer, x, 0.0)

    def test_lora_scale_enters_variance_quadratically(self):
        rng = Rng(12)
        base = _random_layer(rng, d=3, k=4, r=2, scale=1.0)
        scaled = A.BaLoRALayer(W0=base.W0, WA=base.WA, WB=base.WB, rank=2, lora_scale=3.0)
        x = Tensor(rng.normal((3,)))
        v1 = A.analytic_predictive(base, x, 0.7).d_vec.data
        v3 = A.analytic_predictive(scaled, x, 0.7).d_vec.data
        assert np.allclose(v3, 9.0 * v1)


class TestLowRankSampler:
    def test_zero_noise_limit(self):
        layer = _random_layer(Rng(13), d=4, k=3, r=2)
        x = Tensor(Rng(14).normal((4,)))
        det = A.adapted_linear(layer, x).data
        sample = A.sample_lowrank(layer, x, 1e-12, Rng(15)).data
        assert np.max(np.abs(sample - det)) < 1e-5

    def test_tiny_case_moments(self):
        layer, x = _tiny_case()
        n = 200_000
        samples = A.sample_lowrank(layer, x, 1.0, Rng(16), n=n).data
        law = A.analytic_predictive(layer, x, 1.0)
        z_mean, z_cov = _cov_z_scores(*_empirical_moments(samples),
                                      law.mean.data, law.covariance(), n)
        assert z_mean < 3.0
        assert z_cov < 3.0

    def test_single_and_batched_draws_agree(self):
        layer, x = _tiny_case()
        single = A.sample_lowrank(layer, x, 0.5, Rng(17)).data
        batch = A.sample_lowrank(layer, x, 0.5, Rng(17), n=1).data
        assert np.array_equal(single, batch[0])

    def test_reparametrization_gradient(self):
        # d(sample)/d(WA, WB, alpha-as-tensor) matches finite differences
        # with the normal draw frozen by reseeding.
        rng = Rng(18)
        layer = _random_layer(rng, d=4, k=3, r=2)
        x = Tensor(rng.normal((4,)))
        proj = rng.normal((3,))
        alpha = Tensor(0.8, requires_grad=True)
        params = [layer.WA, layer.WB, alpha]

        def loss_fn():
            s = A.sample_lowrank(layer, x, alpha, Rng(19))
            return T.tsum(T.mul(s, Tensor(proj))).item()

        loss = T.tsum(T.mul(A.sample_lowrank(layer, x, alpha, Rng(19)), Tensor(proj)))
        backward(loss)
        numeric = finite_difference_grads(loss_fn, params)
        for p, g in zip(params, numeric):
            assert scaled_gradient_error(p.grad, g, rtol=1e-4, atol=1e-7) <= 1.0


class TestFullCovOracle:
    def test_rank_one_samples_stay_on_line(self):
        layer, x = _tiny_case()
        direction = layer.WB.data[:, 0]
        direction = direction / np.linalg.norm(direction)
        for s in range(50):
            y = A.sample_full_cov_oracle(layer, x, 1.0, Rng(20).stream_of(s)).data
            resid = y - A.adapted_linear(layer, x).data
            ortho = resid - direction * (direction @ resid)
            # Ridge noise allows a tiny off-line component.
            assert np.linalg.norm(ortho) < 1e-4

    def test_moments_match_lowrank_sampler(self):
        layer = _random_layer(Rng(21), d=5, k=4, r=2)
        x = Tensor(Rng(22).normal((5,)))
        n = 200_000
        fast = A.sample_lowrank(layer, x, 0.9, Rng(23), n=n).data
        slow = A.sample_full_cov_oracle(layer, x, 0.9, Rng(24), n=n).data
        ref = A.analytic_predictive(layer, x, 0.9).covariance()
        z_mean, z_cov = _two_sample_z(fast, slow, ref)
        assert z_mean < 3.0
        assert z_cov < 3.0

    def test_dimension_guard(self):
        layer = A.BaLoRALayer(W0=Tensor(np.zeros((2049, 2))),
                              WA=Tensor(np.zeros((1, 2)), requires_grad=True),
                              WB=Tensor(np.zeros((2049, 1)), requires_grad=True),
                              rank=1)
        with pytest.raises(DomainError):
            A.sample_full_cov_oracle(layer, Tensor(np.ones(2)), 1.0, Rng(25))


class TestMerge:
    def test_zero_wb_returns_base_exactly(self):
        layer = A.init_layer(Rng(26), d=5, k=4, r=2, init_std=0.2)
        assert np.array_equal(A.merge_weights(layer).data, layer.W0.data)

    def test_merge_forward_agreement_over_many_inputs(self):
        rng = Rng(27)
        layer = _random_layer(rng, d=6, k=5, r=3, scale=2.0)
        merged = A.merge_weights(layer).data
        for i in range(100):
            x = rng.stream_of(i).normal((6,))
            direct = A.adapted_linear(layer, Tensor(x)).data
            scale = max(1.0, np.max(np.abs(direct)))
            assert np.max(np.abs(merged @ x - direct)) < 1e-12 * scale

    def test_merge_is_idempotent(self):
        layer = _random_layer(Rng(28), d=4, k=4, r=2)
        assert np.array_equal(A.merge_weights(layer).data, A.merge_weights(layer).data)


class TestGeometry:
    def test_subspace_confinement(self):
        rng = Rng(29)
        for i in range(20):
            r = rng.stream_of(i)
            layer = _random_layer(r, d=7, k=9, r=3)
            x = r.normal((7,))
            y = A.sample_lowrank(layer, Tensor(x), 1.1, r.stream_of(1)).data
            residual = y - layer.W0.data @ x
            q, _ = np.linalg.qr(layer.WB.data)
            ortho = residual - q @ (q.T @ residual)
            assert np.linalg.norm(ortho) < 1e-9 * max(np.linalg.norm(residual), 1e-30)

    def test_nullspace_inputs_sample_deterministically(self):
        rng = Rng(30)
        layer = _random_layer(rng, d=6, k=4, r=2)
        wa = layer.WA.data.copy()
        wa[:, :3] = 0.0  # reduction rows never touch the first three coords
        layer.WA = Tensor(wa, requires_grad=True)
        x = np.zeros(6)
        x[:3] = rng.normal((3,))
        law = A.analytic_predictive(layer, Tensor(x), 1.0)
        assert np.array_equal(law.d_vec.data, np.zeros(2))
        det = A.adapted_linear(layer, Tensor(x)).data
        for s in range(20):
            y = A.sample_lowrank(layer, Tensor(x), 1.0, rng.stream_of(50 + s)).data
            assert np.max(np.abs(y - det)) < 1e-12

    def test_moment_matching_random_small_configs(self):
        rng = Rng(31)
        n = 100_000
        for c in range(6):
            crng = rng.stream_of(c)
            dims = crng.integers(2, 9, (2,))
            d, k = int(dims[0]), int(dims[1])
            r = int(crng.integers(1, min(d, k, 8) + 1, ()))
            layer = _random_layer(crng.stream_of(1), d, k, r)
            x = crng.stream_of(2).normal((d,))
            alpha = float(crng.stream_of(3).uniform(0.3, 1.5, ()))
            law = A.analytic_predictive(layer, Tensor(x), alpha)
            samples = A.sample_lowrank(layer, Tensor(x), alpha, crng.stream_of(4), n=n).data
            z_mean, z_cov = _cov_z_scores(*_empirical_moments(samples),
                                          law.mean.data, law.covariance(), n)
            # 4/sqrt(N)-scaled statistical tolerance: z-scores within 4.
            assert z_mean < 4.0 and z_cov < 4.0, (c, z_mean, z_cov)
