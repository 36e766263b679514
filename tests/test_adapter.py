"""Adapter-layer checks: hand cases, Monte Carlo moment oracles, and the
geometric invariants of the low-rank update."""

import warnings

import numpy as np
import pytest
from conftest import reference_layer_vjp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from balora import adapter as A
from balora import tensor as T
from balora.model import AdapterSpec, BackboneSpec, attach_adapters, init_backbone
from balora.rng import Rng
from balora.tensor import DomainError, ShapeError, Tensor, backward
from balora.verify import (_empirical_moments, _moment_z, _random_layer, _tiny_model,
                           check_nullspace_variance, check_subspace_residual,
                           finite_difference_grads, gradient_error, scaled_gradient_error)


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
        X = np.stack([rng.stream_of(i).normal((6,)) for i in range(10)])
        out = A.adapted_kernel(layer, X)
        assert np.allclose(out, X @ layer.W0.data.T, atol=1e-14)

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
        out = A.alpha_forward(net, Tensor(Rng(4).normal((1, 5))))
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
        out = A.alpha_forward(net, Tensor(Rng(7).normal((2, 3))))
        assert out.shape == (2, 7)

    def test_vector_features_rejected(self):
        net = A.init_alphanet(Rng(6), feature_dim=3, num_layers=2, hidden_dims=(4,))
        with pytest.raises(ShapeError):
            A.alpha_forward(net, Tensor(Rng(7).normal((3,))))

    def test_nonfinite_weight_raises_in_linear(self):
        net = A.init_alphanet(Rng(6), feature_dim=3, num_layers=1, hidden_dims=(4,))
        bad = net.weights[0].data.copy()
        bad[0, 0] = np.nan
        net.weights[0].data = bad
        with np.errstate(invalid="ignore"), \
                pytest.raises(T.NonFiniteError, match="non-finite values produced by the AlphaNet"):
            A.alpha_forward(net, Tensor(Rng(7).normal((2, 3))))

    def test_infinite_hidden_unit_raises_instead_of_clamping(self):
        # Without the check on the logits, the +inf logit would pass the
        # softplus as +inf and leave the clamp as alpha_max.
        net = A.init_alphanet(Rng(6), feature_dim=2, num_layers=1, hidden_dims=(3,))
        net.weights[0].data = np.array([[1e308, 1e308], [0.0, 0.0], [0.0, 0.0]])
        net.weights[1].data = np.array([[1.0, 0.0, 0.0]])
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(T.NonFiniteError, match="the AlphaNet"):
            A.alpha_forward(net, Tensor([[10.0, 10.0]]))


def _head_net(biases, alpha_min=A.ALPHA_MIN, alpha_max=A.ALPHA_MAX):
    """An AlphaNet whose logits are exactly ``biases`` for every input."""
    net = A.init_alphanet(Rng(9), feature_dim=2, num_layers=len(biases), hidden_dims=(3,))
    net.weights[1] = Tensor(np.zeros(net.weights[1].shape), requires_grad=True)
    net.biases[1] = Tensor(biases, requires_grad=True)
    net.alpha_min, net.alpha_max = alpha_min, alpha_max
    return net


class TestAlphaNetNode:
    """The AlphaNet is one tape node: a taped walk to the logits, then the
    clamped softplus."""

    def test_softplus_zero(self):
        net = _head_net([0.0], alpha_min=0.0)
        out = A.alpha_forward(net, Tensor(Rng(4).normal((1, 2))))
        assert abs(out.item() - np.log(2.0)) < 1e-12
        backward(T.tsum(out))
        assert abs(net.biases[1].grad[0] - 0.5) < 1e-15

    def test_softplus_stable_at_extremes(self):
        net = _head_net([-745.0, 0.0, 745.0], alpha_min=0.0)
        out = A.alpha_forward(net, Tensor(Rng(4).normal((1, 2))))
        assert out.data[0, 0] < 1e-300 and abs(out.data[0, 2] - 745.0) < 1e-9
        backward(T.tsum(out))
        assert np.allclose(net.biases[1].grad, [0.0, 0.5, 1.0], rtol=0.0, atol=1e-15)

    def test_clamp(self):
        net = _head_net([-5.0, 0.3, 5.0], alpha_min=0.5, alpha_max=2.0)
        out = A.alpha_forward(net, Tensor(Rng(4).normal((1, 2))))
        assert out.data.tolist() == [[0.5, np.log1p(np.exp(-0.3)) + 0.3, 2.0]]
        backward(T.tsum(out))
        # No gradient where the clamp holds.
        assert net.biases[1].grad.tolist() == [0.0, 1.0 / (1.0 + np.exp(-0.3)), 0.0]

    @staticmethod
    def _features(head: str) -> tuple:
        """Feature rows and an AlphaNet of a fresh balora model: the raw
        inputs (regression) or the frozen backbone's last hidden layer."""
        rng = Rng(12)
        backbone = init_backbone(BackboneSpec(d_in=4, d_out=3, hidden=(6, 5), head=head),
                                 rng.stream_of(0))
        backbone.freeze()
        model = attach_adapters(backbone, AdapterSpec(rank=2, alphanet_hidden=(4, 3)),
                                "balora", rng.stream_of(1))
        return model.alpha_features(rng.stream_of(2).normal((5, 4))), model.alphanet

    @pytest.mark.parametrize("clamped", [False, True], ids=["inside", "clamped"])
    @pytest.mark.parametrize("head", ["regression", "classification"])
    def test_gradients_match_finite_differences(self, head, clamped):
        feats, net = self._features(head)
        if clamped:
            # Logits far below alpha_min, inside, and far above alpha_max.
            net.biases[-1] = Tensor([-30.0, 0.5, 2000.0], requires_grad=True)
        proj = Tensor(Rng(13).normal((len(feats), net.num_layers)))

        def loss_fn():
            return T.tsum(T.mul(A.alpha_forward(net, Tensor(feats)), proj))

        out = A.alpha_forward(net, Tensor(feats)).data
        if clamped:
            assert (out[:, 0] == net.alpha_min).all() and (out[:, 2] == net.alpha_max).all()
        else:
            assert ((out > net.alpha_min) & (out < net.alpha_max)).all()
        assert gradient_error(loss_fn, net.trainables()) <= 1.0


class TestDeterministicForward:
    def test_zero_wb_gives_base(self):
        layer = A.init_layer(Rng(8), d=5, k=3, r=2, init_std=0.3)
        x = Rng(9).normal((4, 5))
        assert np.allclose(A.adapted_kernel(layer, x), x @ layer.W0.data.T, atol=1e-14)

    def test_identity_composition(self):
        # W0 = 0, WB and WA slice the identity: output projects x through rank space.
        layer = A.BaLoRALayer(W0=Tensor(np.zeros((3, 3))),
                              WA=Tensor(np.eye(3)[:2], requires_grad=True),
                              WB=Tensor(np.eye(3)[:, :2], requires_grad=True),
                              rank=2, lora_scale=1.0)
        e1 = np.array([[1.0, 0.0, 0.0]])
        assert A.adapted_kernel(layer, e1).tolist() == [[1.0, 0.0, 0.0]]

    def test_base_weights_never_reach_the_tape(self):
        model, X, _ = _tiny_model(33)
        backward(T.tsum(model.forward(X, eps=model.draw_eps(len(X), Rng(34)))))
        for layer in model.adapters.values():
            assert not layer.W0.requires_grad
            assert layer.W0.grad is None
            assert layer.WA.grad is not None and layer.WB.grad is not None
        assert all(p.grad is None for p in model.backbone.parameters())

    def test_matches_merged_weights(self):
        rng = Rng(10)
        for i in range(20):
            r = rng.stream_of(i)
            layer = _random_layer(r, d=6, k=5, r=3, scale=float(r.uniform(0.5, 3.0, ())))
            merged = A.merge_weights(layer).data
            x = r.normal((6,))
            direct = A.adapted_kernel(layer, x)
            scale = max(1.0, np.max(np.abs(direct)))
            assert np.max(np.abs(merged @ x - direct)) < 1e-12 * scale


class TestAdaptedLinearKernel:
    """The adapter's cotangents (``layer_vjp``) against central finite
    differences of its forward (``adapted_kernel``)."""

    N, L, COL = 5, 3, 1

    @classmethod
    def _case(cls, seed, stochastic, x_grad):
        rng = Rng(seed)
        layer = _random_layer(rng.stream_of(0), d=4, k=3, r=2)
        x = Tensor(rng.stream_of(1).normal((cls.N, 4)), requires_grad=x_grad)
        bias = Tensor(rng.stream_of(2).normal((3,)))
        alphas = eps = None
        if stochastic:
            alphas = Tensor(rng.stream_of(3).uniform(0.2, 2.0, (cls.N, cls.L)),
                            requires_grad=True)
            eps = rng.stream_of(4).normal((cls.N, 2))
        return layer, x, bias, alphas, eps, rng.stream_of(5).normal((cls.N, 3))

    def _vjp(self, layer, x, bias, alphas, eps, proj, need_x):
        """``layer_vjp`` of ``sum(proj * layer(x))`` from the forward's terms."""
        a = None if eps is None else alphas.data[:, self.COL:self.COL + 1]
        base, z, q, *squares = A.layer_terms(layer, x.data, bias.data, eps is not None)
        out, z, sd = A.layer_output(layer, base, z, q, a, eps)
        return out, A.layer_vjp(layer, proj, x.data, (z, q, sd, a, eps, *squares), need_x)

    CASES = [("deterministic-batch", False), ("batch-2d-alphas", True)]

    @pytest.mark.parametrize("x_grad", [False, True], ids=["x-const", "x-grad"])
    @pytest.mark.parametrize("name,stochastic", CASES, ids=[c[0] for c in CASES])
    def test_vjp_matches_finite_differences(self, name, stochastic, x_grad):
        layer, x, bias, alphas, eps, proj = self._case(len(name) + 7 * x_grad, stochastic,
                                                       x_grad)
        col = None if alphas is None else Tensor(alphas.data[:, self.COL], requires_grad=True)

        def loss():
            a = None if col is None else col.data[:, None]
            return float(np.sum(proj * A.adapted_kernel(layer, x.data, bias.data, a, eps)))

        _, (gx, gwa, gwb, ga) = self._vjp(layer, x, bias, alphas, eps, proj, x_grad)
        assert (gx is None) == (not x_grad)
        assert (ga is None) == (not stochastic)
        pairs = [(layer.WA, gwa), (layer.WB, gwb), (bias, proj.sum(axis=0))]
        pairs += [(x, gx)] if x_grad else []
        pairs += [(col, ga)] if stochastic else []
        numeric = finite_difference_grads(loss, [p for p, _ in pairs])
        for (p, analytic), g in zip(pairs, numeric):
            assert scaled_gradient_error(analytic, g, rtol=1e-4, atol=1e-7) <= 1.0, name

    def test_zero_latent_variance_has_zero_subgradient(self):
        # Input supported only where WA's columns vanish: the latent variance
        # is exactly zero, so the noise path contributes nothing, not NaN.
        layer, x, bias, alphas, eps, proj = self._case(3, True, False)
        wa = layer.WA.data.copy()
        wa[:, :2] = 0.0
        layer.WA = Tensor(wa, requires_grad=True)
        x = Tensor(np.array([[0.7, -1.3, 0.0, 0.0]]))
        alphas, eps, proj = Tensor(alphas.data[:1]), eps[:1], proj[:1]
        out_s, (_, *grads_s, ga) = self._vjp(layer, x, bias, alphas, eps, proj, True)
        out_d, (_, *grads_d, _) = self._vjp(layer, x, bias, None, None, proj, True)
        assert np.all(ga == 0.0)
        assert out_s.tobytes() == out_d.tobytes()
        for g_stoch, g_det in zip(grads_s, grads_d):
            assert np.array_equal(g_stoch, g_det)

    def test_zero_latent_variance_warns_nothing(self):
        # The plain 1 / sd runs only when no sd is zero; rows with sd == 0
        # take the masked divide, which neither warns nor makes Inf.
        layer, x, bias, alphas, eps, proj = self._case(5, True, True)
        xs = x.data.copy()
        xs[[1, 3]] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, (gx, gwa, gwb, ga) = self._vjp(layer, Tensor(xs), bias, alphas, eps, proj, True)
        assert (ga[[1, 3]] == 0.0).all() and (ga != 0.0).sum() == self.N - 2
        assert all(np.isfinite(g).all() for g in (gx, gwa, gwb, ga))

    def test_mismatched_shapes_rejected(self):
        # forward checks the network's inputs once, before the walk.
        model, X, _ = _tiny_model(4)
        eps = model.draw_eps(len(X), Rng(5))
        alphas = model.alphas(X)
        with pytest.raises(ShapeError):
            model.forward(X, alphas, [e[:, :1] for e in eps])
        with pytest.raises(ShapeError):
            model.forward(X, alphas, [e[:1] for e in eps])
        with pytest.raises(ShapeError):
            model.forward(X[:, :2], alphas, eps)
        with pytest.raises(ShapeError):
            model.forward(X, Tensor(alphas.data[0]), eps)
        with pytest.raises(ShapeError):
            model.forward(X, Tensor(alphas.data[:, :1]), eps)
        with pytest.raises(DomainError):
            model.forward(X, Tensor(-alphas.data), eps)


# The GELU and AlphaNet-head VJPs as written before their chains ran in place,
# one temporary per op: the references the rewrites must match bit for bit (the
# layer's is conftest.reference_layer_vjp).


def _reference_gelu_grad(z, phi):
    return phi + z * (T._INV_SQRT2PI * np.exp(-0.5 * z * z))


def _reference_logits(net, feat):
    """The AlphaNet's logits and, per layer, its input and GELU input and gate."""
    h, tape = feat, []
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        x, h = h, h @ w.data.T + b.data
        act = None
        if i < len(net.weights) - 1:
            act = (h, T.gelu_gate(h))
            h = h * act[1]
        tape.append((x, act))
    return h, tape


def _reference_alpha_scales(net, feat, g):
    """The AlphaNet's scales and its parameters' cotangents for the scales'
    cotangent ``g``, layer by layer: per layer its weight's, then its bias'."""
    z, tape = _reference_logits(net, feat)
    e = np.exp(-np.abs(z))
    soft = np.log1p(e) + np.maximum(z, 0.0)
    sig = np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
    inside = (soft > net.alpha_min) & (soft < net.alpha_max)
    g = sig * np.where(inside, g, 0.0)
    grads = []
    for i in range(len(net.weights) - 1, -1, -1):
        x, act = tape[i]
        if act is not None:
            g = _reference_gelu_grad(*act) * g
        grads[:0] = [g.T @ x, g.sum(axis=0)]
        g = g @ net.weights[i].data
    return np.clip(soft, net.alpha_min, net.alpha_max), grads


def _same_bytes(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestKernelsMatchReferences:
    """``layer_vjp``, ``gelu_grad`` and the AlphaNet's VJP against their
    references, byte for byte. The ELBO-step fuzz cannot see a change here:
    its public-node graph calls the same kernels."""

    @settings(derandomize=True, max_examples=200, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_layer_vjp(self, data):
        n, d, k = (data.draw(st.integers(1, 7)) for _ in range(3))
        r = data.draw(st.integers(1, min(d, k)))
        rng = Rng(data.draw(st.integers(0, 2**16)))
        layer = _random_layer(rng.stream_of(0), d=d, k=k, r=r,
                              scale=data.draw(st.sampled_from([0.5, 1.0, 3.0])))
        layer.WA.requires_grad = data.draw(st.booleans())
        layer.WB.requires_grad = data.draw(st.booleans())
        x = rng.stream_of(1).normal((n, d))
        x[rng.stream_of(2).uniform(0.0, 1.0, (n,)) < 0.3] = 0.0  # rows with sd == 0
        a = eps = None
        if data.draw(st.booleans()):
            a = np.exp(rng.stream_of(3).uniform(np.log(A.ALPHA_MIN), np.log(A.ALPHA_MAX),
                                                (n, 1)))
            a[::3], a[1::3] = A.ALPHA_MIN, A.ALPHA_MAX  # both clamp ends
            eps = rng.stream_of(4).normal((n, r))
        g = rng.stream_of(5).normal((n, k))
        need_x = data.draw(st.booleans())
        base, z, q, *squares = A.layer_terms(layer, x, None, eps is not None)
        _, z, sd = A.layer_output(layer, base, z, q, a, eps)
        got = A.layer_vjp(layer, g, x, (z, q, sd, a, eps, *squares), need_x)
        _same_bytes(got, reference_layer_vjp(layer, g, x, z, q, sd, a, eps, need_x))
        if eps is not None and (x == 0.0).all(axis=1).any():
            assert (sd == 0.0).all(axis=1).any()

    @settings(derandomize=True, max_examples=200, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_alpha_net_and_gelu_grad(self, data):
        rng = Rng(data.draw(st.integers(0, 2**16)))
        n, f, layers = (data.draw(st.integers(1, 6)) for _ in range(3))
        hidden = data.draw(st.lists(st.integers(1, 6), max_size=2))
        net = A.init_alphanet(rng.stream_of(0), f, layers, hidden)
        feat = rng.stream_of(1).normal((n, f)) * data.draw(st.sampled_from([0.1, 1.0, 30.0]))
        # Centre each output's logits on zero, so both signs occur, and put
        # the clamp at two of the softplus values, so some sit on and past its ends.
        z = _reference_logits(net, feat)[0]
        net.biases[-1] = Tensor(net.biases[-1].data - np.median(z, axis=0), requires_grad=True)
        z = _reference_logits(net, feat)[0]
        soft = np.sort(np.log1p(np.exp(-np.abs(z))) + np.maximum(z, 0.0), axis=None)
        net.alpha_min, net.alpha_max = soft[len(soft) // 4], soft[(3 * len(soft)) // 4]
        g = rng.stream_of(2).normal((n, layers))
        want, want_grads = _reference_alpha_scales(net, feat, g)
        got, params, vjp = A.alpha_scales(net, feat)
        assert got.tobytes() == want.tobytes()
        _same_bytes(vjp(g), want_grads)
        assert len(params) == len(want_grads)

        h = rng.stream_of(3).normal((n, f)) * data.draw(st.sampled_from([1.0, 10.0, 40.0]))
        h[0, 0] = -0.0
        phi = T.gelu_gate(h)
        assert T.gelu_grad(h, phi).tobytes() == _reference_gelu_grad(h, phi).tobytes()


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
        det = A.adapted_kernel(layer, x.data)
        sample = A.sample_lowrank(layer, x, 1e-12, Rng(15)).data
        assert np.max(np.abs(sample - det)) < 1e-5

    def test_tiny_case_moments(self):
        layer, x = _tiny_case()
        n = 200_000
        samples = A.sample_lowrank(layer, x, 1.0, Rng(16), n=n).data
        law = A.analytic_predictive(layer, x, 1.0)
        cov = law.covariance()
        z_mean, z_cov = _moment_z(_empirical_moments(samples), (law.mean.data, cov), cov, 1.0 / n)
        assert z_mean < 3.0
        assert z_cov < 3.0

    def test_single_and_batched_draws_agree(self):
        layer, x = _tiny_case()
        single = A.sample_lowrank(layer, x, 0.5, Rng(17)).data
        batch = A.sample_lowrank(layer, x, 0.5, Rng(17), n=1).data
        assert np.array_equal(single, batch[0])

    def test_single_draw_is_off_the_tape(self):
        layer = _random_layer(Rng(18), d=4, k=3, r=2)
        assert layer.WA.requires_grad and layer.WB.requires_grad
        draw = A.sample_lowrank(layer, Tensor(Rng(19).normal((4,))), 0.8, Rng(20))
        assert isinstance(draw, Tensor)
        assert draw.shape == (3,) and not draw.requires_grad

    def test_bad_input_or_alpha_rejected(self):
        layer, x = _tiny_case()
        with pytest.raises(ShapeError):
            A.sample_lowrank(layer, Tensor(x.data[None, :]), 1.0, Rng(21))
        for alpha in (0.0, -1.0, float("nan")):
            with pytest.raises(DomainError):
                A.sample_lowrank(layer, x, alpha, Rng(21), n=4)
        with pytest.raises(DomainError, match="n, the number of draws"):
            A.sample_lowrank(layer, x, 1.0, Rng(21), n=-1)


class TestFullCovOracle:
    def test_rank_one_samples_stay_on_line(self):
        layer, x = _tiny_case()
        direction = layer.WB.data[:, 0]
        direction = direction / np.linalg.norm(direction)
        for s in range(50):
            y = A.sample_full_cov_oracle(layer, x, 1.0, Rng(20).stream_of(s)).data
            resid = y - A.adapted_kernel(layer, x.data)
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
        z_mean, z_cov = _moment_z(_empirical_moments(fast), _empirical_moments(slow), ref,
                                  2.0 / n)
        assert z_mean < 3.0
        assert z_cov < 3.0

    @pytest.mark.parametrize("n", [None, 7])
    def test_draws_match_the_dense_expression_bit_for_bit(self, n):
        # The oracle's draws, written out from the adapter forward and the
        # latent variance as one expression: the mean plus the lower
        # Cholesky factor of the ridged covariance times standard normals.
        layer = _random_layer(Rng(26), d=5, k=4, r=2, scale=1.5)
        x, alpha = Tensor(Rng(27).normal((5,))), 0.7
        mean = A.adapted_kernel(layer, x.data)
        s2 = layer.lora_scale * layer.lora_scale
        d_vec = float(alpha) * s2 * ((layer.WA.data ** 2) @ (x.data ** 2))
        wb = layer.WB.data
        chol = np.linalg.cholesky((wb * d_vec) @ wb.T + A._ORACLE_RIDGE * np.eye(layer.k))
        if n is None:
            want = mean + chol @ Rng(28).normal((layer.k,))
        else:
            want = mean + Rng(28).normal((n, layer.k)) @ chol.T
        got = A.sample_full_cov_oracle(layer, x, alpha, Rng(28), n=n).data
        assert got.tobytes() == want.tobytes()

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
            direct = A.adapted_kernel(layer, x)
            scale = max(1.0, np.max(np.abs(direct)))
            assert np.max(np.abs(merged @ x - direct)) < 1e-12 * scale

    def test_merge_is_idempotent(self):
        layer = _random_layer(Rng(28), d=4, k=4, r=2)
        assert np.array_equal(A.merge_weights(layer).data, A.merge_weights(layer).data)


class TestGeometry:
    # The oracles criterion 6 calls, at other seeds.
    def test_subspace_confinement(self):
        assert check_subspace_residual(26, dims=(7, 9, 3), alpha=1.1).passed  # Rng(29)

    def test_nullspace_inputs_sample_deterministically(self):
        assert check_nullspace_variance(26, dims=(6, 4, 2), alpha=1.0).passed  # Rng(30)
