"""Self-contained oracle suite behind ``balora verify``.

Each oracle checks an implementation against an independent route:
numerical quadrature for the closed-form KL, Monte Carlo moments for the
sampler (one z-score, :func:`_moment_z`, against exact moments or a second
sampler), central finite differences for the gradients of the tape node
training differentiates and of the KL (:func:`gradient_error`, which the
tests' gradient checks call too), merged-weight forwards for the
deterministic path, and orthogonal-complement residuals for the subspace
claims. Oracles are looked up through their modules at call time so
fault-injection tests can monkeypatch the implementation.

Each property is checked here only. The acceptance suite
(``tests/test_acceptance.py``) calls these oracles with its own seeds,
sizes, rank caps and substreams; those are the oracles' parameters beyond
``seed``, and their defaults are what ``balora verify`` runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from . import adapter as A
from . import variational as V
from .model import AdapterSpec, BackboneSpec, attach_adapters, init_backbone
from .rng import Rng
from .tensor import Tensor, backward

DEFAULT_SEED = 20250801


@dataclass
class OracleResult:
    name: str
    family: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""


# -- independent oracles ------------------------------------------------------


def kl_quadrature(alpha: float, p: float, w: float = 1.0) -> float:
    """Gaussian KL via adaptive quadrature in the standardized posterior
    variable; never touches the closed form."""
    var_q = alpha * w * w
    var_p = (p / (1.0 - p)) * w * w
    sq = math.sqrt(var_q)
    log_norm_q = -0.5 * math.log(2.0 * math.pi * var_q)
    log_norm_p = -0.5 * math.log(2.0 * math.pi * var_p)

    def integrand(u: float) -> float:
        t = w + sq * u
        log_q = log_norm_q - 0.5 * u * u
        log_p = log_norm_p - t * t / (2.0 * var_p)
        return math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi) * (log_q - log_p)

    val, _ = quad(integrand, -40.0, 40.0, epsabs=1e-13, epsrel=1e-12, limit=400)
    return val


def finite_difference_grads(loss_fn, params) -> list[np.ndarray]:
    """Central finite differences, step 1e-5, of ``loss_fn()`` w.r.t. every
    parameter entry.

    ``loss_fn`` must rebuild its forward pass (and redraw any noise from a
    fixed seed) on every call so the only change between evaluations is the
    perturbed entry.
    """
    h, grads = 1e-5, []
    for p in params:
        original = p.data
        g = np.zeros(p.size)
        for i in range(p.size):
            for sign, slot in ((+1.0, 0), (-1.0, 1)):
                bumped = original.copy().ravel()
                bumped[i] += sign * h
                p.data = bumped.reshape(original.shape)
                p.data.flags.writeable = False
                if slot == 0:
                    f_plus = loss_fn()
                else:
                    f_minus = loss_fn()
            g[i] = (f_plus - f_minus) / (2.0 * h)
        p.data = original
        grads.append(g.reshape(original.shape))
    return grads


def scaled_gradient_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max of |a - n| / (atol + rtol * |n|) at rtol 1e-4 and atol 1e-7;
    values <= 1 mean agreement."""
    denom = 1e-7 + 1e-4 * np.abs(numeric)
    return float(np.max(np.abs(analytic - numeric) / denom)) if analytic.size else 0.0


def gradient_error(loss_fn, params) -> float:
    """Worst :func:`scaled_gradient_error` over ``params`` of the tape's
    gradients of ``loss_fn()``, a 0-d tape node, against its central
    differences; a parameter the tape leaves without a gradient counts as
    zeros. The gradients of ``params`` are cleared before and after."""
    V.zero_grad(params)
    backward(loss_fn())
    numeric = finite_difference_grads(lambda: loss_fn().item(), params)
    worst = 0.0
    for p, g_num in zip(params, numeric):
        g_ana = p.grad if p.grad is not None else np.zeros(p.shape)
        worst = max(worst, scaled_gradient_error(g_ana, g_num))
    V.zero_grad(params)
    return worst


def _random_layer(rng: Rng, d: int, k: int, r: int, scale: float = 1.5) -> A.BaLoRALayer:
    layer = A.init_layer(rng, d=d, k=k, r=r, init_std=0.5, lora_scale=scale)
    layer.WB = Tensor(rng.normal((k, r)), requires_grad=True)
    return layer


def _random_case(crng: Rng, r_cap: int | None = None):
    """``(layer, x, alpha)``: a random small layer with d, k in [2, 8] and
    r <= min(d, k, r_cap), an input and an alpha in [0.2, 2), drawn from
    ``crng`` and its substreams 1-3. Callers draw samples from other
    substreams of ``crng``."""
    dims = crng.integers(2, 9, (2,))
    d, k = int(dims[0]), int(dims[1])
    r_max = min(d, k) if r_cap is None else min(d, k, r_cap)
    r = int(crng.integers(1, r_max + 1, ()))
    layer = _random_layer(crng.stream_of(1), d, k, r)
    x = crng.stream_of(2).normal((d,))
    alpha = float(crng.stream_of(3).uniform(0.2, 2.0, ()))
    return layer, x, alpha


def _empirical_moments(samples: np.ndarray):
    mean = samples.mean(axis=0)
    centered = samples - mean
    cov = centered.T @ centered / samples.shape[0]
    return mean, cov


def _moment_z(a, b, ref_cov: np.ndarray, scale: float):
    """Max entrywise z-scores of the gap between two ``(mean, cov)`` pairs,
    over the mean and over the covariance's upper triangle, under the
    Gaussian sampling distribution of the estimators for draws of
    covariance ``ref_cov``. ``scale`` is ``1/n`` for a sample of ``n`` draws
    against exact moments, ``1/na + 1/nb`` for two samples."""
    (mean_a, cov_a), (mean_b, cov_b) = a, b
    var = np.diag(ref_cov)
    z_mean = np.abs(mean_a - mean_b) / np.sqrt(np.maximum(var * scale, 1e-300))
    var_cov = (np.outer(var, var) + ref_cov ** 2) * scale
    z_cov = np.abs(cov_a - cov_b) / np.sqrt(np.maximum(var_cov, 1e-300))
    iu = np.triu_indices(len(var))
    return float(np.max(z_mean)), float(np.max(z_cov[iu]))


# -- oracle checks -----------------------------------------------------------------


def check_kl_quadrature(seed: int, alphas=(1e-4, 1e-2, 1.0, 10.0, 1e3)) -> OracleResult:
    worst = 0.0
    for p in (0.1, 0.3, 0.5, 0.7, 0.9):
        for alpha in alphas:
            ref = kl_quadrature(alpha, p, w=3.7)
            got = V.kl_per_entry(alpha, p)
            worst = max(worst, abs(got - ref) / max(abs(ref), 1e-12))
    return OracleResult("kl_vs_quadrature", "kl", worst < 1e-6, worst, 1e-6,
                        "closed form vs adaptive quadrature, grid over (alpha, p)")


def check_kl_w_independence(seed: int, points=tuple(
        (p, alpha) for p in (0.1, 0.5, 0.9) for alpha in (1e-3, 1.0, 50.0))) -> OracleResult:
    """Over ``points``, pairs ``(p, alpha)``."""
    worst = 0.0
    for p, alpha in points:
        vals = [kl_quadrature(alpha, p, w=w) for w in (0.1, 1.0, 10.0)]
        got = V.kl_per_entry(alpha, p)
        spread = max(abs(v - got) / max(abs(got), 1e-12) for v in vals)
        worst = max(worst, spread)
    return OracleResult("kl_w_independence", "kl", worst < 1e-6, worst, 1e-6,
                        "quadrature value is invariant to the weight magnitude")


def check_kl_minimum(seed: int) -> OracleResult:
    worst = 0.0
    for p in (0.1, 0.3, 0.5, 0.7, 0.9):
        a_star = V.alpha_star(p)
        expect = (1.0 - p) / (2.0 * p)
        worst = max(worst, abs(V.kl_per_entry(a_star, p) - expect))
        for eps in (1e-3, 1e-2):
            if V.kl_per_entry(a_star * (1 + eps), p) < V.kl_per_entry(a_star, p) or \
               V.kl_per_entry(a_star * (1 - eps), p) < V.kl_per_entry(a_star, p):
                worst = max(worst, 1.0)
    return OracleResult("kl_minimum", "kl", worst < 1e-9, worst, 1e-9,
                        "analytic minimizer alpha* = p/(1-p) attains (1-p)/(2p)")


def check_covariance_mc(seed: int, n_configs: int = 10, n_samples: int = 100_000,
                        r_cap: int | None = None) -> OracleResult:
    rng = Rng(seed)
    worst = 0.0
    for c in range(n_configs):
        crng = rng.stream_of(c)
        layer, x, alpha = _random_case(crng, r_cap)
        law = A.analytic_predictive(layer, Tensor(x), alpha)
        samples = A.sample_lowrank(layer, Tensor(x), alpha, crng.stream_of(4),
                                   n=n_samples).data
        cov = law.covariance()
        z_mean, z_cov = _moment_z(_empirical_moments(samples), (law.mean.data, cov), cov,
                                  1.0 / n_samples)
        worst = max(worst, z_mean, z_cov)
    return OracleResult("covariance_mc_match", "covariance", worst < 3.0, worst, 3.0,
                        f"{n_configs} random configs, {n_samples} draws, entrywise z-scores")


def check_sampler_equivalence(seed: int, n_configs: int = 8, n_samples: int = 100_000,
                              r_cap: int | None = None, streams=(4, 5)) -> OracleResult:
    """The low-rank and dense samplers draw from substreams ``streams``."""
    rng = Rng(seed + 1)
    worst = 0.0
    for c in range(n_configs):
        crng = rng.stream_of(c)
        layer, x, alpha = _random_case(crng, r_cap)
        fast = A.sample_lowrank(layer, Tensor(x), alpha, crng.stream_of(streams[0]),
                                n=n_samples).data
        slow = A.sample_full_cov_oracle(layer, Tensor(x), alpha, crng.stream_of(streams[1]),
                                        n=n_samples).data
        ref_cov = A.analytic_predictive(layer, Tensor(x), alpha).covariance()
        z_mean, z_cov = _moment_z(_empirical_moments(fast), _empirical_moments(slow), ref_cov,
                                  1.0 / len(fast) + 1.0 / len(slow))
        worst = max(worst, z_mean, z_cov)
    return OracleResult("sampler_equivalence", "covariance", worst < 3.0, worst, 3.0,
                        "low-rank vs dense-factorization sampler, two-sample moments")


def _tiny_model(seed: int):
    task_rng = Rng(seed)
    backbone = init_backbone(BackboneSpec(d_in=3, d_out=2, hidden=(5,), head="regression"),
                             task_rng.stream_of(0))
    backbone.freeze()
    model = attach_adapters(
        backbone,
        AdapterSpec(rank=2, lora_alpha=4.0, init_std=0.4, alphanet_hidden=(4,),
                    init_alpha=0.3),
        "balora", task_rng.stream_of(1))
    # Non-zero WB so gradients flow through every factor.
    for layer in model.adapters.values():
        layer.WB = Tensor(task_rng.stream_of(2).normal(layer.WB.shape) * 0.5,
                          requires_grad=True)
    X = task_rng.stream_of(3).normal((4, 3))
    y = task_rng.stream_of(4).normal((4, 2))
    return model, X, y


def check_gradient_fd(seed: int) -> OracleResult:
    """The ELBO step training differentiates, at ``kl_weight`` 0 (the NLL
    alone) and 0.7 with frozen noise from ``Rng(seed + 9)``, and the
    normalized KL over ``(4, 2)`` alphas log-uniform on ``[1e-3, 1e2]`` from
    substream 5 of ``Rng(seed)``."""
    model, X, y = _tiny_model(seed)
    prior = V.PriorConfig(0.4)
    alphas = Tensor(np.exp(Rng(seed).stream_of(5).uniform(math.log(1e-3), math.log(1e2),
                                                          (4, 2))), requires_grad=True)
    worst = gradient_error(lambda: V.kl_normalized(alphas, prior.p), [alphas])
    for kl_weight in (0.0, 0.7):
        cfg = V.TrainConfig(kl_weight=kl_weight)
        worst = max(worst, gradient_error(
            lambda: V.elbo_step(model, (X, y), prior, cfg, Rng(seed + 9))[0],
            model.trainables()))
    return OracleResult("gradient_finite_difference", "gradient", worst < 1.0, worst, 1.0,
                        "tape vs central differences for the ELBO step at kl_weight 0 and 0.7 "
                        "with frozen noise, and the normalized KL; scaled by rtol=1e-4, "
                        "atol=1e-7")


def check_merge_equivalence(seed: int) -> OracleResult:
    rng = Rng(seed + 2)
    worst = 0.0
    for c in range(100):
        crng = rng.stream_of(c)
        dims = crng.integers(2, 12, (2,))
        d, k = int(dims[0]), int(dims[1])
        r = int(crng.integers(1, min(d, k) + 1, ()))
        layer = _random_layer(crng.stream_of(1), d, k, r, scale=float(crng.uniform(0.25, 4.0, ())))
        merged = A.merge_weights(layer)
        x = crng.stream_of(2).normal((d,))
        direct = A.adapted_kernel(layer, x)
        scale = max(1.0, float(np.max(np.abs(direct))))
        worst = max(worst, float(np.max(np.abs(merged @ x - direct))) / scale)
    return OracleResult("merge_equivalence", "merge", worst < 1e-12, worst, 1e-12,
                        "100 random layers, merged forward vs layered forward")


def check_subspace_residual(seed: int, dims=(6, 9, 3), alpha: float = 1.3) -> OracleResult:
    """Over 50 random layers of ``dims``, ``(d, k, r)``."""
    rng = Rng(seed + 3)
    d, k, r = dims
    worst = 0.0
    for c in range(50):
        crng = rng.stream_of(c)
        layer = _random_layer(crng.stream_of(1), d, k, r)
        x = crng.stream_of(2).normal((d,))
        y = A.sample_lowrank(layer, Tensor(x), alpha, crng.stream_of(3)).data
        residual = y - layer.W0.data @ x
        q, _ = np.linalg.qr(layer.WB.data)
        ortho = residual - q @ (q.T @ residual)
        worst = max(worst, float(np.linalg.norm(ortho) /
                                 max(np.linalg.norm(residual), 1e-30)))
    return OracleResult("subspace_confinement", "subspace", worst < 1e-9, worst, 1e-9,
                        "sample residuals lie in the update column space")


def check_nullspace_variance(seed: int, dims=(6, 5, 2), alpha: float = 0.9,
                             streams=(0, 1, 10)) -> OracleResult:
    """One layer of ``dims``, ``(d, k, r)``, from substream ``streams[0]``, an
    input from ``streams[1]`` and 20 draws from ``streams[2]`` onwards. The
    latent variance must be exactly zero too."""
    rng = Rng(seed + 4)
    d, k, r = dims
    layer = _random_layer(rng.stream_of(streams[0]), d, k, r)
    # Zero the reduction-matrix columns touching the input's support, so the
    # latent variance vanishes identically for that input.
    wa = layer.WA.data.copy()
    wa[:, :3] = 0.0
    layer.WA = Tensor(wa, requires_grad=True)
    x = np.zeros(d)
    x[:3] = rng.stream_of(streams[1]).normal((3,))
    latent_var = A.analytic_predictive(layer, Tensor(x), alpha).d_vec.data
    det = A.adapted_kernel(layer, x)
    worst = 0.0
    for s in range(20):
        y = A.sample_lowrank(layer, Tensor(x), alpha, rng.stream_of(streams[2] + s)).data
        worst = max(worst, float(np.max(np.abs(y - det))))
    return OracleResult("nullspace_zero_variance", "subspace",
                        worst < 1e-12 and not np.any(latent_var), worst, 1e-12,
                        "inputs orthogonal to the reduction rows sample deterministically")


ORACLES = (
    ("kl_vs_quadrature", "kl", check_kl_quadrature),
    ("kl_w_independence", "kl", check_kl_w_independence),
    ("kl_minimum", "kl", check_kl_minimum),
    ("covariance_mc_match", "covariance", check_covariance_mc),
    ("sampler_equivalence", "covariance", check_sampler_equivalence),
    ("gradient_finite_difference", "gradient", check_gradient_fd),
    ("merge_equivalence", "merge", check_merge_equivalence),
    ("subspace_confinement", "subspace", check_subspace_residual),
    ("nullspace_zero_variance", "subspace", check_nullspace_variance),
)


def run_oracles(name_filter: str = "", seed: int = DEFAULT_SEED) -> list[OracleResult]:
    """Run every oracle whose name or family contains ``name_filter``."""
    results = []
    for name, family, oracle in ORACLES:
        if name_filter and name_filter not in name and name_filter not in family:
            continue
        results.append(oracle(seed))
    return results
