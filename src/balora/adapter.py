"""Bayesian low-rank adapter layers.

A frozen base weight ``W0`` is adapted by a low-rank update
``lora_scale * WB @ WA``. The reduction matrix ``WA`` carries an
input-conditioned Gaussian posterior with per-entry variance
``alpha(x) * WA**2``, which makes the layer's output law an exactly
Gaussian distribution whose covariance factors through ``WB``. Sampling
happens in the rank-``r`` latent space, so the full output covariance is
never materialized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import tensor as T
from .rng import Rng
from .tensor import DomainError, ShapeError, Tensor, TensorError

ALPHA_MIN = 1e-6
ALPHA_MAX = 1e3

_ORACLE_MAX_DIM = 2048
_ORACLE_RIDGE = 1e-10
_ORACLE_RIDGE_CAP = 1e-6


class FactorizationError(TensorError):
    """Covariance factorization failed even after ridge escalation."""


@dataclass
class BaLoRALayer:
    """Frozen base weights plus trainable low-rank factors.

    ``W0`` never participates in the tape; only ``WA`` and ``WB`` train.
    Right after :func:`init_layer` the update is exactly zero because
    ``WB`` starts at zero.
    """

    W0: Tensor
    WA: Tensor
    WB: Tensor
    rank: int
    lora_scale: float = 1.0

    @property
    def d(self) -> int:
        return self.W0.shape[1]

    @property
    def k(self) -> int:
        return self.W0.shape[0]

    def trainables(self) -> list[Tensor]:
        return [self.WA, self.WB]


@dataclass
class PredictiveGaussian:
    """Analytic output law of one adapted layer for a fixed input.

    ``d_vec`` is the latent variance vector with the squared update scale
    folded in, so the implied covariance is ``WB @ diag(d_vec) @ WB.T``:
    symmetric PSD with rank at most ``r``.
    """

    mean: Tensor
    d_vec: Tensor
    wb: Tensor

    def covariance(self) -> np.ndarray:
        """Materialize the dense covariance (test/oracle use only)."""
        wb = self.wb.data
        return (wb * self.d_vec.data) @ wb.T


def init_layer(rng: Rng, d: int, k: int, r: int, init_std: float,
               w0: Optional[Tensor] = None, lora_scale: float = 1.0) -> BaLoRALayer:
    """Fresh adapter: ``WA ~ N(0, init_std**2)``, ``WB = 0``, ``W0`` frozen.

    ``w0`` defaults to a random frozen matrix with 1/sqrt(d) column scaling.
    """
    if r > min(d, k):
        raise DomainError(f"rank {r} exceeds min(d, k) = {min(d, k)}")
    if r < 1:
        raise DomainError("rank must be positive")
    if init_std <= 0:
        raise DomainError("init_std must be positive")
    if w0 is None:
        w0 = Tensor(rng.normal((k, d)) / np.sqrt(d))
    elif w0.shape != (k, d):
        raise ShapeError(f"W0 shape {w0.shape} does not match (k, d) = ({k}, {d})")
    wa = Tensor(init_std * rng.normal((r, d)), requires_grad=True)
    wb = Tensor(np.zeros((k, r)), requires_grad=True)
    return BaLoRALayer(W0=w0.detach(), WA=wa, WB=wb, rank=r, lora_scale=float(lora_scale))


def adapted_linear(layer: BaLoRALayer, x: Tensor, bias: Optional[Tensor] = None,
                   alphas: Optional[Tensor] = None, col: int = 0,
                   eps: Optional[np.ndarray] = None) -> Tensor:
    """The adapted layer as one tape node.

    Computes ``W0 x + b + lora_scale * WB (WA x + sqrt(alpha * (WA**2)(x**2)) * eps)``
    for a vector ``x`` of shape ``(d,)`` or a batch ``(n, d)``. With
    ``eps=None`` the noise term is absent and the result is the
    deterministic (posterior-mean) forward. In stochastic mode ``eps`` holds
    one standard-normal row per draw, ``(r,)`` or ``(n, r)``; a batch input
    needs one row per input, while a vector input is shared by every draw.
    ``alpha`` is column ``col`` of ``alphas``, which has shape ``()``,
    ``(L,)`` (one scale for every row) or ``(n, L)`` (one per row); its
    cotangent is scattered back into that column. ``eps`` is a constant, so
    gradients flow through the noise scale, ``WA`` and ``WB``, and reach only
    the parents that require grad.
    """
    xd = x.data
    if x.ndim not in (1, 2) or xd.shape[-1] != layer.d:
        raise ShapeError(f"adapter expects input (d,) or (n, d) with d={layer.d}, "
                         f"got {x.shape}")
    if bias is not None and bias.shape != (layer.k,):
        raise ShapeError(f"bias {bias.shape} does not fit output width {layer.k}")
    stochastic = eps is not None
    if stochastic != (alphas is not None):
        raise DomainError("stochastic mode needs both alphas and eps")
    w0, wa, wb, s = layer.W0.data, layer.WA.data, layer.WB.data, layer.lora_scale
    z = xd @ wa.T
    if stochastic:
        eps = np.asarray(eps, dtype=np.float64)
        if eps.ndim not in (1, 2) or eps.shape[-1] != layer.rank or \
                (x.ndim == 2 and eps.shape != z.shape):
            raise ShapeError(f"eps of shape {eps.shape} for input {x.shape} at rank "
                             f"{layer.rank}")
        a = alphas.data if alphas.ndim == 0 else alphas.data[..., col]
        if a.ndim and (eps.ndim != 2 or a.shape != eps.shape[:1]):
            raise ShapeError(f"alphas {alphas.shape} do not fit eps {eps.shape}")
        if (a < 0.0).any():
            raise DomainError("alpha must be non-negative")
        if a.ndim:
            a = a[:, None]
        x2, wa2 = xd * xd, wa * wa
        q = x2 @ wa2.T
        sd = np.sqrt(a * q)
        z = z + sd * eps
    base = xd @ w0.T
    if bias is not None:
        base += bias.data
    out = z @ wb.T
    out *= s
    out += base

    def to_input_rows(t):
        # A vector input shared by a batch of draws sums its cotangents over draws.
        return t.sum(axis=0) if t.ndim > xd.ndim else t

    def outer(g, v):
        return g.T @ v if v.ndim == 2 else np.outer(g, v)

    def vjp(g):
        gu = g * s
        gz = gu @ wb
        gx = gw0 = gwa = gwb = gb = galpha = None
        g_in = to_input_rows(g)
        if layer.W0.requires_grad:
            gw0 = outer(g_in, xd)
        if bias is not None and bias.requires_grad:
            gb = g_in if g_in.ndim == 1 else g_in.sum(axis=0)
        if layer.WB.requires_grad:
            gwb = outer(gu, z)
        gz_in = to_input_rows(gz)
        if stochastic:
            # Subgradient 0 where the latent variance is exactly zero keeps
            # zero-variance directions noise-free instead of Inf * 0.
            inv = np.divide(0.5, sd, out=np.zeros_like(sd), where=sd > 0.0)
            gv = gz * eps * inv
            if alphas.requires_grad:
                per = gv * q
                ga = per.sum() if a.ndim == 0 else per.sum(axis=-1)
                galpha = np.asarray(ga) if alphas.ndim == 0 else np.zeros(alphas.shape)
                if alphas.ndim:
                    galpha[..., col] = ga
            gq = to_input_rows(gv * a)
        if layer.WA.requires_grad:
            gwa = outer(gz_in, xd)
            if stochastic:
                gwa += 2.0 * wa * outer(gq, x2)
        if x.requires_grad:
            gx = g_in @ w0 + gz_in @ wa
            if stochastic:
                gx += 2.0 * xd * (gq @ wa2)
        grads = (gx, gw0, gwa, gwb, gb, galpha)
        return tuple(gr for p, gr in zip(slots, grads) if p is not None)

    slots = (x, layer.W0, layer.WA, layer.WB, bias, alphas)
    parents = tuple(p for p in slots if p is not None)
    return Tensor._from_op(out, parents, vjp, "adapted_linear")


def _latent_variance(layer: BaLoRALayer, x: np.ndarray, alpha: float) -> np.ndarray:
    # d_vec[i] = alpha * scale^2 * sum_j WA[i,j]^2 x[j]^2
    s2 = layer.lora_scale * layer.lora_scale
    return alpha * s2 * ((layer.WA.data ** 2) @ (x ** 2))


def analytic_predictive(layer: BaLoRALayer, x: Tensor, alpha: float) -> PredictiveGaussian:
    """Exact Gaussian output law: mean plus low-rank covariance factor."""
    if alpha <= 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    xd = np.asarray(x.data if isinstance(x, Tensor) else x, dtype=np.float64)
    if xd.shape != (layer.d,):
        raise ShapeError(f"expected input of shape ({layer.d},), got {xd.shape}")
    with T.no_grad():
        mean = adapted_linear(layer, Tensor(xd))
    d_vec = _latent_variance(layer, xd, float(alpha))
    return PredictiveGaussian(mean=mean.detach(), d_vec=Tensor(d_vec), wb=layer.WB.detach())


def sample_lowrank(layer: BaLoRALayer, x: Tensor, alpha, rng: Rng,
                   n: Optional[int] = None):
    """Exact draw(s) from the layer's predictive Gaussian, O(k r) per sample.

    Noise is drawn in the rank-``r`` latent space and lifted through ``WB``;
    the k-by-k covariance never exists. With ``n=None`` a single taped
    sample is returned so gradients flow through ``WA``, ``WB``, and
    ``alpha`` by reparametrization (the normal draw is a constant). With
    integer ``n`` an untaped ``(n, k)`` batch is returned for evaluation.
    """
    alpha_t = alpha if isinstance(alpha, Tensor) else Tensor(float(alpha))
    if float(np.min(alpha_t.data)) <= 0:
        raise DomainError("alpha must be positive")
    if n is None:
        return adapted_linear(layer, x, alphas=alpha_t, eps=rng.normal((layer.rank,)))
    with T.no_grad():
        return adapted_linear(layer, x, alphas=alpha_t, eps=rng.normal((int(n), layer.rank)))


def sample_full_cov_oracle(layer: BaLoRALayer, x: Tensor, alpha: float, rng: Rng,
                           n: Optional[int] = None):
    """Reference sampler that materializes and factorizes the full covariance.

    Kept as a test/benchmark oracle: O(k^2) memory and at least O(k^2) time
    per draw, versus O(k r) for :func:`sample_lowrank`. The rank-deficient
    PSD matrix needs a ridge before Cholesky; the ridge escalates from
    1e-10 to at most 1e-6 before giving up.
    """
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    if layer.k > _ORACLE_MAX_DIM:
        raise DomainError(
            f"oracle sampler refuses k={layer.k} > {_ORACLE_MAX_DIM} (dense covariance)")
    with T.no_grad():
        mean = adapted_linear(layer, x).data
    d_vec = _latent_variance(layer, x.data, float(alpha))
    wb = layer.WB.data
    cov = (wb * d_vec) @ wb.T
    ridge = _ORACLE_RIDGE
    chol = None
    while True:
        try:
            chol = np.linalg.cholesky(cov + ridge * np.eye(layer.k))
            break
        except np.linalg.LinAlgError:
            ridge *= 10.0
            if ridge > _ORACLE_RIDGE_CAP:
                raise FactorizationError(
                    f"covariance factorization failed at ridge {ridge:.1e}") from None
    if n is None:
        z = rng.normal((layer.k,))
        return Tensor(mean + chol @ z)
    z = rng.normal((int(n), layer.k))
    return Tensor(mean + z @ chol.T)


def merge_weights(layer: BaLoRALayer) -> Tensor:
    """Collapsed weights ``W0 + lora_scale * WB WA``; pure function of the layer."""
    with T.no_grad():
        merged = layer.W0.data + layer.lora_scale * (layer.WB.data @ layer.WA.data)
    return Tensor(merged)


@dataclass
class AlphaNet:
    """Small MLP mapping a feature vector to one positive noise scale per layer.

    The output passes through softplus and is clamped to
    ``[alpha_min, alpha_max]``: the KL term diverges at 0 and infinity, so
    the clamp both keeps training finite and pins the normalization
    constant used by the KL regularizer.
    """

    feature_dim: int
    num_layers: int
    hidden_dims: tuple = (256, 256)
    alpha_min: float = ALPHA_MIN
    alpha_max: float = ALPHA_MAX
    weights: list = field(default_factory=list)
    biases: list = field(default_factory=list)

    def trainables(self) -> list[Tensor]:
        return list(self.weights) + list(self.biases)


def init_alphanet(rng: Rng, feature_dim: int, num_layers: int,
                  hidden_dims=(256, 256), alpha_min: float = ALPHA_MIN,
                  alpha_max: float = ALPHA_MAX, init_alpha: float = 0.05) -> AlphaNet:
    """AlphaNet with 1/sqrt(fan_in) weight init and output bias set so the
    initial noise scale is ``init_alpha`` (small noise eases early training)."""
    if feature_dim < 1 or num_layers < 1:
        raise DomainError("feature_dim and num_layers must be positive")
    net = AlphaNet(feature_dim=int(feature_dim), num_layers=int(num_layers),
                   hidden_dims=tuple(int(h) for h in hidden_dims),
                   alpha_min=float(alpha_min), alpha_max=float(alpha_max))
    dims = [net.feature_dim, *net.hidden_dims, net.num_layers]
    out_bias = float(np.log(np.expm1(np.clip(init_alpha, 1e-6, None))))
    for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        w = rng.normal((fan_out, fan_in)) / np.sqrt(fan_in)
        b = np.full(fan_out, out_bias) if i == len(dims) - 2 else np.zeros(fan_out)
        net.weights.append(Tensor(w, requires_grad=True))
        net.biases.append(Tensor(b, requires_grad=True))
    return net


def alpha_forward(net: AlphaNet, feat: Tensor) -> Tensor:
    """Per-layer positive noise scales for one feature vector or a batch."""
    if feat.ndim not in (1, 2):
        raise ShapeError(f"alpha features must be a vector or batch, got {feat.shape}")
    if feat.shape[-1] != net.feature_dim:
        raise ShapeError(
            f"alpha features have dim {feat.shape[-1]}, expected {net.feature_dim}")
    h = feat
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = T.linear(h, w, b)
        if i != last:
            h = T.gelu(h)
    return T.clip(T.softplus(h), net.alpha_min, net.alpha_max)
