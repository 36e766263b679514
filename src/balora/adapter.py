"""Bayesian low-rank adapter layers.

A frozen base weight ``W0`` is adapted by a low-rank update
``lora_scale * WB @ WA``. The reduction matrix ``WA`` carries an
input-conditioned Gaussian posterior with per-entry variance
``alpha(x) * WA**2``, which makes the layer's output law an exactly
Gaussian distribution whose covariance factors through ``WB``. Sampling
happens in the rank-``r`` latent space, so the full output covariance is
never materialized.

The layer math exists once, in plain numpy (:func:`layer_terms`,
:func:`layer_output`, :func:`layer_vjp`), and so does the MLP pass over
it: :func:`walk` and its reverse :func:`walk_vjp` serve every forward of
``balora.model`` and the AlphaNet (:func:`alpha_scales`).
"""

from __future__ import annotations

from dataclasses import dataclass
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
    ``WB`` starts at zero. The sizes are those of ``W0`` and ``WA``.
    """

    W0: Tensor
    WA: Tensor
    WB: Tensor
    lora_scale: float = 1.0

    @property
    def d(self) -> int:
        return self.W0.shape[1]

    @property
    def k(self) -> int:
        return self.W0.shape[0]

    @property
    def rank(self) -> int:
        return self.WA.shape[0]

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
    return BaLoRALayer(W0=w0.detach(), WA=wa, WB=wb, lora_scale=float(lora_scale))


def layer_terms(layer: BaLoRALayer, x: np.ndarray, bias: Optional[np.ndarray] = None,
                noisy: bool = False, out: Optional[np.ndarray] = None,
                scratch: Optional[np.ndarray] = None):
    """The draw-independent terms of the layer at input rows ``x``, in plain
    numpy: the base output ``W0 x + b``, the latent mean ``WA x`` and, when
    ``noisy``, the latent variance per unit alpha ``(WA**2)(x**2)`` and the
    squares ``x**2`` and ``WA**2`` that :func:`layer_vjp` reads again (else
    None each). A Monte Carlo evaluator computes them once per input row.

    ``out`` receives the base output and ``scratch``, an array of ``x``'s
    shape that may be ``x`` itself, the squared input; without them both
    are allocated.
    """
    wa = layer.WA.data
    z = x @ wa.T
    base = np.matmul(x, layer.W0.data.T, out=out)
    if bias is not None:
        base += bias
    q = xx = wa2 = None
    if noisy:
        # Last, because ``scratch`` may be ``x``.
        xx, wa2 = np.multiply(x, x, out=scratch), wa * wa
        q = xx @ wa2.T
    return base, z, q, xx, wa2


def layer_output(layer: BaLoRALayer, base: np.ndarray, z: np.ndarray,
                 q: Optional[np.ndarray] = None, a=None, eps: Optional[np.ndarray] = None,
                 out: Optional[np.ndarray] = None):
    """Finish the layer from its :func:`layer_terms`:
    ``base + lora_scale * WB (z + sd * eps)`` with ``sd = sqrt(a * q)``.

    Returns the output, the noisy latent ``z`` and ``sd`` (None without
    ``eps``). ``a`` is a scalar or an ``(n, 1)`` column of noise scales.
    The output is written to ``out`` if given, which must not be ``base``.
    """
    sd = None
    if eps is not None:
        sd = np.sqrt(a * q)
        z = z + sd * eps
    out = np.matmul(z, layer.WB.data.T, out=out)
    out *= layer.lora_scale
    out += base
    return out, z, sd


def adapted_kernel(layer: BaLoRALayer, x: np.ndarray, bias: Optional[np.ndarray] = None,
                   a=None, eps: Optional[np.ndarray] = None) -> np.ndarray:
    """The adapted layer's output, in plain numpy and off the tape, with
    inputs unchecked: one input ``(d,)`` with noise ``(r,)`` or ``(n, r)`` and
    a scalar ``a``, or a batch ``(n, d)`` with noise ``(n, r)`` and ``a``
    scalar or ``(n, 1)``. Without ``eps``, the posterior mean."""
    base, z, q, _, _ = layer_terms(layer, x, bias, eps is not None)
    return layer_output(layer, base, z, q, a, eps)[0]


def layer_vjp(layer: BaLoRALayer, g: np.ndarray, x: np.ndarray, kept: tuple,
              need_x: bool = True):
    """The layer's cotangents ``(gx, gwa, gwb, ga)`` for output cotangent
    ``g``, in plain numpy, from its input ``x`` and what a taped :func:`walk`
    kept of it, ``kept = (z, q, sd, a, eps, xx, wa2)``: the latent and ``sd``
    that :func:`layer_output` returned, the ``q``, ``a`` and ``eps`` it used
    and the squares ``x**2`` and ``WA**2`` of ``q``, all None but ``z`` for
    the posterior mean. ``gx`` if ``need_x``, ``gwa``/``gwb`` if ``WA``/``WB``
    require grad, ``ga``, that of the ``(n,)`` alpha column, if noisy; None
    otherwise. Each chain runs in place with the rounding of ``gz * eps *
    (0.5 / sd)``, ``2 * wa * M`` and ``2 * x * N``, but carries ``1 / sd``
    and halves the alpha cotangent once instead of doubling ``M`` and ``N``:
    scaling by a power of two is exact, so the floats are the same (but for
    results in the subnormal range)."""
    z, q, sd, a, eps, xx, wa2 = kept
    w0, wa, wb, s = layer.W0.data, layer.WA.data, layer.WB.data, layer.lora_scale
    gu = g * s
    gz = gu @ wb
    gx = gwa = gwb = ga = None
    if layer.WB.requires_grad:
        gwb = gu.T @ z
    if eps is not None:
        if sd.all():
            inv = np.divide(1.0, sd)
        else:
            # Subgradient 0 where the latent variance is exactly zero keeps
            # zero-variance directions noise-free instead of Inf * 0.
            inv = np.divide(1.0, sd, out=np.zeros_like(sd), where=sd > 0.0)
        gq = gz * eps
        gq *= inv
        ga = np.multiply(gq, q, out=inv).sum(axis=-1)
        ga *= 0.5
        gq *= a
    if layer.WA.requires_grad:
        gwa = gz.T @ x
        if eps is not None:
            m = gq.T @ xx
            m *= wa
            gwa += m
    if need_x:
        gx = g @ w0
        gx += gz @ wa
        if eps is not None:
            m = gq @ wa2
            m *= x
            gx += m
    return gx, gwa, gwb, ga


def walk(plan: list[tuple], h: Optional[np.ndarray], terms=None, alphas=None,
         eps: Optional[list] = None, bufs=None, out: Optional[np.ndarray] = None,
         tape: Optional[list] = None):
    """Rows ``h`` through the layers of ``plan``, in plain numpy; ``h`` is
    never written. Each plan entry is a layer's weight, bias, adapter (or
    None), that adapter's AlphaNet column and whether a GELU follows: the
    adapted network (``balora.model.AdaptedModel._plan``) and the AlphaNet
    (:func:`alpha_scales`) are both walks.
    ``terms``, the first layer's ``(base, z, q)`` of :func:`layer_terms`,
    replace ``h`` (then None).
    Adapted layers draw with ``eps`` (one array per AlphaNet column) at the
    scales in ``alphas``, else give the posterior mean. With ``bufs``, two
    flat arrays, the layer input lives in the first and the base term (but
    that of ``terms``) or GELU gate in the second; without, each op allocates.
    The output goes to ``out`` if given. A ``tape`` list (no ``bufs`` nor
    ``terms``) gets per layer its input, what its adapter's :func:`layer_vjp`
    reads and its GELU's input and gate (else None; the gate then applies out
    of place)."""
    cur, spare = bufs if bufs is not None else (None, None)
    n = len(h if terms is None else terms[0])

    def view(buf, width):
        return None if buf is None else buf[:n * width].reshape(n, width)

    for j, (weight, bias, layer, col, gelu) in enumerate(plan):
        k = weight.shape[0]
        dest = out if j == len(plan) - 1 else None
        x, drawn, act = h, None, None
        if layer is None:
            cur, spare = spare, cur  # h moves to the buffer it is not in
            h = np.matmul(h, weight.T, out=view(cur, k) if dest is None else dest)
            h += bias
        else:
            if j == 0 and terms is not None:
                (base, z, q), squares = terms, (None, None)
            else:
                base, z, q, *squares = layer_terms(layer, h, bias, eps is not None,
                                                   view(spare, k), view(cur, h.shape[1]))
            a, e = (None, None) if eps is None else (alphas[:, col:col + 1], eps[col])
            h, z, sd = layer_output(layer, base, z, q, a, e,
                                    out=view(cur, k) if dest is None else dest)
            drawn = (z, q, sd, a, e, *squares)
        if gelu and tape is not None:
            act = (h, T.gelu_gate(h))
            h = h * act[1]
        elif gelu:
            h *= T.gelu_gate(h, out=view(spare, k))
        if tape is not None:
            tape.append((x, drawn, act))
    return h


def walk_vjp(plan: list[tuple], tape: list, g: np.ndarray, params: list[tuple],
             alphas: Optional[np.ndarray] = None) -> tuple:
    """From output cotangent ``g``, those of ``params`` (per layer of a taped
    :func:`walk`: its weight, or an adapter's WA and WB, then its bias),
    flat (None where no grad is required), then of the noise scales
    ``alphas`` if given, one column per adapted layer. One reverse walk,
    back to the first layer with something to train."""
    first = next((j for j, ps in enumerate(params) if any(p.requires_grad for p in ps)
                  or alphas is not None and plan[j][2] is not None), len(plan))
    grads = [(None,) * len(ps) for ps in params]
    galpha = None if alphas is None else np.zeros(alphas.shape)
    for j in range(len(plan) - 1, first - 1, -1):
        (weight, _, layer, col, _), (x, drawn, act) = plan[j], tape[j]
        if act is not None:
            dg = T.gelu_grad(*act)
            dg *= g
            g = dg
        gb = g.sum(axis=0) if params[j][-1].requires_grad else None
        if layer is None:
            grads[j] = (g.T @ x if params[j][0].requires_grad else None, gb)
            g = g @ weight if j > first else None
            continue
        g, gwa, gwb, ga = layer_vjp(layer, g, x, drawn, need_x=j > first)
        grads[j] = (gwa, gwb, gb)
        if ga is not None:
            galpha[:, col] = ga
    flat = tuple(gr for gs in grads for gr in gs)
    return flat if alphas is None else (*flat, galpha)


def draw_count(n, least: int, name: str) -> int:
    """``n``, the number of draws called ``name``, as an ``int`` (a narrow numpy
    integer would overflow in row counts) if it is an integer, not a bool,
    of at least ``least``; anything else raises :class:`DomainError`."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < least:
        raise DomainError(f"{name}, the number of draws, must be an integer >= {least}, "
                          f"got {n!r}")
    return int(n)


def _noise_scale(alpha) -> float:
    """``alpha`` as a float if it is finite and positive, else :class:`DomainError`."""
    if not 0.0 < float(alpha) < np.inf:
        raise DomainError(f"alpha must be finite and positive, got {alpha}")
    return float(alpha)


def _one_input(layer: BaLoRALayer, x: Tensor) -> np.ndarray:
    """The array of ``x`` if it is a :class:`Tensor` of shape ``(d,)``, one input of
    ``layer``; anything else raises :class:`ShapeError`. The samplers' input rule."""
    if not isinstance(x, Tensor) or x.shape != (layer.d,):
        raise ShapeError(f"expected a Tensor of shape ({layer.d},), got "
                         f"{x.shape if isinstance(x, Tensor) else type(x).__name__}")
    return x.data


def analytic_predictive(layer: BaLoRALayer, x: Tensor, alpha: float) -> PredictiveGaussian:
    """Exact Gaussian output law at one input ``x`` (:func:`_one_input`): mean
    plus low-rank covariance factor. ``alpha`` must be finite and positive."""
    xd = _one_input(layer, x)
    alpha = _noise_scale(alpha)
    base, z, q, _, _ = layer_terms(layer, xd, noisy=True)
    mean = layer_output(layer, base, z)[0]
    # d_vec[i] = alpha * scale^2 * sum_j WA[i,j]^2 x[j]^2
    s2 = layer.lora_scale * layer.lora_scale
    return PredictiveGaussian(mean=Tensor(mean), d_vec=Tensor(alpha * s2 * q),
                              wb=layer.WB.detach())


def sample_lowrank(layer: BaLoRALayer, x: Tensor, alpha: float, rng: Rng,
                   n: Optional[int] = None) -> Tensor:
    """Exact draw(s) from the layer's predictive Gaussian at one input ``x``
    (:func:`_one_input`), O(k r) per sample and off the tape.

    Noise is drawn in the rank-``r`` latent space and lifted through ``WB``;
    the k-by-k covariance never exists. ``alpha`` is finite and positive.
    With ``n=None`` one ``(k,)`` draw is returned, else an ``(n, k)`` batch
    for ``n`` an integer >= 0 (:func:`draw_count`), from one
    :func:`adapted_kernel` call; bad arguments raise before any draw. Training
    differentiates through the same math batched, in :func:`layer_vjp`.
    """
    xd = _one_input(layer, x)
    alpha = _noise_scale(alpha)
    eps = rng.normal((layer.rank,) if n is None else (draw_count(n, 0, "n"), layer.rank))
    return Tensor._from_op(adapted_kernel(layer, xd, None, alpha, eps), (), None,
                           "sample_lowrank")


def sample_full_cov_oracle(layer: BaLoRALayer, x: Tensor, alpha: float, rng: Rng,
                           n: Optional[int] = None):
    """Reference sampler that materializes and factorizes the full covariance.

    Kept as a test/benchmark oracle: O(k^2) memory and at least O(k^2) time
    per draw, versus O(k r) for :func:`sample_lowrank`, whose arguments it
    takes. The rank-deficient PSD matrix needs a ridge before Cholesky; the
    ridge escalates from 1e-10 to at most 1e-6 before giving up.
    """
    if layer.k > _ORACLE_MAX_DIM:
        raise DomainError(
            f"oracle sampler refuses k={layer.k} > {_ORACLE_MAX_DIM} (dense covariance)")
    shape = (layer.k,) if n is None else (draw_count(n, 0, "n"), layer.k)
    law = analytic_predictive(layer, x, alpha)
    mean, cov = law.mean.data, law.covariance()
    ridge = _ORACLE_RIDGE
    while True:
        try:
            chol = np.linalg.cholesky(cov + ridge * np.eye(layer.k))
            break
        except np.linalg.LinAlgError:
            ridge *= 10.0
            if ridge > _ORACLE_RIDGE_CAP:
                raise FactorizationError(
                    f"covariance factorization failed at ridge {ridge:.1e}") from None
    z = rng.normal(shape)
    return Tensor(mean + (chol @ z if n is None else z @ chol.T))


def merge_weights(layer: BaLoRALayer) -> np.ndarray:
    """Collapsed weights ``W0 + lora_scale * WB WA``; pure function of the layer."""
    return layer.W0.data + layer.lora_scale * (layer.WB.data @ layer.WA.data)


@dataclass
class AlphaNet:
    """Small MLP mapping a feature vector to one positive noise scale per layer.

    The output passes through softplus and is clamped to
    ``[alpha_min, alpha_max]``: the KL term diverges at 0 and infinity, so
    the clamp both keeps training finite and pins the normalization
    constant used by the KL regularizer.
    """

    weights: list
    biases: list
    alpha_min: float
    alpha_max: float

    @property
    def feature_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def num_layers(self) -> int:
        return self.weights[-1].shape[0]

    def trainables(self) -> list[Tensor]:
        return list(self.weights) + list(self.biases)


def _inverse_softplus(a: float) -> float:
    """``log(expm1(a))``, whose ``expm1`` overflows for ``a`` above about
    709; from 20 on it is computed as the equal ``a + log(-expm1(-a))``."""
    if a < 20.0:
        return float(np.log(np.expm1(a)))
    return float(a + np.log(-np.expm1(-a)))


def init_alphanet(rng: Rng, feature_dim: int, num_layers: int, hidden_dims,
                  alpha_min: float = ALPHA_MIN, alpha_max: float = ALPHA_MAX,
                  init_alpha: float = 0.05) -> AlphaNet:
    """AlphaNet with 1/sqrt(fan_in) weight init and output bias set so the
    initial noise scale is ``init_alpha`` (small noise eases early training),
    which must lie in the clamp ``[alpha_min, alpha_max]``."""
    if feature_dim < 1 or num_layers < 1:
        raise DomainError("feature_dim and num_layers must be positive")
    if not alpha_min <= init_alpha <= alpha_max:
        raise DomainError(f"init_alpha {init_alpha} outside [alpha_min, alpha_max] = "
                          f"[{alpha_min}, {alpha_max}]")
    dims = [int(feature_dim), *(int(h) for h in hidden_dims), int(num_layers)]
    out_bias = _inverse_softplus(float(init_alpha))
    weights, biases = [], []
    for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        w = rng.normal((fan_out, fan_in)) / np.sqrt(fan_in)
        b = np.full(fan_out, out_bias) if i == len(dims) - 2 else np.zeros(fan_out)
        weights.append(Tensor(w, requires_grad=True))
        biases.append(Tensor(b, requires_grad=True))
    return AlphaNet(weights, biases, float(alpha_min), float(alpha_max))


def alpha_scales(net: AlphaNet, feat: np.ndarray):
    """Per-layer positive noise scales ``(n, L)`` for a batch of feature rows
    ``(n, feature_dim)``, in plain numpy: a :func:`walk` to the logits ``z``
    that keeps its tape, then the clamped stable softplus
    ``log1p(exp(-|z|)) + max(z, 0)``.

    Returns the scales, the AlphaNet's parameters (per layer its weight and
    bias, flat) and their VJP: from the scales' cotangent, the head's, then
    :func:`walk_vjp`. The logits are checked first: the clamp would turn an
    infinite one into ``alpha_max``."""
    if feat.ndim != 2 or feat.shape[1] != net.feature_dim:
        raise ShapeError(f"alpha features must be a batch (n, {net.feature_dim}), "
                         f"got {feat.shape}")
    params = list(zip(net.weights, net.biases))
    plan = [(w.data, b.data, None, None, i < len(params) - 1) for i, (w, b) in enumerate(params)]
    tape: list = []
    z = walk(plan, feat, tape=tape)
    T.check_finite(z, "the AlphaNet")
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    soft = np.log1p(e)
    soft += np.maximum(z, 0.0)

    def vjp(g):
        # The softplus' slope, 1 / (1 + e) where z >= 0 and e / (1 + e) below,
        # times g inside the clamp and 0 outside it.
        sig = np.where(z >= 0.0, 1.0, e)
        sig /= e + 1.0
        inside = soft > net.alpha_min
        inside &= soft < net.alpha_max
        gz = np.where(inside, g, 0.0)
        gz *= sig
        return walk_vjp(plan, tape, gz, params)

    alphas = np.maximum(soft, net.alpha_min)
    np.minimum(alphas, net.alpha_max, out=alphas)
    return alphas, [p for ps in params for p in ps], vjp


def alpha_forward(net: AlphaNet, feat: Tensor) -> Tensor:
    """:func:`alpha_scales` of the feature rows ``feat``, which enter as
    constants, as one tape node whose parents are the AlphaNet's weights
    and biases."""
    alphas, params, vjp = alpha_scales(net, feat.data)
    return Tensor._from_op(alphas, params, vjp, "the AlphaNet")
