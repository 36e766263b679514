"""Training objective: closed-form KL, normalized KL, single-sample ELBO,
and the AdamW optimizer with linear warmup/decay and global-norm clipping.

The per-entry KL is the Gaussian divergence between the posterior
``N(W, alpha * W**2)`` and the scaled dropout prior
``N(0, (p / (1 - p)) * W**2)``. The ``W**2`` factor cancels in every term,
so the divergence depends only on ``alpha`` and ``p``:

    KL(alpha, p) = 0.5 * ((alpha + 1) * (1 - p) / p - 1
                          + log(p / (1 - p)) - log(alpha))

It is convex in ``alpha`` with minimum ``(1 - p) / (2 * p)`` at
``alpha* = p / (1 - p)`` and diverges at both 0 and infinity, which is why
noise scales are clamped to ``[alpha_min, alpha_max]`` and the normalized
KL divides by the clamp-endpoint maximum.

Each term of the objective is written once, as a plain-numpy function
that returns its value and its VJP, which gives one cotangent per array
input. :func:`elbo_step` composes them into one tape node per step, for
every model kind; :func:`kl_normalized` wraps the KL as a node of its own.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import adapter as A
from . import tensor as T
from .adapter import ALPHA_MAX, ALPHA_MIN
from .model import AdaptedModel
from .rng import Rng
from .tensor import DomainError, NonFiniteError, ShapeError, Tensor

_LOG_2PI = math.log(2.0 * math.pi)


def _mean(a):
    """``np.mean(a)`` of an array or a float, with numpy's own arithmetic,
    without its wrapper."""
    return np.add.reduce(a, axis=None) / np.size(a)


class TrainingDivergence(RuntimeError):
    """Training step produced a non-finite loss; carries diagnostics."""

    def __init__(self, message: str, diagnostics: Optional[dict] = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


@dataclass
class PriorConfig:
    """Dropout prior probability; the prior variance scale is p / (1 - p)."""

    p: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise DomainError(f"prior probability (prior_p) must lie strictly in (0, 1), "
                              f"got {self.p}")


@dataclass
class TrainConfig:
    lr: float = 1e-2
    epochs: int = 10
    batch_size: int = 32
    kl_weight: float = 1.0
    warmup_fraction: float = 0.0
    weight_decay: float = 0.0
    grad_clip_norm: float = 1.0
    nll: str = "gaussian"  # regression: "gaussian" or "l1"; classification uses CE

    def __post_init__(self):
        if self.lr <= 0 or self.epochs <= 0 or self.batch_size <= 0:
            raise DomainError("lr, epochs, and batch_size must be positive")
        if not 0.0 <= self.warmup_fraction <= 1.0:
            raise DomainError("warmup_fraction must lie in [0, 1]")
        if self.kl_weight < 0 or self.weight_decay < 0:
            raise DomainError("kl_weight and weight_decay must be non-negative")
        if self.grad_clip_norm <= 0:
            raise DomainError("grad_clip_norm must be positive")
        if self.nll not in ("gaussian", "l1"):
            raise DomainError(f"unknown nll kind: {self.nll}")


# -- closed-form KL ---------------------------------------------------------


def kl_per_entry(alpha, p: float, alpha_min: float = ALPHA_MIN,
                 alpha_max: float = ALPHA_MAX):
    """Per-entry KL between posterior and dropout prior (W-independent),
    elementwise over a scalar or array ``alpha``."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"p must lie strictly in (0, 1), got {p}")
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.size:
        # NaN fails the check: min and max propagate it.
        lo, hi = alpha.min(), alpha.max()
        if not (alpha_min <= lo and hi <= alpha_max):
            raise DomainError(f"alpha outside clamp range [{alpha_min}, {alpha_max}]: "
                              f"min {lo}, max {hi}")
    c = (1.0 - p) / p
    kl = 0.5 * ((alpha + 1.0) * c - 1.0 - math.log(c) - np.log(alpha))
    return float(kl) if kl.ndim == 0 else kl


def alpha_star(p: float) -> float:
    """Minimizer of the per-entry KL."""
    return p / (1.0 - p)


@functools.lru_cache
def kl_max(p: float, alpha_min: float = ALPHA_MIN, alpha_max: float = ALPHA_MAX) -> float:
    """Largest attainable per-entry KL on the clamp interval.

    The KL is convex with an interior minimum, so the maximum sits at one
    of the clamp endpoints. It is a per-run constant that every training
    step divides by, so it is memoized; a bad ``p`` or clamp raises on
    every call, because exceptions are not cached.
    """
    return max(kl_per_entry(alpha_min, p, alpha_min, alpha_max),
               kl_per_entry(alpha_max, p, alpha_min, alpha_max))


def _kl(a: np.ndarray, p: float, alpha_min: float, alpha_max: float):
    """:func:`kl_normalized` of the array ``a`` and its VJP."""
    if a.size == 0:
        raise DomainError("kl_normalized needs at least one layer")
    scale = 1.0 / kl_max(p, alpha_min, alpha_max)
    kl = kl_per_entry(a, p, alpha_min, alpha_max)
    c = (1.0 - p) / p

    def vjp(g):
        return ((0.5 * scale / a.size) * (c - 1.0 / a) * g,)

    return np.asarray(_mean(kl) * scale), vjp


def kl_normalized(alphas, p: float, alpha_min: float = ALPHA_MIN,
                  alpha_max: float = ALPHA_MAX) -> Tensor:
    """Mean per-entry KL divided by the clamp-endpoint maximum, as one tape node.

    ``alphas`` holds one noise scale per layer, ``(L,)``, or per batch row
    and layer, ``(n, L)``; an array is taken as a constant. Every entry of
    one layer shares the same alpha, so the per-parameter average over the
    layer's r*d entries equals the per-entry value.
    """
    if not isinstance(alphas, Tensor):
        alphas = Tensor(alphas)
    value, vjp = _kl(alphas.data, p, alpha_min, alpha_max)
    return Tensor._from_op(value, (alphas,), vjp, "kl_normalized")


# -- likelihoods -------------------------------------------------------------


def _gaussian_nll(pred: np.ndarray, target, log_sigma: np.ndarray):
    """Mean Gaussian negative log-likelihood with homoscedastic learned noise
    and its VJP, for ``pred`` and ``log_sigma``."""
    resid = np.asarray(target, dtype=np.float64).reshape(pred.shape) - pred
    with np.errstate(over="ignore", invalid="ignore"):
        inv_var = np.exp(log_sigma * -2.0)
        scaled = resid * resid
        scaled *= inv_var
        out = _mean(scaled + (log_sigma * 2.0 + _LOG_2PI)) * 0.5

    def vjp(g):
        gpred = resid * (-g / resid.size)
        gpred *= inv_var
        return gpred, np.asarray(g * _mean(1.0 - scaled))

    return np.asarray(out), vjp


def _l1(pred: np.ndarray, target):
    """Mean absolute error and its VJP."""
    resid = np.asarray(target, dtype=np.float64).reshape(pred.shape) - pred

    def vjp(g):
        return ((-g / resid.size) * np.sign(resid),)

    return np.asarray(np.abs(resid).mean()), vjp


def _cross_entropy(logits: np.ndarray, labels):
    """Mean negative log-softmax of the labelled class and its VJP."""
    labels = np.asarray(labels)
    n, c = logits.shape
    if labels.shape != (n,):
        raise DomainError(f"labels of shape {labels.shape} for logits {logits.shape}")
    if labels.min() < 0 or labels.max() >= c:
        raise DomainError("label index out of range")
    rows, labels = np.arange(n), labels.astype(int)
    shifted = logits - logits.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    total = expd.sum(axis=1)
    picked = shifted[rows, labels] - np.log(total)

    def vjp(g):
        grad = expd / total[:, None]
        grad[rows, labels] -= 1.0
        return (grad * (g / n),)

    return np.asarray(picked.sum() * (-1.0 / n)), vjp


# -- ELBO step -----------------------------------------------------------------


def elbo_step(model: AdaptedModel, batch, prior: PriorConfig, cfg: TrainConfig,
              rng: Rng):
    """One single-sample ELBO evaluation: NLL of a stochastic forward plus
    the KL-weighted normalized divergence (averaged over the batch when the
    noise scale varies per sample).

    ``batch`` is ``(X, y)`` with one row of ``y`` per row of ``X`` (a 1-D
    ``X`` is one row); an empty batch raises :class:`DomainError` and a
    ``y`` with another row count :class:`ShapeError`, before any work.
    Returns the loss, one tape node, and a metrics dict; the KL is always
    logged but enters the loss only when ``kl_weight > 0``. The forward is
    plain numpy and one path for every kind: a frozen backbone's prefix off
    the tape, the AlphaNet (:func:`~balora.adapter.alpha_scales`) and noise
    for balora only, :meth:`~balora.model.AdaptedModel.network`, the NLL
    and the KL. The node's parents are the tensors the step reads, in
    cotangent order: ``log_sigma`` under the Gaussian NLL, the network's,
    the AlphaNet's; ``backward`` skips those that do not require grad. Its
    VJP runs the NLL's, the network's, then the AlphaNet's from the noise
    scales' cotangent, the KL's plus the network's.
    """
    X, y = batch
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if X.shape[0] == 0:
        raise DomainError("empty batch")
    if len(y) != X.shape[0]:
        raise ShapeError(f"y has {len(y)} rows, X has {X.shape[0]}")
    try:
        prefix = model.frozen_prefix(X) if model.backbone.frozen else None
        alphas, eps, alpha_params = None, None, []
        if model.kind == "balora":
            alphas, alpha_params, alpha_vjp = A.alpha_scales(
                model.alphanet, model.alpha_features(X, prefix))
            eps = model.draw_eps(X.shape[0], rng)
        pred, net_params, net_vjp = model.network(X, alphas, eps, prefix)
        T.check_finite(pred, "the taped forward")
        sigma = []
        if model.head == "classification":
            nll, nll_vjp = _cross_entropy(pred, y)
        elif cfg.nll == "l1":
            nll, nll_vjp = _l1(pred, y)
        else:
            sigma = [model.log_sigma]
            nll, nll_vjp = _gaussian_nll(pred, y, model.log_sigma.data)

        metrics = {"nll": float(nll)}
        loss, kl_weight = nll, 0.0
        if alphas is not None:
            kl, kl_vjp = _kl(alphas, prior.p, model.alphanet.alpha_min,
                             model.alphanet.alpha_max)
            metrics["alpha_per_layer"] = (np.add.reduce(alphas) / len(alphas)).tolist()
            metrics["kl_normalized"] = float(kl)
            if cfg.kl_weight > 0:
                kl_weight = cfg.kl_weight
                loss = nll + kl * kl_weight
        else:
            metrics["kl_normalized"] = 0.0
        metrics["loss"] = float(loss)
        net_flat = [p for ps in net_params for p in ps]

        def vjp(g):
            gpred, *gsigma = nll_vjp(g)
            gnet = net_vjp(gpred)
            if alphas is None:
                return [*gsigma, *gnet]
            galpha = gnet[-1]
            if kl_weight > 0:
                # The KL's part first, as the tape summed them.
                galpha = kl_vjp(g * kl_weight)[0] + galpha
            return [*gsigma, *gnet[:-1], *alpha_vjp(galpha)]

        loss = Tensor._from_op(np.asarray(loss), [*sigma, *net_flat, *alpha_params], vjp,
                               "the ELBO")
    except NonFiniteError as err:
        raise TrainingDivergence(
            f"non-finite loss during ELBO step: {err}",
            diagnostics={"batch_size": int(X.shape[0]), "kind": model.kind}) from err
    return loss, metrics


# -- optimizer -------------------------------------------------------------------


def zero_grad(params) -> None:
    for p in params:
        p.grad = None


class AdamW:
    """Adaptive-moment optimizer with decoupled weight decay.

    Uses beta1=0.9, beta2=0.999, eps=1e-8, gradient clipping at
    ``cfg.grad_clip_norm`` on the global norm, and a linear
    warmup-then-decay learning-rate schedule over ``total_steps``.
    Parameters without gradients (frozen or unused) are left untouched,
    moments included. A non-finite gradient norm raises
    :class:`TrainingDivergence` and leaves every parameter and moment as it
    was.

    The state is four flat float64 buffers: the moments ``m`` and ``v``, a
    gradient buffer and a scratch buffer. Each parameter owns a fixed span
    of them, so one step is one multi-tensor update over every parameter
    with the per-element arithmetic of the textbook per-tensor loop. Each
    updated parameter gets a read-only view of that step's fresh result
    array, which is never written again. So when the last step updated every
    parameter and each still holds its view, that array is the current
    values; else they are gathered from the parameters.
    """

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, params, cfg: TrainConfig, total_steps: int):
        self.params = [p for p in params if p.requires_grad]
        self.cfg = cfg
        self.total_steps = max(1, int(total_steps))
        self.warmup_steps = int(round(cfg.warmup_fraction * self.total_steps))
        self.t = 0
        self._spans, size = [], 0
        for p in self.params:
            self._spans.append((size, size + p.data.size))
            size += p.data.size
        self._m, self._v, self._g, self._s = (np.zeros(size) for _ in range(4))
        self._g_views = [self._g[a:b].reshape(p.shape)
                         for p, (a, b) in zip(self.params, self._spans)]
        self._s_views = [self._s[a:b] for a, b in self._spans]
        # The last step's result array and its views, if it updated every parameter.
        self._last, self._handed = None, []

    def lr_at(self, step: int) -> float:
        if step < self.warmup_steps:
            return self.cfg.lr * (step + 1) / self.warmup_steps
        denom = max(1, self.total_steps - self.warmup_steps)
        return self.cfg.lr * max(0.0, self.total_steps - step) / denom

    def step(self) -> dict:
        lr = self.lr_at(self.t)
        m, v, g, s = self._m, self._v, self._g, self._s
        live = [i for i, p in enumerate(self.params) if p.grad is not None]
        # Spans of parameters without a gradient are masked out of every
        # update, so their moments stay as they were.
        if len(live) == len(self.params):
            where = True
        else:
            where = np.zeros(g.size, dtype=bool)
            for i in live:
                where[slice(*self._spans[i])] = True
        for i in live:
            np.copyto(self._g_views[i], self.params[i].grad)
        # Span by span in parameter order, the summation order of the per-tensor
        # loop of tests/test_variational.py::_ReferenceAdamW: bit-identical norms.
        np.multiply(g, g, out=s, where=where)
        total = 0.0
        for i in live:
            total += float(np.add.reduce(self._s_views[i]))
        raw_norm = math.sqrt(total)
        if not math.isfinite(raw_norm):
            # Checked before any state is written, so the parameters, the
            # moments and the step count stay those of the last good step.
            raise TrainingDivergence(f"non-finite gradient norm {raw_norm} at optimizer step",
                                     diagnostics={"grad_norm": raw_norm})
        clip = self.cfg.grad_clip_norm
        scale = clip / raw_norm if raw_norm > clip else 1.0
        self.t += 1
        bc1 = 1.0 - self.BETA1 ** self.t
        bc2 = 1.0 - self.BETA2 ** self.t
        np.multiply(g, scale, out=g, where=where)
        np.multiply(m, self.BETA1, out=m, where=where)
        np.multiply(g, 1.0 - self.BETA1, out=s, where=where)
        np.add(m, s, out=m, where=where)
        np.multiply(g, g, out=s, where=where)
        np.multiply(s, 1.0 - self.BETA2, out=s, where=where)
        np.multiply(v, self.BETA2, out=v, where=where)
        np.add(v, s, out=v, where=where)
        cur = self._last
        if cur is None or any(p.data is not view
                              for p, view in zip(self.params, self._handed)):
            # The gradients are spent: g now holds the current parameter values.
            cur = g
            for i in live:
                np.copyto(self._g_views[i], self.params[i].data)
        np.divide(v, bc2, out=s, where=where)
        np.sqrt(s, out=s, where=where)
        np.add(s, self.EPS, out=s, where=where)
        new = np.empty(g.size)
        np.divide(m, bc1, out=new, where=where)
        np.multiply(new, lr, out=new, where=where)
        np.divide(new, s, out=new, where=where)
        np.subtract(cur, new, out=new, where=where)
        if self.cfg.weight_decay > 0:
            np.multiply(cur, lr * self.cfg.weight_decay, out=s, where=where)
            np.subtract(new, s, out=new, where=where)
        new.flags.writeable = False
        for i in live:
            a, b = self._spans[i]
            self.params[i].data = new[a:b].reshape(self.params[i].shape)
        if where is True:
            self._last, self._handed = new, [p.data for p in self.params]
        else:
            self._last = None
        return {"lr": lr, "grad_norm": raw_norm, "applied_norm": min(raw_norm, clip),
                "clipped": raw_norm > clip}


# Step ``i`` of a training phase draws its noise from substream ``i`` and
# epoch ``e`` its permutation from substream ``MAX_STEPS + e``, so a phase
# may take at most this many steps.
MAX_STEPS = 900_000


def total_steps(n: int, cfg: TrainConfig) -> int:
    """Optimizer steps :func:`train_model` takes on ``n >= 1`` rows: one per
    batch per epoch."""
    return cfg.epochs * max(1, math.ceil(n / cfg.batch_size))


def train_model(model: AdaptedModel, train_xy, prior: PriorConfig, cfg: TrainConfig,
                rng: Rng, record_hook=None) -> list[dict]:
    """Minibatch training loop; returns one metrics record per step.

    Step ``i`` draws its noise from ``rng.stream_of(i)``, made by re-keying one
    generator, and each epoch's permutation from ``rng.stream_of(MAX_STEPS +
    epoch)``; no rows or more than :data:`MAX_STEPS` steps raise
    :class:`DomainError` before the first, and a ``y`` whose row count is not
    ``X``'s a :class:`ShapeError`. Asserts the freeze contract on
    every step: frozen backbone parameters must never accumulate gradient. A non-finite loss or
    gradient norm raises :class:`TrainingDivergence` with the step and epoch.
    """
    X, y = train_xy
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if n == 0:
        raise DomainError("train_model needs at least one training row")
    if len(y) != n:
        raise ShapeError(f"y has {len(y)} rows, X has {n}")
    steps = total_steps(n, cfg)
    if steps > MAX_STEPS:
        raise DomainError(f"{steps} training steps exceed the {MAX_STEPS} whose noise "
                          f"streams stay apart from the epoch permutations")
    params = model.trainables()
    opt = AdamW(params, cfg, total_steps=steps)
    noise = rng.stream_of(0)
    records: list[dict] = []
    step = 0
    for epoch in range(cfg.epochs):
        perm = rng.stream_of(MAX_STEPS + epoch).permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            try:
                loss, metrics = elbo_step(model, (X[idx], y[idx]), prior, cfg,
                                          noise._rekey(rng, step))
                T.backward(loss)
                if model.backbone.frozen and any(p.grad is not None
                                                 for p in model.backbone.parameters()):
                    raise AssertionError("frozen backbone accumulated gradient")
                stats = opt.step()
            except TrainingDivergence as err:
                err.diagnostics.update({"step": step, "epoch": epoch})
                raise
            zero_grad(params)
            records.append({"step": step, "epoch": epoch, **metrics, **stats})
            step += 1
            if record_hook is not None:
                record_hook(records[-1])
    return records
