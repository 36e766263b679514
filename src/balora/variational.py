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
input. :func:`elbo_step` composes them into one tape node per step;
:func:`kl_normalized`, :func:`gaussian_nll`, :func:`l1_loss` and
:func:`cross_entropy` wrap each as a node of its own.
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
from .tensor import DomainError, NonFiniteError, Tensor

_LOG_2PI = math.log(2.0 * math.pi)


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
    if not np.all((alpha_min <= alpha) & (alpha <= alpha_max)):
        raise DomainError(f"alpha {alpha} outside clamp range [{alpha_min}, {alpha_max}]")
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

    return np.asarray(np.mean(kl) * scale), vjp


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
    resid = np.asarray(target, dtype=np.float64).reshape(pred.shape) - pred
    with np.errstate(over="ignore", invalid="ignore"):
        inv_var = np.exp(log_sigma * -2.0)
        scaled = resid * resid * inv_var
        out = (scaled + (log_sigma * 2.0 + _LOG_2PI)).mean() * 0.5

    def vjp(g):
        return (-g / resid.size) * resid * inv_var, np.asarray(g * np.mean(1.0 - scaled))

    return np.asarray(out), vjp


def gaussian_nll(pred: Tensor, target: np.ndarray, log_sigma: Tensor) -> Tensor:
    """Mean Gaussian negative log-likelihood with homoscedastic learned noise,
    as one tape node."""
    value, vjp = _gaussian_nll(pred.data, target, log_sigma.data)
    return Tensor._from_op(value, (pred, log_sigma), vjp, "gaussian_nll")


def _l1(pred: np.ndarray, target):
    resid = np.asarray(target, dtype=np.float64).reshape(pred.shape) - pred

    def vjp(g):
        return ((-g / resid.size) * np.sign(resid),)

    return np.asarray(np.abs(resid).mean()), vjp


def l1_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    """Mean absolute error, as one tape node."""
    value, vjp = _l1(pred.data, target)
    return Tensor._from_op(value, (pred,), vjp, "l1_loss")


def _cross_entropy(logits: np.ndarray, labels):
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


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean negative log-softmax of the labelled class, as one tape node."""
    value, vjp = _cross_entropy(logits.data, labels)
    return Tensor._from_op(value, (logits,), vjp, "cross_entropy")


# -- ELBO step -----------------------------------------------------------------


def elbo_step(model: AdaptedModel, batch, prior: PriorConfig, cfg: TrainConfig,
              rng: Rng):
    """One single-sample ELBO evaluation: NLL of a stochastic forward plus
    the KL-weighted normalized divergence (averaged over the batch when the
    noise scale varies per sample).

    Returns the loss, one tape node whose parents are ``model.trainables()``
    (then any other parameter of the step that requires grad), and a
    metrics dict. The KL term is always measured and logged, but
    enters the loss only when ``kl_weight > 0``. The forward is plain numpy:
    the AlphaNet (:func:`~balora.adapter.alpha_scales`), the network
    (:meth:`~balora.model.AdaptedModel.network`), the NLL and the KL. The
    node's VJP runs their VJPs in one fixed reverse order: the NLL's, the
    network's, then the AlphaNet's from the noise scales' cotangent, the
    KL's plus the network's.
    """
    X, y = batch
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[None, :]
    if X.shape[0] == 0:
        raise DomainError("empty batch")
    try:
        if model.kind == "balora":
            prefix = model.frozen_prefix(X)
            alphas, alpha_params, alpha_vjp = A.alpha_scales(
                model.alphanet, model.alpha_features(X, prefix))
            pred, net_params, net_vjp = model.network(
                X, alphas, model.draw_eps(X.shape[0], rng), prefix)
        else:
            alphas, alpha_params = None, []
            pred, net_params, net_vjp = model.network(X)
        T.check_finite(pred, "the taped forward")
        if model.head == "classification":
            nll, nll_vjp = _cross_entropy(pred, y)
        elif cfg.nll == "l1":
            nll, nll_vjp = _l1(pred, y)
        else:
            nll, nll_vjp = _gaussian_nll(pred, y, model.log_sigma.data)

        metrics = {"nll": float(nll)}
        loss, kl_weight = nll, 0.0
        if alphas is not None:
            kl, kl_vjp = _kl(alphas, prior.p, model.alphanet.alpha_min,
                             model.alphanet.alpha_max)
            metrics["alpha_per_layer"] = alphas.mean(axis=0).tolist()
            metrics["kl_normalized"] = float(kl)
            if cfg.kl_weight > 0:
                kl_weight = cfg.kl_weight
                loss = nll + kl * kl_weight
        else:
            metrics["kl_normalized"] = 0.0
        metrics["loss"] = float(loss)

        # The parents: the trainables, then anything else that requires grad,
        # so that a frozen weight set to require it still gets its gradient
        # and fails the freeze check of train_model.
        params = model.trainables()
        slot = {id(p): i for i, p in enumerate(params)}
        net_flat = [p for ps in net_params for p in ps]
        for p in (*net_flat, *alpha_params):
            if p.requires_grad and id(p) not in slot:
                slot[id(p)] = len(params)
                params.append(p)

        def vjp(g):
            gpred, *gsigma = nll_vjp(g)
            gnet = net_vjp(gpred)
            cotangents = [*zip([model.log_sigma], gsigma), *zip(net_flat, gnet)]
            if alphas is not None:
                galpha = gnet[-1]
                if kl_weight > 0:
                    # The KL's part first, as the tape summed them.
                    galpha = kl_vjp(g * kl_weight)[0] + galpha
                cotangents += zip(alpha_params, alpha_vjp(galpha))
            grads = [None] * len(params)
            for t, c in cotangents:
                if c is not None:
                    grads[slot[id(t)]] = c
            return grads

        loss = Tensor._from_op(np.asarray(loss), params, vjp, "the ELBO")
    except NonFiniteError as err:
        raise TrainingDivergence(
            f"non-finite loss during ELBO step: {err}",
            diagnostics={"batch_size": int(X.shape[0]), "kind": model.kind}) from err
    return loss, metrics


# -- optimizer -------------------------------------------------------------------


def global_grad_norm(params) -> float:
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += float(np.sum(p.grad * p.grad))
    return math.sqrt(total)


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
    array, which is never written again.
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
        # Span by span in parameter order: the summation order of
        # global_grad_norm, so the norm is bit-identical to it.
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
        # The gradients are spent: g now holds the current parameter values.
        for i in live:
            np.copyto(self._g_views[i], self.params[i].data)
        np.divide(v, bc2, out=s, where=where)
        np.sqrt(s, out=s, where=where)
        np.add(s, self.EPS, out=s, where=where)
        new = np.empty(g.size)
        np.divide(m, bc1, out=new, where=where)
        np.multiply(new, lr, out=new, where=where)
        np.divide(new, s, out=new, where=where)
        np.subtract(g, new, out=new, where=where)
        if self.cfg.weight_decay > 0:
            np.multiply(g, lr * self.cfg.weight_decay, out=s, where=where)
            np.subtract(new, s, out=new, where=where)
        new.flags.writeable = False
        for i in live:
            a, b = self._spans[i]
            self.params[i].data = new[a:b].reshape(self.params[i].shape)
        return {"lr": lr, "grad_norm": raw_norm, "applied_norm": min(raw_norm, clip),
                "clipped": raw_norm > clip}


def total_steps(n: int, cfg: TrainConfig) -> int:
    """Optimizer steps :func:`train_model` takes on ``n >= 1`` rows: one per
    batch per epoch."""
    return cfg.epochs * max(1, math.ceil(n / cfg.batch_size))


def train_model(model: AdaptedModel, train_xy, prior: PriorConfig, cfg: TrainConfig,
                rng: Rng, record_hook=None) -> list[dict]:
    """Minibatch training loop; returns one metrics record per step.

    Asserts the freeze contract on every step: frozen backbone parameters
    must never accumulate gradient. A non-finite loss or gradient norm
    raises :class:`TrainingDivergence` with the step and epoch.
    """
    X, y = train_xy
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    params = model.trainables()
    opt = AdamW(params, cfg, total_steps=total_steps(n, cfg))
    records: list[dict] = []
    step = 0
    for epoch in range(cfg.epochs):
        perm = rng.stream_of(900_000 + epoch).permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = perm[start:start + cfg.batch_size]
            try:
                loss, metrics = elbo_step(model, (X[idx], y[idx]), prior, cfg,
                                          rng.stream_of(step))
                T.backward(loss)
                frozen_norm = global_grad_norm(model.backbone.parameters()) \
                    if model.backbone.frozen else 0.0
                if frozen_norm != 0.0:
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
