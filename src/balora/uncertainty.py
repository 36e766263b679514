"""Monte Carlo uncertainty report and calibration metrics.

:func:`uq_report` is the one Monte Carlo evaluator; :func:`_stochastic_draws`
is the draw primitive under it. Variance estimators use the population
(1/S) form throughout. The epistemic/aleatoric split follows the law of
total variance: epistemic is the variance over weight draws of the
conditional mean, aleatoric is the mean over draws of the conditional
variance. For classification the conditional variance of a draw is taken
as ``p * (1 - p)`` of that draw's winning class (a documented convention;
the decomposition is only fully principled for regression heads).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tensor as T
from .model import AdaptedModel
from .rng import Rng
from .tensor import DomainError, ShapeError

# Draw-batches are flattened into the forward pass; cap the flattened row
# count so memory stays bounded and chunking stays deterministic.
_MAX_ROWS = 1 << 22


def _stochastic_draws(model: AdaptedModel, X: np.ndarray, S: int, rng: Rng) -> np.ndarray:
    """(S, B, k) stochastic forward outputs with per-draw noise.

    Draw chunks use substreams keyed by chunk index, so results depend
    only on (seed, S, B) and are reproducible regardless of memory limits.
    """
    if model.kind != "balora":
        raise DomainError("Monte Carlo draws need stochastic adapter weights")
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    B = X.shape[0]
    with T.no_grad():
        alphas = np.atleast_2d(model.alphas(X).data)
    chunk = max(1, _MAX_ROWS // B)
    outs = []
    for c, start in enumerate(range(0, S, chunk)):
        s = min(chunk, S - start)
        X_rep = np.tile(X, (s, 1))
        a_rep = np.tile(alphas, (s, 1))
        pred = model.predict_stochastic(X_rep, rng.stream_of(c), alphas=a_rep)
        outs.append(pred.reshape(s, B, -1))
    return np.concatenate(outs, axis=0)


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


# -- metrics --------------------------------------------------------------------


def ece(probs, labels, bins: int = 15) -> float:
    """Expected calibration error: L1 gap between confidence and accuracy
    over equal-width bins of the max-probability confidence.

    Boundary confidences go to the upper bin; empty bins contribute zero.
    """
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    if probs.ndim != 2 or probs.shape[0] != labels.shape[0]:
        raise ShapeError(f"probs {probs.shape} vs labels {labels.shape}")
    if np.any(np.abs(probs.sum(axis=1) - 1.0) > 1e-6):
        raise DomainError("probability rows must sum to 1 (tol 1e-6)")
    if labels.min() < 0 or labels.max() >= probs.shape[1]:
        raise DomainError("label out of range")
    conf = probs.max(axis=1)
    correct = (probs.argmax(axis=1) == labels).astype(np.float64)
    edges = np.arange(1, bins) / bins
    idx = np.digitize(conf, edges, right=False)
    n = conf.shape[0]
    total = 0.0
    for m in range(bins):
        mask = idx == m
        cnt = int(mask.sum())
        if cnt == 0:
            continue
        total += (cnt / n) * abs(correct[mask].mean() - conf[mask].mean())
    return float(total)


def accuracy(probs, labels) -> float:
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    return float(np.mean(probs.argmax(axis=1) == labels))


def _average_ranks(v: np.ndarray) -> np.ndarray:
    """Ranks starting at 1; ties get the average of their rank block."""
    order = np.argsort(v, kind="stable")
    ranks = np.empty(len(v), dtype=np.float64)
    sorted_v = v[order]
    i = 0
    while i < len(v):
        j = i
        while j + 1 < len(v) and sorted_v[j + 1] == sorted_v[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman(u, v) -> float:
    """Rank correlation: Pearson correlation of average-ranked data.

    Constant input is an error, not zero; silent zeros would mask
    degenerate evaluation runs.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1 or len(u) < 2:
        raise ShapeError("spearman needs two equal-length vectors of length >= 2")
    if np.all(u == u[0]) or np.all(v == v[0]):
        raise DomainError("spearman undefined for constant input")
    ru, rv = _average_ranks(u), _average_ranks(v)
    ru = ru - ru.mean()
    rv = rv - rv.mean()
    return float(np.dot(ru, rv) / np.sqrt(np.dot(ru, ru) * np.dot(rv, rv)))


def mae(preds, targets, denorm: Optional[tuple] = None) -> float:
    """Mean absolute error; ``denorm=(mu, sigma)`` maps normalized
    predictions back to target units as ``pred * sigma + mu`` first."""
    preds = np.asarray(preds, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if preds.shape != targets.shape or preds.size == 0:
        raise ShapeError("mae needs equal-shape, non-empty inputs")
    if denorm is not None:
        mu, sigma = denorm
        preds = preds * sigma + mu
    return float(np.mean(np.abs(preds - targets)))


# -- report ------------------------------------------------------------------------


@dataclass
class UQReport:
    """Per-sample predictive statistics plus dataset-level metrics.

    Invariant: ``var_total == var_epistemic + var_aleatoric`` per sample
    (law of total variance, enforced by construction).
    """

    per_sample: list
    metrics: dict
    mc_steps: int

    def to_json(self) -> str:
        return json.dumps({"mode": "mc", "mc_steps": self.mc_steps,
                           "metrics": self.metrics, "per_sample": self.per_sample},
                          sort_keys=True)

    def csv_rows(self):
        """Rows of (id, pred, target, var_total, var_epi, var_ale, sq_error)."""
        for i, row in enumerate(self.per_sample):
            pred = row["pred_mean"]
            yield (i, pred[0] if len(pred) == 1 else json.dumps(pred), row["target"],
                   row["var_total"], row["var_epistemic"], row["var_aleatoric"],
                   row["sq_error"])


def uq_report(model: AdaptedModel, X, y, S: int, rng: Rng,
              denorm: Optional[tuple] = None) -> UQReport:
    """Full Monte Carlo evaluation of a test split. Regression epistemic
    variance is the mean over output dims of each dim's variance over draws."""
    if S < 2:
        raise DomainError(f"uq_report needs S >= 2, got {S}")
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y)
    draws = _stochastic_draws(model, X, S, rng)  # (S, B, k)
    if model.head == "regression":
        mean = draws.mean(axis=0)
        epi = np.mean(np.mean((draws - mean) ** 2, axis=0), axis=1)
        ale = np.full_like(epi, model.sigma_obs() ** 2)
        preds = mean * denorm[1] + denorm[0] if denorm is not None else mean
        targets = y.reshape(X.shape[0], -1).astype(np.float64)
        sq_err = np.mean((preds - targets) ** 2, axis=1)
        metrics = {"mae": mae(preds.ravel(), targets.ravel()), "mse": float(np.mean(sq_err))}
    else:
        probs = _softmax(draws)  # (S, B, C)
        preds = probs.mean(axis=0)
        preds = preds / preds.sum(axis=1, keepdims=True)
        win = probs.max(axis=2)  # (S, B)
        epi = np.mean((win - win.mean(axis=0)) ** 2, axis=0)
        ale = np.mean(win * (1.0 - win), axis=0)
        targets = y.astype(int)
        sq_err = (preds.argmax(axis=1) != targets).astype(np.float64)
        metrics = {"mae": float(np.mean(1.0 - preds[np.arange(len(y)), targets])),
                   "accuracy": accuracy(preds, y), "ece": ece(preds, y)}
    var_tot = epi + ale
    metrics["spearman_var_err"] = _safe_spearman(var_tot, sq_err)
    keys = ("pred_mean", "target", "var_total", "var_epistemic", "var_aleatoric", "sq_error")
    columns = (preds, targets, var_tot, epi, ale, sq_err)
    per_sample = [dict(zip(keys, row)) for row in zip(*(c.tolist() for c in columns))]
    return UQReport(per_sample=per_sample, metrics=metrics, mc_steps=S)


def _safe_spearman(u, v) -> Optional[float]:
    """Spearman correlation, or None where it is undefined: fewer than two
    rows or constant input."""
    if len(u) < 2:
        return None
    try:
        return spearman(u, v)
    except DomainError:
        return None
