"""Monte Carlo uncertainty report and calibration metrics.

:func:`uq_report` is the one Monte Carlo evaluator. It takes its draws from
:meth:`~balora.model.AdaptedModel.predict_stochastic`, the one draw
primitive, which also serves ``balora sample``. Variance estimators use the
population (1/S) form throughout. The epistemic/aleatoric split follows the law of
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

from .adapter import draw_count
from .model import AdaptedModel, class_labels
from .rng import Rng
from .tensor import DomainError, ShapeError


def _softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis in one temporary of ``z``'s shape; ``z`` is
    never written."""
    e = np.subtract(z, z.max(axis=-1, keepdims=True))
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


# -- metrics --------------------------------------------------------------------


def _checked_probs(probs, labels):
    """``probs`` and ``labels`` as arrays, after checking that ``probs`` is a
    batch of rows summing to 1 (a NaN row fails) with one label per row
    (:func:`class_labels`)."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    if probs.ndim != 2 or probs.shape[:1] != labels.shape[:1]:
        raise ShapeError(f"probs {probs.shape} vs labels {labels.shape}")
    if not np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-6):
        raise DomainError("probability rows must sum to 1 (tol 1e-6)")
    return probs, class_labels(labels, probs.shape[1])


def ece(probs, labels) -> float:
    """Expected calibration error: L1 gap between confidence and accuracy
    over 15 equal-width bins of the max-probability confidence.

    Boundary confidences go to the upper bin; empty bins contribute zero.
    """
    probs, labels = _checked_probs(probs, labels)
    conf = probs.max(axis=1)
    correct = (probs.argmax(axis=1) == labels).astype(np.float64)
    edges = np.arange(1, 15) / 15
    idx = np.digitize(conf, edges, right=False)
    n = conf.shape[0]
    total = 0.0
    for m in range(15):
        mask = idx == m
        cnt = int(mask.sum())
        if cnt == 0:
            continue
        total += (cnt / n) * abs(correct[mask].mean() - conf[mask].mean())
    return float(total)


def accuracy(probs, labels) -> float:
    probs, labels = _checked_probs(probs, labels)
    return float(np.mean(probs.argmax(axis=1) == labels))


def _average_ranks(v: np.ndarray) -> np.ndarray:
    """Ranks starting at 1; ties get the average of their rank block."""
    _, inverse, counts = np.unique(v, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - counts + 0.5 * (counts - 1) + 1.0)[inverse]


def spearman(u, v) -> float:
    """Rank correlation: Pearson correlation of average-ranked data.

    Constant or non-finite input is an error, not a value; a silent value
    would mask degenerate evaluation runs.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1 or len(u) < 2:
        raise ShapeError("spearman needs two equal-length vectors of length >= 2")
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise DomainError("spearman undefined for non-finite input")
    if np.all(u == u[0]) or np.all(v == v[0]):
        raise DomainError("spearman undefined for constant input")
    ru, rv = _average_ranks(u), _average_ranks(v)
    ru = ru - ru.mean()
    rv = rv - rv.mean()
    return float(np.dot(ru, rv) / np.sqrt(np.dot(ru, ru) * np.dot(rv, rv)))


def mae(preds, targets) -> float:
    """Mean absolute error."""
    preds = np.asarray(preds, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if preds.shape != targets.shape or preds.size == 0:
        raise ShapeError("mae needs equal-shape, non-empty inputs")
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

    CSV_HEADER = ("id", "pred", "target", "var_total", "var_epi", "var_ale", "sq_error")

    def to_json(self) -> str:
        return json.dumps({"mode": "mc", "mc_steps": self.mc_steps,
                           "metrics": self.metrics, "per_sample": self.per_sample},
                          sort_keys=True)

    def csv_rows(self):
        """Rows under :attr:`CSV_HEADER`, one per sample."""
        for i, row in enumerate(self.per_sample):
            pred = row["pred_mean"]
            yield (i, pred[0] if len(pred) == 1 else json.dumps(pred), row["target"],
                   row["var_total"], row["var_epistemic"], row["var_aleatoric"],
                   row["sq_error"])


def uq_report(model: AdaptedModel, X, y, S: int, rng: Rng) -> UQReport:
    """Full Monte Carlo evaluation of a test split ``X`` with targets ``y``,
    which :meth:`~balora.model.AdaptedModel.batch` checks. Regression
    epistemic variance is the mean over output dims of each dim's variance
    over draws. ``S``, the number of draws, must be an integer >= 2
    (:func:`~balora.adapter.draw_count`). Every check runs before any work."""
    S = draw_count(S, 2, "S")
    X, y = model.batch(X, y)
    draws = model.predict_stochastic(X, S, rng)  # (S, B, k)
    if model.head == "regression":
        preds = draws.mean(axis=0)
        epi = np.mean(np.mean((draws - preds) ** 2, axis=0), axis=1)
        ale = np.full_like(epi, model.sigma_obs() ** 2)
        sq_err = np.mean((preds - y) ** 2, axis=1)
        metrics = {"mae": mae(preds.ravel(), y.ravel()), "mse": float(np.mean(sq_err))}
    else:
        probs = _softmax(draws)  # (S, B, C)
        preds = probs.mean(axis=0)
        preds = preds / preds.sum(axis=1, keepdims=True)
        win = probs.max(axis=2)  # (S, B)
        epi = np.mean((win - win.mean(axis=0)) ** 2, axis=0)
        ale = np.mean(win * (1.0 - win), axis=0)
        sq_err = (preds.argmax(axis=1) != y).astype(np.float64)
        metrics = {"mae": float(np.mean(1.0 - preds[np.arange(len(y)), y])),
                   "accuracy": accuracy(preds, y), "ece": ece(preds, y)}
    var_tot = epi + ale
    metrics["spearman_var_err"] = _safe_spearman(var_tot, sq_err)
    keys = ("pred_mean", "target", "var_total", "var_epistemic", "var_aleatoric", "sq_error")
    columns = (preds, y, var_tot, epi, ale, sq_err)
    per_sample = [dict(zip(keys, row)) for row in zip(*(c.tolist() for c in columns))]
    return UQReport(per_sample=per_sample, metrics=metrics, mc_steps=S)


def _safe_spearman(u, v) -> Optional[float]:
    """Spearman correlation, or None where it is undefined: fewer than two
    rows, or constant or non-finite input."""
    if len(u) < 2:
        return None
    try:
        return spearman(u, v)
    except DomainError:
        return None
