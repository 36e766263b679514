"""Synthetic tasks, the pretrain-then-adapt protocol, and ensemble baselines.

Every task ships a source distribution (for pretraining the backbone) and
a shifted target distribution (for adapter training), so the adapters
actually carry signal. Regression shifts are low-rank perturbations of
the ground-truth linear map; classification shifts rotate the inputs.
The heteroscedastic task exposes its per-sample noise scale, giving a
known ground truth for uncertainty checks.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import variational as V
from .model import (AdaptedModel, AdapterSpec, BackboneSpec, ToyBackbone, attach_adapters,
                    init_backbone)
from .rng import Rng
from .tensor import DomainError

KINDS = ("linear-regression", "heteroscedastic-regression",
         "two-moons-classification", "multiclass-gaussian-blobs")


@dataclass
class SyntheticTask:
    kind: str = "heteroscedastic-regression"
    d_in: int = 6
    d_out: int = 1
    n_train: int = 512
    n_val: int = 128
    n_test: int = 256
    n_classes: int = 3
    noise_std: float = 0.1        # homoscedastic part / jitter
    noise_base: float = 0.05      # heteroscedastic floor
    noise_slope: float = 0.4      # heteroscedastic growth with input norm
    shift_rank: int = 2           # rank of the source->target map perturbation
    shift_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DomainError(f"unknown task kind: {self.kind}")
        if min(self.n_train, self.n_test) < 1 or self.n_val < 0:
            raise DomainError("split sizes n_train and n_test must be positive (n_val may "
                              "be zero)")
        if self.kind == "two-moons-classification" and self.d_in != 2:
            raise DomainError(f"task {self.kind} needs d_in = 2, got {self.d_in}")
        if self.d_out < 1:
            raise DomainError(f"d_out must be positive, got {self.d_out}")
        if self.n_classes < 2:
            raise DomainError(f"n_classes must be at least 2, got {self.n_classes}")
        if min(self.noise_std, self.noise_base, self.noise_slope, self.shift_scale) < 0:
            raise DomainError(f"noise_std, noise_base, noise_slope and shift_scale must be "
                              f"non-negative, got {self.noise_std}, {self.noise_base}, "
                              f"{self.noise_slope}, {self.shift_scale}")

    @property
    def is_classification(self) -> bool:
        return self.kind in ("two-moons-classification", "multiclass-gaussian-blobs")

    @property
    def output_dim(self) -> int:
        if self.kind == "two-moons-classification":
            return 2
        if self.kind == "multiclass-gaussian-blobs":
            return self.n_classes
        return self.d_out

    @property
    def used_shift_rank(self) -> Optional[int]:
        """``shift_rank`` clipped into ``[1, min(d_in, d_out)]``; None for classification."""
        clipped = max(1, min(self.shift_rank, self.d_out, self.d_in))
        return None if self.is_classification else clipped


@dataclass
class Split:
    X: np.ndarray
    y: np.ndarray
    sigma: Optional[np.ndarray] = None  # per-sample true noise scale when known


@dataclass
class Splits:
    train: Split
    val: Split
    test: Split


def _true_map(task: SyntheticTask, rng: Rng, shifted: bool) -> np.ndarray:
    g = rng.normal((task.d_out, task.d_in))
    if shifted:
        # Random low-rank direction, deterministic magnitude: the shift's
        # Frobenius norm is shift_scale * sqrt(d_out) regardless of seed, so
        # adaptation always has comparable signal to recover.
        r = task.used_shift_rank
        u = rng.normal((task.d_out, r))
        v = rng.normal((r, task.d_in))
        delta = u @ v
        norm = float(np.linalg.norm(delta))
        if norm > 0.0 and task.shift_scale > 0.0:
            g = g + delta * (task.shift_scale * math.sqrt(task.d_out) / norm)
    return g


def _regression_split(task: SyntheticTask, g: np.ndarray, rng: Rng, n: int) -> Split:
    X = rng.normal((n, task.d_in))
    clean = X @ g.T
    if task.kind == "heteroscedastic-regression":
        sigma = task.noise_base + task.noise_slope * np.linalg.norm(X, axis=1) / math.sqrt(task.d_in)
        y = clean + sigma[:, None] * rng.normal((n, task.d_out))
        return Split(X, y, sigma)
    y = clean + task.noise_std * rng.normal((n, task.d_out))
    return Split(X, y, np.full(n, task.noise_std))


def _moons_split(task: SyntheticTask, rng: Rng, n: int, rotate: float) -> Split:
    half = n // 2
    t0 = rng.uniform(0.0, math.pi, (half,))
    t1 = rng.uniform(0.0, math.pi, (n - half,))
    X = np.concatenate([
        np.stack([np.cos(t0), np.sin(t0)], axis=1),
        np.stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)], axis=1),
    ])
    y = np.concatenate([np.zeros(half, dtype=int), np.ones(n - half, dtype=int)])
    X = X + task.noise_std * rng.normal((n, 2))
    if rotate:
        c, s = math.cos(rotate), math.sin(rotate)
        X = X @ np.array([[c, -s], [s, c]]).T
    perm = rng.permutation(n)
    return Split(X[perm], y[perm])


def _blobs_split(task: SyntheticTask, centers: np.ndarray, rng: Rng, n: int) -> Split:
    labels = rng.integers(0, task.n_classes, (n,))
    X = centers[labels] + task.noise_std * rng.normal((n, task.d_in))
    return Split(X, labels.astype(int))


def generate(task: SyntheticTask, shifted: bool = True) -> Splits:
    """Generate disjoint train/val/test splits, reproducible from the task seed.

    ``shifted=True`` yields the target (adaptation) distribution;
    ``shifted=False`` the source (pretraining) distribution.
    """
    root = Rng(task.seed)
    param_rng = root.stream_of(0)  # shared ground truth across source/target
    base = 100 if shifted else 200
    splits = []
    if task.is_classification:
        if task.kind == "two-moons-classification":
            rotate = 0.0 if shifted else math.pi / 6.0
            for i, n in enumerate((task.n_train, task.n_val, task.n_test)):
                splits.append(_moons_split(task, root.stream_of(base + i), n, rotate))
        else:
            centers = 2.5 * param_rng.normal((task.n_classes, task.d_in))
            if not shifted:
                centers = centers + 0.8 * param_rng.normal((task.n_classes, task.d_in))
            for i, n in enumerate((task.n_train, task.n_val, task.n_test)):
                splits.append(_blobs_split(task, centers, root.stream_of(base + i), n))
    else:
        g = _true_map(task, param_rng, shifted)
        for i, n in enumerate((task.n_train, task.n_val, task.n_test)):
            splits.append(_regression_split(task, g, root.stream_of(base + i), n))
    return Splits(*splits)


def true_map(task: SyntheticTask, shifted: bool = True) -> np.ndarray:
    """Ground-truth linear map of a regression task (oracle use)."""
    if task.is_classification:
        raise DomainError("true_map is defined for regression tasks only")
    return _true_map(task, Rng(task.seed).stream_of(0), shifted)


# -- training protocol ---------------------------------------------------------


@dataclass
class TrainedModel:
    """A model after :func:`pretrain_then_adapt`, with its pretraining and
    adaptation records (one per optimizer step), the target splits, and
    ``phases``: per phase (``pretrain``, ``adapt``) its ``steps`` (the count
    of its records), ``clipped`` (the count of its records whose gradient
    was clipped), ``wall_s`` and ``steps_per_s``."""

    model: AdaptedModel
    pretrain_records: list
    adapt_records: list
    target: Splits
    phases: dict


def _phase(records: list, wall_s: float) -> dict:
    steps = len(records)
    return {"steps": steps, "clipped": sum(record["clipped"] for record in records),
            "wall_s": wall_s, "steps_per_s": steps / wall_s if wall_s > 0 else 0.0}


def _backbone_spec(task: SyntheticTask, hidden) -> BackboneSpec:
    head = "classification" if task.is_classification else "regression"
    return BackboneSpec(d_in=task.d_in, d_out=task.output_dim,
                        hidden=tuple(hidden), head=head)


def pretrain_backbone(task: SyntheticTask, hidden, cfg: V.TrainConfig,
                      rng: Rng) -> tuple[ToyBackbone, list]:
    """Train a fresh backbone on the source split, then freeze it. Returns
    the backbone and the training records, one per step."""
    source = generate(task, shifted=False)
    backbone = init_backbone(_backbone_spec(task, hidden), rng.stream_of(1))
    shell = AdaptedModel(backbone, {}, None, kind="lora")
    records = V.train_model(shell, (source.train.X, source.train.y), V.PriorConfig(0.5),
                            cfg, rng.stream_of(2))
    backbone.freeze()
    return backbone, records


def pretrain_then_adapt(task: SyntheticTask, hidden, aspec: AdapterSpec,
                        adapter_kind: str, pretrain_cfg: V.TrainConfig,
                        adapt_cfg: V.TrainConfig, prior: V.PriorConfig,
                        seed: int, backbone: Optional[ToyBackbone] = None) -> TrainedModel:
    """Full protocol: pretrain on the source distribution, freeze, attach
    adapters, and train them on the shifted target distribution. A given
    ``backbone`` skips pretraining, whose phase then has no records."""
    rng = Rng(seed)
    target = generate(task, shifted=True)
    t0 = time.perf_counter()
    pretrain_records = []
    if backbone is None:
        backbone, pretrain_records = pretrain_backbone(task, hidden, pretrain_cfg, rng)
    t1 = time.perf_counter()
    model = attach_adapters(backbone, aspec, adapter_kind, rng.stream_of(3))
    adapt_records = V.train_model(model, (target.train.X, target.train.y), prior,
                                  adapt_cfg, rng.stream_of(4))
    phases = {"pretrain": _phase(pretrain_records, t1 - t0),
              "adapt": _phase(adapt_records, time.perf_counter() - t1)}
    return TrainedModel(model=model, pretrain_records=pretrain_records,
                        adapt_records=adapt_records, target=target, phases=phases)


# -- ensemble baseline ------------------------------------------------------------


@dataclass
class EnsembleBaseline:
    """Independently trained plain-LoRA adapter sets over one shared backbone."""

    members: list = field(default_factory=list)
    member_seconds: list = field(default_factory=list)

    @property
    def m(self) -> int:
        return len(self.members)


def train_ensemble(task: SyntheticTask, hidden, aspec: AdapterSpec,
                   pretrain_cfg: V.TrainConfig, adapt_cfg: V.TrainConfig,
                   prior: V.PriorConfig, seed: int, m: int,
                   backbone: Optional[ToyBackbone] = None) -> EnsembleBaseline:
    """Train ``m`` plain-LoRA members differing only by training seed: member
    ``i`` is :func:`pretrain_then_adapt` of ``"lora"`` at seed ``seed + 1 + i``
    on the frozen backbone that pretraining from ``seed`` gives, which a
    passed-in ``backbone`` must be. ``member_seconds`` are their adapt times.
    """
    if m < 2:
        raise DomainError("an ensemble needs at least 2 members")
    if backbone is None:
        backbone, _ = pretrain_backbone(task, hidden, pretrain_cfg, Rng(seed))
    ensemble = EnsembleBaseline()
    for i in range(m):
        member = pretrain_then_adapt(task, hidden, aspec, "lora", pretrain_cfg, adapt_cfg,
                                     prior, seed=seed + 1 + i, backbone=backbone)
        ensemble.members.append(member.model)
        ensemble.member_seconds.append(member.phases["adapt"]["wall_s"])
    return ensemble


def run_ensemble(baseline: EnsembleBaseline, X) -> tuple[np.ndarray, np.ndarray]:
    """Member-prediction mean and population variance per sample and dim."""
    if baseline.m < 2:
        raise DomainError("an ensemble needs at least 2 members")
    preds = np.stack([member.predict(X) for member in baseline.members])
    mean = preds.mean(axis=0)
    var = np.mean((preds - mean) ** 2, axis=0)
    return mean, var
