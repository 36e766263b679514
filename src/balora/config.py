"""Flat ``key = value`` run configuration with typed parsing.

Unknown keys are rejected by name so config drift fails loudly. Blank
lines and ``#`` comments are allowed. Each key is either ``task``,
``hidden``, ``adapter`` or ``mc_steps``, or a field of the task, adapter
or training dataclasses, which take their fields by name (:func:`_build`).
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

from .model import AdapterSpec
from .tasks import KINDS, SyntheticTask, _backbone_spec
from .tensor import DomainError
from .variational import MAX_STEPS, PriorConfig, TrainConfig, total_steps


class ConfigError(Exception):
    """Invalid configuration; ``key`` names the offending entry when known."""

    def __init__(self, message: str, key: str = ""):
        super().__init__(message)
        self.key = key


def _int(s: str) -> int:
    return int(s)


def _float(s: str) -> float:
    value = float(s)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _choice(*options):
    def parse(s: str) -> str:
        if s not in options:
            raise ValueError(f"must be one of {options}")
        return s
    return parse


def _int_list(s: str) -> tuple:
    if s.strip() == "":
        return ()
    return tuple(int(part) for part in s.split(","))


def _layers(s: str):
    if s.strip() == "all":
        return None
    return _int_list(s)


SCHEMA = {
    # task
    "task": (_choice(*KINDS), "heteroscedastic-regression"),
    "d_in": (_int, 6),
    "d_out": (_int, 1),
    "n_train": (_int, 512),
    "n_val": (_int, 128),
    "n_test": (_int, 256),
    "n_classes": (_int, 3),
    "noise_std": (_float, 0.1),
    "noise_base": (_float, 0.05),
    "noise_slope": (_float, 0.4),
    "shift_rank": (_int, 2),
    "shift_scale": (_float, 1.0),
    # model
    "hidden": (_int_list, (32, 32)),
    "adapter": (_choice("balora", "lora"), "balora"),
    "adapt_layers": (_layers, None),
    "rank": (_int, 4),
    "lora_alpha": (_float, 8.0),
    "init_std": (_float, 0.02),
    "init_alpha": (_float, 0.05),
    "alphanet_hidden": (_int_list, (16, 16)),
    "alpha_min": (_float, 1e-6),
    "alpha_max": (_float, 1e3),
    # objective
    "prior_p": (_float, 0.5),
    "kl_weight": (_float, 1.0),
    "nll": (_choice("gaussian", "l1"), "gaussian"),
    # optimization
    "lr": (_float, 1e-2),
    "epochs": (_int, 10),
    "batch_size": (_int, 64),
    "warmup_fraction": (_float, 0.1),
    "weight_decay": (_float, 0.0),
    "grad_clip_norm": (_float, 1.0),
    "seed": (_int, 0),
    "pretrain_lr": (_float, 1e-2),
    "pretrain_epochs": (_int, 30),
    "pretrain_batch_size": (_int, 64),
    # evaluation
    "mc_steps": (_int, 100),
}


def parse_config(text: str) -> dict:
    cfg = {key: default for key, (_, default) in SCHEMA.items()}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key: {key}", key=key)
        parser, _ = SCHEMA[key]
        try:
            cfg[key] = parser(value)
        except ValueError as err:
            raise ConfigError(f"invalid value for {key}: {value!r} ({err})", key=key) from err
    return cfg


def load_config(path) -> dict:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    return parse_config(path.read_text())


def config_to_json(cfg: dict) -> dict:
    """JSON-ready copy of a parsed config (tuples become lists)."""
    return {k: (list(v) if isinstance(v, tuple) else v) for k, v in cfg.items()}


# JSON types each value parser accepts; the choice parsers take strings.
_JSON_TYPES = {_int: (int,), _float: (int, float), _int_list: (list,),
               _layers: (list, type(None))}


def config_from_json(stored) -> dict:
    """Inverse of :func:`config_to_json`, as strict as :func:`parse_config`:
    unknown keys and values of the wrong JSON type raise ``ConfigError``."""
    if not isinstance(stored, dict):
        raise ConfigError(f"config must be a JSON object, got {type(stored).__name__}")
    cfg = parse_config("")
    for key, value in stored.items():
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key: {key}", key=key)
        parser, _ = SCHEMA[key]
        if type(value) not in _JSON_TYPES.get(parser, (str,)) or (
                type(value) is list and any(type(v) is not int for v in value)):
            raise ConfigError(f"invalid value for {key}: {value!r}", key=key)
        text = "all" if value is None else \
            ",".join(map(str, value)) if type(value) is list else str(value)
        try:
            cfg[key] = parser(text)
        except ValueError as err:
            raise ConfigError(f"invalid value for {key}: {value!r} ({err})", key=key) from err
    return cfg


# -- dataclass builders -----------------------------------------------------


def _build(cls, cfg: dict, prefix: str = "", **given):
    """``cls`` with the fields in ``given`` and every other field from the key
    ``prefix + name`` if the config has one, else ``name``. A value the
    dataclass rejects as out of range is a ``ConfigError`` (exit 2)."""
    for f in dataclasses.fields(cls):
        if f.name not in given:
            given[f.name] = cfg[prefix + f.name if prefix + f.name in cfg else f.name]
    try:
        return cls(**given)
    except DomainError as err:
        raise ConfigError(f"out-of-range config value: {err}") from err


def task_from_config(cfg: dict) -> SyntheticTask:
    """The task, after checking that it and ``hidden`` give every backbone
    layer a positive width."""
    task = _build(SyntheticTask, cfg, kind=cfg["task"])
    try:
        _backbone_spec(task, cfg["hidden"])
    except DomainError as err:
        raise ConfigError(f"out-of-range config value: {err}") from err
    return task


def adapter_spec_from_config(cfg: dict) -> AdapterSpec:
    """The adapter spec, after checking that ``adapt_layers`` names one or
    more layers of the ``len(hidden) + 1``-layer backbone."""
    n_layers = len(cfg["hidden"]) + 1
    layers = cfg["adapt_layers"]
    if layers == () or any(not 0 <= i < n_layers for i in layers or ()):
        raise ConfigError(f"out-of-range config value: adapt_layers {layers} must name one "
                          f"or more of the {n_layers} backbone layers", key="adapt_layers")
    return _build(AdapterSpec, cfg)


def train_configs_from_config(cfg: dict):
    """The pretraining and adaptation configs and the prior. ``mc_steps`` and
    each phase's step count are checked here too, so a run that ``eval --mode
    mc`` or ``train_model`` would reject never trains."""
    if cfg["mc_steps"] < 2:
        raise ConfigError(f"out-of-range config value: mc_steps {cfg['mc_steps']} is below "
                          f"the 2 draws a Monte Carlo variance needs", key="mc_steps")
    for key in ("pretrain_lr", "pretrain_epochs", "pretrain_batch_size"):
        if not cfg[key] > 0:
            raise ConfigError(f"out-of-range config value: {key} must be positive, "
                              f"got {cfg[key]}", key=key)
    # No key is pretrain_grad_clip_norm or pretrain_nll: both phases share them.
    pretrain = _build(TrainConfig, cfg, "pretrain_", kl_weight=0.0, warmup_fraction=0.0,
                      weight_decay=0.0)
    adapt = _build(TrainConfig, cfg)
    # Both phases train on the n_train rows of their split.
    for prefix, phase in (("pretrain_", pretrain), ("", adapt)):
        steps = total_steps(cfg["n_train"], phase)
        if steps > MAX_STEPS:
            raise ConfigError(f"out-of-range config value: n_train, {prefix}epochs and "
                              f"{prefix}batch_size give {steps} training steps, above the "
                              f"{MAX_STEPS} a phase may take", key=f"{prefix}epochs")
    prior = _build(PriorConfig, cfg, "prior_")
    return pretrain, adapt, prior
