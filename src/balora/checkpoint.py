"""Checkpoint container: JSON header plus raw little-endian float64 arrays.

Layout: 8-byte magic, uint64-LE header length, UTF-8 JSON header, then the
arrays back to back in the order declared by the header's ``arrays``
manifest. The one kind, ``model``, describes a full backbone + adapters +
head: the backbone's widths and head, {d, k, r, lora_scale} per adapted
layer, the AlphaNet's shape and clamp, and the run's ``extra`` (its
config). Its arrays are the backbone's weights and biases, each adapter's
WA and WB, the AlphaNet's weights and biases, and ``log_sigma`` for
regression heads. Headers written before the adapters dropped their
per-layer clamp and seed still carry ``alpha_min``, ``alpha_max`` and
``seed`` in each adapter entry; loading ignores them.

Loading checks the header against this schema (required keys, their JSON
types, and every array's name and shape against the declared widths and
ranks) before reading any array or building any object; every violation
raises ``CheckpointError``. The model is then built from the arrays, drawing nothing.

Every artifact of a run, this container included, is written through
:func:`atomic_open`, so a reader sees either the old file or the whole new one.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
import threading
from typing import Optional

import numpy as np

from .adapter import AlphaNet, BaLoRALayer
from .model import AdaptedModel, BackboneSpec, ToyBackbone
from .tensor import Tensor, TensorError

MAGIC = b"BALORA1\n"


class CheckpointError(TensorError):
    """Unreadable, truncated, or inconsistent checkpoint file."""


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a temporary file beside ``path`` for writing. A clean exit
    ``os.replace``s it onto ``path``; an exception removes it and leaves
    ``path`` as it was. Keyword arguments go to :func:`open`."""
    directory, name = os.path.split(os.fspath(path))
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _write(path, header: dict, arrays: list[tuple[str, np.ndarray]]) -> None:
    header = dict(header)
    header["arrays"] = [{"name": name, "shape": list(arr.shape)} for name, arr in arrays]
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for _, arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read(path) -> tuple[dict, bytes]:
    """The JSON header (an object) and the array bytes that follow it."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as err:
        raise CheckpointError(f"cannot read checkpoint: {err}") from err
    if len(raw) < len(MAGIC) + 8 or raw[:len(MAGIC)] != MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    (hlen,) = struct.unpack("<Q", raw[len(MAGIC):len(MAGIC) + 8])
    start = len(MAGIC) + 8
    if start + hlen > len(raw):
        raise CheckpointError("truncated checkpoint header")
    try:
        header = json.loads(raw[start:start + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise CheckpointError(f"corrupt checkpoint header: {err}") from err
    if not isinstance(header, dict):
        raise CheckpointError(f"checkpoint header must be a JSON object, "
                              f"got {type(header).__name__}")
    return header, raw[start + hlen:]


def _arrays(header: dict, payload: bytes, expected: dict[str, tuple]) -> dict[str, np.ndarray]:
    """Slice ``payload`` into the arrays the header's manifest declares.

    The manifest must name exactly the arrays in ``expected``, each with
    its expected shape; this is checked before any bytes are read.
    """
    entries = header.get("arrays")
    if type(entries) is not list or not all(
            isinstance(e, dict) and type(e.get("name")) is str and type(e.get("shape")) is list
            for e in entries):
        raise CheckpointError("header arrays must be a list of {name, shape} objects")
    declared = {e["name"]: e["shape"] for e in entries}
    if len(declared) != len(entries):
        raise CheckpointError("header arrays declare a name twice")
    if declared.keys() != expected.keys():
        missing = sorted(expected.keys() - declared.keys())
        unexpected = sorted(declared.keys() - expected.keys())
        raise CheckpointError(f"checkpoint arrays do not match the header: "
                              f"missing {missing}, unexpected {unexpected}")
    for name, shape in declared.items():
        if not (all(type(s) is int for s in shape) and tuple(shape) == expected[name]):
            raise CheckpointError(f"array {name} has shape {shape!r:.60}, "
                                  f"expected {list(expected[name])}")
    arrays: dict[str, np.ndarray] = {}
    offset = 0
    for name, shape in declared.items():
        nbytes = math.prod(shape) * 8
        chunk = payload[offset:offset + nbytes]
        if len(chunk) != nbytes:
            raise CheckpointError(f"truncated array data for {name}")
        arr = np.frombuffer(chunk, dtype="<f8").reshape(shape).astype(np.float64)
        if not np.isfinite(arr).all():
            raise CheckpointError(f"array {name} holds non-finite values")
        arrays[name] = arr
        offset += nbytes
    if offset != len(payload):
        raise CheckpointError("trailing bytes after declared arrays")
    return arrays


# -- header schema --------------------------------------------------------------
# Each field kind is (predicate, description). ``type(v) is int`` keeps JSON
# booleans out of integer fields.

_COUNT = (lambda v: type(v) is int and v >= 1, "a positive integer")
_COUNTS = (lambda v: type(v) is list and all(type(x) is int and x >= 1 for x in v),
           "a list of positive integers")
_NUMBER = (lambda v: type(v) in (int, float) and math.isfinite(v), "a finite number")
_BOOL = (lambda v: type(v) is bool, "true or false")
_OBJECT = (lambda v: isinstance(v, dict), "a JSON object")


def _one_of(*options):
    return (lambda v: type(v) is str and v in options, f"one of {options}")


def _field(meta: dict, key: str, kind, where: str):
    if key not in meta:
        raise CheckpointError(f"{where}: missing {key}")
    ok, what = kind
    if not ok(meta[key]):
        raise CheckpointError(f"{where}: {key} must be {what}, got {meta[key]!r:.60}")
    return meta[key]


def _check_kind(header: dict, kind: str) -> None:
    if header.get("kind") != kind:
        raise CheckpointError(f"expected a {kind} checkpoint, got kind={header.get('kind')!r:.60}")


def _layer_meta(meta: dict, where: str) -> tuple[int, int, dict]:
    """Validated ``(d, k, BaLoRALayer keyword arguments)``."""
    d, k, r = (_field(meta, key, _COUNT, where) for key in ("d", "k", "r"))
    if r > min(d, k):
        raise CheckpointError(f"{where}: rank {r} exceeds min(d, k) = {min(d, k)}")
    return d, k, {"rank": r, "lora_scale": float(_field(meta, "lora_scale", _NUMBER, where))}


def _dense_shapes(prefix: str, widths: list) -> dict[str, tuple]:
    """Shapes of the weights ``{prefix}.w<i>`` and biases ``{prefix}.b<i>`` of
    an MLP with the given layer widths."""
    shapes = {}
    for i, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
        shapes[f"{prefix}.w{i}"] = (fan_out, fan_in)
        shapes[f"{prefix}.b{i}"] = (fan_out,)
    return shapes


def _dense_arrays(prefix: str, weights: list, biases: list) -> list[tuple[str, np.ndarray]]:
    """The arrays ``{prefix}.w<i>`` and ``{prefix}.b<i>`` of an MLP, in file order."""
    arrays = []
    for i, (w, b) in enumerate(zip(weights, biases)):
        arrays += [(f"{prefix}.w{i}", w.data), (f"{prefix}.b{i}", b.data)]
    return arrays


def _dense_tensors(prefix: str, arrays: dict, n_layers: int,
                   requires_grad: bool) -> tuple[list, list]:
    """Inverse of :func:`_dense_arrays`: the weight tensors and the bias tensors."""
    weights = [Tensor(arrays[f"{prefix}.w{i}"], requires_grad=requires_grad)
               for i in range(n_layers)]
    biases = [Tensor(arrays[f"{prefix}.b{i}"], requires_grad=requires_grad)
              for i in range(n_layers)]
    return weights, biases


def _alphanet_meta_checked(header: dict) -> tuple[dict, dict[str, tuple]]:
    """Validated AlphaNet keyword arguments and the shapes of its arrays."""
    meta = _field(header, "alphanet", _OBJECT, "header")
    lo = float(_field(meta, "alpha_min", _NUMBER, "alphanet"))
    hi = float(_field(meta, "alpha_max", _NUMBER, "alphanet"))
    if not 0.0 < lo <= hi:
        raise CheckpointError(f"alphanet: need 0 < alpha_min <= alpha_max, got {lo}, {hi}")
    f, n = (_field(meta, key, _COUNT, "alphanet") for key in ("feature_dim", "num_layers"))
    hidden = _field(meta, "hidden_dims", _COUNTS, "alphanet")
    kwargs = {"feature_dim": f, "num_layers": n, "hidden_dims": tuple(hidden),
              "alpha_min": lo, "alpha_max": hi}
    return kwargs, _dense_shapes("alphanet", [f, *hidden, n])


def _load_alphanet(kwargs: dict, arrays: dict) -> AlphaNet:
    weights, biases = _dense_tensors("alphanet", arrays, len(kwargs["hidden_dims"]) + 1,
                                     requires_grad=True)
    return AlphaNet(**kwargs, weights=weights, biases=biases)


# -- full model -------------------------------------------------------------------


def save_model(path, model: AdaptedModel, extra: Optional[dict] = None) -> None:
    spec = model.backbone.spec
    header = {
        "kind": "model",
        "adapter_kind": model.kind,
        "backbone": {"d_in": spec.d_in, "d_out": spec.d_out,
                     "hidden": list(spec.hidden), "head": spec.head},
        "adapters": {str(i): {"d": l.d, "k": l.k, "r": l.rank, "lora_scale": l.lora_scale}
                     for i, l in model.adapters.items()},
        "has_log_sigma": model.log_sigma is not None,
        "extra": extra or {},
    }
    arrays = _dense_arrays("backbone", model.backbone.weights, model.backbone.biases)
    for i, layer in model.adapters.items():
        arrays.append((f"adapter{i}.WA", layer.WA.data))
        arrays.append((f"adapter{i}.WB", layer.WB.data))
    net = model.alphanet
    if net is not None:
        header["alphanet"] = {"feature_dim": net.feature_dim, "num_layers": net.num_layers,
                              "hidden_dims": list(net.hidden_dims),
                              "alpha_min": net.alpha_min, "alpha_max": net.alpha_max}
        arrays += _dense_arrays("alphanet", net.weights, net.biases)
    if model.log_sigma is not None:
        arrays.append(("log_sigma", model.log_sigma.data))
    _write(path, header, arrays)


def load_model(path) -> tuple[AdaptedModel, dict]:
    header, payload = _read(path)
    _check_kind(header, "model")
    kind = _field(header, "adapter_kind", _one_of("balora", "lora"), "header")
    meta = _field(header, "backbone", _OBJECT, "header")
    spec = BackboneSpec(d_in=_field(meta, "d_in", _COUNT, "backbone"),
                        d_out=_field(meta, "d_out", _COUNT, "backbone"),
                        hidden=tuple(_field(meta, "hidden", _COUNTS, "backbone")),
                        head=_field(meta, "head", _one_of("regression", "classification"),
                                    "backbone"))
    widths = spec.widths()
    shapes = _dense_shapes("backbone", widths)
    layer_kwargs = {}
    for key, ameta in _field(header, "adapters", _OBJECT, "header").items():
        where = f"adapters[{key!r}]"
        if key not in {str(i) for i in range(len(widths) - 1)}:
            raise CheckpointError(f"{where}: not a backbone layer index")
        if not isinstance(ameta, dict):
            raise CheckpointError(f"{where} must be a JSON object")
        i = int(key)
        d, k, kwargs = _layer_meta(ameta, where)
        if (d, k) != (widths[i], widths[i + 1]):
            raise CheckpointError(f"{where}: (d, k) = ({d}, {k}) does not match backbone "
                                  f"layer {i} ({widths[i]}, {widths[i + 1]})")
        shapes[f"adapter{i}.WA"] = (kwargs["rank"], d)
        shapes[f"adapter{i}.WB"] = (k, kwargs["rank"])
        layer_kwargs[i] = kwargs
    if _field(header, "has_log_sigma", _BOOL, "header") != (spec.head == "regression"):
        raise CheckpointError("has_log_sigma must be true exactly for regression heads")
    if spec.head == "regression":
        shapes["log_sigma"] = ()
    net_kwargs = None
    if "alphanet" in header or kind == "balora":
        net_kwargs, net_shapes = _alphanet_meta_checked(header)
        feature_dim = spec.alpha_feature_dim
        if (net_kwargs["feature_dim"], net_kwargs["num_layers"]) != (feature_dim,
                                                                      len(layer_kwargs)):
            raise CheckpointError(
                f"alphanet maps {net_kwargs['feature_dim']} features to "
                f"{net_kwargs['num_layers']} scales; the model needs {feature_dim} "
                f"features and {len(layer_kwargs)} scales")
        shapes.update(net_shapes)
    extra = _field(header, "extra", _OBJECT, "header") if "extra" in header else {}
    arrays = _arrays(header, payload, shapes)

    backbone = ToyBackbone(spec, *_dense_tensors("backbone", arrays, len(widths) - 1,
                                                 requires_grad=False), frozen=True)
    adapters = {i: BaLoRALayer(W0=backbone.weights[i],
                               WA=Tensor(arrays[f"adapter{i}.WA"], requires_grad=True),
                               WB=Tensor(arrays[f"adapter{i}.WB"], requires_grad=True),
                               **kwargs)
                for i, kwargs in layer_kwargs.items()}
    alphanet = _load_alphanet(net_kwargs, arrays) if net_kwargs is not None else None
    model = AdaptedModel(backbone, adapters, alphanet, kind)
    if spec.head == "regression":
        model.log_sigma = Tensor(arrays["log_sigma"], requires_grad=True)
    return model, extra
