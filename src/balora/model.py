"""Toy backbones and adapter-equipped models.

Backbones are small GELU MLPs that get pretrained on a source split and
then frozen; adapters are attached to a configurable subset of the linear
layers. The stochastic forward takes one latent noise vector per sample
per adapted layer (drawn by ``AdaptedModel.draw_eps``) and keeps the whole
path on the gradient tape, so the training objective differentiates
through the sampler by reparametrization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import adapter as A
from . import tensor as T
from .adapter import ALPHA_MAX, ALPHA_MIN, AlphaNet, BaLoRALayer
from .rng import Rng
from .tensor import DomainError, ShapeError, Tensor

# Rows per stochastic forward block in ``predict_stochastic``. A block's
# width-256 activation is 2 MB, about the size of L2, and 1024 rows are
# enough to amortize per-op overhead.
_BLOCK_ROWS = 1024


@dataclass
class BackboneSpec:
    d_in: int
    d_out: int
    hidden: tuple = (32, 32)
    head: str = "regression"  # or "classification"

    def __post_init__(self):
        if min(self.widths()) < 1:
            raise DomainError(f"layer widths must be positive, got {self.widths()}")

    def widths(self) -> list[int]:
        return [self.d_in, *self.hidden, self.d_out]


@dataclass
class AdapterSpec:
    rank: int = 4
    lora_alpha: float = 8.0
    init_std: float = 0.02
    adapt_layers: Optional[tuple] = None  # None = all linear layers
    alphanet_hidden: tuple = (16, 16)
    alpha_min: float = ALPHA_MIN
    alpha_max: float = ALPHA_MAX
    init_alpha: float = 0.05

    def __post_init__(self):
        if self.rank < 1 or self.init_std <= 0 or min(self.alphanet_hidden, default=1) < 1:
            raise DomainError("rank, init_std and alphanet_hidden widths must be positive")
        if not 0.0 < self.alpha_min <= self.alpha_max:
            raise DomainError(f"need 0 < alpha_min <= alpha_max, got "
                              f"{self.alpha_min}, {self.alpha_max}")


class ToyBackbone:
    """GELU MLP with explicit weight/bias tensors per linear layer."""

    def __init__(self, spec: BackboneSpec, rng: Rng):
        self.spec = spec
        self.weights: list[Tensor] = []
        self.biases: list[Tensor] = []
        widths = spec.widths()
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            self.weights.append(Tensor(rng.normal((fan_out, fan_in)) / np.sqrt(fan_in),
                                       requires_grad=True))
            self.biases.append(Tensor(np.zeros(fan_out), requires_grad=True))
        self.frozen = False

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def trainables(self) -> list[Tensor]:
        return [] if self.frozen else [*self.weights, *self.biases]

    def parameters(self) -> list[Tensor]:
        return [*self.weights, *self.biases]

    def freeze(self) -> None:
        """Detach every backbone parameter from the tape permanently."""
        self.weights = [w.detach() for w in self.weights]
        self.biases = [b.detach() for b in self.biases]
        self.frozen = True

    def hidden(self, x: Tensor) -> Tensor:
        """Representation entering the output layer (AlphaNet features)."""
        h = x
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            h = T.gelu(T.linear(h, w, b))
        return h


class AdaptedModel:
    """Frozen backbone plus adapters, optional AlphaNet, and a likelihood head.

    ``kind`` is "balora" (stochastic adapters with input-adaptive noise)
    or "lora" (plain deterministic adapters). Regression heads carry a
    trainable homoscedastic observation-noise parameter ``log_sigma``.
    """

    def __init__(self, backbone: ToyBackbone, adapters: dict[int, BaLoRALayer],
                 alphanet: Optional[AlphaNet], kind: str):
        if kind not in ("balora", "lora"):
            raise DomainError(f"unknown adapter kind: {kind}")
        if kind == "balora" and alphanet is None:
            raise DomainError("balora models need an AlphaNet")
        if kind == "balora" and alphanet.num_layers != len(adapters):
            raise ShapeError(
                f"AlphaNet emits {alphanet.num_layers} scales for {len(adapters)} adapters")
        self.backbone = backbone
        self.adapters = dict(sorted(adapters.items()))
        self.alphanet = alphanet
        self.kind = kind
        self.head = backbone.spec.head
        self.log_sigma = Tensor(np.log(0.5), requires_grad=True) \
            if self.head == "regression" else None
        # Fixed order of adapted layer indices; AlphaNet output column i
        # corresponds to adapted_layers[i].
        self.adapted_layers = list(self.adapters.keys())

    # -- parameter plumbing ------------------------------------------------

    def trainables(self) -> list[Tensor]:
        params: list[Tensor] = []
        for layer in self.adapters.values():
            params.extend(layer.trainables())
        if self.alphanet is not None:
            params.extend(self.alphanet.trainables())
        if self.log_sigma is not None:
            params.append(self.log_sigma)
        params.extend(self.backbone.trainables())
        return params

    def sigma_obs(self) -> float:
        return float(np.exp(self.log_sigma.data)) if self.log_sigma is not None else 0.0

    # -- alpha path ----------------------------------------------------------

    def alpha_features(self, X: np.ndarray) -> np.ndarray:
        """Feature vectors driving the noise scales (computed off-tape).

        Regression uses the raw input; classification uses the frozen
        backbone's last hidden representation, standing in for a
        pretrained feature extractor.
        """
        with T.no_grad():
            if self.head == "regression":
                return np.asarray(X, dtype=np.float64)
            return self.backbone.hidden(Tensor(X)).data

    def alphas(self, X: np.ndarray) -> Tensor:
        feats = Tensor(self.alpha_features(X))
        return A.alpha_forward(self.alphanet, feats)

    # -- forward passes --------------------------------------------------------

    def forward(self, X, alphas: Optional[Tensor] = None,
                eps: Optional[list[np.ndarray]] = None) -> Tensor:
        """Batched forward. Without ``eps`` this is the posterior-mean forward,
        identical to the merged weights. With ``eps`` it is stochastic: ``eps``
        holds one ``(n, r)`` noise array per adapted layer, in
        ``adapted_layers`` order (see :meth:`draw_eps`). eps enters as a
        constant, so gradients flow through the noise scale, WA, and WB only."""
        x = X if isinstance(X, Tensor) else Tensor(np.atleast_2d(np.asarray(X, dtype=np.float64)))
        if x.ndim != 2:
            raise ShapeError(f"model forward expects a batch matrix, got {x.shape}")
        stochastic = eps is not None
        if stochastic:
            if self.kind != "balora":
                raise DomainError("stochastic forward requires a balora model")
            shapes = [(x.shape[0], layer.rank) for layer in self.adapters.values()]
            got = [np.shape(e) for e in eps]
            if got != shapes:
                raise ShapeError(f"eps shapes {got} do not fit {shapes}")
            if alphas is None:
                alphas = self.alphas(x.data)
        h = x
        last = self.backbone.n_layers - 1
        for i, (w, b) in enumerate(zip(self.backbone.weights, self.backbone.biases)):
            layer = self.adapters.get(i)
            if layer is None:
                h = T.linear(h, w, b)
            elif stochastic:
                col = self.adapted_layers.index(i)
                h = A.adapted_linear(layer, h, b, alphas, col, eps[col])
            else:
                h = A.adapted_linear(layer, h, b)
            if i != last:
                h = T.gelu(h)
        return h

    def draw_eps(self, n: int, rng: Rng) -> list[np.ndarray]:
        """One ``(n, r)`` standard-normal array per adapted layer, in
        ``adapted_layers`` order: the noise of a stochastic :meth:`forward`."""
        if self.kind != "balora":
            raise DomainError("stochastic forward requires a balora model")
        return [rng.normal((n, layer.rank)) for layer in self.adapters.values()]

    def merged_weights(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-layer (weight, bias) with adapters folded into the base weights."""
        merged = []
        for i, (w, b) in enumerate(zip(self.backbone.weights, self.backbone.biases)):
            layer = self.adapters.get(i)
            wd = A.merge_weights(layer).data if layer is not None else w.data
            merged.append((wd, b.data))
        return merged

    def merged_forward(self, X: np.ndarray) -> np.ndarray:
        """Pure-numpy forward through the merged weights (zero-overhead mode)."""
        h = np.atleast_2d(np.asarray(X, dtype=np.float64))
        layers = self.merged_weights()
        for i, (w, b) in enumerate(layers):
            h = h @ w.T + b
            if i != len(layers) - 1:
                h = h * T.gelu_gate(h)
        return h

    # -- prediction conveniences (off-tape) --------------------------------------

    def predict(self, X: np.ndarray) -> np.ndarray:
        with T.no_grad():
            return self.forward(np.asarray(X, dtype=np.float64)).data

    def predict_stochastic(self, X: np.ndarray, rng: Rng,
                           alphas: Optional[np.ndarray] = None) -> np.ndarray:
        """Stochastic forward of every row of ``X``, off the tape.

        The noise is drawn once for all rows, then the rows run through
        :meth:`forward` in blocks of ``_BLOCK_ROWS``, so activation memory does
        not grow with the row count.
        """
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        n = X.shape[0]
        eps = self.draw_eps(n, rng)
        with T.no_grad():
            a = self.alphas(X).data if alphas is None else np.asarray(alphas)
            out = np.empty((n, self.backbone.spec.d_out))
            for lo in range(0, n, _BLOCK_ROWS):
                blk = slice(lo, lo + _BLOCK_ROWS)
                out[blk] = self.forward(X[blk], alphas=Tensor(a[blk] if a.ndim == 2 else a),
                                        eps=[e[blk] for e in eps]).data
        return out


def attach_adapters(backbone: ToyBackbone, aspec: AdapterSpec, kind: str,
                    rng: Rng) -> AdaptedModel:
    """Freeze the backbone and wire adapters (and AlphaNet for balora) onto it."""
    if not backbone.frozen:
        backbone.freeze()
    widths = backbone.spec.widths()
    indices = aspec.adapt_layers
    if indices is None:
        indices = tuple(range(backbone.n_layers))
    adapters: dict[int, BaLoRALayer] = {}
    for j, idx in enumerate(sorted(set(int(i) for i in indices))):
        if not 0 <= idx < backbone.n_layers:
            raise DomainError(f"adapter index {idx} out of range")
        d, k = widths[idx], widths[idx + 1]
        r = min(aspec.rank, min(d, k))
        adapters[idx] = A.init_layer(
            rng.stream_of(j), d=d, k=k, r=r, init_std=aspec.init_std,
            w0=backbone.weights[idx], lora_scale=aspec.lora_alpha / r)
    alphanet = None
    if kind == "balora":
        feature_dim = backbone.spec.d_in if backbone.spec.head == "regression" \
            else widths[-2]
        alphanet = A.init_alphanet(
            rng.stream_of(10_000), feature_dim=feature_dim, num_layers=len(adapters),
            hidden_dims=aspec.alphanet_hidden, alpha_min=aspec.alpha_min,
            alpha_max=aspec.alpha_max, init_alpha=aspec.init_alpha)
    return AdaptedModel(backbone, adapters, alphanet, kind)
