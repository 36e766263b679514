"""Toy backbones and adapter-equipped models.

Backbones are small GELU MLPs that get pretrained on a source split and
then frozen; adapters are attached to a configurable subset of the linear
layers. The stochastic forward takes one latent noise vector per sample
per adapted layer (drawn by ``AdaptedModel.draw_eps``) and is one tape
node, so the training objective differentiates through the sampler by
reparametrization. ``predict_stochastic``, its untaped counterpart, draws
every Monte Carlo sample and runs what does not depend on the draw once.
Every forward, taped or not (``forward``, the frozen prefix, alpha
features, ``predict``, ``merged_forward``, Monte Carlo blocks), is one
plain-numpy walk over a per-layer plan (:meth:`AdaptedModel._plan`). The
walk and its reverse live in ``balora.adapter`` (``walk``, ``walk_vjp``),
beside the layer math they call and the AlphaNet that walks too; the taped
forward keeps what the reverse walk reads.
"""

from __future__ import annotations

import contextvars
import functools
import os
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import blas_pinned
from . import adapter as A
from . import tensor as T
from .adapter import ALPHA_MAX, ALPHA_MIN, AlphaNet, BaLoRALayer
from .rng import Rng
from .tensor import DomainError, ShapeError, Tensor

# Draw rows per noise chunk of ``predict_stochastic``: the noise it holds at once.
_MAX_ROWS = 1 << 22

# Draw rows per block of ``predict_stochastic``. Each worker thread runs its
# blocks in two reused buffers of this many rows by the widest layer, 1 MB
# each at width 256. 512 rows amortize per-op overhead, and two workers then
# hold 1024 draw rows in flight, which keeps the wide model's peak memory
# within a few MB of one thread's.
_BLOCK_ROWS = 512

# GELUs per draw row that a block must evaluate before it runs on more than
# one thread. Below this a block's numpy calls are so short that passing the
# interpreter lock between threads costs more than a second CPU saves: on a
# 2-CPU Xeon, all layers adapted, 25,600 draw rows of a 16 -> w -> w -> 1 model ran
# 36% slower on two threads at w = 32 and 35% faster at w = 128, and with only
# the output layer adapted (no GELU in the blocks) about twice as slow.
_MIN_GELUS_PER_ROW = 256


def _cpu_workers() -> int:
    """Threads the Monte Carlo evaluator may use: every CPU this process may
    run on when the BLAS is pinned to one thread, else 1, because an unpinned
    BLAS already runs its own thread pool."""
    if not blas_pinned():
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _run_all(jobs) -> None:
    """Call every job at once: the first in this thread, each other on a
    thread of its own. Every job runs in a copy of this thread's context, so
    ``np.errstate`` holds in all of them. All threads are joined before the
    first exception, in job order, is raised."""
    errors = [None] * len(jobs)

    def run(i, ctx):
        try:
            ctx.run(jobs[i])
        except BaseException as err:  # re-raised below, after the join
            errors[i] = err

    threads = [threading.Thread(target=run, args=(i, contextvars.copy_context()))
               for i in range(1, len(jobs))]
    for t in threads:
        t.start()
    run(0, contextvars.copy_context())
    for t in threads:
        t.join()
    for err in errors:
        if err is not None:
            raise err


@dataclass
class BackboneSpec:
    d_in: int
    d_out: int
    hidden: tuple = (32, 32)
    head: str = "regression"  # or "classification"

    def __post_init__(self):
        if min(self.widths()) < 1:
            raise DomainError(f"layer widths (d_in, hidden, output) must be positive, "
                              f"got {self.widths()}")

    def widths(self) -> list[int]:
        return [self.d_in, *self.hidden, self.d_out]

    @property
    def alpha_feature_dim(self) -> int:
        """Width of the AlphaNet's rows, :meth:`AdaptedModel.alpha_features`."""
        return self.d_in if self.head == "regression" else self.widths()[-2]


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
        if self.lora_alpha <= 0:
            raise DomainError(f"lora_alpha must be positive, got {self.lora_alpha}")
        if not 0.0 < self.alpha_min <= self.alpha_max:
            raise DomainError(f"need 0 < alpha_min <= alpha_max, got "
                              f"{self.alpha_min}, {self.alpha_max}")
        if not self.alpha_min <= self.init_alpha <= self.alpha_max:
            raise DomainError(f"init_alpha {self.init_alpha} outside [alpha_min, alpha_max] "
                              f"= [{self.alpha_min}, {self.alpha_max}]")


class ToyBackbone:
    """GELU MLP of ``spec`` over the weight and bias tensors it is given, one
    each per linear layer. :func:`init_backbone` draws a fresh one."""

    def __init__(self, spec: BackboneSpec, weights: list, biases: list, frozen: bool = False):
        self.spec = spec
        self.weights = weights
        self.biases = biases
        self.frozen = frozen

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


def init_backbone(spec: BackboneSpec, rng: Rng) -> ToyBackbone:
    """Fresh trainable backbone: weights ``N(0, 1 / fan_in)``, drawn from
    ``rng`` layer by layer, and zero biases."""
    widths = spec.widths()
    weights = [Tensor(rng.normal((fan_out, fan_in)) / np.sqrt(fan_in), requires_grad=True)
               for fan_in, fan_out in zip(widths[:-1], widths[1:])]
    biases = [Tensor(np.zeros(fan_out), requires_grad=True) for fan_out in widths[1:]]
    return ToyBackbone(spec, weights, biases)


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
        if kind == "balora" and not backbone.frozen:
            raise DomainError("balora models need a frozen backbone")
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

    @property
    def prefix_layers(self) -> int:
        """Number of leading backbone layers before the first adapted one:
        the frozen prefix, which does not depend on the noise."""
        return min(self.adapted_layers, default=self.backbone.n_layers - 1)

    def frozen_prefix(self, X: np.ndarray) -> np.ndarray:
        """Activation entering the first adapted layer, computed off the
        tape. The alpha features and every stochastic forward of the same
        rows continue from it, so it runs once per input row."""
        return A.walk(self._plan(0, self.prefix_layers, {}), np.asarray(X, dtype=np.float64))

    def alpha_features(self, X: np.ndarray, prefix: Optional[np.ndarray] = None) -> np.ndarray:
        """Feature vectors driving the noise scales (computed off-tape).

        Regression uses the raw input; classification uses the frozen
        backbone's last hidden representation, standing in for a pretrained
        feature extractor (:attr:`BackboneSpec.alpha_feature_dim` wide).
        ``prefix`` is :meth:`frozen_prefix` of ``X`` when the caller has it.
        """
        if self.head == "regression":
            return np.asarray(X, dtype=np.float64)
        if prefix is None:
            prefix = self.frozen_prefix(X)
        return A.walk(self._plan(self.prefix_layers, self.backbone.n_layers - 1, {}), prefix)

    def alphas(self, X: np.ndarray, prefix: Optional[np.ndarray] = None) -> Tensor:
        feats = Tensor(self.alpha_features(X, prefix))
        return A.alpha_forward(self.alphanet, feats)

    # -- forward passes --------------------------------------------------------

    def forward(self, X: np.ndarray, alphas: Optional[Tensor] = None,
                eps: Optional[list[np.ndarray]] = None,
                prefix: Optional[np.ndarray] = None) -> Tensor:
        """Batched forward. Without ``eps`` this is the posterior-mean forward,
        identical to the merged weights. With ``eps`` it is stochastic: ``eps``
        holds one ``(n, r)`` noise array per adapted layer, in
        ``adapted_layers`` order (see :meth:`draw_eps`), at the noise scales
        ``alphas`` (by default :meth:`alphas` of ``X``). eps enters as a
        constant, so gradients flow through the noise scale, WA, and WB only.
        A ``prefix`` from :meth:`frozen_prefix` of ``X`` (frozen backbone
        only) replaces the layers before the first adapted one. The network is
        one tape node over :meth:`network`, and this is where its inputs are
        checked: rows of the wrong width and ``eps`` or ``alphas`` that do not
        fit raise :class:`ShapeError`, noise on a lora model and a negative
        alpha :class:`DomainError`."""
        start = 0 if prefix is None else self.prefix_layers
        h = self._rows(X if prefix is None else prefix, start)
        if eps is not None:
            if self.kind != "balora":
                raise DomainError("stochastic forward requires a balora model")
            if alphas is None:
                alphas = self.alphas(h if prefix is None else X, prefix)
            shapes = [(len(h), layer.rank) for layer in self.adapters.values()]
            got = [np.shape(e) for e in eps]
            if got != shapes:
                raise ShapeError(f"eps shapes {got} do not fit {shapes}")
            if alphas.shape != (len(h), len(self.adapters)):
                raise ShapeError(f"alphas {alphas.shape} do not fit {shapes}")
            if (alphas.data < 0.0).any():
                raise DomainError("alpha must be non-negative")
        out, params, vjp = self.network(h, None if eps is None else alphas.data, eps,
                                        None if prefix is None else h)
        scales = [] if eps is None else [alphas]
        return Tensor._from_op(out, [p for ps in params for p in ps] + scales, vjp,
                               "the taped forward")

    def network(self, X: np.ndarray, alphas: Optional[np.ndarray] = None,
                eps: Optional[list[np.ndarray]] = None,
                prefix: Optional[np.ndarray] = None):
        """The forward of :meth:`forward` in plain numpy, at noise scales
        ``alphas`` (an ``(n, L)`` array, read only with ``eps``): a
        :func:`~balora.adapter.walk` that keeps its tape. Returns the output,
        the parameters per layer (its weight, or an adapter's WA and WB, then
        its bias) and their VJP, :func:`~balora.adapter.walk_vjp`: from the
        output's cotangent, one per parameter, flat, then with ``eps`` that of
        ``alphas``.

        It trusts its caller and checks nothing: the rows (``prefix`` when
        given, else ``X``) are a float64 batch matrix of the starting layer's
        width, and ``eps`` and ``alphas`` fit them, as :meth:`forward` and
        ``balora.variational.elbo_step`` make sure before they call it."""
        start = 0 if prefix is None else self.prefix_layers
        h = X if prefix is None else prefix
        if eps is None:
            alphas = None
        plan = self._plan(start, self.backbone.n_layers, self.adapters)
        params = [((self.backbone.weights[i],) if layer is None else (layer.WA, layer.WB))
                  + (self.backbone.biases[i],) for i, (_, _, layer, _, _) in enumerate(plan, start)]
        tape: list = []
        out = A.walk(plan, h, None, alphas, eps, tape=tape)
        return out, params, lambda g: A.walk_vjp(plan, tape, g, params, alphas)

    def draw_eps(self, n: int, rng: Rng) -> list[np.ndarray]:
        """One ``(n, r)`` standard-normal array per adapted layer, in
        ``adapted_layers`` order: the noise of a stochastic :meth:`forward`.
        The arrays are consecutive views of one draw from ``rng``, so they
        hold what one draw per layer, in that order, would."""
        if self.kind != "balora":
            raise DomainError("stochastic forward requires a balora model")
        ranks = [layer.rank for layer in self.adapters.values()]
        flat = rng.normal(n * sum(ranks))
        eps, lo = [], 0
        for r in ranks:
            eps.append(flat[lo:lo + n * r].reshape(n, r))
            lo += n * r
        return eps

    def merged_forward(self, X: np.ndarray) -> np.ndarray:
        """Pure-numpy forward through the merged weights (zero-overhead mode):
        each adapter folded into its base weight (:func:`~balora.adapter.merge_weights`)."""
        plan = self._plan(0, self.backbone.n_layers, self.adapters)
        merged = [(w if layer is None else A.merge_weights(layer).data, b, None, None, gelu)
                  for w, b, layer, _, gelu in plan]
        return A.walk(merged, self._rows(X))

    # -- prediction conveniences (off-tape) --------------------------------------

    def predict(self, X: np.ndarray) -> np.ndarray:
        """The posterior-mean :meth:`forward` of ``X`` in plain numpy, bit for bit.
        NaN and Inf propagate through every op, so only the output is checked."""
        h = A.walk(self._plan(0, self.backbone.n_layers, self.adapters), self._rows(X))
        T.check_finite(h, "the posterior-mean forward")
        return h

    def predict_stochastic(self, X: np.ndarray, S: int, rng: Rng) -> np.ndarray:
        """``S`` stochastic forwards of every row of ``X``, off the tape: an
        ``(S, B, k)`` array. Every Monte Carlo draw comes from here. No rows,
        rows of the wrong width, or an ``S`` not a positive integer (nor a
        bool) raise before any work.

        The draws go in chunks of whole draws, at most ``_MAX_ROWS`` rows (or
        one draw) each. Chunk ``c`` has the noise of :meth:`forward` on ``X``
        tiled over its draws, ``draw_eps`` from ``rng.stream_of(c)``, whose row
        ``j`` is draw ``j // B`` of input ``j % B``. What does not depend on the
        draw runs once per call: the frozen prefix, the alphas, and the first
        adapted layer's :func:`~balora.adapter.layer_terms`. Each block of
        ``_BLOCK_ROWS`` draw rows of a chunk takes those terms of its input
        rows, adds its noise and runs the remaining layers into the output, so
        activation memory does not grow with ``S``. A chunk's blocks are dealt
        out in turn to :meth:`mc_workers` threads, each with two reused
        buffers; every block runs the same ops whatever the thread count, so
        the result is too. The per-row terms and every block's output are
        checked for finiteness; NaN and Inf propagate to them through every
        op in between.
        """
        if self.kind != "balora":
            raise DomainError("stochastic forward requires a balora model")
        if isinstance(S, bool) or not isinstance(S, (int, np.integer)) or S < 1:
            raise DomainError(f"S, the number of draws, must be a positive integer, got {S!r}")
        S = int(S)  # a narrow numpy integer would overflow in the row counts
        X = self._rows(X)
        if X.shape[0] == 0:
            raise ShapeError(f"X must hold at least one input row, got shape {X.shape}")
        B, n = X.shape[0], S * X.shape[0]
        first = self.prefix_layers
        prefix = self.frozen_prefix(X)
        alphas = A.alpha_scales(self.alphanet, self.alpha_features(X, prefix))[0]
        terms = A.layer_terms(self.adapters[first], prefix,
                              self.backbone.biases[first].data, noisy=True)[:3]
        for t in terms:
            T.check_finite(t, "per-row terms of the stochastic forward")
        out = np.empty((n, self.backbone.spec.d_out))
        chunk = max(1, _MAX_ROWS // B) * B
        size = min(_BLOCK_ROWS, chunk, n) * max(self.backbone.spec.widths()[first + 1:])
        plan = self._plan(first, self.backbone.n_layers, self.adapters)

        def work(share, eps, dest):
            bufs = (np.empty(size), np.empty(size))
            for blk in share:
                self._draw_block(blk, plan, terms, alphas, eps, dest, bufs)

        for c, lo in enumerate(range(0, n, chunk)):
            m = min(chunk, n - lo)
            eps = self.draw_eps(m, rng.stream_of(c))
            blocks = [slice(a, min(a + _BLOCK_ROWS, m)) for a in range(0, m, _BLOCK_ROWS)]
            workers = self.mc_workers(m)
            _run_all([functools.partial(work, blocks[w::workers], eps, out[lo:lo + m])
                      for w in range(workers)])
        return out.reshape(S, B, -1)

    def mc_workers(self, n_rows: int) -> int:
        """Threads :meth:`predict_stochastic` runs ``n_rows`` draw rows on:
        :func:`_cpu_workers`, at most one per block, and only one when the
        blocks evaluate fewer than ``_MIN_GELUS_PER_ROW`` GELUs per row."""
        if sum(self.backbone.spec.widths()[self.prefix_layers + 1:-1]) < _MIN_GELUS_PER_ROW:
            return 1
        return max(1, min(_cpu_workers(), -(-n_rows // _BLOCK_ROWS)))

    def _rows(self, X: np.ndarray, start: int = 0) -> np.ndarray:
        """``X`` as a float64 batch copy that fits the input of layer ``start``."""
        h = np.array(X, dtype=np.float64, ndmin=2, order="C")
        if h.ndim != 2 or h.shape[1] != self.backbone.spec.widths()[start]:
            raise ShapeError(f"model forward expects a batch matrix of width "
                             f"{self.backbone.spec.widths()[start]}, got {h.shape}")
        return h

    def _plan(self, start: int, stop: int, adapters: dict) -> list[tuple]:
        """What :func:`~balora.adapter.walk` reads of layers ``start`` to
        ``stop - 1``: weight, bias, adapter in ``adapters`` (or None), its
        AlphaNet column, and whether a GELU follows (on every layer but the
        output)."""
        return [(self.backbone.weights[i].data, self.backbone.biases[i].data, adapters.get(i),
                 self.adapted_layers.index(i) if i in adapters else None,
                 i < self.backbone.n_layers - 1)
                for i in range(start, stop)]

    def _draw_block(self, blk: slice, plan: list[tuple], terms, alphas: np.ndarray,
                    eps: list[np.ndarray], out: np.ndarray, bufs) -> None:
        """Draw rows ``blk`` of a chunk into ``out[blk]``, ``out`` being its output
        rows: walk ``plan`` in ``bufs`` from the first adapted layer's ``terms``
        and the ``alphas`` of its input rows (draw row ``j`` of input ``j % B``),
        views unless the block wraps past input ``B``."""
        B, m = len(alphas), blk.stop - blk.start
        lo = blk.start % B
        pick = slice(lo, lo + m) if lo + m <= B else np.arange(blk.start, blk.stop) % B
        h = A.walk(plan, None, tuple(t[pick] for t in terms), alphas[pick],
                  [e[blk] for e in eps], bufs, out[blk])
        T.check_finite(h, "the stochastic forward")


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
        alphanet = A.init_alphanet(
            rng.stream_of(10_000), feature_dim=backbone.spec.alpha_feature_dim,
            num_layers=len(adapters), hidden_dims=aspec.alphanet_hidden,
            alpha_min=aspec.alpha_min, alpha_max=aspec.alpha_max, init_alpha=aspec.init_alpha)
    return AdaptedModel(backbone, adapters, alphanet, kind)
