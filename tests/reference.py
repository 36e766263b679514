"""The references the tests hold the library to: earlier or plainer
versions of its kernels and graphs, each of which a test compares with the
shipped code bit for bit (or, for the Monte Carlo evaluator, to rounding).

- the adapter's cotangents (:func:`reference_layer_vjp`), the GELU's
  derivative and the AlphaNet's scales and VJP, one temporary per op;
- the adapted network taped layer by layer (:func:`reference_chain`) and the
  Monte Carlo evaluator rebuilt from ``forward`` (:func:`tiled_reference`);
- the per-tensor AdamW loop (:class:`ReferenceAdamW`), the ELBO step as a
  graph of the public nodes (:func:`reference_step`) and the
  three-temporary softmax;
- :func:`tsum`, the sum node the finite-difference fixtures reduce with.
"""

import math

import numpy as np
from conftest import loss_node

from balora import adapter as A
from balora import model as M
from balora import tensor as T
from balora import variational as V
from balora.tensor import Tensor


def reference_layer_vjp(layer, g, x, z, q=None, sd=None, a=None, eps=None, need_x=True):
    """The adapter's cotangents ``(gx, gwa, gwb, ga)`` as written before their
    chains ran in place, one temporary per op: the reference that
    ``balora.adapter.layer_vjp`` must match bit for bit."""
    w0, wa, wb, s = layer.W0.data, layer.WA.data, layer.WB.data, layer.lora_scale
    gu = g * s
    gz = gu @ wb
    gx = gwa = gwb = ga = None
    if layer.WB.requires_grad:
        gwb = gu.T @ z
    if eps is not None:
        inv = np.divide(0.5, sd, out=np.zeros_like(sd), where=sd > 0.0)
        gv = gz * eps * inv
        ga = (gv * q).sum(axis=-1)
        gq = gv * a
    if layer.WA.requires_grad:
        gwa = gz.T @ x
        if eps is not None:
            gwa += 2.0 * wa * (gq.T @ (x * x))
    if need_x:
        gx = g @ w0 + gz @ wa
        if eps is not None:
            gx += 2.0 * x * (gq @ (wa * wa))
    return gx, gwa, gwb, ga


def tsum(a: Tensor) -> Tensor:
    """The sum of every entry of ``a``, as one tape node."""
    shape = a.shape

    def vjp(g):
        return (np.full(shape, float(g), dtype=np.float64),)

    return Tensor._from_op(np.asarray(a.data.sum()), (a,), vjp, "sum")


# The GELU and AlphaNet-head VJPs as written before their chains ran in place,
# one temporary per op: the references the rewrites must match bit for bit (the
# layer's is reference_layer_vjp).


def reference_gelu_grad(z, phi):
    return phi + z * (T._INV_SQRT2PI * np.exp(-0.5 * z * z))


def reference_logits(net, feat):
    """The AlphaNet's logits and, per layer, its input and GELU input and gate."""
    h, tape = feat, []
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        x, h = h, h @ w.data.T + b.data
        act = None
        if i < len(net.weights) - 1:
            act = (h, T.gelu_gate(h))
            h = h * act[1]
        tape.append((x, act))
    return h, tape


def reference_alpha_scales(net, feat, g):
    """The AlphaNet's scales and its parameters' cotangents for the scales'
    cotangent ``g``, layer by layer: per layer its weight's, then its bias'."""
    z, tape = reference_logits(net, feat)
    e = np.exp(-np.abs(z))
    soft = np.log1p(e) + np.maximum(z, 0.0)
    sig = np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))
    inside = (soft > net.alpha_min) & (soft < net.alpha_max)
    g = sig * np.where(inside, g, 0.0)
    grads = []
    for i in range(len(net.weights) - 1, -1, -1):
        x, act = tape[i]
        if act is not None:
            g = reference_gelu_grad(*act) * g
        grads[:0] = [g.T @ x, g.sum(axis=0)]
        g = g @ net.weights[i].data
    return np.clip(soft, net.alpha_min, net.alpha_max), grads


def reference_adapted_linear(layer, x, bias, alphas=None, col=0, eps=None):
    """One adapted layer as its own tape node, with the cotangent rules of
    ``reference_layer_vjp``, which the network node's reverse walk must
    reproduce bit for bit: the reference the layer-by-layer taped forward
    used."""
    xd, stochastic = x.data, eps is not None
    a = alphas.data[:, col, None] if stochastic else None
    base, z, q, _, _ = A.layer_terms(layer, xd, bias.data, stochastic)
    out, z, sd = A.layer_output(layer, base, z, q, a, eps)

    def vjp(g):
        gx, gwa, gwb, ga = reference_layer_vjp(layer, g, xd, z, q, sd, a, eps,
                                               x.requires_grad)
        gb = g.sum(axis=0) if bias.requires_grad else None
        galpha = None
        if stochastic and alphas.requires_grad:
            galpha = np.zeros(alphas.shape)
            galpha[:, col] = ga
        grads = (gx, gwa, gwb, gb, galpha)
        return tuple(gr for p, gr in zip(slots, grads) if p is not None)

    slots = (x, layer.WA, layer.WB, bias, alphas if stochastic else None)  # W0 is frozen
    return Tensor._from_op(out, tuple(p for p in slots if p is not None), vjp,
                           "adapted_linear")


def reference_chain(model, X, alphas=None, eps=None) -> Tensor:
    """The network taped layer by layer: one node per adapted layer,
    ``tensor.linear`` for the others and ``tensor.gelu`` between them."""
    h = Tensor(X)
    last = model.backbone.n_layers - 1
    for i in range(last + 1):
        w, b, layer = model.backbone.weights[i], model.backbone.biases[i], model.adapters.get(i)
        if layer is None:
            h = T.linear(h, w, b)
        else:
            col = model.adapted_layers.index(i)
            h = reference_adapted_linear(layer, h, b, alphas, col,
                                         None if eps is None else eps[col])
        if i != last:
            h = T.gelu(h)
    return h


def tiled_reference(model, X, S, rng):
    """``predict_stochastic`` rebuilt from ``forward``: each chunk of draws is
    one forward of ``X`` tiled, with ``draw_eps`` from the chunk's stream."""
    B = X.shape[0]
    chunk = max(1, M._MAX_ROWS // B)
    outs = []
    for c, start in enumerate(range(0, S, chunk)):
        s = min(chunk, S - start)
        eps = model.draw_eps(s * B, rng.stream_of(c))
        outs.append(model.forward(np.tile(X, (s, 1)), eps=eps).data.reshape(s, B, -1))
    return np.concatenate(outs)


class ReferenceAdamW:
    """The per-tensor AdamW loop the fused optimizer must match bit for bit."""

    def __init__(self, params, cfg, total_steps):
        self.params = [p for p in params if p.requires_grad]
        self.cfg = cfg
        self.schedule = V.AdamW([], cfg, total_steps)
        self.t = 0
        self._m = [np.zeros(p.shape) for p in self.params]
        self._v = [np.zeros(p.shape) for p in self.params]

    def step(self) -> dict:
        b1, b2, eps = V.AdamW.BETA1, V.AdamW.BETA2, V.AdamW.EPS
        lr = self.schedule.lr_at(self.t)
        total = 0.0
        for p in self.params:
            total += float(np.sum(p.grad * p.grad))
        raw_norm = math.sqrt(total)
        clip = self.cfg.grad_clip_norm
        scale = clip / raw_norm if raw_norm > clip else 1.0
        self.t += 1
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for i, p in enumerate(self.params):
            g = p.grad * scale
            self._m[i] = b1 * self._m[i] + (1.0 - b1) * g
            self._v[i] = b2 * self._v[i] + (1.0 - b2) * (g * g)
            m_hat = self._m[i] / bc1
            v_hat = self._v[i] / bc2
            new = p.data - lr * m_hat / (np.sqrt(v_hat) + eps)
            p.data = np.array(new, dtype=np.float64)
        return {"lr": lr, "grad_norm": raw_norm, "applied_norm": min(raw_norm, clip),
                "clipped": raw_norm > clip}


def reference_step(model, batch, prior, cfg, rng):
    """The ELBO step as a graph of the public nodes: the AlphaNet, the
    network on the full rows, the NLL, the KL, and the ``mul`` and ``add``
    that weight and sum them."""
    X, y = batch
    if model.kind == "balora":
        alphas = model.alphas(X)
        pred = model.forward(X, alphas, model.draw_eps(len(X), rng))
    else:
        alphas, pred = None, model.forward(X)
    if model.head == "classification":
        nll = loss_node(V._cross_entropy(pred.data, y), (pred,))
    else:
        nll = loss_node(V._gaussian_nll(pred.data, y, model.log_sigma.data),
                        (pred, model.log_sigma))
    metrics, loss = {"nll": nll.item(), "kl_normalized": 0.0}, nll
    if alphas is not None:
        kl = V.kl_normalized(alphas, prior.p, model.alphanet.alpha_min,
                             model.alphanet.alpha_max)
        metrics["alpha_per_layer"] = [float(v) for v in alphas.data.mean(axis=0)]
        metrics["kl_normalized"] = kl.item()
        if cfg.kl_weight > 0:
            loss = T.add(nll, T.mul(kl, Tensor(cfg.kl_weight)))
    metrics["loss"] = loss.item()
    return loss, metrics


def reference_softmax(z):
    """The three-temporary softmax that ``balora.uncertainty._softmax`` replaced."""
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)
