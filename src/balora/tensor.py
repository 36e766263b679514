"""Dense float64 tensors with a reverse-mode gradient tape.

The tape is built eagerly, by one rule with no global switch: an operation
stores its parents and a vector-Jacobian closure on the output node exactly
when a parent requires grad. Parents are created before their children, so
:func:`backward` runs the interior nodes (those with a closure) reachable
from the loss in descending creation order, sums the cotangents of every
leaf that requires grad and adds them to its ``grad`` field once, and
consumes the tape.

Taped ops follow one shape rule: :func:`add` and :func:`mul` take operands
of equal shape and never broadcast, :func:`matmul` takes two matrices and
:func:`linear` a batch ``(n, d)``. Every completed operation is checked for
NaN/Inf and raises instead of propagating poison.

Of the generic ops the package calls only :func:`backward`. Its nodes are
built with ``Tensor._from_op`` and hand-written vector-Jacobian products,
checked against central finite differences by ``balora.verify`` and the
test suite. A training step is one node
(``balora.variational.elbo_step``) whose closure runs the plain-numpy
VJPs of the loss terms, of the adapted network
(``balora.model.AdaptedModel.network``) and of the AlphaNet
(``balora.adapter.alpha_scales``), each network one reverse walk using
:func:`gelu_gate` and :func:`gelu_grad`. The gate evaluates scipy's
``erf`` on ``|z / sqrt 2|`` and takes the sign back from ``z``: scipy
computes a negative argument as ``-erf(-x)``, so the bytes are those of
the plain formula, without erf's unpredictable sign branch.
``AdaptedModel.forward``, ``balora.adapter.alpha_forward`` and
``balora.variational.kl_normalized`` wrap the same functions as one node
each; the tests build the ELBO step from them, their own loss nodes,
:func:`add` and :func:`mul`. Those two, :func:`linear`,
:func:`gelu`, :func:`matmul`, :func:`square`, :func:`sqrt`,
:func:`reshape` and :func:`transpose` stay because the benchmark rebinds
them by name, and as the tests' layer-by-layer references and
finite-difference fixtures, which sum with ``tests/reference.py``'s ``tsum``.
Closures that cost real work form a cotangent only for parents that
require grad, so frozen weights cost nothing in the backward pass.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import itertools
import math
import os
import sys
import threading
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "TensorError",
    "ShapeError",
    "DomainError",
    "NonFiniteError",
    "TapeError",
    "backward",
    "matmul",
    "linear",
]

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)


class TensorError(Exception):
    """Base class for tensor-core failures."""


class ShapeError(TensorError):
    """Operand shapes incompatible with the requested operation."""


class DomainError(TensorError):
    """Input outside the mathematical domain of the operation."""


class NonFiniteError(TensorError):
    """An operation produced NaN or Inf."""


class TapeError(TensorError):
    """Gradient tape misuse (non-scalar root, double backward, ...)."""


def check_finite(arr: np.ndarray, what: str) -> None:
    """Raise :class:`NonFiniteError` if ``arr`` holds NaN or Inf."""
    # NaN and Inf propagate through a sum, so a finite sum proves every
    # entry finite at the cost of one reduction. A non-finite sum may be
    # mere overflow of finite entries; only then look at each entry.
    if not math.isfinite(np.add.reduce(arr, axis=None)) and not np.isfinite(arr).all():
        raise NonFiniteError(f"non-finite values produced by {what}")


# Creation sequence numbers: a node's parents always have smaller ones. One
# counter for every thread; ``next`` on it is atomic under the interpreter lock.
_creation = itertools.count()

# ``Tensor._consumed``: _LIVE until a backward call runs through the tensor;
# _SPENT for an interior node whose tape was consumed (it has lost its
# closure and would pass for a leaf, so no graph may reach it again); _LOSS
# for a leaf that was itself a loss: it may be a parent in later graphs, but
# not a loss again.
_LIVE, _SPENT, _LOSS = 0, 1, 2


def _freeze(arr: np.ndarray, copy: bool = False) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.float64)
    if not arr.flags.c_contiguous:
        # ascontiguousarray would promote 0-d arrays to 1-d; 0-d counts as
        # contiguous, so this branch never sees one.
        arr = np.ascontiguousarray(arr)
    if arr.flags.writeable:
        # Views and caller-owned arrays are copied so freezing never
        # mutates somebody else's flags; fresh op outputs freeze in place.
        if copy or arr.base is not None or not arr.flags.owndata:
            arr = arr.copy()
        arr.flags.writeable = False
    return arr


class Tensor:
    """Immutable dense array plus optional participation in the gradient tape.

    ``data`` is a read-only, row-major float64 array. ``grad`` holds the
    accumulated gradient after :func:`backward` for leaves created with
    ``requires_grad=True``; all other mutation is rebinding, never
    in-place writes.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp", "_consumed", "_seq")

    def __init__(self, values, requires_grad: bool = False):
        self.data = _freeze(np.asarray(values, dtype=np.float64), copy=True)
        check_finite(self.data, "tensor construction")
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._parents: tuple = ()
        self._vjp: Optional[Callable] = None
        self._consumed = _LIVE
        self._seq = next(_creation)

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _from_op(data: np.ndarray, parents: Sequence["Tensor"], vjp: Callable,
                 what: str) -> "Tensor":
        check_finite(data, what)
        out = Tensor.__new__(Tensor)
        out.data = _freeze(data)
        out.grad = None
        out._consumed = _LIVE
        out._seq = next(_creation)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._vjp = vjp
        else:
            out.requires_grad = False
            out._parents = ()
            out._vjp = None
        return out

    # -- basic properties -----------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        return Tensor._from_op(self.data, (), None, "detach")

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"


# -- tape ---------------------------------------------------------------------


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every requires-grad leaf reachable from ``loss``.

    ``loss`` must be a 0-d tensor produced by taped operations, or a leaf
    that requires grad. The tape is consumed: a second call on the same
    graph raises :class:`TapeError` until the forward pass is rebuilt, and
    so does a graph that reaches a consumed interior node. A leaf loss has
    no tape to consume: it is not a loss again, but later graphs may use it.

    Only the interior nodes, those with a VJP closure, are walked and
    sorted. Each leaf's cotangents are summed in the order the closures
    return them and added to its ``grad`` once, at the end.
    """
    if loss.shape != ():
        raise TapeError(f"backward() needs a scalar loss, got shape {loss.shape}")
    if loss._consumed:
        raise TapeError("backward() already called on this graph; rebuild the forward pass")
    if loss._vjp is None and not loss.requires_grad:
        raise TapeError("loss does not depend on any requires_grad tensor")

    # Parents are created before their children, so the interior nodes
    # reachable from the loss, in descending creation order, are a reverse
    # topological order. A consumed interior node has lost its closure and
    # would pass for a leaf, so every parent is checked.
    interior, stack = {}, []
    if loss._vjp is not None:
        interior[id(loss)] = loss
        stack.append(loss)
    while stack:
        for p in stack.pop()._parents:
            if p._consumed == _SPENT:
                raise TapeError("graph shares nodes with an already-consumed tape")
            if p._vjp is not None and id(p) not in interior:
                interior[id(p)] = p
                stack.append(p)
    order = sorted(interior.values(), key=lambda node: node._seq, reverse=True)

    # Pending cotangents by node id, each with its node; what is left at the
    # end belongs to leaves.
    pending: dict[int, list] = {id(loss): [loss, np.ones((), dtype=np.float64)]}
    for node in order:
        entry = pending.pop(id(node), None)
        if entry is None:
            continue
        for parent, pg in zip(node._parents, node._vjp(entry[1])):
            if pg is None or not parent.requires_grad:
                continue
            entry = pending.get(id(parent))
            if entry is None:
                pending[id(parent)] = [parent, pg]
            else:
                entry[1] = entry[1] + pg
    for leaf, g in pending.values():
        leaf.grad = g.copy() if leaf.grad is None else leaf.grad + g

    # Consume the tape; an interior loss is the first node of ``order``.
    if loss._vjp is None:
        loss._consumed = _LOSS
    for node in order:
        node._vjp = None
        node._parents = ()
        node._consumed = _SPENT


# -- shape plumbing -----------------------------------------------------------


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} must be equal")


# -- elementwise and binary ops -----------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")

    def vjp(g):
        return g, g

    return Tensor._from_op(a.data + b.data, (a, b), vjp, "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "mul")
    ad, bd = a.data, b.data

    def vjp(g):
        return (g * bd if a.requires_grad else None,
                g * ad if b.requires_grad else None)

    return Tensor._from_op(ad * bd, (a, b), vjp, "mul")


def square(a: Tensor) -> Tensor:
    ad = a.data

    def vjp(g):
        return (2.0 * ad * g,)

    return Tensor._from_op(ad * ad, (a,), vjp, "square")


def sqrt(a: Tensor) -> Tensor:
    if a.data.size and np.any(a.data < 0.0):
        raise DomainError("sqrt of negative input")
    out = np.sqrt(a.data)

    def vjp(g):
        # Subgradient 0 at exactly zero keeps zero-variance directions
        # noise-free instead of producing Inf * 0.
        return (np.where(out > 0.0, 0.5 / np.where(out > 0.0, out, 1.0), 0.0) * g,)

    return Tensor._from_op(out, (a,), vjp, "sqrt")


# The scipy extension module that defines the ``erf`` ufunc in recent scipy;
# ``scipy.special`` re-exports it.
_ERF_EXTENSION = "scipy.special._special_ufuncs"
_erf = None
_erf_module: Optional[str] = None
_erf_lock = threading.Lock()


def _load_extension():
    """:data:`_ERF_EXTENSION`, loaded from its file in the installed scipy
    without running the ``scipy.special`` package init, or None where there
    is no such file. The module is registered under its own name, so a later
    ``import scipy.special`` reuses it rather than loading a second copy."""
    scipy = importlib.util.find_spec("scipy")
    *subpackages, name = _ERF_EXTENSION.split(".")[1:]
    for directory in scipy.submodule_search_locations if scipy else ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(directory, *subpackages, name + suffix)
            if os.path.isfile(path):
                spec = importlib.util.spec_from_file_location(_ERF_EXTENSION, path)
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                sys.modules[_ERF_EXTENSION] = module
                return module
    return None


def _load_erf():
    """The ``erf`` ufunc the GELU uses, loaded once per process: from the
    scipy extension that defines it (already loaded, or loaded by
    :func:`_load_extension`), else, where that extension is missing or has
    no ``erf``, from ``scipy.special``. Locked, because the first GELUs of a
    Monte Carlo evaluation can run on several threads at once."""
    global _erf, _erf_module
    with _erf_lock:
        if _erf is None:
            extension = sys.modules.get(_ERF_EXTENSION) or _load_extension()
            erf, module = getattr(extension, "erf", None), _ERF_EXTENSION
            if erf is None:
                from scipy.special import erf
                module = "scipy.special"
            # _erf last: gelu_gate reads it without the lock.
            _erf_module, _erf = module, erf
    return _erf


def erf_module() -> Optional[str]:
    """The module the GELU's ``erf`` came from, or None before the first GELU
    of this process."""
    return _erf_module


def gelu_gate(z: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """The GELU gate ``Phi(z) = 0.5 * (1 + erf(z / sqrt 2))``, so that
    ``gelu(z) = z * Phi(z)``.

    ``erf`` is scipy's ufunc, loaded at the first call (:func:`_load_erf`)
    from the one extension module that defines it: importing the whole
    ``scipy.special`` package would cost about 0.3 s and 23 MB per process.

    ``erf`` is evaluated on ``|z / sqrt 2|`` and the sign is put back from
    ``z`` with ``copysign``. scipy computes ``erf(x)`` for ``x < 0`` as
    ``-erf(-x)``, so ``erf(x) == copysign(erf(|x|), x)`` bit for bit for
    every non-NaN float64, signed zeros and subnormals included, and scaling
    by ``1 / sqrt 2`` keeps the sign: the bytes are those of the unfolded
    ``0.5 * (1 + erf(z / sqrt 2))``. On fresh values the fold is about 30%
    faster, because erf's sign branch, which the CPU cannot predict on such
    inputs, is never taken.

    The gate is computed in ``out`` if given, an array of ``z``'s shape that
    shares no memory with ``z``: the sign is read from ``z`` after ``out``
    is written, so an overlap raises :class:`ValueError`.
    """
    if out is not None and np.may_share_memory(z, out):
        raise ValueError("gelu_gate: out must not share memory with z")
    erf = _erf if _erf is not None else _load_erf()
    g = np.asarray(np.multiply(z, _INV_SQRT2, out=out))
    np.abs(g, out=g)
    erf(g, out=g)
    np.copysign(g, z, out=g)
    g += 1.0
    g *= 0.5
    return g


def gelu_grad(z: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """The GELU's derivative at ``z``, ``Phi(z) + z pdf(z)``, given ``phi = gelu_gate(z)``:
    ``phi + z * (c * exp(-0.5 * z * z))`` with ``c = 1 / sqrt(2 pi)``, with
    that rounding, in one array."""
    d = np.multiply(z, -0.5)
    d *= z
    np.exp(d, out=d)
    d *= _INV_SQRT2PI
    d *= z
    d += phi
    return d


def gelu(a: Tensor) -> Tensor:
    z = a.data
    phi = gelu_gate(z)

    def vjp(g):
        return (gelu_grad(z, phi) * g,)

    return Tensor._from_op(z * phi, (a,), vjp, "gelu")


# -- shape ops -----------------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != a.size:
        raise ShapeError(f"cannot reshape {a.shape} to {shape}")
    old = a.shape

    def vjp(g):
        return (g.reshape(old),)

    return Tensor._from_op(a.data.reshape(shape), (a,), vjp, "reshape")


def transpose(a: Tensor) -> Tensor:
    if a.ndim != 2:
        raise ShapeError(f"transpose expects a matrix, got shape {a.shape}")

    def vjp(g):
        return (np.ascontiguousarray(g.T),)

    return Tensor._from_op(np.ascontiguousarray(a.data.T), (a,), vjp, "transpose")


# -- matmul ---------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two matrices."""
    ad, bd = a.data, b.data
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects two matrices, got {a.shape} @ {b.shape}")
    if ad.shape[1] != bd.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")

    def vjp(g):
        return (g @ bd.T if a.requires_grad else None,
                ad.T @ g if b.requires_grad else None)

    return Tensor._from_op(ad @ bd, (a, b), vjp, "matmul")


# -- composites -----------------------------------------------------------------


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` of a batch ``x`` of shape ``(n, d)``.

    One tape node: the bias cotangent is the row sum of the output
    cotangent, and only parents that require grad get a cotangent.
    """
    xd, wd = x.data, weight.data
    if x.ndim != 2:
        raise ShapeError(f"linear expects a batch matrix (n, d), got {x.shape}")
    if weight.ndim != 2 or wd.shape[1] != xd.shape[1]:
        raise ShapeError(f"linear weight {weight.shape} does not fit input {x.shape}")
    if bias is not None and bias.shape != (wd.shape[0],):
        raise ShapeError(f"linear bias {bias.shape} does not fit weight {weight.shape}")
    out = xd @ wd.T
    if bias is not None:
        out += bias.data

    def vjp(g):
        gx = g @ wd if x.requires_grad else None
        gw = g.T @ xd if weight.requires_grad else None
        gb = g.sum(axis=0) if bias is not None and bias.requires_grad else None
        return gx, gw, gb

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._from_op(out, parents, vjp, "linear")
