"""Reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps a float64 numpy array and holds no gradient. Every op
builds an implicit graph: the result keeps handles to its parents and a
rule that hands the output gradient back to them. ``grad(root, wrt)``
walks that graph once in reverse topological order, so each rule fires
exactly once no matter how often a node is reused, and returns the
gradients; they live in a map local to the call and nothing is left on
the graph. A returned array may be a read-only view, or shared with
another returned array: read it, do not write it.

Conventions that matter downstream:

- float64 everywhere; inputs are coerced on construction.
- ``reduce_sum`` takes any axes.
- ``maximum`` sends the gradient to the FIRST argument on ties. The
  fuzzy min/max connectives and aggregators state their own tie rules,
  in ``fuzzy``.
- ``take(a, idx)`` gathers cells by flat position; positions repeated in
  ``idx`` have their gradients summed.
- ``pow`` takes a Python scalar exponent only.
- a dense layer ``act(x @ w + b)`` is one node, ``dense(x, w, b, act)``.
  Each activation (elu, sigmoid, softmax, linear) is stated once, as an
  ``ACTIVATIONS`` kernel that returns the output and its derivative
  rule; softmax reads the last axis.
- ``fused(kernel, *args)`` is one node for a kernel of the same form
  over several arrays; ``fuzzy`` builds every connective and aggregator
  with it.
- ``unbroadcast_product`` (``mul``'s gradients, and the fuzzy kernels')
  contracts broadcast axes in one ``np.einsum``, so its summation order
  can differ from ``ndarray.sum`` in the last bit.
- ops let numpy produce ``inf``/``nan`` silently. Callers check:
  ``fuzzy`` raises :class:`DomainError` on truth values outside [0, 1],
  and ``training`` raises ``DivergenceError`` on a non-finite loss or
  gradient.
"""

from __future__ import annotations

import functools
import string

import numpy as np


class DomainError(ValueError):
    """Input outside an op's mathematical domain."""


def unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` down to ``shape``, undoing numpy broadcasting."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    squeezed = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if squeezed:
        g = g.sum(axis=squeezed, keepdims=True)
    return g


@functools.lru_cache(maxsize=None)
def _contraction(gshape: tuple, xshape: tuple, shape: tuple) -> tuple:
    """``np.einsum`` subscripts summing ``g * x`` to ``shape`` less its size-1
    axes (operands keep theirs and broadcast), and whether to reshape back."""
    letters = string.ascii_letters[:len(gshape)]
    out = "".join(c for c, n in zip(letters[::-1], shape[::-1]) if n != 1)[::-1]
    return (f"{letters},{letters[len(gshape) - len(xshape):]}->{out}",
            len(out) != len(shape))


def unbroadcast_product(g: np.ndarray, x: np.ndarray, shape: tuple) -> np.ndarray:
    """``unbroadcast(g * x, shape)``, never building a ``g * x`` to sum."""
    if g.shape == shape:
        return g * x
    subscripts, reshape = _contraction(g.shape, x.shape, shape)
    out = np.einsum(subscripts, g, x)
    return out.reshape(shape) if reshape else out


class Tensor:
    __slots__ = ("data", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self._backward = None
        self._parents = ()

    # -- introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # -- operator sugar --------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return neg(self)


def astensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _result(data, parents, backward) -> Tensor:
    out = Tensor(data, requires_grad=any(p.requires_grad for p in parents))
    if out.requires_grad:
        out._parents = tuple(parents)
        out._backward = backward
    return out


def grad(root: Tensor, wrt) -> list[np.ndarray]:
    """Gradients of the scalar ``root``, one array per tensor in ``wrt``;
    zeros for a tensor that ``root`` does not reach."""
    if root.data.size != 1:
        raise ValueError("grad() needs a scalar root")
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for p in node._parents:
            if p not in seen:
                stack.append((p, False))
    grads = {root: np.ones_like(root.data)}

    def acc(t: Tensor, g: np.ndarray) -> None:
        # ``+``, not ``+=``: a rule may hand one array to several parents
        g = unbroadcast(g, t.data.shape)
        old = grads.get(t)
        grads[t] = g if old is None else old + g

    for node in reversed(order):
        g = grads.get(node)
        if node._backward is not None and g is not None:
            node._backward(g, acc)
    return [grads[t] if t in grads else np.zeros_like(t.data) for t in wrt]


# -- elementwise ops -----------------------------------------------------


def add(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)

    def back(g, acc):
        acc(a, g)
        acc(b, g)

    return _result(a.data + b.data, (a, b), back)


def sub(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)

    def back(g, acc):
        acc(a, g)
        acc(b, -unbroadcast(g, b.data.shape))

    return _result(a.data - b.data, (a, b), back)


def mul(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)

    def back(g, acc):
        acc(a, unbroadcast_product(g, b.data, a.data.shape))
        acc(b, unbroadcast_product(g, a.data, b.data.shape))

    return _result(a.data * b.data, (a, b), back)


def div(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    with np.errstate(all="ignore"):
        out = a.data / b.data

    def back(g, acc):
        with np.errstate(all="ignore"):
            acc(a, g / b.data)
            acc(b, -g * a.data / (b.data * b.data))

    return _result(out, (a, b), back)


def neg(a) -> Tensor:
    a = astensor(a)

    def back(g, acc):
        acc(a, -g)

    return _result(-a.data, (a,), back)


def power(a, n) -> Tensor:
    """``a ** n`` for a Python scalar ``n``."""
    if isinstance(n, Tensor) or isinstance(n, np.ndarray):
        raise TypeError("pow exponent must be a Python scalar")
    a = astensor(a)
    n = float(n)
    with np.errstate(all="ignore"):
        out = a.data ** n

    def back(g, acc):
        if n == 0.0:
            return
        with np.errstate(all="ignore"):
            acc(a, g * n * a.data ** (n - 1.0))

    return _result(out, (a,), back)


def exp(a) -> Tensor:
    a = astensor(a)
    with np.errstate(over="ignore"):
        out = np.exp(a.data)

    def back(g, acc):
        acc(a, g * out)

    return _result(out, (a,), back)


def maximum(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    pick_a = a.data >= b.data  # ties go to the first argument

    def back(g, acc):
        acc(a, g * pick_a)
        acc(b, g * ~pick_a)

    return _result(np.maximum(a.data, b.data), (a, b), back)


def where(cond, a, b) -> Tensor:
    """Select ``a`` where ``cond`` else ``b``; ``cond`` is a constant mask."""
    cond = np.asarray(cond.data if isinstance(cond, Tensor) else cond, dtype=bool)
    a, b = astensor(a), astensor(b)

    def back(g, acc):
        acc(a, g * cond)
        acc(b, g * ~cond)

    return _result(np.where(cond, a.data, b.data), (a, b), back)


# -- dense layers -----------------------------------------------------------
#
# Each activation is a kernel: it maps the pre-activation ``z`` to the
# layer's output and the rule that turns the output's gradient into
# ``z``'s.


def _elu(z):
    pos = z > 0
    out = np.where(pos, z, np.expm1(np.minimum(z, 0.0)))
    return out, lambda g: g * np.where(pos, 1.0, out + 1.0)


def _sigmoid(z):
    with np.errstate(over="ignore"):
        out = np.where(z >= 0, 1.0 / (1.0 + np.exp(-z)),
                       np.exp(z) / (1.0 + np.exp(z)))
    return out, lambda g: g * out * (1.0 - out)


def _softmax(z):
    """Softmax over the last axis."""
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    out = e / e.sum(axis=-1, keepdims=True)
    return out, lambda g: (g - (g * out).sum(axis=-1, keepdims=True)) * out


ACTIVATIONS = {
    "elu": _elu,
    "sigmoid": _sigmoid,
    "softmax": _softmax,
    "linear": lambda z: (z, lambda g: g),
}


def dense(x, w, b, act: str) -> Tensor:
    """``act(x @ w + b)`` as one node: ``x`` is ``(..., m)``, ``w`` is
    ``(m, h)``, ``b`` is ``(h,)`` and ``act`` names an ``ACTIVATIONS``
    kernel."""
    x, w, b = astensor(x), astensor(w), astensor(b)
    if w.data.ndim != 2:
        raise ValueError("dense weights must be 2-D")
    m, h = w.data.shape
    out, deriv = ACTIVATIONS[act](x.data @ w.data + b.data)

    def back(g, acc):
        gz = deriv(g)
        acc(x, gz @ w.data.T)
        acc(w, x.data.reshape(-1, m).T @ gz.reshape(-1, h))
        acc(b, gz)  # acc sums the broadcast rows

    return _result(out, (x, w, b), back)


def fused(kernel, *args) -> Tensor:
    """One node computing ``kernel`` on the arrays of ``args``. The
    kernel returns the output and the rule that turns the output's
    gradient into one gradient per arg, of the arg's shape, or None where
    none flows; the rule runs only in backward."""
    args = [astensor(a) for a in args]
    out, deriv = kernel(*(a.data for a in args))

    def back(g, acc):
        for a, ga in zip(args, deriv(g)):
            if ga is not None:
                acc(a, ga)

    return _result(out, args, back)


# -- shape ops -------------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = astensor(a)
    out = a.data.reshape(shape)
    if out.shape == a.data.shape:
        return a
    old = a.data.shape

    def back(g, acc):
        acc(a, g.reshape(old))

    return _result(out, (a,), back)


def moveaxis(a, src, dst) -> Tensor:
    a = astensor(a)

    def back(g, acc):
        acc(a, np.moveaxis(g, dst, src))

    return _result(np.moveaxis(a.data, src, dst), (a,), back)


def broadcast_to(a, shape) -> Tensor:
    a = astensor(a)
    shape = tuple(shape)

    def back(g, acc):
        acc(a, g)  # acc unbroadcasts

    return _result(np.broadcast_to(a.data, shape).copy(), (a,), back)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [astensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def back(g, acc):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            acc(t, piece)

    return _result(np.concatenate([t.data for t in tensors], axis=axis),
                   tensors, back)


def take(a, idx) -> Tensor:
    """Cells of ``a`` at the row-major flat positions ``idx`` (an
    integer array); the result has the shape of ``idx``. Positions taken
    more than once have their gradients summed."""
    a = astensor(a)
    idx = np.asarray(idx, dtype=np.intp)

    def back(g, acc):
        acc(a, np.bincount(idx.ravel(), weights=g.ravel(),
                             minlength=a.data.size).reshape(a.data.shape))

    return _result(a.data.reshape(-1)[idx], (a,), back)


def stack(tensors) -> Tensor:
    """Stack along a new first axis."""
    tensors = [astensor(t) for t in tensors]

    def back(g, acc):
        for t, piece in zip(tensors, g):
            acc(t, piece)

    return _result(np.stack([t.data for t in tensors]), tensors, back)


# -- reductions --------------------------------------------------------------


def reduce_sum(a, axes=None) -> Tensor:
    """Sum over ``axes`` (numpy's ``axis``: None sums everything)."""
    a = astensor(a)
    shape = a.data.shape

    def back(g, acc):
        gx = g if axes is None else np.expand_dims(g, axes)
        acc(a, np.broadcast_to(gx, shape))

    return _result(a.data.sum(axis=axes), (a,), back)
