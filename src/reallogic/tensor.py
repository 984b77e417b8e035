"""Reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps a float64 numpy array and holds no gradient. There is one
way to make a graph node, ``fused(kernel, *args)``, and every op below
uses it. The kernel maps the args' arrays to the result and a derivative
rule; the rule turns the result's gradient into one gradient per arg, or
None where none flows, and runs only in backward. The node keeps its
args as its parents and the rule. ``grad(root, wrt)`` walks the graph
once in reverse topological order, so each rule fires exactly once no
matter how often a node is reused. It sums each parent's gradients down
to the parent's shape and returns them; they live in a map local to the
call and nothing is left on the graph. A returned array may be a
read-only view, or shared with another returned array: read it, do not
write it.

Conventions that matter downstream:

- float64 everywhere; inputs are coerced on construction.
- a rule may return a broadcast arg's gradient at the result's shape:
  ``grad`` sums it down (``unbroadcast``).
- ``reduce_sum`` takes any axes.
- ``maximum`` sends the gradient to the FIRST argument on ties. The
  fuzzy min/max connectives and aggregators state their own tie rules,
  in ``fuzzy``.
- ``take(a, idx)`` gathers cells by flat position; positions repeated in
  ``idx`` have their gradients summed.
- ``pow`` takes a Python scalar exponent only.
- a dense layer ``act(x @ w + b)`` is one node, ``dense(x, w, b, act)``,
  over ``(x, w, b)``. Each activation (elu, sigmoid, softmax, linear) is
  stated once, as an ``ACTIVATIONS`` kernel that maps the
  pre-activation to the output and its derivative rule; softmax reads
  the last axis.
- ``fuzzy`` builds every connective and aggregator as one node of the
  same form.
- ``product(a, b, shape)`` is ``unbroadcast(a * b, shape)``, and the
  only code that forms a broadcast product or its gradients: ``mul``
  and the fuzzy kernels use it both ways. It takes the ufunc when an
  operand has the unsummed result's shape, else one ``np.einsum``: an
  outer product, whose zero cells are ``+0.0``, or a contraction,
  whose summation order can differ from ``ndarray.sum`` in the last bit.
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
def _product_plan(ashape: tuple, bshape: tuple, shape) -> tuple:
    """How :func:`product` forms ``unbroadcast(a * b, shape)``: the
    ``np.einsum`` subscripts over the axes that are not size 1 (None for
    the ufunc, when one operand has the unsummed result's shape), and
    the result's shape, which is the broadcast shape when ``shape`` is
    None."""
    full = np.broadcast_shapes(ashape, bshape)
    shape = full if shape is None else shape
    if shape == full and full in (ashape, bshape):
        return None, shape
    letters = string.ascii_letters[:len(full)]

    def axes(s):  # letters of the axes of s, aligned to the right, not size 1
        return "".join(c for c, n in zip(letters[len(full) - len(s):], s)
                       if n != 1)

    return f"{axes(ashape)},{axes(bshape)}->{axes(shape)}", shape


def product(a: np.ndarray, b: np.ndarray, shape=None) -> np.ndarray:
    """``unbroadcast(a * b, shape)``, or ``a * b`` when ``shape`` is None,
    never building a product to sum. When neither operand has the
    unsummed result's shape, or the result is summed, one ``np.einsum``
    forms it: an outer product, faster than the ufunc on large grids
    (slower on small ones), or a contraction. An outer product's cells
    have the bits of ``a * b`` but for the sign of a zero (einsum adds
    each product to a zeroed cell, so ``-0.0 * 1.0`` reads ``0.0``); a
    contraction's summation order can differ from ``ndarray.sum`` in
    the last bit."""
    if a.shape == b.shape and shape in (None, a.shape):
        return a * b
    subscripts, shape = _product_plan(a.shape, b.shape, shape)
    if subscripts is None:
        return a * b
    return np.einsum(subscripts, a.squeeze(), b.squeeze()).reshape(shape)


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

    def __neg__(self):
        return neg(self)


def astensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def fused(kernel, *args) -> Tensor:
    """One node computing ``kernel`` on the arrays of ``args``. The
    kernel returns the output and the rule that turns the output's
    gradient into one gradient per arg, or None where none flows; the
    rule runs only in backward."""
    args = tuple([astensor(a) for a in args])
    data, deriv = kernel(*[a.data for a in args])
    out = Tensor(data)
    if any([a.requires_grad for a in args]):
        out.requires_grad = True
        out._parents = args
        out._backward = deriv
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
    for node in reversed(order):
        g = grads.get(node)
        if node._backward is None or g is None:
            continue
        for p, gp in zip(node._parents, node._backward(g)):
            if gp is None:
                continue
            # ``+``, not ``+=``: a rule may hand one array to several parents
            gp = unbroadcast(gp, p.data.shape)
            old = grads.get(p)
            grads[p] = gp if old is None else old + gp
    return [grads[t] if t in grads else np.zeros_like(t.data) for t in wrt]


# -- elementwise ops -----------------------------------------------------
#
# Each kernel maps its operands' arrays to the result and the rule that
# turns the result's gradient into one gradient per operand.


def _add(a, b):
    return a + b, lambda g: (g, g)


def _sub(a, b):
    return a - b, lambda g: (g, -unbroadcast(g, b.shape))


def _mul(a, b):
    return a * b, lambda g: (product(g, b, a.shape), product(g, a, b.shape))


def _neg(a):
    return -a, lambda g: (-g,)


def _exp(a):
    with np.errstate(over="ignore"):
        out = np.exp(a)
    return out, lambda g: (g * out,)


def _maximum(a, b):
    pick_a = a >= b  # ties go to the first argument
    return np.maximum(a, b), lambda g: (np.where(pick_a, g, 0.0),
                                        np.where(pick_a, 0.0, g))


def add(a, b) -> Tensor:
    return fused(_add, a, b)


def sub(a, b) -> Tensor:
    return fused(_sub, a, b)


def mul(a, b) -> Tensor:
    return fused(_mul, a, b)


def neg(a) -> Tensor:
    return fused(_neg, a)


def exp(a) -> Tensor:
    return fused(_exp, a)


def maximum(a, b) -> Tensor:
    return fused(_maximum, a, b)


def power(a, n) -> Tensor:
    """``a ** n`` for a Python scalar ``n``."""
    if isinstance(n, Tensor) or isinstance(n, np.ndarray):
        raise TypeError("pow exponent must be a Python scalar")
    n = float(n)

    def kernel(x):
        with np.errstate(all="ignore"):
            out = x ** n

        def deriv(g):
            with np.errstate(all="ignore"):
                return (None if n == 0.0 else g * n * x ** (n - 1.0),)
        return out, deriv

    return fused(kernel, a)


def where(cond, a, b) -> Tensor:
    """Select ``a`` where ``cond`` else ``b``; ``cond`` is a constant mask.
    An unselected cell gets an exact 0 gradient, even from an infinite one."""
    cond = np.asarray(cond.data if isinstance(cond, Tensor) else cond, dtype=bool)
    return fused(lambda x, y: (np.where(cond, x, y), lambda g: (
        np.where(cond, g, 0.0), np.where(cond, 0.0, g))), a, b)


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

    def kernel(x, w, b):
        if w.ndim != 2:
            raise ValueError("dense weights must be 2-D")
        m, h = w.shape
        out, deriv = ACTIVATIONS[act](x @ w + b)

        def back(g):
            gz = deriv(g)
            # b's gradient keeps the broadcast rows; grad sums them
            return gz @ w.T, x.reshape(-1, m).T @ gz.reshape(-1, h), gz
        return out, back

    return fused(kernel, x, w, b)


# -- shape ops -------------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = astensor(a)
    if a.data.reshape(shape).shape == a.data.shape:
        return a
    return fused(lambda x: (x.reshape(shape), lambda g: (g.reshape(x.shape),)), a)


def moveaxis(a, src, dst) -> Tensor:
    return fused(lambda x: (np.moveaxis(x, src, dst),
                            lambda g: (np.moveaxis(g, dst, src),)), a)


def broadcast_to(a, shape) -> Tensor:
    # grad sums the gradient back down to a's shape
    return fused(lambda x: (np.broadcast_to(x, tuple(shape)).copy(),
                            lambda g: (g,)), a)


def concat(tensors, axis: int = 0) -> Tensor:
    def kernel(*xs):
        splits = np.cumsum([x.shape[axis] for x in xs])[:-1]
        return (np.concatenate(xs, axis=axis),
                lambda g: np.split(g, splits, axis=axis))

    return fused(kernel, *tensors)


def take(a, idx) -> Tensor:
    """Cells of ``a`` at the row-major flat positions ``idx`` (an
    integer array); the result has the shape of ``idx``. Positions taken
    more than once have their gradients summed."""
    idx = np.asarray(idx, dtype=np.intp)

    def kernel(x):
        def deriv(g):
            return (np.bincount(idx.ravel(), weights=g.ravel(),
                                minlength=x.size).reshape(x.shape),)
        return x.reshape(-1)[idx], deriv

    return fused(kernel, a)


def stack(tensors) -> Tensor:
    """Stack along a new first axis."""
    # iterating the gradient yields one piece per stacked tensor
    return fused(lambda *xs: (np.stack(xs), lambda g: g), *tensors)


# -- reductions --------------------------------------------------------------


def reduce_sum(a, axes=None) -> Tensor:
    """Sum over ``axes`` (numpy's ``axis``: None sums everything)."""

    def kernel(x):
        def deriv(g):
            gx = g if axes is None else np.expand_dims(g, axes)
            return (np.broadcast_to(gx, x.shape),)
        return x.sum(axis=axes), deriv

    return fused(kernel, a)
