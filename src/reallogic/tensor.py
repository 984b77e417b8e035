"""Reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps a float64 numpy array plus an optional gradient. Every op
builds an implicit graph: the result keeps handles to its parents and a
closure that pushes the output gradient back into them. ``backward()``
walks that graph once in reverse topological order, so each rule fires
exactly once no matter how often a node is reused.

Conventions that matter downstream:

- float64 everywhere; inputs are coerced on construction.
- elementwise ``min``/``max`` send the gradient to the FIRST argument on
  ties; reduce ``min``/``max`` send it to the first index in row-major
  order over the reduced axes. Ties are measure-zero during training but
  the rule keeps tests deterministic. A masked ``fuzzy.aggregate`` packs
  its kept cells, in row-major order, ahead of its fill values, so a
  masked ``min``/``max`` that ties with its fill sends the gradient to
  the first kept cell.
- ``take(a, idx)`` gathers cells by flat position; positions repeated in
  ``idx`` have their gradients summed.
- ``pow`` takes a Python scalar exponent only.
- ops let numpy produce ``inf``/``nan`` silently. Callers check:
  ``fuzzy`` raises :class:`DomainError` on truth values outside [0, 1],
  and ``training`` raises ``DivergenceError`` on a non-finite loss or
  gradient.
"""

from __future__ import annotations

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


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "_op")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._backward = None
        self._parents = ()
        self._op = ""

    # -- introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag}, op={self._op or 'leaf'})"

    # -- graph plumbing ------------------------------------------------

    def _accum(self, g: np.ndarray) -> None:
        g = unbroadcast(g, self.data.shape)
        self.grad = g if self.grad is None else self.grad + g

    def backward(self) -> None:
        """Backpropagate from this scalar node."""
        if self.data.size != 1:
            raise ValueError("backward() needs a scalar root")
        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        for node in order:
            node.grad = None
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- operator sugar --------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, n):
        return power(self, n)

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, *shape):
        return reshape(self, *shape)

    def sum(self, axes=None):
        return reduce_sum(self, axes)


def astensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _result(data, parents, backward, op) -> Tensor:
    out = Tensor(data, requires_grad=any(p.requires_grad for p in parents))
    if out.requires_grad:
        out._parents = tuple(parents)
        out._backward = backward
        out._op = op
    return out


# -- elementwise ops -----------------------------------------------------


def add(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)

    def back(g):
        a._accum(g)
        b._accum(g)

    return _result(a.data + b.data, (a, b), back, "add")


def sub(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)

    def back(g):
        a._accum(g)
        b._accum(-g)

    return _result(a.data - b.data, (a, b), back, "sub")


def mul(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)

    def back(g):
        a._accum(g * b.data)
        b._accum(g * a.data)

    return _result(a.data * b.data, (a, b), back, "mul")


def div(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    with np.errstate(all="ignore"):
        out = a.data / b.data

    def back(g):
        with np.errstate(all="ignore"):
            a._accum(g / b.data)
            b._accum(-g * a.data / (b.data * b.data))

    return _result(out, (a, b), back, "div")


def neg(a) -> Tensor:
    a = astensor(a)

    def back(g):
        a._accum(-g)

    return _result(-a.data, (a,), back, "neg")


def power(a, n) -> Tensor:
    """``a ** n`` for a Python scalar ``n``."""
    if isinstance(n, Tensor) or isinstance(n, np.ndarray):
        raise TypeError("pow exponent must be a Python scalar")
    a = astensor(a)
    n = float(n)
    with np.errstate(all="ignore"):
        out = a.data ** n

    def back(g):
        if n == 0.0:
            return
        with np.errstate(all="ignore"):
            a._accum(g * n * a.data ** (n - 1.0))

    return _result(out, (a,), back, "pow")


def exp(a) -> Tensor:
    a = astensor(a)
    with np.errstate(over="ignore"):
        out = np.exp(a.data)

    def back(g):
        a._accum(g * out)

    return _result(out, (a,), back, "exp")


def maximum(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    pick_a = a.data >= b.data  # ties go to the first argument

    def back(g):
        a._accum(g * pick_a)
        b._accum(g * ~pick_a)

    return _result(np.maximum(a.data, b.data), (a, b), back, "max")


def minimum(a, b) -> Tensor:
    a, b = astensor(a), astensor(b)
    pick_a = a.data <= b.data

    def back(g):
        a._accum(g * pick_a)
        b._accum(g * ~pick_a)

    return _result(np.minimum(a.data, b.data), (a, b), back, "min")


def where(cond, a, b) -> Tensor:
    """Select ``a`` where ``cond`` else ``b``; ``cond`` is a constant mask."""
    cond = np.asarray(cond.data if isinstance(cond, Tensor) else cond, dtype=bool)
    a, b = astensor(a), astensor(b)

    def back(g):
        a._accum(g * cond)
        b._accum(g * ~cond)

    return _result(np.where(cond, a.data, b.data), (a, b), back, "where")


# -- activations -----------------------------------------------------------


def sigmoid(a) -> Tensor:
    a = astensor(a)
    with np.errstate(over="ignore"):
        out = np.where(a.data >= 0,
                       1.0 / (1.0 + np.exp(-a.data)),
                       np.exp(a.data) / (1.0 + np.exp(a.data)))

    def back(g):
        a._accum(g * out * (1.0 - out))

    return _result(out, (a,), back, "sigmoid")


def elu(a) -> Tensor:
    a = astensor(a)
    pos = a.data > 0
    out = np.where(pos, a.data, np.expm1(np.minimum(a.data, 0.0)))

    def back(g):
        a._accum(g * np.where(pos, 1.0, out + 1.0))

    return _result(out, (a,), back, "elu")


def softmax(a) -> Tensor:
    """Softmax over the last axis."""
    a = astensor(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def back(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        a._accum((g - dot) * out)

    return _result(out, (a,), back, "softmax")


# -- shape ops -------------------------------------------------------------


def reshape(a, *shape) -> Tensor:
    a = astensor(a)
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    old = a.data.shape

    def back(g):
        a._accum(g.reshape(old))

    return _result(a.data.reshape(shape), (a,), back, "reshape")


def moveaxis(a, src, dst) -> Tensor:
    a = astensor(a)

    def back(g):
        a._accum(np.moveaxis(g, dst, src))

    return _result(np.moveaxis(a.data, src, dst), (a,), back, "moveaxis")


def broadcast_to(a, shape) -> Tensor:
    a = astensor(a)
    shape = tuple(shape)

    def back(g):
        a._accum(g)  # _accum unbroadcasts

    return _result(np.broadcast_to(a.data, shape).copy(), (a,), back, "broadcast")


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [astensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def back(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            t._accum(piece)

    return _result(np.concatenate([t.data for t in tensors], axis=axis),
                   tensors, back, "concat")


def take(a, idx) -> Tensor:
    """Cells of ``a`` at the row-major flat positions ``idx`` (an
    integer array); the result has the shape of ``idx``. Positions taken
    more than once have their gradients summed."""
    a = astensor(a)
    idx = np.asarray(idx, dtype=np.intp)

    def back(g):
        a._accum(np.bincount(idx.ravel(), weights=g.ravel(),
                             minlength=a.data.size).reshape(a.data.shape))

    return _result(a.data.reshape(-1)[idx], (a,), back, "take")


def stack(tensors, axis: int = 0) -> Tensor:
    """Stack along a fresh axis (built from reshape + concat)."""
    expanded = []
    for t in tensors:
        t = astensor(t)
        shp = list(t.data.shape)
        shp.insert(axis if axis >= 0 else axis + t.data.ndim + 1, 1)
        expanded.append(reshape(t, tuple(shp)))
    return concat(expanded, axis=axis)


def matmul(a, w) -> Tensor:
    """``(..., m) @ (m, h)`` -> ``(..., h)``."""
    a, w = astensor(a), astensor(w)
    if w.data.ndim != 2:
        raise ValueError("matmul right operand must be 2-D")
    m, h = w.data.shape

    def back(g):
        a._accum(g @ w.data.T)
        w._accum(a.data.reshape(-1, m).T @ g.reshape(-1, h))

    return _result(a.data @ w.data, (a, w), back, "matmul")


# -- reductions --------------------------------------------------------------


def _norm_axes(a: Tensor, axes):
    if axes is None:
        return tuple(range(a.data.ndim))
    if isinstance(axes, int):
        axes = (axes,)
    axes = tuple(ax % a.data.ndim for ax in axes)
    if len(set(axes)) != len(axes):
        raise ValueError("duplicate reduce axes")
    return tuple(sorted(axes))


def reduce_sum(a, axes=None) -> Tensor:
    a = astensor(a)
    axes = _norm_axes(a, axes)
    if not axes and a.data.ndim > 0:
        return a
    shape = a.data.shape

    def back(g):
        gx = np.expand_dims(g, axes) if axes else g
        a._accum(np.broadcast_to(gx, shape))

    return _result(a.data.sum(axis=axes or None), (a,), back, "sum")


def _reduce_extreme(a: Tensor, axes, biggest: bool) -> Tensor:
    a = astensor(a)
    axes = _norm_axes(a, axes)
    if not axes and a.data.ndim > 0:
        return a
    nd = a.data.ndim
    lead = tuple(i for i in range(nd) if i not in axes)
    moved = np.moveaxis(a.data, axes, range(len(lead), nd))
    lead_shape = moved.shape[:len(lead)]
    flat = moved.reshape((int(np.prod(lead_shape, dtype=int)), -1))
    idx = flat.argmax(axis=1) if biggest else flat.argmin(axis=1)  # first hit wins
    rows = np.arange(flat.shape[0])
    out = flat[rows, idx].reshape(lead_shape)

    def back(g):
        gf = np.zeros_like(flat)
        gf[rows, idx] = g.reshape(-1)
        a._accum(np.moveaxis(gf.reshape(moved.shape), range(len(lead), nd), axes))

    return _result(out, (a,), back, "amax" if biggest else "amin")


def reduce_max(a, axes=None) -> Tensor:
    return _reduce_extreme(a, axes, biggest=True)


def reduce_min(a, axes=None) -> Tensor:
    return _reduce_extreme(a, axes, biggest=False)


def reduce_prod(a, axes=None) -> Tensor:
    """Product over axes. Gradient is exact even with zero entries:
    each position gets the product of all the others in its block."""
    a = astensor(a)
    axes = _norm_axes(a, axes)
    if not axes and a.data.ndim > 0:
        return a
    nd = a.data.ndim
    lead = tuple(i for i in range(nd) if i not in axes)
    moved = np.moveaxis(a.data, axes, range(len(lead), nd))
    lead_shape = moved.shape[:len(lead)]
    flat = moved.reshape((int(np.prod(lead_shape, dtype=int)), -1))
    out = flat.prod(axis=1).reshape(lead_shape)

    def back(g):
        zeros = flat == 0.0
        nzeros = zeros.sum(axis=1)
        safe = np.where(zeros, 1.0, flat)
        prod_nonzero = safe.prod(axis=1)
        gf = np.where(nzeros[:, None] == 0, prod_nonzero[:, None] / safe, 0.0)
        one = nzeros == 1
        if one.any():
            gf[one] = np.where(zeros[one], prod_nonzero[one, None], 0.0)
        gf = gf * g.reshape(-1, 1)
        a._accum(np.moveaxis(gf.reshape(moved.shape), range(len(lead), nd), axes))

    return _result(out, (a,), back, "prod")
