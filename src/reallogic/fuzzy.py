"""Fuzzy connectives and aggregators on truth tensors.

Every connective and every aggregator is one graph node of the one node
form that ``tensor`` states, built by ``tensor.fused``: its kernel maps
the operands' arrays to the result and a derivative rule, which runs
only in backward, so a query or a record forward pays nothing for it.
Each table below states each operator once, its value and its
derivative side by side.

Each connective is a family of one kind. ``_CONNECTIVES`` maps every
``(kind, family)`` to its kernel; a family marked * below also has a
stable form, and its entry gives the squeeze of each operand:

- ``not``: ``standard`` (1 - a)
- ``and``: ``min``, ``product`` * (pi0, pi0), ``luk``
- ``or``: ``max``, ``product`` * (probabilistic sum; pi1, pi1), ``luk``
- ``implies``: ``kleene_dienes``, ``godel``, ``reichenbach`` * (pi0 on
  the antecedent, pi1 on the consequent), ``goguen``, ``luk``

Every product over the operands' broadcast grid is ``tensor.product``:
the value ``a * b`` of the product families (product and/or,
reichenbach), and each derivative rule's ``g * d`` summed to an
operand's shape, which is not built at the result's size first. Only
goguen's partials, which depend on both operands, are built there and
summed by ``tensor.unbroadcast``.

Aggregators generalize them over a whole axis. ``_AGGREGATORS`` maps
each family to its neutral value (in brackets), its kernel and the
squeeze of its stable form: ``min`` (1), ``max`` (0), ``prod`` (1),
``prob_sum`` (0), ``luk_and`` (0), ``luk_or`` (0), ``mean`` (0), and the
only families that take p and have a stable form, the p-means ``pmean``
(0; pi0), which leans toward the largest inputs as p grows, and
``pmean_error`` (1; pi1), which penalizes the largest deviations from 1.
An aggregator kernel reduces the last axis. ``aggregate`` folds the
squeeze, the neutral fill of masked cells and the patch of rows with no
kept cell into the same node; a masked aggregate's one other node is
the gather of its kept cells.

Most of these have gradient pathologies somewhere on [0, 1]: min/max
propagate through a single input, product families flatline at the
corners, p-means blow up at them. The "stable" variants squeeze inputs
away from the corners with the affine maps pi0(x) = (1-eps)x + eps and
pi1(x) = (1-eps)x, trading exact boundary identities (e.g. and(a, 1) is
no longer a) for bounded, nonvanishing gradients.
``tests/test_fuzzy.py`` measures all of this empirically, and keeps the
composite tensor rules that the kernels replaced as their oracle.

Piecewise ops use a fixed subgradient convention: the branch condition is
evaluated on values and frozen, so e.g. godel/goguen/luk implications
take the derivative of their "otherwise" branch when a > b and zero when
a <= b. Ties are measure-zero during training, but the rule keeps tests
deterministic: ``and:min``, ``or:max`` and ``implies:kleene_dienes``
send the gradient to their first operand (the negated antecedent) on
ties, and the ``min``/``max`` aggregators to the first index along the
reduced axis. A masked aggregate packs its kept cells, in row-major
order, ahead of its fill values, so a masked ``min``/``max`` that ties
with its fill sends the gradient to the first kept cell.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from reallogic import tensor as T
from reallogic.tensor import DomainError, Tensor, astensor

TOL = 1e-9  # forgiveness for float drift outside [0, 1]
EPS = 1e-4  # the stable squeezes' default eps


@dataclass(frozen=True)
class ConnectiveOp:
    kind: str
    family: str
    stable: bool = False
    eps: float = EPS

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown connective kind {self.kind!r}")
        if (self.kind, self.family) not in _CONNECTIVES:
            raise ValueError(f"no {self.kind} family {self.family!r}")
        if self.stable and _CONNECTIVES[self.kind, self.family][1] is None:
            raise ValueError(f"{self.kind}:{self.family} has no stable form")
        if not 0.0 < self.eps < 0.5:
            raise ValueError("eps must be in (0, 0.5)")


@dataclass(frozen=True)
class AggregatorSpec:
    family: str
    p: float = None
    stable: bool = False
    eps: float = EPS

    def __post_init__(self):
        if self.family not in _AGGREGATORS:
            raise ValueError(f"unknown aggregator family {self.family!r}")
        pmean = _AGGREGATORS[self.family][2] is not None
        if pmean:
            p = 2.0 if self.p is None else float(self.p)
            if not math.isfinite(p):
                raise ValueError(f"p must be finite, got {p:g}")
            if p < 1.0:
                raise ValueError("p must be >= 1")
            object.__setattr__(self, "p", p)
        elif self.p is not None:
            raise ValueError(f"{self.family} takes no p")
        if self.stable and not pmean:
            raise ValueError(f"{self.family} has no stable form")
        if not 0.0 < self.eps < 0.5:
            raise ValueError("eps must be in (0, 0.5)")

    def with_p(self, p) -> "AggregatorSpec":
        return self if p is None else dataclasses.replace(self, p=float(p))


# the stable squeezes; both have slope 1 - eps
def _pi0(x: np.ndarray, eps: float) -> np.ndarray:
    return (1.0 - eps) * x + eps


def _pi1(x: np.ndarray, eps: float) -> np.ndarray:
    return (1.0 - eps) * x


def _checked(t, kept=None) -> Tensor:
    """Validate truth values, only the cells ``kept`` marks if given;
    clamp only float drift within TOL."""
    t = astensor(t)
    d = t.data if kept is None else t.data[kept]
    if d.size:
        lo, hi = d.min(), d.max()
        if not (lo >= -TOL and hi <= 1.0 + TOL):  # NaN fails both
            raise DomainError(f"truth value outside [0, 1]: range [{lo}, {hi}]")
        if lo < 0.0 or hi > 1.0:
            inside = (t.data >= 0.0) & (t.data <= 1.0)
            t = T.where(inside, t, np.clip(t.data, 0.0, 1.0))
    return t


# -- connective kernels ------------------------------------------------------
#
# Each maps the operands' arrays to the result and the rule that turns
# the result's gradient into one gradient per operand (None where the
# result does not depend on it).


def _not(a):
    return 1.0 - a, lambda g: (-g,)


def _picked(g, pick, a, b, both=False, sign=1.0):
    """``g`` where ``pick`` holds to ``a`` (times ``sign``), and to ``b``
    where it does not, or where it does when ``both``; each summed to
    its operand's shape. Every other cell gets an exact 0, even from an
    infinite ``g``."""
    ga = np.where(pick, g, 0.0)
    gb = ga if both else np.where(pick, 0.0, g)
    return sign * T.unbroadcast(ga, a.shape), T.unbroadcast(gb, b.shape)


def _min(a, b):
    return np.minimum(a, b), lambda g: _picked(g, a <= b, a, b)


def _max(a, b):
    return np.maximum(a, b), lambda g: _picked(g, a >= b, a, b)


def _product_and(a, b):
    return (T.product(a, b),
            lambda g: (T.product(g, b, a.shape), T.product(g, a, b.shape)))


def _product_or(a, b):
    return (a + b - T.product(a, b),
            lambda g: (T.unbroadcast(g, a.shape) - T.product(g, b, a.shape),
                       T.unbroadcast(g, b.shape) - T.product(g, a, b.shape)))


def _luk_and(a, b):
    return (np.maximum(a + b - 1.0, 0.0),
            lambda g: _picked(g, a + b - 1.0 >= 0.0, a, b, both=True))


def _luk_or(a, b):
    return np.minimum(a + b, 1.0), lambda g: _picked(g, a + b <= 1.0, a, b, both=True)


def _kleene_dienes(a, b):
    return (np.maximum(1.0 - a, b),
            lambda g: _picked(g, 1.0 - a >= b, a, b, sign=-1.0))


def _godel(a, b):
    return (np.where(a <= b, 1.0, b),
            lambda g: (None, T.unbroadcast(np.where(a <= b, 0.0, g), b.shape)))


def _reichenbach(a, b):
    return (1.0 - a + T.product(a, b),
            lambda g: (T.product(g, b, a.shape) - T.unbroadcast(g, a.shape),
                       T.product(g, a, b.shape)))


def _goguen(a, b):
    le = a <= b
    denom = np.where(a > b, a, 1.0)  # positive
    out = np.where(le, 1.0, b / denom)

    def deriv(g):
        # both partials depend on both operands: no factor has an
        # operand's shape
        g = np.where(le, 0.0, g)
        with np.errstate(all="ignore"):
            return (T.unbroadcast(-g * b / (denom * denom), a.shape),
                    T.unbroadcast(g / denom, b.shape))
    return out, deriv


def _luk_implies(a, b):
    return (np.where(a <= b, 1.0, 1.0 - a + b),
            lambda g: _picked(g, a > b, a, b, both=True, sign=-1.0))


# (kind, family) -> (kernel, squeeze of each operand in the stable form,
# or None where the family has no stable form)
_CONNECTIVES = {
    ("not", "standard"): (_not, None),
    ("and", "min"): (_min, None),
    ("and", "product"): (_product_and, (_pi0, _pi0)),
    ("and", "luk"): (_luk_and, None),
    ("or", "max"): (_max, None),
    ("or", "product"): (_product_or, (_pi1, _pi1)),
    ("or", "luk"): (_luk_or, None),
    ("implies", "kleene_dienes"): (_kleene_dienes, None),
    ("implies", "godel"): (_godel, None),
    ("implies", "reichenbach"): (_reichenbach, (_pi0, _pi1)),
    ("implies", "goguen"): (_goguen, None),
    ("implies", "luk"): (_luk_implies, None),
}
_KINDS = {kind for kind, _ in _CONNECTIVES}


def apply_connective(op: ConnectiveOp, a, b=None) -> Tensor:
    if (b is None) != (op.kind == "not"):
        raise ValueError("not is unary" if b is not None
                         else f"{op.kind} needs two operands")
    kernel, squeeze = _CONNECTIVES[op.kind, op.family]
    operands = [_checked(x) for x in ((a,) if b is None else (a, b))]
    if not op.stable:
        return T.fused(kernel, *operands)

    def stable(a, b):
        out, deriv = kernel(squeeze[0](a, op.eps), squeeze[1](b, op.eps))
        return out, lambda g: [d * (1.0 - op.eps) for d in deriv(g)]

    return T.fused(stable, *operands)


def _pack(t: Tensor, m: np.ndarray):
    """Gather the cells the boolean rows of ``m`` keep into one axis.

    ``m`` has the shape of ``t`` with its reduced axes flattened into
    one last axis, so ``m``'s row-major cells are ``t``'s. Returns
    ``(packed, valid, count)``. ``packed`` has ``m``'s leading shape plus
    a last axis as wide as the largest kept count: each row's kept cells
    in order, then padding. ``valid`` marks the kept entries and
    ``count`` holds the number kept per row, found by a binary search of
    each row's start among the sorted kept positions. After one nonzero
    pass over ``m``, the work scales with the kept cells, not with ``t``.
    """
    lead = m.shape[:-1]
    kept = np.flatnonzero(m)  # row-major: each row's kept cells in order
    starts = np.arange(math.prod(lead) + 1) * m.shape[-1]
    count = np.diff(np.searchsorted(kept, starts))
    # a padded column keeps min/max defined where a row keeps no cell,
    # and where there is no row; only an empty reduced axis has none
    width = max(int(count.max(initial=0)), min(m.shape[-1], 1))
    valid = np.arange(width) < count[:, None]
    idx = np.zeros(valid.shape, dtype=np.intp)
    idx[valid] = kept
    shape = lead + (width,)
    return (T.take(t, idx.reshape(shape)), valid.reshape(shape),
            count.reshape(lead))


# -- aggregator kernels ------------------------------------------------------
#
# Each reduces the last axis of ``x``, given the kept count per row, p
# and the rows a mask keeps no cell of, to the result and the rule that
# turns the result's gradient into ``x``'s.


def _spread(g, x):
    """The gradient of a sum over the last axis of ``x``."""
    return np.broadcast_to(g[..., None], x.shape)


def _extreme(reduce, first):
    """``reduce`` over the last axis; the gradient goes to the first
    index, ``first``, that attains it."""
    def kernel(x, *_):
        def deriv(g):
            gx = np.zeros_like(x)
            np.put_along_axis(gx, first(x, axis=-1)[..., None], g[..., None],
                              axis=-1)
            return gx
        return reduce(x, axis=-1), deriv
    return kernel


def _prod_partial(x):
    """Each cell's derivative of its row's product, exact even with zero
    entries: the product of all the others in its row."""
    zeros = x == 0.0
    nzeros = zeros.sum(axis=-1, keepdims=True)
    safe = np.where(zeros, 1.0, x)
    prod_nonzero = safe.prod(axis=-1, keepdims=True)
    return np.where(nzeros == 0, prod_nonzero / safe,
                    np.where(zeros & (nzeros == 1), prod_nonzero, 0.0))


def _prod(x, *_):
    return x.prod(axis=-1), lambda g: _prod_partial(x) * g[..., None]


def _prob_sum(x, *_):
    y = 1.0 - x
    return 1.0 - y.prod(axis=-1), lambda g: _prod_partial(y) * g[..., None]


def _luk_and_agg(x, count, *_):
    v = x.sum(axis=-1) - count + 1.0
    return np.maximum(v, 0.0), lambda g: _spread(np.where(v >= 0.0, g, 0.0), x)


def _luk_or_agg(x, *_):
    s = x.sum(axis=-1)
    return np.minimum(s, 1.0), lambda g: _spread(np.where(s <= 1.0, g, 0.0), x)


def _mean(x, count, *_):
    denom = np.maximum(count, 1.0)
    return x.sum(axis=-1) / denom, lambda g: _spread(g / denom, x)


def _pmean(x, count, p, vacant):
    denom = np.maximum(count, 1.0)
    # an array even at 0-d: numpy's scalar ** rounds unlike its array **
    base = np.asarray((x ** p).sum(axis=-1) / denom)
    if vacant is not None:
        # x ** (1/p) has no finite derivative at 0, so a row with no
        # kept cell takes base 1; aggregate patches its value
        base = np.where(vacant, 1.0, base)
    out = base ** (1.0 / p)

    def deriv(g):
        with np.errstate(all="ignore"):
            gb = g * (1.0 / p) * base ** (1.0 / p - 1.0)
            return (gb / denom * p)[..., None] * x ** (p - 1.0)
    return out, deriv


def _pmean_error(x, *rest):
    # both negations cancel in the gradient
    out, deriv = _pmean(1.0 - x, *rest)
    return 1.0 - out, deriv


# family -> (neutral value, which fills the cells a mask leaves out;
# kernel; squeeze in the stable form or None)
_AGGREGATORS = {
    "min": (1.0, _extreme(np.min, np.argmin), None),
    "max": (0.0, _extreme(np.max, np.argmax), None),
    "prod": (1.0, _prod, None),
    "prob_sum": (0.0, _prob_sum, None),
    "luk_and": (0.0, _luk_and_agg, None),
    "luk_or": (0.0, _luk_or_agg, None),
    "mean": (0.0, _mean, None),
    "pmean": (0.0, _pmean, _pi0),
    "pmean_error": (1.0, _pmean_error, _pi1),
}


def aggregate(spec: AggregatorSpec, t, k: int, mask=None, empty=None) -> Tensor:
    """Aggregate truth values over the last ``k`` axes of ``t``.

    Those axes are flattened into one last axis, which the family's
    kernel in ``_AGGREGATORS`` reduces. ``empty`` is the value over no
    cell (1 for vacuous universals, 0 for failed existentials): every
    result cell takes it when the reduced axes hold no cell. ``mask`` (a
    constant boolean array broadcastable to ``t``) restricts the
    aggregation to selected cells. Their cells are packed per result
    cell (:func:`_pack`) and only they are validated; the padding is
    filled with the family's neutral value, so past one pass over the
    boolean mask the work and its backward scale with the kept cells,
    not with the grid; masked-out cells get a zero gradient. Result
    cells whose mask keeps no cell are patched with ``empty``; left as
    None, their raw value leaks through, an error at use sites.
    """
    t = astensor(t)
    lead = t.shape[:t.ndim - k]
    flat = lead + (math.prod(t.shape[t.ndim - k:]),)
    if empty is not None and flat[-1] == 0:
        return Tensor(np.full(lead, float(empty)))
    if mask is None:
        t, valid, count = _checked(t), None, float(flat[-1])
    else:
        m = np.broadcast_to(np.asarray(mask, dtype=bool), t.shape).reshape(flat)
        packed, valid, count = _pack(t, m)
        t, flat = _checked(packed, valid), packed.shape
    neutral, kernel, squeeze = _AGGREGATORS[spec.family]
    vacant = None if valid is None or count.all() else count == 0
    shape = t.shape

    def fold(x):
        x = x.reshape(flat)
        if spec.stable:
            x = squeeze(x, spec.eps)
        if valid is not None:
            x = np.where(valid, x, neutral)
        out, deriv = kernel(x, count, spec.p, vacant)
        if vacant is not None and empty is not None:
            out = np.where(vacant, float(empty), out)

        def back(g):
            gx = deriv(g)
            if valid is not None:  # an exact 0 on padding and vacant rows
                gx = np.where(valid, gx, 0.0)
            if spec.stable:
                gx = gx * (1.0 - spec.eps)
            return (gx.reshape(shape),)
        return out, back

    return T.fused(fold, t)


# -- configuration ------------------------------------------------------------

# config key, as written in theory and --config files -> FuzzyConfig field
CONFIG_KEYS = {"not": "neg", "and": "conj", "or": "disj", "implies": "impl",
               "forall": "forall", "exists": "exists", "agg": "sat_agg",
               "eq_alpha": "eq_alpha"}


@dataclass(frozen=True)
class FuzzyConfig:
    """Operator choices for a whole theory, plus the equality sharpness.

    The defaults are the stable product configuration: stable product
    and/or, stable Reichenbach implication, and stable p-means with
    p = 2 (pmean_error for forall and Sat, pmean for exists), all with
    eps = EPS.
    """
    neg: ConnectiveOp = ConnectiveOp("not", "standard")
    conj: ConnectiveOp = ConnectiveOp("and", "product", stable=True)
    disj: ConnectiveOp = ConnectiveOp("or", "product", stable=True)
    impl: ConnectiveOp = ConnectiveOp("implies", "reichenbach", stable=True)
    forall: AggregatorSpec = AggregatorSpec("pmean_error", p=2, stable=True)
    exists: AggregatorSpec = AggregatorSpec("pmean", p=2, stable=True)
    sat_agg: AggregatorSpec = AggregatorSpec("pmean_error", p=2, stable=True)
    eq_alpha: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.eq_alpha < math.inf:  # NaN fails too
            raise ValueError(f"eq_alpha must be a positive finite number, "
                             f"got {self.eq_alpha}")

    def with_tag(self, kind: str, tag: str) -> "FuzzyConfig":
        """Replace one operator from its text form, e.g. ("and", "luk"),
        or the equality sharpness from a number ("eq_alpha", "2.5")."""
        if kind not in CONFIG_KEYS:
            raise ValueError(f"unknown config key {kind!r}")
        value = float(tag) if kind == "eq_alpha" else parse_op_tag(kind, tag)
        return dataclasses.replace(self, **{CONFIG_KEYS[kind]: value})


def parse_op_tag(kind: str, text: str):
    """Parse "product_stable" or "pmean_error:p=2,eps=1e-3" style tags."""
    base, _, params = text.strip().partition(":")
    base = base.strip()
    stable = base.endswith("_stable")
    if stable:
        base = base[: -len("_stable")]
    kwargs = {}
    for kv in filter(None, (s.strip() for s in params.split(","))):
        k, sep, v = kv.partition("=")
        if not sep:
            raise ValueError(f"bad op parameter {kv!r}")
        try:
            kwargs[k.strip()] = float(v)
        except ValueError:
            raise ValueError(f"bad op parameter {kv!r}") from None
    extra = set(kwargs) - {"p", "eps"}
    if extra:
        raise ValueError(f"unknown op parameters {sorted(extra)}")
    if kind in _KINDS:
        if "p" in kwargs:
            raise ValueError(f"{kind} takes no p")
        return ConnectiveOp(kind, base, stable, **kwargs)
    if kind in ("forall", "exists", "agg"):
        return AggregatorSpec(base, stable=stable, **kwargs)
    raise ValueError(f"unknown config key {kind!r}")
