"""Fuzzy connectives and aggregators on truth tensors.

Each connective is a family of one kind. ``_CONNECTIVES`` maps every
``(kind, family)`` to its truth rule; a family marked * below also has a
stable form, and its entry gives the squeeze of each operand:

- ``not``: ``standard`` (1 - a)
- ``and``: ``min``, ``product`` * (pi0, pi0), ``luk``
- ``or``: ``max``, ``product`` * (probabilistic sum; pi1, pi1), ``luk``
- ``implies``: ``kleene_dienes``, ``godel``, ``reichenbach`` * (pi0 on
  the antecedent, pi1 on the consequent), ``goguen``, ``luk``

Aggregators generalize them over a whole axis. ``_AGGREGATORS`` maps
each family to its neutral value (in brackets), its rule and the
squeeze of its stable form: ``min`` (1), ``max`` (0), ``prod`` (1),
``prob_sum`` (0), ``luk_and`` (0), ``luk_or`` (0), ``mean`` (0), and the
only families that take p and have a stable form, the p-means ``pmean``
(0; pi0), which leans toward the largest inputs as p grows, and
``pmean_error`` (1; pi1), which penalizes the largest deviations from 1.

Most of these have gradient pathologies somewhere on [0, 1]: min/max
propagate through a single input, product families flatline at the
corners, p-means blow up at them. The "stable" variants squeeze inputs
away from the corners with the affine maps pi0(x) = (1-eps)x + eps and
pi1(x) = (1-eps)x, trading exact boundary identities (e.g. and(a, 1) is
no longer a) for bounded, nonvanishing gradients.
``tests/test_fuzzy.py`` measures all of this empirically.

Piecewise ops use a fixed subgradient convention: the branch condition is
evaluated on values and frozen, so e.g. godel/goguen/luk implications
take the derivative of their "otherwise" branch when a > b and zero when
a <= b.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from reallogic import tensor as T
from reallogic.tensor import DomainError, Tensor, astensor

TOL = 1e-9  # forgiveness for float drift outside [0, 1]


@dataclass(frozen=True)
class ConnectiveOp:
    kind: str
    family: str
    stable: bool = False
    eps: float = 1e-4

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
    eps: float = 1e-4

    def __post_init__(self):
        if self.family not in _AGGREGATORS:
            raise ValueError(f"unknown aggregator family {self.family!r}")
        pmean = _AGGREGATORS[self.family][2] is not None
        if pmean:
            p = 2.0 if self.p is None else float(self.p)
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


def _pi0(t: Tensor, eps: float) -> Tensor:
    return (1.0 - eps) * t + eps


def _pi1(t: Tensor, eps: float) -> Tensor:
    return (1.0 - eps) * t


def _checked(t) -> Tensor:
    """Validate truth values; clamp only float drift within TOL."""
    t = astensor(t)
    d = t.data
    if d.size:
        lo, hi = d.min(), d.max()
        if lo < -TOL or hi > 1.0 + TOL:
            raise DomainError(f"truth value outside [0, 1]: range [{lo}, {hi}]")
        if lo < 0.0 or hi > 1.0:
            t = T.minimum(T.maximum(t, 0.0), 1.0)
    return t


def _goguen(a: Tensor, b: Tensor) -> Tensor:
    denom = T.where(a.data > b.data, a, 1.0)
    return T.where(a.data <= b.data, 1.0, b / denom)


# (kind, family) -> (truth rule, squeeze of each operand in the stable
# form, or None where the family has no stable form)
_CONNECTIVES = {
    ("not", "standard"): (lambda a: 1.0 - a, None),
    ("and", "min"): (T.minimum, None),
    ("and", "product"): (lambda a, b: a * b, (_pi0, _pi0)),
    ("and", "luk"): (lambda a, b: T.maximum(a + b - 1.0, 0.0), None),
    ("or", "max"): (T.maximum, None),
    ("or", "product"): (lambda a, b: a + b - a * b, (_pi1, _pi1)),
    ("or", "luk"): (lambda a, b: T.minimum(a + b, 1.0), None),
    ("implies", "kleene_dienes"): (lambda a, b: T.maximum(1.0 - a, b), None),
    ("implies", "godel"): (lambda a, b: T.where(a.data <= b.data, 1.0, b), None),
    ("implies", "reichenbach"): (lambda a, b: 1.0 - a + a * b, (_pi0, _pi1)),
    ("implies", "goguen"): (_goguen, None),
    ("implies", "luk"):
        (lambda a, b: T.where(a.data <= b.data, 1.0, 1.0 - a + b), None),
}
_KINDS = {kind for kind, _ in _CONNECTIVES}


def apply_connective(op: ConnectiveOp, a, b=None) -> Tensor:
    if (b is None) != (op.kind == "not"):
        raise ValueError("not is unary" if b is not None
                         else f"{op.kind} needs two operands")
    rule, squeeze = _CONNECTIVES[op.kind, op.family]
    a = _checked(a)
    if b is None:
        return rule(a)
    b = _checked(b)
    if op.stable:
        a, b = squeeze[0](a, op.eps), squeeze[1](b, op.eps)
    return rule(a, b)


def _pack(t: Tensor, m: np.ndarray):
    """Gather the cells the boolean rows of ``m`` keep into one axis.

    ``m`` has the shape of ``t`` with its reduced axes flattened into
    one last axis, so ``m``'s row-major cells are ``t``'s. Returns
    ``(packed, valid, count)``. ``packed`` has ``m``'s leading shape plus
    a last axis as wide as the largest kept count: each row's kept cells
    in order, then padding. ``valid`` marks the kept entries and
    ``count`` holds the number kept per row. After a count and a nonzero
    pass over ``m``, the work scales with the kept cells, not with ``t``.
    """
    lead = m.shape[:-1]
    rows = m.reshape(math.prod(lead), m.shape[-1])
    count = np.count_nonzero(rows, axis=1)
    # a padded column keeps min/max defined where no cell is kept
    width = max(int(count.max(initial=0)), min(t.data.size, 1))
    valid = np.arange(width) < count[:, None]
    idx = np.zeros(valid.shape, dtype=np.intp)
    idx[valid] = np.flatnonzero(rows)  # row-major: each row's kept cells first
    shape = lead + (width,)
    return (T.take(t, idx.reshape(shape)), valid.reshape(shape),
            count.reshape(lead))


def _pmean(x: Tensor, count, p: float, vacant) -> Tensor:
    base = T.reduce_sum(T.power(x, p), -1) / np.maximum(count, 1.0)
    if vacant is not None:
        # x ** (1/p) has no finite derivative at 0, so a row with no
        # kept cell takes base 1; aggregate patches its value
        base = T.where(vacant, 1.0, base)
    return T.power(base, 1.0 / p)


# family -> (neutral value, which fills the cells a mask leaves out;
# rule reducing the last axis of x, given the kept count per row, p and
# the rows a mask keeps no cell of; squeeze in the stable form or None)
_AGGREGATORS = {
    "min": (1.0, lambda x, *_: T.reduce_min(x), None),
    "max": (0.0, lambda x, *_: T.reduce_max(x), None),
    "prod": (1.0, lambda x, *_: T.reduce_prod(x), None),
    "prob_sum": (0.0, lambda x, *_: 1.0 - T.reduce_prod(1.0 - x), None),
    "luk_and": (0.0, lambda x, count, *_:
                T.maximum(T.reduce_sum(x, -1) - count + 1.0, 0.0), None),
    "luk_or": (0.0, lambda x, *_: T.minimum(T.reduce_sum(x, -1), 1.0), None),
    "mean": (0.0, lambda x, count, *_:
             T.reduce_sum(x, -1) / np.maximum(count, 1.0), None),
    "pmean": (0.0, _pmean, _pi0),
    "pmean_error": (1.0, lambda x, *rest: 1.0 - _pmean(1.0 - x, *rest), _pi1),
}


def aggregate(spec: AggregatorSpec, t, k: int, mask=None, empty=None) -> Tensor:
    """Aggregate truth values over the last ``k`` axes of ``t``.

    Those axes are flattened into one last axis, which the family's rule
    in ``_AGGREGATORS`` reduces. ``empty`` is the value over no cell (1
    for vacuous universals, 0 for failed existentials): every result
    cell takes it when the reduced axes hold no cell. ``mask`` (a
    constant boolean array broadcastable to ``t``) restricts the
    aggregation to selected cells. Their cells are packed per result
    cell (:func:`_pack`), squeezed in the stable form, and the padding
    is filled with the family's neutral value, so past two passes over
    the boolean mask the work and its backward scale with the kept
    cells, not with the grid; masked-out cells get a zero gradient.
    Result cells whose mask keeps no cell are patched with ``empty``;
    left as None, their raw value leaks through, an error at use sites.
    """
    t = _checked(t)
    lead = t.shape[:t.ndim - k]
    flat = lead + (math.prod(t.shape[t.ndim - k:]),)
    if empty is not None and flat[-1] == 0:
        return Tensor(np.full(lead, float(empty)))
    neutral, rule, squeeze = _AGGREGATORS[spec.family]
    if mask is None:
        t, valid, count = T.reshape(t, flat), None, float(flat[-1])
    else:
        m = np.broadcast_to(np.asarray(mask, dtype=bool), t.shape).reshape(flat)
        t, valid, count = _pack(t, m)
    if spec.stable:
        t = squeeze(t, spec.eps)
    vacant = None
    if valid is not None:
        t = T.where(valid, t, neutral)
        vacant = None if count.all() else count == 0
    out = rule(t, count, spec.p, vacant)
    if vacant is not None and empty is not None:
        out = T.where(vacant, float(empty), out)
    return out


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
    eps = 1e-4.
    """
    neg: ConnectiveOp = ConnectiveOp("not", "standard")
    conj: ConnectiveOp = ConnectiveOp("and", "product", stable=True)
    disj: ConnectiveOp = ConnectiveOp("or", "product", stable=True)
    impl: ConnectiveOp = ConnectiveOp("implies", "reichenbach", stable=True)
    forall: AggregatorSpec = AggregatorSpec("pmean_error", p=2, stable=True)
    exists: AggregatorSpec = AggregatorSpec("pmean", p=2, stable=True)
    sat_agg: AggregatorSpec = AggregatorSpec("pmean_error", p=2, stable=True)
    eq_alpha: float = 1.0

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
        return ConnectiveOp(kind, base, stable, kwargs.get("eps", 1e-4))
    if kind in ("forall", "exists", "agg"):
        return AggregatorSpec(base, kwargs.get("p"), stable, kwargs.get("eps", 1e-4))
    raise ValueError(f"unknown config key {kind!r}")
