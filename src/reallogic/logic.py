"""Typed first-order language and its differentiable interpretation.

Symbols are declared in a :class:`Signature` (domains with feature
dimensions, constants, variables, functions, predicates). A
:class:`GroundingEnv` maps each symbol onto tensors: constants become
feature vectors (fixed or trainable), variables become stacks of
instances. Functions and predicates share one table of groundings
(dense networks, ``select`` networks, builtins, trainable truth
scalars) and one application rule, :func:`_apply`, which grounds both
terms ``f(t1, ..., tn)`` and atoms ``P(t1, ..., tn)``; a predicate is a
function whose value is a truth in [0, 1] and has no feature axis.

Evaluation turns a term into a tensor shaped ``(n_v1, ..., n_vk, feat)``
and a formula into a truth tensor shaped ``(n_v1, ..., n_vk)``, one axis
per free variable in order of first syntactic occurrence. Connectives
align operand axes by name and broadcast, so ``P(x) -> Q(y)`` evaluates
on the full x-by-y grid while ``P(x) -> Q(x)`` stays elementwise. One
helper, :func:`align`, lines up the axes of function and predicate
arguments, connective operands and guard terms.

A network runs once per cell of its arguments' own grid, not of the
grid of the atom it sits in. A ``select`` predicate's class argument
is not a network input: it only picks from the output, so
``digit_is(x, d)`` runs its classifier once per x and reads the d-th
output. Under dropout, one mask is drawn per input row and shared by
that row's classes. Within one evaluation that opens a memo (a
``satisfiability`` or ``query`` call), a network also runs once per
distinct argument list: ``P(x, l_blue)`` and ``P(x, l_orange)`` of a
``select`` predicate, or ``f(x)`` inside two atoms, get one output
tensor, and the backward pass sums their gradients into it before it
runs the network's backward once. A training scope of an env that has
a dropout network opens no memo, so there every occurrence draws its
own masks, a dropout ``f`` inside another network's arguments too.

Quantifiers aggregate named axes away. A quantifier lays out its body
(and its guard's mask) with the result's variables first and its
quantified variables last, so :func:`reallogic.fuzzy.aggregate` always
reduces a trailing block of axes. A quantifier group with several
variables is evaluated diagonally: the members share one axis, pairing
instance i with instance i, instead of spanning their product grid;
members with unequal instance counts are truncated to the shortest,
with a warning. A quantifier inside such a group that binds one of its
members again gives that variable an axis of its own.
Guards restrict aggregation with a crisp boolean mask computed from
detached values, so no gradient ever flows through a guard; cells whose
guard never fires aggregate to 1 under forall and 0 under exists. The
guard's two sides are grounded apart, after the body, and compared in
the quantifier's layout, so the compare writes the mask contiguous, in
the order the aggregate reads it. The guarded body is still grounded
on the full grid of its variables; only the aggregation packs the cells
the guard keeps (see :func:`reallogic.fuzzy.aggregate`), so its work and
its backward scale with the kept cells.

Evaluation is pure: :func:`ground_formula` and :func:`ground_term` take
a frozen :class:`Scope` with everything that varies per call (variable
rebinds, the shared axis of each diagonal group and its length, the
dropout flag, quantifier p overrides) and pass it down. Quantifiers and
guards derive child scopes from it; nothing is written to the
environment, so a sub-formula can be grounded again under other binds.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, NamedTuple, Optional

import numpy as np

from reallogic import tensor as T
from reallogic.fuzzy import CONFIG_KEYS, FuzzyConfig, aggregate, apply_connective
from reallogic.nn import MlpSpec, ParamStore, dense_forward, init_mlp
from reallogic.tensor import Tensor


QUANTIFIERS = ("forall", "exists")  # the quantifier kinds, as written


class EvalError(ValueError):
    """Formula or term cannot be evaluated against this grounding."""


class SignatureError(ValueError):
    """Symbol declaration or use violates the signature."""


def where(span) -> str:
    """Message prefix ``file:line:col: `` for a source span, or ""."""
    return "" if span is None else f"{span[0]}:{span[1]}:{span[2]}: "


# -- syntax trees -------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    name: str
    span: tuple = field(default=None, compare=False)


@dataclass(frozen=True)
class Var:
    name: str
    span: tuple = field(default=None, compare=False)


@dataclass(frozen=True)
class App:
    func: str
    args: tuple
    span: tuple = field(default=None, compare=False)


Term = Const | Var | App


@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple = ()
    span: tuple = field(default=None, compare=False)


@dataclass(frozen=True)
class Eq:
    lhs: Term
    rhs: Term
    span: tuple = field(default=None, compare=False)


@dataclass(frozen=True)
class Not:
    body: "Formula"
    span: tuple = field(default=None, compare=False)


@dataclass(frozen=True)
class Bin:
    op: str  # and | or | implies | iff
    lhs: "Formula"
    rhs: "Formula"
    span: tuple = field(default=None, compare=False)


@dataclass(frozen=True)
class Guard:
    """Comparison between affine combinations of scalar terms.

    Each side is a tuple of (coefficient, term-or-None); None stands for
    the constant 1, so ``(2.0, None)`` is the literal 2.
    """
    op: str  # a key of COMPARISONS
    lhs: tuple
    rhs: tuple
    span: tuple = field(default=None, compare=False)


# each guard operator and its rule on detached arrays
COMPARISONS = {"<": np.less, "<=": np.less_equal, ">": np.greater,
               ">=": np.greater_equal, "=": np.equal, "!=": np.not_equal}


@dataclass(frozen=True)
class Quant:
    kind: str            # one of QUANTIFIERS
    groups: tuple        # tuple of tuples of var names; len > 1 = diagonal
    guard: Optional[Guard]
    body: "Formula"
    span: tuple = field(default=None, compare=False)


Formula = Atom | Eq | Not | Bin | Quant


@dataclass(frozen=True)
class Axiom:
    formula: Formula
    label: str = None
    p: Mapping = field(default_factory=dict)   # quantifier kind -> p
    span: tuple = field(default=None, compare=False)


class Query(Axiom):
    """A statement read like an axiom, whose truth training records under
    its label instead of counting it in Sat."""


# -- signature -----------------------------------------------------------------


class Signature:
    """Symbol table: domains with dims, plus typed symbol declarations."""

    def __init__(self):
        self.domains: dict[str, int] = {}
        self.constants: dict[str, str] = {}
        self.variables: dict[str, str] = {}
        self.functions: dict[str, tuple[tuple[str, ...], str]] = {}
        self.predicates: dict[str, tuple[str, ...]] = {}

    def _fresh(self, name: str) -> None:
        for table in (self.constants, self.variables, self.functions,
                      self.predicates, self.domains):
            if name in table:
                raise SignatureError(f"symbol {name!r} already declared")

    def add_domain(self, name: str, dim: int) -> None:
        if name in self.domains:
            raise SignatureError(f"domain {name!r} already declared")
        if dim < 1:
            raise SignatureError(f"domain {name!r} needs dim >= 1")
        self.domains[name] = int(dim)

    def _known(self, domain: str) -> str:
        if domain not in self.domains:
            raise SignatureError(f"unknown domain {domain!r}")
        return domain

    def add_constant(self, name: str, domain: str) -> None:
        self._fresh(name)
        self.constants[name] = self._known(domain)

    def add_variable(self, name: str, domain: str) -> None:
        self._fresh(name)
        self.variables[name] = self._known(domain)

    def add_function(self, name: str, din: tuple, dout: str) -> None:
        self._fresh(name)
        self.functions[name] = (tuple(self._known(d) for d in din),
                                self._known(dout))

    def add_predicate(self, name: str, din: tuple) -> None:
        self._fresh(name)
        self.predicates[name] = tuple(self._known(d) for d in din)

    def dim(self, domain: str) -> int:
        return self.domains[self._known(domain)]


def free_vars(formula: Formula) -> tuple[str, ...]:
    """Free variables in order of first syntactic occurrence."""
    order: list[str] = []

    def see(name, bound):
        if name not in bound and name not in order:
            order.append(name)

    def term(t, bound):
        if isinstance(t, Var):
            see(t.name, bound)
        elif isinstance(t, App):
            for a in t.args:
                term(a, bound)

    def walk(f, bound):
        if isinstance(f, Atom):
            for a in f.args:
                term(a, bound)
        elif isinstance(f, Eq):
            term(f.lhs, bound)
            term(f.rhs, bound)
        elif isinstance(f, Not):
            walk(f.body, bound)
        elif isinstance(f, Bin):
            walk(f.lhs, bound)
            walk(f.rhs, bound)
        elif isinstance(f, Quant):
            inner = bound | {v for g in f.groups for v in g}
            if f.guard is not None:
                for side in (f.guard.lhs, f.guard.rhs):
                    for _, t in side:
                        if t is not None:
                            term(t, inner)
            walk(f.body, inner)

    walk(formula, set())
    return tuple(order)


# -- groundings -----------------------------------------------------------------


class GroundedValue(NamedTuple):
    tensor: Tensor
    vars: tuple


@dataclass(frozen=True)
class Scope:
    """Context of one evaluation, passed down through grounding.

    ``binds`` maps variables to other instances (build it with
    :meth:`GroundingEnv.scope`, which checks them). ``alias`` maps
    each diagonally quantified variable to the label of its shared axis,
    and ``trunc`` maps that label to the axis length. ``training`` turns
    on dropout. ``p`` maps a quantifier kind (one of ``QUANTIFIERS``)
    to the p of every quantifier of that kind; a kind left out or mapped
    to None keeps the configured p. Quantifiers and guards derive child
    scopes with ``dataclasses.replace``, so evaluation never writes to
    the env.

    ``memo``, when not None, maps a network's symbol, argument terms and
    aligned argument shapes to its output, so that every later atom or
    term with the same key reuses that output. Child scopes carry it, so
    it spans one evaluation; a guard's ``training=False`` scope reads it
    too, since no network has active dropout where a memo is open.
    ``training.satisfiability`` and ``training.query`` each open a
    fresh one per call, so it never outlives the parameters it was
    computed from; ``satisfiability`` opens none under a training scope
    when :meth:`GroundingEnv.has_dropout`, as each occurrence of a
    dropout network draws its own masks. A scope built by
    :meth:`GroundingEnv.scope` has none and shares nothing.
    """
    binds: Mapping = field(default_factory=dict)
    alias: Mapping = field(default_factory=dict)
    trunc: Mapping = field(default_factory=dict)
    training: bool = False
    p: Mapping = field(default_factory=dict)
    memo: dict = field(default=None, compare=False)


class GroundingEnv:
    """Maps symbols onto tensors.

    Constants and variables each have a table; functions and predicates
    share one, keyed by name, with one adder per implementation:
    :meth:`add_mlp`, :meth:`add_select`, :meth:`add_scalar`,
    :meth:`add_builtin` and :meth:`add_callable`.

    ``cfg`` defaults to the stable product configuration. ``training``
    is the dropout flag that root scopes start from; ``training.learn``
    sets it while an optimizer step grounds Sat.
    """

    def __init__(self, sig: Signature, store: ParamStore,
                 cfg: FuzzyConfig = None):
        self.sig = sig
        self.store = store
        self.cfg = cfg or FuzzyConfig()
        self.training = False
        self._consts: dict[str, tuple] = {}
        self._vars: dict[str, tuple] = {}
        self._symbols: dict[str, tuple] = {}

    # -- declaration helpers ------------------------------------------

    def _declared(self, name: str, table: dict, kind: str):
        if name not in table:
            raise EvalError(f"{name!r} is not a declared {kind}")
        return table[name]

    def add_const(self, name: str, value=None, trainable: bool = False,
                  lo=None, hi=None) -> None:
        dim = self.sig.dim(self._declared(name, self.sig.constants, "constant"))
        if trainable:
            init = (self.store.rng.random(dim) if value is None
                    else np.asarray(value, dtype=np.float64))
            if init.shape != (dim,):
                raise EvalError(f"constant {name} needs shape ({dim},)")
            self.store.add(f"const/{name}", init, lo=lo, hi=hi)
            self._consts[name] = ("slot", f"const/{name}")
        else:
            arr = np.asarray(value, dtype=np.float64)
            if arr.shape != (dim,):
                raise EvalError(f"constant {name} needs shape ({dim},)")
            self._consts[name] = ("fixed", arr)

    def _rows(self, name: str, data) -> np.ndarray:
        """``data`` as instances of the data variable ``name``: an array
        (n, dim), or (n,) when dim is 1."""
        dim = self.sig.dim(self._declared(name, self.sig.variables, "variable"))
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2 or arr.shape[1] != dim:
            raise EvalError(f"variable {name} needs shape (n, {dim})")
        return arr

    def add_var_data(self, name: str, data) -> None:
        arr = self._rows(name, data)
        if arr.shape[0] == 0:
            raise EvalError(f"variable {name} has no instances")
        self._vars[name] = ("data", arr)

    def add_var_consts(self, name: str, const_names) -> None:
        const_names = tuple(const_names)
        if not const_names:
            raise EvalError(f"variable {name} has no instances")
        vdom = self.sig.variables[name]
        for c in const_names:
            if c not in self._consts:
                raise EvalError(f"unknown or ungrounded constant {c!r}")
            if self.sig.constants[c] != vdom:
                raise EvalError(f"constant {c!r} is not in domain {vdom!r}")
        self._vars[name] = ("consts", const_names)

    def _check_mlp(self, spec: MlpSpec, din: tuple, dout, truth: bool) -> None:
        """Raise unless ``spec`` reads the features of the domains ``din``
        side by side, ends in the width ``dout`` when that is not None,
        and, for a ``truth``, ends in an activation that gives truths."""
        fdim = sum(self.sig.dim(d) for d in din)
        if spec.widths[0] != fdim:
            raise EvalError(f"input width {spec.widths[0]} does not match "
                            f"feature dim {fdim}")
        if dout is not None and spec.widths[-1] != dout:
            raise EvalError(f"output width {spec.widths[-1]} does not match "
                            f"dim {dout}")
        if truth and spec.acts[-1] not in ("sigmoid", "softmax"):
            raise EvalError(f"a predicate's network must end in sigmoid or "
                            f"softmax, not {spec.acts[-1]}")

    def add_mlp(self, name: str, spec: MlpSpec) -> None:
        """Network over the arguments' features side by side; a
        function's ends in its range's dim, a predicate's in width 1 and
        in sigmoid or softmax."""
        if name in self.sig.functions:
            din, dout = self.sig.functions[name]
            kind, dout = "mlp", self.sig.dim(dout)
        else:
            din = self._declared(name, self.sig.predicates,
                                 "function or predicate")
            kind, dout = "mlp_truth", 1
        self._check_mlp(spec, din, dout, kind == "mlp_truth")
        init_mlp(self.store, name, spec)
        self._symbols[name] = (kind, spec)

    def add_select(self, name: str, spec: MlpSpec) -> None:
        """Network over all arguments but the last; the last argument's
        features weight the output classes (one-hot picks one). A class
        domain of dim 1 holds integer class indices, so any output width
        passes."""
        din = self._declared(name, self.sig.predicates, "predicate")
        classes = self.sig.dim(din[-1])
        self._check_mlp(spec, din[:-1], None if classes == 1 else classes,
                        truth=True)
        init_mlp(self.store, name, spec)
        self._symbols[name] = ("select", spec)

    def add_scalar(self, name: str, init=None) -> None:
        if self._declared(name, self.sig.predicates, "predicate"):
            raise EvalError("a scalar predicate takes no arguments")
        val = self.store.rng.random() if init is None else float(init)
        self.store.add(name, val, lo=0.0, hi=1.0)
        self._symbols[name] = ("scalar", name)

    def add_builtin(self, name: str, fn: Callable) -> None:
        """fn maps broadcast numpy arrays (..., din_i) to (..., dout);
        it is detached, so use it in guards, not in trained terms."""
        self._declared(name, self.sig.functions, "function")
        self._symbols[name] = ("builtin", fn)

    def add_callable(self, name: str, fn: Callable) -> None:
        """fn takes aligned argument tensors, returns a truth Tensor."""
        self._declared(name, self.sig.predicates, "predicate")
        self._symbols[name] = ("callable", fn)

    def has_dropout(self) -> bool:
        """Whether some network has a dropout rate above 0, so that a
        training scope grounds differently from an evaluation scope."""
        return any(isinstance(spec, MlpSpec) and max(spec.drops) > 0.0
                   for _, spec in self._symbols.values())

    # -- scopes and instances -----------------------------------------------

    def scope(self, binds=None, training: bool = None, p=None) -> Scope:
        """Root scope of one evaluation.

        ``binds`` rebinds variables to other instances, possibly none:
        data-backed variables take a float array (n, dim) or (n,), as
        declarations do; constant-backed variables take an integer index
        array selecting which constants to stack. Each is checked here
        and kept as the instance array or the tuple of constant names.
        ``training`` defaults to the env's flag. ``p`` maps quantifier
        kinds to their p override, as :class:`Scope` does; a key that is
        not one of ``QUANTIFIERS`` is an error.
        """
        for kind in p or {}:
            if kind not in QUANTIFIERS:
                raise EvalError(f"p override for unknown quantifier kind {kind!r}")
        checked = {}
        for name, arr in (binds or {}).items():
            if name not in self._vars:
                raise EvalError(f"cannot bind unknown variable {name!r}")
            kind, payload = self._vars[name]
            if kind == "data":
                checked[name] = self._rows(name, arr)
            else:
                idx = np.asarray(arr, dtype=np.float64).ravel()
                checked[name] = tuple(payload[i] for i in _index(
                    idx, len(payload), f"variable {name}: index"))
        return Scope(checked,
                     training=self.training if training is None else training,
                     p=p or {})

    def instances(self, name: str):
        """The declared instances of variable ``name``: its rows (n, dim),
        or the names of the constants that ground it, in axis order."""
        return self._declared(name, self._vars, "variable")[1]

    def var_length(self, name: str, scope: Scope) -> int:
        """Axis length of a variable or diagonal label: the shared axis's
        truncation when it has one, else the instance count."""
        label = scope.alias.get(name, name)
        if label in scope.trunc:
            return scope.trunc[label]
        return len(scope.binds.get(name, self._vars[name][1]))

    def _var_value(self, name: str, scope: Scope) -> GroundedValue:
        if name not in self._vars:
            raise EvalError(f"variable {name!r} has no grounding")
        label = scope.alias.get(name, name)
        n = self.var_length(name, scope)
        kind, payload = self._vars[name]
        inst = scope.binds.get(name, payload)[:n]
        if kind == "data":
            return GroundedValue(Tensor(inst), (label,))
        if not inst:  # an empty bind: no constant to stack
            dim = self.sig.dim(self.sig.variables[name])
            return GroundedValue(Tensor(np.zeros((0, dim))), (label,))
        return GroundedValue(T.stack([self._const_value(c) for c in inst]),
                             (label,))

    def _const_value(self, name: str) -> Tensor:
        if name not in self._consts:
            raise EvalError(f"constant {name!r} has no grounding")
        kind, payload = self._consts[name]
        return self.store.get(payload) if kind == "slot" else Tensor(payload)


def _index(idx: np.ndarray, n: int, what: str) -> np.ndarray:
    """``idx`` as integers; an EvalError led by ``what`` names the first
    entry that is not an integer in 0..n-1."""
    bad = ~((idx >= 0) & (idx < n) & (idx == np.floor(idx)))
    if bad.any():
        raise EvalError(f"{what} {idx[bad][0]:g} is not an integer in "
                        f"0..{n - 1}")
    return idx.astype(int)


# -- axis alignment ------------------------------------------------------------


def _aligned(x, vars_: tuple, order, feature: bool = False):
    """Reorder the var axes of ``x`` (a Tensor, or a detached numpy
    array) to ``order`` and insert size-1 axes for the vars it lacks."""
    ops = T if isinstance(x, Tensor) else np
    perm = [vars_.index(v) for v in order if v in vars_]
    shape = [x.shape[vars_.index(v)] if v in vars_ else 1 for v in order]
    if perm != sorted(perm):
        x = ops.moveaxis(x, perm, list(range(len(perm))))
    if feature:
        shape.append(x.shape[-1])
    return ops.reshape(x, tuple(shape))


def align(values, feature: bool):
    """Common (order, aligned tensors) for a list of GroundedValues, whose
    tensors may also be detached numpy arrays. ``order`` lists the
    variables by first occurrence."""
    sizes: dict[str, int] = {}
    for gv in values:
        for v, n in zip(gv.vars, gv.tensor.shape):
            if sizes.setdefault(v, n) != n:
                raise EvalError(
                    f"variable {v!r} has {sizes[v]} instances on one side "
                    f"and {n} on another")
    order = tuple(sizes)
    return order, [_aligned(gv.tensor, gv.vars, order, feature)
                   for gv in values]


# -- evaluation -------------------------------------------------------------------


def ground_term(env: GroundingEnv, term: Term,
                scope: Scope = None) -> GroundedValue:
    """Evaluate a term to a tensor shaped (n_v1, ..., n_vk, feat) under
    ``scope`` (default: ``env.scope()``)."""
    if scope is None:
        scope = env.scope()
    if isinstance(term, Const):
        return GroundedValue(env._const_value(term.name), ())
    if isinstance(term, Var):
        return env._var_value(term.name, scope)
    if not isinstance(term, App):
        raise EvalError(f"not a term: {term!r}")
    env._declared(term.func, env.sig.functions, "function")
    return _apply(env, term.func, term.args, scope)


def _apply(env: GroundingEnv, name: str, terms: tuple,
           scope: Scope) -> GroundedValue:
    """Ground the function or predicate ``name`` on the terms ``terms``:
    a function gives features shaped (n_v1, ..., n_vk, feat), a
    predicate truths shaped (n_v1, ..., n_vk)."""
    if name not in env._symbols:
        raise EvalError(f"symbol {name!r} has no grounding")
    kind, payload = env._symbols[name]
    if kind == "scalar":
        if terms:
            raise EvalError(f"{name} takes no arguments")
        return GroundedValue(env.store.get(payload), ())
    args = [ground_term(env, a, scope) for a in terms]
    order, aligned = align(args, feature=True)
    if kind == "builtin":
        out = payload(*[t.data for t in aligned])
        return GroundedValue(Tensor(np.asarray(out, dtype=np.float64)), order)
    if kind == "callable":
        return GroundedValue(payload(*aligned), order)
    inputs = aligned
    if kind == "select":  # the class argument is not a network input
        *inputs, label = aligned
        terms = terms[:-1]
        nclass = payload.widths[-1]
        if label.shape[-1] == 1 and nclass > 1:
            # integer class index: expand to a one-hot, detached
            idx = _index(label.data[..., 0], nclass, f"{name}: class index")
            hot = np.zeros(idx.shape + (nclass,))
            np.put_along_axis(hot, idx[..., None], 1.0, axis=-1)
            label = Tensor(hot)
        elif label.shape[-1] != nclass:
            raise EvalError(
                f"{name}: class argument has dim {label.shape[-1]}, "
                f"network has {nclass} outputs")
    memo = scope.memo
    if memo is None:
        out = _network(env, name, payload, inputs, scope)
    else:  # the shapes tell diagonal truncations and axis layouts apart
        key = (name, terms, tuple(t.shape for t in inputs))
        out = memo.get(key)
        if out is None:
            out = memo[key] = _network(env, name, payload, inputs, scope)
    if kind == "select":
        # the output spans only the feature arguments' axes; the product
        # broadcasts it over the axes only the class argument spans
        return GroundedValue(T.reduce_sum(out * label, axes=(-1,)), order)
    if kind == "mlp_truth":  # a truth drops its width-1 axis
        out = T.reshape(out, out.shape[:-1])
    return GroundedValue(out, order)


def _network(env: GroundingEnv, name: str, spec: MlpSpec, args,
             scope: Scope) -> Tensor:
    """Run the network of symbol ``name`` once per cell of its aligned
    arguments' own grid.

    One argument goes in as it is. Several are each broadcast to their
    common leading shape (one already at it is not copied), and their
    features are concatenated into the input. A variable that no
    argument spans keeps a size-1 axis in the output: a ``select``
    predicate passes only its feature arguments, so its class argument
    just picks from each row's output, and under dropout one mask is
    drawn per row and shared by that row's classes.
    """
    if len(args) == 1:
        x = args[0]
    else:
        lead = np.broadcast_shapes(*(t.shape[:-1] for t in args))
        x = T.concat([t if t.shape[:-1] == lead
                      else T.broadcast_to(t, lead + (t.shape[-1],))
                      for t in args], axis=-1)
    return dense_forward(spec, env.store, name, x, training=scope.training)


def _smooth_eq(cfg: FuzzyConfig, u: Tensor, v: Tensor) -> Tensor:
    # exp(-alpha * ||u - v||); the tiny floor keeps the norm differentiable
    # at exact equality without visibly moving the value.
    d = u - v
    sq = T.reduce_sum(d * d, axes=(-1,))
    return T.exp(-cfg.eq_alpha * T.power(sq + 1e-12, 0.5))


def _eval_guard(env: GroundingEnv, guard: Guard, scope: Scope):
    """The guard's variables, in order of first occurrence, and its two
    sides, as detached GroundedValues. :func:`_quant` compares the sides
    in the layout it aggregates in, so the mask comes out in that
    layout, contiguous."""
    scope = replace(scope, training=False)  # guards never see dropout noise

    def side(terms):
        pieces = []
        for coef, term in terms:
            if term is None:
                pieces.append(GroundedValue(np.float64(coef), ()))
                continue
            gv = ground_term(env, term, scope)
            arr = gv.tensor.data
            if arr.shape[-1] != 1:
                raise EvalError("guard terms must be scalar-valued")
            pieces.append(GroundedValue(coef * arr[..., 0], gv.vars))
        order, aligned = align(pieces, feature=False)
        return GroundedValue(sum(aligned), order)

    lhs, rhs = side(guard.lhs), side(guard.rhs)
    return tuple(dict.fromkeys(lhs.vars + rhs.vars)), (lhs, rhs)


def _guard_mask(op: str, sides, order: tuple) -> np.ndarray:
    """The crisp mask of the guard sides ``sides`` under the comparison
    ``op``, laid out in ``order``. Each side is aligned to ``order``
    before the compare, so the compare writes the mask in that layout,
    contiguous, and no full-grid array is moved afterwards."""
    lhs, rhs = (_aligned(gv.tensor, gv.vars, order) for gv in sides)
    return COMPARISONS[op](lhs, rhs)


def ground_formula(env: GroundingEnv, formula: Formula,
                   scope: Scope = None) -> GroundedValue:
    """Evaluate a formula to a truth tensor with one axis per free var.

    ``scope`` holds the context of the call: variable binds, dropout
    and the quantifier p overrides. It defaults to ``env.scope()``: the
    declared instances, the env's training flag and the configured p.
    """
    if scope is None:
        scope = env.scope()
    if isinstance(formula, Atom):
        env._declared(formula.pred, env.sig.predicates, "predicate")
        return _apply(env, formula.pred, formula.args, scope)
    if isinstance(formula, Eq):
        u = ground_term(env, formula.lhs, scope)
        v = ground_term(env, formula.rhs, scope)
        order, (tu, tv) = align([u, v], feature=True)
        return GroundedValue(_smooth_eq(env.cfg, tu, tv), order)
    if isinstance(formula, Not):
        gv = ground_formula(env, formula.body, scope)
        return GroundedValue(apply_connective(env.cfg.neg, gv.tensor), gv.vars)
    if isinstance(formula, Bin):
        lhs = ground_formula(env, formula.lhs, scope)
        rhs = ground_formula(env, formula.rhs, scope)
        order, (a, b) = align([lhs, rhs], feature=False)
        if formula.op == "iff":
            fwd = apply_connective(env.cfg.impl, a, b)
            bwd = apply_connective(env.cfg.impl, b, a)
            out = apply_connective(env.cfg.conj, fwd, bwd)
        else:
            op = getattr(env.cfg, CONFIG_KEYS[formula.op])
            out = apply_connective(op, a, b)
        return GroundedValue(out, order)
    if isinstance(formula, Quant):
        return _quant(env, formula, scope)
    raise EvalError(f"not a formula node: {formula!r}")


def _quant(env: GroundingEnv, node: Quant, scope: Scope) -> GroundedValue:
    # a variable this quantifier binds is its own, not an enclosing
    # diagonal group's shared axis
    bound = {v for group in node.groups for v in group}
    if bound & scope.alias.keys():
        scope = replace(scope, alias={v: label for v, label
                                      in scope.alias.items() if v not in bound})
    labels = []
    for group in node.groups:
        if len(group) == 1:
            labels.append(group[0])
            continue
        label = "&".join(group)
        lens = [env.var_length(v, scope) for v in group]
        if len(set(lens)) > 1:
            warnings.warn(f"diagonal over {group} has unequal instance "
                          f"counts {lens}; truncating to {min(lens)}")
        scope = replace(scope,
                        alias={**scope.alias, **dict.fromkeys(group, label)},
                        trunc={**scope.trunc, label: min(lens)})
        labels.append(label)

    # the guard's sides come after the body, so they live only until the
    # compare below
    body = ground_formula(env, node.body, scope)
    guard_vars, sides = (), None
    if node.guard is not None:
        guard_vars, sides = _eval_guard(env, node.guard, scope)
    want = list(body.vars)
    for v in labels + list(guard_vars):
        if v not in want:
            want.append(v)
    # the result's variables first, the quantified labels last, each in
    # want's order: aggregate reduces the trailing block
    keep = tuple(v for v in want if v not in labels)
    order = keep + tuple(v for v in want if v in labels)
    t = _aligned(body.tensor, body.vars, order)
    if len(order) > len(body.vars):
        # broadcast over axes the body never mentioned
        t = T.broadcast_to(t, tuple(n if v in body.vars
                                    else env.var_length(v, scope)
                                    for v, n in zip(order, t.shape)))
    mask = None if sides is None else _guard_mask(node.guard.op, sides, order)

    p = scope.p.get(node.kind)
    try:
        spec = getattr(env.cfg, CONFIG_KEYS[node.kind]).with_p(p)
    except ValueError as e:  # a p override the configured family cannot take
        raise EvalError(f"{node.kind}(p={p:g}): {e}") from None
    out = aggregate(spec, t, len(labels), mask=mask,
                    empty=float(node.kind == "forall"))
    return GroundedValue(out, keep)
