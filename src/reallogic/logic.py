"""Typed first-order language and its differentiable interpretation.

Symbols are declared in a :class:`Signature` (domains with feature
dimensions, constants, variables, functions, predicates). A
:class:`GroundingEnv` maps each symbol onto tensors: constants become
feature vectors (fixed or trainable), variables become stacks of
instances, functions and predicates become dense networks, builtins, or
trainable truth scalars.

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
that row's classes.

Quantifiers aggregate named axes away. A quantifier lays out its body
(and its guard's mask) with the result's variables first and its
quantified variables last, so :func:`reallogic.fuzzy.aggregate` always
reduces a trailing block of axes. A quantifier group with several
variables is evaluated diagonally: the members share one axis, pairing
instance i with instance i, instead of spanning their product grid;
members with unequal instance counts are truncated to the shortest,
with a warning.
Guards restrict aggregation with a crisp boolean mask computed from
detached values, so no gradient ever flows through a guard; cells whose
guard never fires aggregate to 1 under forall and 0 under exists.
The guarded body is still grounded on the full grid of its variables;
only the aggregation packs the cells the guard keeps (see
:func:`reallogic.fuzzy.aggregate`), so its work and its backward scale
with the kept cells.

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
from reallogic.fuzzy import FuzzyConfig, aggregate, apply_connective
from reallogic.nn import MlpSpec, ParamStore, dense_forward, init_mlp
from reallogic.tensor import Tensor


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
    op: str  # < <= > >= = !=
    lhs: tuple
    rhs: tuple
    span: tuple = field(default=None, compare=False)


@dataclass(frozen=True)
class Quant:
    kind: str            # forall | exists
    groups: tuple        # tuple of tuples of var names; len > 1 = diagonal
    guard: Optional[Guard]
    body: "Formula"
    span: tuple = field(default=None, compare=False)


Formula = Atom | Eq | Not | Bin | Quant


@dataclass(frozen=True)
class Axiom:
    formula: Formula
    label: str = None
    forall_p: float = None
    exists_p: float = None
    span: tuple = field(default=None, compare=False)


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

    def term_domain(self, term: Term) -> str:
        if isinstance(term, Const):
            if term.name not in self.constants:
                raise SignatureError(f"unknown constant {term.name!r}")
            return self.constants[term.name]
        if isinstance(term, Var):
            if term.name not in self.variables:
                raise SignatureError(f"unknown variable {term.name!r}")
            return self.variables[term.name]
        if term.func not in self.functions:
            raise SignatureError(f"unknown function {term.func!r}")
        return self.functions[term.func][1]


def check_formula(sig: Signature, formula: Formula) -> None:
    """Raise SignatureError on any arity or domain mismatch."""

    def check_term(term: Term) -> str:
        if isinstance(term, App):
            din, _ = sig.functions.get(term.func) or _missing(term.func)
            _arity(term.func, din, term.args)
            for d, a in zip(din, term.args):
                got = check_term(a)
                if got != d:
                    raise SignatureError(
                        f"{term.func}: expected {d}, got {got}")
        return sig.term_domain(term)

    def _missing(name):
        raise SignatureError(f"unknown function {name!r}")

    def _arity(name, din, args):
        if len(din) != len(args):
            raise SignatureError(
                f"{name} takes {len(din)} arguments, got {len(args)}")

    def check_guard(g: Guard) -> None:
        for side in (g.lhs, g.rhs):
            for _, term in side:
                if term is None:
                    continue
                dom = check_term(term)
                if sig.dim(dom) != 1:
                    raise SignatureError(
                        f"guard term of domain {dom!r} is not scalar")

    def walk(f: Formula) -> None:
        if isinstance(f, Atom):
            if f.pred not in sig.predicates:
                raise SignatureError(f"unknown predicate {f.pred!r}")
            din = sig.predicates[f.pred]
            _arity(f.pred, din, f.args)
            for d, a in zip(din, f.args):
                got = check_term(a)
                if got != d:
                    raise SignatureError(f"{f.pred}: expected {d}, got {got}")
        elif isinstance(f, Eq):
            dl, dr = check_term(f.lhs), check_term(f.rhs)
            if dl != dr:
                raise SignatureError(f"= compares {dl!r} with {dr!r}")
        elif isinstance(f, Not):
            walk(f.body)
        elif isinstance(f, Bin):
            walk(f.lhs)
            walk(f.rhs)
        elif isinstance(f, Quant):
            seen = set()
            for group in f.groups:
                for v in group:
                    if v in seen:
                        raise SignatureError(f"variable {v!r} quantified twice")
                    seen.add(v)
                    if v not in sig.variables:
                        raise SignatureError(f"unknown variable {v!r}")
            if f.guard is not None:
                check_guard(f.guard)
            walk(f.body)
        else:
            raise SignatureError(f"not a formula node: {f!r}")

    walk(formula)


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

    ``binds`` maps variables to other instance arrays (build it with
    :meth:`GroundingEnv.scope`, which checks the names). ``alias`` maps
    each diagonally quantified variable to the label of its shared axis,
    and ``trunc`` maps that label to the axis length. ``training`` turns
    on dropout. ``forall_p``/``exists_p`` override the p of every
    matching quantifier. Quantifiers and guards derive child scopes with
    ``dataclasses.replace``, so evaluation never writes to the env.
    """
    binds: Mapping = field(default_factory=dict)
    alias: Mapping = field(default_factory=dict)
    trunc: Mapping = field(default_factory=dict)
    training: bool = False
    forall_p: float = None
    exists_p: float = None


class GroundingEnv:
    """Maps symbols onto tensors.

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
        self._funcs: dict[str, tuple] = {}
        self._preds: dict[str, tuple] = {}

    # -- declaration helpers ------------------------------------------

    def _declared(self, name: str, table: dict):
        if name not in table:
            raise EvalError(f"symbol {name!r} is not declared")
        return table[name]

    def add_const(self, name: str, value=None, trainable: bool = False,
                  lo=None, hi=None) -> None:
        dim = self.sig.dim(self._declared(name, self.sig.constants))
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

    def add_var_data(self, name: str, data) -> None:
        dim = self.sig.dim(self._declared(name, self.sig.variables))
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2 or arr.shape[1] != dim:
            raise EvalError(f"variable {name} needs shape (n, {dim})")
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

    def _check_mlp(self, spec: MlpSpec, din: tuple, dout) -> None:
        """Raise unless ``spec`` reads the features of the domains ``din``
        side by side and, when ``dout`` is not None, ends in that width."""
        fdim = sum(self.sig.dim(d) for d in din)
        if spec.widths[0] != fdim:
            raise EvalError(f"input width {spec.widths[0]} does not match "
                            f"feature dim {fdim}")
        if dout is not None and spec.widths[-1] != dout:
            raise EvalError(f"output width {spec.widths[-1]} does not match "
                            f"dim {dout}")

    def add_func_mlp(self, name: str, spec: MlpSpec) -> None:
        din, dout = self._declared(name, self.sig.functions)
        self._check_mlp(spec, din, self.sig.dim(dout))
        init_mlp(self.store, name, spec)
        self._funcs[name] = ("mlp", spec)

    def add_func_builtin(self, name: str, fn: Callable) -> None:
        """fn maps broadcast numpy arrays (..., din_i) to (..., dout);
        it is detached, so use it in guards, not in trained terms."""
        self._funcs[name] = ("builtin", fn)

    def add_pred_mlp(self, name: str, spec: MlpSpec) -> None:
        self._check_mlp(spec, self._declared(name, self.sig.predicates), 1)
        init_mlp(self.store, name, spec)
        self._preds[name] = ("mlp", spec)

    def add_pred_select(self, name: str, spec: MlpSpec) -> None:
        """Network over all arguments but the last; the last argument's
        features weight the output classes (one-hot picks one). A class
        domain of dim 1 holds integer class indices, so any output width
        passes."""
        din = self._declared(name, self.sig.predicates)
        classes = self.sig.dim(din[-1])
        self._check_mlp(spec, din[:-1], None if classes == 1 else classes)
        init_mlp(self.store, name, spec)
        self._preds[name] = ("select", spec)

    def add_pred_scalar(self, name: str, init=None) -> None:
        val = self.store.rng.random() if init is None else float(init)
        self.store.add(name, val, lo=0.0, hi=1.0)
        self._preds[name] = ("scalar", name)

    def add_pred_callable(self, name: str, fn: Callable) -> None:
        """fn takes aligned argument tensors, returns a truth Tensor."""
        self._preds[name] = ("callable", fn)

    def has_dropout(self) -> bool:
        """Whether some network has a dropout rate above 0, so that a
        training scope grounds differently from an evaluation scope."""
        return any(kind in ("mlp", "select") and max(spec.drops) > 0.0
                   for kind, spec in (*self._funcs.values(),
                                      *self._preds.values()))

    # -- scopes and instances -----------------------------------------------

    def scope(self, binds=None, training: bool = None, forall_p=None,
              exists_p=None) -> Scope:
        """Root scope of one evaluation.

        ``binds`` rebinds variables to other instances: data-backed
        variables take a float array (n, dim) or (n,); constant-backed
        variables take an integer index array selecting which constants
        to stack. ``training`` defaults to the env's flag.
        """
        arrays = {}
        for name, arr in (binds or {}).items():
            if name not in self._vars:
                raise EvalError(f"cannot bind unknown variable {name!r}")
            arrays[name] = np.asarray(arr)
        return Scope(arrays,
                     training=self.training if training is None else training,
                     forall_p=forall_p, exists_p=exists_p)

    def var_consts(self, name: str) -> tuple:
        """The constants that ground ``name``, in axis order."""
        kind, payload = self._vars.get(name, (None, None))
        if kind != "consts":
            raise EvalError(f"variable {name!r} is not grounded by constants")
        return payload

    def var_length(self, name: str, scope: Scope) -> int:
        if name in scope.binds:
            n = scope.binds[name].shape[0]
        else:
            kind, payload = self._vars[name]
            n = payload.shape[0] if kind == "data" else len(payload)
        t = scope.trunc.get(scope.alias.get(name, name))
        return n if t is None else min(n, t)

    def _label_length(self, label: str, scope: Scope) -> int:
        if label in scope.trunc:
            return scope.trunc[label]
        return self.var_length(label, scope)

    def _var_value(self, name: str, scope: Scope) -> GroundedValue:
        if name not in self._vars:
            raise EvalError(f"variable {name!r} has no grounding")
        label = scope.alias.get(name, name)
        n = self.var_length(name, scope)
        bound = scope.binds.get(name)
        kind, payload = self._vars[name]
        if kind == "data":
            if bound is not None:
                arr = np.asarray(bound, dtype=np.float64)
                if arr.ndim == 1:
                    arr = arr[:, None]
            else:
                arr = payload
            return GroundedValue(Tensor(arr[:n]), (label,))
        names = payload
        if bound is not None:
            names = tuple(names[int(i)] for i in np.asarray(bound).ravel())
        return GroundedValue(
            T.stack([self._const_value(c) for c in names[:n]]),
            (label,))

    def _const_value(self, name: str) -> Tensor:
        if name not in self._consts:
            raise EvalError(f"constant {name!r} has no grounding")
        kind, payload = self._consts[name]
        return self.store.get(payload) if kind == "slot" else Tensor(payload)


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
    if term.func not in env._funcs:
        raise EvalError(f"function {term.func!r} has no grounding")
    kind, payload = env._funcs[term.func]
    args = [ground_term(env, a, scope) for a in term.args]
    order, aligned = align(args, feature=True)
    if kind == "builtin":
        out = payload(*[t.data for t in aligned])
        return GroundedValue(Tensor(np.asarray(out, dtype=np.float64)), order)
    return GroundedValue(_network(env, term.func, payload, aligned, scope),
                         order)


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
    """Crisp mask over the guard's variables, from detached values."""
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

    order, (lv, rv) = align([side(guard.lhs), side(guard.rhs)], feature=False)
    cmp = {"<": np.less, "<=": np.less_equal, ">": np.greater,
           ">=": np.greater_equal, "=": np.equal, "!=": np.not_equal}[guard.op]
    return cmp(lv, rv), order


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
        return _atom(env, formula, scope)
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
            op = {"and": env.cfg.conj, "or": env.cfg.disj,
                  "implies": env.cfg.impl}[formula.op]
            out = apply_connective(op, a, b)
        return GroundedValue(out, order)
    if isinstance(formula, Quant):
        return _quant(env, formula, scope)
    raise EvalError(f"not a formula node: {formula!r}")


def _atom(env: GroundingEnv, atom: Atom, scope: Scope) -> GroundedValue:
    if atom.pred not in env._preds:
        raise EvalError(f"predicate {atom.pred!r} has no grounding")
    kind, payload = env._preds[atom.pred]
    if kind == "scalar":
        if atom.args:
            raise EvalError(f"{atom.pred} takes no arguments")
        return GroundedValue(env.store.get(payload), ())
    args = [ground_term(env, a, scope) for a in atom.args]
    order, aligned = align(args, feature=True)
    if kind == "callable":
        return GroundedValue(payload(*aligned), order)
    if kind == "select":
        label = aligned[-1]
        feats = aligned[:-1]
        nclass = payload.widths[-1]
        if label.shape[-1] == 1 and nclass > 1:
            # integer class index: expand to a one-hot, detached
            idx = label.data[..., 0]
            bad = ~((idx >= 0) & (idx < nclass) & (idx == np.floor(idx)))
            if bad.any():
                raise EvalError(
                    f"{atom.pred}: class index {idx[bad][0]:g} is not an "
                    f"integer in 0..{nclass - 1}")
            idx = idx.astype(int)
            hot = np.zeros(idx.shape + (nclass,))
            np.put_along_axis(hot, idx[..., None], 1.0, axis=-1)
            label = Tensor(hot)
        elif label.shape[-1] != nclass:
            raise EvalError(
                f"{atom.pred}: class argument has dim {label.shape[-1]}, "
                f"network has {nclass} outputs")
        # the output spans only the feature arguments' axes; the product
        # broadcasts it over the axes only the class argument spans
        out = _network(env, atom.pred, payload, feats, scope)
        picked = T.reduce_sum(out * label, axes=(-1,))
        return GroundedValue(picked, order)
    # plain mlp predicate
    out = _network(env, atom.pred, payload, aligned, scope)
    return GroundedValue(T.reshape(out, out.shape[:-1]), order)


def _quant(env: GroundingEnv, node: Quant, scope: Scope) -> GroundedValue:
    labels = []
    for group in node.groups:
        if len(group) == 1:
            labels.append(scope.alias.get(group[0], group[0]))
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

    mask = mask_vars = None
    if node.guard is not None:
        mask, mask_vars = _eval_guard(env, node.guard, scope)

    body = ground_formula(env, node.body, scope)
    want = list(body.vars)
    for v in labels + list(mask_vars or ()):
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
                                    else env._label_length(v, scope)
                                    for v, n in zip(order, t.shape)))
    if mask is not None:
        mask = _aligned(mask, mask_vars, order)

    if node.kind == "forall":
        spec = env.cfg.forall.with_p(scope.forall_p)
        empty = 1.0
    else:
        spec = env.cfg.exists.with_p(scope.exists_p)
        empty = 0.0
    out = aggregate(spec, t, len(labels), mask=mask, empty=empty)
    return GroundedValue(out, keep)
