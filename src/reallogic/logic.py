"""Typed first-order language and its differentiable interpretation.

Symbols are declared in a :class:`Signature` (domains with feature
dimensions, constants, variables, functions, predicates). A
:class:`GroundingEnv` maps each symbol onto tensors: constants become
feature vectors (fixed or trainable), variables become stacks of
instances. Functions and predicates share one table of groundings
(dense networks, ``select`` networks, builtins, trainable truth
scalars) and one application node, :class:`_App`, which grounds both
terms ``f(t1, ..., tn)`` and atoms ``P(t1, ..., tn)``; a predicate is a
function whose value is a truth in [0, 1] and has no feature axis.

Evaluation turns a term into a tensor shaped ``(n_v1, ..., n_vk, feat)``
and a formula into a truth tensor shaped ``(n_v1, ..., n_vk)``, one axis
per free variable in order of first occurrence; connectives align their
operands' axes by name and broadcast. It takes two passes, because the
graph's shape depends only on the formulas, the declarations and each
variable's axis length under the call's binds: :func:`plan` fixes it,
then each planned node's ``run`` computes what depends on the
parameters, the instances, the dropout draws and the scope's p. A plan
holds no bound data and no value: a variable is read from the run's
binds, else its declared instances, and shared network outputs live in
a dict made for each run. So one plan serves every run whose binds have
the same lengths (:func:`plan_key` states all it depends on), and its
owner may keep it; ``training.Theory`` does.

A network runs once per cell of its arguments' own grid: a ``select``
predicate's class argument only picks from the output, so it is not an
input, and under dropout one mask serves a row's classes. Within one
plan, applications of a symbol to the same network arguments with the
same aligned shapes are one run, and the backward pass sums their
gradients before the network's backward runs once. A training plan of
an env with a dropout network shares none, as each occurrence draws its
own masks.

Quantifiers aggregate named axes away. The body is laid out with the
result's variables first, so :func:`reallogic.fuzzy.aggregate` always
reduces a trailing block. A group of several variables is evaluated
diagonally: its members share one axis, truncated to the shortest with a
warning, and an inner quantifier that binds a member again gives it an
axis of its own. A guard is a crisp mask of detached values, so no
gradient flows through it; a cell whose guard never fires aggregates to
1 under forall and 0 under exists. The guard's sides are grounded after
the body, in the quantifier's layout, so they live only until the
compare, which writes the mask in the order the aggregate reads it. The
body is still grounded on its full grid; only the aggregate packs the
kept cells, so its work and its backward scale with them.
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from dataclasses import dataclass, field
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


def diagonal_groups(formula: Formula) -> list:
    """Each group of several variables that a quantifier of ``formula``
    binds diagonally, outermost first."""
    if isinstance(formula, Not):
        return diagonal_groups(formula.body)
    if isinstance(formula, Bin):
        return diagonal_groups(formula.lhs) + diagonal_groups(formula.rhs)
    if isinstance(formula, Quant):
        return ([g for g in formula.groups if len(g) > 1]
                + diagonal_groups(formula.body))
    return []


# -- groundings -----------------------------------------------------------------


class GroundedValue(NamedTuple):
    tensor: Tensor
    vars: tuple


@dataclass(frozen=True)
class Scope:
    """What one evaluation varies: ``binds`` maps variables to other
    instances (build it with :meth:`GroundingEnv.scope`, which checks
    them), ``training`` turns on dropout, and ``p`` maps a quantifier
    kind (one of ``QUANTIFIERS``) to the p of every quantifier of that
    kind; a kind left out or mapped to None keeps the configured p."""
    binds: Mapping = field(default_factory=dict)
    training: bool = False
    p: Mapping = field(default_factory=dict)


class GroundingEnv:
    """Maps symbols onto tensors.

    Constants and variables each have a table; functions and predicates
    share one, keyed by name, with one adder per implementation:
    :meth:`add_mlp`, :meth:`add_select`, :meth:`add_scalar`,
    :meth:`add_builtin` and :meth:`add_callable`.

    ``cfg`` defaults to the stable product configuration. ``training``
    is the dropout flag that root scopes start from; the descent step of
    ``training.learn`` and ``reason_refute`` sets it while it grounds Sat.
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


def _index(idx: np.ndarray, n: int, what: str) -> np.ndarray:
    """``idx`` as integers; an EvalError led by ``what`` names the first
    entry that is not an integer in 0..n-1."""
    bad = ~((idx >= 0) & (idx < n) & (idx == np.floor(idx)))
    if bad.any():
        raise EvalError(f"{what} {idx[bad][0]:g} is not an integer in "
                        f"0..{n - 1}")
    return idx.astype(int)


# -- planning -------------------------------------------------------------------


# what a formula's quantifiers read while it is planned: each diagonal
# member's shared axis label, dropout (never inside a guard), and the p
# annotations of the formula's axiom, which win over a run's scope p
_Ctx = namedtuple("_Ctx", "alias training p")
# what planned nodes read as they run: the env, the scope's binds and p,
# and the outputs of the shared network runs made so far in this run
_Run = namedtuple("_Run", "env binds p outputs")


def plan(env: GroundingEnv, exprs, scope: Scope, ps=None) -> tuple:
    """Plan the formulas or terms ``exprs`` under ``scope``, with one
    network run per distinct application across all of them: the plan's
    roots, one per expression, in order. ``ps`` holds each expression's
    p annotations (quantifier kind to p), which its quantifiers take
    instead of a run's scope p.

    The plan holds no bound data, so it can run under every scope with
    the same :func:`plan_key`; its roots are run by :func:`ground_formula`
    and :func:`ground_term`, sharing one ``outputs`` dict per run.
    """
    planner = _Planner(env, scope)
    return tuple(planner.term(e, planner.top._replace(p=p))
                 if isinstance(e, Term)
                 else planner.formula(e, planner.top._replace(p=p))
                 for e, p in zip(exprs, ps or [{}] * len(exprs)))


def plan_key(env: GroundingEnv, scope: Scope) -> tuple:
    """What a plan made under ``scope`` depends on besides its
    expressions and the env's symbols: the operators, the training flag
    when the env has a dropout network, and each variable's axis length
    under the binds."""
    return (env.cfg, scope.training and env.has_dropout(),
            tuple(len(scope.binds.get(name, inst))
                  for name, (_, inst) in env._vars.items()))


class _Planner:
    def __init__(self, env: GroundingEnv, scope: Scope):
        self.env, self.binds = env, scope.binds
        self.top = _Ctx({}, scope.training, {})
        # the one sharing rule: every plan shares network runs but a
        # training plan of an env with a dropout network, where each
        # occurrence draws its own masks
        self.nets = None if scope.training and env.has_dropout() else {}
        self.sizes = {}  # axis label -> length, which one plan fixes

    def instances(self, name: str):
        if name not in self.env._vars:
            raise EvalError(f"variable {name!r} has no grounding")
        return self.binds.get(name, self.env._vars[name][1])

    def size(self, name: str) -> int:
        if name not in self.sizes:
            self.sizes[name] = len(self.instances(name))
        return self.sizes[name]

    def layout(self, vars_: tuple, order: tuple) -> tuple:
        """A value over ``vars_`` in the layout ``order``: the permutation
        of its axes, None when in order, and its shape, 1 where it lacks."""
        shape = tuple([self.sizes[v] if v in vars_ else 1 for v in order])
        if vars_ == order:
            return None, shape
        perm = [vars_.index(v) for v in order if v in vars_]
        return (None if perm == sorted(perm) else tuple(perm)), shape

    def align(self, nodes) -> tuple:
        """The layout of ``nodes``' variables by first occurrence, and
        each node as a child in it: (node, permutation, shape)."""
        order = tuple(dict.fromkeys([v for n in nodes for v in n.vars]))
        return order, tuple((n, *self.layout(n.vars, order)) for n in nodes)

    def term(self, term: Term, ctx: _Ctx):
        if isinstance(term, Const):
            if term.name not in self.env._consts:
                raise EvalError(f"constant {term.name!r} has no grounding")
            return _Leaf((), "const", term.name)
        if isinstance(term, Var):
            label = ctx.alias.get(term.name, term.name)
            return _Leaf((label,), "var", term.name, self.size(label))
        if not isinstance(term, App):
            raise EvalError(f"not a term: {term!r}")
        self.env._declared(term.func, self.env.sig.functions, "function")
        return self.apply(term.func, term.args, ctx)

    def apply(self, name: str, terms: tuple, ctx: _Ctx):
        if name not in self.env._symbols:
            raise EvalError(f"symbol {name!r} has no grounding")
        kind, payload = self.env._symbols[name]
        if kind == "scalar":
            if terms:
                raise EvalError(f"{name} takes no arguments")
            return _Leaf((), "slot", name)
        order, args = self.align([self.term(a, ctx) for a in terms])
        net = None
        if isinstance(payload, MlpSpec):
            # a select's class argument only picks from the output
            n = len(terms) - (kind == "select")
            grids = tuple(shape for _, _, shape in args[:n])
            lead = np.broadcast_shapes(*grids) if n > 1 else None
            net = _Net(name, payload, n, lead,
                       None if n == 1 else tuple(g == lead for g in grids),
                       ctx.training, None if self.nets is None else len(self.nets))
            if self.nets is not None:
                # the shapes tell diagonal truncations and layouts apart
                net = self.nets.setdefault((name, terms[:n], grids), net)
        return _App(order, kind, payload, args, net)

    def formula(self, formula: Formula, ctx: _Ctx):
        env, cfg = self.env, self.env.cfg
        if isinstance(formula, Atom):
            env._declared(formula.pred, env.sig.predicates, "predicate")
            return self.apply(formula.pred, formula.args, ctx)
        if isinstance(formula, Eq):
            return _Eq(*self.align([self.term(formula.lhs, ctx),
                                    self.term(formula.rhs, ctx)]), cfg.eq_alpha)
        if isinstance(formula, Not):
            return _Conn(*self.align([self.formula(formula.body, ctx)]), cfg.neg)
        if isinstance(formula, Bin):
            op = ((cfg.impl, cfg.conj) if formula.op == "iff"
                  else getattr(cfg, CONFIG_KEYS[formula.op]))
            return _Conn(*self.align([self.formula(formula.lhs, ctx),
                                      self.formula(formula.rhs, ctx)]), op)
        if isinstance(formula, Quant):
            return self.quant(formula, ctx)
        raise EvalError(f"not a formula node: {formula!r}")

    def quant(self, node: Quant, ctx: _Ctx):
        # a variable this quantifier binds is its own, not an enclosing
        # diagonal group's shared axis
        bound = {v for group in node.groups for v in group}
        ctx = ctx._replace(alias={v: label for v, label in ctx.alias.items()
                                  if v not in bound})
        labels = []
        for group in node.groups:
            labels.append("&".join(group))
            lens = [self.size(v) for v in group]
            if len(group) == 1:
                continue
            if len(set(lens)) > 1:
                warnings.warn(f"diagonal over {group} has unequal instance "
                              f"counts {lens}; truncating to {min(lens)}")
            self.sizes[labels[-1]] = min(lens)
            ctx = ctx._replace(alias={**ctx.alias,
                                      **dict.fromkeys(group, labels[-1])})
        body = self.formula(node.body, ctx)
        sides = ()
        if node.guard is not None:  # guards never see dropout noise
            gctx = ctx._replace(training=False)
            sides = [[(coef, None if t is None else self.term(t, gctx))
                      for coef, t in side]
                     for side in (node.guard.lhs, node.guard.rhs)]
        # the result's variables first, the quantified labels last, each
        # in order of first occurrence in the body, the labels and the
        # guard: aggregate reduces the trailing block
        want = dict.fromkeys(body.vars + tuple(labels) + tuple(
            v for side in sides for _, n in side if n for v in n.vars))
        keep = tuple(v for v in want if v not in labels)
        order = keep + tuple(v for v in want if v in labels)
        guard = node.guard and (node.guard.op,) + tuple(
            tuple((coef, n, *self.layout(n.vars if n else (), order))
                  for coef, n in side) for side in sides)
        grid = tuple(self.sizes[v] for v in order)
        spec = getattr(self.env.cfg, CONFIG_KEYS[node.kind])
        own = ctx.p.get(node.kind)
        return _Quant(keep, node.kind, (body, *self.layout(body.vars, order)),
                      grid if len(order) > len(body.vars) else None, guard,
                      len(labels), spec if own is None
                      else _with_p(spec, node.kind, own), own is not None)


# -- execution -------------------------------------------------------------------
#
# Each planned node kind holds its variables (``vars``) and what the
# planner fixed; its ``run`` computes its value from its children's. A
# child is held as (node, permutation or None, shape in its parent's
# layout), as :func:`_placed` reads it.


def _placed(x: Tensor, child) -> Tensor:
    node, perm, shape = child
    if perm:
        x = T.moveaxis(x, perm, tuple(range(len(perm))))
    if len(shape) > len(node.vars):  # a term keeps its feature axis last
        x = T.reshape(x, shape + x.shape[len(node.vars):])
    return x


def _fetch(children, ex: _Run) -> list:
    """The children's values, all computed, then each placed."""
    values = [node.run(ex) for node, _, _ in children]
    return [_placed(x, child) for x, child in zip(values, children)]


class _Leaf(namedtuple("_Leaf", "vars how name n", defaults=(None,))):
    """A trainable ``slot``, a ``const``, or the first ``n`` instances of
    a ``var``, read from the run's binds, else the declared instances."""

    def run(self, ex: _Run) -> Tensor:
        if self.how == "slot":
            return ex.env.store.get(self.name)
        if self.how == "const":
            return _const(ex.env, self.name)
        kind, declared = ex.env._vars[self.name]
        inst = ex.binds.get(self.name, declared)[:self.n]
        if kind == "data":
            return Tensor(inst)
        if not inst:  # an empty bind: no constant to stack
            dim = ex.env.sig.dim(ex.env.sig.variables[self.name])
            return Tensor(np.zeros((0, dim)))
        return T.stack([_const(ex.env, c) for c in inst])


def _const(env: GroundingEnv, name: str) -> Tensor:
    how, payload = env._consts[name]
    return env.store.get(payload) if how == "slot" else Tensor(payload)


# one network run on the first ``inputs`` arguments of an application,
# each broadcast to their common leading shape ``lead`` unless ``full``
# marks it as there (None for one input); ``slot`` keys its output in
# the run's outputs, None when the plan shares no runs
_Net = namedtuple("_Net", "name spec inputs lead full training slot")


class _App(namedtuple("_App", "vars kind payload args net")):
    """A function or predicate on its arguments; ``net`` is the network
    run of an ``mlp``, ``mlp_truth`` or ``select`` grounding."""

    def run(self, ex: _Run) -> Tensor:
        out = self.net and ex.outputs.get(self.net.slot)
        # a shared run's inputs are computed once, a class argument each time
        args = _fetch(self.args if out is None
                      else self.args[self.net.inputs:], ex)
        if self.kind == "builtin":
            return Tensor(np.asarray(self.payload(*[t.data for t in args]),
                                     dtype=np.float64))
        if self.kind == "callable":
            return self.payload(*args)
        net = self.net
        if out is None:
            x = args[0] if net.full is None else T.concat(
                [t if full else T.broadcast_to(t, net.lead + t.shape[-1:])
                 for t, full in zip(args, net.full)], axis=-1)
            out = dense_forward(net.spec, ex.env.store, net.name, x,
                                training=net.training)
            if net.slot is not None:
                ex.outputs[net.slot] = out
        if self.kind == "select":
            # the output spans only the feature arguments' axes; the
            # product broadcasts it over the axes only the class spans
            return T.reduce_sum(out * self.classes(args[-1]), axes=(-1,))
        if self.kind == "mlp_truth":  # a truth drops its width-1 axis
            return T.reshape(out, out.shape[:-1])
        return out

    def classes(self, label: Tensor) -> Tensor:
        """A select's class argument as weights of the network's outputs:
        an integer class index becomes a detached one-hot."""
        nclass, name = self.payload.widths[-1], self.net.name
        if label.shape[-1] == 1 and nclass > 1:
            idx = _index(label.data[..., 0], nclass, f"{name}: class index")
            hot = np.zeros(idx.shape + (nclass,))
            np.put_along_axis(hot, idx[..., None], 1.0, axis=-1)
            return Tensor(hot)
        if label.shape[-1] != nclass:
            raise EvalError(f"{name}: class argument has dim "
                            f"{label.shape[-1]}, network has {nclass} outputs")
        return label


class _Eq(namedtuple("_Eq", "vars args alpha")):
    def run(self, ex: _Run) -> Tensor:
        # exp(-alpha * ||u - v||); the tiny floor keeps the norm
        # differentiable at exact equality without visibly moving it
        u, v = _fetch(self.args, ex)
        d = u - v
        sq = T.reduce_sum(d * d, axes=(-1,))
        return T.exp(-self.alpha * T.power(sq + 1e-12, 0.5))


class _Conn(namedtuple("_Conn", "vars args op")):
    """A connective on one or two operands; the ``op`` of an ``iff`` is
    its (implication, conjunction) pair."""

    def run(self, ex: _Run) -> Tensor:
        xs = _fetch(self.args, ex)
        if isinstance(self.op, tuple):
            (impl, conj), (a, b) = self.op, xs
            return apply_connective(conj, apply_connective(impl, a, b),
                                    apply_connective(impl, b, a))
        return apply_connective(self.op, *xs)


class _Quant(namedtuple("_Quant", "vars kind body grid guard k spec own")):
    """A quantifier: ``body`` placed in the aggregate's layout, broadcast
    to ``grid`` unless that is None, and aggregated over the last ``k``
    axes. ``guard`` is None, or the comparison and its sides, each a
    tuple of (coefficient, term node or None for 1, permutation, shape
    in the layout). ``own`` marks a ``spec`` that holds its axiom's p
    annotation, so a run's scope p does not apply."""

    def run(self, ex: _Run) -> Tensor:
        body = self.body[0].run(ex)
        # the sides come after the body, so they live only until the compare
        sides = self.guard and [_side(side, ex) for side in self.guard[1:]]
        t = _placed(body, self.body)
        if self.grid is not None:
            t = T.broadcast_to(t, self.grid)
        mask = sides and COMPARISONS[self.guard[0]](*sides)
        spec = self.spec if self.own else _with_p(self.spec, self.kind,
                                                   ex.p.get(self.kind))
        return aggregate(spec, t, self.k, mask=mask,
                         empty=float(self.kind == "forall"))


def _with_p(spec, kind: str, p):
    try:
        return spec.with_p(p)
    except ValueError as e:  # a p the configured family cannot take
        raise EvalError(f"{kind}(p={p:g}): {e}") from None


def _side(pieces, ex: _Run) -> np.ndarray:
    """A guard side, detached, in its quantifier's layout."""
    total = []
    for coef, node, perm, shape in pieces:
        x = np.float64(coef)
        if node is not None:
            arr = node.run(ex).data
            if arr.shape[-1] != 1:
                raise EvalError("guard terms must be scalar-valued")
            x = coef * arr[..., 0]
        if perm:
            x = np.moveaxis(x, perm, tuple(range(len(perm))))
        total.append(np.reshape(x, shape))
    return sum(total)


_PLANNED = (_Leaf, _App, _Eq, _Conn, _Quant)  # the node kinds a plan holds


def _run(env: GroundingEnv, node, scope: Scope, outputs) -> GroundedValue:
    out = node.run(_Run(env, scope.binds, scope.p, outputs))
    return GroundedValue(out, node.vars)


def ground_term(env: GroundingEnv, term, scope: Scope = None
                ) -> GroundedValue:
    """Evaluate a term to a tensor shaped (n_v1, ..., n_vk, feat) under
    ``scope`` (default: ``env.scope()``). ``term`` is a term, planned on
    its own, or a root of a :func:`plan` with the scope's
    :func:`plan_key`."""
    scope = env.scope() if scope is None else scope
    if not isinstance(term, _PLANNED):
        (term,) = plan(env, (term,), scope)
    return _run(env, term, scope, {})


def ground_formula(env: GroundingEnv, formula, scope: Scope = None,
                   outputs: dict = None) -> GroundedValue:
    """Evaluate a formula to a truth tensor with one axis per free var.

    ``scope`` holds the context of the call: variable binds, dropout
    and the quantifier p overrides. It defaults to ``env.scope()``: the
    declared instances, the env's training flag and the configured p.
    ``formula`` is a formula, planned on its own for this call, or a root
    of a :func:`plan` with the scope's :func:`plan_key`. ``outputs``
    holds the shared network runs of one run of a plan: the roots of
    that run pass the same dict, which starts empty (the default makes
    one for this call).
    """
    scope = env.scope() if scope is None else scope
    if not isinstance(formula, _PLANNED):
        (formula,) = plan(env, (formula,), scope)
    return _run(env, formula, scope, {} if outputs is None else outputs)
