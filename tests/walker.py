"""The tree walker that grounded formulas before evaluation was split
into a planner and an executor, kept as the differential oracle of
``reallogic.logic``.

It grounds each node on the way down, under a scope that also carries
each diagonal group's shared axis label (``alias``) and length
(``trunc``) and, when not None, a ``memo`` of network outputs keyed by
symbol, argument terms and aligned shapes. :func:`satisfiability` opens
a memo unless the scope trains an env with a dropout network; a scope
from :func:`root_scope` has none, so it shares nothing. Networks,
connectives and aggregates are looked up on ``reallogic.logic`` at call
time, so a test that patches them there patches both paths.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

import reallogic.logic as logic
from reallogic import tensor as T
from reallogic.fuzzy import CONFIG_KEYS, FuzzyConfig
from reallogic.logic import (
    COMPARISONS, App, Atom, Bin, Const, Eq, EvalError, Guard, GroundedValue,
    GroundingEnv, Not, Quant, Var, _index,
)
from reallogic.nn import MlpSpec
from reallogic.tensor import Tensor

Term = Const | Var | App
Formula = Atom | Eq | Not | Bin | Quant


@dataclass(frozen=True)
class Scope:
    binds: Mapping = field(default_factory=dict)
    alias: Mapping = field(default_factory=dict)
    trunc: Mapping = field(default_factory=dict)
    training: bool = False
    p: Mapping = field(default_factory=dict)
    memo: dict = field(default=None, compare=False)


def root_scope(env, scope=None, memo=None):
    """The oracle's scope for ``scope`` (default: ``env.scope()``)."""
    scope = env.scope() if scope is None else scope
    return Scope(scope.binds, training=scope.training, p=scope.p, memo=memo)


def satisfiability(theory, scope=None):
    """Sat as the walker grounded it: one memo for the call, none under a
    training scope of an env with a dropout network."""
    scope = root_scope(theory.env, scope)
    if not (scope.training and theory.env.has_dropout()):
        scope = replace(scope, memo={})
    truths = []
    for ax in theory.axioms:
        sub = replace(scope, p={**scope.p, **ax.p}) if ax.p else scope
        truths.append(ground_formula(theory.env, ax.formula, sub).tensor)
    return logic.aggregate(theory.cfg.sat_agg, T.stack(truths), 1)


def var_length(env, name, scope):
    label = scope.alias.get(name, name)
    if label in scope.trunc:
        return scope.trunc[label]
    return len(scope.binds.get(name, env._vars[name][1]))


def _var_value(env, name, scope):
    if name not in env._vars:
        raise EvalError(f"variable {name!r} has no grounding")
    label = scope.alias.get(name, name)
    n = var_length(env, name, scope)
    kind, payload = env._vars[name]
    inst = scope.binds.get(name, payload)[:n]
    if kind == "data":
        return GroundedValue(Tensor(inst), (label,))
    if not inst:  # an empty bind: no constant to stack
        dim = env.sig.dim(env.sig.variables[name])
        return GroundedValue(Tensor(np.zeros((0, dim))), (label,))
    return GroundedValue(T.stack([_const_value(env, c) for c in inst]),
                         (label,))


def _const_value(env, name):
    if name not in env._consts:
        raise EvalError(f"constant {name!r} has no grounding")
    kind, payload = env._consts[name]
    return env.store.get(payload) if kind == "slot" else Tensor(payload)


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
    if not isinstance(scope, Scope):  # None or a reallogic.logic.Scope
        scope = root_scope(env, scope)
    if isinstance(term, Const):
        return GroundedValue(_const_value(env, term.name), ())
    if isinstance(term, Var):
        return _var_value(env, term.name, scope)
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
    return logic.dense_forward(spec, env.store, name, x, training=scope.training)


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
    if not isinstance(scope, Scope):  # None or a reallogic.logic.Scope
        scope = root_scope(env, scope)
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
        return GroundedValue(logic.apply_connective(env.cfg.neg, gv.tensor), gv.vars)
    if isinstance(formula, Bin):
        lhs = ground_formula(env, formula.lhs, scope)
        rhs = ground_formula(env, formula.rhs, scope)
        order, (a, b) = align([lhs, rhs], feature=False)
        if formula.op == "iff":
            fwd = logic.apply_connective(env.cfg.impl, a, b)
            bwd = logic.apply_connective(env.cfg.impl, b, a)
            out = logic.apply_connective(env.cfg.conj, fwd, bwd)
        else:
            op = getattr(env.cfg, CONFIG_KEYS[formula.op])
            out = logic.apply_connective(op, a, b)
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
        lens = [var_length(env, v, scope) for v in group]
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
                                    else var_length(env, v, scope)
                                    for v, n in zip(order, t.shape)))
    mask = None if sides is None else _guard_mask(node.guard.op, sides, order)

    p = scope.p.get(node.kind)
    try:
        spec = getattr(env.cfg, CONFIG_KEYS[node.kind]).with_p(p)
    except ValueError as e:  # a p override the configured family cannot take
        raise EvalError(f"{node.kind}(p={p:g}): {e}") from None
    out = logic.aggregate(spec, t, len(labels), mask=mask,
                    empty=float(node.kind == "forall"))
    return GroundedValue(out, keep)
