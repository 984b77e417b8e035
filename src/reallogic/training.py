"""Satisfiability, the learning loop, queries, and reasoning by refutation."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from reallogic import parser
from reallogic.fuzzy import TOL, aggregate
from reallogic.logic import (
    Scope, diagonal_groups, free_vars, ground_formula, plan, plan_key, where,
)
from reallogic.nn import adam_step, backward
from reallogic import tensor as T
from reallogic.tensor import Tensor


class DivergenceError(RuntimeError):
    pass


class SettingsError(ValueError):
    """Training settings that the theory's operators cannot take."""


@dataclass
class Theory:
    """Closed axioms over a grounded environment, and labelled queries.

    A theory keeps the plans it grounds by (see :func:`_planned`), so
    its axioms and its env's symbols stay as built.
    """
    axioms: tuple
    env: "GroundingEnv"
    queries: tuple = ()
    _plans: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        if not self.axioms:
            raise ValueError("theory has no axioms")
        for ax in self.axioms:
            label = f" {ax.label}" if ax.label else ""
            _check_closed(ax.formula, f"{where(ax.span)}axiom{label}")
        taken = {"epoch", "sat", "loss"}  # the keys every record holds
        for q in self.queries:
            if q.label in taken:
                raise ValueError(f"{where(q.span)}query label {q.label!r} "
                                 "is already taken")
            taken.add(q.label)
            _check_closed(q.formula, f"{where(q.span)}query {q.label}")

    @property
    def cfg(self):
        return self.env.cfg

    @property
    def store(self):
        return self.env.store

    @property
    def sig(self):
        return self.env.sig


def _check_closed(formula, what: str) -> None:
    """Raise ValueError, led by ``what``, unless the formula has no free
    variables."""
    loose = free_vars(formula)
    if loose:
        raise ValueError(f"{what} is not closed: free {', '.join(loose)}")


def _planned(theory: Theory, scope: Scope, expr=None) -> tuple:
    """The roots of the plan of ``expr``, or of all the axioms when it is
    None, under ``scope``: made on the first call with the scope's
    :func:`logic.plan_key` and kept by the theory. An axiom's
    ``@forall/@exists(p=..)`` annotations are laid over the scope's p."""
    key = (expr, plan_key(theory.env, scope))
    roots = theory._plans.get(key)
    if roots is None:
        if expr is None:
            roots = plan(theory.env, [ax.formula for ax in theory.axioms],
                         scope, [ax.p for ax in theory.axioms])
        else:
            roots = plan(theory.env, (expr,), scope)
        theory._plans[key] = roots
    return roots


def satisfiability(theory: Theory, scope: Scope = None) -> Tensor:
    """Aggregate all axiom truths with the theory's formula aggregator.

    The axioms are grounded under ``scope`` (default: the env's root
    scope, with dropout off) from the theory's plan of all of them for
    the scope's :func:`logic.plan_key` (see :func:`_planned`), so one
    forward shares network runs (see :func:`logic.plan`), and an axiom's
    own p annotations win over the scope's p.
    """
    scope = theory.env.scope() if scope is None else scope
    outputs = {}  # this forward's shared network runs
    truths = [ground_formula(theory.env, root, scope, outputs).tensor
              for root in _planned(theory, scope)]
    return aggregate(theory.cfg.sat_agg, T.stack(truths), 1)


# -- training ----------------------------------------------------------------


@dataclass
class TrainConfig:
    epochs: int = 100
    batch: int = 64
    lr: float = 0.001
    seed: int = 0
    reg: str = "none"             # none | l1 | l2
    lam: float = 0.0
    exists_schedule: tuple = None  # ((epoch, p), ...)
    log_every: int = 1

    def __post_init__(self):
        if self.epochs < 1 or self.batch < 1 or self.lr <= 0:
            raise ValueError("epochs, batch, and lr must be positive")
        if self.reg not in ("none", "l1", "l2"):
            raise ValueError(f"unknown regularizer {self.reg!r}")
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if self.log_every < 1:
            raise ValueError("log_every must be positive")
        _check_schedule(self.exists_schedule)


def _check_schedule(s) -> None:
    if s is None:
        return
    if not s:
        raise ValueError("exists schedule is empty; use None for none")
    epochs = [e for e, _ in s]
    if epochs != sorted(set(epochs)):
        raise ValueError("schedule epochs must be strictly increasing")
    ps = [p for _, p in s]
    bad = [p for p in ps if not math.isfinite(p)]
    if bad:
        raise ValueError(f"exists schedule p must be finite, got {bad[0]:g}")
    if min(ps) < 1:  # the p-mean rule, checked before the first epoch
        raise ValueError(f"exists schedule p must be >= 1, got {min(ps):g}")


def schedule_value(schedule, epoch: int):
    """p for a 0-based epoch; None leaves the configured default."""
    value = None
    for e, p in schedule or ():
        if epoch >= e:
            value = float(p)
    return value


def regularizer(store, kind: str) -> Tensor:
    """L1/L2 penalty over every trainable slot."""
    total = Tensor(0.0)
    for name in store.names():
        t = store.get(name)
        sq = t * t if kind == "l2" else T.maximum(t, -t)
        total = total + T.reduce_sum(sq)
    return total


def _loss(theory: Theory, train: TrainConfig, sat: Tensor) -> Tensor:
    """1 - Sat, plus the weighted regularizer when one is configured."""
    loss = 1.0 - sat
    if train.reg != "none" and train.lam > 0:
        loss = loss + train.lam * regularizer(theory.store, train.reg)
    return loss


def _check_grads(grads: dict, context: str) -> None:
    for name in sorted(grads):
        if not np.isfinite(grads[name]).all():
            raise DivergenceError(
                f"non-finite gradient in slot {name!r} {context}")


def learn(theory: Theory, train: TrainConfig, batched=(),
          metrics: dict = None) -> list:
    """Maximize Sat by minibatch gradient ascent.

    ``batched`` names the variables to minibatch; each step grounds the
    theory in a scope that binds them to a uniformly drawn batch of
    their declared instances (without replacement; variables that an
    axiom's quantifier groups diagonally share the draw; a
    constant-backed variable is bound to the drawn indices). Each step
    grounds Sat under a training scope, so dropout is on, in
    :func:`_descend`. The theory plans the axioms once per bind layout
    and exists p, and each declared query once, so a diagonal group of
    unequal lengths warns that it truncates once per plan made, not
    once per step.

    Each epoch's record holds Sat and the loss over the declared
    instances with training off; a record due by ``log_every``, and the
    last, also holds each declared query's truth and each ``metrics``
    callable's value on the theory. Returns the records; records[0] is
    the pre-training state. Raises EvalError naming an undeclared
    variable in ``batched``, DivergenceError on a non-finite loss or
    gradient, and SettingsError before the first step for an
    exists-schedule p that the exists family cannot take, or for a
    metric named like a query.

    When a step grounds the very scope of the record before it, that
    step's forward writes the record, so an epoch costs one Sat forward.
    That holds when ``batched`` is empty (one full-batch step per
    epoch), no network has a dropout rate above 0, and the record's
    exists p equals the step's. A record at an exists-schedule boundary,
    and the final record, take their own forward.
    """
    try:
        for _, p in train.exists_schedule or ():
            theory.cfg.exists.with_p(p)
    except ValueError as e:
        raise SettingsError(
            f"bad training settings: exists schedule: {e}") from None
    metrics = metrics or {}
    if clash := [q.label for q in theory.queries if q.label in metrics]:
        raise SettingsError(f"bad training settings: metric {clash[0]!r} "
                            "is named like a declared query")
    data = {name: theory.env.instances(name) for name in batched}
    # batched variables that share a diagonal axis share one index draw
    linked = {v: {v} for v in data}
    for group in (g for ax in theory.axioms
                  for g in diagonal_groups(ax.formula)):
        merged = set().union(*(linked[v] for v in group if v in linked))
        linked.update(dict.fromkeys(merged, merged))
    groups = list({id(linked[v]): [u for u in data if u in linked[v]]
                   for v in data}.values())
    sizes = {}
    for g in groups:
        ns = {len(data[v]) for v in g}
        if len(ns) > 1:
            raise ValueError(f"diag-linked variables {g} have unequal sizes")
        sizes[tuple(g)] = ns.pop()
    steps = max((math.ceil(n / train.batch) for n in sizes.values()),
                default=1)
    rng = np.random.default_rng(train.seed)
    # ps[k]: exists p of step k and of record k (record 0 takes step 1's)
    ps = [schedule_value(train.exists_schedule, max(k - 1, 0))
          for k in range(train.epochs + 1)]
    fused = not data and not theory.env.has_dropout()
    records = []
    for epoch in range(1, train.epochs + 1):
        shared = fused and ps[epoch - 1] == ps[epoch]
        if not shared:
            records.append(_log(theory, train, metrics, epoch - 1,
                                ps[epoch - 1]))
        for _ in range(steps):
            binds = {}
            for g in groups:
                n = sizes[tuple(g)]
                idx = rng.choice(n, size=min(train.batch, n), replace=False)
                for v in g:
                    inst = data[v]
                    binds[v] = idx if isinstance(inst, tuple) else inst[idx]
            grads, sat, loss = _descend(
                theory, theory.env.scope(binds, training=True,
                                         p={"exists": ps[epoch]}),
                lambda s: _loss(theory, train, s), "loss", f"at epoch {epoch}")
            if shared:
                records.append(_record(theory, train, metrics, epoch - 1,
                                       sat, loss))
            adam_step(theory.store, grads, lr=train.lr)
    records.append(_log(theory, train, metrics, train.epochs,
                        ps[train.epochs]))
    return records


def _descend(theory, scope, objective, what: str, context: str) -> tuple:
    """Ground Sat under ``scope``, with ``env.training`` set to the
    scope's flag for the benchmark's tracer and then restored, and
    backpropagate ``objective(sat)`` without updating. Returns
    (gradients, Sat, objective), the last two as floats. A non-finite
    objective (named by ``what`` and its value) or gradient (by its
    slot) raises DivergenceError ending in ``context``."""
    found, theory.env.training = theory.env.training, scope.training
    try:
        sat = satisfiability(theory, scope)
    finally:
        theory.env.training = found
    obj = objective(sat)
    if not np.isfinite(obj.data):
        raise DivergenceError(f"{what} {obj.data} {context}")
    grads = backward(obj, theory.store)
    _check_grads(grads, context)
    return grads, float(sat.data), float(obj.data)


def _log(theory, train, metrics, epoch, ep=None) -> dict:
    """The record of ``epoch`` from its own Sat forward over the declared
    instances."""
    sat = satisfiability(theory, theory.env.scope(p={"exists": ep}))
    loss = _loss(theory, train, sat)
    return _record(theory, train, metrics, epoch, float(sat.data),
                   float(loss.data))


def _record(theory, train, metrics, epoch, sat: float, loss: float) -> dict:
    """An epoch's record; metrics and queries run when due, training off."""
    rec = {"epoch": epoch, "sat": sat, "loss": loss}
    if epoch % train.log_every == 0 or epoch == train.epochs:
        for name, fn in metrics.items():
            rec[name] = float(fn(theory))
        for q in theory.queries:
            rec[q.label] = truth_value(theory, q.formula, p=q.p)
    return rec


# -- queries ----------------------------------------------------------------


@dataclass(frozen=True)
class QueryResult:
    kind: str
    values: np.ndarray
    vars: tuple


QUERY_KINDS = ("truth", "value", "generalization-truth",
               "generalization-value")


def query(theory: Theory, kind: str, expr, data: dict = None,
          p: dict = None) -> QueryResult:
    """Evaluate a formula's truth or a term's value; never mutates θ.

    The expression is grounded by one :func:`logic.ground_formula`
    call in a scope with dropout off, the p overrides ``p`` (quantifier
    kind to p, as in :class:`Scope`), and, for the generalization kinds,
    the given variables bound to unseen data; the env itself is left as
    it was. Formula queries take an AST or source text, parsed on every
    call; term queries take an AST. The theory plans each expression
    once per bind layout and p and keeps the plan (see
    :func:`_planned`); a p that the configured family cannot take
    raises EvalError there. A truth outside [0, 1] raises RuntimeError,
    as does any bit of θ that changed (:meth:`ParamStore.snapshot`
    before and after).
    """
    if kind not in QUERY_KINDS:
        raise ValueError(f"unknown query kind {kind!r}")
    truthy = kind.endswith("truth")
    if kind.startswith("generalization") and not data:
        raise ValueError("generalization queries need unseen data")
    if isinstance(expr, str):
        if not truthy:
            raise ValueError("value queries take a term AST")
        expr = parser.parse_formula(expr, theory.sig)
    before = theory.store.snapshot()
    scope = theory.env.scope(data, p=p)
    (root,) = _planned(theory, scope, expr)
    gv = ground_formula(theory.env, root, scope)
    values = np.asarray(gv.tensor.data)
    if truthy:
        if not ((values >= -TOL) & (values <= 1 + TOL)).all():  # NaN fails
            raise RuntimeError("truth query outside [0, 1]")
        values = np.clip(values, 0.0, 1.0)
    if theory.store.snapshot() != before:
        raise RuntimeError("query mutated the parameter store")
    return QueryResult(kind, values, gv.vars)


def truth_value(theory: Theory, formula, p: dict = None) -> float:
    """Scalar shortcut for closed-formula truth queries; ``p`` is as in
    :func:`query`."""
    return float(query(theory, "truth", formula, p=p).values)


# -- reasoning ----------------------------------------------------------------


@dataclass(frozen=True)
class ReasonRun:
    sat: float
    phi: float


@dataclass(frozen=True)
class RefutationConfig:
    q: float = 0.95
    restarts: int = 1
    epochs: int = 2000

    def __post_init__(self):
        if not 0.5 < self.q < 1:
            raise ValueError("q must be in (0.5, 1)")
        if self.epochs < 1 or self.restarts < 1:
            raise ValueError("epochs and restarts must be positive")


# soft_penalty weights (reward above q, slope below it) and the Adam step
# size of the refutation search
REFUTE_ALPHA = 0.05
REFUTE_BETA = 10.0
REFUTE_LR = 0.01


def soft_penalty(sat, q: float) -> Tensor:
    """Elu-shaped penalty on unsatisfied knowledge: linear in the deficit
    below q, a bounded negative reward above it. Continuous, zero at
    sat == q, non-increasing in sat. ``sat`` is a Tensor or a float."""
    sat = T.astensor(sat)
    d = q - sat
    return T.where(sat.data <= q, REFUTE_BETA * d,
                   REFUTE_ALPHA * (T.exp(d) - 1.0))


@dataclass(frozen=True)
class RefuteResult:
    entailed: bool
    vacuous: bool
    sat: float
    phi: float
    counterexample: dict  # slot name -> value; None unless refuted
    runs: tuple

    def __str__(self):
        if not self.entailed:
            return (f"NOT entailed: counterexample with Sat={self.sat:.4f}, "
                    f"phi={self.phi:.4f}")
        tag = " (vacuously: knowledge base never satisfiable to q)" \
            if self.vacuous else ""
        return f"entailed{tag}: Sat={self.sat:.4f}, phi={self.phi:.4f}"


def reason_refute(build, phi, rcfg: RefutationConfig = None) -> RefuteResult:
    """Search for a grounding that keeps the knowledge base satisfied
    (Sat >= q) while falsifying phi, by minimizing
    G(phi) + soft_penalty(Sat, q) with Adam for ``rcfg.epochs`` steps
    from each of ``rcfg.restarts`` theories. Finding one refutes
    entailment and ends the search. A step is ``learn``'s
    (:func:`_descend`) under an evaluation scope with this objective.

    ``build`` maps a restart index to a fresh Theory; ``phi`` is a
    closed formula, as an AST or source text parsed once, on the first
    theory: an open one raises ValueError naming its free variables.
    Quantifiers use the configured p, or an axiom's own annotation.
    """
    rcfg = rcfg or RefutationConfig()
    runs = []
    for i in range(rcfg.restarts):
        th = build(i)
        if isinstance(phi, str):
            phi = parser.parse_formula(phi, th.sig)
        _check_closed(phi, "refuted formula")
        scope = th.env.scope()
        (root,) = _planned(th, scope, phi)
        for _ in range(rcfg.epochs):
            grads, _, _ = _descend(th, scope, lambda s: ground_formula(
                th.env, root, scope).tensor + soft_penalty(s, rcfg.q),
                "objective", "in the refutation search")
            adam_step(th.store, grads, lr=REFUTE_LR)
        run = ReasonRun(float(satisfiability(th).data), truth_value(th, phi))
        runs.append(run)
        if run.sat >= rcfg.q and run.phi < rcfg.q:
            snapshot = {n: th.store.get(n).data.copy()
                        for n in th.store.names()}
            return RefuteResult(False, False, run.sat, run.phi, snapshot,
                                tuple(runs))
    best = max(runs, key=lambda r: r.sat)
    vacuous = best.sat < rcfg.q
    return RefuteResult(True, vacuous, best.sat, best.phi, None, tuple(runs))


# -- metric output -------------------------------------------------------------


def write_metrics(records, jsonl_path, csv_path) -> None:
    """Emit the metric stream as JSON-lines and as CSV. Keys are sorted
    and floats use repr, so equal runs produce identical bytes."""
    with open(jsonl_path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    keys = sorted({k for rec in records for k in rec})
    keys.remove("epoch")
    keys = ["epoch"] + keys
    with open(csv_path, "w") as fh:
        fh.write(",".join(keys) + "\n")
        for rec in records:
            fh.write(",".join("" if k not in rec else _fmt(rec[k])
                              for k in keys) + "\n")


def _fmt(v) -> str:
    return str(v) if isinstance(v, int) else repr(float(v))
